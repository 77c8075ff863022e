//! A real neural-network training workload with manual backpropagation.
//!
//! The paper's model-training side tasks (ResNet18, ResNet50, VGG19 from
//! torchvision, §6.1.4) train on a GPU we do not have; the middleware only
//! observes their *per-step duration and memory footprint* (taken from the
//! calibrated [profiles]). To keep the side task genuine — the iterative
//! interface must wrap a real, step-wise, convergent computation — this
//! module implements a dense network trained by SGD on a synthetic
//! regression problem, with forward/backward passes written out by hand.
//!
//! Every product of a step, forward and backward, is one
//! [`Matrix::matmul`], whose docs give the order each element is summed in.
//! The ReLU and its gradient mask are one select per element: not a branch,
//! which mispredicts on the half of the pre-activations below 0, nor
//! `f64::max`, which turns a NaN into 0.0.
//!
//! [profiles]: crate::profiles

use freeride_sim::DetRng;

/// A dense matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier-style random initialisation.
    pub fn random(rows: usize, cols: usize, rng: &mut DetRng) -> Self {
        let scale = (2.0 / (rows + cols) as f64).sqrt();
        Matrix {
            rows,
            cols,
            data: (0..rows * cols)
                .map(|_| rng.next_gaussian() * scale)
                .collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice. Indexes rather than `chunks_exact`, which
    /// panics on zero-width rows.
    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..][..self.cols]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..][..self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// Element (i, j) starts at +0.0 and adds `self[i][k] · rhs[k][j]` in
    /// ascending k, skipping every k where `self[i][k] == 0.0` (−0.0 too):
    /// the plain triple loop's order, whatever column tile the element
    /// falls in.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let mut nonzero = vec![0; self.cols];
        for i in 0..self.rows {
            product_row(self.row(i), &mut nonzero, rhs, out.row_mut(i));
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// In-place `self -= lr * grad`.
    pub fn sgd_step(&mut self, grad: &Matrix, lr: f64) {
        assert_eq!((self.rows, self.cols), (grad.rows, grad.cols));
        for (w, g) in self.data.iter_mut().zip(&grad.data) {
            *w -= lr * g;
        }
    }
}

/// One row of a product, `out = lhs_row · rhs`. Lists the k of the nonzero
/// entries of `lhs_row` in `nonzero` (a buffer at least `lhs_row.len()`
/// long) without a branch, since about half of a layer's inputs are exact
/// ReLU zeros, then sums 16 columns at a time over that list, then the
/// remaining columns one by one.
fn product_row(lhs_row: &[f64], nonzero: &mut [usize], rhs: &Matrix, out: &mut [f64]) {
    let mut count = 0;
    for (k, &a) in lhs_row.iter().enumerate() {
        nonzero[count] = k;
        count += usize::from(a != 0.0);
    }
    let nonzero = &nonzero[..count];
    let mut col = 0;
    while col + 16 <= out.len() {
        product_tile::<16>(lhs_row, nonzero, rhs, col, out);
        col += 16;
    }
    while col < out.len() {
        product_tile::<1>(lhs_row, nonzero, rhs, col, out);
        col += 1;
    }
}

/// Columns `col..col + W` of one product row, summed over the listed k.
#[inline]
fn product_tile<const W: usize>(
    lhs_row: &[f64],
    nonzero: &[usize],
    rhs: &Matrix,
    col: usize,
    out: &mut [f64],
) {
    let mut acc = [0.0; W];
    for &k in nonzero {
        let a = lhs_row[k];
        for (s, &b) in acc.iter_mut().zip(&rhs.data[k * rhs.cols + col..][..W]) {
            *s += a * b;
        }
    }
    // Not `copy_from_slice`: with debug assertions on, as in the dev
    // profile, its precondition check keeps `acc` in memory and the loop
    // above scalar.
    for (o, s) in out[col..][..W].iter_mut().zip(acc) {
        *o = s;
    }
}

/// One fully connected layer with ReLU activation (identity on the output
/// layer).
struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    // Cached for backward.
    input: Matrix,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, rng: &mut DetRng) -> Self {
        Dense {
            weights: Matrix::random(inputs, outputs, rng),
            bias: vec![0.0; outputs],
            input: Matrix::zeros(0, 0),
        }
    }

    fn forward(&mut self, x: Matrix, relu: bool) -> Matrix {
        let mut z = x.matmul(&self.weights);
        self.input = x;
        for i in 0..z.rows() {
            for (v, b) in z.row_mut(i).iter_mut().zip(&self.bias) {
                let s = *v + b;
                *v = if relu && s < 0.0 { 0.0 } else { s };
            }
        }
        z
    }

    /// Backpropagates `grad_out` (∂L/∂output) and applies SGD; returns
    /// ∂L/∂input, or an empty matrix unless `propagate` (the first layer's
    /// input gradient has no reader). The ReLU `output`, if any, masks
    /// `grad_out`: it is ≤ 0 exactly where the pre-activation is.
    fn backward(
        &mut self,
        mut grad_out: Matrix,
        output: Option<&Matrix>,
        lr: f64,
        propagate: bool,
    ) -> Matrix {
        if let Some(output) = output {
            for (g, y) in grad_out.data.iter_mut().zip(&output.data) {
                *g = if *y <= 0.0 { 0.0 } else { *g };
            }
        }
        // grad_w = inputᵀ · grad_out: element (i, j) sums its terms in
        // batch order.
        let grad_w = self.input.transpose().matmul(&grad_out);
        let grad_in = if propagate {
            grad_out.matmul(&self.weights.transpose())
        } else {
            Matrix::zeros(0, 0)
        };
        let batch = self.input.rows().max(1) as f64;
        let mut grad_b = vec![0.0; self.bias.len()];
        for i in 0..grad_out.rows() {
            for (g, v) in grad_b.iter_mut().zip(grad_out.row(i)) {
                *g += v;
            }
        }
        for (b, g) in self.bias.iter_mut().zip(grad_b) {
            *b -= lr * g / batch;
        }
        self.weights.sgd_step(&grad_w, lr / batch);
        grad_in
    }
}

/// A small multi-layer perceptron trained on a synthetic regression task
/// (`y = sin(Σx) + 0.5·x₀`), standing in for the paper's torchvision
/// models.
pub struct NnTraining {
    layers: Vec<Dense>,
    rng: DetRng,
    batch_size: usize,
    inputs: usize,
    lr: f64,
    steps: u64,
    last_loss: f64,
}

impl NnTraining {
    /// Builds a network with the given hidden sizes.
    pub fn new(inputs: usize, hidden: &[usize], batch_size: usize, seed: u64) -> Self {
        assert!(inputs > 0 && batch_size > 0 && !hidden.is_empty());
        let mut rng = DetRng::seed_from_u64(seed);
        let mut layers = Vec::new();
        let mut prev = inputs;
        for &h in hidden {
            layers.push(Dense::new(prev, h, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, 1, &mut rng));
        NnTraining {
            layers,
            rng,
            batch_size,
            inputs,
            lr: 0.05,
            steps: 0,
            last_loss: f64::INFINITY,
        }
    }

    /// Samples a synthetic batch.
    fn sample_batch(&mut self) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::zeros(self.batch_size, self.inputs);
        let mut y = Vec::with_capacity(self.batch_size);
        for i in 0..self.batch_size {
            let mut sum = 0.0;
            for j in 0..self.inputs {
                let v = self.rng.next_f64() * 2.0 - 1.0;
                x.set(i, j, v);
                sum += v;
            }
            y.push(sum.sin() + 0.5 * x.get(i, 0));
        }
        (x, y)
    }

    /// Runs one training step (forward, MSE loss, backward, SGD update)
    /// and returns the batch loss.
    pub fn train_step(&mut self) -> f64 {
        let (x, y) = self.sample_batch();
        let hidden = self.layers.len() - 1;
        let mut out = x;
        for (l, layer) in self.layers.iter_mut().enumerate() {
            out = layer.forward(out, l < hidden);
        }
        let n = y.len() as f64;
        let mut loss = 0.0;
        let mut grad = Matrix::zeros(out.rows(), 1);
        for (i, target) in y.iter().enumerate() {
            let err = out.get(i, 0) - target;
            loss += err * err;
            grad.set(i, 0, 2.0 * err / n);
        }
        loss /= n;
        for l in (0..self.layers.len()).rev() {
            // A hidden layer's ReLU output is the next layer's cached input.
            let (below, above) = self.layers.split_at_mut(l + 1);
            grad = below[l].backward(grad, above.first().map(|next| &next.input), self.lr, l > 0);
        }
        self.steps += 1;
        self.last_loss = loss;
        loss
    }

    /// Training steps performed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Loss of the most recent step.
    pub fn last_loss(&self) -> f64 {
        self.last_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 3.0);
        a.set(1, 1, 4.0);
        let b = a.clone();
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 7.0);
        assert_eq!(c.get(0, 1), 10.0);
        assert_eq!(c.get(1, 0), 15.0);
        assert_eq!(c.get(1, 1), 22.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = DetRng::seed_from_u64(1);
        let a = Matrix::random(3, 5, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn training_reduces_loss() {
        let mut t = NnTraining::new(4, &[32, 16], 32, 42);
        let initial: f64 = (0..5).map(|_| t.train_step()).sum::<f64>() / 5.0;
        for _ in 0..800 {
            t.train_step();
        }
        let trained: f64 = (0..5).map(|_| t.train_step()).sum::<f64>() / 5.0;
        assert!(
            trained < initial * 0.5,
            "loss should at least halve: {initial} → {trained}"
        );
        assert_eq!(t.steps(), 810);
    }

    #[test]
    fn training_is_deterministic() {
        let run = |seed| {
            let mut t = NnTraining::new(4, &[16], 16, seed);
            for _ in 0..50 {
                t.train_step();
            }
            t.last_loss()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn relu_and_its_mask_keep_every_bit() {
        // Identity weights and a zero input make the bias the pre-activation.
        let z = [-1.5, f64::NEG_INFINITY, 0.0, 2.0, f64::INFINITY, f64::NAN];
        let n = z.len();
        let mut layer = Dense::new(n, n, &mut DetRng::seed_from_u64(1));
        layer.weights = Matrix::zeros(n, n);
        for i in 0..n {
            layer.weights.set(i, i, 1.0);
        }
        layer.bias = z.to_vec();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let out = layer.forward(Matrix::zeros(1, n), true);
        let relu = [0.0, 0.0, 0.0, 2.0, f64::INFINITY, f64::NAN];
        assert_eq!(bits(&out.data), bits(&relu));
        // Through the identity, the input gradient is the masked gradient.
        let mut grad = Matrix::zeros(1, n);
        for j in 0..n {
            grad.set(0, j, j as f64 + 1.0);
        }
        let masked = layer.backward(grad, Some(&out), 0.0, true);
        assert_eq!(bits(&masked.data), bits(&[0.0, 0.0, 0.0, 4.0, 5.0, 6.0]));
    }

    #[test]
    fn sgd_step_moves_weights() {
        let mut w = Matrix::zeros(1, 1);
        let mut g = Matrix::zeros(1, 1);
        g.set(0, 0, 2.0);
        w.sgd_step(&g, 0.5);
        assert_eq!(w.get(0, 0), -1.0);
    }
}
