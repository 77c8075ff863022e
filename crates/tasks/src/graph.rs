//! The graph analytics side tasks and their substrate: a CSR graph, a
//! deterministic power-law generator, [`PageRank`] and [`GraphSgd`].
//!
//! The paper's graph side tasks (Gardenia's PageRank and Graph SGD,
//! §6.1.4) run over the Orkut social network — a 3M-node public snapshot
//! unavailable offline. We substitute a synthetic graph with matching
//! degree skew, generated by preferential attachment.
//!
//! PageRank reads the graph once, into a sliced in-edge layout (groups of
//! eight nodes of similar in-degree, their in-lists interleaved), and
//! gathers each node's new rank from it in the order a push loop would
//! scatter it, so every iterate is the push iteration's, bit for bit. It
//! computes only until its rank vector repeats (about 70 iterations on
//! the side tasks' 1,000-node graphs) and replays the limit cycle from
//! then on; see [`PageRank`] for the layout, the detector and the
//! measured onset.

use freeride_sim::DetRng;
use std::collections::BTreeMap;

/// A directed graph in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is ≥ `nodes`.
    pub fn from_edges(nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; nodes];
        for &(s, d) in edges {
            assert!(
                (s as usize) < nodes && (d as usize) < nodes,
                "edge out of range"
            );
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        for n in 0..nodes {
            offsets.push(offsets[n] + degree[n]);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(s, d) in edges {
            targets[cursor[s as usize]] = d;
            cursor[s as usize] += 1;
        }
        CsrGraph { offsets, targets }
    }

    /// Generates a power-law graph by preferential attachment: each new
    /// node draws `edges_per_node` endpoints biased towards high-degree
    /// nodes (Orkut-like skew), deterministically from `rng`.
    pub fn power_law(nodes: usize, edges_per_node: usize, rng: &mut DetRng) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(nodes * edges_per_node);
        // Endpoint pool: nodes appear once per incident edge, so sampling
        // uniformly from the pool is degree-proportional.
        let mut pool: Vec<u32> = vec![0, 1];
        edges.push((0, 1));
        edges.push((1, 0));
        for v in 2..nodes as u32 {
            for _ in 0..edges_per_node {
                let u = pool[rng.gen_index(pool.len())];
                if u == v {
                    continue;
                }
                edges.push((v, u));
                edges.push((u, v));
                pool.push(u);
                pool.push(v);
            }
        }
        CsrGraph::from_edges(nodes, &edges)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `node`.
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.targets[self.offsets[node]..self.offsets[node + 1]]
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.offsets[node + 1] - self.offsets[node]
    }

    /// Maximum out-degree (skew witness).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|n| self.degree(n))
            .max()
            .unwrap_or(0)
    }
}

/// Nodes summed side by side in the in-edge sweep: each of a group's nodes
/// keeps its own running sum, so their additions overlap instead of waiting
/// on one another. On a 1,000-node graph a step took 3.3 µs with 8 lanes
/// against 5.7 µs for the push loop; plain in-lists, one node at a time,
/// were no faster than the push loop.
const LANES: usize = 8;

/// PageRank by power iteration (damping 0.85), one iteration per side-task
/// step — Gardenia's PR kernel shape.
///
/// # The in-edge sweep
///
/// An iteration gathers instead of scattering. [`new`](Self::new) lists
/// every node's in-edges in the order a push loop over the out-edges adds
/// them (sources ascending, a duplicated edge twice in a row), sorts the
/// nodes by descending in-degree and interleaves each group of
/// `LANES` (8) nodes' lists, padding them to the group's longest with a
/// sentinel source whose share is +0.0 (SELL-C-σ, Kreutzer et al., SIAM J.
/// Sci. Comput. 36(5), 2014). The layout is built with counting sorts in
/// O(n + m) and the graph is dropped. A step then computes every node's
/// share `damping * rank / out_degree`, the dangling sum over the sinks in
/// ascending order, and for each node `base`, plus its in-edges' shares in
/// list order, plus the dangling share. Each node therefore adds the push
/// loop's terms in the push loop's order, and a pad adds +0.0 to a sum
/// that is at least `base` > 0, so the ranks and deltas are those of the
/// plain push iteration, bit for bit.
///
/// # Cycle replay
///
/// In floating point the iteration never reaches a fixed point. After some
/// tens of steps the rank vector falls into a short limit cycle and repeats
/// bit for bit. On the 200 `power_law(1000, 4)` graphs of seeds 1–200 the
/// cycle starts at iterate μ = 62–80, with period λ = 2 (196 graphs), 4 (3)
/// or 6 (1); graphs of 100 to 20,000 nodes start it 58–77 iterates in and
/// also show periods 1 and 10. The solver folds each iterate's bits into a
/// 64-bit key and remembers the latest iterate at which each key appeared.
/// When a key comes back after `p` iterates, it computes `p` more,
/// recording each iterate and its delta, and replays the record only if
/// the last of them equals, bit for bit, the iterate whose key came back;
/// otherwise it keeps computing. The first repeat, at iterate μ + λ, is
/// thus replayed from iterate μ + 2λ: on those 200 graphs after 66–84
/// computed iterations, 71.1 on average. (Brent's power-of-two marks see a
/// cycle that starts past iterate 63 only from the mark at 127: 126.6
/// computed iterations on average, up to 139.) From then on a step costs
/// an index increment, and [`run_steps`](Self::run_steps) jumps any number
/// of steps at once.
///
/// Replay is exact because [`step`](Self::step) reads only the rank vector,
/// the immutable layout of the graph and the constant damping. Once the
/// vector equals an earlier iterate bit for bit, every later iterate and L1
/// delta is already known, and `step`, [`last_delta`](Self::last_delta),
/// [`iterations`](Self::iterations) and [`ranks`](Self::ranks) return what
/// recomputation would. A future setter for any of those three inputs breaks
/// this invariant and must reset the detector.
pub struct PageRank {
    damping: f64,
    iterations: u64,
    last_delta: f64,
    orbit: Orbit,
}

/// Where the rank vector is on its orbit.
enum Orbit {
    /// Computing iterates until one full period is recorded.
    Compute(Box<PowerIteration>),
    /// Replaying the recorded period; the current iterate is `cycle[slot]`.
    Replay { cycle: Cycle, slot: usize },
}

/// One period of iterates, each with the L1 delta that produced it.
type Cycle = Vec<(Vec<f64>, f64)>;

/// The power iteration over the sliced in-edge layout, with its repeat
/// detector.
struct PowerIteration {
    /// Out-degree of each node (0 for a sink).
    out_degree: Vec<u32>,
    /// The nodes without out-edges, ascending.
    sinks: Vec<u32>,
    /// Nodes by descending in-degree; group `g` is
    /// `rows[g * LANES..][..LANES]` (the last group may be shorter).
    rows: Vec<u32>,
    /// Group `g`'s slots are `slots[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    /// Each group's in-lists interleaved: slot `starts[g] + j * LANES + lane`
    /// holds the `j`-th source of the group's `lane`-th node, or the
    /// sentinel `n` past the end of that node's list.
    slots: Vec<u32>,
    /// Each node's share of the current ranks, then the sentinel's +0.0.
    share: Vec<f64>,
    ranks: Vec<f64>,
    /// Scratch for the next iterate, swapped with `ranks` every step.
    next: Vec<f64>,
    detector: Detector,
}

/// Finds the first repeat among the iterates fed to it and records one
/// period after it.
struct Detector {
    /// The latest iterate at which each key was seen. It grows by one entry
    /// per computed iterate until the repeat.
    seen: BTreeMap<u64, u64>,
    /// Iterates fed so far.
    fed: u64,
    /// A repeat being verified.
    candidate: Option<Candidate>,
}

/// An iterate whose key was seen `period` iterates earlier, and the
/// iterates computed since.
struct Candidate {
    start: Vec<f64>,
    period: usize,
    cycle: Cycle,
}

impl PageRank {
    /// Creates the solver with uniform initial ranks; the graph is read
    /// into the sweep's layout and dropped.
    pub fn new(graph: CsrGraph) -> Self {
        PageRank {
            damping: 0.85,
            iterations: 0,
            last_delta: f64::INFINITY,
            orbit: Orbit::Compute(Box::new(PowerIteration::new(&graph))),
        }
    }

    /// Advances one power iteration; returns the L1 change in the rank
    /// vector.
    pub fn step(&mut self) -> f64 {
        self.advance(1)
    }

    /// Runs `n` steps; returns the last one's delta, or `None` for
    /// `n == 0`. Equal to `n` [`step`](Self::step) calls, but once the
    /// cycle replays it costs the same for any `n`.
    pub fn run_steps(&mut self, n: u64) -> Option<f64> {
        (n > 0).then(|| self.advance(n))
    }

    /// Runs `n ≥ 1` steps: computed ones one at a time, replayed ones in a
    /// single jump.
    fn advance(&mut self, n: u64) -> f64 {
        self.iterations += n;
        let mut left = n;
        loop {
            match &mut self.orbit {
                Orbit::Replay { cycle, slot } => {
                    // A single step must not pay for a division.
                    let period = cycle.len() as u64;
                    let jump = if left < period { left } else { left % period };
                    *slot += jump as usize;
                    if *slot >= cycle.len() {
                        *slot -= cycle.len();
                    }
                    self.last_delta = cycle[*slot].1;
                    return self.last_delta;
                }
                Orbit::Compute(iteration) => {
                    let (delta, key) = iteration.step(self.damping);
                    self.last_delta = delta;
                    if let Some(cycle) = iteration.detector.feed(&iteration.ranks, key, delta) {
                        self.orbit = Orbit::Replay {
                            slot: cycle.len() - 1,
                            cycle,
                        };
                    }
                    left -= 1;
                    if left == 0 {
                        return self.last_delta;
                    }
                }
            }
        }
    }

    /// Iterations run so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// L1 delta of the most recent iteration (convergence witness).
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// The current rank vector.
    pub fn ranks(&self) -> &[f64] {
        match &self.orbit {
            Orbit::Compute(iteration) => &iteration.ranks,
            Orbit::Replay { cycle, slot } => &cycle[*slot].0,
        }
    }
}

impl PowerIteration {
    /// Lays `graph` out for the sweep in O(n + m) and starts from uniform
    /// ranks.
    fn new(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let mut in_degree = vec![0usize; n];
        for &v in &graph.targets {
            in_degree[v as usize] += 1;
        }
        // Counting sort by descending in-degree: degree `d` goes to bucket
        // `max - d`, and equal degrees keep ascending node order.
        let max = in_degree.iter().copied().max().unwrap_or(0);
        let mut cursor = vec![0usize; max + 1];
        for &d in &in_degree {
            cursor[max - d] += 1;
        }
        let mut start = 0;
        for c in cursor.iter_mut() {
            let count = *c;
            *c = start;
            start += count;
        }
        let mut rows = vec![0u32; n];
        for (v, &d) in in_degree.iter().enumerate() {
            rows[cursor[max - d]] = v as u32;
            cursor[max - d] += 1;
        }
        let mut starts = Vec::with_capacity(n.div_ceil(LANES) + 1);
        starts.push(0);
        for group in rows.chunks(LANES) {
            starts.push(starts[starts.len() - 1] + in_degree[group[0] as usize] * LANES);
        }
        // Each node's next free slot, from its lane in its group's first
        // row; a push loop over the out-edges fills the lists in its order.
        let mut cursor = in_degree;
        for (i, &v) in rows.iter().enumerate() {
            cursor[v as usize] = starts[i / LANES] + i % LANES;
        }
        let mut slots = vec![n as u32; starts[starts.len() - 1]];
        for u in 0..n {
            for &v in graph.neighbors(u) {
                slots[cursor[v as usize]] = u as u32;
                cursor[v as usize] += LANES;
            }
        }
        // The uniform start is iterate 0, so a cycle through it is found
        // like any other.
        let ranks = vec![1.0 / n as f64; n];
        let mut detector = Detector::new();
        let key = ranks.iter().fold(0, |key, &x| fold_key(key, x));
        detector.feed(&ranks, key, f64::INFINITY);
        PowerIteration {
            out_degree: (0..n).map(|u| graph.degree(u) as u32).collect(),
            sinks: (0..n as u32)
                .filter(|&u| graph.degree(u as usize) == 0)
                .collect(),
            rows,
            starts,
            slots,
            share: vec![0.0; n + 1],
            next: vec![0.0; n],
            ranks,
            detector,
        }
    }

    /// Computes the next iterate into `ranks`; returns the L1 change and
    /// the new iterate's key.
    fn step(&mut self, damping: f64) -> (f64, u64) {
        let n = self.ranks.len();
        let ranks = &self.ranks;
        // A sink's share (+inf) is never read: no in-list names a sink.
        for ((share, &rank), &out) in self.share.iter_mut().zip(ranks).zip(&self.out_degree) {
            *share = damping * rank / out as f64;
        }
        let dangling = self
            .sinks
            .iter()
            .fold(0.0, |sum, &u| sum + ranks[u as usize]);
        let base = (1.0 - damping) / n as f64;
        let dangling_share = damping * dangling / n as f64;
        let share = &self.share;
        for (group, span) in self.rows.chunks(LANES).zip(self.starts.windows(2)) {
            let mut acc = [base; LANES];
            for sources in self.slots[span[0]..span[1]].as_chunks::<LANES>().0 {
                for (acc, &u) in acc.iter_mut().zip(sources) {
                    *acc += share[u as usize];
                }
            }
            for (&v, acc) in group.iter().zip(acc) {
                self.next[v as usize] = acc + dangling_share;
            }
        }
        let (mut delta, mut key) = (0.0, 0);
        for (&a, &b) in self.next.iter().zip(ranks) {
            delta += (a - b).abs();
            key = fold_key(key, a);
        }
        std::mem::swap(&mut self.ranks, &mut self.next);
        (delta, key)
    }
}

/// Folds one element of an iterate into the iterate's key. A rotate and an
/// integer add per element ride along the δ pass's serial float sum at no
/// measurable cost; equal iterates get equal keys, and the detector checks
/// a match bit for bit before it trusts it.
fn fold_key(key: u64, x: f64) -> u64 {
    key.rotate_left(5).wrapping_add(x.to_bits())
}

impl Detector {
    fn new() -> Self {
        Detector {
            seen: BTreeMap::new(),
            fed: 0,
            candidate: None,
        }
    }

    /// Feeds the next iterate with its key and delta. Once a key comes
    /// back after `p` iterates, records the next `p` iterates and returns
    /// them if the last equals, bit for bit, the one whose key came back;
    /// otherwise drops them and watches for the next match.
    fn feed(&mut self, ranks: &[f64], key: u64, delta: f64) -> Option<Cycle> {
        let fed = self.fed;
        self.fed += 1;
        let previous = self.seen.insert(key, fed);
        if let Some(mut candidate) = self.candidate.take() {
            candidate.cycle.push((ranks.to_vec(), delta));
            if candidate.cycle.len() < candidate.period {
                self.candidate = Some(candidate);
                return None;
            }
            let mut pairs = ranks.iter().zip(&candidate.start);
            if pairs.all(|(a, b)| a.to_bits() == b.to_bits()) {
                return Some(candidate.cycle);
            }
        }
        if let Some(previous) = previous {
            self.candidate = Some(Candidate {
                start: ranks.to_vec(),
                period: (fed - previous) as usize,
                cycle: Vec::new(),
            });
        }
        None
    }
}

/// SGD matrix factorisation (Koren-style collaborative filtering), the
/// paper's "Graph SGD" side task: one step performs one SGD sweep over a
/// sample of ratings.
pub struct GraphSgd {
    users: usize,
    items: usize,
    rank: usize,
    user_factors: Vec<f64>,
    item_factors: Vec<f64>,
    ratings: Vec<(u32, u32, f64)>,
    rng: DetRng,
    lr: f64,
    reg: f64,
    sweeps: u64,
    last_rmse: f64,
}

impl GraphSgd {
    /// Builds a factorisation problem over a synthetic low-rank ratings
    /// matrix with noise.
    pub fn new(users: usize, items: usize, rank: usize, ratings_count: usize, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        // Ground-truth low-rank structure.
        let gt_user: Vec<f64> = (0..users * rank)
            .map(|_| rng.next_gaussian() * 0.5)
            .collect();
        let gt_item: Vec<f64> = (0..items * rank)
            .map(|_| rng.next_gaussian() * 0.5)
            .collect();
        let mut ratings = Vec::with_capacity(ratings_count);
        for _ in 0..ratings_count {
            let u = rng.gen_index(users);
            let i = rng.gen_index(items);
            let mut dot = 0.0;
            for k in 0..rank {
                dot += gt_user[u * rank + k] * gt_item[i * rank + k];
            }
            ratings.push((u as u32, i as u32, dot + rng.next_gaussian() * 0.05));
        }
        let user_factors = (0..users * rank)
            .map(|_| rng.next_gaussian() * 0.1)
            .collect();
        let item_factors = (0..items * rank)
            .map(|_| rng.next_gaussian() * 0.1)
            .collect();
        GraphSgd {
            users,
            items,
            rank,
            user_factors,
            item_factors,
            ratings,
            rng,
            lr: 0.05,
            reg: 0.01,
            sweeps: 0,
            last_rmse: f64::INFINITY,
        }
    }

    /// One SGD sweep over the ratings (shuffled); returns the RMSE over
    /// the sweep.
    pub fn step(&mut self) -> f64 {
        let mut order: Vec<usize> = (0..self.ratings.len()).collect();
        self.rng.shuffle(&mut order);
        let mut sq = 0.0;
        for idx in order {
            let (u, i, r) = self.ratings[idx];
            let (u, i) = (u as usize, i as usize);
            let mut pred = 0.0;
            for k in 0..self.rank {
                pred += self.user_factors[u * self.rank + k] * self.item_factors[i * self.rank + k];
            }
            let err = r - pred;
            sq += err * err;
            for k in 0..self.rank {
                let uf = self.user_factors[u * self.rank + k];
                let vf = self.item_factors[i * self.rank + k];
                self.user_factors[u * self.rank + k] += self.lr * (err * vf - self.reg * uf);
                self.item_factors[i * self.rank + k] += self.lr * (err * uf - self.reg * vf);
            }
        }
        self.sweeps += 1;
        self.last_rmse = (sq / self.ratings.len() as f64).sqrt();
        self.last_rmse
    }

    /// Sweeps performed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// RMSE of the most recent sweep.
    pub fn last_rmse(&self) -> f64 {
        self.last_rmse
    }

    /// Problem dimensions `(users, items, rank)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.users, self.items, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_from_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2), (2, 0)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn power_law_graph_is_skewed() {
        let mut rng = DetRng::seed_from_u64(3);
        let g = CsrGraph::power_law(2000, 4, &mut rng);
        assert_eq!(g.num_nodes(), 2000);
        let mean = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            g.max_degree() as f64 > mean * 10.0,
            "power-law graphs have heavy hubs: max {} vs mean {mean}",
            g.max_degree()
        );
    }

    #[test]
    fn power_law_deterministic() {
        let build = || {
            let mut rng = DetRng::seed_from_u64(11);
            CsrGraph::power_law(500, 3, &mut rng).num_edges()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn pagerank_converges_and_sums_to_one() {
        let mut rng = DetRng::seed_from_u64(5);
        let g = CsrGraph::power_law(500, 3, &mut rng);
        let mut pr = PageRank::new(g);
        let first = pr.step();
        for _ in 0..50 {
            pr.step();
        }
        let last = pr.last_delta();
        assert!(last < first / 100.0, "should converge: {first} → {last}");
        let sum: f64 = pr.ranks().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "ranks must stay a distribution: {sum}"
        );
        assert_eq!(pr.iterations(), 51);
    }

    #[test]
    fn pagerank_handles_dangling_nodes() {
        // Node 2 has no out-edges.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut pr = PageRank::new(g);
        for _ in 0..30 {
            pr.step();
        }
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(pr.ranks().iter().all(|r| *r > 0.0));
    }

    /// The cycle's start μ and period λ, found by storing every iterate of
    /// the sweep (no detector) until one repeats.
    fn first_repeat(graph: &CsrGraph) -> (u64, u64) {
        let mut iteration = PowerIteration::new(graph);
        let mut seen = BTreeMap::new();
        for t in 0.. {
            let bits: Vec<u64> = iteration.ranks.iter().map(|x| x.to_bits()).collect();
            if let Some(s) = seen.insert(bits, t) {
                return (s, t - s);
            }
            iteration.step(0.85);
        }
        unreachable!()
    }

    /// Replay has begun by iterate μ + 2λ, the earliest a verified repeat
    /// allows, with μ and λ found by brute force. Brent's power-of-two
    /// marks, which find a cycle starting past iterate 63 only from the
    /// mark at 127, fail it.
    #[test]
    fn pagerank_replays_its_limit_cycle() {
        for (nodes, seed, period) in [(100, 5, 1), (1000, 1, 2), (300, 50, 10), (1000, 5, 6)] {
            let graph = CsrGraph::power_law(nodes, 4, &mut DetRng::seed_from_u64(seed));
            let (mu, lambda) = first_repeat(&graph);
            assert_eq!(lambda, period, "{nodes}/{seed}");
            let mut pr = PageRank::new(graph);
            pr.run_steps(mu + 2 * lambda);
            match &pr.orbit {
                Orbit::Replay { cycle, .. } => assert_eq!(cycle.len() as u64, lambda),
                Orbit::Compute(_) => panic!("{nodes}/{seed}: μ = {mu}, no replay by μ + 2λ"),
            }
        }
    }

    /// Keys can collide; only a period whose last iterate equals the one
    /// whose key came back is replayed.
    #[test]
    fn a_key_match_replays_only_what_repeats_bit_for_bit() {
        let (a, b, c) = (vec![0.5, 0.5], vec![0.25, 0.75], vec![0.75, 0.25]);
        let mut detector = Detector::new();
        assert!(detector.feed(&a, 1, 0.0).is_none());
        // b's key matches a's, but the iterate after b is not b again.
        assert!(detector.feed(&b, 1, 0.5).is_none());
        assert!(detector.feed(&c, 2, 1.0).is_none());
        // b, c, b: a true repeat of period 2.
        assert!(detector.feed(&b, 1, 1.0).is_none());
        assert!(detector.feed(&c, 2, 1.0).is_none());
        let cycle = detector.feed(&b, 1, 1.0).expect("b, c, b, c, b repeats");
        assert_eq!(cycle, vec![(c, 1.0), (b, 1.0)]);
    }

    #[test]
    fn sgd_rmse_decreases() {
        let mut sgd = GraphSgd::new(80, 60, 4, 2000, 9);
        let first = sgd.step();
        for _ in 0..30 {
            sgd.step();
        }
        let last = sgd.last_rmse();
        assert!(
            last < first * 0.5,
            "factorisation should fit: {first} → {last}"
        );
        assert_eq!(sgd.sweeps(), 31);
        assert_eq!(sgd.dims(), (80, 60, 4));
    }

    #[test]
    fn sgd_deterministic() {
        let run = || {
            let mut s = GraphSgd::new(20, 20, 3, 300, 4);
            for _ in 0..5 {
                s.step();
            }
            s.last_rmse()
        };
        assert_eq!(run(), run());
    }
}
