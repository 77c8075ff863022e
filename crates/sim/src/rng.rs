//! Deterministic, component-split random number generation.
//!
//! Simulations must be reproducible: the same seed must produce the same
//! run on every platform and every release. [`DetRng`] wraps a ChaCha-based
//! generator (whose output is specified, unlike `StdRng`) and supports
//! deriving independent *streams* per component, so inserting a new
//! randomness consumer into one subsystem never perturbs another's draws.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A deterministic random number generator with named sub-streams.
pub struct DetRng {
    inner: ChaCha12Rng,
    seed: u64,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            inner: ChaCha12Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for the component named `label`.
    ///
    /// The derivation mixes the label into the parent seed with an
    /// FNV-1a-style hash, so distinct labels give decorrelated streams and
    /// the same `(seed, label)` pair always gives the same stream.
    pub fn derive(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Mix once more so short labels do not leave high bits untouched.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        DetRng::seed_from_u64(h)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot index an empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.inner.gen_bool(p)
    }

    /// A draw from the standard normal distribution (Box–Muller).
    pub fn next_gaussian(&mut self) -> f64 {
        // Box–Muller keeps us independent of distribution crates.
        loop {
            let u1 = self.next_f64();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.next_f64();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }

    /// A draw from a log-normal-ish jitter factor centred on 1.0 with
    /// relative spread `sigma` (e.g. `0.02` for ±2% noise), clamped to
    /// `[1 - 4σ, 1 + 4σ]` to keep tails bounded.
    pub fn jitter_factor(&mut self, sigma: f64) -> f64 {
        assert!((0.0..1.0).contains(&sigma), "sigma out of range: {sigma}");
        if sigma == 0.0 {
            return 1.0;
        }
        let g = self.next_gaussian() * sigma;
        (1.0 + g)
            .clamp(1.0 - 4.0 * sigma, 1.0 + 4.0 * sigma)
            .max(0.01)
    }

    /// Advances the stream past `n` [`RngCore::next_u64`] draws without
    /// making them. Every `next_u64` consumes exactly two words of the
    /// ChaCha stream, so this is one seek of the same cost for any `n`.
    pub fn skip_u64(&mut self, n: u64) {
        let pos = self.inner.get_word_pos();
        self.inner.set_word_pos(pos + 2 * u128::from(n));
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }
}

impl RngCore for DetRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    #[inline]
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be decorrelated");
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = DetRng::seed_from_u64(42);
        let mut x1 = root.derive("gpu0");
        let mut x2 = root.derive("gpu0");
        let mut y = root.derive("gpu1");
        let a = x1.next_u64();
        assert_eq!(a, x2.next_u64());
        assert_ne!(a, y.next_u64());
    }

    #[test]
    fn derive_does_not_consume_parent() {
        let mut a = DetRng::seed_from_u64(9);
        let mut b = DetRng::seed_from_u64(9);
        let _ = a.derive("child");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn skip_u64_lands_where_sequential_draws_do() {
        let mut sequential = DetRng::seed_from_u64(6);
        let draws: Vec<u64> = (0..100).map(|_| sequential.next_u64()).collect();
        for (k, start) in [(0, 0), (1, 0), (8, 0), (9, 3), (57, 42)] {
            let mut rng = DetRng::seed_from_u64(6);
            for _ in 0..start {
                rng.next_u64();
            }
            rng.skip_u64(k);
            assert_eq!(
                rng.next_u64(),
                draws[(start + k) as usize],
                "skip {k} from {start}"
            );
        }
        // After an odd number of words the skipped draws straddle blocks.
        let mut odd = DetRng::seed_from_u64(6);
        let mut odd_sequential = DetRng::seed_from_u64(6);
        odd.next_u32();
        odd_sequential.next_u32();
        for _ in 0..20 {
            odd_sequential.next_u64();
        }
        odd.skip_u64(20);
        assert_eq!(odd.next_u64(), odd_sequential.next_u64());
    }

    #[test]
    fn gen_range_bounds_respected() {
        let mut r = DetRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = DetRng::seed_from_u64(3);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn jitter_is_centred_and_clamped() {
        let mut r = DetRng::seed_from_u64(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let j = r.jitter_factor(0.02);
            assert!((0.9..=1.1).contains(&j));
            sum += j;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert_eq!(r.jitter_factor(0.0), 1.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::seed_from_u64(0).gen_range_u64(5, 5);
    }
}
