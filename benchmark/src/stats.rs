//! Nearest-rank order statistics over the samples one run collects.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// How many samples must lie beyond a percentile for it to be reported.
const BEYOND: usize = 10;

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with at
/// least `q · n` samples at or below it. `None` for no samples.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied()
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it among `n`, or `None` when even the median has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n - ((q * n as f64).ceil() as usize).min(n) >= BEYOND)
}

/// Sorts `values` ascending (NaN last) in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Count, median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; all-zero for no samples.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        sort(&mut v);
        let at = |q| nearest_rank(&v, q).unwrap_or(0.0);
        Summary {
            n: v.len(),
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
    }

    #[test]
    fn summary_reports_median_quartiles_and_range() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!((s.min, s.max), (1.0, 5.0));
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median has 9 beyond it, so nothing qualifies.
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(5_000_000), Some(0.9999));
    }
}
