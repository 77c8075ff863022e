//! Sim-time latency histograms. Time series live in
//! [`freeride_sim::TraceRecorder`], not here.

use freeride_sim::SimDuration;

/// Sorted sim-time duration samples with nearest-rank quantiles.
///
/// This is the single percentile implementation of the workspace —
/// hoisted from `freeride-core`'s service front-end (which re-exports
/// it), now also usable incrementally via [`LatencyHistogram::record`].
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    sorted: Vec<u64>,
}

impl LatencyHistogram {
    /// Builds a histogram from raw nanosecond samples (sorted
    /// internally).
    pub fn from_nanos(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencyHistogram { sorted: samples }
    }

    /// Records one sample, keeping the internal order invariant —
    /// equivalent to rebuilding with the sample appended.
    pub fn record(&mut self, sample: SimDuration) {
        let nanos = sample.as_nanos();
        let at = self.sorted.partition_point(|&n| n <= nanos);
        self.sorted.insert(at, nanos);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the histogram holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`), or
    /// [`SimDuration::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        match self.sorted.len() {
            0 => SimDuration::ZERO,
            n => {
                let rank = (q * n as f64).ceil() as usize;
                SimDuration::from_nanos(self.sorted[rank.clamp(1, n) - 1])
            }
        }
    }

    /// Median sample.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 99th-percentile sample.
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// 99.9th-percentile sample.
    pub fn p999(&self) -> SimDuration {
        self.quantile(0.999)
    }

    /// The largest sample, or [`SimDuration::ZERO`] when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.sorted.last().copied().unwrap_or(0))
    }

    /// Arithmetic mean, or [`SimDuration::ZERO`] when empty.
    pub fn mean(&self) -> SimDuration {
        if self.sorted.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.sorted.iter().map(|&n| n as u128).sum();
        SimDuration::from_nanos((sum / self.sorted.len() as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_record_matches_batch_build() {
        let samples = vec![9_u64, 1, 5, 5, 3, 7, 2];
        let batch = LatencyHistogram::from_nanos(samples.clone());
        let mut incremental = LatencyHistogram::default();
        for s in samples {
            incremental.record(SimDuration::from_nanos(s));
        }
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(batch.quantile(q), incremental.quantile(q));
        }
        assert_eq!(batch.mean(), incremental.mean());
        assert_eq!(batch.len(), incremental.len());
    }
}
