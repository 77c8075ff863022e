//! Time-series capture for figures and assertions.
//!
//! The paper's Figures 1 and 8 plot GPU SM occupancy and memory consumption
//! over time. [`TraceRecorder`] collects `(time, value)` samples per named
//! series, supports step-function semantics (a value holds until the next
//! sample), and can resample onto a fixed grid for rendering or integrate a
//! series over a window for utilisation accounting.
//!
//! Which series each producer records (`N` is a stage, `g` a GPU):
//!
//! - the standalone training runner (`freeride_pipeline::run_training`,
//!   Fig. 1): `stageN.sm`, the SM occupancy, sampled after every op launch
//!   and device tick; and `stageN.mem.used`, the training footprint in GiB,
//!   one sample at time zero;
//! - the cluster orchestrator (every co-location run, Fig. 8): `gpu{g}.mem`,
//!   the device's used memory in GiB, sampled after every op launch,
//!   dispatched device tick, worker command, grace check, crash and
//!   straggler window on that GPU. Side-task steps a worker computes on
//!   catch-up instead of through the event queue dispatch no ticks and
//!   take no samples: nothing can allocate or free on the device during
//!   such a run, so each sample a tick would have taken repeats the last
//!   value, which [`Series::record`] drops. It records no occupancy
//!   series.
//!
//! Both producers resolve their series names once, when their world is
//! built, so recording on the per-event path neither formats nor allocates.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One `(time, value)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the value took effect.
    pub time: SimTime,
    /// The observed value (units are series-specific).
    pub value: f64,
}

/// A single named step-function series.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<Sample>,
}

impl Series {
    /// Appends a sample. Samples must arrive in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the latest recorded sample.
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.samples.last_mut() {
            assert!(
                time >= last.time,
                "trace samples must be time-ordered: {} after {}",
                time,
                last.time
            );
            // Collapse same-instant updates: the last write wins, matching
            // step-function semantics.
            if last.time == time {
                last.value = value;
                return;
            }
            if (last.value - value).abs() < f64::EPSILON {
                return; // no change; keep the trace compact
            }
        }
        self.samples.push(Sample { time, value });
    }

    /// All recorded change-points.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The value in effect at `time` (step-function lookup), or `None`
    /// before the first sample.
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|s| s.time.cmp(&time)) {
            Ok(i) => Some(self.samples[i].value),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].value),
        }
    }

    /// Integrates the step function over `[from, to)`, returning the
    /// time-weighted mean value. Time before the first sample counts as 0.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        let window = to.saturating_since(from);
        if window.is_zero() {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cursor = from;
        let mut current = self.value_at(from).unwrap_or(0.0);
        for s in &self.samples {
            if s.time <= from {
                continue;
            }
            if s.time >= to {
                break;
            }
            acc += current * s.time.saturating_since(cursor).as_secs_f64();
            cursor = s.time;
            current = s.value;
        }
        acc += current * to.saturating_since(cursor).as_secs_f64();
        acc / window.as_secs_f64()
    }

    /// Resamples onto a regular grid of `step`, from the first to the last
    /// sample, for plotting.
    pub fn resample(&self, step: SimDuration) -> Vec<Sample> {
        assert!(!step.is_zero(), "resample step must be positive");
        let (Some(first), Some(last)) = (self.samples.first(), self.samples.last()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut t = first.time;
        while t <= last.time {
            out.push(Sample {
                time: t,
                value: self.value_at(t).unwrap_or(0.0),
            });
            t += step;
        }
        out
    }

    /// Maximum recorded value, or `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.value)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }
}

/// A collection of named series.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    series: BTreeMap<String, Series>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` for `series` at `time`, creating the series on first
    /// use. Only that first use allocates the owned name.
    pub fn record(&mut self, series: &str, time: SimTime, value: f64) {
        if let Some(s) = self.series.get_mut(series) {
            s.record(time, value);
        } else {
            self.series
                .entry(series.to_owned())
                .or_default()
                .record(time, value);
        }
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Iterates over `(name, series)` in name order (deterministic output).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series have been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn value_at_follows_step_function() {
        let mut s = Series::default();
        s.record(t(10), 1.0);
        s.record(t(20), 3.0);
        assert_eq!(s.value_at(t(5)), None);
        assert_eq!(s.value_at(t(10)), Some(1.0));
        assert_eq!(s.value_at(t(15)), Some(1.0));
        assert_eq!(s.value_at(t(20)), Some(3.0));
        assert_eq!(s.value_at(t(99)), Some(3.0));
    }

    #[test]
    fn same_instant_last_write_wins() {
        let mut s = Series::default();
        s.record(t(10), 1.0);
        s.record(t(10), 2.0);
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.value_at(t(10)), Some(2.0));
    }

    #[test]
    fn unchanged_value_is_compacted() {
        let mut s = Series::default();
        s.record(t(10), 1.0);
        s.record(t(20), 1.0);
        s.record(t(30), 2.0);
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_record_panics() {
        let mut s = Series::default();
        s.record(t(10), 1.0);
        s.record(t(5), 2.0);
    }

    #[test]
    fn mean_over_integrates_steps() {
        let mut s = Series::default();
        s.record(t(0), 0.0);
        s.record(t(10), 1.0);
        // [0,20): 10ms at 0.0 + 10ms at 1.0 = 0.5 mean
        assert!((s.mean_over(t(0), t(20)) - 0.5).abs() < 1e-12);
        // [10,20): all at 1.0
        assert!((s.mean_over(t(10), t(20)) - 1.0).abs() < 1e-12);
        // [5,15): 5ms at 0 + 5ms at 1
        assert!((s.mean_over(t(5), t(15)) - 0.5).abs() < 1e-12);
        // empty window
        assert_eq!(s.mean_over(t(5), t(5)), 0.0);
    }

    #[test]
    fn mean_before_first_sample_counts_zero() {
        let mut s = Series::default();
        s.record(t(10), 2.0);
        assert!((s.mean_over(t(0), t(20)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resample_grid() {
        let mut s = Series::default();
        s.record(t(0), 1.0);
        s.record(t(10), 2.0);
        let grid = s.resample(SimDuration::from_millis(5));
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0].value, 1.0);
        assert_eq!(grid[1].value, 1.0);
        assert_eq!(grid[2].value, 2.0);
    }

    #[test]
    fn recorder_routes_to_named_series() {
        let mut r = TraceRecorder::new();
        r.record("gpu0.sm", t(0), 0.5);
        r.record("gpu1.sm", t(0), 0.25);
        r.record("gpu0.sm", t(10), 1.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.series("gpu0.sm").unwrap().samples().len(), 2);
        assert_eq!(r.series("gpu1.sm").unwrap().value_at(t(5)), Some(0.25));
        assert!(r.series("nope").is_none());
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["gpu0.sm", "gpu1.sm"]);
    }

    #[test]
    fn recording_into_an_existing_series_matches_a_lone_series() {
        // The same samples through the recorder (first use inserts, later
        // uses find the series) and straight into one `Series`.
        let points = [(0, 1.0), (10, 2.0), (10, 3.0), (20, 3.0), (30, 0.5)];
        let mut r = TraceRecorder::new();
        let mut lone = Series::default();
        for &(ms, v) in &points {
            r.record("b", t(ms), v);
            r.record("a", t(ms), -v);
            lone.record(t(ms), v);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.series("b").unwrap().samples(), lone.samples());
        assert_eq!(r.series("b").unwrap().samples().len(), 3);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn max_value() {
        let mut s = Series::default();
        assert_eq!(s.max_value(), None);
        s.record(t(0), 1.0);
        s.record(t(1), 5.0);
        s.record(t(2), 3.0);
        assert_eq!(s.max_value(), Some(5.0));
    }
}
