//! Bubbles: idle periods on pipeline-stage GPUs, their classification,
//! profiles, and statistics.
//!
//! The paper categorises bubbles into three types (§2.2.1):
//!
//! * **Type-A** — at the start and end of each epoch (cascading
//!   dependencies), in all stages except the first;
//! * **Type-B** — mid-epoch, waiting for the first BP after the warm-up
//!   FPs, in all stages except the last;
//! * **Type-C** — mid-epoch waits caused by interleaved yet unaligned FP
//!   and BP operations (BP ≈ 2×FP), in all stages except the last.

use crate::config::StageId;
use freeride_gpu::MemBytes;
use freeride_sim::{SimDuration, SimTime};

/// Idle intervals shorter than this are communication gaps, not bubbles:
/// they are recorded for index alignment but never reported to the
/// side-task manager and excluded from bubble statistics. (The paper's
/// smallest bubble is 0.22 s; comm gaps here are ~16 ms.)
pub const BUBBLE_REPORT_THRESHOLD: SimDuration = SimDuration::from_millis(100);

/// The paper's bubble taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BubbleKind {
    /// Epoch-boundary bubble (cascading start/end dependencies).
    TypeA,
    /// Wait for the first backward after warm-up forwards.
    TypeB,
    /// Unaligned FP/BP interleave wait.
    TypeC,
}

impl core::fmt::Display for BubbleKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BubbleKind::TypeA => write!(f, "A"),
            BubbleKind::TypeB => write!(f, "B"),
            BubbleKind::TypeC => write!(f, "C"),
        }
    }
}

/// A bubble as reported to the side-task manager by the instrumented
/// training system (the paper's 55-line DeepSpeed patch, §4.6).
///
/// The *duration is a prediction* from profiling — bubbles are stable
/// across epochs (§8) — and the manager schedules side tasks against
/// `start + duration`. The engine separately reports the actual end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BubbleReport {
    /// Stage (= GPU index) where the bubble occurs.
    pub stage: StageId,
    /// When the bubble began.
    pub start: SimTime,
    /// Profiled (predicted) duration.
    pub duration: SimDuration,
    /// Bubble classification.
    pub kind: BubbleKind,
    /// GPU memory a side task may use during this bubble.
    pub free_memory: MemBytes,
}

impl BubbleReport {
    /// Predicted end of the bubble.
    pub fn predicted_end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// One measured idle interval (profiling output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredBubble {
    /// Stage where the idle occurred.
    pub stage: StageId,
    /// Offset of the idle start within its epoch.
    pub start_offset: SimDuration,
    /// Measured duration.
    pub duration: SimDuration,
    /// Classification at measurement time.
    pub kind: BubbleKind,
}

impl MeasuredBubble {
    /// Whether this idle interval is long enough to count as a bubble
    /// (vs. a communication gap).
    pub fn is_bubble(&self) -> bool {
        self.duration >= BUBBLE_REPORT_THRESHOLD
    }
}

/// Per-stage bubble shapes measured during profiling epochs; consulted by
/// the engine to predict the duration of each bubble it reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BubbleProfile {
    /// `bubbles[s][i]` is the i-th idle interval of an epoch on stage `s`.
    stages: Vec<Vec<MeasuredBubble>>,
}

impl BubbleProfile {
    /// Creates an empty profile for `stages` stages.
    pub fn new(stages: usize) -> Self {
        BubbleProfile {
            stages: vec![Vec::new(); stages],
        }
    }

    /// Records a measured bubble (profiling epoch only).
    pub fn record(&mut self, bubble: MeasuredBubble) {
        self.stages[bubble.stage].push(bubble);
    }

    /// The i-th bubble of an epoch on `stage`, if profiled.
    pub fn bubble(&self, stage: StageId, index: usize) -> Option<&MeasuredBubble> {
        self.stages.get(stage)?.get(index)
    }

    /// All recorded idle intervals on a stage (including sub-threshold
    /// communication gaps), in epoch order.
    pub fn stage_idles(&self, stage: StageId) -> &[MeasuredBubble] {
        self.stages.get(stage).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Proper bubbles (≥ [`BUBBLE_REPORT_THRESHOLD`]) on a stage.
    pub fn stage_bubbles(&self, stage: StageId) -> impl Iterator<Item = &MeasuredBubble> {
        self.stage_idles(stage).iter().filter(|b| b.is_bubble())
    }

    /// Iterates over all proper bubbles.
    pub fn iter(&self) -> impl Iterator<Item = &MeasuredBubble> {
        self.stages.iter().flatten().filter(|b| b.is_bubble())
    }

    /// Total bubble time per epoch on one stage (proper bubbles only).
    pub fn stage_bubble_time(&self, stage: StageId) -> SimDuration {
        self.stage_bubbles(stage)
            .fold(SimDuration::ZERO, |acc, b| acc + b.duration)
    }

    /// Number of proper bubbles across all stages.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shortest profiled bubble.
    pub fn min_duration(&self) -> Option<SimDuration> {
        self.iter().map(|b| b.duration).min()
    }

    /// Longest profiled bubble.
    pub fn max_duration(&self) -> Option<SimDuration> {
        self.iter().map(|b| b.duration).max()
    }
}

/// Aggregate bubble statistics for one training run (paper Fig. 2(b)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BubbleStats {
    /// Mean epoch wall-clock time.
    pub epoch_time: SimDuration,
    /// Mean per-stage bubble time per epoch.
    pub bubble_time_per_stage: SimDuration,
    /// Total bubble time over total stage-time: the paper's *bubble rate*.
    pub bubble_rate: f64,
}

impl BubbleStats {
    /// Computes stats from a profile and the measured epoch duration.
    pub fn from_profile(profile: &BubbleProfile, stages: usize, epoch_time: SimDuration) -> Self {
        let total_bubble: SimDuration = (0..stages)
            .map(|s| profile.stage_bubble_time(s))
            .fold(SimDuration::ZERO, |a, b| a + b);
        let per_stage = total_bubble / stages as u64;
        let denom = epoch_time.as_secs_f64() * stages as f64;
        let rate = if denom > 0.0 {
            total_bubble.as_secs_f64() / denom
        } else {
            0.0
        };
        BubbleStats {
            epoch_time,
            bubble_time_per_stage: per_stage,
            bubble_rate: rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(stage: StageId, start_ms: u64, dur_ms: u64, kind: BubbleKind) -> MeasuredBubble {
        MeasuredBubble {
            stage,
            start_offset: SimDuration::from_millis(start_ms),
            duration: SimDuration::from_millis(dur_ms),
            kind,
        }
    }

    #[test]
    fn report_predicted_end() {
        let r = BubbleReport {
            stage: 1,
            start: SimTime::from_millis(100),
            duration: SimDuration::from_millis(250),
            kind: BubbleKind::TypeB,
            free_memory: MemBytes::from_gib(10),
        };
        assert_eq!(r.predicted_end(), SimTime::from_millis(350));
    }

    #[test]
    fn profile_indexing() {
        let mut p = BubbleProfile::new(2);
        p.record(mb(0, 0, 100, BubbleKind::TypeB));
        p.record(mb(0, 500, 50, BubbleKind::TypeC)); // comm gap: indexed, not a bubble
        p.record(mb(1, 0, 200, BubbleKind::TypeA));
        assert_eq!(p.len(), 2, "comm gap excluded from bubble count");
        assert_eq!(
            p.bubble(0, 1).unwrap().duration,
            SimDuration::from_millis(50)
        );
        assert!(!p.bubble(0, 1).unwrap().is_bubble());
        assert_eq!(p.bubble(0, 2), None);
        assert_eq!(p.bubble(1, 0).unwrap().kind, BubbleKind::TypeA);
        assert_eq!(p.stage_bubble_time(0), SimDuration::from_millis(100));
        assert_eq!(p.min_duration(), Some(SimDuration::from_millis(100)));
        assert_eq!(p.max_duration(), Some(SimDuration::from_millis(200)));
    }

    #[test]
    fn stats_rate() {
        let mut p = BubbleProfile::new(2);
        // 1s bubbles per stage over a 2s epoch on 2 stages → rate 0.5.
        p.record(mb(0, 0, 1000, BubbleKind::TypeA));
        p.record(mb(1, 0, 1000, BubbleKind::TypeA));
        let stats = BubbleStats::from_profile(&p, 2, SimDuration::from_secs(2));
        assert!((stats.bubble_rate - 0.5).abs() < 1e-12);
        assert_eq!(stats.bubble_time_per_stage, SimDuration::from_secs(1));
    }

    #[test]
    fn empty_profile() {
        let p = BubbleProfile::new(4);
        assert!(p.is_empty());
        assert_eq!(p.min_duration(), None);
        let stats = BubbleStats::from_profile(&p, 4, SimDuration::from_secs(1));
        assert_eq!(stats.bubble_rate, 0.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(BubbleKind::TypeA.to_string(), "A");
        assert_eq!(BubbleKind::TypeB.to_string(), "B");
        assert_eq!(BubbleKind::TypeC.to_string(), "C");
    }
}
