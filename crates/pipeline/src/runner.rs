//! Standalone pipeline-training runner: trains with **no side tasks**.
//!
//! This is the source of Figures 1 and 2: it executes the engine on
//! simulated GPUs, records SM-occupancy and memory traces, and collects
//! every bubble report. It also underlies the `T_noSideTask` baseline of
//! the paper's metrics (§6.1.5), which `freeride_core::run_baseline_with`
//! takes from a one-epoch run times the epoch count. That relies on an
//! invariant of this runner: every epoch is a time-shifted copy of the
//! first, to the nanosecond. The epoch barrier resets the engine's
//! per-epoch state, every device is idle at the barrier, no epoch is
//! stretched (no instrumentation overhead is charged here), and the
//! device model's arithmetic reads only time differences. A change that
//! breaks it fails `tests/proptests.rs` `baseline_is_epochs_times_one_epoch`.

use crate::bubble::{BubbleProfile, BubbleReport, BubbleStats};
use crate::config::PipelineConfig;
use crate::engine::{EngineAction, PipelineEngine};
use crate::schedule::ScheduleKind;
use freeride_gpu::{GpuDevice, GpuId, SharingKind};
use freeride_sim::{EventId, Scheduler, SimDuration, SimTime, Simulation, TraceRecorder, World};

/// Result of a standalone training run.
#[derive(Debug)]
pub struct TrainingRun {
    /// Per-epoch durations.
    pub epoch_times: Vec<SimDuration>,
    /// Total training time.
    pub total_time: SimDuration,
    /// Bubble profile measured in the profiling epoch(s).
    pub profile: BubbleProfile,
    /// Aggregate bubble statistics (rate, per-stage time).
    pub bubble_stats: BubbleStats,
    /// Bubble reports emitted during serving epochs.
    pub reports: Vec<BubbleReport>,
    /// SM-occupancy (`stage{N}.sm`) and memory (`stage{N}.mem.used`)
    /// time-series.
    pub trace: TraceRecorder,
}

enum Ev {
    LaunchOp(usize),
    DeviceTick(usize),
    EpochBoundary,
}

struct RunnerWorld {
    devices: Vec<GpuDevice>,
    engine: PipelineEngine,
    trace: TraceRecorder,
    /// `stage{g}.sm` per device, named once so recording does not format.
    sm_series: Vec<String>,
    reports: Vec<BubbleReport>,
    tick_ids: Vec<Option<EventId>>,
}

impl RunnerWorld {
    fn apply_actions(&mut self, actions: Vec<EngineAction>, s: &mut Scheduler<'_, Ev>) {
        for a in actions {
            match a {
                EngineAction::ScheduleLaunch { stage, at } => {
                    s.schedule_at(at, Ev::LaunchOp(stage));
                }
                EngineAction::ScheduleEpochBoundary { at } => {
                    s.schedule_at(at, Ev::EpochBoundary);
                }
                EngineAction::BubbleStart(r) => self.reports.push(r),
                EngineAction::BubbleEnd { .. } => {}
                EngineAction::EpochEnd { .. } => {}
                EngineAction::TrainingDone { .. } => {}
            }
        }
    }

    fn resync_device(&mut self, g: usize, s: &mut Scheduler<'_, Ev>) {
        if let Some(id) = self.tick_ids[g].take() {
            s.cancel(id);
        }
        if let Some(t) = self.devices[g].next_completion_time() {
            self.tick_ids[g] = Some(s.schedule_at(t, Ev::DeviceTick(g)));
        }
    }

    fn record_occupancy(&mut self, now: SimTime, g: usize) {
        let occ = self.devices[g].occupancy();
        self.trace.record(&self.sm_series[g], now, occ);
    }
}

impl World for RunnerWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, s: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::LaunchOp(stage) => {
                let actions = self.engine.launch_due(now, stage, &mut self.devices);
                self.apply_actions(actions, s);
                self.resync_device(stage, s);
                self.record_occupancy(now, stage);
            }
            Ev::DeviceTick(g) => {
                self.tick_ids[g] = None;
                let completions = self.devices[g].advance_through(now);
                for _c in completions {
                    let actions = self.engine.on_op_complete(now, g);
                    self.apply_actions(actions, s);
                }
                self.resync_device(g, s);
                self.record_occupancy(now, g);
            }
            Ev::EpochBoundary => {
                let actions = self.engine.epoch_boundary(now);
                self.apply_actions(actions, s);
            }
        }
    }
}

/// Runs pipeline training without side tasks and returns all measurements.
pub fn run_training(cfg: &PipelineConfig, kind: ScheduleKind) -> TrainingRun {
    let mut engine = PipelineEngine::new(cfg.clone(), kind);
    let mut devices: Vec<GpuDevice> = (0..cfg.stages)
        .map(|i| {
            cfg.hardware_of(i)
                .build_device(GpuId(i as u32), SharingKind::Prioritized)
        })
        .collect();
    engine.init(&mut devices);

    let sm_series: Vec<String> = (0..cfg.stages).map(|s| format!("stage{s}.sm")).collect();
    let mut trace = TraceRecorder::new();
    for (s, sm) in sm_series.iter().enumerate() {
        trace.record(
            &format!("stage{s}.mem.used"),
            SimTime::ZERO,
            cfg.stage_memory(s).as_gib_f64(),
        );
        trace.record(sm, SimTime::ZERO, 0.0);
    }

    let world = RunnerWorld {
        tick_ids: vec![None; cfg.stages],
        devices,
        engine,
        trace,
        sm_series,
        reports: Vec::new(),
    };
    let mut sim = Simulation::new(world);
    // Seed through a zero-delay event so all scheduling happens in-world.
    let start_actions = sim.world_mut().engine.start(SimTime::ZERO);
    // `start` only emits launches/idles; route them through the world.
    for a in start_actions {
        match a {
            EngineAction::ScheduleLaunch { stage, at } => {
                sim.seed_at(at, Ev::LaunchOp(stage));
            }
            EngineAction::ScheduleEpochBoundary { at } => {
                sim.seed_at(at, Ev::EpochBoundary);
            }
            _ => {}
        }
    }
    let outcome = sim.run_to_quiescence();
    assert_eq!(outcome, freeride_sim::RunOutcome::Quiescent);
    let world = sim.into_world();
    assert!(world.engine.is_done(), "training must complete");

    let bubble_stats = world.engine.bubble_stats();
    TrainingRun {
        epoch_times: world.engine.epoch_times().to_vec(),
        total_time: world.engine.total_time(),
        profile: world.engine.profile().clone(),
        bubble_stats,
        reports: world.reports,
        trace: world.trace,
    }
}

/// Convenience: profiles bubbles offline (one epoch, no side tasks) and
/// returns the profile — step ➋-adjacent tooling of the paper's workflow.
pub fn profile_bubbles(cfg: &PipelineConfig, kind: ScheduleKind) -> BubbleProfile {
    let mut one_epoch = cfg.clone();
    one_epoch.epochs = 1;
    run_training(&one_epoch, kind).profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bubble::BubbleKind;
    use crate::config::ModelSpec;

    fn cfg() -> PipelineConfig {
        PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3)
    }

    #[test]
    fn training_completes_and_epochs_are_stable() {
        let run = run_training(&cfg(), ScheduleKind::OneFOneB);
        assert_eq!(run.epoch_times.len(), 3);
        // Epochs are repetitive and stable (paper §2.2/§8): identical
        // durations in the deterministic simulator.
        assert_eq!(run.epoch_times[1], run.epoch_times[2]);
        assert!(run.total_time > SimDuration::ZERO);
    }

    #[test]
    fn bubble_rate_matches_paper_band() {
        // Paper §2.2.2: 42.4% at 4 micro-batches for the 3.6B model.
        let run = run_training(&cfg(), ScheduleKind::OneFOneB);
        let rate = run.bubble_stats.bubble_rate;
        assert!(
            (0.40..=0.44).contains(&rate),
            "bubble rate {rate} outside the paper's band"
        );
    }

    #[test]
    fn micro_batch_8_reduces_bubble_rate() {
        // Paper §2.2.2: rate drops to 26.2% with 8 micro-batches.
        let run = run_training(&cfg().with_micro_batches(8), ScheduleKind::OneFOneB);
        let rate = run.bubble_stats.bubble_rate;
        assert!(
            (0.24..=0.29).contains(&rate),
            "bubble rate {rate} should be ≈26%"
        );
    }

    #[test]
    fn bubble_durations_match_paper_band() {
        // Paper §2.2.1: 0.22 s – 1.04 s for the 3.6B model.
        let run = run_training(&cfg(), ScheduleKind::OneFOneB);
        let min = run.profile.min_duration().unwrap();
        let max = run.profile.max_duration().unwrap();
        assert!(
            min >= SimDuration::from_millis(120),
            "min bubble {min} too small"
        );
        assert!(
            max <= SimDuration::from_millis(1200),
            "max bubble {max} too large"
        );
        assert!(
            max >= SimDuration::from_millis(800),
            "max bubble {max} suspiciously small"
        );
    }

    #[test]
    fn all_three_bubble_types_occur_in_expected_stages() {
        let run = run_training(&cfg(), ScheduleKind::OneFOneB);
        let p = &run.profile;
        // Type-A at start in all stages except the first.
        for s in 1..4 {
            assert!(
                p.stage_bubbles(s).any(|b| b.kind == BubbleKind::TypeA),
                "stage {s} missing Type-A"
            );
        }
        // Type-B in all stages except the last.
        for s in 0..3 {
            assert!(
                p.stage_bubbles(s).any(|b| b.kind == BubbleKind::TypeB),
                "stage {s} missing Type-B"
            );
        }
        // Type-C present in earlier stages.
        assert!(
            p.iter().any(|b| b.kind == BubbleKind::TypeC),
            "no Type-C bubbles at all"
        );
        // The last stage has no Type-B or Type-C (paper §2.2.1).
        assert!(
            p.stage_bubbles(3).all(|b| b.kind == BubbleKind::TypeA),
            "stage 3's proper bubbles must all be Type-A"
        );
    }

    #[test]
    fn type_a_duration_increases_with_stage() {
        // Paper: cascading dependencies elongate Type-A at later stages.
        let run = run_training(&cfg(), ScheduleKind::OneFOneB);
        let first_type_a = |s: usize| {
            run.profile
                .stage_bubbles(s)
                .find(|b| b.kind == BubbleKind::TypeA)
                .map(|b| b.duration)
                .unwrap()
        };
        assert!(first_type_a(1) < first_type_a(2));
        assert!(first_type_a(2) < first_type_a(3));
    }

    #[test]
    fn serving_epochs_emit_reports() {
        let run = run_training(&cfg(), ScheduleKind::OneFOneB);
        // Profiling epoch emits none; 2 serving epochs emit the same set
        // each.
        assert!(!run.reports.is_empty());
        let per_epoch = run.profile.len();
        assert_eq!(run.reports.len() % 2, 0);
        assert!(run.reports.len() <= 2 * per_epoch);
        // Reports carry the profiled durations.
        for r in &run.reports {
            assert!(r.duration >= crate::bubble::BUBBLE_REPORT_THRESHOLD);
        }
    }

    #[test]
    fn gpipe_also_trains_with_similar_bubble_rate() {
        let run = run_training(&cfg(), ScheduleKind::GPipe);
        let rate = run.bubble_stats.bubble_rate;
        assert!(
            (0.38..=0.46).contains(&rate),
            "gpipe bubble rate {rate} unexpected"
        );
    }

    #[test]
    fn occupancy_trace_shows_idle_and_busy() {
        let run = run_training(&cfg(), ScheduleKind::OneFOneB);
        for s in 0..4 {
            let series = run.trace.series(&format!("stage{s}.sm")).unwrap();
            assert_eq!(series.max_value(), Some(1.0), "stage {s} never busy?");
            // Mean over whole run strictly between 0 and 1: bubbles exist.
            let first = series.samples().first().unwrap().time;
            let last = series.samples().last().unwrap().time;
            let mean = series.mean_over(first, last);
            assert!(mean > 0.3 && mean < 0.9, "stage {s} mean occupancy {mean}");
        }
    }

    #[test]
    fn profile_bubbles_is_one_epoch() {
        let p = profile_bubbles(&cfg(), ScheduleKind::OneFOneB);
        assert!(!p.is_empty());
        // Stage 0 has no start Type-A: its first bubble is Type-B.
        assert_eq!(p.stage_bubbles(0).next().unwrap().kind, BubbleKind::TypeB);
    }

    #[test]
    fn faster_fleet_trains_faster_and_reshapes_bubbles() {
        use freeride_gpu::HardwareSpec;
        let reference = run_training(&cfg(), ScheduleKind::OneFOneB);
        // All four stages on H100s: every op retires ~1.9x faster, so the
        // epoch shortens (comm latency and gaps are unchanged).
        let fast = run_training(
            &cfg().with_hardware(vec![HardwareSpec::h100_80g(); 4]),
            ScheduleKind::OneFOneB,
        );
        assert!(fast.total_time < reference.total_time);
        // A mixed fleet (slow early stages, fast late stages) produces a
        // *different* bubble profile than the uniform one — heterogeneity
        // is observable, not cosmetic.
        let mixed = run_training(
            &cfg().with_hardware(vec![
                HardwareSpec::rtx6000ada_48g(),
                HardwareSpec::rtx6000ada_48g(),
                HardwareSpec::h100_80g(),
                HardwareSpec::h100_80g(),
            ]),
            ScheduleKind::OneFOneB,
        );
        let durations = |run: &TrainingRun| -> Vec<SimDuration> {
            run.profile.iter().map(|b| b.duration).collect()
        };
        assert_ne!(durations(&mixed), durations(&reference));
        assert!(mixed.total_time < reference.total_time);
        assert!(mixed.total_time > fast.total_time);
    }

    #[test]
    fn larger_micro_batch_count_longer_epoch() {
        let m4 = run_training(&cfg(), ScheduleKind::OneFOneB);
        let m8 = run_training(&cfg().with_micro_batches(8), ScheduleKind::OneFOneB);
        assert!(m8.epoch_times[0] > m4.epoch_times[0]);
    }
}
