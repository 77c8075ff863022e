//! Timing decorators for the program's public extension seams.
//!
//! The traced run measures each layer from outside: it hands the program
//! wrapped trait objects — a [`WorkloadFactory`] whose workloads time
//! `create`/`init_gpu`/`run_step`, a [`GpuModelFactory`] whose interference
//! models time `speeds_into`, a [`PlacementPolicy`] that times `place` —
//! and times each `submit_with` call itself. Every wrapper delegates every
//! method unchanged (names included), so a traced run's simulated outputs
//! equal the untraced run's; the benchmark checks that they do.
//!
//! Tallies live in a thread-local: the simulation is single-threaded, and
//! each test thread gets its own.

use freeride_core::{BreakerState, ClusterView, Placement, PlacementPolicy};
use freeride_gpu::{
    DefaultGpuModel, GpuModelFactory, InterferenceModel, KernelCtx, MemBytes, SharingKind,
};
use freeride_sim::SimTime;
use freeride_tasks::{SideTaskWorkload, WorkloadFactory, WorkloadProfile, WorkloadTag};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Which part of an execution the probes are attributing to.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Cluster build and submissions.
    #[default]
    Setup,
    /// Inside `Cluster::run`.
    Run,
    /// A stand-alone no-side-task baseline the benchmark runs itself.
    Baseline,
}

/// A probed seam.
#[derive(Clone, Copy)]
pub enum Seam {
    /// `SideTaskWorkload::run_step`.
    RunStep,
    /// `SideTaskWorkload::create` plus `init_gpu`.
    Init,
    /// `InterferenceModel::speeds_into`.
    SpeedsInto,
    /// `PlacementPolicy::place`.
    Place,
    /// `Cluster::submit_with`.
    Submit,
}

/// Calls into one seam and the host time they took, in nanoseconds.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Summed duration of the calls, as read (timer cost included).
    pub ns: u64,
}

/// Every seam's tally within one [`Phase`].
#[derive(Default)]
pub struct PhaseTallies {
    /// `run_step`.
    pub run_step: Tally,
    /// `create` + `init_gpu`.
    pub init: Tally,
    /// `speeds_into`.
    pub speeds_into: Tally,
    /// `place`.
    pub place: Tally,
    /// `place` calls that found no fitting worker.
    pub place_none: u64,
    /// `submit_with`.
    pub submit: Tally,
}

/// What the probes saw since the last [`take`].
#[derive(Default)]
pub struct Recording {
    /// Tallies of [`Phase::Setup`], [`Phase::Run`], [`Phase::Baseline`].
    phases: [PhaseTallies; 3],
    /// Every `run_step` duration read during [`Phase::Run`], in ns.
    pub run_step_ns: Vec<u64>,
    /// Every `submit_with` duration read, in ns.
    pub submit_ns: Vec<u64>,
    phase: Phase,
}

impl Recording {
    /// The tallies of `phase`.
    pub fn phase(&self, phase: Phase) -> &PhaseTallies {
        &self.phases[phase as usize]
    }

    fn record(&mut self, seam: Seam, ns: u64) {
        let phase = self.phase;
        let t = &mut self.phases[phase as usize];
        let tally = match seam {
            Seam::RunStep => &mut t.run_step,
            Seam::Init => &mut t.init,
            Seam::SpeedsInto => &mut t.speeds_into,
            Seam::Place => &mut t.place,
            Seam::Submit => &mut t.submit,
        };
        tally.calls += 1;
        tally.ns += ns;
        match seam {
            Seam::RunStep if phase == Phase::Run => self.run_step_ns.push(ns),
            Seam::Submit => self.submit_ns.push(ns),
            _ => {}
        }
    }
}

thread_local! {
    static RECORDING: RefCell<Recording> = RefCell::new(Recording::default());
}

/// Attributes the following probe readings to `phase`.
pub fn set_phase(phase: Phase) {
    RECORDING.with(|r| r.borrow_mut().phase = phase);
}

/// Returns everything recorded so far and starts afresh in
/// [`Phase::Setup`].
pub fn take() -> Recording {
    RECORDING.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Runs `f`, attributing its host time to `seam`.
pub fn timed<R>(seam: Seam, f: impl FnOnce() -> R) -> R {
    // freeride: allow(no-wall-clock) -- benchmark probe; host time is reported, never fed into the simulation
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    RECORDING.with(|r| r.borrow_mut().record(seam, ns));
    out
}

/// What a probe reads around an empty region, in ns: the median of
/// `samples` readings of an `Instant` pair, as [`timed`] takes them.
/// Subtracted once per call from every probe total.
pub fn calibrate(samples: usize) -> f64 {
    let mut readings: Vec<f64> = (0..samples)
        .map(|_| {
            // freeride: allow(no-wall-clock) -- calibrates the benchmark's own probes
            let start = Instant::now();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::sort(&mut readings);
    crate::stats::nearest_rank(&readings, 0.5).unwrap_or(0.0)
}

/// A [`WorkloadFactory`] whose workloads time their lifecycle calls.
pub struct TimedFactory(pub Arc<dyn WorkloadFactory>);

impl WorkloadFactory for TimedFactory {
    fn tag(&self) -> WorkloadTag {
        self.0.tag()
    }

    fn profile(&self, batch: usize) -> WorkloadProfile {
        self.0.profile(batch)
    }

    fn build(&self, seed: u64) -> Box<dyn SideTaskWorkload> {
        Box::new(TimedWorkload(self.0.build(seed)))
    }
}

/// A [`SideTaskWorkload`] timing `create`, `init_gpu` and `run_step`.
pub struct TimedWorkload(pub Box<dyn SideTaskWorkload>);

impl SideTaskWorkload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn create(&mut self) {
        timed(Seam::Init, || self.0.create())
    }

    fn init_gpu(&mut self) {
        timed(Seam::Init, || self.0.init_gpu())
    }

    fn run_step(&mut self) -> f64 {
        timed(Seam::RunStep, || self.0.run_step())
    }

    fn steps_done(&self) -> u64 {
        self.0.steps_done()
    }
}

/// A [`GpuModelFactory`] building the stock models, each wrapped in a
/// timing decorator.
pub struct TimedModels;

impl GpuModelFactory for TimedModels {
    fn name(&self) -> &'static str {
        DefaultGpuModel.name()
    }

    fn build(&self, sharing: SharingKind) -> Box<dyn InterferenceModel> {
        Box::new(TimedModel(DefaultGpuModel.build(sharing)))
    }
}

struct TimedModel(Box<dyn InterferenceModel>);

impl InterferenceModel for TimedModel {
    fn speeds_into(&self, kernels: &[KernelCtx], out: &mut Vec<f64>) {
        timed(Seam::SpeedsInto, || self.0.speeds_into(kernels, out))
    }

    fn speeds(&self, kernels: &[KernelCtx]) -> Vec<f64> {
        timed(Seam::SpeedsInto, || self.0.speeds(kernels))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A [`PlacementPolicy`] timing `place` and counting misses.
pub struct TimedPolicy<P>(pub P);

impl<P: PlacementPolicy> PlacementPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        let placed = timed(Seam::Place, || self.0.place(needed, view));
        if placed.is_none() {
            RECORDING.with(|r| {
                let mut r = r.borrow_mut();
                let phase = r.phase;
                r.phases[phase as usize].place_none += 1;
            });
        }
        placed
    }

    fn on_outcome(&self, now: SimTime, placement: Placement, ok: bool) {
        self.0.on_outcome(now, placement, ok)
    }

    fn blocks(&self, now: SimTime, job: usize, worker: usize) -> bool {
        self.0.blocks(now, job, worker)
    }

    fn breaker_state(&self, job: usize, worker: usize) -> Option<BreakerState> {
        self.0.breaker_state(job, worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeride_tasks::WorkloadKind;

    #[test]
    fn phases_attribute_separately_and_take_resets() {
        let _ = take();
        timed(Seam::Submit, || ());
        set_phase(Phase::Run);
        timed(Seam::RunStep, || ());
        timed(Seam::RunStep, || ());
        let rec = take();
        assert_eq!(rec.phase(Phase::Setup).submit.calls, 1);
        assert_eq!(rec.phase(Phase::Run).run_step.calls, 2);
        assert_eq!(rec.phase(Phase::Setup).run_step.calls, 0);
        assert_eq!(rec.run_step_ns.len(), 2);
        assert_eq!(rec.submit_ns.len(), 1);
        assert_eq!(take().phase(Phase::Run).run_step.calls, 0);
    }

    #[test]
    fn calibration_reads_a_small_finite_cost() {
        let timer_ns = calibrate(1_000);
        assert!((0.0..1e6).contains(&timer_ns), "{timer_ns}");
    }

    #[test]
    fn wrappers_delegate_unchanged() {
        let _ = take();
        let plain = WorkloadKind::PageRank;
        let timed_factory = TimedFactory(Arc::new(plain));
        assert_eq!(timed_factory.tag(), plain.tag());
        assert_eq!(
            timed_factory.profile(64),
            WorkloadFactory::profile(&plain, 64)
        );
        let mut a = WorkloadFactory::build(&plain, 9);
        let mut b = timed_factory.build(9);
        for t in [&mut a, &mut b] {
            t.create();
            t.init_gpu();
        }
        for _ in 0..3 {
            assert_eq!(a.run_step().to_bits(), b.run_step().to_bits());
        }
        assert_eq!((a.name(), a.steps_done()), (b.name(), b.steps_done()));
        let rec = take();
        assert_eq!(rec.phase(Phase::Setup).init.calls, 2);
        assert_eq!(rec.phase(Phase::Setup).run_step.calls, 3);

        for sharing in [SharingKind::Prioritized, SharingKind::TimeSliced] {
            let model = TimedModels.build(sharing);
            assert_eq!(model.name(), DefaultGpuModel.build(sharing).name());
        }
        assert_eq!(TimedModels.name(), DefaultGpuModel.name());
    }
}
