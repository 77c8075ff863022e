//! The pipeline-training engine: executes a [`Schedule`] on simulated GPUs,
//! enforcing cross-stage dependencies, and reports bubbles exactly like the
//! paper's instrumented DeepSpeed.
//!
//! The engine is passive: methods return [`EngineAction`]s that the
//! embedding world turns into simulation events. Three entry points drive
//! it — [`PipelineEngine::launch_due`] (a previously announced operation
//! becomes runnable), [`PipelineEngine::on_op_complete`] (the training
//! kernel on a stage finished), and [`PipelineEngine::epoch_boundary`]
//! (the inter-epoch barrier fired).
//!
//! ## Bubble instrumentation
//!
//! Mirroring the paper's 55-line DeepSpeed patch (§4.6), the engine
//! reports a bubble when a stage goes idle: Type-A at epoch boundaries,
//! Type-B before the first backward, Type-C for unaligned FP/BP waits.
//! Reported durations are *predictions* taken from profiling epochs
//! (bubbles are stable across epochs — paper §8); actual bubble ends are
//! reported separately so the middleware can detect mispredictions.

use crate::bubble::{
    BubbleKind, BubbleProfile, BubbleReport, BubbleStats, MeasuredBubble, BUBBLE_REPORT_THRESHOLD,
};
use crate::config::{PipelineConfig, StageId};
use crate::schedule::{Op, OpKind, Schedule, ScheduleKind};
use freeride_gpu::{GpuDevice, KernelSpec, Priority, ProcessId};
use freeride_sim::{SimDuration, SimTime};

/// Initial epochs that only measure bubbles; no bubble is reported during
/// them.
const PROFILE_EPOCHS: usize = 1;

/// What the engine wants the embedding world to do.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineAction {
    /// Schedule a call to [`PipelineEngine::launch_due`] for `stage` at
    /// `at` (the operation's dependencies resolve then).
    ScheduleLaunch {
        /// Stage whose next operation becomes runnable.
        stage: StageId,
        /// When to call `launch_due`.
        at: SimTime,
    },
    /// Schedule a call to [`PipelineEngine::epoch_boundary`] at `at`.
    ScheduleEpochBoundary {
        /// When to call `epoch_boundary`.
        at: SimTime,
    },
    /// Instrumentation: a bubble began (serving epochs only).
    BubbleStart(BubbleReport),
    /// Instrumentation: the bubble on `stage` actually ended at `at`.
    BubbleEnd {
        /// Stage whose bubble ended.
        stage: StageId,
        /// Actual end time.
        at: SimTime,
    },
    /// An epoch finished (timestamp is the barrier instant).
    EpochEnd {
        /// Index of the finished epoch.
        epoch: usize,
        /// Barrier instant.
        at: SimTime,
    },
    /// All configured epochs have run.
    TrainingDone {
        /// Completion instant.
        at: SimTime,
    },
}

#[derive(Debug, Clone)]
struct StageRt {
    next_idx: usize,
    current: Option<Op>,
    pending_launch: bool,
    idle_since: Option<SimTime>,
    idle_kind: BubbleKind,
    idle_index: usize,
    bubble_open: bool,
}

impl StageRt {
    fn fresh() -> Self {
        StageRt {
            next_idx: 0,
            current: None,
            pending_launch: false,
            idle_since: None,
            idle_kind: BubbleKind::TypeA,
            idle_index: 0,
            bubble_open: false,
        }
    }
}

/// The pipeline-parallel training engine (DeepSpeed stand-in).
pub struct PipelineEngine {
    cfg: PipelineConfig,
    schedule: Schedule,
    pids: Vec<ProcessId>,
    stages_rt: Vec<StageRt>,
    fp_done: Vec<Vec<Option<SimTime>>>,
    bp_done: Vec<Vec<Option<SimTime>>>,
    opt_done: Vec<Option<SimTime>>,
    epoch: usize,
    epoch_start: SimTime,
    epoch_times: Vec<SimDuration>,
    profile: BubbleProfile,
    instr_overhead: SimDuration,
    done: bool,
    started: bool,
}

impl PipelineEngine {
    /// Creates an engine for `cfg` with the given schedule kind.
    pub fn new(cfg: PipelineConfig, kind: ScheduleKind) -> Self {
        cfg.validate();
        let schedule = Schedule::build(kind, cfg.stages, cfg.micro_batches);
        schedule.assert_valid();
        let s = cfg.stages;
        let m = cfg.micro_batches;
        PipelineEngine {
            schedule,
            pids: Vec::new(),
            stages_rt: vec![StageRt::fresh(); s],
            fp_done: vec![vec![None; m]; s],
            bp_done: vec![vec![None; m]; s],
            opt_done: vec![None; s],
            epoch: 0,
            epoch_start: SimTime::ZERO,
            epoch_times: Vec::new(),
            profile: BubbleProfile::new(s),
            instr_overhead: SimDuration::ZERO,
            done: false,
            started: false,
            cfg,
        }
    }

    /// Sets the per-reported-bubble instrumentation cost: the op resuming
    /// after a reported bubble is stretched by this much, modelling the
    /// paper's DeepSpeed patch (bubble-report RPC handling on the training
    /// process's critical path). Zero (the default) reproduces vanilla
    /// DeepSpeed for the `T_noSideTask` baseline.
    pub fn with_instrumentation_overhead(mut self, overhead: SimDuration) -> Self {
        self.instr_overhead = overhead;
        self
    }

    /// The configuration being trained.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Registers training processes and pins stage memory on the devices.
    ///
    /// # Panics
    ///
    /// Panics if fewer devices than stages are supplied or stage memory
    /// does not fit.
    pub fn init(&mut self, devices: &mut [GpuDevice]) {
        assert!(
            devices.len() >= self.cfg.stages,
            "need {} devices, got {}",
            self.cfg.stages,
            devices.len()
        );
        assert!(self.pids.is_empty(), "init called twice");
        for (s, dev) in devices.iter_mut().take(self.cfg.stages).enumerate() {
            let pid = dev.register_process(format!("train.stage{s}"), Priority::High, None);
            dev.alloc(pid, self.cfg.stage_memory(s))
                .expect("stage memory must fit (validated)");
            self.pids.push(pid);
        }
    }

    /// The training process on `stage`'s GPU.
    pub fn train_pid(&self, stage: StageId) -> ProcessId {
        self.pids[stage]
    }

    /// Reverse lookup: which stage a training process belongs to.
    pub fn stage_of_pid(&self, pid: ProcessId) -> Option<StageId> {
        self.pids.iter().position(|p| *p == pid)
    }

    /// Begins training at `now`.
    pub fn start(&mut self, now: SimTime) -> Vec<EngineAction> {
        assert!(!self.pids.is_empty(), "call init first");
        assert!(!self.started, "start called twice");
        self.started = true;
        self.epoch_start = now;
        let mut out = Vec::with_capacity(self.cfg.stages);
        for s in 0..self.cfg.stages {
            self.try_schedule(s, now, &mut out);
        }
        out
    }

    /// Whether all epochs have completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Index of the epoch currently executing.
    pub fn current_epoch(&self) -> usize {
        self.epoch
    }

    /// Completed epoch durations (barrier to barrier).
    pub fn epoch_times(&self) -> &[SimDuration] {
        &self.epoch_times
    }

    /// Total training time across completed epochs.
    pub fn total_time(&self) -> SimDuration {
        self.epoch_times
            .iter()
            .fold(SimDuration::ZERO, |a, b| a + *b)
    }

    /// The bubble profile measured during profiling epochs.
    pub fn profile(&self) -> &BubbleProfile {
        &self.profile
    }

    /// Aggregate bubble statistics (Fig. 2(b)). Uses the mean epoch time
    /// of completed epochs.
    pub fn bubble_stats(&self) -> BubbleStats {
        let mean = if self.epoch_times.is_empty() {
            SimDuration::ZERO
        } else {
            self.total_time() / self.epoch_times.len() as u64
        };
        BubbleStats::from_profile(&self.profile, self.cfg.stages, mean)
    }

    /// Launches the stage's next operation; must be called exactly when a
    /// previously returned [`EngineAction::ScheduleLaunch`] fires.
    pub fn launch_due(
        &mut self,
        now: SimTime,
        stage: StageId,
        devices: &mut [GpuDevice],
    ) -> Vec<EngineAction> {
        let mut out = Vec::new();
        let rt = &mut self.stages_rt[stage];
        assert!(rt.pending_launch, "launch_due without pending launch");
        rt.pending_launch = false;
        let resumed_from_reported_bubble = self.close_idle(stage, now, &mut out);

        let rt = &mut self.stages_rt[stage];
        let op = self.schedule.stage_plan(stage)[rt.next_idx];
        rt.next_idx += 1;
        rt.current = Some(op);
        let (mut dur, tag) = match op.kind {
            OpKind::Forward => (self.cfg.fp_op_time(), "fp"),
            OpKind::Backward => (self.cfg.bp_op_time(), "bp"),
            OpKind::OptimizerStep => (self.cfg.optimizer_time, "opt"),
        };
        if resumed_from_reported_bubble {
            dur += self.instr_overhead;
        }
        let spec = KernelSpec::new(self.pids[stage], dur, 1.0, Priority::High, tag);
        devices[stage]
            .launch(now, spec)
            .expect("training process must be alive");
        out
    }

    /// Notifies the engine that the training kernel on `stage` completed.
    pub fn on_op_complete(&mut self, now: SimTime, stage: StageId) -> Vec<EngineAction> {
        // A completion wakes this stage and at most one neighbour, each of
        // which can schedule a launch and open a bubble report.
        let mut out = Vec::with_capacity(4);
        let op = self.stages_rt[stage]
            .current
            .take()
            .expect("completion without a running op");
        match op.kind {
            OpKind::Forward => {
                self.fp_done[stage][op.micro_batch] = Some(now);
                self.try_schedule(stage, now, &mut out);
                if stage + 1 < self.cfg.stages {
                    self.try_schedule(stage + 1, now, &mut out);
                }
            }
            OpKind::Backward => {
                self.bp_done[stage][op.micro_batch] = Some(now);
                self.try_schedule(stage, now, &mut out);
                if stage > 0 {
                    self.try_schedule(stage - 1, now, &mut out);
                }
            }
            OpKind::OptimizerStep => {
                self.opt_done[stage] = Some(now);
                // The stage idles until the epoch barrier: open the
                // end-of-epoch Type-A bubble.
                self.open_idle(stage, now, BubbleKind::TypeA, &mut out);
                if self.opt_done.iter().all(Option::is_some) {
                    let at = now + self.cfg.epoch_gap;
                    out.push(EngineAction::ScheduleEpochBoundary { at });
                }
            }
        }
        out
    }

    /// The inter-epoch barrier: closes end-of-epoch bubbles, records the
    /// epoch, and starts the next epoch (or finishes training).
    pub fn epoch_boundary(&mut self, now: SimTime) -> Vec<EngineAction> {
        // Every stage closes its end-of-epoch bubble and reschedules.
        let mut out = Vec::with_capacity(2 * self.cfg.stages + 2);
        for s in 0..self.cfg.stages {
            self.close_idle(s, now, &mut out);
        }
        self.epoch_times.push(now - self.epoch_start);
        out.push(EngineAction::EpochEnd {
            epoch: self.epoch,
            at: now,
        });
        self.epoch += 1;
        if self.epoch >= self.cfg.epochs {
            self.done = true;
            out.push(EngineAction::TrainingDone { at: now });
            return out;
        }
        // Reset per-epoch state.
        self.epoch_start = now;
        for rt in &mut self.stages_rt {
            *rt = StageRt::fresh();
        }
        for row in self.fp_done.iter_mut().chain(self.bp_done.iter_mut()) {
            row.iter_mut().for_each(|c| *c = None);
        }
        self.opt_done.iter_mut().for_each(|c| *c = None);
        for s in 0..self.cfg.stages {
            self.try_schedule(s, now, &mut out);
        }
        out
    }

    /// Whether the engine is currently in a profiling epoch (no bubble
    /// reports emitted).
    pub fn is_profiling(&self) -> bool {
        self.epoch < PROFILE_EPOCHS
    }

    fn classify(&self, stage: StageId, next: Op) -> BubbleKind {
        let rt = &self.stages_rt[stage];
        if rt.next_idx == 0 {
            BubbleKind::TypeA
        } else if next.kind == OpKind::Backward && next.micro_batch == 0 {
            BubbleKind::TypeB
        } else {
            BubbleKind::TypeC
        }
    }

    fn try_schedule(&mut self, stage: StageId, now: SimTime, out: &mut Vec<EngineAction>) {
        let rt = &self.stages_rt[stage];
        if rt.current.is_some() || rt.pending_launch {
            return;
        }
        let plan = self.schedule.stage_plan(stage);
        if rt.next_idx >= plan.len() {
            return; // epoch finished for this stage
        }
        let op = plan[rt.next_idx];
        match self.ready_time(stage, op, now) {
            Some(at) => {
                let kind = self.classify(stage, op);
                if at > now {
                    self.open_idle(stage, now, kind, out);
                }
                self.stages_rt[stage].pending_launch = true;
                out.push(EngineAction::ScheduleLaunch { stage, at });
            }
            None => {
                let kind = self.classify(stage, op);
                self.open_idle(stage, now, kind, out);
            }
        }
    }

    fn ready_time(&self, stage: StageId, op: Op, now: SimTime) -> Option<SimTime> {
        let comm = self.cfg.comm_latency;
        match op.kind {
            OpKind::Forward => {
                if stage == 0 {
                    Some(now)
                } else {
                    self.fp_done[stage - 1][op.micro_batch].map(|t| (t + comm).max(now))
                }
            }
            OpKind::Backward => {
                if stage == self.cfg.stages - 1 {
                    self.fp_done[stage][op.micro_batch].map(|t| t.max(now))
                } else {
                    self.bp_done[stage + 1][op.micro_batch].map(|t| (t + comm).max(now))
                }
            }
            OpKind::OptimizerStep => Some(now),
        }
    }

    fn open_idle(
        &mut self,
        stage: StageId,
        now: SimTime,
        kind: BubbleKind,
        out: &mut Vec<EngineAction>,
    ) {
        let serving = !self.is_profiling();
        let idle_index = self.stages_rt[stage].idle_index;
        let profiled = self.profile.bubble(stage, idle_index).copied();
        let free = self.cfg.stage_free_memory(stage);
        let rt = &mut self.stages_rt[stage];
        if rt.idle_since.is_some() {
            return;
        }
        rt.idle_since = Some(now);
        rt.idle_kind = kind;
        if serving {
            if let Some(mb) = profiled {
                if mb.duration >= BUBBLE_REPORT_THRESHOLD {
                    rt.bubble_open = true;
                    out.push(EngineAction::BubbleStart(BubbleReport {
                        stage,
                        start: now,
                        duration: mb.duration,
                        kind: mb.kind,
                        free_memory: free,
                    }));
                }
            }
        }
    }

    /// Closes the stage's open idle interval; returns whether that idle
    /// had been reported as a bubble (used to charge instrumentation cost).
    fn close_idle(&mut self, stage: StageId, now: SimTime, out: &mut Vec<EngineAction>) -> bool {
        let epoch_start = self.epoch_start;
        let profiling = self.is_profiling();
        let rt = &mut self.stages_rt[stage];
        let Some(start) = rt.idle_since.take() else {
            return false;
        };
        let kind = rt.idle_kind;
        let was_open = std::mem::take(&mut rt.bubble_open);
        rt.idle_index += 1;
        if profiling {
            self.profile.record(MeasuredBubble {
                stage,
                start_offset: start - epoch_start,
                duration: now - start,
                kind,
            });
        }
        if was_open {
            out.push(EngineAction::BubbleEnd { stage, at: now });
        }
        was_open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelSpec;
    use freeride_gpu::{GpuId, MemBytes, MpsPrioritized};

    fn devices(n: usize) -> Vec<GpuDevice> {
        (0..n)
            .map(|i| {
                GpuDevice::new(
                    GpuId(i as u32),
                    MemBytes::from_gib(48),
                    Box::new(MpsPrioritized::default()),
                )
            })
            .collect()
    }

    fn engine() -> PipelineEngine {
        PipelineEngine::new(
            PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
            ScheduleKind::OneFOneB,
        )
    }

    #[test]
    fn init_registers_processes_and_memory() {
        let mut devs = devices(4);
        let mut e = engine();
        e.init(&mut devs);
        for (s, dev) in devs.iter().enumerate() {
            let pid = e.train_pid(s);
            assert_eq!(e.stage_of_pid(pid), Some(s));
            assert_eq!(dev.used_mem(), e.config().stage_memory(s));
        }
        assert_eq!(e.stage_of_pid(ProcessId(999_999)), None);
    }

    #[test]
    fn start_launches_stage0_and_idles_others() {
        let mut devs = devices(4);
        let mut e = engine();
        e.init(&mut devs);
        let actions = e.start(SimTime::ZERO);
        // Stage 0 must get a launch at t=0; stages 1..3 go idle (Type-A
        // bubbles, but epoch 0 is a profiling epoch → no reports).
        let launches: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::ScheduleLaunch { stage, at } => Some((*stage, *at)),
                _ => None,
            })
            .collect();
        assert_eq!(launches, vec![(0, SimTime::ZERO)]);
        assert!(actions
            .iter()
            .all(|a| !matches!(a, EngineAction::BubbleStart(_))));
    }

    #[test]
    #[should_panic(expected = "call init first")]
    fn start_before_init_panics() {
        engine().start(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "init called twice")]
    fn double_init_panics() {
        let mut devs = devices(4);
        let mut e = engine();
        e.init(&mut devs);
        e.init(&mut devs);
    }

    #[test]
    fn launch_due_starts_kernel() {
        let mut devs = devices(4);
        let mut e = engine();
        e.init(&mut devs);
        let actions = e.start(SimTime::ZERO);
        assert_eq!(actions.len(), 1);
        e.launch_due(SimTime::ZERO, 0, &mut devs);
        assert_eq!(devs[0].active_kernels(), 1);
        assert_eq!(
            devs[0].next_completion_time(),
            Some(SimTime::ZERO + e.config().fp_op_time())
        );
    }

    #[test]
    fn fp_completion_wakes_next_stage() {
        let mut devs = devices(4);
        let mut e = engine();
        e.init(&mut devs);
        e.start(SimTime::ZERO);
        e.launch_due(SimTime::ZERO, 0, &mut devs);
        let t1 = SimTime::ZERO + e.config().fp_op_time();
        devs[0].advance_through(t1);
        let actions = e.on_op_complete(t1, 0);
        // Stage 0 starts FP(1) immediately; stage 1 gets FP(0) after comm.
        let launches: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::ScheduleLaunch { stage, at } => Some((*stage, *at)),
                _ => None,
            })
            .collect();
        assert!(launches.contains(&(0, t1)));
        assert!(launches.contains(&(1, t1 + e.config().comm_latency)));
    }
}
