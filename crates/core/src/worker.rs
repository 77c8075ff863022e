//! The side-task worker: one per GPU (Fig. 5).
//!
//! A worker owns its side-task processes: it creates them inside
//! containers with MPS memory caps, executes the manager's state-transition
//! RPCs, drives step execution while a task is `RUNNING` (the interface
//! implementation of §4.2), and enforces the GPU resource limits of §4.5 —
//! the *program-directed* remaining-time check for the iterative interface
//! and the *framework-enforced* grace-period `SIGKILL` for everything else.

use crate::config::{FreeRideConfig, InterfaceKind};
use crate::state::{SideTaskState, Transition};
use crate::task::{Misbehavior, SideTask, StopReason, TaskId};
use freeride_gpu::{ContainerRegistry, GpuDevice, KernelSpec, Priority, ProcessState};
use freeride_obs::{TraceEvent, TraceEventKind, TraceHandle};
use freeride_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Follow-up work a worker asks the orchestrator to schedule or deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerEffect {
    /// Report the task's new state to the manager (over RPC).
    Ack {
        /// Task whose state changed.
        task: TaskId,
        /// The new state.
        state: SideTaskState,
    },
    /// Call [`Worker::init_done`] at `at` (GPU context load finishes).
    ScheduleInitDone {
        /// Task being initialised.
        task: TaskId,
        /// Completion instant.
        at: SimTime,
    },
    /// Call [`Worker::step_launch_due`] at `at` (iterative inter-step gap).
    ScheduleStepLaunch {
        /// Task to step.
        task: TaskId,
        /// Launch instant.
        at: SimTime,
    },
    /// Call [`Worker::grace_check`] at `at` with the original request time.
    ScheduleGraceCheck {
        /// Task under the framework-enforced deadline.
        task: TaskId,
        /// When to check.
        at: SimTime,
        /// The pause/init request the check verifies.
        requested_at: SimTime,
    },
}

/// Cumulative worker accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerAccounting {
    /// Σ step solo-durations executed in bubbles.
    pub running: SimDuration,
    /// Σ tails where the next step did not fit.
    pub insufficient: SimDuration,
    /// Bubbles this worker served (Start delivered).
    pub bubbles_served: u64,
}

struct ServingState {
    task: TaskId,
    bubble_end: SimTime,
    insufficient_from: Option<SimTime>,
}

/// A per-GPU side-task worker.
pub struct Worker {
    stage: usize,
    cfg: FreeRideConfig,
    tasks: BTreeMap<TaskId, SideTask>,
    containers: ContainerRegistry,
    serving: Option<ServingState>,
    /// Kernels in flight per task (the FreeRide path has at most one task
    /// running per worker; the co-location baselines run every admitted
    /// task concurrently).
    active: BTreeMap<TaskId, (SimTime, SimDuration)>,
    /// Pause received while a kernel was in flight (iterative semantics).
    pending_pause: Option<(TaskId, SimTime)>,
    accounting: WorkerAccounting,
    /// Trace sink and owning job index, when tracing is armed.
    tracer: Option<(TraceHandle, usize)>,
}

impl Worker {
    /// Creates the worker for `stage`'s GPU.
    pub fn new(stage: usize, cfg: FreeRideConfig) -> Self {
        Worker {
            stage,
            cfg,
            tasks: BTreeMap::new(),
            containers: ContainerRegistry::new(),
            serving: None,
            active: BTreeMap::new(),
            pending_pause: None,
            accounting: WorkerAccounting::default(),
            tracer: None,
        }
    }

    /// Arms sim-time tracing for this worker's step and stop events.
    pub(crate) fn set_tracer(&mut self, handle: TraceHandle, job: usize) {
        self.tracer = Some((handle, job));
    }

    /// Emits a trace event iff tracing is armed; `f` runs only then, so
    /// the disarmed path never allocates.
    fn emit(&self, at: SimTime, f: impl FnOnce() -> TraceEventKind) {
        if let Some((handle, job)) = &self.tracer {
            handle.emit(TraceEvent {
                at,
                job: Some(*job),
                worker: Some(self.stage),
                kind: f(),
            });
        }
    }

    /// Stage (= GPU index) this worker manages.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Cumulative accounting.
    pub fn accounting(&self) -> WorkerAccounting {
        self.accounting
    }

    /// A task owned by this worker. Its [`SideTask::last_value`] is
    /// current only after [`Worker::settle`].
    pub fn task(&self, id: TaskId) -> Option<&SideTask> {
        self.tasks.get(&id)
    }

    /// All tasks owned by this worker.
    pub fn tasks(&self) -> impl Iterator<Item = &SideTask> {
        self.tasks.values()
    }

    /// Computes the steps charged to every owned task, stopped ones
    /// included. A step is charged when its kernel completes but computed
    /// only here; the run report settles every worker once, when training
    /// ends, before it reads any task.
    pub fn settle(&mut self) {
        for task in self.tasks.values_mut() {
            task.settle();
        }
    }

    /// Whether any owned task is not yet stopped.
    pub fn has_live_tasks(&self) -> bool {
        self.tasks.values().any(|t| !t.is_stopped())
    }

    /// `CreateSideTask()`: create the process in a container and load host
    /// context.
    pub fn handle_create(
        &mut self,
        now: SimTime,
        mut task: SideTask,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        let cap = task.profile.gpu_mem + self.cfg.mem_cap_headroom;
        let pid = device.register_process(
            format!("side.{}", task.kind.name()),
            Priority::Low,
            Some(cap),
        );
        let container = self.containers.create();
        self.containers.add_process(container, pid);
        device.set_container(pid, container);
        task.pid = Some(pid);
        task.container = Some(container);
        task.workload.create();
        task.transition(now, Transition::CreateSideTask);
        let id = task.id;
        self.tasks.insert(id, task);
        vec![WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Created,
        }]
    }

    /// `InitSideTask()`: allocate GPU memory and start the context load;
    /// completion arrives via [`Worker::init_done`]. Protected by the
    /// framework-enforced mechanism like `PauseSideTask` (§4.5).
    pub fn handle_init(
        &mut self,
        now: SimTime,
        id: TaskId,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        let cfg_grace = self.cfg.grace_period;
        let bandwidth = self.cfg.init_bandwidth_gib_s;
        let task = self.tasks.get_mut(&id).expect("init for unknown task");
        let pid = task.pid.expect("created task has a pid");
        if let Err(err) = device.alloc(pid, task.profile.gpu_mem) {
            // Footprint exceeds its cap (mis-profiled task): kill it.
            let _ = err;
            return self.kill(now, id, StopReason::KilledOom, device);
        }
        task.workload.init_gpu();
        let secs = task.profile.gpu_mem.as_gib_f64() / bandwidth;
        let at = now + SimDuration::from_secs_f64(secs);
        vec![
            WorkerEffect::ScheduleInitDone { task: id, at },
            WorkerEffect::ScheduleGraceCheck {
                task: id,
                at: at + cfg_grace,
                requested_at: now,
            },
        ]
    }

    /// The GPU context load finished: the task becomes `PAUSED`.
    pub fn init_done(&mut self, now: SimTime, id: TaskId) -> Vec<WorkerEffect> {
        let task = self.tasks.get_mut(&id).expect("init_done for unknown task");
        if task.is_stopped() {
            return Vec::new();
        }
        task.transition(now, Transition::InitSideTask);
        // Entering PAUSED counts as a successful pause for the
        // framework-enforced init protection.
        task.record_paused(now);
        vec![WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Paused,
        }]
    }

    /// `StartSideTask()`: enter `RUNNING` and begin stepping within the
    /// bubble ending at `bubble_end`.
    pub fn handle_start(
        &mut self,
        now: SimTime,
        id: TaskId,
        bubble_end: SimTime,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        let task = self.tasks.get_mut(&id).expect("start for unknown task");
        if task.is_stopped() {
            return Vec::new();
        }
        task.transition(now, Transition::StartSideTask);
        self.serving = Some(ServingState {
            task: id,
            bubble_end,
            insufficient_from: None,
        });
        self.accounting.bubbles_served += 1;
        self.try_launch_step(now, id, device);
        vec![WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Running,
        }]
    }

    /// `PauseSideTask()`: semantics differ per interface (§4.2/§4.5).
    pub fn handle_pause(
        &mut self,
        now: SimTime,
        id: TaskId,
        _device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        let grace = self.cfg.grace_period;
        let task = self.tasks.get_mut(&id).expect("pause for unknown task");
        if task.is_stopped() {
            return Vec::new();
        }
        let mut effects = vec![WorkerEffect::ScheduleGraceCheck {
            task: id,
            at: now + grace,
            requested_at: now,
        }];
        if task.misbehavior == Misbehavior::IgnorePause {
            // The task's interface is broken: it neither pauses nor
            // updates last_paused. The grace check will SIGKILL it.
            return effects;
        }
        match task.interface {
            InterfaceKind::Imperative => {
                // SIGTSTP stops the CPU thread immediately; in-flight CUDA
                // kernels drain asynchronously (§5).
                task.transition(now, Transition::PauseSideTask);
                task.record_paused(now);
                self.finish_bubble_accounting(now, id);
                effects.push(WorkerEffect::Ack {
                    task: id,
                    state: SideTaskState::Paused,
                });
            }
            InterfaceKind::Iterative => {
                if self.active.contains_key(&id) {
                    // The interface processes the transition after the
                    // current step completes.
                    self.pending_pause = Some((id, now));
                } else {
                    task.transition(now, Transition::PauseSideTask);
                    task.record_paused(now);
                    self.finish_bubble_accounting(now, id);
                    effects.push(WorkerEffect::Ack {
                        task: id,
                        state: SideTaskState::Paused,
                    });
                }
            }
        }
        effects
    }

    /// `StopSideTask()`: orderly termination.
    pub fn handle_stop(
        &mut self,
        now: SimTime,
        id: TaskId,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        self.kill(now, id, StopReason::Finished, device)
    }

    /// Cancels a task that lost a straggler-hedging race: same teardown as
    /// [`Worker::handle_stop`], but the task is marked
    /// [`StopReason::HedgeLost`] so reports attribute the cancelled
    /// incarnation to the hedge instead of an orderly finish.
    pub fn cancel(
        &mut self,
        now: SimTime,
        id: TaskId,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        self.kill(now, id, StopReason::HedgeLost, device)
    }

    /// The framework-enforced check (§4.5): `SIGKILL` a task that failed
    /// to pause (or finish init) within the grace period.
    pub fn grace_check(
        &mut self,
        now: SimTime,
        id: TaskId,
        requested_at: SimTime,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        let Some(task) = self.tasks.get(&id) else {
            return Vec::new();
        };
        if task.is_stopped() || task.paused_since(requested_at) {
            return Vec::new();
        }
        self.kill(now, id, StopReason::KilledGrace, device)
    }

    /// A side-task step kernel completed on this worker's GPU.
    pub fn on_step_complete(
        &mut self,
        now: SimTime,
        id: TaskId,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        let Some((_launched, solo)) = self.active.remove(&id) else {
            return Vec::new(); // kernel of a task killed meanwhile
        };
        self.accounting.running += solo;

        // Account completed work: the iterative interface runs whole
        // steps; the imperative interface runs kernel quanta that add up
        // to steps.
        let step_gap = self.cfg.step_gap;
        let task = self.tasks.get_mut(&id).expect("step for unknown task");
        if task.is_stopped() {
            return Vec::new();
        }
        match task.interface {
            InterfaceKind::Iterative => task.charge_step(),
            InterfaceKind::Imperative => {
                task.sub_progress += solo;
                while task.sub_progress >= task.profile.step_server1 {
                    task.sub_progress -= task.profile.step_server1;
                    task.charge_step();
                }
            }
        }
        if task.state() == SideTaskState::Running {
            // RunNextStep self-loop bookkeeping.
            task.transition(now, Transition::RunNextStep);
        }
        let steps = task.steps;
        self.emit(now, || TraceEventKind::StepEnd { task: id.0, steps });

        // Failure injection.
        let task = self.tasks.get_mut(&id).expect("known");
        match task.misbehavior {
            Misbehavior::LeakMemory { per_step } => {
                let pid = task.pid.expect("running task has a pid");
                if device.alloc(pid, per_step).is_err() {
                    // Exceeded the MPS cap: the process gets an OOM error
                    // and is terminated; training is unaffected
                    // (Fig. 8(b)).
                    return self.kill(now, id, StopReason::KilledOom, device);
                }
                task.leaked += per_step;
            }
            Misbehavior::CrashAfter { steps } if task.steps >= steps => {
                return self.kill(now, id, StopReason::Crashed, device);
            }
            _ => {}
        }

        // Deferred iterative pause.
        if let Some((pending_id, requested)) = self.pending_pause {
            if pending_id == id {
                self.pending_pause = None;
                let task = self.tasks.get_mut(&id).expect("known");
                task.transition(now, Transition::PauseSideTask);
                task.record_paused(now.max(requested));
                self.finish_bubble_accounting(now, id);
                return vec![WorkerEffect::Ack {
                    task: id,
                    state: SideTaskState::Paused,
                }];
            }
        }

        // Keep stepping while RUNNING.
        let task = self.tasks.get(&id).expect("known");
        if task.state() != SideTaskState::Running {
            return Vec::new();
        }
        match task.interface {
            InterfaceKind::Iterative => {
                // The interface polls for transitions between steps: model
                // that bookkeeping as a short gap before the next launch.
                vec![WorkerEffect::ScheduleStepLaunch {
                    task: id,
                    at: now + step_gap,
                }]
            }
            InterfaceKind::Imperative => {
                // Kernels are enqueued back-to-back.
                self.launch_step(now, id, device);
                Vec::new()
            }
        }
    }

    /// A scheduled iterative step launch fires.
    pub fn step_launch_due(
        &mut self,
        now: SimTime,
        id: TaskId,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        let Some(task) = self.tasks.get(&id) else {
            return Vec::new();
        };
        if task.state() != SideTaskState::Running || self.active.contains_key(&id) {
            return Vec::new();
        }
        self.try_launch_step(now, id, device);
        Vec::new()
    }

    /// Program-directed mechanism: launch the next step only if the bubble
    /// has room for it (§4.5). The step's wall-clock estimate is the
    /// profiled reference duration scaled by this GPU's compute speed, so
    /// fast devices squeeze extra steps into a bubble and slow ones stop
    /// earlier. Misbehaving `IgnorePause` tasks skip the check. Imperative
    /// tasks never check — that is what the framework-enforced mechanism
    /// is for.
    fn try_launch_step(&mut self, now: SimTime, id: TaskId, device: &mut GpuDevice) {
        let task = self.tasks.get(&id).expect("known task");
        let check = task.interface == InterfaceKind::Iterative
            && task.misbehavior != Misbehavior::IgnorePause;
        if check {
            let Some(serving) = self.serving.as_mut() else {
                return;
            };
            let needed =
                device.scaled_duration(task.profile.step_server1) + self.cfg.step_safety_margin;
            let remaining = serving.bubble_end.saturating_since(now);
            if remaining < needed {
                if serving.insufficient_from.is_none() {
                    serving.insufficient_from = Some(now);
                }
                return;
            }
        }
        self.launch_step(now, id, device);
    }

    fn launch_step(&mut self, now: SimTime, id: TaskId, device: &mut GpuDevice) {
        let task = self.tasks.get(&id).expect("known task");
        let pid = task.pid.expect("running task has a pid");
        let solo = match task.interface {
            InterfaceKind::Iterative => task.profile.step_server1,
            InterfaceKind::Imperative => task.profile.imperative_kernel_quantum(),
        };
        let spec = KernelSpec::new(
            pid,
            solo,
            task.profile.sm_demand,
            Priority::Low,
            "side.step",
        )
        .with_intensity(task.profile.mps_intensity);
        match device.launch(now, spec) {
            Ok(_) => {
                self.active.insert(id, (now, solo));
                self.emit(now, || TraceEventKind::StepBegin { task: id.0 });
            }
            Err(_) => {
                // Process died between scheduling and launch: drop.
            }
        }
    }

    fn finish_bubble_accounting(&mut self, now: SimTime, id: TaskId) {
        if let Some(serving) = self.serving.take() {
            if serving.task != id {
                self.serving = Some(serving);
                return;
            }
            let insufficient_until = now.min(serving.bubble_end);
            if let Some(from) = serving.insufficient_from {
                self.accounting.insufficient += insufficient_until.saturating_since(from);
            }
        }
    }

    /// Terminates a task: kills its process (freeing memory, aborting its
    /// kernels), tears down its container, and acknowledges `STOPPED`.
    fn kill(
        &mut self,
        now: SimTime,
        id: TaskId,
        reason: StopReason,
        device: &mut GpuDevice,
    ) -> Vec<WorkerEffect> {
        self.finish_bubble_accounting(now, id);
        let task = self.tasks.get_mut(&id).expect("kill for unknown task");
        if task.is_stopped() {
            return Vec::new();
        }
        if let Some(pid) = task.pid {
            let state = match reason {
                StopReason::KilledOom => ProcessState::OomKilled,
                _ => ProcessState::Killed,
            };
            device.kill_process(now, pid, state);
        }
        if let Some(c) = task.container {
            self.containers.stop(c);
        }
        if task.sm.can_apply(Transition::StopSideTask) {
            task.transition(now, Transition::StopSideTask);
        }
        task.stop_reason = reason;
        self.active.remove(&id);
        if self.pending_pause.is_some_and(|(t, _)| t == id) {
            self.pending_pause = None;
        }
        self.emit(now, || TraceEventKind::TaskStopped {
            task: id.0,
            reason: reason.label(),
        });
        vec![WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Stopped,
        }]
    }

    /// The whole side-task daemon dies (injected worker-crash fault):
    /// every live task is killed with [`StopReason::WorkerLost`] — process
    /// killed, container torn down, GPU memory freed — and the ids of the
    /// tasks lost are returned (ascending). No `Ack` effects are produced:
    /// a dead daemon cannot RPC, so the orchestrator updates the manager's
    /// book-keeping directly via `SideTaskManager::on_worker_crash`.
    pub fn crash(&mut self, now: SimTime, device: &mut GpuDevice) -> Vec<TaskId> {
        let live: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|(_, t)| !t.is_stopped())
            .map(|(id, _)| *id)
            .collect();
        for &id in &live {
            // Discard the Ack effect: nobody is listening on a dead daemon.
            let _ = self.kill(now, id, StopReason::WorkerLost, device);
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeride_gpu::{GpuId, MemBytes, MpsPrioritized};
    use freeride_tasks::WorkloadKind;

    fn device() -> GpuDevice {
        GpuDevice::new(
            GpuId(0),
            MemBytes::from_gib(48),
            Box::new(MpsPrioritized::default()),
        )
    }

    fn make_task(id: u64, interface: InterfaceKind) -> SideTask {
        let kind = WorkloadKind::ResNet18;
        SideTask::new(
            TaskId(id),
            kind,
            kind.profile(),
            interface,
            kind.build(id),
            SimTime::ZERO,
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn worker() -> Worker {
        Worker::new(0, FreeRideConfig::iterative())
    }

    /// Drives a task to PAUSED; returns its id.
    fn readied(w: &mut Worker, d: &mut GpuDevice, interface: InterfaceKind) -> TaskId {
        let task = make_task(1, interface);
        let id = task.id;
        let fx = w.handle_create(t(0), task, d);
        assert_eq!(
            fx,
            vec![WorkerEffect::Ack {
                task: id,
                state: SideTaskState::Created
            }]
        );
        let fx = w.handle_init(t(1), id, d);
        let at = match fx[0] {
            WorkerEffect::ScheduleInitDone { at, .. } => at,
            _ => panic!("expected init completion, got {fx:?}"),
        };
        let fx = w.init_done(at, id);
        assert_eq!(
            fx,
            vec![WorkerEffect::Ack {
                task: id,
                state: SideTaskState::Paused
            }]
        );
        id
    }

    #[test]
    fn create_registers_capped_contained_process() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        let task = w.task(id).unwrap();
        let pid = task.pid.unwrap();
        let proc = d.process(pid).unwrap();
        assert_eq!(proc.priority, Priority::Low);
        assert!(proc.mem_limit.is_some(), "MPS cap must be set");
        assert!(proc.container.is_some(), "must be containerised");
        // Init allocated the profiled footprint.
        assert_eq!(proc.allocated(), task.profile.gpu_mem);
    }

    #[test]
    fn start_launches_first_step_in_large_bubble() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        let fx = w.handle_start(t(1000), id, t(2000), &mut d);
        assert!(fx.contains(&WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Running
        }));
        assert_eq!(d.active_kernels(), 1);
    }

    #[test]
    fn program_directed_check_blocks_tight_bubble() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        // Bubble of 10ms: smaller than ResNet18's 30.4ms step.
        w.handle_start(t(1000), id, t(1010), &mut d);
        assert_eq!(d.active_kernels(), 0, "step must not launch");
        // The tail counts as insufficient once the bubble is over.
        let fx = w.handle_pause(t(1010), id, &mut d);
        assert!(fx.iter().any(|e| matches!(
            e,
            WorkerEffect::Ack {
                state: SideTaskState::Paused,
                ..
            }
        )));
        assert!(w.accounting().insufficient >= SimDuration::from_millis(10));
    }

    #[test]
    fn iterative_steps_until_insufficient() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        // 100ms bubble fits 3×30.4ms steps (91.2ms + gaps) but not 4.
        let start = t(1000);
        w.handle_start(start, id, t(1100), &mut d);
        let mut launches = 0;
        while let Some(next) = d.next_completion_time() {
            let mut now = next;
            let completions = d.advance_through(now);
            assert_eq!(completions.len(), 1);
            launches += 1;
            let fx = w.on_step_complete(now, id, &mut d);
            match fx.first() {
                Some(WorkerEffect::ScheduleStepLaunch { at, .. }) => {
                    now = *at;
                    w.step_launch_due(now, id, &mut d);
                }
                _ => break,
            }
        }
        assert_eq!(launches, 3, "exactly three steps fit");
        assert_eq!(w.task(id).unwrap().steps, 3);
        assert!(w.accounting().running >= SimDuration::from_millis(90));
    }

    #[test]
    fn iterative_pause_defers_to_step_completion() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        w.handle_start(t(1000), id, t(2000), &mut d);
        assert_eq!(d.active_kernels(), 1);
        // Pause mid-kernel: no immediate Paused ack.
        let fx = w.handle_pause(t(1010), id, &mut d);
        assert!(
            fx.iter().all(|e| !matches!(e, WorkerEffect::Ack { .. })),
            "{fx:?}"
        );
        // Kernel completes → pause takes effect.
        let completions = d.advance_through(t(1031));
        assert_eq!(completions.len(), 1);
        let fx = w.on_step_complete(completions[0].finished_at, id, &mut d);
        assert!(fx.contains(&WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Paused
        }));
        assert!(w.task(id).unwrap().paused_since(t(1010)));
        assert_eq!(d.active_kernels(), 0, "no relaunch after pause");
    }

    #[test]
    fn imperative_pause_is_immediate_but_kernel_drains() {
        let mut d = device();
        let mut w = Worker::new(0, FreeRideConfig::imperative());
        let id = readied(&mut w, &mut d, InterfaceKind::Imperative);
        w.handle_start(t(1000), id, t(2000), &mut d);
        assert_eq!(d.active_kernels(), 1);
        let fx = w.handle_pause(t(1010), id, &mut d);
        assert!(fx.contains(&WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Paused
        }));
        // The in-flight kernel is still on the device (cannot be revoked).
        assert_eq!(d.active_kernels(), 1);
        // It completes; no new kernel is launched.
        let completions = d.advance_through(t(1031));
        assert_eq!(completions.len(), 1);
        w.on_step_complete(completions[0].finished_at, id, &mut d);
        assert_eq!(d.active_kernels(), 0);
    }

    #[test]
    fn ignore_pause_task_is_grace_killed() {
        let mut d = device();
        let mut w = worker();
        let task =
            make_task(1, InterfaceKind::Iterative).with_misbehavior(Misbehavior::IgnorePause);
        let id = task.id;
        w.handle_create(t(0), task, &mut d);
        let fx = w.handle_init(t(1), id, &mut d);
        let at = match fx[0] {
            WorkerEffect::ScheduleInitDone { at, .. } => at,
            _ => panic!(),
        };
        w.init_done(at, id);
        w.handle_start(t(1000), id, t(1100), &mut d);
        // Pause is ignored: schedule returned, but no ack ever.
        let fx = w.handle_pause(t(1100), id, &mut d);
        let (check_at, requested) = match fx[0] {
            WorkerEffect::ScheduleGraceCheck {
                at, requested_at, ..
            } => (at, requested_at),
            _ => panic!("expected grace check, got {fx:?}"),
        };
        // Drain whatever kernel is running so the clock can advance.
        d.advance_through(check_at);
        let fx = w.grace_check(check_at, id, requested, &mut d);
        assert!(fx.contains(&WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Stopped
        }));
        let task = w.task(id).unwrap();
        assert_eq!(task.stop_reason, StopReason::KilledGrace);
        assert_eq!(
            d.process(task.pid.unwrap()).unwrap().state(),
            ProcessState::Killed
        );
        assert_eq!(d.used_mem(), MemBytes::ZERO, "memory reclaimed");
    }

    #[test]
    fn well_behaved_task_passes_grace_check() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        w.handle_start(t(1000), id, t(2000), &mut d);
        let fx = w.handle_pause(t(1010), id, &mut d);
        let (check_at, requested) = match fx[0] {
            WorkerEffect::ScheduleGraceCheck {
                at, requested_at, ..
            } => (at, requested_at),
            _ => panic!(),
        };
        // Step completes well before the check; task paused.
        let completions = d.advance_through(t(1031));
        w.on_step_complete(completions[0].finished_at, id, &mut d);
        let fx = w.grace_check(check_at, id, requested, &mut d);
        assert!(fx.is_empty(), "no kill: {fx:?}");
        assert!(!w.task(id).unwrap().is_stopped());
    }

    #[test]
    fn memory_leak_hits_cap_and_is_oom_killed() {
        let mut d = device();
        let mut w = worker();
        let task =
            make_task(1, InterfaceKind::Iterative).with_misbehavior(Misbehavior::LeakMemory {
                per_step: MemBytes::from_gib(1),
            });
        let id = task.id;
        w.handle_create(t(0), task, &mut d);
        let fx = w.handle_init(t(1), id, &mut d);
        let at = match fx[0] {
            WorkerEffect::ScheduleInitDone { at, .. } => at,
            _ => panic!(),
        };
        w.init_done(at, id);
        // Cap = 2.63 GiB + 0.5 GiB headroom ≈ 3.13 GiB; leaking 1 GiB per
        // step exceeds it on the first step (2.63 + 1 > 3.13).
        w.handle_start(t(1000), id, t(60_000), &mut d);
        #[allow(unused_assignments)]
        let mut now = t(1000);
        let mut killed = false;
        for _ in 0..10 {
            let Some(next) = d.next_completion_time() else {
                break;
            };
            now = next;
            d.advance_through(now);
            let fx = w.on_step_complete(now, id, &mut d);
            if fx.contains(&WorkerEffect::Ack {
                task: id,
                state: SideTaskState::Stopped,
            }) {
                killed = true;
                break;
            }
            for e in fx {
                if let WorkerEffect::ScheduleStepLaunch { at, .. } = e {
                    now = at;
                    w.step_launch_due(now, id, &mut d);
                }
            }
        }
        assert!(killed, "leaky task must be OOM-killed");
        assert_eq!(w.task(id).unwrap().stop_reason, StopReason::KilledOom);
        assert_eq!(d.used_mem(), MemBytes::ZERO);
    }

    #[test]
    fn crash_is_contained() {
        let mut d = device();
        let mut w = worker();
        let task = make_task(1, InterfaceKind::Iterative)
            .with_misbehavior(Misbehavior::CrashAfter { steps: 1 });
        let id = task.id;
        w.handle_create(t(0), task, &mut d);
        let fx = w.handle_init(t(1), id, &mut d);
        let at = match fx[0] {
            WorkerEffect::ScheduleInitDone { at, .. } => at,
            _ => panic!(),
        };
        w.init_done(at, id);
        w.handle_start(t(1000), id, t(5000), &mut d);
        let now = d.next_completion_time().unwrap();
        d.advance_through(now);
        let fx = w.on_step_complete(now, id, &mut d);
        assert!(fx.contains(&WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Stopped
        }));
        assert_eq!(w.task(id).unwrap().stop_reason, StopReason::Crashed);
    }

    #[test]
    fn stop_finishes_cleanly() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        let fx = w.handle_stop(t(100), id, &mut d);
        assert!(fx.contains(&WorkerEffect::Ack {
            task: id,
            state: SideTaskState::Stopped
        }));
        assert_eq!(w.task(id).unwrap().stop_reason, StopReason::Finished);
        assert!(!w.has_live_tasks());
        // Double stop is a no-op.
        assert!(w.handle_stop(t(101), id, &mut d).is_empty());
    }

    #[test]
    fn real_workload_progresses_through_worker() {
        let mut d = device();
        let mut w = worker();
        let id = readied(&mut w, &mut d, InterfaceKind::Iterative);
        w.handle_start(t(1000), id, t(10_000), &mut d);
        #[allow(unused_assignments)]
        let mut now = t(1000);
        for _ in 0..5 {
            let next = d.next_completion_time().expect("kernel in flight");
            now = next;
            d.advance_through(now);
            let fx = w.on_step_complete(now, id, &mut d);
            if let Some(WorkerEffect::ScheduleStepLaunch { at, .. }) = fx.first() {
                now = *at;
                w.step_launch_due(now, id, &mut d);
            }
        }
        assert_eq!(w.task(id).unwrap().steps, 5);
        w.settle();
        assert_eq!(w.task(id).unwrap().workload.steps_done(), 5);
    }
}
