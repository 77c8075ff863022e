//! The side-task worker: one per GPU (Fig. 5).
//!
//! A worker owns its side-task processes: it creates each with an MPS
//! memory cap, executes the manager's state-transition RPCs, drives step
//! execution while a task is `RUNNING` (the interface implementation of
//! §4.2), and enforces the GPU resource limits of §4.5 —
//! the *program-directed* remaining-time check for the iterative interface
//! and the *framework-enforced* grace-period `SIGKILL` for everything else.
//!
//! Steps are driven by the orchestrator's events, one launch and one
//! completion each, except while a well-behaved iterative task steps
//! alone on its GPU: the worker then keeps the steps as a deferred run
//! and computes them, the same ones, when [`Worker::catch_up`] is called.

use crate::config::{ColocationMode, FreeRideConfig, InterfaceKind};
use crate::state::{SideTaskState, Transition};
use crate::task::{Misbehavior, SideTask, StopReason, TaskId};
use freeride_gpu::{GpuDevice, KernelSpec, Priority, ProcessState};
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
}

struct ServingState {
    task: TaskId,
    bubble_end: SimTime,
    insufficient_from: Option<SimTime>,
}

/// Steps of a task stepping alone on its GPU that the orchestrator queues
/// no events for: the bubble end learned with `StartSideTask` and the
/// remaining-time check before each step (§4.2, §4.5) fix every one of
/// them. [`Worker::catch_up`] computes them when something needs them.
#[derive(Clone, Copy)]
struct DeferredRun {
    task: TaskId,
    /// The next step launch; `None` while a launched step's kernel is in
    /// flight.
    launch_at: Option<SimTime>,
}

/// What a deferred run still owes when it ends ([`Worker::undefer`]), for
/// the orchestrator to queue as an ordinary event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingStep {
    /// A step launch due at this instant ([`Worker::step_launch_due`]).
    Launch(TaskId, SimTime),
    /// A step kernel in flight on the device.
    InFlight,
}

/// A per-GPU side-task worker.
pub struct Worker {
    stage: usize,
    cfg: FreeRideConfig,
    tasks: BTreeMap<TaskId, SideTask>,
    serving: Option<ServingState>,
    /// Kernels in flight per task (the FreeRide path has at most one task
    /// running per worker; the co-location baselines run every admitted
    /// task concurrently).
    active: BTreeMap<TaskId, (SimTime, SimDuration)>,
    /// Pause received while a kernel was in flight (iterative semantics).
    pending_pause: Option<(TaskId, SimTime)>,
    /// The run of steps computed on catch-up instead of by queue events.
    deferred: Option<DeferredRun>,
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
            serving: None,
            active: BTreeMap::new(),
            pending_pause: None,
            deferred: None,
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
        debug_assert!(
            self.deferred.is_none(),
            "a deferred run outlived its bubble"
        );
        for task in self.tasks.values_mut() {
            task.settle();
        }
    }

    /// Whether any owned task is not yet stopped.
    pub fn has_live_tasks(&self) -> bool {
        self.tasks.values().any(|t| !t.is_stopped())
    }

    /// `CreateSideTask()`: create the capped process and load host context.
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
        task.pid = Some(pid);
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
        let Some(task) = self.tasks.get_mut(&id).filter(|t| !t.is_stopped()) else {
            return Vec::new();
        };

        // Account completed work: the iterative interface runs whole
        // steps; the imperative interface runs kernel quanta that add up
        // to steps.
        match task.interface {
            InterfaceKind::Iterative => task.charge_steps(1),
            InterfaceKind::Imperative => {
                task.sub_progress += solo;
                while task.sub_progress >= task.profile.step_server1 {
                    task.sub_progress -= task.profile.step_server1;
                    task.charge_steps(1);
                }
            }
        }
        if task.state() == SideTaskState::Running {
            // RunNextStep self-loop bookkeeping.
            task.transition(now, Transition::RunNextStep);
        }
        let steps = task.steps;

        // Failure injection.
        let fault = match task.misbehavior {
            Misbehavior::LeakMemory { per_step } => match task.pid {
                Some(pid) if device.alloc(pid, per_step).is_ok() => None,
                // Exceeded the MPS cap: the process gets an OOM error and
                // is terminated; training is unaffected (Fig. 8(b)).
                Some(_) => Some(StopReason::KilledOom),
                None => None,
            },
            Misbehavior::CrashAfter { steps } if task.steps >= steps => Some(StopReason::Crashed),
            _ => None,
        };

        // Deferred iterative pause.
        let pause = self
            .pending_pause
            .filter(|&(pending, _)| pending == id && fault.is_none());
        if let Some((_, requested)) = pause {
            task.transition(now, Transition::PauseSideTask);
            task.record_paused(now.max(requested));
        }
        let running = task.state() == SideTaskState::Running;
        let interface = task.interface;
        self.emit(now, || TraceEventKind::StepEnd { task: id.0, steps });
        if let Some(reason) = fault {
            return self.kill(now, id, reason, device);
        }
        if pause.is_some() {
            self.pending_pause = None;
            self.finish_bubble_accounting(now, id);
            return vec![WorkerEffect::Ack {
                task: id,
                state: SideTaskState::Paused,
            }];
        }

        // Keep stepping while RUNNING.
        if !running {
            return Vec::new();
        }
        match interface {
            InterfaceKind::Iterative => {
                // The interface polls for transitions between steps: model
                // that bookkeeping as a short gap before the next launch.
                vec![WorkerEffect::ScheduleStepLaunch {
                    task: id,
                    at: now + self.cfg.step_gap,
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
        let Some(task) = self.tasks.get(&id) else {
            return;
        };
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
        let Some((task, pid)) = self.tasks.get(&id).and_then(|t| t.pid.map(|pid| (t, pid))) else {
            return;
        };
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

    /// Takes over the step launch [`Worker::on_step_complete`] asked for
    /// as a deferred run instead of a queue event, when the steps until
    /// the bubble closes are fixed by arithmetic: FreeRide mode, the
    /// iterative interface, a well-behaved task, a positive inter-step
    /// gap and no other kernel on the device. Returns whether it did; if
    /// not, the caller queues the launch.
    pub(crate) fn defer(&mut self, task: TaskId, launch_at: SimTime, device: &GpuDevice) -> bool {
        let lone = matches!(self.cfg.mode, ColocationMode::FreeRide(_))
            && !self.cfg.step_gap.is_zero()
            && device.active_kernels() == 0
            && self.tasks.get(&task).is_some_and(|t| {
                t.interface == InterfaceKind::Iterative && t.misbehavior == Misbehavior::None
            });
        if lone {
            self.deferred = Some(DeferredRun {
                task,
                launch_at: Some(launch_at),
            });
        }
        lone
    }

    /// Computes the deferred run's steps up to `now`, every step boundary
    /// at `now` included: a touch that lands on the nanosecond of a
    /// boundary sees the boundary applied first. The first launch and
    /// completion go through the calls the queue would make, which
    /// measures the lone kernel's duration; the whole step cycles after
    /// them are charged in closed form; the partial tail goes through the
    /// calls again. The run stays deferred until [`Worker::undefer`].
    pub(crate) fn catch_up(&mut self, now: SimTime, device: &mut GpuDevice) {
        let mut kernel = None;
        while let Some(run) = self.deferred {
            let Some(at) = run.launch_at else {
                let Some(&(launched, _)) = self.active.get(&run.task) else {
                    self.deferred = None;
                    return;
                };
                let Some(done) = device.next_completion_time().filter(|&t| t <= now) else {
                    return;
                };
                device.advance_through(done);
                let fx = self.on_step_complete(done, run.task, device);
                self.deferred = match fx.as_slice() {
                    [WorkerEffect::ScheduleStepLaunch { at, .. }] => Some(DeferredRun {
                        launch_at: Some(*at),
                        ..run
                    }),
                    _ => None,
                };
                kernel = Some(done - launched);
                continue;
            };
            if at > now {
                return;
            }
            if let Some(kernel) = kernel.take() {
                if self.skip_cycles(run.task, at, kernel, now, device) {
                    continue;
                }
            }
            self.step_launch_due(at, run.task, device);
            // A launch the remaining-time check refused ends the run.
            self.deferred = self.active.contains_key(&run.task).then_some(DeferredRun {
                launch_at: None,
                ..run
            });
        }
    }

    /// Charges in closed form the whole step cycles from the launch at
    /// `at` on, each a lone kernel of duration `kernel` and the inter-step
    /// gap: as many as both pass the remaining-time check at launch and
    /// complete by `now`. Leaves the task, the accounting, the device and
    /// the trace where stepping through them would. Returns whether it
    /// charged any.
    fn skip_cycles(
        &mut self,
        id: TaskId,
        at: SimTime,
        kernel: SimDuration,
        now: SimTime,
        device: &mut GpuDevice,
    ) -> bool {
        let (Some(serving), Some(task)) = (
            self.serving.as_ref().filter(|s| s.task == id),
            self.tasks.get_mut(&id),
        ) else {
            return false;
        };
        let solo = task.profile.step_server1;
        let needed = device.scaled_duration(solo) + self.cfg.step_safety_margin;
        let gap = self.cfg.step_gap;
        let period = (kernel + gap).as_nanos();
        // Cycle k launches at `at + k·period` and completes `kernel` later.
        let launches = if needed.is_zero() {
            u64::MAX
        } else {
            match serving.bubble_end.checked_since(at) {
                Some(room) if room >= needed => (room - needed).as_nanos() / period + 1,
                _ => 0,
            }
        };
        let completions = now
            .checked_since(at + kernel)
            .map_or(0, |span| span.as_nanos() / period + 1);
        let n = launches.min(completions);
        if n == 0 {
            return false;
        }
        let first = task.steps;
        task.charge_steps(n);
        self.accounting.running += solo * n;
        let last_done = at + SimDuration::from_nanos((n - 1) * period) + kernel;
        device.skip_solo_kernels(n, last_done);
        if self.tracer.is_some() {
            for k in 0..n {
                let launch = at + SimDuration::from_nanos(k * period);
                self.emit(launch, || TraceEventKind::StepBegin { task: id.0 });
                let steps = first + k + 1;
                self.emit(launch + kernel, || TraceEventKind::StepEnd {
                    task: id.0,
                    steps,
                });
            }
        }
        self.deferred = Some(DeferredRun {
            task: id,
            launch_at: Some(last_done + gap),
        });
        true
    }

    /// Ends the deferred run and hands back what it still owes, for the
    /// caller to queue.
    pub(crate) fn undefer(&mut self) -> Option<PendingStep> {
        let run = self.deferred.take()?;
        Some(match run.launch_at {
            Some(at) => PendingStep::Launch(run.task, at),
            None => PendingStep::InFlight,
        })
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
    /// kernels) and acknowledges `STOPPED`.
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
        if task.sm.can_apply(Transition::StopSideTask) {
            task.transition(now, Transition::StopSideTask);
        }
        task.stop_reason = reason;
        self.active.remove(&id);
        if self.pending_pause.is_some_and(|(t, _)| t == id) {
            self.pending_pause = None;
        }
        if self.deferred.is_some_and(|r| r.task == id) {
            self.deferred = None;
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
    /// killed, GPU memory freed — and the ids of the tasks lost are
    /// returned (ascending). No `Ack` effects are produced:
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
    use freeride_sim::TraceRecorder;
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
        ready(w, d, make_task(1, interface))
    }

    /// Drives `task` to PAUSED; returns its id.
    fn ready(w: &mut Worker, d: &mut GpuDevice, task: SideTask) -> TaskId {
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

    /// A user-supplied sharing model under which even a lone kernel runs
    /// below full speed.
    struct Throttled(f64);

    impl freeride_gpu::InterferenceModel for Throttled {
        fn speeds_into(&self, kernels: &[freeride_gpu::KernelCtx], out: &mut Vec<f64>) {
            out.extend(kernels.iter().map(|_| self.0));
        }

        fn name(&self) -> &'static str {
            "throttled"
        }
    }

    /// One bubble of a lone iterative task: its step on the reference GPU,
    /// the inter-step gap, the bubble's room beyond the first step's
    /// remaining-time check, the device's compute speed and the speed the
    /// sharing model gives a lone kernel.
    #[derive(Debug, Clone, Copy)]
    struct Bubble {
        step: SimDuration,
        gap: SimDuration,
        room: SimDuration,
        compute_speed: f64,
        model_speed: f64,
    }

    const START: SimTime = SimTime::from_millis(1000);

    struct Lone {
        w: Worker,
        d: GpuDevice,
        id: TaskId,
        sink: std::sync::Arc<std::sync::Mutex<freeride_obs::SimTracer>>,
        /// The launch the last completion asked for, not yet made.
        launch: Option<SimTime>,
    }

    /// A traced worker whose task has just started the bubble and
    /// launched its first step.
    fn lone(b: Bubble) -> Lone {
        let mut d = GpuDevice::new(
            GpuId(0),
            MemBytes::from_gib(48),
            Box::new(Throttled(b.model_speed)),
        )
        .with_compute_speed(b.compute_speed);
        let mut cfg = FreeRideConfig::iterative();
        cfg.step_gap = b.gap;
        let mut w = Worker::new(0, cfg);
        let sink = freeride_obs::SimTracer::shared();
        w.set_tracer(TraceHandle::new(sink.clone()), 0);
        let mut task = make_task(1, InterfaceKind::Iterative);
        task.profile.step_server1 = b.step;
        let id = ready(&mut w, &mut d, task);
        let needed = d.scaled_duration(b.step) + w.cfg.step_safety_margin;
        w.handle_start(START, id, START + needed + b.room, &mut d);
        assert_eq!(d.active_kernels(), 1, "the first step fits");
        Lone {
            w,
            d,
            id,
            sink,
            launch: None,
        }
    }

    impl Lone {
        /// Steps by hand through every boundary up to `until`, as the
        /// queue does: a completion, then the launch it asks for.
        /// Samples `gpu0.mem` after each completion into `mem`, as the
        /// orchestrator's device tick does, and returns the boundaries.
        fn drive(&mut self, until: SimTime, mem: &mut TraceRecorder) -> Vec<SimTime> {
            let mut boundaries = Vec::new();
            loop {
                if let Some(at) = self.launch.filter(|&at| at <= until) {
                    self.launch = None;
                    self.w.step_launch_due(at, self.id, &mut self.d);
                    boundaries.push(at);
                }
                let Some(done) = self.d.next_completion_time().filter(|&t| t <= until) else {
                    return boundaries;
                };
                assert_eq!(self.d.advance_through(done).len(), 1);
                let fx = self.w.on_step_complete(done, self.id, &mut self.d);
                mem.record("gpu0.mem", done, self.d.used_mem().as_gib_f64());
                boundaries.push(done);
                if let [WorkerEffect::ScheduleStepLaunch { at, .. }] = fx[..] {
                    self.launch = Some(at);
                }
            }
        }

        /// Completes the first step by hand and defers the rest.
        fn defer_after_first_step(&mut self, mem: &mut TraceRecorder) {
            let done = self.d.next_completion_time().unwrap();
            self.d.advance_through(done);
            let fx = self.w.on_step_complete(done, self.id, &mut self.d);
            mem.record("gpu0.mem", done, self.d.used_mem().as_gib_f64());
            let [WorkerEffect::ScheduleStepLaunch { at, .. }] = fx[..] else {
                panic!("expected a step launch, got {fx:?}");
            };
            assert!(self.w.defer(self.id, at, &self.d), "a lone step defers");
        }

        /// Everything a run of steps leaves behind, at the current instant.
        fn state(&self) -> (u64, SimDuration, Option<SimTime>, SimTime, usize, MemBytes) {
            (
                self.w.task(self.id).unwrap().steps,
                self.w.accounting().running,
                self.w.serving.as_ref().and_then(|s| s.insufficient_from),
                self.d.clock(),
                self.d.active_kernels(),
                self.d.used_mem(),
            )
        }
    }

    /// Drives one bubble by hand and again deferred after its first step,
    /// caught up at each instant `touches` picks from the stepped run's
    /// boundaries (which it gets in time order, the first step's
    /// completion first). Steps, accounting, the remaining-time check,
    /// the device and the trace must agree at every touch from that
    /// completion on, and once the bubble is over and the task paused.
    fn assert_catch_up_matches_stepping(
        b: Bubble,
        touches: impl FnOnce(&[SimTime]) -> Vec<SimTime>,
    ) {
        let mut scout = lone(b);
        let boundaries = scout.drive(SimTime::MAX, &mut TraceRecorder::new());
        let end = boundaries.last().copied().unwrap_or(START) + SimDuration::from_millis(1);
        let mut touches = touches(&boundaries);
        touches.sort();

        let (mut stepped, mut deferred) = (lone(b), lone(b));
        let (mut stepped_mem, mut deferred_mem) = (TraceRecorder::new(), TraceRecorder::new());
        deferred.defer_after_first_step(&mut deferred_mem);
        for &at in touches
            .iter()
            .filter(|&&at| boundaries[0] <= at && at < end)
        {
            stepped.drive(at, &mut stepped_mem);
            deferred.w.catch_up(at, &mut deferred.d);
            assert_eq!(
                stepped.state(),
                deferred.state(),
                "caught up at {at} in {b:?}"
            );
        }
        stepped.drive(end, &mut stepped_mem);
        deferred.w.catch_up(end, &mut deferred.d);
        assert_eq!(deferred.w.undefer(), None, "the failing check ends the run");
        for lone in [&mut stepped, &mut deferred] {
            lone.w.handle_pause(end, lone.id, &mut lone.d);
        }
        deferred_mem.record("gpu0.mem", end, deferred.d.used_mem().as_gib_f64());
        stepped_mem.record("gpu0.mem", end, stepped.d.used_mem().as_gib_f64());

        assert_eq!(stepped.state(), deferred.state(), "{b:?}");
        let acc = |l: &Lone| (l.w.accounting().running, l.w.accounting().insufficient);
        assert_eq!(acc(&stepped), acc(&deferred));
        // Memory cannot change inside the run: every sample stepping
        // takes there is one `Series::record` drops.
        let samples = |r: &TraceRecorder| r.series("gpu0.mem").unwrap().samples().to_vec();
        assert_eq!(samples(&stepped_mem), samples(&deferred_mem));
        let events = |l: &Lone| l.sink.lock().unwrap().events().to_vec();
        assert_eq!(events(&stepped), events(&deferred));
        // The next kernel gets the same id.
        let probe = |l: &mut Lone| {
            let pid = l.w.task(l.id).unwrap().pid.unwrap();
            let spec = KernelSpec::new(pid, b.step, 0.5, Priority::Low, "probe");
            l.d.launch(end, spec)
        };
        assert_eq!(probe(&mut stepped), probe(&mut deferred));
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn a_daemon_crash_drops_a_run_deferred_at_its_instant() {
        // A fault handler drains the device before the crash, so the
        // step completing at the crash instant defers the next launch,
        // then the crash kills the task: nothing is left to catch up.
        let mut l = lone(Bubble {
            step: us(2_000),
            gap: us(300),
            room: SimDuration::from_millis(50),
            compute_speed: 1.0,
            model_speed: 1.0,
        });
        l.defer_after_first_step(&mut TraceRecorder::new());
        let now = l.d.clock();
        assert_eq!(l.w.crash(now, &mut l.d), vec![l.id]);
        assert_eq!(l.w.undefer(), None);
        l.w.settle();
    }

    #[test]
    fn catch_up_on_a_launch_or_a_completion_instant_matches_stepping() {
        let b = Bubble {
            step: WorkloadKind::ResNet18.profile().step_server1,
            gap: us(300),
            room: SimDuration::from_millis(400),
            compute_speed: 1.0,
            model_speed: 1.0,
        };
        // Boundaries alternate completion, launch, … from the first
        // step's completion on.
        assert_catch_up_matches_stepping(b, |bs| vec![bs[4], bs[7]]);
        assert_catch_up_matches_stepping(b, |bs| vec![bs[1], bs[2], bs[9]]);
        assert_catch_up_matches_stepping(b, |bs| vec![bs[bs.len() - 1]]);
        assert_catch_up_matches_stepping(b, |_| Vec::new());
    }

    #[test]
    fn catch_up_matches_stepping_on_a_slow_throttled_device() {
        let b = Bubble {
            step: us(7_919),
            gap: us(13),
            room: SimDuration::from_millis(400),
            compute_speed: 0.37,
            model_speed: 0.61,
        };
        assert_catch_up_matches_stepping(b, |bs| {
            let mid = |i: usize| bs[i] + SimDuration::from_nanos(1);
            vec![bs[3], mid(3), mid(6), bs[bs.len() - 2]]
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Closed-form catch-up at random instants, boundaries among them,
        /// equals stepping one boundary at a time, for any step time,
        /// bubble length, hetero compute speed, straggler factor and
        /// lone-kernel speed.
        #[test]
        fn catch_up_matches_stepping(
            step in 50u64..40_000,
            gap in 1u64..2_000,
            room in 0u64..100_000,
            base in 25u64..=400,
            straggler in 10u64..=100,
            model in 10u64..=100,
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..6),
        ) {
            let b = Bubble {
                step: us(step),
                gap: us(gap),
                room: us(room),
                compute_speed: base as f64 / 100.0 * (straggler as f64 / 100.0),
                model_speed: model as f64 / 100.0,
            };
            assert_catch_up_matches_stepping(b, |bs| {
                let span = bs[bs.len() - 1].saturating_since(bs[0]).as_nanos() + 2;
                picks
                    .iter()
                    .map(|&p| match p % 2 {
                        0 => bs[(p / 2) as usize % bs.len()],
                        _ => bs[0] + SimDuration::from_nanos((p / 2) % span),
                    })
                    .collect()
            });
        }
    }
}
