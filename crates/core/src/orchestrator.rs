//! The FreeRide execution engine: pipeline training, side-task manager,
//! per-GPU workers, and RPC wiring, composed into one deterministic
//! simulation world (Fig. 3 and Fig. 5 of the paper).
//!
//! Since the cluster API the world is **job-multiplexed**: one
//! discrete-event simulation hosts N independent pipeline-training jobs
//! (each a [`JobRuntime`]: its own engine, manager, workers, and devices,
//! under its own seed and mode). Its RPC messages are events delivered
//! after one latency draw each, from a seeded stream all jobs share
//! ([`JobRuntime::send`]). Every event carries its job index, so the event
//! loop dispatches to exactly one job's state machine — a one-job cluster
//! is byte-identical to the pre-cluster single-job orchestrator.
//!
//! The public entry point is [`Cluster`]; this module owns the simulation
//! world it runs on, plus two batch helpers for the paper-experiment
//! binaries: [`run_colocation`] (a one-job cluster with every submission
//! up front) and [`run_baseline`] (training with no side tasks).
//!
//! The same orchestrator also runs the two baselines of §6.1.2 — MPS
//! co-location and naive co-location — by skipping the bubble machinery
//! and letting side tasks run continuously under the corresponding device
//! sharing model.
//!
//! A well-behaved iterative side task stepping alone on its GPU costs no
//! events per step. The bubble end it learned with `StartSideTask` and its
//! remaining-time check before every step (§4.5) fix its steps until the
//! bubble closes, so its worker keeps them as a *deferred run*
//! ([`Worker::catch_up`]). A handler that changes the worker or its
//! device first catches the run up to `now` and puts what it still owes
//! back on the queue; handlers that only read step counts catch up and
//! leave the run deferred. Only `events_processed` and the order trace
//! events are emitted in differ from stepping event by event, given one
//! rule for ties: a touch on the nanosecond of a step boundary sees the
//! boundary applied first.
//!
//! Side tasks arrive **online**: each submission carries an arrival time,
//! and arrivals after t = 0 are simulation events that feed
//! [`SideTaskManager::submit`] mid-run — the task is placed by
//! Algorithm 1 against the bubbles that remain (or lands on the worker a
//! cluster [`PlacementPolicy`](crate::cluster::PlacementPolicy) pinned at
//! submission time). Submissions arriving after training finished are
//! recorded as rejected with [`SubmitError::ArrivedAfterShutdown`].
//!
//! A task has one way in and one way out. Up-front and arriving
//! submissions pass one admission ([`JobRuntime::admit`]: Algorithm 1
//! under the fault overlays). Every task, whether admitted, restored
//! when its crashed worker rejoins, migrated off a failing worker or
//! hedged, is then built by one spawn ([`JobRuntime::spawn`]) and
//! created when its `Create` command lands; each placed task keeps one
//! [`Source`] that rebuilds it. Results leave through one report:
//! [`execute_cluster`] returns each job's [`DeploymentReport`] with the
//! task handles resolved.

use crate::cluster::{Cluster, ClusterJob, JobSlot, Placement, PlacementPolicy};
use crate::config::{ColocationMode, FreeRideConfig, InterfaceKind};
use crate::deployment::{AcceptedSubmission, DeploymentReport, RejectedSubmission, Submission};
use crate::fault::{FaultEvent, FaultKind, RetryPolicy, SubmitOptions};
use crate::health::{
    HealthState, Recovery, RecoveryKind, Supervisor, HEARTBEAT_INTERVAL, HEDGE_INTERVAL,
};
use crate::manager::{ManagerCmd, SideTaskManager, SubmitError};
use crate::metrics::BubbleBreakdown;
use crate::state::SideTaskState;
use crate::task::{SideTask, StopReason, TaskId};
use crate::worker::{PendingStep, Worker, WorkerEffect};
use freeride_gpu::{GpuDevice, GpuId, MemBytes, ProcessId, SharingKind};
use freeride_obs::{
    ProfileCollector, ProfileReport, Subsystem, TraceEvent, TraceEventKind, TraceHandle,
};
use freeride_pipeline::{BubbleReport, EngineAction, PipelineConfig, PipelineEngine};
use freeride_sim::{
    DetRng, EventId, RunOutcome, Scheduler, SimDuration, SimTime, Simulation, TraceRecorder, World,
};
use freeride_tasks::{WorkloadProfile, WorkloadTag};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Restored tasks get fresh ids in a reserved high range so they can never
/// collide with submission-time ids (which count up from zero).
const RESTORE_ID_BASE: u64 = 1 << 63;

/// Outcome of one submitted task.
#[derive(Debug, Clone)]
pub struct TaskSummary {
    /// Task id.
    pub id: TaskId,
    /// Workload identity (built-in kind or custom name).
    pub kind: WorkloadTag,
    /// Worker (stage) it was assigned to.
    pub worker: usize,
    /// Steps completed.
    pub steps: u64,
    /// Final life-cycle state.
    pub final_state: SideTaskState,
    /// Why it stopped.
    pub stop_reason: StopReason,
    /// The workload's most recent progress metric, if it ever stepped.
    pub last_value: Option<f64>,
    /// The profile it ran under (batch-adjusted).
    pub profile: WorkloadProfile,
}

enum Msg {
    Bubble(BubbleReport),
    Cmd(ManagerCmd),
    Ack {
        worker: usize,
        task: TaskId,
        state: SideTaskState,
    },
    /// A worker daemon's liveness beacon to the supervisor (health
    /// subsystem; only sent when the job arms one).
    Heartbeat {
        worker: usize,
    },
}

impl Msg {
    /// The worker whose manager↔worker link carries the message; `None`
    /// for a bubble report, which travels trainer→manager.
    fn worker(&self) -> Option<usize> {
        match self {
            Msg::Bubble(_) => None,
            Msg::Cmd(cmd) => Some(cmd_worker(cmd)),
            Msg::Ack { worker, .. } | Msg::Heartbeat { worker } => Some(*worker),
        }
    }
}

enum Ev {
    LaunchOp(usize),
    EpochBoundary,
    DeviceTick(usize),
    /// A reported bubble's predicted end: Algorithm 2 pauses the task it
    /// served. The manager's other inputs (bubble reports, acks) poll it
    /// where they are delivered.
    ManagerPoll,
    Deliver(Msg),
    /// An online submission's arrival time was reached (index into
    /// `JobRuntime::arrivals`).
    Arrival(usize),
    InitDone {
        worker: usize,
        task: TaskId,
    },
    StepLaunch {
        worker: usize,
        task: TaskId,
    },
    GraceCheck {
        worker: usize,
        task: TaskId,
        requested_at: SimTime,
    },
    /// A scheduled fault fires (index into `JobRuntime::faults`).
    Fault(usize),
    /// A transient fault's window closes (index into `JobRuntime::faults`).
    FaultEnd(usize),
    /// Periodic side-task progress snapshot (checkpoint/restart).
    Checkpoint,
    /// A worker daemon's heartbeat emission is due (health subsystem).
    Heartbeat(usize),
    /// The supervisor re-evaluates every worker's suspicion score.
    HealthCheck,
    /// The supervisor scans for straggling side tasks to hedge.
    HedgeCheck,
}

/// A per-job event in the cluster-wide queue: the job index plus that
/// job's event alphabet. The cluster world dispatches on `job`, so jobs
/// interleave in virtual time but never share mutable state.
struct ClusterEv {
    job: usize,
    ev: Ev,
}

/// What a placed task is built from. Every incarnation of a submission
/// (restored, migrated or hedged) shares its source.
#[derive(Clone)]
struct Source {
    submission: Submission,
    /// The batch-adjusted profile it runs under.
    profile: WorkloadProfile,
    /// The submitted id: every incarnation's workload is built from its
    /// seed.
    root: TaskId,
}

/// An online submission waiting for its arrival event.
struct ArrivalSlot {
    id: TaskId,
    source: Source,
    /// Worker pinned by a cluster-level placement policy, if any; `None`
    /// defers to the job manager's Algorithm 1.
    pinned: Option<usize>,
    /// Retry middleware: a rejected arrival re-enters admission after an
    /// exponential backoff instead of being dropped.
    retry: Option<RetryPolicy>,
    /// Admission attempts already failed (drives the backoff exponent).
    attempt: u32,
}

/// A side task that died with its worker's daemon, remembered for
/// checkpoint/restart.
struct LostTask {
    /// The id the task ran under when it died.
    orig: TaskId,
    /// The worker it dies with (and is restored onto).
    worker: usize,
    /// Steps credited from the last checkpoint snapshot (progress since
    /// is lost — that is the cost the chaos bench measures).
    steps: u64,
    crashed_at: SimTime,
}

/// One training job's complete simulation state: pipeline engine, manager,
/// workers, devices, and bookkeeping — everything except the RPC latency
/// stream, which all jobs of the cluster share.
struct JobRuntime {
    /// This job's index in the cluster (tags every scheduled event).
    job: usize,
    cfg: FreeRideConfig,
    interface: InterfaceKind,
    devices: Vec<GpuDevice>,
    engine: PipelineEngine,
    manager: SideTaskManager,
    workers: Vec<Worker>,
    pending_create: BTreeMap<TaskId, SideTask>,
    pid_index: BTreeMap<ProcessId, (usize, TaskId)>,
    tick_ids: Vec<Option<EventId>>,
    /// Every task spawned in this run: its worker and its source.
    placed: BTreeMap<TaskId, (usize, Source)>,
    /// Spawned ids in spawn order: the report's task order.
    order: Vec<TaskId>,
    /// Online submissions not yet arrived.
    arrivals: Vec<Option<ArrivalSlot>>,
    /// Submissions that could not be placed in the run.
    late_rejected: Vec<RejectedSubmission>,
    /// Tasks already sent a `Stop` after training ended (suppresses
    /// duplicates when late acknowledgements race the shutdown).
    stop_sent: BTreeSet<TaskId>,
    trace: TraceRecorder,
    /// `gpu{g}.mem` per device, named once so recording does not format.
    mem_series: Vec<String>,
    bubble_total: SimDuration,
    bubble_unused: SimDuration,
    bubbles_reported: u64,
    training_done: bool,
    stops_issued: bool,
    /// Events delivered to this job (sums to the simulation total across
    /// the cluster).
    events_processed: u64,
    /// Reusable buffer for manager poll commands; Algorithm 2 runs on
    /// every bubble report, ack and bubble end, so it must not allocate.
    cmd_buf: Vec<ManagerCmd>,

    // --- chaos layer (all empty/`None` on the no-fault path) ---
    /// This job's scheduled fault events, in plan order.
    faults: Vec<FaultEvent>,
    /// Per-worker daemon-down windows (crash faults): submissions
    /// targeting the worker are rejected `WorkerDown` until this instant.
    down_until: Vec<Option<SimTime>>,
    /// Each worker's configured compute speed, restored when a straggler
    /// window closes.
    base_speeds: Vec<f64>,
    /// Open transient-OOM window on the admission plane, if any.
    oom_until: Option<SimTime>,
    /// Crash, straggler and spike faults whose window is open, in the
    /// order they opened.
    open_faults: Vec<usize>,
    /// Checkpoint/restart snapshot interval, when the mechanism is on.
    ckpt_interval: Option<SimDuration>,
    /// Last checkpointed steps per task.
    ckpt_steps: BTreeMap<TaskId, u64>,
    /// Tasks lost to a crashed daemon, awaiting its restart.
    lost: Vec<LostTask>,
    /// Restore chain: a lost task's id → the id it was re-admitted under.
    restored: BTreeMap<TaskId, TaskId>,
    /// Allocator for `RESTORE_ID_BASE`-range restore ids.
    next_restore_id: u64,
    /// Recovery log: task, first failure/crash → re-admission latency,
    /// and the mechanism that recovered it.
    recoveries: Vec<Recovery>,
    /// First retryable rejection per retried arrival (recovery latency
    /// numerator for the retry mechanism).
    first_failure: BTreeMap<TaskId, SimTime>,

    // --- health subsystem (all `None`/empty when no supervisor is armed) ---
    /// The job's supervision layer: failure detector + drain state.
    supervisor: Option<Supervisor>,
    /// Live hedge races: original task id → (speculative duplicate id,
    /// hedge launch time).
    hedges: BTreeMap<TaskId, (TaskId, SimTime)>,
    /// Losing incarnations to cancel with [`StopReason::HedgeLost`] when
    /// their Stop command lands.
    hedge_cancel: BTreeSet<TaskId>,
    /// Resolved hedge races: (original, duplicate, duplicate won).
    hedge_outcome: Vec<(TaskId, TaskId, bool)>,

    /// Sim-time trace sink, when the cluster armed one. `None` (the
    /// default) keeps every emission site a skipped branch: the fault-free
    /// untraced run is byte-for-byte the pre-observability one.
    tracer: Option<TraceHandle>,
}

impl JobRuntime {
    /// Wraps a job-local event for the cluster-wide queue.
    fn ev(&self, ev: Ev) -> ClusterEv {
        ClusterEv { job: self.job, ev }
    }

    /// Emits a trace event iff tracing is armed; `f` runs only then, so
    /// the disarmed path never allocates or formats.
    fn emit_with(&self, at: SimTime, worker: Option<usize>, f: impl FnOnce() -> TraceEventKind) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(TraceEvent {
                at,
                job: Some(self.job),
                worker,
                kind: f(),
            });
        }
    }

    fn is_freeride(&self) -> bool {
        matches!(self.cfg.mode, ColocationMode::FreeRide(_))
    }

    fn finished(&self) -> bool {
        self.training_done
            && self.pending_create.is_empty()
            && self.workers.iter().all(|w| !w.has_live_tasks())
    }

    /// Sends `msg`: its delivery is an event one [`Self::latency`] after
    /// `now`.
    fn send(&mut self, now: SimTime, msg: Msg, rpc: &mut DetRng, s: &mut Scheduler<'_, ClusterEv>) {
        let at = now + self.latency(&msg, rpc);
        let ev = self.ev(Ev::Deliver(msg));
        s.schedule_at(at, ev);
    }

    /// The one-way latency of `msg`, drawn from the shared stream `rpc`.
    /// While an RPC spike is open on the worker of a manager↔worker
    /// message, the latest-opened one fixes its latency; every other
    /// message samples this job's own `rpc_latency` and `rpc_jitter`.
    fn latency(&self, msg: &Msg, rpc: &mut DetRng) -> SimDuration {
        let spike = msg.worker().and_then(|w| {
            self.open_faults
                .iter()
                .rev()
                .find_map(|&i| match self.faults[i].kind {
                    FaultKind::RpcSpike {
                        worker, latency, ..
                    } if worker == w => Some(latency),
                    _ => None,
                })
        });
        let (base, jitter) = match spike {
            Some(latency) => (latency, 0.0),
            None => (self.cfg.rpc_latency, self.cfg.rpc_jitter),
        };
        rpc_latency(base, jitter, rpc)
    }

    /// Readies worker `wi` for a handler that changes it or its device:
    /// catches its deferred run up to `now` and puts what the run still
    /// owes back on the queue, so the handler meets the state stepping
    /// event by event would have left. Step boundaries at `now` itself
    /// are applied first, whatever order their events would have been
    /// queued in.
    fn touch(&mut self, now: SimTime, wi: usize, s: &mut Scheduler<'_, ClusterEv>) {
        self.workers[wi].catch_up(now, &mut self.devices[wi]);
        match self.workers[wi].undefer() {
            Some(PendingStep::Launch(task, at)) => {
                let ev = self.ev(Ev::StepLaunch { worker: wi, task });
                s.schedule_at(at, ev);
            }
            Some(PendingStep::InFlight) => self.resync_device(wi, s),
            None => {}
        }
    }

    /// Catches every worker's deferred run up to `now` and leaves it
    /// deferred: for handlers that only read step counts.
    fn catch_up_all(&mut self, now: SimTime) {
        for (worker, device) in self.workers.iter_mut().zip(&mut self.devices) {
            worker.catch_up(now, device);
        }
    }

    fn resync_device(&mut self, g: usize, s: &mut Scheduler<'_, ClusterEv>) {
        if let Some(id) = self.tick_ids[g].take() {
            s.cancel(id);
        }
        if let Some(t) = self.devices[g].next_completion_time() {
            let ev = self.ev(Ev::DeviceTick(g));
            self.tick_ids[g] = Some(s.schedule_at(t, ev));
        }
    }

    /// Dispatches every completion device `g` owes at or before `now`:
    /// pipeline ops to the engine, side-task steps to their worker. The
    /// body of `Ev::DeviceTick`, also used to settle a device before a
    /// fault rewrites its state. Callers resync the tick afterwards.
    fn drain_device(
        &mut self,
        now: SimTime,
        g: usize,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let completions = self.devices[g].advance_through(now);
        for c in completions {
            if self.engine.stage_of_pid(c.process).is_some() {
                let actions = self.engine.on_op_complete(now, g);
                self.apply_engine_actions(now, actions, rpc, s);
            } else if let Some(&(wi, task)) = self.pid_index.get(&c.process) {
                let fx = self.workers[wi].on_step_complete(now, task, &mut self.devices[wi]);
                self.apply_worker_effects(now, wi, fx, rpc, s);
            }
        }
    }

    fn record_device(&mut self, now: SimTime, g: usize) {
        let mem = self.devices[g].used_mem().as_gib_f64();
        self.trace.record(&self.mem_series[g], now, mem);
    }

    fn apply_engine_actions(
        &mut self,
        now: SimTime,
        actions: Vec<EngineAction>,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        for a in actions {
            match a {
                EngineAction::ScheduleLaunch { stage, at } => {
                    let ev = self.ev(Ev::LaunchOp(stage));
                    s.schedule_at(at, ev);
                }
                EngineAction::ScheduleEpochBoundary { at } => {
                    let ev = self.ev(Ev::EpochBoundary);
                    s.schedule_at(at, ev);
                }
                EngineAction::BubbleStart(r) => {
                    self.emit_with(now, Some(r.stage), || TraceEventKind::BubbleBegin);
                    if self.is_freeride() {
                        self.send(now, Msg::Bubble(r), rpc, s);
                    }
                }
                EngineAction::BubbleEnd { stage, at } => {
                    self.emit_with(at, Some(stage), || TraceEventKind::BubbleEnd);
                }
                EngineAction::EpochEnd { epoch, at } => {
                    self.emit_with(at, None, || TraceEventKind::EpochEnd { epoch });
                }
                EngineAction::TrainingDone { .. } => {
                    self.training_done = true;
                    self.emit_with(now, None, || TraceEventKind::TrainingDone);
                    self.issue_stops(now, rpc, s);
                }
            }
        }
    }

    fn issue_stops(&mut self, now: SimTime, rpc: &mut DetRng, s: &mut Scheduler<'_, ClusterEv>) {
        if self.stops_issued {
            return;
        }
        self.stops_issued = true;
        // Settle hedge races before the stops go out, so a losing
        // incarnation's Stop lands as a hedge cancellation.
        self.resolve_hedges(now);
        let cmds = if self.is_freeride() {
            self.manager.stop_all()
        } else {
            // Baselines: stop every live task directly.
            let mut stops = Vec::new();
            for (wi, w) in self.workers.iter().enumerate() {
                for t in w.tasks() {
                    if !t.is_stopped() {
                        stops.push(ManagerCmd::Stop {
                            worker: wi,
                            task: t.id,
                        });
                    }
                }
            }
            // Tasks still awaiting creation never start.
            self.pending_create.clear();
            stops
        };
        for cmd in cmds {
            if let ManagerCmd::Stop { task, .. } = cmd {
                self.stop_sent.insert(task);
            }
            self.send(now, Msg::Cmd(cmd), rpc, s);
        }
    }

    /// A task acknowledged a non-stopped state after training already
    /// ended (an online arrival racing the shutdown): stop it now so the
    /// run drains.
    fn stop_straggler(
        &mut self,
        now: SimTime,
        worker: usize,
        task: TaskId,
        state: SideTaskState,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) -> bool {
        if !self.stops_issued || state == SideTaskState::Stopped || !self.stop_sent.insert(task) {
            return false;
        }
        self.send(now, Msg::Cmd(ManagerCmd::Stop { worker, task }), rpc, s);
        true
    }

    /// Runs Algorithm 2 and sends its commands. Only FreeRide jobs get
    /// here: baselines report no bubbles and send the manager no acks.
    fn run_manager_poll(
        &mut self,
        now: SimTime,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        cmds.clear();
        self.manager.poll_into(now, &mut cmds);
        for cmd in cmds.drain(..) {
            self.send(now, Msg::Cmd(cmd), rpc, s);
        }
        self.cmd_buf = cmds;
    }

    /// Whether `worker`'s side-task daemon is inside a crash window.
    fn worker_down(&self, now: SimTime, worker: usize) -> bool {
        self.down_until[worker].is_some_and(|t| now < t)
    }

    /// Whether the supervisor has drained `worker` (Suspect or Dead): the
    /// admission plane routes around it until a heartbeat restores it.
    fn drained(&self, worker: usize) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(|s| s.is_drained(worker))
    }

    /// Admits task `id` for an up-front or arriving submission: Algorithm
    /// 1 with the chaos overlays layered on it. A transient-OOM window
    /// rejects outright, downed workers reject `WorkerDown`, workers
    /// `policy` blocks reject `CircuitOpen`, and unpinned submissions
    /// route around both. With no fault in force and no worker blocked
    /// (so at t = 0 under every stock policy) this is exactly
    /// [`SideTaskManager::submit`], or [`SideTaskManager::submit_to`] when
    /// `pinned`.
    fn admit(
        &mut self,
        now: SimTime,
        id: TaskId,
        mem: MemBytes,
        pinned: Option<usize>,
        policy: &dyn PlacementPolicy,
    ) -> Result<(usize, ManagerCmd), SubmitError> {
        if self.oom_until.is_some_and(|t| now < t) {
            // The allocator is transiently exhausted cluster-side: no
            // worker can host anything until the window closes.
            return Err(SubmitError::InsufficientMemory {
                needed: mem,
                best_worker_free: MemBytes::ZERO,
            });
        }
        if let Some(w) = pinned {
            if self.worker_down(now, w) || self.drained(w) {
                return Err(SubmitError::WorkerDown { worker: w });
            }
            if policy.blocks(now, self.job, w) {
                return Err(SubmitError::CircuitOpen { worker: w });
            }
            return self.manager.submit_to(id, mem, w);
        }
        let blocked: Vec<bool> = (0..self.workers.len())
            .map(|w| self.worker_down(now, w) || self.drained(w) || policy.blocks(now, self.job, w))
            .collect();
        if !blocked.iter().any(|&b| b) {
            return self.manager.submit(id, mem);
        }
        if let Some(w) = self.manager.select_worker(mem, &blocked) {
            return Ok((w, self.manager.admit_to(id, mem, w)));
        }
        // Nothing placeable. If a blocked worker would have fit, name the
        // fault that blocked it; otherwise it is a plain capacity miss.
        for (w, &b) in blocked.iter().enumerate() {
            if b && self.manager.worker(w).gpu_mem > mem {
                return Err(if self.worker_down(now, w) || self.drained(w) {
                    SubmitError::WorkerDown { worker: w }
                } else {
                    SubmitError::CircuitOpen { worker: w }
                });
            }
        }
        Err(SubmitError::InsufficientMemory {
            needed: mem,
            best_worker_free: self.manager.best_worker_free(),
        })
    }

    /// Builds task `id` from `source` for `worker`, credited `steps`; the
    /// worker creates it when its `Create` command lands. The one way a
    /// task reaches a worker, whether it was submitted up front, arrived,
    /// or is restored, migrated or hedged.
    fn spawn(&mut self, now: SimTime, id: TaskId, worker: usize, source: Source, steps: u64) {
        let sub = &source.submission;
        let workload = sub.build_workload(self.cfg.seed ^ source.root.0);
        let mut task = SideTask::new(
            id,
            sub.tag().clone(),
            source.profile,
            self.interface,
            workload,
            now,
        )
        .with_misbehavior(sub.misbehavior());
        task.steps = steps;
        self.pending_create.insert(id, task);
        self.order.push(id);
        self.placed.insert(id, (worker, source));
    }

    fn handle_arrival(
        &mut self,
        now: SimTime,
        idx: usize,
        rpc: &mut DetRng,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let Some(slot) = self.arrivals[idx].take() else {
            return;
        };
        if self.stops_issued || self.training_done {
            self.late_rejected.push(RejectedSubmission {
                submission: slot.source.submission,
                error: SubmitError::ArrivedAfterShutdown { arrival: now },
            });
            return;
        }
        let mem = slot.source.profile.gpu_mem;
        match self.admit(now, slot.id, mem, slot.pinned, policy) {
            Ok((w, cmd)) => {
                // A retried arrival landing at last closes its recovery
                // window (first rejection → successful admission).
                if let Some(first) = self.first_failure.remove(&slot.id) {
                    self.recoveries.push(Recovery {
                        task: slot.id,
                        latency: now.saturating_since(first),
                        kind: RecoveryKind::Resubmit,
                    });
                    self.emit_with(now, Some(w), || TraceEventKind::Recovery {
                        task: slot.id.0,
                        kind: RecoveryKind::Resubmit.label(),
                    });
                }
                policy.on_outcome(
                    now,
                    Placement::Worker {
                        job: self.job,
                        worker: w,
                    },
                    true,
                );
                self.emit_with(now, Some(w), || TraceEventKind::TaskAdmitted {
                    task: slot.id.0,
                    name: slot.source.submission.tag().name().to_string(),
                });
                self.emit_with(now, Some(w), || TraceEventKind::Placement {
                    task: Some(slot.id.0),
                    accepted: true,
                    detail: format!("worker{w}"),
                });
                self.spawn(now, slot.id, w, slot.source, 0);
                self.send(now, Msg::Cmd(cmd), rpc, s);
            }
            Err(e) => {
                self.emit_with(now, slot.pinned, || TraceEventKind::Placement {
                    task: Some(slot.id.0),
                    accepted: false,
                    detail: e.kind().to_string(),
                });
                let failed_worker = match &e {
                    SubmitError::WorkerDown { worker } | SubmitError::CircuitOpen { worker } => {
                        Some(*worker)
                    }
                    _ => slot.pinned,
                };
                if let Some(w) = failed_worker {
                    policy.on_outcome(
                        now,
                        Placement::Worker {
                            job: self.job,
                            worker: w,
                        },
                        false,
                    );
                }
                match slot.retry {
                    Some(rp) if slot.attempt < rp.max_attempts && rp.retryable(&e) => {
                        self.first_failure.entry(slot.id).or_insert(now);
                        let backoff = rp.backoff(slot.attempt);
                        let mut slot = slot;
                        slot.attempt += 1;
                        self.arrivals[idx] = Some(slot);
                        let ev = self.ev(Ev::Arrival(idx));
                        s.schedule_after(backoff, ev);
                    }
                    _ => self.late_rejected.push(RejectedSubmission {
                        submission: slot.source.submission,
                        error: e,
                    }),
                }
            }
        }
    }

    /// A scheduled fault fires.
    fn handle_fault(
        &mut self,
        now: SimTime,
        idx: usize,
        rpc: &mut DetRng,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let fault = self.faults[idx].kind;
        if let Some(w) = fault.worker() {
            self.touch(now, w, s);
        }
        self.emit_with(now, fault.worker(), || TraceEventKind::FaultBegin {
            fault: fault.label(),
        });
        let overlapping = self.open_window_like(&fault).is_some();
        if fault.worker().is_some() {
            self.open_faults.push(idx);
        }
        match fault {
            FaultKind::WorkerCrash { worker, down_for } if overlapping => {
                // The daemon is already down: the later window only
                // extends the outage.
                self.down_until[worker] = self.down_until[worker].max(Some(now + down_for));
            }
            FaultKind::WorkerCrash { worker, down_for } => {
                // Settle the device up to the crash instant, then take
                // every live side task down with the daemon. Training is
                // untouched: the crash models the side-task daemon dying,
                // not the GPU or the pipeline rank.
                self.drain_device(now, worker, rpc, s);
                let killed = self.workers[worker].crash(now, &mut self.devices[worker]);
                let forgotten = self.manager.on_worker_crash(worker);
                // Tasks placed on the worker whose Create RPC had not
                // landed yet die in flight too.
                let mut gone = killed;
                for id in forgotten {
                    if self.pending_create.remove(&id).is_some() && !gone.contains(&id) {
                        gone.push(id);
                    }
                }
                if self.ckpt_interval.is_some() {
                    for &id in &gone {
                        self.lost.push(LostTask {
                            orig: id,
                            worker,
                            steps: self.ckpt_steps.get(&id).copied().unwrap_or(0),
                            crashed_at: now,
                        });
                    }
                }
                self.down_until[worker] = Some(now + down_for);
                // Ground truth for the detector's time-to-detect metric:
                // the supervisor learns of the crash only via missing
                // heartbeats.
                if let Some(sup) = &mut self.supervisor {
                    sup.note_crash(now, worker);
                }
                policy.on_outcome(
                    now,
                    Placement::Worker {
                        job: self.job,
                        worker,
                    },
                    false,
                );
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
            FaultKind::Straggler {
                worker,
                factor,
                duration: _,
            } => {
                self.drain_device(now, worker, rpc, s);
                let slow = self.base_speeds[worker] * factor;
                self.devices[worker].set_compute_speed(now, slow);
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
            FaultKind::OomWindow { duration } => {
                let end = now + duration;
                self.oom_until = Some(self.oom_until.map_or(end, |t| t.max(end)));
            }
            FaultKind::RpcSpike { .. } => {
                // Now in `open_faults`: the worker's manager↔worker
                // messages pay the spike (`JobRuntime::latency`).
            }
        }
    }

    /// The latest-opened fault window still open with `fault`'s kind on
    /// `fault`'s worker, if any.
    fn open_window_like(&self, fault: &FaultKind) -> Option<FaultKind> {
        self.open_faults
            .iter()
            .rev()
            .map(|&i| self.faults[i].kind)
            .find(|k| k.label() == fault.label() && k.worker() == fault.worker())
    }

    /// A transient fault's window closes: restore the degraded resource
    /// and, under checkpoint/restart, re-admit the tasks a crashed daemon
    /// took down. While another window of the same kind is open on the
    /// worker, the worker stays degraded, under the latest-opened one.
    fn handle_fault_end(
        &mut self,
        now: SimTime,
        idx: usize,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let fault = self.faults[idx].kind;
        if let Some(w) = fault.worker() {
            self.touch(now, w, s);
        }
        self.emit_with(now, fault.worker(), || TraceEventKind::FaultEnd {
            fault: fault.label(),
        });
        self.open_faults.retain(|&i| i != idx);
        let still_open = self.open_window_like(&fault);
        match fault {
            FaultKind::Straggler { worker, .. } => {
                self.drain_device(now, worker, rpc, s);
                let base = self.base_speeds[worker];
                let speed = match still_open {
                    Some(FaultKind::Straggler { factor, .. }) => base * factor,
                    _ => base,
                };
                self.devices[worker].set_compute_speed(now, speed);
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
            FaultKind::WorkerCrash { .. } if still_open.is_some() => {
                // Another crash window keeps the daemon down.
            }
            FaultKind::WorkerCrash { worker, .. } => {
                self.down_until[worker] = None;
                if self.ckpt_interval.is_some() && !self.stops_issued && !self.training_done {
                    self.respawn_lost(now, worker, RecoveryKind::Rejoin, rpc, s);
                }
            }
            FaultKind::RpcSpike { .. } | FaultKind::OomWindow { .. } => {
                // Nothing to restore: `latency` reads the spikes left in
                // `open_faults`, and `oom_until` bounds an OOM window.
            }
        }
    }

    /// Re-admits every checkpointed task lost with `from`'s daemon under a
    /// fresh restore-range id, resuming from its last snapshot. On a
    /// rejoin it returns to `from`, where it fit before the crash. On a
    /// migration it moves to the least-loaded healthy host, ties toward
    /// the lower index; a task with no host stays lost until the rejoin.
    fn respawn_lost(
        &mut self,
        now: SimTime,
        from: usize,
        kind: RecoveryKind,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let (lost, kept): (Vec<LostTask>, Vec<LostTask>) = std::mem::take(&mut self.lost)
            .into_iter()
            .partition(|l| l.worker == from);
        self.lost = kept;
        for l in lost {
            let source = self.placed[&l.orig].1.clone();
            let mem = source.profile.gpu_mem;
            let target = if kind == RecoveryKind::Migration {
                let least_loaded = self
                    .hosts(mem, from, now)
                    .min_by_key(|&w| self.manager.worker(w).task_count());
                let Some(w) = least_loaded else {
                    self.lost.push(l);
                    continue;
                };
                if let Some(sup) = &mut self.supervisor {
                    sup.record_migration();
                }
                w
            } else {
                from
            };
            let id = TaskId(RESTORE_ID_BASE | self.next_restore_id);
            self.next_restore_id += 1;
            let cmd = self.manager.admit_to(id, mem, target);
            self.spawn(now, id, target, source, l.steps);
            self.restored.insert(l.orig, id);
            self.ckpt_steps.insert(id, l.steps);
            self.recoveries.push(Recovery {
                task: l.orig,
                latency: now.saturating_since(l.crashed_at),
                kind,
            });
            self.emit_with(now, Some(target), || TraceEventKind::Recovery {
                task: l.orig.0,
                kind: kind.label(),
            });
            self.send(now, Msg::Cmd(cmd), rpc, s);
        }
    }

    /// The healthy workers other than `exclude` (neither down nor
    /// drained) whose bubble memory fits `needed`, in index order.
    fn hosts(
        &self,
        needed: MemBytes,
        exclude: usize,
        now: SimTime,
    ) -> impl Iterator<Item = usize> + '_ {
        (0..self.workers.len()).filter(move |&w| {
            w != exclude
                && !self.worker_down(now, w)
                && !self.drained(w)
                && self.manager.worker(w).gpu_mem > needed
        })
    }

    /// The last incarnation of task `id`, following its restore chain.
    fn tail(&self, mut id: TaskId) -> TaskId {
        while let Some(&next) = self.restored.get(&id) {
            id = next;
        }
        id
    }

    /// Periodic checkpoint snapshot: record every live task's step count
    /// so a later crash restores from here rather than from zero.
    fn handle_checkpoint(&mut self, now: SimTime, s: &mut Scheduler<'_, ClusterEv>) {
        let Some(interval) = self.ckpt_interval else {
            return;
        };
        if self.finished() {
            return; // run is draining — stop rescheduling
        }
        self.catch_up_all(now);
        let mut snapped: u64 = 0;
        for w in &self.workers {
            for t in w.tasks() {
                if !t.is_stopped() {
                    self.ckpt_steps.insert(t.id, t.steps);
                    snapped += 1;
                }
            }
        }
        self.emit_with(now, None, || TraceEventKind::Checkpoint { tasks: snapped });
        let ev = self.ev(Ev::Checkpoint);
        s.schedule_after(interval, ev);
    }

    /// A worker daemon's heartbeat emission is due. A downed daemon stays
    /// silent (the whole point of the detector); a straggling one emits
    /// proportionally slower, so the suspicion score rises with the
    /// slowdown. The beacon is an RPC message, so `rpc_spike` latency
    /// delays its delivery and perturbs the score too.
    fn handle_heartbeat(
        &mut self,
        now: SimTime,
        worker: usize,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        if self.supervisor.is_none() || self.finished() {
            return; // chain dies with the run, so the sim can drain
        }
        if !self.worker_down(now, worker) {
            self.send(now, Msg::Heartbeat { worker }, rpc, s);
        }
        let base = self.base_speeds[worker];
        let speed = self.devices[worker].compute_speed();
        let next = if speed < base {
            SimDuration::from_secs_f64(HEARTBEAT_INTERVAL.as_secs_f64() * base / speed)
        } else {
            HEARTBEAT_INTERVAL
        };
        let ev = self.ev(Ev::Heartbeat(worker));
        s.schedule_after(next, ev);
    }

    /// The supervisor re-evaluates every worker's suspicion score. A
    /// worker turning Suspect (when configured) or Dead gets its
    /// checkpointed lost tasks migrated to healthy workers immediately.
    fn handle_health_check(
        &mut self,
        now: SimTime,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        if self.finished() {
            return;
        }
        let Some(sup) = &mut self.supervisor else {
            return;
        };
        let transitions = sup.check(now);
        let migrate_on_suspect = sup.cfg().migrate_on_suspect;
        for tr in transitions {
            self.emit_with(now, Some(tr.worker), || TraceEventKind::Health {
                from: tr.from.label(),
                to: tr.to.label(),
            });
            let evict = match tr.to {
                HealthState::Suspect => migrate_on_suspect,
                HealthState::Dead => true,
                HealthState::Healthy => false,
            };
            if evict && self.ckpt_interval.is_some() && !self.stops_issued && !self.training_done {
                self.respawn_lost(now, tr.worker, RecoveryKind::Migration, rpc, s);
            }
        }
        let ev = self.ev(Ev::HealthCheck);
        s.schedule_after(HEARTBEAT_INTERVAL, ev);
    }

    /// The supervisor scans for straggling side tasks to hedge.
    fn handle_hedge_check(
        &mut self,
        now: SimTime,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let Some(sup) = &self.supervisor else {
            return;
        };
        let Some(threshold) = sup.cfg().hedge_threshold else {
            return;
        };
        if self.finished() {
            return;
        }
        if !self.stops_issued && !self.training_done {
            self.hedge_laggards(now, threshold, rpc, s);
        }
        let ev = self.ev(Ev::HedgeCheck);
        s.schedule_after(HEDGE_INTERVAL, ev);
    }

    /// Straggler hedging: find live side tasks whose progress fell below
    /// `threshold` of the fleet median and launch a speculative duplicate
    /// of each on the fastest healthy worker. First completion wins; the
    /// loser is cancelled with [`StopReason::HedgeLost`].
    fn hedge_laggards(
        &mut self,
        now: SimTime,
        threshold: f64,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        self.catch_up_all(now);
        // Progress of every live, original-id task (restored incarnations
        // and duplicates sit in the reserved high id range and never
        // trigger a second hedge).
        let mut progress: Vec<(TaskId, usize, u64)> = Vec::new();
        for (wi, w) in self.workers.iter().enumerate() {
            for t in w.tasks() {
                if t.is_stopped() || t.id.0 >= RESTORE_ID_BASE {
                    continue;
                }
                progress.push((t.id, wi, t.steps));
            }
        }
        if progress.len() < 2 {
            return; // a median needs a fleet to lag behind
        }
        let mut steps: Vec<u64> = progress.iter().map(|p| p.2).collect();
        steps.sort_unstable();
        let median = steps[steps.len() / 2];
        if median == 0 {
            return;
        }
        let cut = threshold * median as f64;
        progress.sort_unstable_by_key(|p| p.0); // deterministic hedge order
        for (id, wi, st) in progress {
            if (st as f64) >= cut || self.hedges.contains_key(&id) {
                continue;
            }
            let source = self.placed[&id].1.clone();
            let mem = source.profile.gpu_mem;
            // The fastest healthy host, then the least loaded, then the
            // lower index: the deterministic tie-break hedge races
            // resolve by.
            let fastest = self.hosts(mem, wi, now).min_by(|&a, &b| {
                let speed = |w: usize| self.devices[w].compute_speed();
                let load = |w: usize| self.manager.worker(w).task_count();
                speed(b).total_cmp(&speed(a)).then(load(a).cmp(&load(b)))
            });
            let Some(target) = fastest else {
                continue; // no healthy worker to speculate on
            };
            let dup = TaskId(RESTORE_ID_BASE | self.next_restore_id);
            self.next_restore_id += 1;
            let cmd = self.manager.admit_to(dup, mem, target);
            // The duplicate reruns the same workload (same root seed) from
            // step zero: speculation, not checkpoint resumption.
            self.spawn(now, dup, target, source, 0);
            self.hedges.insert(id, (dup, now));
            self.send(now, Msg::Cmd(cmd), rpc, s);
        }
    }

    /// Settles every open hedge race at shutdown: the incarnation with
    /// more harvested steps wins (a real completion beats a lost one by
    /// construction — a dead incarnation stopped accruing); ties break
    /// toward the lower worker index. The loser's Stop is downgraded to a
    /// hedge cancellation.
    fn resolve_hedges(&mut self, now: SimTime) {
        if self.hedges.is_empty() {
            return;
        }
        self.catch_up_all(now);
        let hedges = std::mem::take(&mut self.hedges);
        for (&orig, &(dup, launched)) in &hedges {
            let o_cur = self.tail(orig);
            let d_cur = self.tail(dup);
            let o_w = self.placed[&o_cur].0;
            let d_w = self.placed[&d_cur].0;
            let live_steps =
                |cur: TaskId, w: usize| self.workers[w].task(cur).map(|t| t.steps).unwrap_or(0);
            let o_steps = live_steps(o_cur, o_w);
            let d_steps = live_steps(d_cur, d_w);
            let dup_won = d_steps > o_steps || (d_steps == o_steps && d_w < o_w);
            self.hedge_cancel
                .insert(if dup_won { o_cur } else { d_cur });
            self.hedge_outcome.push((orig, dup, dup_won));
            if dup_won {
                self.recoveries.push(Recovery {
                    task: orig,
                    latency: now.saturating_since(launched),
                    kind: RecoveryKind::Hedge,
                });
                self.emit_with(now, Some(d_w), || TraceEventKind::Recovery {
                    task: orig.0,
                    kind: RecoveryKind::Hedge.label(),
                });
            }
        }
        self.hedges = hedges;
    }

    fn apply_worker_effects(
        &mut self,
        now: SimTime,
        worker: usize,
        effects: Vec<WorkerEffect>,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        for e in effects {
            match e {
                WorkerEffect::Ack { task, state } => {
                    if self.is_freeride() {
                        let ack = Msg::Ack {
                            worker,
                            task,
                            state,
                        };
                        self.send(now, ack, rpc, s);
                    } else if !self.stop_straggler(now, worker, task, state, rpc, s) {
                        // Baselines have no manager loop: drive the task
                        // straight through Init and then run it
                        // continuously (an infinite "bubble").
                        let next = match state {
                            SideTaskState::Created => Some(ManagerCmd::Init { worker, task }),
                            SideTaskState::Paused => Some(ManagerCmd::Start {
                                worker,
                                task,
                                bubble_end: SimTime::MAX,
                            }),
                            _ => None,
                        };
                        if let Some(cmd) = next {
                            self.send(now, Msg::Cmd(cmd), rpc, s);
                        }
                    }
                }
                WorkerEffect::ScheduleInitDone { task, at } => {
                    let ev = self.ev(Ev::InitDone { worker, task });
                    s.schedule_at(at, ev);
                }
                WorkerEffect::ScheduleStepLaunch { task, at } => {
                    // A lone well-behaved step's successors follow by
                    // arithmetic until the bubble closes: the worker
                    // computes them when something touches it.
                    if !self.workers[worker].defer(task, at, &self.devices[worker]) {
                        let ev = self.ev(Ev::StepLaunch { worker, task });
                        s.schedule_at(at, ev);
                    }
                }
                WorkerEffect::ScheduleGraceCheck {
                    task,
                    at,
                    requested_at,
                } => {
                    let ev = self.ev(Ev::GraceCheck {
                        worker,
                        task,
                        requested_at,
                    });
                    s.schedule_at(at, ev);
                }
            }
        }
    }

    fn handle_cmd(
        &mut self,
        now: SimTime,
        cmd: ManagerCmd,
        rpc: &mut DetRng,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let wi = cmd_worker(&cmd);
        self.touch(now, wi, s);
        // A command racing a daemon crash: the task died with its worker's
        // daemon, so the in-flight RPC is void. (Never fires on fault-free
        // runs — `WorkerLost` is only ever set by a crash fault.)
        if self.workers[wi]
            .task(cmd_task(&cmd))
            .is_some_and(|t| t.stop_reason == StopReason::WorkerLost)
        {
            return;
        }
        self.emit_with(now, Some(wi), || TraceEventKind::Command {
            task: cmd_task(&cmd).0,
            cmd: cmd.label(),
        });
        let effects = match cmd {
            ManagerCmd::Create { task, .. } => {
                let Some(obj) = self.pending_create.remove(&task) else {
                    return; // run ended before creation
                };
                let fx = self.workers[wi].handle_create(now, obj, &mut self.devices[wi]);
                if let Some(pid) = self.workers[wi].task(task).and_then(|t| t.pid) {
                    self.pid_index.insert(pid, (wi, task));
                }
                fx
            }
            ManagerCmd::Init { task, .. } => {
                self.workers[wi].handle_init(now, task, &mut self.devices[wi])
            }
            ManagerCmd::Start {
                task, bubble_end, ..
            } => self.workers[wi].handle_start(now, task, bubble_end, &mut self.devices[wi]),
            ManagerCmd::Pause { task, .. } => {
                self.workers[wi].handle_pause(now, task, &mut self.devices[wi])
            }
            ManagerCmd::Stop { task, .. } => {
                if self.hedge_cancel.contains(&task) {
                    self.workers[wi].cancel(now, task, &mut self.devices[wi])
                } else {
                    self.workers[wi].handle_stop(now, task, &mut self.devices[wi])
                }
            }
        };
        self.apply_worker_effects(now, wi, effects, rpc, s);
        self.resync_device(wi, s);
        self.record_device(now, wi);
    }

    /// One job's event dispatch — the body of the pre-cluster
    /// `World::handle`, with the shared RPC latency stream threaded in.
    fn handle_ev(
        &mut self,
        now: SimTime,
        event: Ev,
        rpc: &mut DetRng,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        match event {
            Ev::LaunchOp(stage) => {
                self.touch(now, stage, s);
                let actions = self.engine.launch_due(now, stage, &mut self.devices);
                self.apply_engine_actions(now, actions, rpc, s);
                self.resync_device(stage, s);
                self.record_device(now, stage);
            }
            Ev::EpochBoundary => {
                let actions = self.engine.epoch_boundary(now);
                self.apply_engine_actions(now, actions, rpc, s);
            }
            Ev::DeviceTick(g) => {
                self.tick_ids[g] = None;
                self.touch(now, g, s);
                self.drain_device(now, g, rpc, s);
                self.resync_device(g, s);
                self.record_device(now, g);
            }
            Ev::ManagerPoll => self.run_manager_poll(now, rpc, s),
            Ev::Arrival(idx) => self.handle_arrival(now, idx, rpc, policy, s),
            Ev::Fault(idx) => self.handle_fault(now, idx, rpc, policy, s),
            Ev::FaultEnd(idx) => self.handle_fault_end(now, idx, rpc, s),
            Ev::Checkpoint => self.handle_checkpoint(now, s),
            Ev::Heartbeat(w) => self.handle_heartbeat(now, w, rpc, s),
            Ev::HealthCheck => self.handle_health_check(now, rpc, s),
            Ev::HedgeCheck => self.handle_hedge_check(now, rpc, s),
            Ev::Deliver(msg) => match msg {
                Msg::Bubble(r) => {
                    self.bubbles_reported += 1;
                    self.bubble_total += r.duration;
                    let meta = self.manager.worker(r.stage);
                    let has_assignee = meta.task_count() > 0;
                    let live = has_assignee
                        && (self.workers[r.stage].has_live_tasks()
                            || !self.pending_create.is_empty());
                    if !live {
                        self.bubble_unused += r.duration;
                    }
                    self.manager.add_bubble(r.stage, r);
                    self.run_manager_poll(now, rpc, s);
                    // Pause promptly when the bubble expires.
                    let ev = self.ev(Ev::ManagerPoll);
                    s.schedule_at(r.predicted_end().max(now), ev);
                }
                Msg::Cmd(cmd) => self.handle_cmd(now, cmd, rpc, s),
                Msg::Ack {
                    worker,
                    task,
                    state,
                } => {
                    self.emit_with(now, Some(worker), || TraceEventKind::TaskState {
                        task: task.0,
                        state: state.label(),
                    });
                    self.manager.on_task_state(worker, task, state);
                    self.stop_straggler(now, worker, task, state, rpc, s);
                    self.run_manager_poll(now, rpc, s);
                }
                Msg::Heartbeat { worker } => {
                    if let Some(sup) = &mut self.supervisor {
                        sup.on_heartbeat(now, worker);
                    }
                }
            },
            Ev::InitDone { worker, task } => {
                let fx = self.workers[worker].init_done(now, task);
                self.apply_worker_effects(now, worker, fx, rpc, s);
            }
            Ev::StepLaunch { worker, task } => {
                let fx = self.workers[worker].step_launch_due(now, task, &mut self.devices[worker]);
                self.apply_worker_effects(now, worker, fx, rpc, s);
                self.resync_device(worker, s);
            }
            Ev::GraceCheck {
                worker,
                task,
                requested_at,
            } => {
                self.touch(now, worker, s);
                let fx = self.workers[worker].grace_check(
                    now,
                    task,
                    requested_at,
                    &mut self.devices[worker],
                );
                self.apply_worker_effects(now, worker, fx, rpc, s);
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
        }
    }

    /// This job's report once the run drained. Every charged step is
    /// computed first, on every task (restore predecessors and hedge
    /// losers too), so each workload ends having run exactly its charged
    /// steps. A restored task is summarised once, from the tail of its
    /// restore chain, under the id its submitter knows, and each accepted
    /// submission's handle resolves to its summary.
    fn report(mut self, accepted: &[AcceptedSubmission]) -> DeploymentReport {
        assert!(self.engine.is_done(), "training must complete");
        assert!(self.finished(), "all tasks must stop");
        for w in &mut self.workers {
            w.settle();
        }
        let restore_ids: BTreeSet<TaskId> = self.restored.values().copied().collect();
        let mut tasks = Vec::new();
        for &id in &self.order {
            if restore_ids.contains(&id) {
                continue; // summarised under its original id
            }
            let (worker, source) = &self.placed[&id];
            let tail = self.tail(id);
            let tail_worker = self.placed[&tail].0;
            let kind = source.submission.tag().clone();
            let profile = source.profile;
            tasks.push(match self.workers[tail_worker].task(tail) {
                Some(t) => TaskSummary {
                    id,
                    kind,
                    worker: tail_worker,
                    steps: t.steps,
                    final_state: t.state(),
                    stop_reason: t.stop_reason,
                    last_value: t.last_value,
                    profile,
                },
                // Placed, but training ended before the Create RPC
                // landed (online arrival racing the shutdown, or a task
                // lost to a crash and never restored): never
                // materialised.
                None => TaskSummary {
                    id,
                    kind,
                    worker: *worker,
                    steps: 0,
                    final_state: SideTaskState::Submitted,
                    stop_reason: StopReason::NotStopped,
                    last_value: None,
                    profile,
                },
            });
        }
        // Ids count up in submission order, so `accepted` is sorted by id.
        for t in &tasks {
            if let Ok(i) = accepted.binary_search_by_key(&t.id, |acc| acc.id) {
                let _ = accepted[i].outcome.set(t.clone());
            }
        }

        let mut breakdown = BubbleBreakdown {
            total: self.bubble_total,
            unused_oom: self.bubble_unused,
            ..BubbleBreakdown::default()
        };
        for w in &self.workers {
            let acc = w.accounting();
            breakdown.running += acc.running;
            breakdown.insufficient += acc.insufficient;
        }
        let mut health = self
            .supervisor
            .map(Supervisor::into_report)
            .unwrap_or_default();
        for &(_, _, dup_won) in &self.hedge_outcome {
            if dup_won {
                health.hedge_wins += 1;
            } else {
                health.hedge_losses += 1;
            }
        }

        DeploymentReport {
            mode: self.cfg.mode,
            total_time: self.engine.total_time(),
            epoch_times: self.engine.epoch_times().to_vec(),
            tasks,
            rejected: self.late_rejected,
            breakdown,
            trace: self.trace,
            bubbles_reported: self.bubbles_reported,
            events_processed: self.events_processed,
            recoveries: self.recoveries,
            health,
            baseline_time: None,
            cost: None,
        }
    }
}

/// One RPC message's one-way latency: `base` scaled by a seeded jitter
/// factor of relative sigma `jitter`, clamped at ±4σ
/// ([`DetRng::jitter_factor`]). A jitter of 0 takes no draw.
///
/// The paper wires the instrumented trainer, the side-task manager and the
/// per-GPU workers together with gRPC (§4.6), and part of the middleware's
/// residual overhead comes from these RPCs: a bubble report and a
/// `StartSideTask()` round trip must happen before a side task can use a
/// bubble, and a `PauseSideTask()` must land before the bubble ends. Each
/// message is therefore delivered as an event this latency after its send.
/// The config defaults (120 µs ± 20%) approximate same-host gRPC over
/// loopback, the paper's deployment.
fn rpc_latency(base: SimDuration, jitter: f64, rpc: &mut DetRng) -> SimDuration {
    if jitter == 0.0 {
        return base;
    }
    base.mul_f64(rpc.jitter_factor(jitter))
}

fn cmd_worker(cmd: &ManagerCmd) -> usize {
    match cmd {
        ManagerCmd::Create { worker, .. }
        | ManagerCmd::Init { worker, .. }
        | ManagerCmd::Start { worker, .. }
        | ManagerCmd::Pause { worker, .. }
        | ManagerCmd::Stop { worker, .. } => *worker,
    }
}

fn cmd_task(cmd: &ManagerCmd) -> TaskId {
    match cmd {
        ManagerCmd::Create { task, .. }
        | ManagerCmd::Init { task, .. }
        | ManagerCmd::Start { task, .. }
        | ManagerCmd::Pause { task, .. }
        | ManagerCmd::Stop { task, .. } => *task,
    }
}

impl Ev {
    /// Which subsystem's logic an event exercises — the attribution key
    /// for profiled runs. RPC deliveries are bucketed as `rpc` even
    /// though their payload fans out into manager/worker logic: the
    /// delivery boundary is where the simulated network hands off, which
    /// is the cut an operator reasons about.
    fn subsystem(&self) -> Subsystem {
        match self {
            Ev::LaunchOp(_)
            | Ev::EpochBoundary
            | Ev::DeviceTick(_)
            | Ev::InitDone { .. }
            | Ev::StepLaunch { .. }
            | Ev::GraceCheck { .. } => Subsystem::Orchestrator,
            Ev::ManagerPoll => Subsystem::Manager,
            Ev::Deliver(_) => Subsystem::Rpc,
            Ev::Arrival(_) => Subsystem::Service,
            Ev::Fault(_) | Ev::FaultEnd(_) | Ev::Checkpoint => Subsystem::Fault,
            Ev::Heartbeat(_) | Ev::HealthCheck | Ev::HedgeCheck => Subsystem::Health,
        }
    }
}

/// The cluster-wide simulation world: N job runtimes sharing one event
/// queue and one RPC latency stream.
struct ClusterWorld {
    jobs: Vec<JobRuntime>,
    /// Every job's RPC latencies are drawn from this one stream, in send
    /// order.
    rpc: DetRng,
    /// The cluster's placement policy, consulted by resilience middleware
    /// (circuit breakers observe failures and mask workers mid-run).
    policy: Arc<dyn PlacementPolicy>,
    /// Per-subsystem event/wall-time attribution, when profiling is armed.
    /// `None` keeps the dispatch hot path free of `Instant` reads.
    profile: Option<ProfileCollector>,
}

impl World for ClusterWorld {
    type Event = ClusterEv;

    fn handle(&mut self, now: SimTime, event: ClusterEv, s: &mut Scheduler<'_, ClusterEv>) {
        if self.profile.is_none() {
            let job = &mut self.jobs[event.job];
            job.events_processed += 1;
            job.handle_ev(now, event.ev, &mut self.rpc, self.policy.as_ref(), s);
            return;
        }
        let bucket = event.ev.subsystem();
        // freeride: allow(no-wall-clock) -- obs wall-profiling seam: attributes real dispatch cost, sim clock never reads it
        let start = std::time::Instant::now();
        let job = &mut self.jobs[event.job];
        job.events_processed += 1;
        job.handle_ev(now, event.ev, &mut self.rpc, self.policy.as_ref(), s);
        if let Some(collector) = &mut self.profile {
            collector.record(bucket, start.elapsed());
        }
    }
}

/// Runs N pipeline-training jobs co-located with their accepted
/// submissions in **one** deterministic simulation, to completion, and
/// reports each job: its accepted submissions' handles resolved, its
/// in-run rejections kept whole, and its cost fields left for
/// [`Cluster::run`].
///
/// `rpc_seed` seeds the shared RPC latency stream. The cluster defaults
/// it to job 0's seed, which makes a one-job execution's stream identical
/// to the pre-cluster orchestrator's. `policy` is consulted
/// during admission so resilience middleware (circuit breakers)
/// can observe failures and mask workers mid-run; the hooks it uses are
/// no-op defaults on plain policies, so they never perturb the event
/// stream.
///
/// `tracer` arms sim-time tracing (every runtime and worker emits into
/// the shared handle); `profile` arms per-subsystem wall-time
/// attribution. Both default off, leaving the hot path untouched, and
/// neither schedules events — armed runs replay the untraced event
/// stream exactly.
pub(crate) fn execute_cluster(
    jobs: &[JobSlot],
    rpc_seed: u64,
    policy: Arc<dyn PlacementPolicy>,
    tracer: Option<TraceHandle>,
    profile: bool,
) -> (Vec<DeploymentReport>, Option<ProfileReport>) {
    assert!(!jobs.is_empty(), "cluster needs at least one job");

    let mut runtimes: Vec<JobRuntime> = Vec::with_capacity(jobs.len());
    let mut creates_per_job: Vec<Vec<ManagerCmd>> = Vec::with_capacity(jobs.len());

    for (j, slot) in jobs.iter().enumerate() {
        let pipeline_cfg = &slot.pipeline;
        let fr_cfg = &slot.cfg;

        // Devices built from each stage's hardware spec, under the
        // sharing regime the mode implies. The homogeneous default spec
        // reproduces the pre-hardware devices exactly.
        let sharing = match fr_cfg.mode {
            ColocationMode::Naive => SharingKind::TimeSliced,
            _ => SharingKind::Prioritized,
        };
        let mut devices: Vec<GpuDevice> = (0..pipeline_cfg.stages)
            .map(|i| {
                pipeline_cfg
                    .hardware_of(i)
                    .build_device(GpuId(i as u32), sharing)
            })
            .collect();

        let instr = match fr_cfg.mode {
            ColocationMode::FreeRide(_) => fr_cfg.instrumentation_overhead,
            _ => SimDuration::ZERO,
        };
        let mut engine = PipelineEngine::new(pipeline_cfg.clone(), fr_cfg.schedule)
            .with_instrumentation_overhead(instr);
        engine.init(&mut devices);

        let worker_mem: Vec<_> = (0..pipeline_cfg.stages)
            .map(|st| pipeline_cfg.stage_free_memory(st))
            .collect();

        let interface = match fr_cfg.mode {
            ColocationMode::FreeRide(i) => i,
            // Baselines co-run the original (non-step-wise) implementation.
            _ => InterfaceKind::Imperative,
        };

        let mem_series: Vec<String> = (0..devices.len()).map(|g| format!("gpu{g}.mem")).collect();
        let mut trace = TraceRecorder::new();
        for (d, name) in devices.iter().zip(&mem_series) {
            trace.record(name, SimTime::ZERO, d.used_mem().as_gib_f64());
        }

        let workers: Vec<Worker> = (0..pipeline_cfg.stages)
            .map(|i| {
                let mut w = Worker::new(i, fr_cfg.clone());
                if let Some(t) = &tracer {
                    w.set_tracer(t.clone(), j);
                }
                w
            })
            .collect();

        let mut rt = JobRuntime {
            job: j,
            workers,
            tick_ids: vec![None; pipeline_cfg.stages],
            faults: slot.faults.events().to_vec(),
            down_until: vec![None; pipeline_cfg.stages],
            base_speeds: devices.iter().map(|d| d.compute_speed()).collect(),
            oom_until: None,
            open_faults: Vec::new(),
            ckpt_interval: slot.checkpoint,
            ckpt_steps: BTreeMap::new(),
            lost: Vec::new(),
            restored: BTreeMap::new(),
            next_restore_id: 0,
            recoveries: Vec::new(),
            first_failure: BTreeMap::new(),
            supervisor: slot
                .supervise
                .as_ref()
                .map(|cfg| Supervisor::new(pipeline_cfg.stages, cfg)),
            hedges: BTreeMap::new(),
            hedge_cancel: BTreeSet::new(),
            hedge_outcome: Vec::new(),
            devices,
            engine,
            manager: SideTaskManager::new(worker_mem),
            pending_create: BTreeMap::new(),
            pid_index: BTreeMap::new(),
            placed: BTreeMap::new(),
            order: Vec::new(),
            arrivals: Vec::new(),
            late_rejected: Vec::new(),
            stop_sent: BTreeSet::new(),
            trace,
            mem_series,
            bubble_total: SimDuration::ZERO,
            bubble_unused: SimDuration::ZERO,
            bubbles_reported: 0,
            training_done: false,
            stops_issued: false,
            events_processed: 0,
            cmd_buf: Vec::new(),
            interface,
            cfg: fr_cfg.clone(),
            tracer: tracer.clone(),
        };

        // Admit and spawn the up-front submissions; queue the online ones
        // for their arrival events.
        let mut creates = Vec::new();
        for acc in &slot.accepted {
            let source = Source {
                submission: acc.submission.clone(),
                profile: acc.profile,
                root: acc.id,
            };
            if acc.submission.arrival() > SimTime::ZERO {
                rt.arrivals.push(Some(ArrivalSlot {
                    id: acc.id,
                    source,
                    pinned: acc.pinned,
                    retry: acc.retry,
                    attempt: 0,
                }));
                continue;
            }
            let mem = acc.profile.gpu_mem;
            match rt.admit(SimTime::ZERO, acc.id, mem, acc.pinned, policy.as_ref()) {
                Ok((w, cmd)) => {
                    rt.emit_with(SimTime::ZERO, Some(w), || TraceEventKind::TaskAdmitted {
                        task: acc.id.0,
                        name: acc.submission.tag().name().to_string(),
                    });
                    rt.spawn(SimTime::ZERO, acc.id, w, source, 0);
                    creates.push(cmd);
                }
                Err(error) => rt.late_rejected.push(RejectedSubmission {
                    submission: source.submission,
                    error,
                }),
            }
        }
        runtimes.push(rt);
        creates_per_job.push(creates);
    }

    let world = ClusterWorld {
        jobs: runtimes,
        rpc: DetRng::seed_from_u64(rpc_seed).derive("rpc"),
        policy,
        profile: profile.then(ProfileCollector::new),
    };
    let mut sim = Simulation::new(world);

    // Seed every job, in job order; within a job the seeding order is the
    // pre-cluster one (training, create RPCs, arrivals), so a one-job
    // cluster replays the exact historical event sequence.
    for (j, creates) in creates_per_job.into_iter().enumerate() {
        // Seed training.
        let start_actions = sim.world_mut().jobs[j].engine.start(SimTime::ZERO);
        for a in start_actions {
            match a {
                EngineAction::ScheduleLaunch { stage, at } => {
                    sim.seed_at(
                        at,
                        ClusterEv {
                            job: j,
                            ev: Ev::LaunchOp(stage),
                        },
                    );
                }
                EngineAction::ScheduleEpochBoundary { at } => {
                    sim.seed_at(
                        at,
                        ClusterEv {
                            job: j,
                            ev: Ev::EpochBoundary,
                        },
                    );
                }
                _ => {}
            }
        }
        // Seed task creation RPCs for up-front submissions.
        for cmd in creates {
            let msg = Msg::Cmd(cmd);
            let w = sim.world_mut();
            let at = SimTime::ZERO + w.jobs[j].latency(&msg, &mut w.rpc);
            sim.seed_at(
                at,
                ClusterEv {
                    job: j,
                    ev: Ev::Deliver(msg),
                },
            );
        }
        // Seed online arrivals, in the order `arrivals` holds them.
        let arrivals = jobs[j]
            .accepted
            .iter()
            .map(|acc| acc.submission.arrival())
            .filter(|&at| at > SimTime::ZERO);
        for (idx, at) in arrivals.enumerate() {
            sim.seed_at(
                at,
                ClusterEv {
                    job: j,
                    ev: Ev::Arrival(idx),
                },
            );
        }
    }

    // Seed the chaos schedule LAST, after every job's normal seeding: the
    // extra seeds append to the event-id sequence, so a job with an empty
    // fault plan and no checkpointing replays the exact fault-free event
    // stream byte for byte.
    for (j, slot) in jobs.iter().enumerate() {
        for (i, f) in slot.faults.events().iter().enumerate() {
            sim.seed_at(
                f.at,
                ClusterEv {
                    job: j,
                    ev: Ev::Fault(i),
                },
            );
            let window = match f.kind {
                FaultKind::WorkerCrash { down_for, .. } => Some(down_for),
                FaultKind::Straggler { duration, .. } => Some(duration),
                FaultKind::RpcSpike { duration, .. } => Some(duration),
                // Time-bounded via `oom_until`; no end event needed.
                FaultKind::OomWindow { .. } => None,
            };
            if let Some(d) = window {
                sim.seed_at(
                    f.at + d,
                    ClusterEv {
                        job: j,
                        ev: Ev::FaultEnd(i),
                    },
                );
            }
        }
        if slot.checkpoint.is_some() {
            sim.seed(ClusterEv {
                job: j,
                ev: Ev::Checkpoint,
            });
        }
    }

    // Supervisor seeds come after even the chaos schedule, so arming the
    // health subsystem never perturbs the event-id sequence of the other
    // configurations.
    for (j, slot) in jobs.iter().enumerate() {
        let Some(cfg) = &slot.supervise else {
            continue;
        };
        let first = SimTime::ZERO + HEARTBEAT_INTERVAL;
        for w in 0..slot.pipeline.stages {
            sim.seed_at(
                first,
                ClusterEv {
                    job: j,
                    ev: Ev::Heartbeat(w),
                },
            );
        }
        sim.seed_at(
            first,
            ClusterEv {
                job: j,
                ev: Ev::HealthCheck,
            },
        );
        if cfg.hedge_threshold.is_some() {
            sim.seed_at(
                SimTime::ZERO + HEDGE_INTERVAL,
                ClusterEv {
                    job: j,
                    ev: Ev::HedgeCheck,
                },
            );
        }
    }

    let outcome = sim.run_to_quiescence();
    assert_eq!(outcome, RunOutcome::Quiescent, "run must drain");
    let world = sim.into_world();
    let profile_report = world.profile.map(|c| c.report());

    let reports = world
        .jobs
        .into_iter()
        .zip(jobs)
        .map(|(job, slot)| job.report(&slot.accepted))
        .collect();
    (reports, profile_report)
}

/// Batch helper: runs pipeline training co-located with the submitted
/// side tasks under the given mode, to completion, without the cost
/// report.
///
/// Builds a one-job [`Cluster`] under the default
/// [`MinTasksJob`](crate::MinTasksJob) policy and submits everything up
/// front. Rejections are folded into [`DeploymentReport::rejected`]
/// instead of surfacing as typed errors: submission-time ones first, then
/// in-run ones.
///
/// # Panics
///
/// Panics if `fr_cfg` fails [`FreeRideConfig::validate`].
pub fn run_colocation(
    pipeline_cfg: &PipelineConfig,
    fr_cfg: &FreeRideConfig,
    submissions: &[Submission],
) -> DeploymentReport {
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline_cfg.clone()).config(fr_cfg.clone()))
        .cost_report(false)
        .build();
    for sub in submissions {
        let _ = cluster.submit_with(sub.clone(), SubmitOptions::new());
    }
    let mut cluster_report = cluster.run();
    let mut report = cluster_report
        .jobs
        .pop()
        .expect("a one-job cluster reports exactly one job");
    cluster_report.rejected.append(&mut report.rejected);
    report.rejected = cluster_report.rejected;
    report
}

/// Runs the no-side-task baseline with the same pipeline configuration
/// (vanilla DeepSpeed: no instrumentation overhead).
pub fn run_baseline(pipeline_cfg: &PipelineConfig) -> SimDuration {
    run_baseline_with(pipeline_cfg, freeride_pipeline::ScheduleKind::OneFOneB)
}

/// Baseline under an explicit schedule (the GPipe ablation): the one
/// definition of `T_noSideTask` (§6.1.5), which the cost report of
/// [`Cluster::run`] uses too.
///
/// It trains one epoch and multiplies. With no side task every epoch of
/// [`freeride_pipeline::run_training`] is a time-shifted copy of the
/// first, so `epochs × one epoch` equals the full run's `total_time` to
/// the nanosecond:
/// - the epoch barrier resets the engine's per-epoch state, and no epoch
///   is stretched (the baseline charges no instrumentation overhead);
/// - every device is idle at the barrier;
/// - the device model's arithmetic reads only time differences.
///
/// `tests/proptests.rs` `baseline_is_epochs_times_one_epoch` checks the
/// equality over the model presets, schedules, fleets and epoch counts.
pub fn run_baseline_with(
    pipeline_cfg: &PipelineConfig,
    schedule: freeride_pipeline::ScheduleKind,
) -> SimDuration {
    let one_epoch = pipeline_cfg.clone().with_epochs(1);
    freeride_pipeline::run_training(&one_epoch, schedule).total_time * pipeline_cfg.epochs as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spike's fixed latency is delivered exactly at both extremes (zero
    /// lands at the send instant, an hour neither overflows nor jitters),
    /// and a zero-jitter sample leaves the shared stream untouched.
    #[test]
    fn fixed_latencies_are_exact_and_take_no_draw() {
        let mut rpc = DetRng::seed_from_u64(1);
        let now = SimTime::from_millis(7);
        for latency in [
            SimDuration::ZERO,
            SimDuration::from_micros(100),
            SimDuration::from_secs(3_600),
        ] {
            assert_eq!(now + rpc_latency(latency, 0.0, &mut rpc), now + latency);
        }
        assert_eq!(rpc.next_f64(), DetRng::seed_from_u64(1).next_f64());
    }
}
