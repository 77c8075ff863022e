//! The FreeRide execution engine: pipeline training, side-task manager,
//! per-GPU workers, and RPC wiring, composed into one deterministic
//! simulation world (Fig. 3 and Fig. 5 of the paper).
//!
//! Since the cluster API the world is **job-multiplexed**: one
//! discrete-event simulation hosts N independent pipeline-training jobs
//! (each a [`JobRuntime`]: its own engine, manager, workers, and devices,
//! under its own seed and mode), wired through a **single shared
//! [`RpcBus`]** whose endpoints live in a job-qualified [`Directory`]
//! namespace (`"job3/worker1"`). Every event carries its job index, so the
//! event loop dispatches to exactly one job's state machine — a one-job
//! cluster is byte-identical to the pre-cluster single-job orchestrator.
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
//! Side tasks arrive **online**: each submission carries an arrival time,
//! and arrivals after t = 0 are simulation events that feed
//! [`SideTaskManager::submit`] mid-run — the task is placed by
//! Algorithm 1 against the bubbles that remain (or lands on the worker a
//! cluster [`PlacementPolicy`](crate::cluster::PlacementPolicy) pinned at
//! submission time). Submissions arriving after training finished are
//! recorded as rejected with [`SubmitError::ArrivedAfterShutdown`].

use crate::cluster::{Cluster, ClusterJob, Placement, PlacementPolicy};
use crate::config::{ColocationMode, FreeRideConfig, InterfaceKind};
use crate::deployment::{AcceptedSubmission, DeploymentReport, Submission};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, RetryPolicy, SubmitOptions};
use crate::health::{
    HealthReport, HealthState, Recovery, RecoveryKind, Supervisor, SupervisorConfig,
};
use crate::manager::{ManagerCmd, SideTaskManager, SubmitError};
use crate::metrics::BubbleBreakdown;
use crate::state::SideTaskState;
use crate::task::{Misbehavior, SideTask, StopReason, TaskId};
use crate::worker::{Worker, WorkerEffect};
use freeride_gpu::{GpuDevice, GpuId, MemBytes, ProcessId, SharingKind};
use freeride_obs::{
    ProfileCollector, ProfileReport, Subsystem, TraceEvent, TraceEventKind, TraceHandle,
};
use freeride_pipeline::{BubbleReport, EngineAction, PipelineConfig, PipelineEngine};
use freeride_rpc::{job_scope, Directory, Endpoint, Envelope, LatencyModel, RpcBus};
use freeride_sim::{
    DetRng, EventId, RunOutcome, Scheduler, SimDuration, SimTime, Simulation, TraceRecorder, World,
};
use freeride_tasks::{SideTaskWorkload, WorkloadProfile, WorkloadTag};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Restored tasks get fresh ids in a reserved high range so they can never
/// collide with submission-time ids (which count up from zero).
const RESTORE_ID_BASE: u64 = 1 << 63;

/// Outcome of one submitted task.
#[derive(Debug, Clone, Serialize)]
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

enum Ev {
    LaunchOp(usize),
    EpochBoundary,
    DeviceTick(usize),
    ManagerPollPeriodic,
    ManagerPollOnce,
    Deliver(Envelope<Msg>),
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

/// An online submission waiting for its arrival event.
struct ArrivalSlot {
    id: TaskId,
    tag: WorkloadTag,
    profile: WorkloadProfile,
    misbehavior: Misbehavior,
    /// Worker pinned by a cluster-level placement policy, if any; `None`
    /// defers to the job manager's Algorithm 1.
    pinned: Option<usize>,
    /// Retry middleware: a rejected arrival re-enters admission after an
    /// exponential backoff instead of being dropped.
    retry: Option<RetryPolicy>,
    /// Admission attempts already failed (drives the backoff exponent).
    attempt: u32,
    workload: Box<dyn SideTaskWorkload>,
}

/// A side task that died with its worker's daemon, remembered for
/// checkpoint/restart.
#[derive(Clone, Copy)]
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
/// workers, devices, and bookkeeping — everything except the RPC bus,
/// which is shared across all jobs of the cluster.
struct JobRuntime {
    /// This job's index in the cluster (tags every scheduled event).
    job: usize,
    cfg: FreeRideConfig,
    interface: InterfaceKind,
    devices: Vec<GpuDevice>,
    engine: PipelineEngine,
    manager: SideTaskManager,
    workers: Vec<Worker>,
    ep_trainer: Endpoint,
    ep_manager: Endpoint,
    ep_workers: Vec<Endpoint>,
    pending_create: BTreeMap<TaskId, SideTask>,
    pid_index: BTreeMap<ProcessId, (usize, TaskId)>,
    tick_ids: Vec<Option<EventId>>,
    /// Placement log `(id, worker, tag, profile)`, grown as tasks place.
    placements: Vec<(TaskId, usize, WorkloadTag, WorkloadProfile)>,
    /// Online submissions not yet arrived.
    arrivals: Vec<Option<ArrivalSlot>>,
    /// Submissions that could not be placed mid-run.
    late_rejected: Vec<(TaskId, SubmitError)>,
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
    /// Reusable buffer for manager poll commands; the management tick
    /// fires on every bubble, ack, and poll interval, so it must not
    /// allocate.
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
    /// Checkpoint/restart snapshot interval, when the mechanism is on.
    ckpt_interval: Option<SimDuration>,
    /// Last checkpointed steps per task.
    ckpt_steps: BTreeMap<TaskId, u64>,
    /// Tasks lost to a crashed daemon, awaiting its restart.
    lost: Vec<LostTask>,
    /// Restore chain: a lost task's id → the id it was re-admitted under.
    restored: BTreeMap<TaskId, TaskId>,
    /// Submission sources for rebuildable tasks (checkpoint mode only):
    /// id → (submission, profile, root id for the workload seed).
    restore_subs: BTreeMap<TaskId, (Submission, WorkloadProfile, TaskId)>,
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

    fn send(
        &mut self,
        now: SimTime,
        from: Endpoint,
        to: Endpoint,
        msg: Msg,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let (at, env) = bus.send(now, from, to, msg);
        let ev = self.ev(Ev::Deliver(env));
        s.schedule_at(at, ev);
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
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let completions = self.devices[g].advance_through(now);
        for c in completions {
            if self.engine.stage_of_pid(c.process).is_some() {
                let actions = self.engine.on_op_complete(now, g);
                self.apply_engine_actions(now, actions, bus, s);
            } else if let Some(&(wi, task)) = self.pid_index.get(&c.process) {
                let fx = self.workers[wi].on_step_complete(now, task, &mut self.devices[wi]);
                self.apply_worker_effects(now, wi, fx, bus, s);
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
        bus: &mut RpcBus,
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
                        self.send(
                            now,
                            self.ep_trainer,
                            self.ep_manager,
                            Msg::Bubble(r),
                            bus,
                            s,
                        );
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
                    self.issue_stops(now, bus, s);
                }
            }
        }
    }

    fn issue_stops(&mut self, now: SimTime, bus: &mut RpcBus, s: &mut Scheduler<'_, ClusterEv>) {
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
            let to = self.ep_workers[cmd_worker(&cmd)];
            self.send(now, self.ep_manager, to, Msg::Cmd(cmd), bus, s);
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
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) -> bool {
        if !self.stops_issued || state == SideTaskState::Stopped || !self.stop_sent.insert(task) {
            return false;
        }
        let to = self.ep_workers[worker];
        self.send(
            now,
            self.ep_manager,
            to,
            Msg::Cmd(ManagerCmd::Stop { worker, task }),
            bus,
            s,
        );
        true
    }

    fn run_manager_poll(
        &mut self,
        now: SimTime,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        if !self.is_freeride() {
            return;
        }
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        cmds.clear();
        self.manager.poll_into(now, &mut cmds);
        for cmd in cmds.drain(..) {
            let to = self.ep_workers[cmd_worker(&cmd)];
            self.send(now, self.ep_manager, to, Msg::Cmd(cmd), bus, s);
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

    /// The admission half of an online arrival, with the chaos overlays
    /// layered on Algorithm 1: a transient-OOM window rejects outright,
    /// downed workers reject `WorkerDown`, circuit-broken workers reject
    /// `CircuitOpen`, and unpinned submissions route around both. With no
    /// fault in force this is byte-for-byte the pre-chaos admission path.
    fn admit_arrival(
        &mut self,
        now: SimTime,
        slot: &ArrivalSlot,
        policy: &dyn PlacementPolicy,
    ) -> Result<(usize, ManagerCmd), SubmitError> {
        let mem = slot.profile.gpu_mem;
        if self.oom_until.is_some_and(|t| now < t) {
            // The allocator is transiently exhausted cluster-side: no
            // worker can host anything until the window closes.
            return Err(SubmitError::InsufficientMemory {
                needed: mem,
                best_worker_free: MemBytes::ZERO,
            });
        }
        if let Some(w) = slot.pinned {
            if self.worker_down(now, w) || self.drained(w) {
                return Err(SubmitError::WorkerDown { worker: w });
            }
            if policy.blocks(now, self.job, w) {
                return Err(SubmitError::CircuitOpen { worker: w });
            }
            return self.manager.submit_to(slot.id, mem, w);
        }
        let blocked: Vec<bool> = (0..self.workers.len())
            .map(|w| self.worker_down(now, w) || self.drained(w) || policy.blocks(now, self.job, w))
            .collect();
        if !blocked.iter().any(|&b| b) {
            return self.manager.submit(slot.id, mem);
        }
        if let Some(w) = self.manager.select_worker(mem, &blocked) {
            return Ok((w, self.manager.admit_to(slot.id, mem, w)));
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

    fn handle_arrival(
        &mut self,
        now: SimTime,
        idx: usize,
        bus: &mut RpcBus,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let Some(slot) = self.arrivals[idx].take() else {
            return;
        };
        if self.stops_issued || self.training_done {
            self.late_rejected
                .push((slot.id, SubmitError::ArrivedAfterShutdown { arrival: now }));
            return;
        }
        match self.admit_arrival(now, &slot, policy) {
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
                let task = SideTask::new(
                    slot.id,
                    slot.tag.clone(),
                    slot.profile,
                    self.interface,
                    slot.workload,
                    now,
                )
                .with_misbehavior(slot.misbehavior);
                self.pending_create.insert(slot.id, task);
                self.emit_with(now, Some(w), || TraceEventKind::TaskAdmitted {
                    task: slot.id.0,
                    name: slot.tag.name().to_string(),
                });
                self.emit_with(now, Some(w), || TraceEventKind::Placement {
                    task: Some(slot.id.0),
                    accepted: true,
                    detail: format!("worker{w}"),
                });
                self.placements.push((slot.id, w, slot.tag, slot.profile));
                let to = self.ep_workers[w];
                self.send(now, self.ep_manager, to, Msg::Cmd(cmd), bus, s);
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
                    _ => self.late_rejected.push((slot.id, e)),
                }
            }
        }
    }

    /// A scheduled fault fires.
    fn handle_fault(
        &mut self,
        now: SimTime,
        idx: usize,
        bus: &mut RpcBus,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let fault = self.faults[idx].kind;
        self.emit_with(now, fault.worker(), || TraceEventKind::FaultBegin {
            fault: fault.label(),
        });
        match fault {
            FaultKind::WorkerCrash { worker, down_for } => {
                // Settle the device up to the crash instant, then take
                // every live side task down with the daemon. Training is
                // untouched: the crash models the side-task daemon dying,
                // not the GPU or the pipeline rank.
                self.drain_device(now, worker, bus, s);
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
                self.drain_device(now, worker, bus, s);
                let slow = self.base_speeds[worker] * factor;
                self.devices[worker].set_compute_speed(now, slow);
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
            FaultKind::OomWindow { duration } => {
                let end = now + duration;
                self.oom_until = Some(self.oom_until.map_or(end, |t| t.max(end)));
            }
            FaultKind::RpcSpike {
                worker,
                latency,
                duration: _,
            } => {
                let spike = LatencyModel::fixed(latency);
                bus.set_link_latency(self.ep_manager, self.ep_workers[worker], spike.clone());
                bus.set_link_latency(self.ep_workers[worker], self.ep_manager, spike);
            }
        }
    }

    /// A transient fault's window closes: restore the degraded resource
    /// and, under checkpoint/restart, re-admit the tasks a crashed daemon
    /// took down.
    fn handle_fault_end(
        &mut self,
        now: SimTime,
        idx: usize,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let fault = self.faults[idx].kind;
        self.emit_with(now, fault.worker(), || TraceEventKind::FaultEnd {
            fault: fault.label(),
        });
        match fault {
            FaultKind::Straggler { worker, .. } => {
                self.drain_device(now, worker, bus, s);
                let base = self.base_speeds[worker];
                self.devices[worker].set_compute_speed(now, base);
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
            FaultKind::RpcSpike { worker, .. } => {
                // Back to this job's own RPC physics. Overriding with the
                // model the link already carries does not perturb the
                // jitter stream, so an un-spiked link is indistinguishable
                // from one that never spiked.
                let model = LatencyModel {
                    base: self.cfg.rpc_latency,
                    jitter_sigma: self.cfg.rpc_jitter,
                };
                bus.set_link_latency(self.ep_manager, self.ep_workers[worker], model.clone());
                bus.set_link_latency(self.ep_workers[worker], self.ep_manager, model);
            }
            FaultKind::WorkerCrash { worker, .. } => {
                self.down_until[worker] = None;
                if self.ckpt_interval.is_some() && !self.stops_issued && !self.training_done {
                    self.restore_lost_tasks(now, worker, bus, s);
                }
            }
            FaultKind::OomWindow { .. } => {
                // Time-bounded by `oom_until`; nothing to restore.
            }
        }
    }

    /// Checkpoint/restart's restore half: the daemon on `worker` is back,
    /// so re-admit every task it lost, resuming from the last snapshot.
    fn restore_lost_tasks(
        &mut self,
        now: SimTime,
        worker: usize,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let mut to_restore = Vec::new();
        self.lost.retain(|l| {
            if l.worker == worker {
                to_restore.push(*l);
                false
            } else {
                true
            }
        });
        for l in to_restore {
            let Some((sub, profile, root)) = self.restore_subs.get(&l.orig).cloned() else {
                continue; // not rebuildable (no submission source)
            };
            // It fit on this worker before the crash, so re-admit it
            // there unconditionally; restarts replay the same placement.
            self.respawn_lost(
                now,
                l,
                worker,
                sub,
                profile,
                root,
                RecoveryKind::Rejoin,
                bus,
                s,
            );
        }
    }

    /// The supervisor's proactive half: a worker turned Suspect/Dead, so
    /// move its checkpointed lost tasks to healthy workers *now* instead
    /// of waiting for the daemon to rejoin. Tasks with no healthy host
    /// stay queued for the rejoin restore.
    fn migrate_lost_tasks(
        &mut self,
        now: SimTime,
        from: usize,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let mut to_move = Vec::new();
        self.lost.retain(|l| {
            if l.worker == from {
                to_move.push(*l);
                false
            } else {
                true
            }
        });
        for l in to_move {
            let Some((sub, profile, root)) = self.restore_subs.get(&l.orig).cloned() else {
                continue; // not rebuildable (no submission source)
            };
            let Some(target) = self.migration_target(profile.gpu_mem, from, now) else {
                self.lost.push(l); // no healthy host: wait for the rejoin
                continue;
            };
            self.respawn_lost(
                now,
                l,
                target,
                sub,
                profile,
                root,
                RecoveryKind::Migration,
                bus,
                s,
            );
            if let Some(sup) = &mut self.supervisor {
                sup.record_migration();
            }
        }
    }

    /// The least-loaded healthy worker (not drained, not down, not the
    /// failing one) whose bubble memory fits `needed`; ties break toward
    /// the lower index, deterministically.
    fn migration_target(&self, needed: MemBytes, exclude: usize, now: SimTime) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (task_count, worker)
        for w in 0..self.workers.len() {
            if w == exclude || self.worker_down(now, w) || self.drained(w) {
                continue;
            }
            if self.manager.worker(w).gpu_mem <= needed {
                continue;
            }
            let n = self.manager.worker(w).task_count();
            if best.is_none_or(|(bn, _)| n < bn) {
                best = Some((n, w));
            }
        }
        best.map(|(_, w)| w)
    }

    /// Re-admits one lost task onto `target` under a fresh restore-range
    /// id, resuming from its checkpointed steps — the shared tail of the
    /// rejoin-restore and supervised-migration paths.
    #[allow(clippy::too_many_arguments)]
    fn respawn_lost(
        &mut self,
        now: SimTime,
        l: LostTask,
        target: usize,
        sub: Submission,
        profile: WorkloadProfile,
        root: TaskId,
        kind: RecoveryKind,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let new_id = TaskId(RESTORE_ID_BASE | self.next_restore_id);
        self.next_restore_id += 1;
        let cmd = self.manager.admit_to(new_id, profile.gpu_mem, target);
        let mut task = SideTask::new(
            new_id,
            sub.tag().clone(),
            profile,
            self.interface,
            sub.build_workload(self.cfg.seed ^ root.0),
            now,
        )
        .with_misbehavior(sub.misbehavior());
        task.steps = l.steps;
        self.pending_create.insert(new_id, task);
        self.placements
            .push((new_id, target, sub.tag().clone(), profile));
        self.restored.insert(l.orig, new_id);
        self.restore_subs.insert(new_id, (sub, profile, root));
        self.ckpt_steps.insert(new_id, l.steps);
        self.recoveries.push(Recovery {
            task: l.orig,
            latency: now.saturating_since(l.crashed_at),
            kind,
        });
        self.emit_with(now, Some(target), || TraceEventKind::Recovery {
            task: l.orig.0,
            kind: kind.label(),
        });
        let to = self.ep_workers[target];
        self.send(now, self.ep_manager, to, Msg::Cmd(cmd), bus, s);
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
    /// slowdown. The beacon rides the RPC bus, so `rpc_spike` latency
    /// delays its delivery and perturbs the score too.
    fn handle_heartbeat(
        &mut self,
        now: SimTime,
        worker: usize,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        if self.supervisor.is_none() || self.finished() {
            return; // chain dies with the run, so the sim can drain
        }
        if !self.worker_down(now, worker) {
            let from = self.ep_workers[worker];
            let to = self.ep_manager;
            self.send(now, from, to, Msg::Heartbeat { worker }, bus, s);
        }
        let interval = self
            .supervisor
            .as_ref()
            .expect("checked above")
            .cfg()
            .heartbeat_interval;
        let base = self.base_speeds[worker];
        let speed = self.devices[worker].compute_speed();
        let next = if speed < base {
            SimDuration::from_secs_f64(interval.as_secs_f64() * base / speed)
        } else {
            interval
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
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        if self.finished() {
            return;
        }
        let Some(sup) = &mut self.supervisor else {
            return;
        };
        let transitions = sup.check(now);
        let interval = sup.cfg().heartbeat_interval;
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
                self.migrate_lost_tasks(now, tr.worker, bus, s);
            }
        }
        let ev = self.ev(Ev::HealthCheck);
        s.schedule_after(interval, ev);
    }

    /// The supervisor scans for straggling side tasks to hedge.
    fn handle_hedge_check(
        &mut self,
        now: SimTime,
        bus: &mut RpcBus,
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
        let interval = sup.cfg().hedge_interval;
        if !self.stops_issued && !self.training_done {
            self.hedge_laggards(now, threshold, bus, s);
        }
        let ev = self.ev(Ev::HedgeCheck);
        s.schedule_after(interval, ev);
    }

    /// Straggler hedging: find live side tasks whose progress fell below
    /// `threshold` of the fleet median and launch a speculative duplicate
    /// of each on the fastest healthy worker. First completion wins; the
    /// loser is cancelled with [`StopReason::HedgeLost`].
    fn hedge_laggards(
        &mut self,
        now: SimTime,
        threshold: f64,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
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
            let Some((sub, profile, root)) = self.restore_subs.get(&id).cloned() else {
                continue; // not rebuildable (no submission source)
            };
            let Some(target) = self.hedge_target(profile.gpu_mem, wi, now) else {
                continue; // no healthy worker to speculate on
            };
            let dup = TaskId(RESTORE_ID_BASE | self.next_restore_id);
            self.next_restore_id += 1;
            let cmd = self.manager.admit_to(dup, profile.gpu_mem, target);
            // The duplicate reruns the same workload (same derived seed)
            // from step zero — speculation, not checkpoint resumption.
            let task = SideTask::new(
                dup,
                sub.tag().clone(),
                profile,
                self.interface,
                sub.build_workload(self.cfg.seed ^ root.0),
                now,
            )
            .with_misbehavior(sub.misbehavior());
            self.pending_create.insert(dup, task);
            self.placements
                .push((dup, target, sub.tag().clone(), profile));
            self.restore_subs.insert(dup, (sub, profile, root));
            self.hedges.insert(id, (dup, now));
            let to = self.ep_workers[target];
            self.send(now, self.ep_manager, to, Msg::Cmd(cmd), bus, s);
        }
    }

    /// The fastest healthy worker (excluding the laggard's own) whose
    /// bubble memory fits `needed`. Ties break toward fewer queued tasks,
    /// then the lower index — the deterministic tie-break hedge races
    /// resolve by.
    fn hedge_target(&self, needed: MemBytes, exclude: usize, now: SimTime) -> Option<usize> {
        let mut best: Option<(f64, usize, usize)> = None; // (speed, tasks, worker)
        for w in 0..self.workers.len() {
            if w == exclude || self.worker_down(now, w) || self.drained(w) {
                continue;
            }
            if self.manager.worker(w).gpu_mem <= needed {
                continue;
            }
            let speed = self.devices[w].compute_speed();
            let n = self.manager.worker(w).task_count();
            if best.is_none_or(|(bs, bn, _)| speed > bs || (speed == bs && n < bn)) {
                best = Some((speed, n, w));
            }
        }
        best.map(|(_, _, w)| w)
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
        let worker_of: BTreeMap<TaskId, usize> = self
            .placements
            .iter()
            .map(|(id, w, _, _)| (*id, *w))
            .collect();
        let chase = |mut cur: TaskId| {
            while let Some(&next) = self.restored.get(&cur) {
                cur = next;
            }
            cur
        };
        let hedges = std::mem::take(&mut self.hedges);
        for (&orig, &(dup, launched)) in &hedges {
            let o_cur = chase(orig);
            let d_cur = chase(dup);
            let o_w = worker_of[&o_cur];
            let d_w = worker_of[&d_cur];
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
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        for e in effects {
            match e {
                WorkerEffect::Ack { task, state } => {
                    if self.is_freeride() {
                        self.send(
                            now,
                            self.ep_workers[worker],
                            self.ep_manager,
                            Msg::Ack {
                                worker,
                                task,
                                state,
                            },
                            bus,
                            s,
                        );
                    } else if !self.stop_straggler(now, worker, task, state, bus, s) {
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
                            self.send(
                                now,
                                self.ep_manager,
                                self.ep_workers[worker],
                                Msg::Cmd(cmd),
                                bus,
                                s,
                            );
                        }
                    }
                }
                WorkerEffect::ScheduleInitDone { task, at } => {
                    let ev = self.ev(Ev::InitDone { worker, task });
                    s.schedule_at(at, ev);
                }
                WorkerEffect::ScheduleStepLaunch { task, at } => {
                    let ev = self.ev(Ev::StepLaunch { worker, task });
                    s.schedule_at(at, ev);
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
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let wi = cmd_worker(&cmd);
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
        self.apply_worker_effects(now, wi, effects, bus, s);
        self.resync_device(wi, s);
        self.record_device(now, wi);
    }

    /// One job's event dispatch — the body of the pre-cluster
    /// `World::handle`, with the shared bus threaded in.
    fn handle_ev(
        &mut self,
        now: SimTime,
        event: Ev,
        bus: &mut RpcBus,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        match event {
            Ev::LaunchOp(stage) => {
                let actions = self.engine.launch_due(now, stage, &mut self.devices);
                self.apply_engine_actions(now, actions, bus, s);
                self.resync_device(stage, s);
                self.record_device(now, stage);
            }
            Ev::EpochBoundary => {
                let actions = self.engine.epoch_boundary(now);
                self.apply_engine_actions(now, actions, bus, s);
            }
            Ev::DeviceTick(g) => {
                self.tick_ids[g] = None;
                self.drain_device(now, g, bus, s);
                self.resync_device(g, s);
                self.record_device(now, g);
            }
            Ev::ManagerPollPeriodic => {
                self.run_manager_poll(now, bus, s);
                if !self.finished() {
                    let ev = self.ev(Ev::ManagerPollPeriodic);
                    s.schedule_after(self.cfg.manager_poll_interval, ev);
                }
            }
            Ev::ManagerPollOnce => {
                self.run_manager_poll(now, bus, s);
            }
            Ev::Arrival(idx) => self.handle_arrival(now, idx, bus, policy, s),
            Ev::Fault(idx) => self.handle_fault(now, idx, bus, policy, s),
            Ev::FaultEnd(idx) => self.handle_fault_end(now, idx, bus, s),
            Ev::Checkpoint => self.handle_checkpoint(now, s),
            Ev::Heartbeat(w) => self.handle_heartbeat(now, w, bus, s),
            Ev::HealthCheck => self.handle_health_check(now, bus, s),
            Ev::HedgeCheck => self.handle_hedge_check(now, bus, s),
            Ev::Deliver(env) => match env.msg {
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
                    self.run_manager_poll(now, bus, s);
                    // Pause promptly when the bubble expires.
                    let ev = self.ev(Ev::ManagerPollOnce);
                    s.schedule_at(r.predicted_end().max(now), ev);
                }
                Msg::Cmd(cmd) => self.handle_cmd(now, cmd, bus, s),
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
                    self.stop_straggler(now, worker, task, state, bus, s);
                    self.run_manager_poll(now, bus, s);
                }
                Msg::Heartbeat { worker } => {
                    if let Some(sup) = &mut self.supervisor {
                        sup.on_heartbeat(now, worker);
                    }
                }
            },
            Ev::InitDone { worker, task } => {
                let fx = self.workers[worker].init_done(now, task);
                self.apply_worker_effects(now, worker, fx, bus, s);
            }
            Ev::StepLaunch { worker, task } => {
                let fx = self.workers[worker].step_launch_due(now, task, &mut self.devices[worker]);
                self.apply_worker_effects(now, worker, fx, bus, s);
                self.resync_device(worker, s);
            }
            Ev::GraceCheck {
                worker,
                task,
                requested_at,
            } => {
                let fx = self.workers[worker].grace_check(
                    now,
                    task,
                    requested_at,
                    &mut self.devices[worker],
                );
                self.apply_worker_effects(now, worker, fx, bus, s);
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
        }
    }
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
            Ev::ManagerPollPeriodic | Ev::ManagerPollOnce => Subsystem::Manager,
            Ev::Deliver(_) => Subsystem::Rpc,
            Ev::Arrival(_) => Subsystem::Service,
            Ev::Fault(_) | Ev::FaultEnd(_) | Ev::Checkpoint => Subsystem::Fault,
            Ev::Heartbeat(_) | Ev::HealthCheck | Ev::HedgeCheck => Subsystem::Health,
        }
    }
}

/// The cluster-wide simulation world: N job runtimes sharing one event
/// queue and one RPC bus.
struct ClusterWorld {
    jobs: Vec<JobRuntime>,
    bus: RpcBus,
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
            job.handle_ev(now, event.ev, &mut self.bus, self.policy.as_ref(), s);
            return;
        }
        let bucket = event.ev.subsystem();
        // freeride: allow(no-wall-clock) -- obs wall-profiling seam: attributes real dispatch cost, sim clock never reads it
        let start = std::time::Instant::now();
        let job = &mut self.jobs[event.job];
        job.events_processed += 1;
        job.handle_ev(now, event.ev, &mut self.bus, self.policy.as_ref(), s);
        if let Some(collector) = &mut self.profile {
            collector.record(bucket, start.elapsed());
        }
    }
}

/// Raw results of one orchestrated job, assembled by [`Cluster::run`] into
/// a [`DeploymentReport`].
pub(crate) struct ExecutionOutput {
    pub(crate) total_time: SimDuration,
    pub(crate) epoch_times: Vec<SimDuration>,
    pub(crate) tasks: Vec<TaskSummary>,
    pub(crate) breakdown: BubbleBreakdown,
    pub(crate) trace: TraceRecorder,
    pub(crate) bubbles_reported: u64,
    pub(crate) late_rejected: Vec<(TaskId, SubmitError)>,
    pub(crate) events_processed: u64,
    pub(crate) recoveries: Vec<Recovery>,
    pub(crate) health: HealthReport,
}

/// One job of a cluster execution: its pipeline, middleware config, the
/// submissions already admitted to it, and its chaos schedule.
pub(crate) struct JobExecSpec<'a> {
    pub(crate) pipeline: &'a PipelineConfig,
    pub(crate) cfg: &'a FreeRideConfig,
    pub(crate) accepted: &'a [AcceptedSubmission],
    pub(crate) faults: &'a FaultPlan,
    pub(crate) checkpoint: Option<SimDuration>,
    pub(crate) supervise: Option<&'a SupervisorConfig>,
}

/// Runs N pipeline-training jobs co-located with their accepted
/// submissions in **one** deterministic simulation, to completion.
///
/// `bus_seed` seeds the shared RPC bus's jitter stream. The cluster
/// defaults it to job 0's seed, which makes a one-job execution's stream
/// identical to the pre-cluster orchestrator's. `policy` is consulted
/// during online admission so resilience middleware (circuit breakers)
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
    jobs: &[JobExecSpec<'_>],
    bus_seed: u64,
    policy: Arc<dyn PlacementPolicy>,
    tracer: Option<TraceHandle>,
    profile: bool,
) -> (Vec<ExecutionOutput>, Option<ProfileReport>) {
    assert!(!jobs.is_empty(), "cluster needs at least one job");

    // One job-qualified directory and one bus span every job. The global
    // latency model is job 0's; every job's own links get per-link
    // overrides carrying that job's RPC physics, so heterogeneous configs
    // coexist on the shared bus.
    let mut directory = Directory::new();
    let bus_rng = DetRng::seed_from_u64(bus_seed);
    let mut bus = RpcBus::new(
        LatencyModel {
            base: jobs[0].cfg.rpc_latency,
            jitter_sigma: jobs[0].cfg.rpc_jitter,
        },
        bus_rng.derive("rpc"),
    );

    let mut runtimes: Vec<JobRuntime> = Vec::with_capacity(jobs.len());
    let mut initial_cmds_per_job: Vec<Vec<ManagerCmd>> = Vec::with_capacity(jobs.len());
    let mut arrival_times_per_job: Vec<Vec<SimTime>> = Vec::with_capacity(jobs.len());

    for (j, spec) in jobs.iter().enumerate() {
        let pipeline_cfg = spec.pipeline;
        let fr_cfg = spec.cfg;

        // Devices built from each stage's hardware spec, under the
        // sharing regime the mode implies. The homogeneous default spec
        // reproduces the pre-hardware devices exactly.
        let sharing = match fr_cfg.mode {
            ColocationMode::Naive => SharingKind::TimeSliced,
            _ => SharingKind::Prioritized,
        };
        let devices: Vec<GpuDevice> = (0..pipeline_cfg.stages)
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

        let scope = job_scope(j);
        let ep_trainer = directory
            .register_scoped(&scope, "trainer")
            .expect("job scopes are unique");
        let ep_manager = directory
            .register_scoped(&scope, "manager")
            .expect("job scopes are unique");
        let ep_workers: Vec<Endpoint> = (0..pipeline_cfg.stages)
            .map(|i| {
                directory
                    .register_scoped(&scope, &format!("worker{i}"))
                    .expect("job scopes are unique")
            })
            .collect();

        // This job's links carry its own RPC physics on the shared bus.
        // Links whose model equals the global one are left to the default
        // (sampling is identical either way), so homogeneous clusters —
        // and every one-job run — keep an empty link table on the send
        // hot path.
        if fr_cfg.rpc_latency != jobs[0].cfg.rpc_latency
            || fr_cfg.rpc_jitter != jobs[0].cfg.rpc_jitter
        {
            let link_model = LatencyModel {
                base: fr_cfg.rpc_latency,
                jitter_sigma: fr_cfg.rpc_jitter,
            };
            bus.set_link_latency(ep_trainer, ep_manager, link_model.clone());
            for &w in &ep_workers {
                bus.set_link_latency(ep_manager, w, link_model.clone());
                bus.set_link_latency(w, ep_manager, link_model.clone());
            }
        }

        let worker_mem: Vec<_> = (0..pipeline_cfg.stages)
            .map(|st| pipeline_cfg.stage_free_memory(st))
            .collect();
        let mut manager = SideTaskManager::new(worker_mem);

        let interface = match fr_cfg.mode {
            ColocationMode::FreeRide(i) => i,
            // Baselines co-run the original (non-step-wise) implementation.
            _ => InterfaceKind::Imperative,
        };

        // Build and place the up-front submissions; queue the online ones
        // for their arrival events.
        let mut pending_create = BTreeMap::new();
        let mut late_rejected = Vec::new();
        let mut placements: Vec<(TaskId, usize, WorkloadTag, WorkloadProfile)> = Vec::new();
        let mut initial_cmds = Vec::new();
        let mut arrivals: Vec<Option<ArrivalSlot>> = Vec::new();
        let mut arrival_times: Vec<SimTime> = Vec::new();
        for acc in spec.accepted {
            let id = acc.id;
            let sub = &acc.submission;
            if sub.arrival() == SimTime::ZERO {
                let placed = match acc.pinned {
                    Some(w) => manager.submit_to(id, acc.profile.gpu_mem, w),
                    None => manager.submit(id, acc.profile.gpu_mem),
                };
                match placed {
                    Ok((w, cmd)) => {
                        let task = SideTask::new(
                            id,
                            sub.tag().clone(),
                            acc.profile,
                            interface,
                            sub.build_workload(fr_cfg.seed ^ id.0),
                            SimTime::ZERO,
                        )
                        .with_misbehavior(sub.misbehavior());
                        pending_create.insert(id, task);
                        if let Some(t) = &tracer {
                            t.emit(TraceEvent {
                                at: SimTime::ZERO,
                                job: Some(j),
                                worker: Some(w),
                                kind: TraceEventKind::TaskAdmitted {
                                    task: id.0,
                                    name: sub.tag().name().to_string(),
                                },
                            });
                        }
                        placements.push((id, w, sub.tag().clone(), acc.profile));
                        initial_cmds.push(cmd);
                    }
                    Err(e) => late_rejected.push((id, e)),
                }
            } else {
                arrival_times.push(sub.arrival());
                arrivals.push(Some(ArrivalSlot {
                    id,
                    tag: sub.tag().clone(),
                    profile: acc.profile,
                    misbehavior: sub.misbehavior(),
                    pinned: acc.pinned,
                    retry: acc.retry,
                    attempt: 0,
                    workload: sub.build_workload(fr_cfg.seed ^ id.0),
                }));
            }
        }

        // Under checkpoint/restart or supervision, keep every submission's
        // source so a task lost to a daemon crash can be rebuilt (same
        // workload seed, resumed step count) and a straggler can be
        // speculatively duplicated.
        let restore_subs: BTreeMap<TaskId, (Submission, WorkloadProfile, TaskId)> =
            if spec.checkpoint.is_some() || spec.supervise.is_some() {
                spec.accepted
                    .iter()
                    .map(|acc| (acc.id, (acc.submission.clone(), acc.profile, acc.id)))
                    .collect()
            } else {
                BTreeMap::new()
            };

        let mut world_devices = devices;
        engine.init(&mut world_devices);

        let mem_series: Vec<String> = (0..world_devices.len())
            .map(|g| format!("gpu{g}.mem"))
            .collect();
        let mut trace = TraceRecorder::new();
        for (d, name) in world_devices.iter().zip(&mem_series) {
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

        runtimes.push(JobRuntime {
            job: j,
            workers,
            tick_ids: vec![None; pipeline_cfg.stages],
            faults: spec.faults.events().to_vec(),
            down_until: vec![None; pipeline_cfg.stages],
            base_speeds: world_devices.iter().map(|d| d.compute_speed()).collect(),
            oom_until: None,
            ckpt_interval: spec.checkpoint,
            ckpt_steps: BTreeMap::new(),
            lost: Vec::new(),
            restored: BTreeMap::new(),
            restore_subs,
            next_restore_id: 0,
            recoveries: Vec::new(),
            first_failure: BTreeMap::new(),
            supervisor: spec
                .supervise
                .map(|cfg| Supervisor::new(pipeline_cfg.stages, cfg)),
            hedges: BTreeMap::new(),
            hedge_cancel: BTreeSet::new(),
            hedge_outcome: Vec::new(),
            devices: world_devices,
            engine,
            manager,
            ep_trainer,
            ep_manager,
            ep_workers,
            pending_create,
            pid_index: BTreeMap::new(),
            placements,
            arrivals,
            late_rejected,
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
        });
        initial_cmds_per_job.push(initial_cmds);
        arrival_times_per_job.push(arrival_times);
    }

    let world = ClusterWorld {
        jobs: runtimes,
        bus,
        policy,
        profile: profile.then(ProfileCollector::new),
    };
    let mut sim = Simulation::new(world);

    // Seed every job, in job order; within a job the seeding order is the
    // pre-cluster one (training, create RPCs, arrivals, manager loop), so
    // a one-job cluster replays the exact historical event sequence.
    for (j, initial_cmds) in initial_cmds_per_job.into_iter().enumerate() {
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
        {
            let mut cmd_events = Vec::new();
            {
                let w = sim.world_mut();
                for cmd in initial_cmds {
                    let to = w.jobs[j].ep_workers[cmd_worker(&cmd)];
                    let from = w.jobs[j].ep_manager;
                    let (at, env) = w.bus.send(SimTime::ZERO, from, to, Msg::Cmd(cmd));
                    cmd_events.push((at, env));
                }
            }
            for (at, env) in cmd_events {
                sim.seed_at(
                    at,
                    ClusterEv {
                        job: j,
                        ev: Ev::Deliver(env),
                    },
                );
            }
        }
        // Seed online arrivals and the manager loop.
        for (idx, at) in arrival_times_per_job[j].iter().enumerate() {
            sim.seed_at(
                *at,
                ClusterEv {
                    job: j,
                    ev: Ev::Arrival(idx),
                },
            );
        }
        sim.seed(ClusterEv {
            job: j,
            ev: Ev::ManagerPollPeriodic,
        });
    }

    // Seed the chaos schedule LAST, after every job's normal seeding: the
    // extra seeds append to the event-id sequence, so a job with an empty
    // fault plan and no checkpointing replays the exact fault-free event
    // stream byte for byte.
    for (j, spec) in jobs.iter().enumerate() {
        for (i, f) in spec.faults.events().iter().enumerate() {
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
        if spec.checkpoint.is_some() {
            sim.seed(ClusterEv {
                job: j,
                ev: Ev::Checkpoint,
            });
        }
    }

    // Supervisor seeds come after even the chaos schedule, so arming the
    // health subsystem never perturbs the event-id sequence of the other
    // configurations.
    for (j, spec) in jobs.iter().enumerate() {
        let Some(cfg) = spec.supervise else {
            continue;
        };
        let first = SimTime::ZERO + cfg.heartbeat_interval;
        for w in 0..spec.pipeline.stages {
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
                SimTime::ZERO + cfg.hedge_interval,
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

    let outputs = world
        .jobs
        .into_iter()
        .map(|mut job| {
            assert!(job.engine.is_done(), "training must complete");
            assert!(job.finished(), "all tasks must stop");
            // Compute every charged step before anything reads a value, on
            // every task: restore predecessors and hedge losers too, so
            // each workload ends having run exactly its charged steps.
            for w in &mut job.workers {
                w.settle();
            }

            // Gather results. Restored incarnations fold into their
            // original submission: one summary per submitted task, read
            // from the tail of its restore chain, reported under the id
            // the submitter knows.
            let restore_ids: BTreeSet<TaskId> = job.restored.values().copied().collect();
            let worker_of: BTreeMap<TaskId, usize> = job
                .placements
                .iter()
                .map(|(id, w, _, _)| (*id, *w))
                .collect();
            let mut tasks = Vec::new();
            for (id, wi, tag, profile) in &job.placements {
                if restore_ids.contains(id) {
                    continue; // summarised under its original id
                }
                let mut cur = *id;
                while let Some(&next) = job.restored.get(&cur) {
                    cur = next; // supervised migration may move the chain
                }
                let tail_worker = worker_of.get(&cur).copied().unwrap_or(*wi);
                match job.workers[tail_worker].task(cur) {
                    Some(t) => tasks.push(TaskSummary {
                        id: *id,
                        kind: tag.clone(),
                        worker: tail_worker,
                        steps: t.steps,
                        final_state: t.state(),
                        stop_reason: t.stop_reason,
                        last_value: t.last_value,
                        profile: *profile,
                    }),
                    // Placed, but training ended before the Create RPC
                    // landed (online arrival racing the shutdown, or a
                    // task lost to a crash and never restored): never
                    // materialised.
                    None => tasks.push(TaskSummary {
                        id: *id,
                        kind: tag.clone(),
                        worker: *wi,
                        steps: 0,
                        final_state: SideTaskState::Submitted,
                        stop_reason: StopReason::NotStopped,
                        last_value: None,
                        profile: *profile,
                    }),
                }
            }
            let mut breakdown = BubbleBreakdown {
                total: job.bubble_total,
                unused_oom: job.bubble_unused,
                ..BubbleBreakdown::default()
            };
            for w in &job.workers {
                let acc = w.accounting();
                breakdown.running += acc.running;
                breakdown.insufficient += acc.insufficient;
            }

            let mut health = job
                .supervisor
                .map(Supervisor::into_report)
                .unwrap_or_default();
            for &(_, _, dup_won) in &job.hedge_outcome {
                if dup_won {
                    health.hedge_wins += 1;
                } else {
                    health.hedge_losses += 1;
                }
            }

            ExecutionOutput {
                total_time: job.engine.total_time(),
                epoch_times: job.engine.epoch_times().to_vec(),
                tasks,
                breakdown,
                trace: job.trace,
                bubbles_reported: job.bubbles_reported,
                late_rejected: job.late_rejected,
                events_processed: job.events_processed,
                recoveries: job.recoveries,
                health,
            }
        })
        .collect();
    (outputs, profile_report)
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
    fr_cfg.validate();
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

/// Baseline under an explicit schedule (the GPipe ablation).
pub fn run_baseline_with(
    pipeline_cfg: &PipelineConfig,
    schedule: freeride_pipeline::ScheduleKind,
) -> SimDuration {
    freeride_pipeline::run_training(pipeline_cfg, schedule).total_time
}
