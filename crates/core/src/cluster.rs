//! The `Cluster` API: N pipeline-parallel training jobs in **one**
//! deterministic simulation, behind a single side-task admission plane.
//!
//! The paper's middleware harvests the bubbles of *one* training job. A
//! [`Cluster`] raises that surface to a fleet: each job keeps its own
//! [`PipelineConfig`], seed, and co-location mode, all jobs advance in one
//! event loop and draw their RPC latencies from one shared stream, and
//! side tasks enter through a single cluster-wide [`Cluster::submit_with`]
//! that routes each submission to a job's workers via a pluggable
//! [`PlacementPolicy`]:
//!
//! * [`FirstFit`] — first worker (scanning jobs in order) with enough
//!   bubble memory;
//! * [`BestFitMemory`] — the *tightest* fitting worker cluster-wide;
//! * [`LeastLoaded`] — the fitting worker with the fewest routed tasks;
//! * [`FastestFit`] — the fitting worker with the highest relative
//!   compute speed, for heterogeneous fleets (see
//!   [`freeride_gpu::HardwareSpec`]);
//! * [`MinTasksJob`] — the cluster-level analogue of the paper's
//!   Algorithm 1 (and the default): pick the least-admitted job that can
//!   host the task and let that job's manager choose the worker
//!   dynamically at arrival time.
//!
//! A submission that does not fit its preferred job
//! ([`SubmitOptions::affinity`]) **spills over** to any other job with
//! room instead of being rejected outright; only when *no* job can host it
//! does the caller get [`SubmitError::InsufficientMemory`]. [`Cluster::run`]
//! drives the whole fleet to completion and returns a [`ClusterReport`]
//! aggregating one [`DeploymentReport`] per job plus cluster-level metrics.
//!
//! `Cluster` is the only way into the middleware: a single-job run is a
//! one-job cluster, byte-identical to the pre-cluster single-job
//! orchestrator ([`crate::run_colocation`] builds exactly that).

use crate::config::{ColocationMode, FreeRideConfig, InterfaceKind};
use crate::deployment::{AcceptedSubmission, DeploymentReport, RejectedSubmission, Submission};
use crate::fault::{FaultPlan, SubmitOptions};
use crate::health::{HealthReport, HealthState, SupervisorConfig};
use crate::manager::SubmitError;
use crate::metrics::evaluate;
use crate::orchestrator::{execute_cluster, run_baseline_with, TaskSummary};
use crate::service::{ServiceChain, ServiceReport, SubmitMiddleware};
use crate::state::SideTaskState;
use crate::task::{StopReason, TaskId};
use freeride_gpu::{HardwareSpec, MemBytes};
use freeride_obs::{
    ProfileReport, TraceEvent, TraceEventKind, TraceHandle, TraceSink, TraceSummary,
};
use freeride_pipeline::{PipelineConfig, ScheduleKind};
use freeride_sim::{SimDuration, SimTime};
use freeride_tasks::WorkloadTag;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Where a [`PlacementPolicy`] routed a submission.
///
/// Marked `#[non_exhaustive]`: placement targets grow with the cluster
/// model (e.g. multi-worker gang placements), so downstream matches need
/// a `_` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Placement {
    /// Route to a job and let that job's manager pick the worker
    /// dynamically (the paper's Algorithm 1, evaluated at arrival time).
    Job(usize),
    /// Pin the submission to a specific worker of a job.
    Worker {
        /// Target job index.
        job: usize,
        /// Target worker (stage) within the job.
        worker: usize,
    },
}

/// State of one worker's circuit breaker, as surfaced through
/// [`WorkerView::breaker`] (see [`crate::CircuitBreaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: submissions route normally.
    Closed,
    /// Tripped: submissions to this worker are shed with
    /// [`SubmitError::CircuitOpen`] until the cooldown passes.
    Open,
    /// Cooldown over: one probe submission is allowed through; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

/// Read-only snapshot of one worker slot offered to a policy.
#[derive(Debug, Clone, Copy)]
pub struct WorkerView {
    /// Worker (stage) index within its job.
    pub worker: usize,
    /// Bubble free memory this worker offers (the admission capacity of
    /// Algorithm 1 — a task needs *strictly less* than this to fit).
    pub free_mem: MemBytes,
    /// Current free bubble memory at decision time: [`WorkerView::free_mem`]
    /// minus the memory of submissions already pinned to this worker — the
    /// one-snapshot number policies used to re-derive from `free_mem` and
    /// `assigned`.
    pub free_memory: MemBytes,
    /// Submissions already pinned to this worker by earlier placements.
    pub assigned: usize,
    /// Relative compute speed of this worker's GPU (reference hardware =
    /// `1.0`) — what hardware-aware policies like [`FastestFit`] rank by.
    pub compute_speed: f64,
    /// Physical memory of this worker's GPU.
    pub device_memory: MemBytes,
    /// This worker's circuit-breaker state, when the active policy is (or
    /// wraps) a [`crate::CircuitBreaker`]; `None` otherwise.
    pub breaker: Option<BreakerState>,
    /// This worker's health as seen by the job's supervisor, when one is
    /// armed ([`ClusterJob::supervise`]); `None` otherwise. A
    /// [`crate::HealthState::Suspect`] or [`crate::HealthState::Dead`]
    /// worker is drained: the in-run admission plane rejects submissions
    /// pinned to it with [`SubmitError::WorkerDown`] and skips it for
    /// job-routed placements until its heartbeats resume.
    pub health: Option<crate::HealthState>,
}

/// Read-only snapshot of one job offered to a policy.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job index within the cluster.
    pub job: usize,
    /// Submissions already routed to this job (pinned or job-level).
    pub admitted: usize,
    /// Worker slots in stage order.
    pub workers: Vec<WorkerView>,
}

impl JobView {
    /// Whether some worker of this job can host a task needing `needed`.
    pub fn fits(&self, needed: MemBytes) -> bool {
        self.workers.iter().any(|w| w.free_mem > needed)
    }
}

/// The cluster state a [`PlacementPolicy`] decides over: every job's
/// worker slots with their bubble memory and current routing load.
#[derive(Debug, Clone)]
pub struct ClusterView {
    pub(crate) jobs: Vec<JobView>,
}

impl ClusterView {
    /// The jobs in index order. When a submission targets a preferred job
    /// ([`SubmitOptions::affinity`]), the first `place` call sees a view
    /// restricted to that job — `JobView::job` still carries the true
    /// cluster index.
    pub fn jobs(&self) -> &[JobView] {
        &self.jobs
    }

    /// The largest bubble free memory any worker offers.
    pub fn best_free(&self) -> MemBytes {
        self.jobs
            .iter()
            .flat_map(|j| j.workers.iter().map(|w| w.free_mem))
            .max()
            .unwrap_or(MemBytes::ZERO)
    }
}

/// How a [`Cluster`] routes a submission to a job's workers.
///
/// Policies are consulted at submission time over a [`ClusterView`] and
/// must return a [`Placement`] whose capacity strictly exceeds `needed`
/// (the cluster validates this and panics on a policy that violates it),
/// or `None` when nothing fits — which the cluster reports as a typed
/// [`SubmitError::InsufficientMemory`].
///
/// ```
/// use freeride_core::{ClusterView, Placement, PlacementPolicy};
/// use freeride_gpu::MemBytes;
///
/// /// Routes every task to the highest-indexed job that can host it.
/// struct PreferLastJob;
///
/// impl PlacementPolicy for PreferLastJob {
///     fn name(&self) -> &'static str {
///         "prefer-last"
///     }
///
///     fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
///         view.jobs()
///             .iter()
///             .rev()
///             .find(|j| j.fits(needed))
///             .map(|j| Placement::Job(j.job))
///     }
/// }
/// ```
pub trait PlacementPolicy: Send + Sync {
    /// Short policy name carried into [`ClusterReport`] and benchmarks.
    fn name(&self) -> &'static str;

    /// Chooses where to place a submission needing `needed` bubble
    /// memory, or `None` if no candidate fits.
    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement>;

    /// Feedback middleware hook: the orchestrator reports every in-run
    /// admission outcome (`ok` = admitted) for the worker it targeted.
    /// Stateless policies ignore it; [`crate::CircuitBreaker`] counts
    /// consecutive failures here.
    fn on_outcome(&self, now: SimTime, placement: Placement, ok: bool) {
        let _ = (now, placement, ok);
    }

    /// Load-shedding middleware hook: whether submissions to `worker` of
    /// `job` should currently be shed (rejected with
    /// [`SubmitError::CircuitOpen`]) instead of admitted. Default: never.
    ///
    /// Up-front submissions are admitted at t = 0 through the same check
    /// as arrivals, so a policy that blocks a worker at t = 0 sheds
    /// up-front submissions too. No stock policy does.
    fn blocks(&self, now: SimTime, job: usize, worker: usize) -> bool {
        let _ = (now, job, worker);
        false
    }

    /// The circuit-breaker state for `worker` of `job`, surfaced into
    /// [`WorkerView::breaker`]. `None` for policies without breakers.
    fn breaker_state(&self, job: usize, worker: usize) -> Option<BreakerState> {
        let _ = (job, worker);
        None
    }
}

/// Boxed policies are policies too, so runtime-chosen policies (e.g. a
/// benchmark sweeping every policy by name) plug straight into
/// [`ClusterBuilder::policy`].
impl<P: PlacementPolicy + ?Sized> PlacementPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        (**self).place(needed, view)
    }

    fn on_outcome(&self, now: SimTime, placement: Placement, ok: bool) {
        (**self).on_outcome(now, placement, ok)
    }

    fn blocks(&self, now: SimTime, job: usize, worker: usize) -> bool {
        (**self).blocks(now, job, worker)
    }

    fn breaker_state(&self, job: usize, worker: usize) -> Option<BreakerState> {
        (**self).breaker_state(job, worker)
    }
}

/// First fitting worker wins, scanning jobs (then stages) in index order.
/// No balancing: successive submissions pile onto the earliest slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        for j in view.jobs() {
            for w in &j.workers {
                if w.free_mem > needed {
                    return Some(Placement::Worker {
                        job: j.job,
                        worker: w.worker,
                    });
                }
            }
        }
        None
    }
}

/// The **tightest** fitting worker cluster-wide wins (classic best-fit:
/// minimise leftover bubble memory, preserving the big slots for big
/// tasks). Ties break toward the lower (job, worker) index.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFitMemory;

impl PlacementPolicy for BestFitMemory {
    fn name(&self) -> &'static str {
        "best-fit-memory"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        let mut best: Option<(MemBytes, Placement)> = None;
        for j in view.jobs() {
            for w in &j.workers {
                if w.free_mem > needed && best.is_none_or(|(m, _)| w.free_mem < m) {
                    best = Some((
                        w.free_mem,
                        Placement::Worker {
                            job: j.job,
                            worker: w.worker,
                        },
                    ));
                }
            }
        }
        best.map(|(_, p)| p)
    }
}

/// The fitting worker with the **fewest already-routed submissions** wins.
/// Ties break toward the lower (job, worker) index.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        let mut best: Option<(usize, Placement)> = None;
        for j in view.jobs() {
            for w in &j.workers {
                if w.free_mem > needed && best.is_none_or(|(n, _)| w.assigned < n) {
                    best = Some((
                        w.assigned,
                        Placement::Worker {
                            job: j.job,
                            worker: w.worker,
                        },
                    ));
                }
            }
        }
        best.map(|(_, p)| p)
    }
}

/// The **fastest** fitting worker cluster-wide wins: among workers whose
/// bubble memory strictly exceeds the request, pick the one with the
/// highest [`WorkerView::compute_speed`]. On a heterogeneous fleet this
/// is the throughput-greedy policy — side-task steps retire fastest on
/// the fastest silicon — at the price of piling load onto the premium
/// devices. Ties (including the all-reference homogeneous fleet) break
/// toward the lower (job, worker) index, making it equivalent to
/// [`FirstFit`] there.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastestFit;

impl PlacementPolicy for FastestFit {
    fn name(&self) -> &'static str {
        "fastest-fit"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        let mut best: Option<(f64, Placement)> = None;
        for j in view.jobs() {
            for w in &j.workers {
                if w.free_mem > needed && best.is_none_or(|(s, _)| w.compute_speed > s) {
                    best = Some((
                        w.compute_speed,
                        Placement::Worker {
                            job: j.job,
                            worker: w.worker,
                        },
                    ));
                }
            }
        }
        best.map(|(_, p)| p)
    }
}

/// The cluster-level analogue of the paper's Algorithm 1 — and the
/// default policy: route to the job with the fewest admitted submissions
/// among jobs that can host the task, and leave worker selection to that
/// job's manager, which applies the real Algorithm 1 *at arrival time*
/// against live queue state.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinTasksJob;

impl PlacementPolicy for MinTasksJob {
    fn name(&self) -> &'static str {
        "min-tasks-job"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        let mut best: Option<(usize, usize)> = None; // (admitted, job)
        for j in view.jobs() {
            if j.fits(needed) && best.is_none_or(|(n, _)| j.admitted < n) {
                best = Some((j.admitted, j.job));
            }
        }
        best.map(|(_, job)| Placement::Job(job))
    }
}

/// One training job of a cluster, configured fluently: its pipeline plus
/// its own middleware config (mode, interface, seed, schedule) — jobs in
/// one cluster need not agree on any of them.
#[derive(Debug, Clone)]
pub struct ClusterJob {
    pipeline: PipelineConfig,
    cfg: FreeRideConfig,
    faults: FaultPlan,
    checkpoint: Option<SimDuration>,
    supervise: Option<SupervisorConfig>,
}

impl ClusterJob {
    /// A job training `pipeline` under the default (iterative FreeRide)
    /// middleware configuration.
    pub fn new(pipeline: PipelineConfig) -> Self {
        ClusterJob {
            pipeline,
            cfg: FreeRideConfig::iterative(),
            faults: FaultPlan::new(),
            checkpoint: None,
            supervise: None,
        }
    }

    /// Replaces the whole middleware configuration.
    pub fn config(mut self, cfg: FreeRideConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the co-location mode (FreeRide, MPS, naive).
    pub fn mode(mut self, mode: ColocationMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Runs FreeRide with the given programming interface.
    pub fn interface(mut self, interface: InterfaceKind) -> Self {
        self.cfg.mode = ColocationMode::FreeRide(interface);
        self
    }

    /// Sets this job's root seed (jobs keep independent seeds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the pipeline schedule to train with.
    pub fn schedule(mut self, schedule: ScheduleKind) -> Self {
        self.cfg.schedule = schedule;
        self
    }

    /// Applies an arbitrary tweak to the configuration.
    pub fn tune(mut self, f: impl FnOnce(&mut FreeRideConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Replaces this job's GPU fleet with per-worker hardware (one
    /// [`HardwareSpec`] per stage, in stage order). Defaults to the
    /// homogeneous reference fleet the paper evaluates on.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty `specs` does not have one entry per stage.
    pub fn hardware(mut self, specs: Vec<HardwareSpec>) -> Self {
        self.pipeline = self.pipeline.with_hardware(specs);
        self
    }

    /// Replaces one worker's hardware, keeping the rest of the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn worker_hardware(mut self, stage: usize, spec: HardwareSpec) -> Self {
        self.pipeline = self.pipeline.with_worker_hardware(stage, spec);
        self
    }

    /// Attaches a deterministic [`FaultPlan`] to this job: its events are
    /// injected at exact simulated times during [`Cluster::run`]. An
    /// empty plan (the default) leaves the run byte-identical to one with
    /// no plan at all.
    ///
    /// # Panics
    ///
    /// Panics (at [`ClusterBuilder::build`]) if the plan targets a worker
    /// the pipeline does not have, or uses a non-positive straggler
    /// factor.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables side-task checkpoint/restart for this job: every
    /// `interval` of simulated time the orchestrator snapshots each live
    /// side task's progress, and when a crashed worker's daemon restarts,
    /// its lost tasks are re-admitted there with the checkpointed steps
    /// credited. Off by default — and without a fault plan it changes
    /// reported progress only through the snapshot bookkeeping, never the
    /// training timeline.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn checkpoint(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "checkpoint interval must be positive");
        self.checkpoint = Some(interval);
        self
    }

    /// Arms the health subsystem for this job: a [`crate::Supervisor`]
    /// runs a heartbeat-fed [`crate::FailureDetector`] over the workers,
    /// drains workers it suspects, migrates checkpointed tasks off them
    /// (when [`SupervisorConfig::migrate_on_suspect`] is set and
    /// [`ClusterJob::checkpoint`] is also armed), and — with
    /// [`SupervisorConfig::hedge`] — speculatively duplicates straggling
    /// side tasks. Off by default; arming it appends its seeds after
    /// every other schedule, so the un-supervised event stream is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SupervisorConfig::validate`].
    pub fn supervise(mut self, cfg: SupervisorConfig) -> Self {
        cfg.validate();
        self.supervise = Some(cfg);
        self
    }
}

/// One job's submission-time state inside a cluster.
pub(crate) struct JobSlot {
    pub(crate) pipeline: PipelineConfig,
    pub(crate) cfg: FreeRideConfig,
    pub(crate) faults: FaultPlan,
    pub(crate) checkpoint: Option<SimDuration>,
    pub(crate) supervise: Option<SupervisorConfig>,
    /// Accepted submissions in submission order, so ascending by id.
    pub(crate) accepted: Vec<AcceptedSubmission>,
    /// Submissions routed to this job (pinned or job-level).
    admitted: usize,
    /// Per-worker pinned-submission counts (feeds [`WorkerView::assigned`]).
    pinned_counts: Vec<usize>,
    /// Per-worker pinned memory (feeds [`WorkerView::free_memory`]).
    pinned_mem: Vec<MemBytes>,
}

/// Fluent configuration for a [`Cluster`].
pub struct ClusterBuilder {
    jobs: Vec<ClusterJob>,
    policy: Arc<dyn PlacementPolicy>,
    seed: Option<u64>,
    cost_report: bool,
    layers: Vec<Box<dyn SubmitMiddleware>>,
    tracer: Option<TraceHandle>,
    profile: bool,
}

impl ClusterBuilder {
    /// Adds a training job to the cluster (jobs are indexed in insertion
    /// order).
    pub fn job(mut self, job: ClusterJob) -> Self {
        self.jobs.push(job);
        self
    }

    /// Replaces the placement policy (default: [`MinTasksJob`]).
    pub fn policy(mut self, policy: impl PlacementPolicy + 'static) -> Self {
        self.policy = Arc::new(policy);
        self
    }

    /// Seeds the shared RPC latency stream. Defaults to job 0's seed,
    /// which makes a one-job cluster byte-identical to the pre-cluster
    /// orchestrator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Whether [`Cluster::run`] also trains each job's no-side-task
    /// baseline and fills [`DeploymentReport::cost`] (default: `true`) —
    /// required for [`ClusterReport::global_throughput_loss`].
    pub fn cost_report(mut self, enabled: bool) -> Self {
        self.cost_report = enabled;
        self
    }

    /// Registers a [`SubmitMiddleware`] layer on the submit path. Layers
    /// compose in the onion model, **first registered = outermost**;
    /// with no layers registered, submissions take the historical direct
    /// path, byte-identically.
    pub fn layer(mut self, layer: impl SubmitMiddleware + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Arms sim-time tracing: every placement decision, middleware
    /// verdict, manager command, task lifecycle transition, side-task
    /// step, fault window, and health transition is recorded into `sink`
    /// at its exact simulated time. Tracing adds **no** simulation
    /// events, so a traced run replays the untraced event stream
    /// byte-for-byte; with no sink armed (the default) every emission
    /// site is a skipped branch.
    ///
    /// ```
    /// use freeride_core::{Cluster, ClusterJob, Submission, SubmitOptions};
    /// use freeride_obs::SimTracer;
    /// use freeride_pipeline::{ModelSpec, PipelineConfig};
    /// use freeride_tasks::WorkloadKind;
    ///
    /// let sink = SimTracer::shared();
    /// let mut cluster = Cluster::builder()
    ///     .job(ClusterJob::new(
    ///         PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
    ///     ))
    ///     .trace(sink.clone())
    ///     .cost_report(false)
    ///     .build();
    /// cluster
    ///     .submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new())
    ///     .unwrap();
    /// let report = cluster.run();
    /// let summary = report.trace_summary.as_ref().expect("tracing armed");
    /// assert!(summary.events > 0);
    /// let chrome = sink.lock().unwrap().to_chrome_trace();
    /// assert!(chrome.contains("\"traceEvents\""));
    /// ```
    pub fn trace(mut self, sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        self.tracer = Some(TraceHandle::new(sink));
        self
    }

    /// Arms per-subsystem profiling: [`Cluster::run`] attributes each
    /// dispatched event (and its wall-clock handling time) to the
    /// subsystem it exercised and fills [`ClusterReport::profile`].
    /// Attribution is wall-clock instrumentation only — it never touches
    /// simulated time, so profiled runs stay deterministic.
    pub fn profile(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Finishes configuration.
    ///
    /// # Panics
    ///
    /// Panics if no job was added.
    pub fn build(self) -> Cluster {
        assert!(!self.jobs.is_empty(), "a cluster needs at least one job");
        Cluster {
            jobs: self
                .jobs
                .into_iter()
                .map(|j| {
                    let stages = j.pipeline.stages;
                    j.faults.validate(stages);
                    JobSlot {
                        pipeline: j.pipeline,
                        cfg: j.cfg,
                        faults: j.faults,
                        checkpoint: j.checkpoint,
                        supervise: j.supervise,
                        accepted: Vec::new(),
                        admitted: 0,
                        pinned_counts: vec![0; stages],
                        pinned_mem: vec![MemBytes::ZERO; stages],
                    }
                })
                .collect(),
            policy: self.policy,
            seed: self.seed,
            cost_report: self.cost_report,
            next_id: 0,
            rejected: Vec::new(),
            service: {
                let mut chain = ServiceChain::default();
                for layer in self.layers {
                    chain.push(layer);
                }
                chain
            },
            tracer: self.tracer,
            profile: self.profile,
        }
    }
}

/// Handle to a submission accepted by a cluster: the hosting job plus
/// the task's outcome, which resolves after [`Cluster::run`].
///
/// Before the run (or if the task was ultimately rejected mid-run — see
/// [`DeploymentReport::rejected`]) every outcome lookup returns `None`.
#[derive(Debug, Clone)]
pub struct ClusterTaskHandle {
    job: usize,
    id: TaskId,
    tag: WorkloadTag,
    outcome: Arc<OnceLock<TaskSummary>>,
    priority: Option<String>,
    admitted_at: SimTime,
}

impl ClusterTaskHandle {
    /// The job this submission was routed to.
    pub fn job(&self) -> usize {
        self.job
    }

    /// The priority tag attached at submission
    /// ([`SubmitOptions::priority`]), if any.
    pub fn priority(&self) -> Option<&str> {
        self.priority.as_deref()
    }

    /// The submission's effective arrival at the admission plane — after
    /// any delays added by service-layer middleware (e.g. a delaying
    /// [`crate::RateLimit`]). Placement within the hosting job happens at
    /// this instant; `admitted_at - original arrival` is the
    /// latency-to-placement the service metrics report.
    pub fn admitted_at(&self) -> SimTime {
        self.admitted_at
    }

    /// The id assigned at submission (unique cluster-wide).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Workload identity.
    pub fn tag(&self) -> &WorkloadTag {
        &self.tag
    }

    /// The full outcome, once the run finished.
    pub fn outcome(&self) -> Option<&TaskSummary> {
        self.outcome.get()
    }

    /// Final life-cycle state.
    pub fn state(&self) -> Option<SideTaskState> {
        self.outcome().map(|t| t.final_state)
    }

    /// Steps completed during bubbles.
    pub fn steps(&self) -> Option<u64> {
        self.outcome().map(|t| t.steps)
    }

    /// Why the task stopped.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.outcome().map(|t| t.stop_reason)
    }

    /// The worker (stage) the task ran on within its job.
    pub fn worker(&self) -> Option<usize> {
        self.outcome().map(|t| t.worker)
    }

    /// The workload's last progress metric (loss, delta, estimate…).
    pub fn last_value(&self) -> Option<f64> {
        self.outcome().and_then(|t| t.last_value)
    }
}

/// A fleet of concurrently-simulated pipeline-training jobs with one
/// shared side-task admission plane.
///
/// ```
/// use freeride_core::{Cluster, ClusterJob, LeastLoaded, Submission, SubmitOptions};
/// use freeride_pipeline::{ModelSpec, PipelineConfig};
/// use freeride_tasks::WorkloadKind;
///
/// let mut cluster = Cluster::builder()
///     .job(ClusterJob::new(
///         PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
///     )
///     .seed(7))
///     .job(ClusterJob::new(
///         PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b()).with_epochs(3),
///     )
///     .seed(8))
///     .policy(LeastLoaded)
///     .cost_report(false)
///     .build();
///
/// let handle = cluster
///     .submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new())
///     .expect("some worker has room");
/// let report = cluster.run();
/// assert_eq!(report.jobs.len(), 2);
/// assert!(handle.steps().unwrap() > 0, "the task harvested bubbles");
/// assert_eq!(report.total_rejections(), 0);
/// ```
pub struct Cluster {
    jobs: Vec<JobSlot>,
    policy: Arc<dyn PlacementPolicy>,
    seed: Option<u64>,
    cost_report: bool,
    next_id: u64,
    rejected: Vec<RejectedSubmission>,
    service: ServiceChain,
    tracer: Option<TraceHandle>,
    profile: bool,
}

impl Cluster {
    /// Starts configuring a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            jobs: Vec::new(),
            policy: Arc::new(MinTasksJob),
            seed: None,
            cost_report: true,
            layers: Vec::new(),
            tracer: None,
            profile: false,
        }
    }

    /// Emits an admission-plane trace event iff tracing is armed; `f`
    /// runs only then, so the disarmed submit path never allocates.
    pub(crate) fn emit_trace(
        &self,
        at: SimTime,
        job: Option<usize>,
        worker: Option<usize>,
        f: impl FnOnce() -> TraceEventKind,
    ) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(TraceEvent {
                at,
                job,
                worker,
                kind: f(),
            });
        }
    }

    /// Number of jobs in the cluster.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The middleware configuration of job `job`.
    pub fn job_config(&self, job: usize) -> &FreeRideConfig {
        &self.jobs[job].cfg
    }

    /// The pipeline configuration of job `job`.
    pub fn job_pipeline(&self, job: usize) -> &PipelineConfig {
        &self.jobs[job].pipeline
    }

    /// The active placement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The placement view policies currently decide over (diagnostic).
    pub fn view(&self) -> ClusterView {
        self.view_of(None)
    }

    fn view_of(&self, only: Option<usize>) -> ClusterView {
        ClusterView {
            jobs: self
                .jobs
                .iter()
                .enumerate()
                .filter(|(j, _)| only.is_none_or(|o| o == *j))
                .map(|(j, slot)| JobView {
                    job: j,
                    admitted: slot.admitted,
                    workers: (0..slot.pipeline.stages)
                        .map(|w| {
                            let free_mem = slot.pipeline.stage_free_memory(w);
                            WorkerView {
                                worker: w,
                                free_mem,
                                free_memory: free_mem.saturating_sub(slot.pinned_mem[w]),
                                assigned: slot.pinned_counts[w],
                                compute_speed: slot.pipeline.compute_speed(w),
                                device_memory: slot.pipeline.device_memory(w),
                                breaker: self.policy.breaker_state(j, w),
                                // Submission-time views precede the run;
                                // every supervised worker starts healthy.
                                health: slot.supervise.as_ref().map(|_| HealthState::Healthy),
                            }
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// The submission front door: drives `submission` through the
    /// registered [`SubmitMiddleware`] chain (outermost layer first; an
    /// empty chain short-circuits to the direct path, byte-identically)
    /// and routes it under `opts` — job affinity (with cluster-wide
    /// spillover), a [`crate::RetryPolicy`] for in-run admission, a
    /// tenant label and placement deadline for the service layer, and a
    /// priority tag carried into the returned handle.
    ///
    /// Admission is checked immediately: a rejection comes back typed,
    /// with the numbers that caused it, and is kept whole in
    /// [`ClusterReport::rejected`]. Placement within the job happens
    /// in-run at the submission's arrival time.
    ///
    /// ```
    /// use freeride_core::{Cluster, ClusterJob, RetryPolicy, Submission, SubmitOptions};
    /// use freeride_pipeline::{ModelSpec, PipelineConfig};
    /// use freeride_sim::SimDuration;
    /// use freeride_tasks::WorkloadKind;
    ///
    /// let mut cluster = Cluster::builder()
    ///     .job(ClusterJob::new(
    ///         PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
    ///     ))
    ///     .cost_report(false)
    ///     .build();
    /// let handle = cluster
    ///     .submit_with(
    ///         Submission::new(WorkloadKind::PageRank),
    ///         SubmitOptions::new()
    ///             .affinity(0)
    ///             .retry(RetryPolicy::new(3, SimDuration::from_millis(500)))
    ///             .priority("batch"),
    ///     )
    ///     .expect("fits");
    /// assert_eq!(handle.priority(), Some("batch"));
    /// ```
    pub fn submit_with(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        if self.service.is_empty() {
            return self.route(submission, opts);
        }
        let mut chain = std::mem::take(&mut self.service);
        let result = chain.dispatch(self, submission, opts);
        self.service = chain;
        result
    }

    /// The direct admission path at the center of the onion: allocate an
    /// id, check the affinity names a job and the deadline holds, place
    /// via the policy, book the acceptance (or the typed rejection).
    pub(crate) fn route(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let preferred = opts.affinity;
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let jobs = self.jobs.len();
        let checked = match (preferred, opts.deadline) {
            (Some(job), _) if job >= jobs => Err(SubmitError::UnknownJob { job, jobs }),
            (_, Some(deadline)) if submission.arrival() > deadline => {
                Err(SubmitError::DeadlineExceeded {
                    deadline,
                    arrival: submission.arrival(),
                })
            }
            _ => Ok(()),
        };
        let admitted = checked.and(submission.profile()).and_then(|profile| {
            let needed = profile.gpu_mem;
            let placement = match preferred {
                // Affinity first, cluster-wide spillover second.
                Some(j) => self
                    .policy
                    .place(needed, &self.view_of(Some(j)))
                    .or_else(|| self.policy.place(needed, &self.view_of(None))),
                None => self.policy.place(needed, &self.view_of(None)),
            };
            match placement {
                Some(p) => Ok((profile, p)),
                None => Err(SubmitError::InsufficientMemory {
                    needed,
                    best_worker_free: self.view_of(None).best_free(),
                }),
            }
        });
        match admitted {
            Ok((profile, placement)) => {
                let admitted_at = submission.arrival();
                let (job, pinned) = self.validate_placement(placement, profile.gpu_mem);
                self.emit_trace(admitted_at, Some(job), pinned, || {
                    TraceEventKind::Placement {
                        task: Some(id.0),
                        accepted: true,
                        detail: self.policy.name().to_string(),
                    }
                });
                let outcome = Arc::new(OnceLock::new());
                let handle = ClusterTaskHandle {
                    job,
                    id,
                    tag: submission.tag().clone(),
                    outcome: Arc::clone(&outcome),
                    priority: opts.priority,
                    admitted_at,
                };
                let slot = &mut self.jobs[job];
                slot.accepted.push(AcceptedSubmission {
                    id,
                    submission,
                    profile,
                    pinned,
                    retry: opts.retry,
                    outcome,
                });
                slot.admitted += 1;
                if let Some(w) = pinned {
                    slot.pinned_counts[w] += 1;
                    slot.pinned_mem[w] += profile.gpu_mem;
                }
                Ok(handle)
            }
            Err(error) => {
                self.emit_trace(submission.arrival(), None, None, || {
                    TraceEventKind::Placement {
                        task: Some(id.0),
                        accepted: false,
                        detail: error.kind().to_string(),
                    }
                });
                self.rejected.push(RejectedSubmission { submission, error });
                Err(error)
            }
        }
    }

    /// Enforces the [`PlacementPolicy`] contract: in-range indices and
    /// strictly sufficient bubble memory at the chosen placement.
    fn validate_placement(&self, placement: Placement, needed: MemBytes) -> (usize, Option<usize>) {
        match placement {
            Placement::Job(job) => {
                assert!(
                    job < self.jobs.len(),
                    "policy placed on job {job}: out of range"
                );
                let slot = &self.jobs[job];
                let best = (0..slot.pipeline.stages)
                    .map(|w| slot.pipeline.stage_free_memory(w))
                    .max()
                    .unwrap_or(MemBytes::ZERO);
                assert!(
                    best > needed,
                    "policy {} routed a task needing {needed} to job {job}, \
                     whose best worker offers only {best}",
                    self.policy.name()
                );
                (job, None)
            }
            Placement::Worker { job, worker } => {
                assert!(
                    job < self.jobs.len(),
                    "policy placed on job {job}: out of range"
                );
                let slot = &self.jobs[job];
                assert!(
                    worker < slot.pipeline.stages,
                    "policy placed on job {job} worker {worker}: out of range"
                );
                let free = slot.pipeline.stage_free_memory(worker);
                assert!(
                    free > needed,
                    "policy {} pinned a task needing {needed} to job {job} worker {worker}, \
                     which offers only {free}",
                    self.policy.name()
                );
                (job, Some(worker))
            }
        }
    }

    /// Runs every job to completion — all in one deterministic simulation
    /// — and reports per-job outcomes plus cluster-level aggregates.
    ///
    /// With the cost report on, each job's `T_noSideTask` is
    /// [`run_baseline_with`]: one epoch trained alone, times the job's
    /// epochs. That equals a full no-side-task run because, with no side
    /// task, every epoch is a time-shifted copy of the first (the barrier
    /// resets the engine's per-epoch state, every device is idle there,
    /// and the device model reads only time differences).
    ///
    /// # Panics
    ///
    /// Panics if any job's configuration fails [`FreeRideConfig::validate`].
    pub fn run(self) -> ClusterReport {
        for slot in &self.jobs {
            slot.cfg.validate();
        }
        let rpc_seed = self.seed.unwrap_or(self.jobs[0].cfg.seed);
        let (mut jobs, profile) = execute_cluster(
            &self.jobs,
            rpc_seed,
            Arc::clone(&self.policy),
            self.tracer.clone(),
            self.profile,
        );
        if self.cost_report {
            for (report, slot) in jobs.iter_mut().zip(&self.jobs) {
                let baseline = run_baseline_with(&slot.pipeline, slot.cfg.schedule);
                report.baseline_time = Some(baseline);
                report.cost = Some(evaluate(baseline, report.total_time, &report.work()));
            }
        }
        let events_processed: u64 = jobs.iter().map(|j| j.events_processed).sum();
        let mut health = HealthReport::default();
        for (j, job) in jobs.iter().enumerate() {
            health.merge_from(j, job.health.clone());
        }
        let mut service = self.service.finish();
        if let Some(svc) = &mut service {
            // Fold in-run (late) rejections into the by-kind counters so
            // every error path — worker-down drains included — is
            // attributed. No double count: the metrics layer saw these as
            // accepted at submission time.
            for job in &jobs {
                for r in &job.rejected {
                    *svc.rejections_by_kind.entry(r.error.kind()).or_default() += 1;
                }
            }
        }
        ClusterReport {
            policy: self.policy.name(),
            jobs,
            rejected: self.rejected,
            events_processed,
            service,
            health,
            trace_summary: self.tracer.as_ref().map(|t| t.summary()),
            profile,
        }
    }
}

/// Result of one cluster run: one [`DeploymentReport`] per job plus the
/// cluster-level aggregates (global throughput loss, rejection counts,
/// total events processed).
///
/// ```
/// use freeride_core::{Cluster, ClusterJob, FirstFit, Submission, SubmitOptions};
/// use freeride_pipeline::{ModelSpec, PipelineConfig};
/// use freeride_tasks::WorkloadKind;
///
/// let mut cluster = Cluster::builder()
///     .job(ClusterJob::new(
///         PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
///     ))
///     .policy(FirstFit)
///     .build();
/// cluster
///     .submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new())
///     .unwrap();
/// let report = cluster.run();
///
/// // Cluster-wide aggregates: events across all jobs, the paper's
/// // throughput-loss metric over the fleet, per-policy rejections.
/// assert!(report.events_processed > 0);
/// let loss = report.global_throughput_loss().expect("cost report enabled");
/// assert!(loss < 0.05, "FreeRide keeps the fleet's overhead low");
/// assert_eq!(report.rejections_by_policy().get("first-fit"), Some(&0));
/// ```
#[derive(Debug)]
pub struct ClusterReport {
    /// Name of the placement policy that routed the submissions.
    pub policy: &'static str,
    /// Per-job reports, in job order.
    pub jobs: Vec<DeploymentReport>,
    /// Submissions no job could host (typed reasons, kept whole).
    /// In-run (late) rejections stay in their job's report.
    pub rejected: Vec<RejectedSubmission>,
    /// Discrete events delivered across every job of the cluster run.
    pub events_processed: u64,
    /// What the service front-end observed — per-layer accept/reject
    /// counters plus [`crate::ServiceMetrics`] aggregates. `Some` exactly
    /// when middleware layers were registered
    /// ([`ClusterBuilder::layer`]).
    pub service: Option<ServiceReport>,
    /// Fleet-wide health log, merged across jobs with supervisors armed
    /// ([`ClusterJob::supervise`]): every detector transition
    /// (job-stamped), time-to-detect/time-to-recover samples, migration
    /// and hedge counters. Empty when no job is supervised.
    pub health: HealthReport,
    /// Event counts by kind across every trace emission of the run.
    /// `Some` exactly when tracing was armed ([`ClusterBuilder::trace`]).
    pub trace_summary: Option<TraceSummary>,
    /// Per-subsystem event/wall-time attribution. `Some` exactly when
    /// profiling was armed ([`ClusterBuilder::profile`]).
    pub profile: Option<ProfileReport>,
}

impl ClusterReport {
    /// All rejections: cluster-level (at submission) plus per-job in-run
    /// ones.
    pub fn total_rejections(&self) -> usize {
        self.rejected.len() + self.jobs.iter().map(|j| j.rejected.len()).sum::<usize>()
    }

    /// Rejection counts keyed by the policy that produced them (one entry
    /// per run; sweeps merge the maps across runs to compare policies).
    pub fn rejections_by_policy(&self) -> BTreeMap<&'static str, usize> {
        BTreeMap::from([(self.policy, self.total_rejections())])
    }

    /// The cluster-wide throughput loss: the fleet's summed training time
    /// against the summed no-side-task baselines, `Σ T_with / Σ T_base −
    /// 1`. `None` unless every job ran with the cost report enabled.
    pub fn global_throughput_loss(&self) -> Option<f64> {
        let mut with = 0.0;
        let mut base = 0.0;
        for j in &self.jobs {
            with += j.total_time.as_secs_f64();
            base += j.baseline_time?.as_secs_f64();
        }
        if base == 0.0 {
            return None;
        }
        Some(with / base - 1.0)
    }

    /// Total side-task steps harvested across the fleet.
    pub fn total_steps(&self) -> u64 {
        self.jobs
            .iter()
            .flat_map(|j| j.tasks.iter().map(|t| t.steps))
            .sum()
    }

    /// The fleet's makespan: the longest job's training time.
    pub fn makespan(&self) -> SimDuration {
        self.jobs
            .iter()
            .map(|j| j.total_time)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeride_pipeline::ModelSpec;
    use freeride_tasks::WorkloadKind;

    fn pipeline(model: ModelSpec, epochs: usize) -> PipelineConfig {
        PipelineConfig::paper_default(model).with_epochs(epochs)
    }

    fn two_job_cluster(policy: impl PlacementPolicy + 'static) -> Cluster {
        Cluster::builder()
            .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(1))
            .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 2)).seed(2))
            .policy(policy)
            .cost_report(false)
            .build()
    }

    #[test]
    fn builder_rejects_empty_cluster() {
        let r = std::panic::catch_unwind(|| Cluster::builder().build());
        assert!(r.is_err());
    }

    #[test]
    fn first_fit_piles_onto_the_first_fitting_slot() {
        let mut c = two_job_cluster(FirstFit);
        let a = c
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        let b = c
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        assert_eq!((a.job(), b.job()), (0, 0));
        let report = c.run();
        // Pinned placement: both on the first worker that fits PageRank.
        assert_eq!(a.worker(), b.worker());
        assert_eq!(report.jobs[0].tasks.len(), 2);
        assert!(report.jobs[1].tasks.is_empty());
    }

    #[test]
    fn least_loaded_spreads_across_slots() {
        let mut c = two_job_cluster(LeastLoaded);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                c.submit_with(
                    Submission::new(WorkloadKind::PageRank),
                    SubmitOptions::new(),
                )
                .unwrap()
            })
            .collect();
        let report = c.run();
        let mut placements: Vec<(usize, usize)> = handles
            .iter()
            .map(|h| (h.job(), h.worker().unwrap()))
            .collect();
        placements.sort_unstable();
        placements.dedup();
        assert_eq!(placements.len(), 4, "four distinct slots used");
        assert_eq!(report.total_rejections(), 0);
    }

    #[test]
    fn cluster_wide_rejection_carries_the_global_best() {
        let mut c = two_job_cluster(FirstFit);
        let global_best = c.view().best_free();
        let err = c
            .submit_with(
                Submission::custom("huge", MemBytes::from_gib(64), |seed| {
                    WorkloadKind::PageRank.build(seed)
                }),
                SubmitOptions::new(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::InsufficientMemory {
                needed: MemBytes::from_gib(64),
                best_worker_free: global_best,
            }
        );
        let report = c.run();
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.total_rejections(), 1);
        assert_eq!(report.rejections_by_policy().get("first-fit"), Some(&1));
    }

    #[test]
    fn unknown_affinity_is_a_typed_rejection() {
        let mut c = two_job_cluster(MinTasksJob);
        let err = c
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new().affinity(5),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::UnknownJob { job: 5, jobs: 2 });
        assert_eq!(err.kind(), "unknown-job");
        let report = c.run();
        assert_eq!(report.total_rejections(), 1);
        assert_eq!(report.rejected[0].error, err);
    }

    #[test]
    fn min_tasks_job_balances_jobs_not_workers() {
        let mut c = two_job_cluster(MinTasksJob);
        let a = c
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        let b = c
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        let d = c
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        // Round-robin across jobs by admitted count: 0, 1, 0.
        assert_eq!((a.job(), b.job(), d.job()), (0, 1, 0));
        let report = c.run();
        assert_eq!(report.jobs[0].tasks.len(), 2);
        assert_eq!(report.jobs[1].tasks.len(), 1);
    }

    #[test]
    fn fastest_fit_prefers_high_speed_workers() {
        // Job 0: homogeneous reference fleet. Job 1: H100s on the two
        // late stages. FastestFit must pin the first submission to job
        // 1's fastest fitting worker.
        let mut c = Cluster::builder()
            .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(1))
            .job(
                ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2))
                    .seed(2)
                    .worker_hardware(2, HardwareSpec::h100_80g())
                    .worker_hardware(3, HardwareSpec::h100_80g()),
            )
            .policy(FastestFit)
            .cost_report(false)
            .build();
        let h = c
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        assert_eq!(h.job(), 1);
        // The view exposes per-worker hardware for policies to rank by.
        let view = c.view();
        assert_eq!(view.jobs()[1].workers[2].compute_speed, 1.9);
        assert_eq!(
            view.jobs()[1].workers[2].device_memory,
            MemBytes::from_gib(80)
        );
        assert_eq!(view.jobs()[0].workers[2].compute_speed, 1.0);
        let report = c.run();
        let worker = h.worker().unwrap();
        assert!(
            worker == 2 || worker == 3,
            "pinned to an H100, got {worker}"
        );
        assert_eq!(report.jobs[1].tasks.len(), 1);
    }

    #[test]
    fn fastest_fit_on_homogeneous_fleet_is_first_fit() {
        let place = |policy: &dyn PlacementPolicy| {
            let mut c = two_job_cluster(FirstFit); // policy unused below
            let view = c.view();
            let p = policy.place(MemBytes::from_gib(4), &view);
            let _ = c.submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            );
            p
        };
        assert_eq!(place(&FastestFit), place(&FirstFit));
        assert_eq!(FastestFit.name(), "fastest-fit");
    }

    #[test]
    fn report_aggregates_events_and_steps() {
        let mut c = two_job_cluster(MinTasksJob);
        for _ in 0..2 {
            c.submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        }
        let report = c.run();
        assert_eq!(
            report.events_processed,
            report.jobs.iter().map(|j| j.events_processed).sum::<u64>()
        );
        assert!(report.jobs.iter().all(|j| j.events_processed > 0));
        assert!(report.total_steps() > 0);
        assert_eq!(
            report.makespan(),
            report.jobs[0].total_time.max(report.jobs[1].total_time)
        );
        // cost_report(false): no baselines, no global loss.
        assert!(report.global_throughput_loss().is_none());
    }

    #[test]
    fn per_job_modes_and_seeds_are_respected() {
        let mut c = Cluster::builder()
            .job(
                ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2))
                    .interface(InterfaceKind::Imperative)
                    .seed(11)
                    .tune(|c| c.rpc_jitter = 0.0),
            )
            .job(
                ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2))
                    .mode(ColocationMode::Mps)
                    .seed(12),
            )
            .cost_report(false)
            .build();
        assert_eq!(
            c.job_config(0).mode,
            ColocationMode::FreeRide(InterfaceKind::Imperative)
        );
        assert_eq!(c.job_config(1).mode, ColocationMode::Mps);
        assert_eq!(c.job_config(0).seed, 11);
        assert_eq!(c.job_config(0).rpc_jitter, 0.0);
        assert_ne!(c.job_config(1).rpc_jitter, 0.0, "tune is per job");
        c.submit_with(
            Submission::new(WorkloadKind::PageRank),
            SubmitOptions::new().affinity(0),
        )
        .unwrap();
        c.submit_with(
            Submission::new(WorkloadKind::PageRank),
            SubmitOptions::new().affinity(1),
        )
        .unwrap();
        let report = c.run();
        assert_eq!(
            report.jobs[0].mode,
            ColocationMode::FreeRide(InterfaceKind::Imperative)
        );
        assert_eq!(report.jobs[1].mode, ColocationMode::Mps);
    }
}
