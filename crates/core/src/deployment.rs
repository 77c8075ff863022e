//! What goes into the [`Cluster`](crate::Cluster) front door and what
//! comes out per job.
//!
//! * A [`Submission`] names a built-in [`WorkloadKind`] or a **custom
//!   workload** ([`Submission::custom`], backed by the [`WorkloadFactory`]
//!   trait — the paper's Fig. 6 porting exercise goes through the same
//!   front door as the six evaluation workloads), plus batch size, failure
//!   injection, and an arrival time: arrivals after t = 0 feed
//!   [`SideTaskManager::submit`] mid-run.
//! * A [`DeploymentReport`] is one job's outcome: per-task summaries,
//!   rejected submissions kept whole with typed reasons, bubble
//!   accounting, traces, and (when enabled) the paper's cost metrics.
//!   [`ClusterReport`](crate::ClusterReport) holds one per job, and
//!   [`run_colocation`](crate::run_colocation) returns one directly.
//!
//! [`SideTaskManager::submit`]: crate::manager::SideTaskManager::submit

use crate::config::ColocationMode;
use crate::fault::RetryPolicy;
use crate::health::{HealthReport, Recovery};
use crate::manager::SubmitError;
use crate::metrics::{BubbleBreakdown, CostReport, TaskWork};
use crate::orchestrator::TaskSummary;
use crate::task::{Misbehavior, TaskId};
use freeride_gpu::MemBytes;
use freeride_sim::{SimDuration, SimTime, TraceRecorder};
use freeride_tasks::{
    SideTaskWorkload, WorkloadFactory, WorkloadKind, WorkloadProfile, WorkloadTag, DEFAULT_BATCH,
};
use std::sync::{Arc, OnceLock};

/// Default per-step duration assumed for custom workloads until
/// [`Submission::with_step_time`] or [`Submission::with_profile`] says
/// otherwise.
const CUSTOM_DEFAULT_STEP: SimDuration = SimDuration::from_millis(10);

/// A side task to submit to a cluster: a workload source (built-in
/// kind or custom factory) plus batch size, failure injection, and an
/// arrival time for online submissions.
#[derive(Clone)]
pub struct Submission {
    factory: Arc<dyn WorkloadFactory>,
    tag: WorkloadTag,
    batch: usize,
    misbehavior: Misbehavior,
    arrival: SimTime,
    profile_override: Option<WorkloadProfile>,
    step_override: Option<SimDuration>,
}

impl core::fmt::Debug for Submission {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Submission")
            .field("tag", &self.tag)
            .field("batch", &self.batch)
            .field("misbehavior", &self.misbehavior)
            .field("arrival", &self.arrival)
            .finish()
    }
}

impl Submission {
    /// A well-behaved submission of a built-in workload at the default
    /// batch size, arriving up front (t = 0).
    pub fn new(kind: WorkloadKind) -> Self {
        Submission {
            factory: Arc::new(kind),
            tag: WorkloadTag::Kind(kind),
            batch: DEFAULT_BATCH,
            misbehavior: Misbehavior::None,
            arrival: SimTime::ZERO,
            profile_override: None,
            step_override: None,
        }
    }

    /// A submission of a **custom workload** — the paper's Fig. 6 porting
    /// exercise as a first-class citizen. `name` identifies the workload
    /// in reports, `gpu_mem` is the footprint Algorithm 1 places against
    /// (and the MPS cap enforces), and `build` instantiates the step-wise
    /// computation for a given seed.
    ///
    /// The profile defaults to a 10 ms step with mid-band interference
    /// characteristics; refine it with [`Submission::with_step_time`] or
    /// [`Submission::with_profile`].
    pub fn custom<F>(name: impl Into<Arc<str>>, gpu_mem: MemBytes, build: F) -> Self
    where
        F: Fn(u64) -> Box<dyn SideTaskWorkload> + Send + Sync + 'static,
    {
        let tag = WorkloadTag::Custom(name.into());
        Submission {
            factory: Arc::new(ClosureFactory {
                tag: tag.clone(),
                profile: WorkloadProfile::custom(gpu_mem, CUSTOM_DEFAULT_STEP),
                build,
            }),
            tag,
            batch: DEFAULT_BATCH,
            misbehavior: Misbehavior::None,
            arrival: SimTime::ZERO,
            profile_override: None,
            step_override: None,
        }
    }

    /// A submission backed by an arbitrary [`WorkloadFactory`]
    /// implementation (the fully general form of [`Submission::custom`]).
    pub fn from_factory(factory: Arc<dyn WorkloadFactory>) -> Self {
        let tag = factory.tag();
        Submission {
            factory,
            tag,
            batch: DEFAULT_BATCH,
            misbehavior: Misbehavior::None,
            arrival: SimTime::ZERO,
            profile_override: None,
            step_override: None,
        }
    }

    /// Overrides the batch size (builder style; model-training workloads
    /// only — others ignore it). A zero batch is reported as
    /// [`SubmitError::InvalidBatch`] at submission time. Composes with
    /// [`Submission::with_step_time`] and [`Submission::with_profile`] in
    /// any order.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Installs failure injection (builder style).
    pub fn with_misbehavior(mut self, m: Misbehavior) -> Self {
        self.misbehavior = m;
        self
    }

    /// Schedules the submission to arrive `arrival` into the run instead
    /// of up front — the online path: the manager places it mid-training,
    /// and it starts harvesting the bubbles that remain.
    pub fn at(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Replaces the entire profile (full calibration control).
    ///
    /// # Panics
    ///
    /// Panics on a zero step duration or footprint — both would break the
    /// simulated stepping machinery.
    pub fn with_profile(mut self, profile: WorkloadProfile) -> Self {
        assert!(
            !profile.step_server1.is_zero(),
            "per-step duration must be positive"
        );
        assert!(!profile.gpu_mem.is_zero(), "GPU footprint must be positive");
        self.profile_override = Some(profile);
        self
    }

    /// Overrides the per-step duration, rescaling the Server-II and CPU
    /// step times by the [`WorkloadProfile::custom`] defaults. Applied on
    /// top of the factory profile (or a [`Submission::with_profile`]
    /// override) whenever the effective profile is computed, so it
    /// composes with [`Submission::with_batch`] in any order.
    ///
    /// # Panics
    ///
    /// Panics on a zero step duration.
    pub fn with_step_time(mut self, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "per-step duration must be positive");
        self.step_override = Some(step);
        self
    }

    /// The paper's §6.2 setup: the same workload submitted once per stage.
    pub fn per_worker(kind: WorkloadKind, stages: usize) -> Vec<Submission> {
        (0..stages).map(|_| Submission::new(kind)).collect()
    }

    /// The paper's mixed workload: PageRank, ResNet18, Image, VGG19 — one
    /// per worker of stages 0–3.
    pub fn mixed() -> Vec<Submission> {
        vec![
            Submission::new(WorkloadKind::PageRank),
            Submission::new(WorkloadKind::ResNet18),
            Submission::new(WorkloadKind::ImageProc),
            Submission::new(WorkloadKind::Vgg19),
        ]
    }

    /// Workload identity carried into reports.
    pub fn tag(&self) -> &WorkloadTag {
        &self.tag
    }

    /// Configured batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Configured failure injection.
    pub fn misbehavior(&self) -> Misbehavior {
        self.misbehavior
    }

    /// Configured arrival time.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// The effective profile this submission would run under: the factory
    /// profile at the configured batch (or a [`Submission::with_profile`]
    /// override), with any [`Submission::with_step_time`] override applied
    /// on top.
    pub fn profile(&self) -> Result<WorkloadProfile, SubmitError> {
        if self.batch == 0 {
            return Err(SubmitError::InvalidBatch { batch: 0 });
        }
        let mut profile = self
            .profile_override
            .unwrap_or_else(|| self.factory.profile(self.batch));
        if let Some(step) = self.step_override {
            // Delegate to the custom-profile constructor so the platform
            // scale factors live in exactly one place.
            let scaled = WorkloadProfile::custom(profile.gpu_mem, step);
            profile.step_server1 = scaled.step_server1;
            profile.step_server2 = scaled.step_server2;
            profile.step_cpu = scaled.step_cpu;
        }
        Ok(profile)
    }

    /// Instantiates the workload (deterministic in `seed`).
    pub(crate) fn build_workload(&self, seed: u64) -> Box<dyn SideTaskWorkload> {
        self.factory.build(seed)
    }
}

/// Adapter wrapping a build closure plus a fixed profile into a
/// [`WorkloadFactory`].
struct ClosureFactory<F> {
    tag: WorkloadTag,
    profile: WorkloadProfile,
    build: F,
}

impl<F> WorkloadFactory for ClosureFactory<F>
where
    F: Fn(u64) -> Box<dyn SideTaskWorkload> + Send + Sync,
{
    fn tag(&self) -> WorkloadTag {
        self.tag.clone()
    }

    fn profile(&self, _batch: usize) -> WorkloadProfile {
        self.profile
    }

    fn build(&self, seed: u64) -> Box<dyn SideTaskWorkload> {
        (self.build)(seed)
    }
}

/// A submission the cluster could not serve, kept whole (workload,
/// batch, misbehavior, arrival) together with the typed reason.
#[derive(Debug, Clone)]
pub struct RejectedSubmission {
    /// The submission as handed to
    /// [`Cluster::submit_with`](crate::Cluster::submit_with).
    pub submission: Submission,
    /// Why it was rejected.
    pub error: SubmitError,
}

/// An accepted submission waiting for the run.
pub(crate) struct AcceptedSubmission {
    pub(crate) id: TaskId,
    pub(crate) submission: Submission,
    pub(crate) profile: WorkloadProfile,
    /// Worker pinned by a cluster-level placement policy; `None` defers
    /// worker selection to the job manager's Algorithm 1 at arrival time.
    pub(crate) pinned: Option<usize>,
    /// Retry middleware for in-run admission ([`crate::SubmitOptions`]).
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) outcome: Arc<OnceLock<TaskSummary>>,
}

/// One job's outcome: times, per-task summaries, the rejected
/// submissions kept whole, bubble accounting, and (when enabled) the
/// baseline time plus the paper's §6.1.5 cost metrics.
#[derive(Debug)]
pub struct DeploymentReport {
    /// The mode that ran.
    pub mode: ColocationMode,
    /// Total pipeline-training time (`T_withSideTasks`).
    pub total_time: SimDuration,
    /// Per-epoch times.
    pub epoch_times: Vec<SimDuration>,
    /// Per-task outcomes, in placement order.
    pub tasks: Vec<TaskSummary>,
    /// Submissions this job could not serve, with typed reasons: in-run
    /// rejections in a [`crate::ClusterReport`] job, and submission-time
    /// ones first, then in-run ones, from [`crate::run_colocation`].
    pub rejected: Vec<RejectedSubmission>,
    /// Fig. 9 accounting (FreeRide modes only; zero for baselines).
    pub breakdown: BubbleBreakdown,
    /// Used-memory trace per GPU (`gpu{g}.mem`, GiB).
    pub trace: TraceRecorder,
    /// Bubble reports delivered to the manager.
    pub bubbles_reported: u64,
    /// Discrete events the simulation delivered for this run. It counts
    /// simulator work, not a result: it moves whenever the simulator needs
    /// a different number of events for the same run.
    pub events_processed: u64,
    /// Recovery log under the chaos layer: for each task that hit a
    /// retryable fault or lost its worker, the latency from first failure
    /// to the admission that stuck, attributed to the mechanism that
    /// recovered it ([`crate::RecoveryKind`]): retry resubmission, rejoin
    /// restore, supervised migration, or a won hedge. Empty without fault
    /// injection.
    pub recoveries: Vec<Recovery>,
    /// What the health subsystem observed, when a supervisor was armed
    /// ([`crate::ClusterJob::supervise`]): detector transitions,
    /// time-to-detect/time-to-recover, migrations, hedge outcomes. Empty
    /// (see [`HealthReport::is_empty`]) otherwise.
    pub health: HealthReport,
    /// `T_noSideTask` under the same pipeline and schedule, when the cost
    /// report was enabled.
    pub baseline_time: Option<SimDuration>,
    /// Time increase `I` and cost savings `S`, when enabled.
    pub cost: Option<CostReport>,
}

impl DeploymentReport {
    /// Work records for the cost model.
    pub fn work(&self) -> Vec<TaskWork> {
        self.tasks
            .iter()
            .map(|t| TaskWork::new(&t.profile, t.steps))
            .collect()
    }

    /// The outcome of a specific task.
    pub fn task(&self, id: TaskId) -> Option<&TaskSummary> {
        self.tasks.iter().find(|t| t.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterJob};
    use crate::config::FreeRideConfig;
    use crate::fault::SubmitOptions;
    use crate::state::SideTaskState;
    use crate::task::StopReason;
    use freeride_pipeline::{ModelSpec, PipelineConfig};

    fn pipeline(epochs: usize) -> PipelineConfig {
        PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs)
    }

    fn one_job(job: ClusterJob) -> Cluster {
        Cluster::builder().job(job).build()
    }

    #[test]
    fn submit_rejects_oversized_with_numbers() {
        let p = pipeline(3);
        let best = (0..p.stages)
            .map(|st| p.stage_free_memory(st))
            .max()
            .unwrap();
        let mut cluster = one_job(ClusterJob::new(p));
        let err = cluster
            .submit_with(
                Submission::new(WorkloadKind::Vgg19).with_batch(256),
                SubmitOptions::new(),
            )
            .unwrap_err();
        let needed = WorkloadKind::Vgg19.profile_with_batch(256).gpu_mem;
        assert_eq!(
            err,
            SubmitError::InsufficientMemory {
                needed,
                best_worker_free: best,
            }
        );
    }

    #[test]
    fn submit_rejects_zero_batch() {
        let mut cluster = one_job(ClusterJob::new(pipeline(3)));
        let err = cluster
            .submit_with(
                Submission::new(WorkloadKind::ResNet18).with_batch(0),
                SubmitOptions::new(),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::InvalidBatch { batch: 0 });
    }

    #[test]
    fn handles_resolve_after_run() {
        let mut cluster = one_job(ClusterJob::new(pipeline(3)).seed(11));
        let handle = cluster
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .unwrap();
        assert_eq!(handle.state(), None, "no outcome before run");
        let report = cluster.run();
        assert_eq!(handle.state(), Some(SideTaskState::Stopped));
        assert_eq!(handle.stop_reason(), Some(StopReason::Finished));
        assert!(handle.steps().unwrap() > 0);
        assert_eq!(
            report.jobs[0].task(handle.id()).unwrap().steps,
            handle.steps().unwrap()
        );
    }

    #[test]
    fn rejected_submissions_are_kept_whole_in_the_report() {
        let report = crate::run_colocation(
            &pipeline(2),
            &FreeRideConfig::iterative(),
            &[
                Submission::new(WorkloadKind::Vgg19).with_batch(256),
                Submission::new(WorkloadKind::PageRank),
            ],
        );
        assert_eq!(report.rejected.len(), 1);
        let r = &report.rejected[0];
        assert_eq!(*r.submission.tag(), WorkloadKind::Vgg19);
        assert_eq!(r.submission.batch(), 256);
        assert!(matches!(r.error, SubmitError::InsufficientMemory { .. }));
        assert_eq!(report.tasks.len(), 1);
    }

    #[test]
    fn cost_report_is_optional() {
        let run = |cost_report: bool| {
            let mut cluster = Cluster::builder()
                .job(ClusterJob::new(pipeline(3)))
                .cost_report(cost_report)
                .build();
            cluster
                .submit_with(
                    Submission::new(WorkloadKind::PageRank),
                    SubmitOptions::new(),
                )
                .unwrap();
            cluster.run().jobs.remove(0)
        };
        let with = run(true);
        assert!(with.cost.is_some());
        assert!(with.baseline_time.is_some());
        let without = run(false);
        assert!(without.cost.is_none());
        assert_eq!(with.total_time, without.total_time, "same physics");
    }

    #[test]
    fn step_time_override_composes_with_batch_in_any_order() {
        let base = || {
            Submission::custom("x", MemBytes::from_gib(1), |seed| {
                WorkloadKind::PageRank.build(seed)
            })
        };
        let step = SimDuration::from_millis(5);
        let a = base().with_step_time(step).with_batch(128);
        let b = base().with_batch(128).with_step_time(step);
        let pa = a.profile().unwrap();
        let pb = b.profile().unwrap();
        assert_eq!(pa, pb, "builder order must not change the profile");
        assert_eq!(pa.step_server1, step, "override survives with_batch");
        // The platform scaling matches WorkloadProfile::custom exactly.
        let reference = WorkloadProfile::custom(MemBytes::from_gib(1), step);
        assert_eq!(pa.step_server2, reference.step_server2);
        assert_eq!(pa.step_cpu, reference.step_cpu);
    }

    #[test]
    #[should_panic(expected = "per-step duration must be positive")]
    fn zero_step_time_is_rejected_eagerly() {
        let _ = Submission::custom("x", MemBytes::from_gib(1), |seed| {
            WorkloadKind::PageRank.build(seed)
        })
        .with_step_time(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "per-step duration must be positive")]
    fn zero_step_profile_is_rejected_eagerly() {
        let mut profile =
            WorkloadProfile::custom(MemBytes::from_gib(1), SimDuration::from_millis(5));
        profile.step_server1 = SimDuration::ZERO;
        let _ = Submission::new(WorkloadKind::PageRank).with_profile(profile);
    }
}
