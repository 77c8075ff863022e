//! # freeride-core — the FreeRide middleware
//!
//! This crate is the paper's primary contribution, reproduced in full:
//!
//! * the **side-task state machine** of Fig. 4 ([`SideTaskState`],
//!   [`Transition`]);
//! * the **iterative and imperative programming interfaces** of §4.2
//!   (worker-driven stepping with the program-directed remaining-time
//!   check, and signal-style pausing with unstoppable in-flight kernels);
//! * the **side-task manager** of §4.4, implementing Algorithms 1 and 2
//!   verbatim ([`SideTaskManager`]);
//! * per-GPU **side-task workers** with MPS memory caps, process-kill
//!   isolation, and the **framework-enforced grace-period kill** of §4.5
//!   ([`Worker`]);
//! * the **`Cluster` API** ([`Cluster`]), the one way into the
//!   middleware: N pipeline-training jobs — each with its own pipeline,
//!   seed, and mode — advancing in **one** deterministic simulation
//!   behind a single cluster-wide admission plane. A single-job run is a
//!   one-job cluster. [`Cluster::submit_with`] accepts [`Submission`]s
//!   at any simulated time (online arrivals), including **custom
//!   workloads** via [`Submission::custom`], hands back
//!   [`ClusterTaskHandle`]s for per-task outcome lookup, and reports
//!   typed [`SubmitError`]s instead of a unit rejection. Pluggable
//!   [`PlacementPolicy`] routing ([`FirstFit`], [`BestFitMemory`],
//!   [`LeastLoaded`], [`FastestFit`], [`MinTasksJob`]) spills over
//!   across jobs on memory pressure, and a [`ClusterReport`] aggregates
//!   one [`DeploymentReport`] per job plus fleet-level metrics;
//! * the **chaos layer**: a deterministic [`FaultPlan`] per job (worker
//!   crashes, stragglers, transient OOM windows, RPC latency spikes)
//!   plus three composable resilience mechanisms — retry-with-backoff
//!   ([`RetryPolicy`]), side-task checkpoint/restart
//!   ([`ClusterJob::checkpoint`]), and a per-worker [`CircuitBreaker`]
//!   wrapping any placement policy;
//! * the **service front-end** ([`SubmitMiddleware`]): an onion-model
//!   middleware chain on the cluster's submit path — admission control
//!   ([`AdmissionControl`]), per-tenant quotas ([`TenantQuota`]),
//!   sim-time token-bucket rate limiting ([`RateLimit`]), priority
//!   tagging, deadline enforcement, and a metrics layer
//!   ([`ServiceMetrics`]) reporting latency-to-placement histograms and
//!   per-tenant/per-layer rejection counts in
//!   [`ClusterReport::service`];
//! * the **health subsystem** ([`Supervisor`]): a deterministic
//!   sim-time failure detector ([`FailureDetector`]) fed by worker
//!   heartbeat RPCs, driving `Healthy → Suspect → Dead`
//!   transitions that drain workers ([`WorkerView::health`]), trigger
//!   proactive checkpoint migration off failing workers, and hedge
//!   stragglers with speculative duplicates — all reported in
//!   [`ClusterReport::health`];
//! * the **orchestrator** wiring the instrumented pipeline trainers,
//!   managers, and workers together with RPC messages, each delivered
//!   after one latency draw from a seeded stream all jobs share (driven
//!   by [`Cluster::run`]; the batch helper [`run_colocation`] runs a
//!   one-job cluster for the paper-experiment binaries);
//! * the **baselines** of §6.1.2 (MPS and naive co-location) and the
//!   **metrics** of §6.1.5 (time increase `I`, cost savings `S`, Fig. 9
//!   bubble accounting);
//! * the **observability seams** into [`freeride_obs`]: arming a
//!   [`TraceSink`] via [`ClusterBuilder::trace`]
//!   records every placement, middleware verdict, manager command, task
//!   lifecycle transition, step, fault window, and health transition at
//!   its exact simulated time (summarised in
//!   [`ClusterReport::trace_summary`]); [`ClusterBuilder::profile`]
//!   attributes events and wall-time per subsystem into
//!   [`ClusterReport::profile`]. Both are strictly passive: armed runs
//!   replay the unobserved event stream byte-for-byte.
//!
//! ## Example: harvest bubbles with four PageRank side tasks
//!
//! ```
//! use freeride_core::{Cluster, ClusterJob, Submission, SubmitOptions};
//! use freeride_pipeline::{ModelSpec, PipelineConfig};
//! use freeride_tasks::WorkloadKind;
//!
//! let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
//!     .with_epochs(3);
//! let mut cluster = Cluster::builder().job(ClusterJob::new(pipeline)).build();
//! for sub in Submission::per_worker(WorkloadKind::PageRank, 4) {
//!     cluster
//!         .submit_with(sub, SubmitOptions::new())
//!         .expect("fits bubble memory");
//! }
//! let report = cluster.run();
//! let cost = report.jobs[0].cost.expect("cost report enabled by default");
//! assert!(cost.time_increase < 0.05, "FreeRide overhead stays low");
//! assert!(cost.cost_savings > 0.0, "harvesting bubbles pays");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod deployment;
mod fault;
mod health;
mod manager;
mod metrics;
mod orchestrator;
mod service;
mod state;
mod task;
mod worker;

pub use cluster::{
    BestFitMemory, BreakerState, Cluster, ClusterBuilder, ClusterJob, ClusterReport,
    ClusterTaskHandle, ClusterView, FastestFit, FirstFit, JobView, LeastLoaded, MinTasksJob,
    Placement, PlacementPolicy, WorkerView,
};
pub use config::{ColocationMode, FreeRideConfig, InterfaceKind};
pub use deployment::{DeploymentReport, RejectedSubmission, Submission};
pub use fault::{CircuitBreaker, FaultEvent, FaultKind, FaultPlan, RetryPolicy, SubmitOptions};
pub use health::{
    FailureDetector, HealthReport, HealthState, HealthTransition, Recovery, RecoveryKind,
    Supervisor, SupervisorConfig,
};
pub use manager::{ManagerCmd, SideTaskManager, SubmitError, WorkerMeta, WorkerPolicy};
pub use metrics::{
    evaluate, time_increase, BreakdownFractions, BubbleBreakdown, CostReport, TaskWork,
};
pub use orchestrator::{run_baseline, run_baseline_with, run_colocation, TaskSummary};
pub use service::{
    AdmissionControl, DeadlineLayer, LatencyHistogram, LayerReport, Next, PriorityTag, RateLimit,
    RateLimitMode, ServiceMetrics, ServiceReport, SubmitMiddleware, TenantQuota, TenantStats,
    DEFAULT_TENANT,
};
pub use state::{next_state, IllegalTransition, SideTaskState, StateMachine, Transition};
pub use task::{Misbehavior, SideTask, StopReason, TaskId};
pub use worker::{Worker, WorkerAccounting, WorkerEffect};

// Observability vocabulary used in this crate's public API
// ([`ClusterBuilder::trace`]/[`ClusterReport`]), re-exported so callers
// need not name `freeride_obs` for the common paths.
pub use freeride_obs::{
    ProfileReport, ProfileRow, SimTracer, TraceEvent, TraceEventKind, TraceSink, TraceSummary,
};
