//! # FreeRide — harvesting bubbles in pipeline parallelism
//!
//! A from-scratch Rust reproduction of *"FreeRide: Harvesting Bubbles in
//! Pipeline Parallelism"* (ACM Middleware 2025): a middleware that runs
//! generic GPU *side tasks* inside the bubbles of pipeline-parallel LLM
//! training with ~1% overhead, plus every substrate the paper depends on
//! (simulated multi-GPU server, DeepSpeed-style pipeline engine, CUDA-MPS
//! sharing semantics, gRPC messages as seeded latencies, and the six
//! evaluation workloads).
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `freeride-sim` | deterministic discrete-event engine |
//! | [`gpu`] | `freeride-gpu` | simulated GPUs, MPS, memory caps |
//! | [`pipeline`] | `freeride-pipeline` | pipeline training + bubbles |
//! | [`tasks`] | `freeride-tasks` | side-task workloads + profiles |
//! | [`obs`] | `freeride-obs` | sim-time tracing, latency histograms, profiling |
//! | [`core`] | `freeride-core` | the FreeRide middleware itself |
//!
//! ## Quickstart
//!
//! The README's Quickstart drives the one front door, [`core::Cluster`],
//! with online arrivals and the cost report; every Rust block of the
//! README runs as a doctest of this crate. Paper-style batch runs use
//! the one-line helper [`core::run_colocation`], which builds a one-job
//! cluster and submits everything up front:
//!
//! ```
//! use freeride::prelude::*;
//!
//! let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
//!     .with_epochs(2);
//! let report = run_colocation(
//!     &pipeline,
//!     &FreeRideConfig::iterative(),
//!     &Submission::mixed(),
//! );
//! assert!(report.rejected.is_empty());
//! assert!(report.tasks.iter().all(|t| t.steps > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use freeride_core as core;
pub use freeride_gpu as gpu;
pub use freeride_obs as obs;
pub use freeride_pipeline as pipeline;
pub use freeride_sim as sim;
pub use freeride_tasks as tasks;

/// Compiles and runs every Rust block of the README as a doctest, so the
/// README's examples cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use freeride_core::{
        evaluate, run_baseline, run_colocation, time_increase, AdmissionControl, BestFitMemory,
        BreakerState, CircuitBreaker, Cluster, ClusterBuilder, ClusterJob, ClusterReport,
        ClusterTaskHandle, ClusterView, ColocationMode, CostReport, DeadlineLayer,
        DeploymentReport, FailureDetector, FastestFit, FaultEvent, FaultKind, FaultPlan, FirstFit,
        FreeRideConfig, HealthReport, HealthState, HealthTransition, InterfaceKind, JobView,
        LatencyHistogram, LayerReport, LeastLoaded, MinTasksJob, Misbehavior, Next, Placement,
        PlacementPolicy, PriorityTag, RateLimit, RateLimitMode, Recovery, RecoveryKind,
        RejectedSubmission, RetryPolicy, ServiceMetrics, ServiceReport, SideTaskManager,
        SideTaskState, StopReason, Submission, SubmitError, SubmitMiddleware, SubmitOptions,
        Supervisor, SupervisorConfig, TaskId, TaskSummary, TenantQuota, TenantStats, Transition,
        WorkerPolicy, WorkerView, DEFAULT_TENANT,
    };
    pub use freeride_gpu::{GpuDevice, GpuId, HardwareSpec, MemBytes, Priority, SharingKind};
    pub use freeride_obs::{
        ProfileReport, SimTracer, TraceEvent, TraceEventKind, TraceSink, TraceSummary,
    };
    pub use freeride_pipeline::{
        run_training, BubbleKind, BubbleProfile, BubbleReport, ModelSpec, PipelineConfig,
        ScheduleKind,
    };
    pub use freeride_sim::{DetRng, SimDuration, SimTime, Simulation, World};
    pub use freeride_tasks::{
        Arrival, ArrivalProcess, ServerSpec, SideTaskWorkload, TrafficClass, TrafficGen,
        WorkloadFactory, WorkloadKind, WorkloadProfile, WorkloadTag,
    };
}
