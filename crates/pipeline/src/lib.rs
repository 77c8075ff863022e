//! # freeride-pipeline — pipeline-parallel training simulator
//!
//! The DeepSpeed stand-in of the FreeRide reproduction:
//! a pipeline-parallel LLM-training engine with the paper's three model
//! configurations (1.2B / 3.6B / 6B nanoGPT), DeepSpeed's 1F1B schedule
//! plus GPipe, per-stage memory accounting, and — crucially — the same
//! bubble instrumentation the paper adds to DeepSpeed: Type-A/B/C bubble
//! reports delivered to whoever is listening (FreeRide's side-task
//! manager).
//!
//! ## Example: measure the bubble rate of the paper's main setup
//!
//! ```
//! use freeride_pipeline::{ModelSpec, PipelineConfig, ScheduleKind, run_training};
//!
//! let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
//!     .with_epochs(2);
//! let run = run_training(&cfg, ScheduleKind::OneFOneB);
//! // Paper §2.2.2: bubbles are ≈42% of pipeline execution time.
//! assert!(run.bubble_stats.bubble_rate > 0.40);
//! assert!(run.bubble_stats.bubble_rate < 0.44);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bubble;
mod config;
mod engine;
mod runner;
mod schedule;

pub use bubble::{
    BubbleKind, BubbleProfile, BubbleReport, BubbleStats, MeasuredBubble, BUBBLE_REPORT_THRESHOLD,
};
pub use config::{ModelSpec, PipelineConfig, StageId};
pub use engine::{EngineAction, PipelineEngine};
pub use runner::{profile_bubbles, run_training, TrainingRun};
pub use schedule::{Op, OpKind, Schedule, ScheduleKind};
