//! # freeride-tasks — side-task workloads and their profiles
//!
//! The paper evaluates FreeRide with three classes of side tasks
//! (§6.1.4): model training (ResNet18/50, VGG19), graph analytics
//! (PageRank, Graph SGD from Gardenia over Orkut), and image processing
//! (nvJPEG resize + watermark). This crate provides:
//!
//! * **Real computations** for each class — a dense NN trained by manual
//!   backprop, PageRank and SGD matrix factorisation over synthetic
//!   power-law graphs, and bilinear resize + watermark over synthetic
//!   images — wrapped in the step-wise [`SideTaskWorkload`] trait the
//!   middleware drives;
//! * **Calibrated profiles** ([`WorkloadProfile`]) carrying each task's
//!   GPU memory, per-step duration per platform, and interference
//!   characteristics, calibrated to the paper's measurements;
//! * A **workload factory** abstraction ([`WorkloadFactory`]) so custom
//!   workloads — the paper's Fig. 6 porting exercise — are first-class
//!   submission currency; [`WorkloadKind`] implements it, making the six
//!   built-ins one provider among many;
//! * **Server specs and prices** for the cost-savings metric;
//! * An **open-loop traffic generator** ([`TrafficGen`]): deterministic,
//!   seeded arrival processes (Poisson, bursty ON/OFF, diurnal) over
//!   multi-tenant workload mixes, feeding the service front-end in
//!   `freeride-core`.
//!
//! ## Example
//!
//! ```
//! use freeride_tasks::{WorkloadKind, SideTaskWorkload};
//!
//! let mut task = WorkloadKind::PageRank.build(42);
//! task.create();     // host memory (CREATED)
//! task.init_gpu();   // GPU memory (PAUSED)
//! let delta = task.run_step();
//! assert!(delta > 0.0);
//!
//! let profile = WorkloadKind::ResNet18.profile();
//! assert!((profile.gpu_mem.as_gib_f64() - 2.63).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod factory;
mod graph;
mod image;
mod nn;
mod profiles;
mod traffic;
mod workload;

pub use cost::ServerSpec;
pub use factory::{WorkloadFactory, WorkloadTag};
pub use graph::{CsrGraph, GraphSgd, PageRank};
pub use image::{Image, ImagePipeline};
pub use nn::{Matrix, NnTraining};
pub use profiles::{WorkloadKind, WorkloadProfile, DEFAULT_BATCH};
pub use traffic::{Arrival, ArrivalProcess, TrafficClass, TrafficGen};
pub use workload::{GraphSgdTask, ImageTask, NnTrainingTask, PageRankTask, SideTaskWorkload};
