//! # freeride-gpu — simulated multi-GPU substrate
//!
//! The FreeRide paper evaluates on a server with four RTX 6000 Ada GPUs,
//! CUDA MPS for memory caps and priority sharing, and Docker for process
//! isolation. This crate is the stand-in for all of that: passive,
//! deterministic GPU devices that execute kernels under a pluggable
//! interference model and enforce per-process MPS memory caps with
//! OOM-kill semantics. The simulator models isolation as that cap plus
//! [`GpuDevice::kill_process`], which frees one process's memory and
//! aborts its kernels without touching any other process, so a failing
//! side task never reaches the training job.
//!
//! The crate is *driver-agnostic*: devices never schedule simulation events
//! themselves. A caller (the pipeline engine or the FreeRide middleware)
//! advances each device to the completion boundaries reported by
//! [`GpuDevice::next_completion_time`].
//!
//! Devices need not be identical: a [`HardwareSpec`] describes one GPU's
//! memory capacity, relative compute speed, and interference backend, with
//! presets for common data-center parts — the substrate for heterogeneous
//! fleets.
//!
//! ## Example: a training kernel stretched by a co-running side kernel
//!
//! ```
//! use freeride_gpu::{GpuDevice, GpuId, KernelSpec, MemBytes, Priority,
//!                    MpsPrioritized};
//! use freeride_sim::{SimDuration, SimTime};
//!
//! let mut gpu = GpuDevice::new(GpuId(0), MemBytes::from_gib(48),
//!                              Box::new(MpsPrioritized::default()));
//! let train = gpu.register_process("train", Priority::High, None);
//! let side = gpu.register_process("side", Priority::Low,
//!                                 Some(MemBytes::from_gib(8)));
//!
//! gpu.launch(SimTime::ZERO, KernelSpec::new(
//!     train, SimDuration::from_millis(100), 1.0, Priority::High, "fp"))
//!     .unwrap();
//! gpu.launch(SimTime::ZERO, KernelSpec::new(
//!     side, SimDuration::from_millis(50), 0.5, Priority::Low, "step"))
//!     .unwrap();
//!
//! let done = gpu.advance_through(SimTime::from_secs_f64(1.0));
//! // Interference stretched the training kernel past its 100ms solo time.
//! let fp = done.iter().find(|c| c.tag == "fp").unwrap();
//! assert!(fp.stretch > SimDuration::from_millis(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod hardware;
mod ids;
mod interference;
mod kernel;
mod memory;

pub use device::{GpuDevice, GpuProcess, LaunchError, OomError, ProcessState};
pub use hardware::{DefaultGpuModel, GpuModelFactory, HardwareSpec, SharingKind};
pub use ids::{GpuId, KernelId, ProcessId};
pub use interference::{InterferenceModel, KernelCtx, MpsPrioritized, TimeSliced, MIN_SPEED};
pub use kernel::{KernelCompletion, KernelSpec, Priority};
pub use memory::{MemBytes, MemoryPool, OomKind};
