//! Kernel descriptors and completions.
//!
//! A kernel is the unit of GPU execution: the pipeline engine launches one
//! kernel per FP/BP operation, and side tasks launch one kernel per step
//! (iterative interface) or a stream of kernels (imperative interface).
//!
//! Kernels carry a *solo duration* — how long they take with the device to
//! themselves — and an *SM demand* in `(0, 1]`. When kernels from several
//! processes overlap, the device's [interference model] stretches them.
//!
//! [interference model]: crate::InterferenceModel

use crate::ids::{KernelId, ProcessId};
use freeride_sim::{SimDuration, SimTime};

/// Scheduling priority of a process's kernels under MPS.
///
/// The paper gives pipeline training the highest priority and side tasks a
/// lower one (§6.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Side tasks and other harvesting work.
    Low,
    /// The pipeline-training job.
    High,
}

/// A request to execute work on a device.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Owning process; killed processes drop their queued/active kernels.
    pub process: ProcessId,
    /// Execution time if the kernel ran alone on the device.
    pub solo_duration: SimDuration,
    /// Fraction of the device's SMs the kernel wants, in `(0, 1]`.
    pub sm_demand: f64,
    /// Scheduling priority.
    pub priority: Priority,
    /// Kernel-level contention intensity: how severely this kernel degrades
    /// *other* processes' kernels when co-running under MPS. `1.0` is a
    /// well-behaved kernel; Graph SGD-style atomic-heavy kernels are ≫ 1
    /// (the paper's 231% MPS anomaly, §6.2). Calibrated per workload by the
    /// side-task profiles in `freeride-tasks`.
    pub intensity: f64,
    /// Free-form label used in traces and assertions (e.g. `"fp"`, `"bp"`,
    /// `"resnet18.step"`).
    pub tag: &'static str,
}

impl KernelSpec {
    /// Convenience constructor validating the SM demand.
    ///
    /// # Panics
    ///
    /// Panics if `sm_demand` is outside `(0, 1]` or `solo_duration` is zero.
    pub fn new(
        process: ProcessId,
        solo_duration: SimDuration,
        sm_demand: f64,
        priority: Priority,
        tag: &'static str,
    ) -> Self {
        assert!(
            sm_demand > 0.0 && sm_demand <= 1.0,
            "sm_demand must be in (0, 1], got {sm_demand}"
        );
        assert!(
            !solo_duration.is_zero(),
            "kernel must have positive duration"
        );
        KernelSpec {
            process,
            solo_duration,
            sm_demand,
            priority,
            intensity: 1.0,
            tag,
        }
    }

    /// Overrides the contention intensity (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not positive and finite.
    pub fn with_intensity(mut self, intensity: f64) -> Self {
        assert!(
            intensity.is_finite() && intensity > 0.0,
            "intensity must be positive and finite, got {intensity}"
        );
        self.intensity = intensity;
        self
    }
}

/// A finished kernel, reported by [`GpuDevice::advance_through`].
///
/// [`GpuDevice::advance_through`]: crate::GpuDevice::advance_through
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCompletion {
    /// Which kernel finished.
    pub id: KernelId,
    /// Its owner.
    pub process: ProcessId,
    /// When it finished.
    pub finished_at: SimTime,
    /// When it was launched.
    pub launched_at: SimTime,
    /// Its label.
    pub tag: &'static str,
    /// How much longer it ran than its solo duration because of
    /// interference from co-running kernels.
    pub stretch: SimDuration,
}

impl KernelCompletion {
    /// Total wall-clock (virtual) execution time.
    pub fn elapsed(&self) -> SimDuration {
        self.finished_at - self.launched_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        let s = KernelSpec::new(
            ProcessId(1),
            SimDuration::from_millis(30),
            0.5,
            Priority::Low,
            "step",
        );
        assert_eq!(s.sm_demand, 0.5);
        assert_eq!(s.intensity, 1.0);
        let s = s.with_intensity(4.4);
        assert_eq!(s.intensity, 4.4);
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn bad_intensity_rejected() {
        let s = KernelSpec::new(
            ProcessId(1),
            SimDuration::from_millis(1),
            0.5,
            Priority::Low,
            "x",
        );
        let _ = s.with_intensity(0.0);
    }

    #[test]
    #[should_panic(expected = "sm_demand")]
    fn zero_demand_rejected() {
        KernelSpec::new(
            ProcessId(1),
            SimDuration::from_millis(1),
            0.0,
            Priority::Low,
            "x",
        );
    }

    #[test]
    #[should_panic(expected = "sm_demand")]
    fn over_demand_rejected() {
        KernelSpec::new(
            ProcessId(1),
            SimDuration::from_millis(1),
            1.5,
            Priority::Low,
            "x",
        );
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_rejected() {
        KernelSpec::new(ProcessId(1), SimDuration::ZERO, 0.5, Priority::Low, "x");
    }

    #[test]
    fn completion_elapsed() {
        let c = KernelCompletion {
            id: KernelId(1),
            process: ProcessId(1),
            launched_at: SimTime::from_millis(10),
            finished_at: SimTime::from_millis(45),
            tag: "fp",
            stretch: SimDuration::from_millis(5),
        };
        assert_eq!(c.elapsed(), SimDuration::from_millis(35));
    }
}
