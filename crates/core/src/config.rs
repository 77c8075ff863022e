//! FreeRide middleware configuration.

use freeride_gpu::MemBytes;
use freeride_pipeline::ScheduleKind;
use freeride_sim::SimDuration;

/// Which of the paper's two programming interfaces a side task uses (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceKind {
    /// Step-wise tasks; the interface checks state transitions between
    /// steps and applies the program-directed time limit. Lower overhead.
    Iterative,
    /// `RunGpuWorkload()` tasks paused via `SIGTSTP`/`SIGCONT`; in-flight
    /// CUDA kernels cannot be revoked, so some execution overlaps training.
    /// More versatile, higher overhead.
    Imperative,
}

impl core::fmt::Display for InterfaceKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InterfaceKind::Iterative => write!(f, "iterative"),
            InterfaceKind::Imperative => write!(f, "imperative"),
        }
    }
}

/// How side tasks are co-located with pipeline training (§6.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColocationMode {
    /// FreeRide: side tasks run only during bubbles.
    FreeRide(InterfaceKind),
    /// Baseline: CUDA MPS with training at high priority; side tasks run
    /// continuously.
    Mps,
    /// Baseline: naive co-location (no MPS); the driver time-slices.
    Naive,
}

impl core::fmt::Display for ColocationMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ColocationMode::FreeRide(i) => write!(f, "freeride-{i}"),
            ColocationMode::Mps => write!(f, "mps"),
            ColocationMode::Naive => write!(f, "naive"),
        }
    }
}

/// Tunables of the FreeRide middleware.
///
/// Defaults reproduce the paper's deployment; the ablation benches sweep
/// the interesting ones (grace period, RPC latency, safety margin).
#[derive(Debug, Clone)]
pub struct FreeRideConfig {
    /// Co-location mode (FreeRide iterative/imperative, MPS, naive).
    pub mode: ColocationMode,
    /// Base one-way RPC latency between components (gRPC over loopback).
    pub rpc_latency: SimDuration,
    /// Relative jitter of RPC latency (0 disables).
    pub rpc_jitter: f64,
    /// Grace period of the framework-enforced mechanism: after
    /// `PauseSideTask` (or `InitSideTask`), a task that has not updated its
    /// `last_paused` timestamp within this period is `SIGKILL`ed (§4.5).
    pub grace_period: SimDuration,
    /// Program-directed limit: a step is started only if the remaining
    /// bubble time exceeds the profiled step duration plus this margin.
    pub step_safety_margin: SimDuration,
    /// Iterative-interface bookkeeping time between steps (state check +
    /// transition polling); accounted as *FreeRide runtime* in Fig. 9.
    pub step_gap: SimDuration,
    /// Per-reported-bubble cost charged to the training process by the
    /// instrumentation (§4.6).
    pub instrumentation_overhead: SimDuration,
    /// Extra MPS memory-cap headroom above the profiled task footprint.
    pub mem_cap_headroom: MemBytes,
    /// GPU-side context-load bandwidth for `InitSideTask` (bytes/sec as
    /// GiB/s): init duration = footprint / bandwidth.
    pub init_bandwidth_gib_s: f64,
    /// Root seed for all randomness (RPC jitter, workload data).
    pub seed: u64,
    /// Pipeline schedule to train with (1F1B is DeepSpeed's default;
    /// GPipe is the schedule ablation).
    pub schedule: ScheduleKind,
}

impl FreeRideConfig {
    /// The paper's deployment defaults for a given mode.
    pub fn new(mode: ColocationMode) -> Self {
        FreeRideConfig {
            mode,
            rpc_latency: SimDuration::from_micros(120),
            rpc_jitter: 0.2,
            grace_period: SimDuration::from_millis(500),
            step_safety_margin: SimDuration::from_millis(5),
            step_gap: SimDuration::from_micros(300),
            instrumentation_overhead: SimDuration::from_millis(6),
            mem_cap_headroom: MemBytes::from_mib(512),
            init_bandwidth_gib_s: 8.0,
            seed: 0xF1EE,
            schedule: ScheduleKind::OneFOneB,
        }
    }

    /// Overrides the pipeline schedule (builder style; ablation).
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// FreeRide with the iterative interface (the recommended deployment).
    pub fn iterative() -> Self {
        Self::new(ColocationMode::FreeRide(InterfaceKind::Iterative))
    }

    /// FreeRide with the imperative interface.
    pub fn imperative() -> Self {
        Self::new(ColocationMode::FreeRide(InterfaceKind::Imperative))
    }

    /// The MPS co-location baseline.
    pub fn mps_baseline() -> Self {
        Self::new(ColocationMode::Mps)
    }

    /// The naive co-location baseline.
    pub fn naive_baseline() -> Self {
        Self::new(ColocationMode::Naive)
    }

    /// Overrides the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the co-location mode (builder style).
    pub fn with_mode(mut self, mode: ColocationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Validates tunables.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive grace period (the grace check would spin
    /// at zero), a non-positive init bandwidth or an RPC jitter outside
    /// `[0, 1)`.
    pub fn validate(&self) {
        assert!(
            !self.grace_period.is_zero(),
            "grace period must be positive"
        );
        assert!(
            self.init_bandwidth_gib_s > 0.0,
            "init bandwidth must be positive"
        );
        assert!((0.0..1.0).contains(&self.rpc_jitter), "jitter out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_modes() {
        assert_eq!(
            FreeRideConfig::iterative().mode,
            ColocationMode::FreeRide(InterfaceKind::Iterative)
        );
        assert_eq!(
            FreeRideConfig::imperative().mode,
            ColocationMode::FreeRide(InterfaceKind::Imperative)
        );
        assert_eq!(FreeRideConfig::mps_baseline().mode, ColocationMode::Mps);
        assert_eq!(FreeRideConfig::naive_baseline().mode, ColocationMode::Naive);
    }

    #[test]
    fn defaults_validate() {
        FreeRideConfig::iterative().validate();
        FreeRideConfig::mps_baseline().validate();
    }

    #[test]
    #[should_panic(expected = "grace period")]
    fn zero_grace_rejected() {
        let mut c = FreeRideConfig::iterative();
        c.grace_period = SimDuration::ZERO;
        c.validate();
    }

    #[test]
    fn display_modes() {
        assert_eq!(
            ColocationMode::FreeRide(InterfaceKind::Iterative).to_string(),
            "freeride-iterative"
        );
        assert_eq!(ColocationMode::Mps.to_string(), "mps");
        assert_eq!(ColocationMode::Naive.to_string(), "naive");
    }

    #[test]
    fn with_seed_overrides() {
        assert_eq!(FreeRideConfig::iterative().with_seed(9).seed, 9);
    }

    #[test]
    fn with_mode_overrides() {
        assert_eq!(
            FreeRideConfig::iterative()
                .with_mode(ColocationMode::Mps)
                .mode,
            ColocationMode::Mps
        );
    }
}
