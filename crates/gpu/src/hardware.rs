//! Hardware specifications: per-device GPU models for heterogeneous
//! fleets.
//!
//! The paper evaluates on a homogeneous server (four RTX 6000 Ada GPUs),
//! but the middleware's value claim — harvesting bubbles on whatever GPUs
//! a cluster happens to have — extends to mixed fleets. A [`HardwareSpec`]
//! describes one device: its memory capacity, its *relative compute
//! speed* (how fast it retires kernel solo-time compared to the paper's
//! reference GPU), and a pluggable [`GpuModelFactory`] that supplies the
//! sharing/interference backend. Shipped presets cover common data-center
//! parts; [`HardwareSpec::custom`] is the escape hatch for anything else.
//!
//! Speeds are *relative dense-training throughput* with the paper's
//! Server-I (RTX 6000 Ada) at `1.0`. They scale every kernel on the
//! device — pipeline-training operations and side-task steps alike — so a
//! fleet mixing fast and slow parts produces genuinely different bubble
//! shapes and side-task harvests per worker.

use crate::device::GpuDevice;
use crate::ids::GpuId;
use crate::interference::{InterferenceModel, MpsPrioritized, TimeSliced};
use crate::memory::MemBytes;
use std::sync::Arc;

/// How co-located processes are to share a device — selected by the
/// middleware's co-location *mode*, satisfied by the device's
/// [`GpuModelFactory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingKind {
    /// MPS-style sharing with training priority (FreeRide and the MPS
    /// baseline).
    Prioritized,
    /// Driver time-slicing of whole process contexts (the naive
    /// co-location baseline).
    TimeSliced,
}

/// Builds the interference backend for one device.
///
/// The factory is consulted once per device at simulation setup with the
/// [`SharingKind`] the co-location mode requires; custom hardware can
/// substitute its own [`InterferenceModel`] (e.g. a calibrated model of a
/// specific part) while presets fall back to [`DefaultGpuModel`].
pub trait GpuModelFactory: Send + Sync {
    /// Short backend name for diagnostics.
    fn name(&self) -> &'static str;

    /// Instantiates the interference model for the requested sharing
    /// regime.
    fn build(&self, sharing: SharingKind) -> Box<dyn InterferenceModel>;
}

/// The stock backend: [`MpsPrioritized`] under
/// [`SharingKind::Prioritized`], [`TimeSliced`] under
/// [`SharingKind::TimeSliced`] — exactly what every device used before
/// hardware became pluggable.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultGpuModel;

impl GpuModelFactory for DefaultGpuModel {
    fn name(&self) -> &'static str {
        "default"
    }

    fn build(&self, sharing: SharingKind) -> Box<dyn InterferenceModel> {
        match sharing {
            SharingKind::Prioritized => Box::new(MpsPrioritized::default()),
            SharingKind::TimeSliced => Box::new(TimeSliced),
        }
    }
}

/// One GPU's hardware description: memory capacity, relative compute
/// speed, and the interference backend factory.
///
/// ```
/// use freeride_gpu::{HardwareSpec, GpuId, KernelSpec, MemBytes, Priority,
///                    SharingKind};
/// use freeride_sim::{SimDuration, SimTime};
///
/// // An H100 runs the same kernel ~1.9x faster than the paper's
/// // reference RTX 6000 Ada.
/// let h100 = HardwareSpec::h100_80g();
/// assert_eq!(h100.memory(), MemBytes::from_gib(80));
///
/// let mut gpu = h100.build_device(GpuId(0), SharingKind::Prioritized);
/// let p = gpu.register_process("side", Priority::Low, None);
/// gpu.launch(SimTime::ZERO, KernelSpec::new(
///     p, SimDuration::from_millis(190), 1.0, Priority::Low, "step"))
///     .unwrap();
/// // 190 ms of reference solo-time retires in 100 ms on the H100.
/// assert_eq!(gpu.next_completion_time(),
///            Some(SimTime::from_millis(100)));
/// ```
#[derive(Clone)]
pub struct HardwareSpec {
    name: Arc<str>,
    memory: MemBytes,
    compute_speed: f64,
    factory: Arc<dyn GpuModelFactory>,
}

impl core::fmt::Debug for HardwareSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HardwareSpec")
            .field("name", &self.name)
            .field("memory", &self.memory)
            .field("compute_speed", &self.compute_speed)
            .field("model", &self.factory.name())
            .finish()
    }
}

impl HardwareSpec {
    /// A fully custom device: `name` for reports, `memory` capacity, and
    /// `compute_speed` relative to the paper's reference GPU (`1.0`).
    /// Uses the [`DefaultGpuModel`] backend; swap it with
    /// [`HardwareSpec::with_model_factory`].
    ///
    /// # Panics
    ///
    /// Panics unless `compute_speed` is finite and positive, and `memory`
    /// non-zero.
    pub fn custom(name: impl Into<Arc<str>>, memory: MemBytes, compute_speed: f64) -> Self {
        assert!(
            compute_speed.is_finite() && compute_speed > 0.0,
            "compute speed must be finite and positive, got {compute_speed}"
        );
        assert!(!memory.is_zero(), "a GPU needs memory");
        HardwareSpec {
            name: name.into(),
            memory,
            compute_speed,
            factory: Arc::new(DefaultGpuModel),
        }
    }

    /// The paper's reference GPU (Server-I): RTX 6000 Ada, 48 GiB — the
    /// implicit hardware of every pre-hardware-API simulation, and the
    /// `1.0` speed anchor.
    pub fn rtx6000ada_48g() -> Self {
        Self::custom("rtx6000ada-48g", MemBytes::from_gib(48), 1.0)
    }

    /// A100 40 GiB-class profile.
    pub fn a100_40g() -> Self {
        Self::custom("a100-40g", MemBytes::from_gib(40), 1.05)
    }

    /// A100 80 GiB-class profile.
    pub fn a100_80g() -> Self {
        Self::custom("a100-80g", MemBytes::from_gib(80), 1.1)
    }

    /// H100 80 GiB-class profile.
    pub fn h100_80g() -> Self {
        Self::custom("h100-80g", MemBytes::from_gib(80), 1.9)
    }

    /// L4 24 GiB-class profile (inference/budget part: little memory,
    /// modest throughput).
    pub fn l4_24g() -> Self {
        Self::custom("l4-24g", MemBytes::from_gib(24), 0.35)
    }

    /// Every shipped preset, fastest first (for sweeps and docs).
    pub fn presets() -> Vec<HardwareSpec> {
        vec![
            Self::h100_80g(),
            Self::a100_80g(),
            Self::a100_40g(),
            Self::rtx6000ada_48g(),
            Self::l4_24g(),
        ]
    }

    /// Overrides the memory capacity (builder style).
    ///
    /// # Panics
    ///
    /// Panics on zero memory.
    pub fn with_memory(mut self, memory: MemBytes) -> Self {
        assert!(!memory.is_zero(), "a GPU needs memory");
        self.memory = memory;
        self
    }

    /// Overrides the relative compute speed (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `speed` is finite and positive.
    pub fn with_compute_speed(mut self, speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "compute speed must be finite and positive, got {speed}"
        );
        self.compute_speed = speed;
        self
    }

    /// Replaces the interference backend factory (builder style).
    pub fn with_model_factory(mut self, factory: impl GpuModelFactory + 'static) -> Self {
        self.factory = Arc::new(factory);
        self
    }

    /// Device name carried into reports and traces.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Memory capacity.
    pub fn memory(&self) -> MemBytes {
        self.memory
    }

    /// Relative compute speed (reference GPU = `1.0`).
    pub fn compute_speed(&self) -> f64 {
        self.compute_speed
    }

    /// The interference backend factory in effect.
    pub fn model_factory(&self) -> &Arc<dyn GpuModelFactory> {
        &self.factory
    }

    /// Builds the simulated device this spec describes, under the sharing
    /// regime the co-location mode requires.
    pub fn build_device(&self, id: GpuId, sharing: SharingKind) -> GpuDevice {
        GpuDevice::new(id, self.memory, self.factory.build(sharing))
            .with_compute_speed(self.compute_speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelSpec, Priority};
    use freeride_sim::{SimDuration, SimTime};

    #[test]
    fn presets_carry_published_capacities() {
        assert_eq!(
            HardwareSpec::rtx6000ada_48g().memory(),
            MemBytes::from_gib(48)
        );
        assert_eq!(HardwareSpec::a100_40g().memory(), MemBytes::from_gib(40));
        assert_eq!(HardwareSpec::a100_80g().memory(), MemBytes::from_gib(80));
        assert_eq!(HardwareSpec::h100_80g().memory(), MemBytes::from_gib(80));
        assert_eq!(HardwareSpec::l4_24g().memory(), MemBytes::from_gib(24));
        // The reference part anchors the speed scale.
        assert_eq!(HardwareSpec::rtx6000ada_48g().compute_speed(), 1.0);
        assert!(HardwareSpec::h100_80g().compute_speed() > 1.0);
        assert!(HardwareSpec::l4_24g().compute_speed() < 1.0);
        assert_eq!(HardwareSpec::presets().len(), 5);
    }

    #[test]
    fn builders_override_fields() {
        let spec = HardwareSpec::rtx6000ada_48g()
            .with_memory(MemBytes::from_gib(96))
            .with_compute_speed(2.5);
        assert_eq!(spec.memory(), MemBytes::from_gib(96));
        assert_eq!(spec.compute_speed(), 2.5);
        assert_eq!(spec.name(), "rtx6000ada-48g");
        assert_eq!(spec.model_factory().name(), "default");
        let dbg = format!("{spec:?}");
        assert!(
            dbg.contains("rtx6000ada-48g") && dbg.contains("2.5"),
            "{dbg}"
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_speed_rejected() {
        let _ = HardwareSpec::custom("bad", MemBytes::from_gib(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "needs memory")]
    fn zero_memory_rejected() {
        let _ = HardwareSpec::custom("bad", MemBytes::ZERO, 1.0);
    }

    #[test]
    fn default_factory_matches_sharing_kind() {
        let f = DefaultGpuModel;
        assert_eq!(f.build(SharingKind::Prioritized).name(), "mps-prioritized");
        assert_eq!(f.build(SharingKind::TimeSliced).name(), "time-sliced");
    }

    #[test]
    fn custom_factory_is_used() {
        struct AlwaysSliced;
        impl GpuModelFactory for AlwaysSliced {
            fn name(&self) -> &'static str {
                "always-sliced"
            }
            fn build(&self, _sharing: SharingKind) -> Box<dyn InterferenceModel> {
                Box::new(TimeSliced)
            }
        }
        let spec = HardwareSpec::rtx6000ada_48g().with_model_factory(AlwaysSliced);
        let dev = spec.build_device(GpuId(3), SharingKind::Prioritized);
        assert_eq!(dev.model_name(), "time-sliced");
        assert_eq!(spec.model_factory().name(), "always-sliced");
    }

    #[test]
    fn reference_device_is_byte_identical_to_plain_construction() {
        // The paper-default path must not change: a reference-spec device
        // and a hand-built one retire the same kernel at the same instant.
        let mut a = HardwareSpec::rtx6000ada_48g().build_device(GpuId(0), SharingKind::Prioritized);
        let mut b = GpuDevice::new(
            GpuId(0),
            MemBytes::from_gib(48),
            Box::new(MpsPrioritized::default()),
        );
        for d in [&mut a, &mut b] {
            let train = d.register_process("train", Priority::High, None);
            let side = d.register_process("side", Priority::Low, None);
            d.launch(
                SimTime::ZERO,
                KernelSpec::new(
                    train,
                    SimDuration::from_millis(100),
                    1.0,
                    Priority::High,
                    "t",
                ),
            )
            .unwrap();
            d.launch(
                SimTime::ZERO,
                KernelSpec::new(side, SimDuration::from_millis(30), 0.5, Priority::Low, "s"),
            )
            .unwrap();
        }
        assert_eq!(a.next_completion_time(), b.next_completion_time());
        let ca = a.advance_through(SimTime::from_millis(500));
        let cb = b.advance_through(SimTime::from_millis(500));
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(&cb) {
            assert_eq!(x.finished_at, y.finished_at);
            assert_eq!(x.stretch, y.stretch);
        }
    }

    #[test]
    fn faster_device_finishes_sooner_under_contention_too() {
        let run = |spec: HardwareSpec| {
            let mut d = spec.build_device(GpuId(0), SharingKind::Prioritized);
            let train = d.register_process("train", Priority::High, None);
            let side = d.register_process("side", Priority::Low, None);
            d.launch(
                SimTime::ZERO,
                KernelSpec::new(
                    train,
                    SimDuration::from_millis(100),
                    1.0,
                    Priority::High,
                    "t",
                ),
            )
            .unwrap();
            d.launch(
                SimTime::ZERO,
                KernelSpec::new(side, SimDuration::from_millis(30), 0.5, Priority::Low, "s"),
            )
            .unwrap();
            let done = d.advance_through(SimTime::from_secs_f64(10.0));
            done.iter().map(|c| c.finished_at).max().unwrap()
        };
        let reference = run(HardwareSpec::rtx6000ada_48g());
        let h100 = run(HardwareSpec::h100_80g());
        let l4 = run(HardwareSpec::l4_24g());
        assert!(h100 < reference, "{h100} !< {reference}");
        assert!(l4 > reference, "{l4} !> {reference}");
    }
}
