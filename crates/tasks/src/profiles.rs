//! Calibrated performance profiles of the paper's six side tasks.
//!
//! The FreeRide profiler (paper §4.3) measures two things per side task:
//! GPU memory consumption and per-step duration. On real hardware those
//! come from running the task; here they are calibration constants taken
//! from the paper:
//!
//! * **ResNet18**: 2.63 GB, 30.4 ms per iteration at batch 64 (§2.3);
//! * the other workloads' step times and memory are set so Table 1's
//!   throughput ratios and Table 2's overhead ordering reproduce;
//! * `sm_demand` calibrates the *naive co-location* slowdown band
//!   (45–64%, Table 2), and `mps_intensity` the *MPS* slowdown — with
//!   Graph SGD's atomic-heavy kernels at an intensity ≫ 1 reproducing the
//!   231% anomaly.
//!
//! The `step_server2`/`step_cpu` multipliers encode the relative speed of
//! the paper's RTX 3080 (Server-II) and 8-core Xeon (Server-CPU).

use crate::workload::{GraphSgdTask, ImageTask, NnTrainingTask, PageRankTask, SideTaskWorkload};
use freeride_gpu::MemBytes;
use freeride_sim::SimDuration;

/// The paper's six side-task workloads (§6.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// ResNet18 training (torchvision stand-in).
    ResNet18,
    /// ResNet50 training.
    ResNet50,
    /// VGG19 training.
    Vgg19,
    /// Gardenia PageRank over an Orkut-like graph.
    PageRank,
    /// Gardenia Graph SGD (matrix factorisation).
    GraphSgd,
    /// nvJPEG-style image resize + watermark.
    ImageProc,
}

impl WorkloadKind {
    /// All six workloads in the paper's presentation order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::ResNet18,
        WorkloadKind::ResNet50,
        WorkloadKind::Vgg19,
        WorkloadKind::PageRank,
        WorkloadKind::GraphSgd,
        WorkloadKind::ImageProc,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ResNet18 => "ResNet18",
            WorkloadKind::ResNet50 => "ResNet50",
            WorkloadKind::Vgg19 => "VGG19",
            WorkloadKind::PageRank => "PageRank",
            WorkloadKind::GraphSgd => "Graph SGD",
            WorkloadKind::ImageProc => "Image",
        }
    }

    /// Whether this is a model-training task (the only kind with a batch
    /// size, Fig. 7(a)).
    pub fn is_model_training(self) -> bool {
        matches!(
            self,
            WorkloadKind::ResNet18 | WorkloadKind::ResNet50 | WorkloadKind::Vgg19
        )
    }

    /// Profile at the paper's default batch size (64 for model training).
    pub fn profile(self) -> WorkloadProfile {
        self.profile_with_batch(DEFAULT_BATCH)
    }

    /// Profile at an explicit batch size (model-training tasks only; other
    /// workloads ignore it).
    pub fn profile_with_batch(self, batch: usize) -> WorkloadProfile {
        let base = self.base_profile();
        if !self.is_model_training() || batch == DEFAULT_BATCH {
            return base;
        }
        assert!(batch > 0, "batch size must be positive");
        let b = batch as f64 / DEFAULT_BATCH as f64;
        // Step time: fixed launch overhead + compute linear in batch.
        let step_scale = 0.25 + 0.75 * b;
        // Memory: weights/optimizer constant + activations linear in batch.
        let mem_scale = 0.45 + 0.55 * b;
        WorkloadProfile {
            batch_size: batch,
            gpu_mem: MemBytes::from_gib_f64(base.gpu_mem.as_gib_f64() * mem_scale),
            step_server1: base.step_server1.mul_f64(step_scale),
            step_server2: base.step_server2.mul_f64(step_scale),
            step_cpu: base.step_cpu.mul_f64(step_scale),
            ..base
        }
    }

    fn base_profile(self) -> WorkloadProfile {
        // (step on Server-I, Server-II multiplier, CPU multiplier,
        //  GPU memory, SM demand, MPS intensity)
        let (step1_ms, s2_mult, cpu_mult, mem_gib, demand, intensity) = match self {
            // §2.3: 30.4 ms / 2.63 GB at batch 64.
            WorkloadKind::ResNet18 => (30.4, 1.06, 40.0, 2.63, 0.50, 0.34),
            WorkloadKind::ResNet50 => (91.0, 1.00, 40.0, 2.80, 0.62, 0.32),
            WorkloadKind::Vgg19 => (283.0, 2.04, 110.0, 9.00, 0.53, 0.40),
            WorkloadKind::PageRank => (3.0, 1.87, 21.3, 2.50, 0.45, 0.38),
            WorkloadKind::GraphSgd => (90.0, 1.92, 4.8, 2.70, 0.62, 3.30),
            WorkloadKind::ImageProc => (33.0, 2.09, 10.2, 9.20, 0.46, 0.21),
        };
        let step1 = SimDuration::from_millis_f64(step1_ms);
        WorkloadProfile {
            batch_size: DEFAULT_BATCH,
            gpu_mem: MemBytes::from_gib_f64(mem_gib),
            step_server1: step1,
            step_server2: step1.mul_f64(s2_mult),
            step_cpu: step1.mul_f64(cpu_mult),
            sm_demand: demand,
            mps_intensity: intensity,
        }
    }

    /// Instantiates the real computation behind this workload.
    pub fn build(self, seed: u64) -> Box<dyn SideTaskWorkload> {
        match self {
            WorkloadKind::ResNet18 => {
                Box::new(NnTrainingTask::new("ResNet18", vec![32, 16], 64, seed))
            }
            WorkloadKind::ResNet50 => {
                Box::new(NnTrainingTask::new("ResNet50", vec![64, 32, 16], 64, seed))
            }
            WorkloadKind::Vgg19 => {
                Box::new(NnTrainingTask::new("VGG19", vec![96, 64, 32], 64, seed))
            }
            WorkloadKind::PageRank => Box::new(PageRankTask::new(1000, seed)),
            WorkloadKind::GraphSgd => Box::new(GraphSgdTask::new(seed)),
            WorkloadKind::ImageProc => Box::new(ImageTask::new(seed)),
        }
    }
}

/// The paper's default model-training batch size (§6.2).
pub const DEFAULT_BATCH: usize = 64;

/// What FreeRide's automated profiler reports about a side task
/// (paper §4.3): memory footprint, per-step durations per platform, and
/// the interference characteristics used by the GPU sharing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Batch size the profile was taken at (model training only).
    pub batch_size: usize,
    /// GPU memory footprint; compared against bubble free memory by
    /// Algorithm 1 and enforced by the MPS cap.
    pub gpu_mem: MemBytes,
    /// Per-step duration in bubbles on Server-I's RTX 6000 Ada.
    pub step_server1: SimDuration,
    /// Per-step duration on Server-II's RTX 3080 (cost baseline).
    pub step_server2: SimDuration,
    /// Per-step duration on Server-CPU's 8-core Xeon.
    pub step_cpu: SimDuration,
    /// SM demand of the step kernel, in `(0, 1]`.
    pub sm_demand: f64,
    /// MPS contention intensity (see `freeride-gpu`).
    pub mps_intensity: f64,
}

impl WorkloadProfile {
    /// A profile for a custom workload from the two quantities every
    /// porting exercise knows: GPU footprint and per-step duration on
    /// Server-I. The remaining characteristics default to the middle of
    /// the built-in workloads' bands (Server-II ≈ 1.9× slower, CPU ≈ 20×,
    /// half-GPU SM demand, mild MPS contention); override the public
    /// fields for finer calibration.
    pub fn custom(gpu_mem: MemBytes, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "per-step duration must be positive");
        assert!(!gpu_mem.is_zero(), "GPU footprint must be positive");
        WorkloadProfile {
            batch_size: DEFAULT_BATCH,
            gpu_mem,
            step_server1: step,
            step_server2: step.mul_f64(1.9),
            step_cpu: step.mul_f64(20.0),
            sm_demand: 0.5,
            mps_intensity: 0.4,
        }
    }

    /// Steps per second on Server-II (denominator of the paper's
    /// `C_sideTasks`).
    pub fn throughput_server2(&self) -> f64 {
        1.0 / self.step_server2.as_secs_f64()
    }

    /// Steps per second on Server-CPU.
    pub fn throughput_cpu(&self) -> f64 {
        1.0 / self.step_cpu.as_secs_f64()
    }

    /// Whether the task fits on Server-II's 10 GB RTX 3080; when it does
    /// not, the paper marks the configuration OOM in Fig. 7(a).
    pub fn fits_server2(&self) -> bool {
        self.gpu_mem <= MemBytes::from_gib(10)
    }

    /// Granularity of the individual CUDA kernels the imperative interface
    /// enqueues. A step consists of many kernels; when `PauseSideTask`
    /// lands, only the *kernel* in flight drains (§5), so this quantum
    /// bounds the imperative interface's overlap with training. Scales
    /// with step size (bigger models launch bigger kernels), inversely
    /// with contention intensity (atomic-heavy workloads launch many tiny
    /// kernels).
    pub fn imperative_kernel_quantum(&self) -> SimDuration {
        self.step_server1
            .div_f64(2.0)
            .max(SimDuration::from_millis(8))
            .min(SimDuration::from_millis(80))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_matches_paper_quoted_numbers() {
        let p = WorkloadKind::ResNet18.profile();
        assert_eq!(p.step_server1, SimDuration::from_millis_f64(30.4));
        assert!((p.gpu_mem.as_gib_f64() - 2.63).abs() < 1e-9);
        assert_eq!(p.batch_size, 64);
    }

    #[test]
    fn all_profiles_are_sane() {
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            assert!(p.step_server1 > SimDuration::ZERO, "{kind:?}");
            assert!(
                p.step_server2 >= p.step_server1,
                "{kind:?}: lower tier slower"
            );
            assert!(p.step_cpu > p.step_server2, "{kind:?}: CPU slowest");
            assert!(p.sm_demand > 0.0 && p.sm_demand <= 1.0, "{kind:?}");
            assert!(p.mps_intensity > 0.0, "{kind:?}");
            assert!(!p.gpu_mem.is_zero(), "{kind:?}");
        }
    }

    #[test]
    fn graph_sgd_is_the_contention_outlier() {
        // The paper's 231% MPS anomaly requires Graph SGD's intensity to
        // dwarf every other workload's.
        let sgd = WorkloadKind::GraphSgd.profile().mps_intensity;
        for kind in WorkloadKind::ALL {
            if kind != WorkloadKind::GraphSgd {
                assert!(sgd > 5.0 * kind.profile().mps_intensity, "{kind:?}");
            }
        }
    }

    #[test]
    fn batch_scaling_monotone() {
        let p16 = WorkloadKind::ResNet18.profile_with_batch(16);
        let p64 = WorkloadKind::ResNet18.profile_with_batch(64);
        let p128 = WorkloadKind::ResNet18.profile_with_batch(128);
        assert!(p16.step_server1 < p64.step_server1);
        assert!(p64.step_server1 < p128.step_server1);
        assert!(p16.gpu_mem < p64.gpu_mem);
        assert!(p64.gpu_mem < p128.gpu_mem);
        assert_eq!(p64, WorkloadKind::ResNet18.profile());
    }

    #[test]
    fn batch_ignored_for_non_training() {
        let a = WorkloadKind::PageRank.profile_with_batch(16);
        let b = WorkloadKind::PageRank.profile_with_batch(128);
        assert_eq!(a, b);
    }

    #[test]
    fn vgg_large_batches_oom_on_server2() {
        // Paper Fig. 7(a): OOM cells where the RTX 3080 cannot hold the
        // configuration.
        assert!(WorkloadKind::Vgg19.profile_with_batch(64).fits_server2());
        assert!(!WorkloadKind::Vgg19.profile_with_batch(96).fits_server2());
        assert!(!WorkloadKind::Vgg19.profile_with_batch(128).fits_server2());
        assert!(WorkloadKind::ResNet18
            .profile_with_batch(128)
            .fits_server2());
    }

    #[test]
    fn builders_produce_working_tasks() {
        for kind in WorkloadKind::ALL {
            let mut task = kind.build(1);
            task.create();
            task.init_gpu();
            let v = task.run_step();
            assert!(v.is_finite(), "{kind:?}");
            assert_eq!(task.steps_done(), 1, "{kind:?}");
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "ResNet18",
                "ResNet50",
                "VGG19",
                "PageRank",
                "Graph SGD",
                "Image"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        WorkloadKind::ResNet18.profile_with_batch(0);
    }

    #[test]
    fn custom_profile_keeps_platform_ordering() {
        let p = WorkloadProfile::custom(MemBytes::from_gib(1), SimDuration::from_millis(5));
        assert_eq!(p.gpu_mem, MemBytes::from_gib(1));
        assert_eq!(p.step_server1, SimDuration::from_millis(5));
        assert!(p.step_server2 > p.step_server1, "lower tier slower");
        assert!(p.step_cpu > p.step_server2, "CPU slowest");
        assert!(p.sm_demand > 0.0 && p.sm_demand <= 1.0);
        assert!(p.fits_server2());
    }

    #[test]
    #[should_panic(expected = "per-step duration")]
    fn custom_profile_rejects_zero_step() {
        WorkloadProfile::custom(MemBytes::from_gib(1), SimDuration::ZERO);
    }
}
