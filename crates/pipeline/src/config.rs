//! Model, timing, and memory configuration for pipeline training.
//!
//! The paper trains nanoGPT variants of 1.2B, 3.6B and 6B parameters with
//! DeepSpeed in a 4-stage pipeline on 48 GB GPUs, always maximising the
//! micro-batch size (§6.1.3). We reproduce the three published
//! configurations as presets whose timing and memory constants are
//! calibrated to the paper's measurements:
//!
//! * bubble rate ≈ 42% at 4 micro-batches, dropping to ≈ 26% at 8;
//! * bubble durations 0.22 s – 1.04 s for the 3.6B model;
//! * free GPU memory < 3 GB at stage 0 up to > 20 GB at stage 3 (3.6B);
//! * larger models ⇒ shorter bubbles with less free memory (Fig. 2a).

use freeride_gpu::{HardwareSpec, MemBytes};
use freeride_sim::SimDuration;

/// Identifies a pipeline stage (0-based, one per GPU).
pub type StageId = usize;

/// A transformer model to be trained with pipeline parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Parameter count in billions (the paper's 1.2 / 3.6 / 6).
    pub params_b: f64,
    /// Forward-propagation time of one micro-batch on one stage, when the
    /// stage has the GPU to itself.
    pub fp_time: SimDuration,
    /// Per-stage, per-micro-batch activation memory. DeepSpeed's 1F1B
    /// keeps up to `stages − s` micro-batches of activations alive on
    /// stage `s`, which is why free memory grows towards later stages
    /// (paper §2.2, Fig. 1(b)).
    pub activation_per_microbatch: MemBytes,
    /// Bytes of weights + gradients + optimizer state + framework runtime
    /// buffers per parameter (≈24 for mixed-precision Adam under
    /// DeepSpeed).
    pub bytes_per_param: f64,
}

impl ModelSpec {
    /// The paper's 1.2B-parameter nanoGPT configuration.
    pub fn nanogpt_1_2b() -> Self {
        ModelSpec {
            params_b: 1.2,
            fp_time: SimDuration::from_millis(200),
            activation_per_microbatch: MemBytes::from_gib_f64(8.4),
            bytes_per_param: 24.0,
        }
    }

    /// The paper's 3.6B-parameter nanoGPT configuration (the headline
    /// setup of §2.2 and the main evaluation).
    pub fn nanogpt_3_6b() -> Self {
        ModelSpec {
            params_b: 3.6,
            fp_time: SimDuration::from_millis(170),
            activation_per_microbatch: MemBytes::from_gib_f64(5.88),
            bytes_per_param: 24.0,
        }
    }

    /// The paper's 6B-parameter nanoGPT configuration.
    pub fn nanogpt_6b() -> Self {
        ModelSpec {
            params_b: 6.0,
            fp_time: SimDuration::from_millis(150),
            activation_per_microbatch: MemBytes::from_gib_f64(2.6),
            bytes_per_param: 24.0,
        }
    }

    /// Preset lookup by parameter count; the paper sweeps {1.2, 3.6, 6}.
    ///
    /// # Panics
    ///
    /// Panics for sizes without a published configuration.
    pub fn by_params_b(params_b: f64) -> Self {
        if (params_b - 1.2).abs() < 1e-9 {
            Self::nanogpt_1_2b()
        } else if (params_b - 3.6).abs() < 1e-9 {
            Self::nanogpt_3_6b()
        } else if (params_b - 6.0).abs() < 1e-9 {
            Self::nanogpt_6b()
        } else {
            panic!("no preset for {params_b}B; the paper evaluates 1.2/3.6/6");
        }
    }

    /// Backward-propagation time: BP ≈ 2×FP (paper §2.2.1, citing its ref. 74).
    pub fn bp_time(&self) -> SimDuration {
        self.fp_time * 2
    }

    /// Weights + gradients + optimizer memory per stage.
    pub fn stage_static_mem(&self, stages: usize) -> MemBytes {
        let gib = self.params_b * self.bytes_per_param / stages as f64;
        MemBytes::from_gib_f64(gib)
    }
}

/// Full configuration of one pipeline-training job.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The model being trained.
    pub model: ModelSpec,
    /// Number of pipeline stages = number of GPUs (the paper uses 4).
    pub stages: usize,
    /// Micro-batches per epoch (the paper uses 4, and 8 in §6.3).
    pub micro_batches: usize,
    /// Training epochs to run (the paper's evaluation uses 128).
    pub epochs: usize,
    /// Optimizer-step time at the end of each epoch per stage.
    pub optimizer_time: SimDuration,
    /// Activation/gradient transfer latency between adjacent stages.
    pub comm_latency: SimDuration,
    /// Fixed per-operation launch overhead (kernel launch + framework).
    pub launch_overhead: SimDuration,
    /// Gap between epochs (data loading, logging) during which all stages
    /// idle.
    pub epoch_gap: SimDuration,
    /// Physical memory of each GPU (48 GB on the paper's Server-I) when
    /// the fleet is homogeneous; per-stage [`HardwareSpec`]s in
    /// [`PipelineConfig::hardware`] override it.
    pub gpu_memory: MemBytes,
    /// Per-stage hardware for heterogeneous fleets (one spec per stage,
    /// in stage order). Empty — the default — means every stage runs the
    /// paper's reference GPU with [`PipelineConfig::gpu_memory`] of
    /// memory, reproducing the pre-hardware behavior byte-for-byte.
    pub hardware: Vec<HardwareSpec>,
}

impl PipelineConfig {
    /// The paper's main configuration: given model, 4 stages, 4
    /// micro-batches.
    ///
    /// The inter-stage transfer latency scales with the model's activation
    /// size (micro-batch sizes are maximised, §6.1.3, so smaller models
    /// ship bigger activations). Because transfers extend bubbles but not
    /// busy time, this is what makes the bubble rate decline slightly with
    /// model size (paper §2.2.2: 42.4% → 40.4%).
    pub fn paper_default(model: ModelSpec) -> Self {
        let comm = SimDuration::from_millis_f64(2.5 * model.activation_per_microbatch.as_gib_f64());
        PipelineConfig {
            model,
            stages: 4,
            micro_batches: 4,
            epochs: 8,
            optimizer_time: SimDuration::from_millis(240),
            comm_latency: comm,
            launch_overhead: SimDuration::from_millis(4),
            epoch_gap: SimDuration::from_millis(60),
            gpu_memory: MemBytes::from_gib(48),
            hardware: Vec::new(),
        }
    }

    /// Overrides the number of micro-batches (builder style).
    pub fn with_micro_batches(mut self, m: usize) -> Self {
        self.micro_batches = m;
        self
    }

    /// Overrides the number of epochs (builder style).
    pub fn with_epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Replaces the whole fleet with per-stage hardware (builder style):
    /// one [`HardwareSpec`] per stage, in stage order. Pass an empty
    /// vector to return to the homogeneous
    /// [`PipelineConfig::gpu_memory`] default.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty `specs` does not have exactly one entry per
    /// stage.
    pub fn with_hardware(mut self, specs: Vec<HardwareSpec>) -> Self {
        assert!(
            specs.is_empty() || specs.len() == self.stages,
            "need one hardware spec per stage: got {} for {} stages",
            specs.len(),
            self.stages
        );
        self.hardware = specs;
        self
    }

    /// Replaces one stage's hardware (builder style). A homogeneous
    /// config is first expanded to the reference fleet, so the other
    /// stages keep today's behavior.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn with_worker_hardware(mut self, stage: StageId, spec: HardwareSpec) -> Self {
        assert!(stage < self.stages, "stage {stage} out of range");
        if self.hardware.is_empty() {
            self.hardware = (0..self.stages).map(|_| self.reference_spec()).collect();
        }
        self.hardware[stage] = spec;
        self
    }

    /// The spec a homogeneous config implies for every stage: the paper's
    /// reference GPU with [`PipelineConfig::gpu_memory`] of memory.
    fn reference_spec(&self) -> HardwareSpec {
        HardwareSpec::rtx6000ada_48g().with_memory(self.gpu_memory)
    }

    /// The hardware of stage `s`: its explicit spec in a heterogeneous
    /// fleet, or the reference GPU at [`PipelineConfig::gpu_memory`].
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn hardware_of(&self, stage: StageId) -> HardwareSpec {
        assert!(stage < self.stages, "stage {stage} out of range");
        self.hardware
            .get(stage)
            .cloned()
            .unwrap_or_else(|| self.reference_spec())
    }

    /// Physical memory of stage `s`'s GPU.
    pub fn device_memory(&self, stage: StageId) -> MemBytes {
        assert!(stage < self.stages, "stage {stage} out of range");
        self.hardware
            .get(stage)
            .map_or(self.gpu_memory, |h| h.memory())
    }

    /// Relative compute speed of stage `s`'s GPU (reference = `1.0`).
    pub fn compute_speed(&self, stage: StageId) -> f64 {
        assert!(stage < self.stages, "stage {stage} out of range");
        self.hardware.get(stage).map_or(1.0, |h| h.compute_speed())
    }

    /// Whether the fleet mixes hardware (explicit per-stage specs).
    pub fn is_heterogeneous(&self) -> bool {
        !self.hardware.is_empty()
    }

    /// Validates structural constraints.
    ///
    /// # Panics
    ///
    /// Panics if stages < 2, micro-batches == 0, or epochs == 0 (pipeline
    /// parallelism — and its bubbles — only exists with ≥ 2 stages), if a
    /// heterogeneous fleet does not supply one spec per stage, or if any
    /// stage's pinned training memory exceeds its GPU's capacity.
    pub fn validate(&self) {
        assert!(self.stages >= 2, "pipeline parallelism needs ≥ 2 stages");
        assert!(self.micro_batches >= 1, "need at least one micro-batch");
        assert!(self.epochs >= 1, "need at least one epoch");
        assert!(
            self.hardware.is_empty() || self.hardware.len() == self.stages,
            "need one hardware spec per stage: got {} for {} stages",
            self.hardware.len(),
            self.stages
        );
        for s in 0..self.stages {
            let need = self.stage_memory(s);
            let have = self.device_memory(s);
            assert!(
                need <= have,
                "stage {s} needs {need} but its GPU ({}) has {have}",
                self.hardware_of(s).name()
            );
        }
    }

    /// Solo duration of one FP operation including launch overhead.
    pub fn fp_op_time(&self) -> SimDuration {
        self.model.fp_time + self.launch_overhead
    }

    /// Solo duration of one BP operation including launch overhead.
    pub fn bp_op_time(&self) -> SimDuration {
        self.model.bp_time() + self.launch_overhead
    }

    /// GPU memory pipeline training pins on stage `s` for the whole run:
    /// static (weights/optimizer) plus activations for the micro-batches
    /// 1F1B keeps in flight (`stages − s`), capped by the micro-batch
    /// count.
    pub fn stage_memory(&self, stage: StageId) -> MemBytes {
        assert!(stage < self.stages, "stage {stage} out of range");
        let in_flight = (self.stages - stage).min(self.micro_batches) as u64;
        let act = MemBytes::from_bytes(self.model.activation_per_microbatch.as_bytes() * in_flight);
        self.model.stage_static_mem(self.stages) + act
    }

    /// Free GPU memory on stage `s` during bubbles — what a side task can
    /// use (paper Fig. 1(b), "Unutilized"). Heterogeneous fleets compute
    /// this against the stage's own device capacity.
    pub fn stage_free_memory(&self, stage: StageId) -> MemBytes {
        self.device_memory(stage)
            .saturating_sub(self.stage_memory(stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_sizes() {
        assert_eq!(ModelSpec::nanogpt_1_2b().params_b, 1.2);
        assert_eq!(ModelSpec::nanogpt_3_6b().params_b, 3.6);
        assert_eq!(ModelSpec::nanogpt_6b().params_b, 6.0);
        assert_eq!(ModelSpec::by_params_b(3.6).params_b, 3.6);
    }

    #[test]
    #[should_panic(expected = "no preset")]
    fn unknown_size_panics() {
        ModelSpec::by_params_b(13.0);
    }

    #[test]
    fn bp_is_twice_fp() {
        let m = ModelSpec::nanogpt_3_6b();
        assert_eq!(m.bp_time(), m.fp_time * 2);
    }

    #[test]
    fn larger_models_have_shorter_ops_and_less_activation_memory() {
        let small = ModelSpec::nanogpt_1_2b();
        let mid = ModelSpec::nanogpt_3_6b();
        let large = ModelSpec::nanogpt_6b();
        assert!(small.fp_time > mid.fp_time && mid.fp_time > large.fp_time);
        assert!(
            small.activation_per_microbatch > mid.activation_per_microbatch
                && mid.activation_per_microbatch > large.activation_per_microbatch
        );
    }

    #[test]
    fn stage_memory_decreases_towards_later_stages() {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b());
        for s in 1..cfg.stages {
            assert!(cfg.stage_memory(s) < cfg.stage_memory(s - 1));
            assert!(cfg.stage_free_memory(s) > cfg.stage_free_memory(s - 1));
        }
    }

    #[test]
    fn free_memory_matches_paper_band_for_3_6b() {
        // Paper §2.2: "less than 3 GB to more than 20 GB".
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b());
        assert!(cfg.stage_free_memory(0) < MemBytes::from_gib(3));
        assert!(cfg.stage_free_memory(3) > MemBytes::from_gib(20));
    }

    #[test]
    fn larger_models_leave_less_free_memory() {
        let small = PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b());
        let large = PipelineConfig::paper_default(ModelSpec::nanogpt_6b());
        for s in 0..4 {
            assert!(
                large.stage_free_memory(s) < small.stage_free_memory(s),
                "stage {s}"
            );
        }
    }

    #[test]
    fn everything_fits_on_48gb() {
        for m in [
            ModelSpec::nanogpt_1_2b(),
            ModelSpec::nanogpt_3_6b(),
            ModelSpec::nanogpt_6b(),
        ] {
            let cfg = PipelineConfig::paper_default(m);
            cfg.validate();
        }
    }

    #[test]
    fn micro_batch_cap_on_in_flight_activations() {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_micro_batches(2);
        // With only 2 micro-batches, stage 0 can't hold 4 in flight.
        let expected = cfg.model.stage_static_mem(4)
            + MemBytes::from_bytes(cfg.model.activation_per_microbatch.as_bytes() * 2);
        assert_eq!(cfg.stage_memory(0), expected);
    }

    #[test]
    fn op_times_include_launch_overhead() {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b());
        assert_eq!(cfg.fp_op_time(), cfg.model.fp_time + cfg.launch_overhead);
        assert_eq!(cfg.bp_op_time(), cfg.model.bp_time() + cfg.launch_overhead);
    }

    #[test]
    #[should_panic(expected = "≥ 2 stages")]
    fn single_stage_rejected() {
        let mut cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b());
        cfg.stages = 1;
        cfg.validate();
    }

    #[test]
    fn homogeneous_default_matches_gpu_memory() {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b());
        assert!(!cfg.is_heterogeneous());
        for s in 0..cfg.stages {
            assert_eq!(cfg.device_memory(s), cfg.gpu_memory);
            assert_eq!(cfg.compute_speed(s), 1.0);
            assert_eq!(cfg.hardware_of(s).memory(), cfg.gpu_memory);
        }
    }

    #[test]
    fn heterogeneous_fleet_changes_free_memory_per_stage() {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_hardware(vec![
            HardwareSpec::h100_80g(),
            HardwareSpec::a100_80g(),
            HardwareSpec::rtx6000ada_48g(),
            HardwareSpec::a100_40g(),
        ]);
        cfg.validate();
        assert!(cfg.is_heterogeneous());
        // Stage 0 gains the 80 GiB card's extra headroom over the 48 GiB
        // homogeneous default.
        let homogeneous = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b());
        assert_eq!(
            cfg.stage_free_memory(0),
            homogeneous.stage_free_memory(0) + MemBytes::from_gib(32)
        );
        assert_eq!(
            cfg.compute_speed(0),
            HardwareSpec::h100_80g().compute_speed()
        );
        assert_eq!(cfg.compute_speed(2), 1.0);
    }

    #[test]
    fn with_worker_hardware_expands_then_overrides_one_stage() {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
            .with_worker_hardware(3, HardwareSpec::h100_80g());
        cfg.validate();
        assert_eq!(cfg.hardware.len(), 4);
        assert_eq!(cfg.hardware_of(3).name(), "h100-80g");
        // Other stages keep the homogeneous default exactly.
        for s in 0..3 {
            assert_eq!(cfg.device_memory(s), cfg.gpu_memory);
            assert_eq!(cfg.compute_speed(s), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "one hardware spec per stage")]
    fn wrong_fleet_size_rejected() {
        let _ = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
            .with_hardware(vec![HardwareSpec::h100_80g()]);
    }

    #[test]
    #[should_panic(expected = "but its GPU")]
    fn undersized_stage_device_rejected() {
        // The 3.6B model pins ~45 GiB on stage 0: an L4 cannot host it.
        PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
            .with_worker_hardware(0, HardwareSpec::l4_24g())
            .validate();
    }
}
