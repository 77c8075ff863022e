//! The side-task workload abstraction and adapters for the four real
//! computations.
//!
//! A [`SideTaskWorkload`] is what the programmer writes (the paper's
//! Figure 6): a step-wise computation with explicit host-side and
//! GPU-side initialisation phases matching the `CREATED` and `PAUSED`
//! states of the FreeRide state machine. The middleware (in
//! `freeride-core`) drives these methods from its state-transition
//! functions; the simulator charges virtual time from the calibrated
//! [`WorkloadProfile`], while the computation itself runs for real.
//!
//! Because a step's virtual time comes from the profile, not from the
//! computation, the middleware is free to run a task's steps later than it
//! charges them, and in batches: it counts the steps it charges and runs
//! them through [`SideTaskWorkload::run_steps`] when the run report reads
//! the task, at the end of the run. Only the last step's value is reported.
//!
//! [`WorkloadProfile`]: crate::profiles::WorkloadProfile

use crate::graph::{CsrGraph, GraphSgd, PageRank};
use crate::image::ImagePipeline;
use crate::nn::NnTraining;
use freeride_sim::DetRng;

/// A generic, step-wise GPU side task (the user-implemented part of the
/// paper's iterative interface).
pub trait SideTaskWorkload: Send {
    /// Diagnostic name.
    fn name(&self) -> &'static str;

    /// Host-memory initialisation: datasets, loaders, CPU state
    /// (`CreateSideTask()` — the `CREATED` state holds no GPU memory).
    fn create(&mut self);

    /// GPU-side initialisation: move weights/buffers to the device
    /// (`InitSideTask()` — entering `PAUSED` the task holds GPU memory).
    fn init_gpu(&mut self);

    /// One step of real work (`RunNextStep()`); returns a
    /// workload-specific progress metric (loss, delta, RMSE, mean pixel).
    ///
    /// # Panics
    ///
    /// Implementations panic if called before [`create`] and
    /// [`init_gpu`] — the state machine must not skip states.
    ///
    /// [`create`]: SideTaskWorkload::create
    /// [`init_gpu`]: SideTaskWorkload::init_gpu
    fn run_step(&mut self) -> f64;

    /// Runs `n` steps and returns the last one's value, or `None` for
    /// `n == 0`. The middleware steps a task only through this method,
    /// possibly long after the steps' bubbles (see the module docs).
    ///
    /// The default loops [`run_step`]. Override it only with an exact
    /// shortcut: afterwards the workload's state, [`steps_done`] and the
    /// returned value must equal those of `n` [`run_step`] calls, bit for
    /// bit.
    ///
    /// [`run_step`]: SideTaskWorkload::run_step
    /// [`steps_done`]: SideTaskWorkload::steps_done
    fn run_steps(&mut self, n: u64) -> Option<f64> {
        (0..n).fold(None, |_, _| Some(self.run_step()))
    }

    /// Steps executed so far.
    fn steps_done(&self) -> u64;
}

/// Model-training side task (stand-in for ResNet18/50, VGG19).
pub struct NnTrainingTask {
    name: &'static str,
    batch_size: usize,
    seed: u64,
    hidden: Vec<usize>,
    host_ready: bool,
    net: Option<NnTraining>,
    steps: u64,
}

impl NnTrainingTask {
    /// Creates a lazy training task; nothing is allocated until
    /// [`SideTaskWorkload::create`].
    pub fn new(name: &'static str, hidden: Vec<usize>, batch_size: usize, seed: u64) -> Self {
        NnTrainingTask {
            name,
            batch_size,
            seed,
            hidden,
            host_ready: false,
            net: None,
            steps: 0,
        }
    }

    /// Most recent training loss.
    pub fn last_loss(&self) -> f64 {
        self.net.as_ref().map_or(f64::INFINITY, |n| n.last_loss())
    }
}

impl SideTaskWorkload for NnTrainingTask {
    fn name(&self) -> &'static str {
        self.name
    }

    fn create(&mut self) {
        // Dataset/loader initialisation would happen here; our synthetic
        // data needs only the flag.
        self.host_ready = true;
    }

    fn init_gpu(&mut self) {
        assert!(self.host_ready, "init_gpu before create");
        self.net = Some(NnTraining::new(
            8,
            &self.hidden,
            self.batch_size.min(64), // keep the real compute small
            self.seed,
        ));
    }

    fn run_step(&mut self) -> f64 {
        let net = self.net.as_mut().expect("run_step before init_gpu");
        let loss = net.train_step();
        self.steps += 1;
        loss
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// PageRank side task over a synthetic power-law graph.
pub struct PageRankTask {
    seed: u64,
    nodes: usize,
    graph: Option<CsrGraph>,
    solver: Option<PageRank>,
    steps: u64,
}

impl PageRankTask {
    /// Creates a lazy PageRank task over `nodes` nodes.
    pub fn new(nodes: usize, seed: u64) -> Self {
        PageRankTask {
            seed,
            nodes,
            graph: None,
            solver: None,
            steps: 0,
        }
    }

    fn solver(&mut self) -> &mut PageRank {
        self.solver.as_mut().expect("run_step before init_gpu")
    }
}

impl SideTaskWorkload for PageRankTask {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn create(&mut self) {
        let mut rng = DetRng::seed_from_u64(self.seed);
        self.graph = Some(CsrGraph::power_law(self.nodes, 4, &mut rng));
    }

    fn init_gpu(&mut self) {
        let graph = self.graph.take().expect("init_gpu before create");
        self.solver = Some(PageRank::new(graph));
    }

    fn run_step(&mut self) -> f64 {
        let delta = self.solver().step();
        self.steps += 1;
        delta
    }

    /// Once the rank vector replays its limit cycle, the solver jumps the
    /// remaining steps at once (see [`PageRank`]).
    fn run_steps(&mut self, n: u64) -> Option<f64> {
        if n == 0 {
            return None;
        }
        self.steps += n;
        self.solver().run_steps(n)
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// SGD matrix-factorisation side task (the paper's "Graph SGD").
pub struct GraphSgdTask {
    seed: u64,
    created: bool,
    solver: Option<GraphSgd>,
    steps: u64,
}

impl GraphSgdTask {
    /// Creates a lazy Graph SGD task.
    pub fn new(seed: u64) -> Self {
        GraphSgdTask {
            seed,
            created: false,
            solver: None,
            steps: 0,
        }
    }
}

impl SideTaskWorkload for GraphSgdTask {
    fn name(&self) -> &'static str {
        "graph-sgd"
    }

    fn create(&mut self) {
        self.created = true;
    }

    fn init_gpu(&mut self) {
        assert!(self.created, "init_gpu before create");
        self.solver = Some(GraphSgd::new(64, 48, 4, 1200, self.seed));
    }

    fn run_step(&mut self) -> f64 {
        let s = self.solver.as_mut().expect("run_step before init_gpu");
        let rmse = s.step();
        self.steps += 1;
        rmse
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// Image-processing side task (resize + watermark).
pub struct ImageTask {
    seed: u64,
    created: bool,
    pipeline: Option<ImagePipeline>,
    steps: u64,
}

impl ImageTask {
    /// Creates a lazy image-processing task.
    pub fn new(seed: u64) -> Self {
        ImageTask {
            seed,
            created: false,
            pipeline: None,
            steps: 0,
        }
    }

    fn pipeline(&mut self) -> &mut ImagePipeline {
        self.pipeline.as_mut().expect("run_step before init_gpu")
    }
}

impl SideTaskWorkload for ImageTask {
    fn name(&self) -> &'static str {
        "image"
    }

    fn create(&mut self) {
        self.created = true;
    }

    fn init_gpu(&mut self) {
        assert!(self.created, "init_gpu before create");
        self.pipeline = Some(ImagePipeline::new(96, 96, self.seed));
    }

    fn run_step(&mut self) -> f64 {
        let mean = self.pipeline().step();
        self.steps += 1;
        mean
    }

    /// Each image is independent of the ones before it, so only the last
    /// is processed: the pixel stream seeks past the others.
    fn run_steps(&mut self, n: u64) -> Option<f64> {
        let skipped = n.checked_sub(1)?;
        self.pipeline().skip(skipped);
        self.steps += skipped;
        Some(self.run_step())
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle(task: &mut dyn SideTaskWorkload) {
        task.create();
        task.init_gpu();
        assert_eq!(task.steps_done(), 0);
        let a = task.run_step();
        let b = task.run_step();
        assert_eq!(task.steps_done(), 2);
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn nn_task_lifecycle() {
        let mut t = NnTrainingTask::new("resnet18", vec![32, 16], 64, 1);
        lifecycle(&mut t);
        assert!(t.last_loss().is_finite());
    }

    #[test]
    fn pagerank_task_lifecycle() {
        let mut t = PageRankTask::new(300, 2);
        lifecycle(&mut t);
    }

    #[test]
    fn graph_sgd_task_lifecycle() {
        let mut t = GraphSgdTask::new(3);
        lifecycle(&mut t);
    }

    #[test]
    fn image_task_lifecycle() {
        let mut t = ImageTask::new(4);
        lifecycle(&mut t);
    }

    #[test]
    fn run_steps_of_nothing_needs_no_init() {
        assert_eq!(ImageTask::new(1).run_steps(0), None);
        assert_eq!(PageRankTask::new(100, 1).run_steps(0), None);
    }

    #[test]
    #[should_panic(expected = "run_step before init_gpu")]
    fn step_before_init_panics() {
        let mut t = PageRankTask::new(100, 1);
        t.create();
        t.run_step();
    }

    #[test]
    #[should_panic(expected = "init_gpu before create")]
    fn init_before_create_panics() {
        let mut t = ImageTask::new(1);
        t.init_gpu();
    }

    #[test]
    fn nn_progress_improves_across_steps() {
        let mut t = NnTrainingTask::new("resnet18", vec![32, 16], 32, 9);
        t.create();
        t.init_gpu();
        let first = t.run_step();
        for _ in 0..200 {
            t.run_step();
        }
        let last = t.run_step();
        assert!(
            last < first,
            "training should make progress: {first} → {last}"
        );
    }
}
