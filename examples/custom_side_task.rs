//! Implementing a *new* side task against FreeRide's iterative interface —
//! the reproduction of the paper's Figure 6 porting exercise.
//!
//! The paper's claim is that adapting a GPU workload takes six small
//! steps: inherit the interface, split initialisation into host and GPU
//! phases, and wrap the inner loop as `RunNextStep()`. Here we port a
//! Monte-Carlo π estimator and submit it through the public `Cluster`
//! front door — the same one as the six built-in workloads. The
//! middleware profiles, places (Algorithm 1), and drives it through the
//! full Create → Init → Start → steps → Pause → Stop life cycle across
//! real bubbles; a second instance arrives *mid-training* and is placed
//! online.
//!
//! Run: `cargo run --release --example custom_side_task`

use freeride::prelude::*;

/// Step ➀ of Fig. 6: the original GPU workload, adapted to the step-wise
/// interface. Each step draws a batch of points and refines the estimate.
struct MonteCarloPi {
    seed: u64,
    rng: Option<DetRng>,
    inside: u64,
    total: u64,
    batch: u64,
    steps: u64,
}

impl MonteCarloPi {
    fn new(seed: u64, batch: u64) -> Self {
        MonteCarloPi {
            seed,
            rng: None,
            inside: 0,
            total: 0,
            batch,
            steps: 0,
        }
    }

    fn estimate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        4.0 * self.inside as f64 / self.total as f64
    }
}

impl SideTaskWorkload for MonteCarloPi {
    fn name(&self) -> &'static str {
        "monte-carlo-pi"
    }

    // Step ➁: load context into host memory (CREATED).
    fn create(&mut self) {
        self.rng = Some(DetRng::seed_from_u64(self.seed));
    }

    // Step ➂: move it to GPU memory (PAUSED).
    fn init_gpu(&mut self) {
        assert!(self.rng.is_some(), "create must run first");
    }

    // Step ➃: the original inner loop, one step at a time. The returned
    // estimate is surfaced as the task's `last_value` in the report.
    fn run_step(&mut self) -> f64 {
        let rng = self.rng.as_mut().expect("init_gpu must run first");
        for _ in 0..self.batch {
            let x = rng.next_f64() * 2.0 - 1.0;
            let y = rng.next_f64() * 2.0 - 1.0;
            if x * x + y * y <= 1.0 {
                self.inside += 1;
            }
            self.total += 1;
        }
        self.steps += 1;
        self.estimate()
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// Steps ➄–➅: declare what the profiler would have measured (footprint +
/// step time) and hand the factory to a submission.
fn pi_submission() -> Submission {
    Submission::custom("monte-carlo-pi", MemBytes::from_gib(1), |seed| {
        Box::new(MonteCarloPi::new(seed, 50_000))
    })
    .with_step_time(SimDuration::from_millis(5))
}

fn main() {
    // The paper's main pipeline: 3.6B nanoGPT on four 48 GiB GPUs.
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(6);

    let mut cluster = Cluster::builder()
        .job(
            ClusterJob::new(pipeline)
                .interface(InterfaceKind::Iterative)
                .seed(314),
        )
        .build();

    // One estimator submitted up front…
    let first = cluster
        .submit_with(pi_submission(), SubmitOptions::new())
        .expect("1 GiB fits");
    // …and one arriving four seconds into training (online submission).
    let late = cluster
        .submit_with(
            pi_submission().at(SimTime::from_millis(4_000)),
            SubmitOptions::new(),
        )
        .expect("still fits");

    let report = cluster.run().jobs.remove(0);

    for handle in [&first, &late] {
        let outcome = handle.outcome().expect("ran to completion");
        println!(
            "{} (task {}): stage {}, {} steps, ended {:?} ({:?})",
            handle.tag(),
            handle.id(),
            outcome.worker,
            outcome.steps,
            outcome.final_state,
            outcome.stop_reason,
        );
    }

    // The side tasks did real work inside bubbles: π came out.
    let pi = first.last_value().expect("stepped at least once");
    println!();
    println!(
        "estimated pi from harvested bubbles: {pi:.4} ({} samples)",
        first.steps().unwrap() * 50_000
    );
    assert!((pi - std::f64::consts::PI).abs() < 0.05, "estimate {pi}");
    assert_eq!(first.stop_reason(), Some(StopReason::Finished));
    assert!(
        late.steps().unwrap() > 0,
        "the mid-run arrival harvested bubbles too"
    );
    assert!(report
        .tasks
        .iter()
        .all(|t| t.kind.name() == "monte-carlo-pi"));

    println!("the middleware handled profiling, placement, pausing, resuming;");
    println!("the workload only wrote steps — exactly the paper's porting claim.");
}
