//! FreeRide's two GPU resource-limit mechanisms in action (§4.5, Fig. 8):
//! a side task that won't pause is `SIGKILL`ed after the grace period, and
//! a side task that leaks GPU memory is terminated by its MPS cap — in
//! both cases without hurting the pipeline-training job.
//!
//! Run: `cargo run --release --example resource_limits`

use freeride::prelude::*;

fn main() {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(6);
    let baseline = run_baseline(&pipeline);

    println!("--- execution-time limit (framework-enforced) ---");
    let rogue =
        vec![Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::IgnorePause)];
    let run = run_colocation(&pipeline, &FreeRideConfig::iterative(), &rogue);
    let t = &run.tasks[0];
    println!(
        "a ResNet18 task ignored PauseSideTask: {:?} after {} steps",
        t.stop_reason, t.steps
    );
    println!(
        "training time increase: {:+.2}% (bounded by the grace period)",
        time_increase(baseline, run.total_time) * 100.0
    );
    assert_eq!(t.stop_reason, StopReason::KilledGrace);

    println!();
    println!("--- GPU memory limit (MPS cap) ---");
    let leaky =
        vec![
            Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::LeakMemory {
                per_step: MemBytes::from_gib(1),
            }),
        ];
    let run = run_colocation(&pipeline, &FreeRideConfig::iterative(), &leaky);
    let t = &run.tasks[0];
    println!(
        "a ResNet18 task leaked 1 GiB/step against its cap: {:?} after {} steps",
        t.stop_reason, t.steps
    );
    let series = run.trace.series(&format!("gpu{}.mem", t.worker)).unwrap();
    println!(
        "worker GPU memory: peaked at {:.1} GiB, back to {:.1} GiB after the kill",
        series.max_value().unwrap(),
        series.samples().last().unwrap().value
    );
    println!(
        "training time increase: {:+.2}%",
        time_increase(baseline, run.total_time) * 100.0
    );
    assert_eq!(t.stop_reason, StopReason::KilledOom);

    println!();
    println!("--- crash containment (process kill) ---");
    let crashy = vec![Submission::new(WorkloadKind::GraphSgd)
        .with_misbehavior(Misbehavior::CrashAfter { steps: 10 })];
    let run = run_colocation(&pipeline, &FreeRideConfig::iterative(), &crashy);
    println!(
        "a Graph SGD task crashed after 10 steps: {:?}; training {:+.2}%",
        run.tasks[0].stop_reason,
        time_increase(baseline, run.total_time) * 100.0
    );
    assert_eq!(run.tasks[0].stop_reason, StopReason::Crashed);
    println!();
    println!("all three failures were contained; the training job never noticed.");
}
