//! Failure injection across the full stack: misbehaving side tasks must be
//! contained by the GPU resource limits (§4.5, Fig. 8) and by process
//! isolation (§8), leaving pipeline training essentially unaffected.

use freeride::prelude::*;
use freeride::sim::SimDuration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn pipeline(epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs)
}

#[test]
fn rogue_task_is_grace_killed_and_training_survives() {
    let p = pipeline(6);
    let baseline = run_baseline(&p);
    let rogue =
        vec![Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::IgnorePause)];
    let run = run_colocation(&p, &FreeRideConfig::iterative(), &rogue);
    assert_eq!(run.tasks[0].stop_reason, StopReason::KilledGrace);
    assert_eq!(run.tasks[0].final_state, SideTaskState::Stopped);
    let i = time_increase(baseline, run.total_time);
    assert!(
        i < 0.05,
        "the grace kill must bound a rogue task's damage: {i}"
    );
}

#[test]
fn memory_leak_is_oom_killed_without_touching_training_memory() {
    let p = pipeline(5);
    // Healthy tasks fill workers 0-2 so the leaky task lands on stage 3,
    // where the MPS cap (not device exhaustion) must stop it.
    let mut leaky: Vec<Submission> = (0..3)
        .map(|_| Submission::new(WorkloadKind::PageRank))
        .collect();
    leaky.push(
        Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::LeakMemory {
            per_step: MemBytes::from_gib(1),
        }),
    );
    let run = run_colocation(&p, &FreeRideConfig::iterative(), &leaky);
    let task = run
        .tasks
        .iter()
        .find(|t| t.kind == WorkloadKind::ResNet18)
        .expect("leaky task admitted");
    assert_eq!(task.stop_reason, StopReason::KilledOom);

    // The worker GPU's memory returns exactly to the training footprint.
    let series = run
        .trace
        .series(&format!("gpu{}.mem", task.worker))
        .expect("memory trace");
    let final_mem = series.samples().last().unwrap().value;
    let train_mem = p.stage_memory(task.worker).as_gib_f64();
    assert!((final_mem - train_mem).abs() < 1e-9);
    // The leak never reached device capacity (the cap fired first).
    assert!(series.max_value().unwrap() < 47.0);
}

#[test]
fn crashing_task_is_contained() {
    let p = pipeline(5);
    let baseline = run_baseline(&p);
    let crashy = vec![Submission::new(WorkloadKind::PageRank)
        .with_misbehavior(Misbehavior::CrashAfter { steps: 20 })];
    let run = run_colocation(&p, &FreeRideConfig::iterative(), &crashy);
    assert_eq!(run.tasks[0].stop_reason, StopReason::Crashed);
    assert!(run.tasks[0].steps >= 20);
    let i = time_increase(baseline, run.total_time);
    assert!(i < 0.02, "a crash must not hurt training: {i}");
}

#[test]
fn queued_task_takes_over_after_a_kill() {
    // Two tasks on the same worker: when the first is OOM-killed, the
    // manager promotes the second (Algorithm 2, lines 11–15).
    let p = pipeline(8);
    let subs = vec![
        Submission::new(WorkloadKind::GraphSgd)
            .with_misbehavior(Misbehavior::CrashAfter { steps: 5 }),
        Submission::new(WorkloadKind::GraphSgd),
        Submission::new(WorkloadKind::GraphSgd),
        Submission::new(WorkloadKind::GraphSgd),
        // Fifth task queues behind one of the four.
        Submission::new(WorkloadKind::GraphSgd),
    ];
    let run = run_colocation(&p, &FreeRideConfig::iterative(), &subs);
    let crashed = run
        .tasks
        .iter()
        .filter(|t| t.stop_reason == StopReason::Crashed)
        .count();
    assert_eq!(crashed, 1);
    // The queued task got promoted and did work.
    let finished_with_work = run
        .tasks
        .iter()
        .filter(|t| t.stop_reason == StopReason::Finished && t.steps > 0)
        .count();
    assert!(finished_with_work >= 4, "{:?}", run.tasks);
}

#[test]
fn misbehaving_neighbour_does_not_affect_other_workers() {
    let p = pipeline(6);
    // Healthy PageRank everywhere, plus one leaky ResNet18.
    let mut subs = Submission::per_worker(WorkloadKind::PageRank, 4);
    subs.push(
        Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::LeakMemory {
            per_step: MemBytes::from_gib(2),
        }),
    );
    let run = run_colocation(&p, &FreeRideConfig::iterative(), &subs);
    let healthy_steps: u64 = run
        .tasks
        .iter()
        .filter(|t| t.kind == WorkloadKind::PageRank)
        .map(|t| t.steps)
        .sum();

    let clean = run_colocation(
        &p,
        &FreeRideConfig::iterative(),
        &Submission::per_worker(WorkloadKind::PageRank, 4),
    );
    let clean_steps: u64 = clean.tasks.iter().map(|t| t.steps).sum();
    // The leaky task shares one worker's queue; the other three workers'
    // PageRank instances are untouched, so at least 3/4 of the clean
    // throughput must survive.
    assert!(
        healthy_steps * 4 >= clean_steps * 3,
        "healthy {healthy_steps} vs clean {clean_steps}"
    );
}

#[test]
fn grace_period_scales_rogue_damage() {
    let p = pipeline(6);
    let baseline = run_baseline(&p);
    let rogue =
        vec![Submission::new(WorkloadKind::GraphSgd).with_misbehavior(Misbehavior::IgnorePause)];
    let mut damages = Vec::new();
    for grace_ms in [100u64, 2000] {
        let mut cfg = FreeRideConfig::iterative();
        cfg.grace_period = SimDuration::from_millis(grace_ms);
        let run = run_colocation(&p, &cfg, &rogue);
        assert_eq!(run.tasks[0].stop_reason, StopReason::KilledGrace);
        damages.push(time_increase(baseline, run.total_time));
    }
    assert!(
        damages[0] <= damages[1],
        "longer grace must not reduce rogue damage: {damages:?}"
    );
}

#[test]
fn oversized_tasks_are_rejected_not_crashed() {
    // A batch-256 VGG19 (~24 GiB) exceeds every stage's bubble memory.
    let p = pipeline(3);
    let subs = vec![Submission::new(WorkloadKind::Vgg19).with_batch(256)];
    let run = run_colocation(&p, &FreeRideConfig::iterative(), &subs);

    // The rejection keeps the whole submission and carries real numbers.
    assert_eq!(run.rejected.len(), 1);
    let rejected = &run.rejected[0];
    assert_eq!(*rejected.submission.tag(), WorkloadKind::Vgg19);
    assert_eq!(rejected.submission.batch(), 256);
    let needed = WorkloadKind::Vgg19.profile_with_batch(256).gpu_mem;
    let best = (0..p.stages)
        .map(|st| p.stage_free_memory(st))
        .max()
        .unwrap();
    assert_eq!(
        rejected.error,
        SubmitError::InsufficientMemory {
            needed,
            best_worker_free: best,
        }
    );
    assert!(needed >= best, "rejection implies the task cannot fit");
    // The error message names both quantities, not just "rejected".
    let msg = rejected.error.to_string();
    assert!(
        msg.contains(&needed.to_string()) && msg.contains(&best.to_string()),
        "rejection message must carry the numbers: {msg}"
    );

    assert!(run.tasks.is_empty());
    // Training ran to completion regardless.
    assert_eq!(run.epoch_times.len(), 3);
}

/// A custom workload whose every `run_step`, in any incarnation, bumps
/// one shared counter.
struct CountedSteps {
    calls: Arc<AtomicU64>,
    steps: u64,
}

impl SideTaskWorkload for CountedSteps {
    fn name(&self) -> &'static str {
        "counted"
    }
    fn create(&mut self) {}
    fn init_gpu(&mut self) {}
    fn run_step(&mut self) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.steps += 1;
        self.steps as f64
    }
    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// Four counted tasks on a six-epoch job whose worker 1 crashes at 4.0 s
/// (down 1 s) and 5.2 s (down 3 s), with 1 s checkpoints. `hedged` adds a
/// straggling worker 2 and a supervisor hedging at half the median.
/// Returns the `run_step` calls made across every incarnation.
fn counted_run(hedged: bool) -> (u64, ClusterReport) {
    let calls = Arc::new(AtomicU64::new(0));
    let shared = Arc::clone(&calls);
    let counted = Submission::custom("counted", MemBytes::from_gib(1), move |_seed| {
        Box::new(CountedSteps {
            calls: Arc::clone(&shared),
            steps: 0,
        })
    })
    .with_step_time(SimDuration::from_millis(4));
    let mut faults = FaultPlan::new()
        .crash_worker(SimTime::from_millis(4_000), 1, SimDuration::from_secs(1))
        .crash_worker(SimTime::from_millis(5_200), 1, SimDuration::from_secs(3));
    let mut job = ClusterJob::new(pipeline(6))
        .seed(0xC4A05)
        .checkpoint(SimDuration::from_secs(1));
    if hedged {
        faults = faults.straggler(
            SimTime::from_millis(6_000),
            2,
            0.25,
            SimDuration::from_secs(4),
        );
        job = job.supervise(SupervisorConfig::new().hedge(0.5));
    }
    let mut cluster = Cluster::builder()
        .job(job.faults(faults))
        .cost_report(false)
        .build();
    for _ in 0..4 {
        cluster
            .submit_with(counted.clone(), SubmitOptions::new())
            .expect("1 GiB fits");
    }
    let report = cluster.run();
    (calls.load(Ordering::Relaxed), report)
}

/// A step is charged when its kernel ends but computed when the report
/// reads its task. Crashes, checkpoint restores and cancelled hedges must
/// neither drop nor repeat a computation: every incarnation runs exactly
/// the steps it was charged. The constants were captured while every
/// step ran the moment it was charged.
#[test]
fn every_charged_step_runs_once_through_crashes_restores_and_hedges() {
    let (calls, restored) = counted_run(false);
    assert_eq!(restored.jobs[0].recoveries.len(), 2, "two restores");
    // The predecessors' steps past their last checkpoint ran too, though
    // no summary reports them.
    assert!(calls > restored.total_steps());
    assert_eq!(calls, 7490);

    let (calls, hedged) = counted_run(true);
    assert!(
        hedged.jobs[0]
            .tasks
            .iter()
            .any(|t| t.stop_reason == StopReason::HedgeLost && t.steps > 0),
        "a hedge loser was charged steps"
    );
    assert_eq!(calls, 7278);
}

/// Four PageRank tasks on a four-epoch job with 1 s checkpoints, under
/// `faults`.
fn faulted_run(faults: FaultPlan) -> DeploymentReport {
    let job = ClusterJob::new(pipeline(4))
        .checkpoint(SimDuration::from_secs(1))
        .faults(faults);
    let mut cluster = Cluster::builder().job(job).cost_report(false).build();
    for _ in 0..4 {
        cluster
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .expect("PageRank fits");
    }
    cluster.run().jobs.remove(0)
}

/// Overlapping windows of one fault kind on one worker must act as
/// `union`: the worker stays degraded until the last one closes.
fn assert_acts_as_union(overlapping: FaultPlan, union: FaultPlan) -> DeploymentReport {
    let (got, want) = (faulted_run(overlapping), faulted_run(union));
    assert_eq!(format!("{:?}", got.tasks), format!("{:?}", want.tasks));
    assert_eq!(got.recoveries, want.recoveries);
    assert_eq!(got.total_time, want.total_time);
    got
}

#[test]
fn overlapping_crashes_keep_the_daemon_down_until_the_last_ends() {
    let (at, secs) = (SimTime::from_millis, SimDuration::from_secs);
    let run = assert_acts_as_union(
        FaultPlan::new()
            .crash_worker(at(4_000), 1, secs(2))
            .crash_worker(at(5_000), 1, secs(3)),
        FaultPlan::new().crash_worker(at(4_000), 1, secs(4)),
    );
    assert!(!run.recoveries.is_empty());
    assert!(
        run.recoveries.iter().all(|r| r.latency == secs(4)),
        "restored when the daemon rejoins at 8.0 s: {:?}",
        run.recoveries
    );
}

#[test]
fn overlapping_stragglers_keep_the_worker_slow_until_the_last_ends() {
    let (at, secs) = (SimTime::from_millis, SimDuration::from_secs);
    assert_acts_as_union(
        FaultPlan::new()
            .straggler(at(6_000), 2, 0.25, secs(4))
            .straggler(at(7_000), 2, 0.25, secs(1)),
        FaultPlan::new().straggler(at(6_000), 2, 0.25, secs(4)),
    );
}

/// When a straggler window closes while two others are still open, the
/// worker falls back to the latest-opened one (×0.5 here), not the
/// earliest (×0.25): the innermost window changes nothing.
#[test]
fn a_closing_straggler_falls_back_to_the_latest_opened_window() {
    let (at, ms) = (SimTime::from_millis, SimDuration::from_millis);
    let outer = || {
        FaultPlan::new()
            .straggler(at(6_000), 2, 0.25, ms(4_000))
            .straggler(at(7_000), 2, 0.5, ms(2_000))
    };
    assert_acts_as_union(outer().straggler(at(7_500), 2, 0.5, ms(500)), outer());
}

#[test]
fn overlapping_rpc_spikes_keep_the_link_slow_until_the_last_ends() {
    let (at, ms) = (SimTime::from_millis, SimDuration::from_millis);
    assert_acts_as_union(
        FaultPlan::new()
            .rpc_spike(at(5_000), 3, ms(40), ms(3_000))
            .rpc_spike(at(5_500), 3, ms(40), ms(1_000)),
        FaultPlan::new().rpc_spike(at(5_000), 3, ms(40), ms(3_000)),
    );
}
