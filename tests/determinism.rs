//! Reproducibility: the whole evaluation is a deterministic simulation —
//! identical seeds must give bit-identical runs, and different seeds must
//! only perturb what randomness touches (RPC jitter), never the physics.

use freeride::prelude::*;
use freeride_bench::SweepRunner;

fn pipeline() -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(4)
}

#[test]
fn identical_seeds_identical_runs() {
    let p = pipeline();
    let subs = Submission::mixed();
    let a = run_colocation(&p, &FreeRideConfig::iterative().with_seed(7), &subs);
    let b = run_colocation(&p, &FreeRideConfig::iterative().with_seed(7), &subs);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.epoch_times, b.epoch_times);
    assert_eq!(a.bubbles_reported, b.bubbles_reported);
    let steps_a: Vec<u64> = a.tasks.iter().map(|t| t.steps).collect();
    let steps_b: Vec<u64> = b.tasks.iter().map(|t| t.steps).collect();
    assert_eq!(steps_a, steps_b);
}

#[test]
fn different_seeds_only_jitter_the_margins() {
    let p = pipeline();
    let subs = Submission::per_worker(WorkloadKind::ResNet18, 4);
    let a = run_colocation(&p, &FreeRideConfig::iterative().with_seed(1), &subs);
    let b = run_colocation(&p, &FreeRideConfig::iterative().with_seed(2), &subs);
    // RPC jitter shifts step counts by at most a few steps per bubble.
    let sa: u64 = a.tasks.iter().map(|t| t.steps).sum();
    let sb: u64 = b.tasks.iter().map(|t| t.steps).sum();
    let diff = sa.abs_diff(sb) as f64 / sa.max(sb) as f64;
    assert!(
        diff < 0.05,
        "seeds changed throughput by {diff}: {sa} vs {sb}"
    );
    // Training time is physics, not randomness: within 0.1%.
    let dt = (a.total_time.as_secs_f64() - b.total_time.as_secs_f64()).abs()
        / a.total_time.as_secs_f64();
    assert!(dt < 0.001, "training time diverged by {dt}");
}

#[test]
fn baseline_training_is_seed_free_and_stable() {
    let p = pipeline();
    let a = run_baseline(&p);
    let b = run_baseline(&p);
    assert_eq!(a, b);
}

#[test]
fn epochs_are_identical_after_warmup() {
    // Paper §8: pipeline training has a stable throughput and pattern.
    let p = pipeline();
    let run = run_colocation(
        &p,
        &FreeRideConfig::iterative(),
        &Submission::per_worker(WorkloadKind::PageRank, 4),
    );
    // Serving epochs (after the profiling epoch) are near-identical: the
    // only variation is RPC jitter, far below 1%.
    let serving = &run.epoch_times[1..];
    let min = serving.iter().min().unwrap().as_secs_f64();
    let max = serving.iter().max().unwrap().as_secs_f64();
    assert!(
        (max - min) / min < 0.01,
        "serving epochs vary too much: {min} vs {max}"
    );
}

#[test]
fn online_arrivals_are_deterministic_across_identical_runs() {
    // Two runs with identical seeds and identical arrival schedules
    // (including mid-run arrivals and a custom workload) must produce
    // identical reports, RPC jitter and all.
    let p = pipeline();
    let run = || {
        let report = run_colocation(
            &p,
            &FreeRideConfig::iterative().with_seed(42),
            &[
                Submission::new(WorkloadKind::PageRank),
                Submission::new(WorkloadKind::ResNet18).at(SimTime::from_millis(1_500)),
                Submission::custom("ticker", MemBytes::from_gib(1), |seed| {
                    WorkloadKind::ImageProc.build(seed)
                })
                .at(SimTime::from_millis(6_000)),
            ],
        );
        assert!(report.rejected.is_empty());
        report
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.epoch_times, b.epoch_times);
    assert_eq!(a.bubbles_reported, b.bubbles_reported);
    assert_eq!(a.tasks.len(), b.tasks.len());
    for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!(ta.id, tb.id);
        assert_eq!(ta.kind, tb.kind);
        assert_eq!(ta.worker, tb.worker);
        assert_eq!(ta.steps, tb.steps);
        assert_eq!(ta.final_state, tb.final_state);
        assert_eq!(ta.stop_reason, tb.stop_reason);
        assert_eq!(ta.last_value, tb.last_value);
    }
}

#[test]
fn workload_computations_are_deterministic_end_to_end() {
    // Two identical runs must leave the real workloads in identical
    // states (steps → identical data streams).
    let p = pipeline();
    let subs = Submission::per_worker(WorkloadKind::GraphSgd, 4);
    let a = run_colocation(&p, &FreeRideConfig::iterative().with_seed(3), &subs);
    let b = run_colocation(&p, &FreeRideConfig::iterative().with_seed(3), &subs);
    for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!(ta.steps, tb.steps);
        assert_eq!(ta.worker, tb.worker);
    }
}

/// Traced two-job cluster simulations, one per placement policy, fanned
/// across `threads` by the experiment bins' sweep runner. Each closure
/// owns its tracer; a row is the trace summary plus both exports in full.
fn trace_rows(threads: usize) -> Vec<String> {
    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(FirstFit),
        Box::new(LeastLoaded),
        Box::new(MinTasksJob),
    ];
    let jobs: Vec<_> = policies
        .into_iter()
        .map(|policy| {
            move || {
                let sink = SimTracer::shared();
                let mut cluster = Cluster::builder()
                    .job(
                        ClusterJob::new(
                            PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
                        )
                        .seed(1),
                    )
                    .job(
                        ClusterJob::new(
                            PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b()).with_epochs(2),
                        )
                        .seed(2),
                    )
                    .policy(policy)
                    .cost_report(false)
                    .trace(sink.clone())
                    .build();
                for kind in [WorkloadKind::PageRank, WorkloadKind::ImageProc] {
                    let _ = cluster.submit_with(Submission::new(kind), SubmitOptions::new());
                }
                let report = cluster.run();
                let summary = report.trace_summary.expect("tracing armed");
                let tracer = sink.lock().unwrap();
                format!(
                    "policy={} trace_events={} by_kind={:?}\n{}\n{}",
                    report.policy,
                    summary.events,
                    summary.by_kind,
                    tracer.to_chrome_trace(),
                    tracer.to_jsonl()
                )
            }
        })
        .collect();
    SweepRunner::new(threads).run(jobs)
}

#[test]
fn trace_exports_are_byte_identical_across_threads() {
    // The Chrome-trace and JSONL exports must not move by a byte for any
    // `--threads`: the tracer observes the per-cluster event stream,
    // which is single-threaded and deterministic, so the sweep's fan-out
    // must not smear it.
    let sequential = trace_rows(1);
    assert!(
        sequential.iter().all(|r| r.contains("traceEvents")),
        "every row must carry a Chrome-trace export"
    );
    assert!(
        sequential.iter().any(|r| r.contains("\"bubble\"")),
        "the traced runs must record bubble spans"
    );
    for threads in [2, 4] {
        let parallel = trace_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of trace output"
        );
    }
}
