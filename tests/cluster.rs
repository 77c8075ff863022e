//! The `Cluster` API, end to end: multi-job determinism, pluggable
//! placement policies, and cross-job spillover.
//!
//! Stage free memory underlying the contention scenarios (GiB):
//! nanoGPT-1.2B [7.2, 15.6, 24.0, 32.4], 3.6B [2.9, 8.8, 14.6, 20.5],
//! 6B [1.6, 4.2, 6.8, 9.4].

use freeride::prelude::*;

fn pipeline(model: ModelSpec, epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(model).with_epochs(epochs)
}

/// A submission with an explicit GPU footprint (the contention knob).
fn task_of(gib: u64) -> Submission {
    Submission::custom(format!("mem{gib}g"), MemBytes::from_gib(gib), |seed| {
        WorkloadKind::PageRank.build(seed)
    })
}

/// A 4-job cluster mixing models, seeds, interfaces, and modes, loaded
/// with policy-routed, affinity, and online submissions.
fn four_job_cluster(profile: bool) -> Cluster {
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(1))
        .job(
            ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 3))
                .interface(InterfaceKind::Imperative)
                .seed(2),
        )
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_6b(), 2)).seed(3))
        .job(
            ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 2))
                .mode(ColocationMode::Mps)
                .seed(4),
        )
        .policy(LeastLoaded)
        .cost_report(false)
        .profile(profile)
        .build();
    for kind in [WorkloadKind::PageRank, WorkloadKind::ImageProc] {
        cluster
            .submit_with(Submission::new(kind), SubmitOptions::new())
            .unwrap();
    }
    cluster
        .submit_with(task_of(3), SubmitOptions::new().affinity(2))
        .unwrap();
    cluster
        .submit_with(
            Submission::new(WorkloadKind::ResNet18).at(SimTime::from_millis(500)),
            SubmitOptions::new(),
        )
        .unwrap();
    cluster
}

/// Collapses a run into a comparable fingerprint: every number that could
/// drift under nondeterminism.
fn fingerprint(report: &ClusterReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "policy={} events={} steps={} rejections={}",
        report.policy,
        report.events_processed,
        report.total_steps(),
        report.total_rejections()
    )
    .unwrap();
    for (j, job) in report.jobs.iter().enumerate() {
        writeln!(
            s,
            "job{j} mode={} total={} epochs={} bubbles={} events={}",
            job.mode,
            job.total_time,
            job.epoch_times.len(),
            job.bubbles_reported,
            job.events_processed
        )
        .unwrap();
        for t in &job.tasks {
            writeln!(
                s,
                "  task id={:?} worker={} steps={} state={:?} reason={:?}",
                t.id, t.worker, t.steps, t.final_state, t.stop_reason
            )
            .unwrap();
        }
    }
    s
}

/// (a) A 4-job cluster run is deterministic regardless of how many OS
/// threads the host throws at it: the simulation is one logical timeline,
/// so N concurrent runs (the `--threads N` sweep situation) and a
/// sequential run produce identical reports.
#[test]
fn four_job_cluster_is_deterministic_for_any_thread_count() {
    let reference = fingerprint(&four_job_cluster(false).run());
    assert!(reference.contains("job3 mode=mps"), "{reference}");

    // Re-run sequentially…
    assert_eq!(reference, fingerprint(&four_job_cluster(false).run()));

    // …and across 4 concurrent OS threads, as a --threads 4 sweep would.
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(|| fingerprint(&four_job_cluster(false).run())))
        .collect();
    for h in handles {
        assert_eq!(reference, h.join().expect("cluster thread"));
    }
}

/// (b) The three shipped placement policies make genuinely different
/// decisions on a contended cluster.
///
/// Cluster: job 0 = 1.2B (free [7.2, 15.6, 24.0, 32.4]), job 1 = 3.6B
/// (free [2.9, 8.8, 14.6, 20.5]). Two 8 GiB tasks:
/// * first-fit piles both onto job 0 / worker 1 (first slot > 8 GiB);
/// * best-fit-memory picks job 1 / worker 1 twice (tightest fit, 8.8);
/// * least-loaded starts at job 0 / worker 1, then moves to the next
///   empty slot, job 0 / worker 2.
#[test]
fn placement_policies_disagree_on_a_contended_cluster() {
    fn place_two(policy_name: &str) -> Vec<(usize, usize)> {
        let builder = Cluster::builder()
            .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 2)).seed(1))
            .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(2))
            .cost_report(false);
        let mut cluster = match policy_name {
            "first-fit" => builder.policy(FirstFit).build(),
            "best-fit-memory" => builder.policy(BestFitMemory).build(),
            "least-loaded" => builder.policy(LeastLoaded).build(),
            other => panic!("unknown policy {other}"),
        };
        let a = cluster
            .submit_with(task_of(8), SubmitOptions::new())
            .unwrap();
        let b = cluster
            .submit_with(task_of(8), SubmitOptions::new())
            .unwrap();
        let report = cluster.run();
        assert_eq!(report.total_rejections(), 0);
        assert!(report.total_steps() > 0);
        vec![
            (a.job(), a.worker().unwrap()),
            (b.job(), b.worker().unwrap()),
        ]
    }

    let first_fit = place_two("first-fit");
    let best_fit = place_two("best-fit-memory");
    let least_loaded = place_two("least-loaded");

    assert_eq!(first_fit, vec![(0, 1), (0, 1)], "first-fit piles up");
    assert_eq!(
        best_fit,
        vec![(1, 1), (1, 1)],
        "best-fit hugs the tightest slot"
    );
    assert_eq!(least_loaded, vec![(0, 1), (0, 2)], "least-loaded spreads");

    assert_ne!(first_fit, best_fit);
    assert_ne!(first_fit, least_loaded);
    assert_ne!(best_fit, least_loaded);
}

/// (c) Cross-job spillover: a submission a single 6B job must reject with
/// `InsufficientMemory` is admitted by a cluster that also hosts a 3.6B
/// job — the affinity submit spills over instead of failing.
#[test]
fn spillover_admits_what_a_single_job_rejects() {
    // Alone, the 6B job's best worker offers only ~9.4 GiB.
    let mut alone = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_6b(), 2)))
        .build();
    let err = alone
        .submit_with(task_of(12), SubmitOptions::new())
        .unwrap_err();
    let SubmitError::InsufficientMemory {
        needed,
        best_worker_free,
    } = err
    else {
        panic!("expected InsufficientMemory, got {err:?}");
    };
    assert_eq!(needed, MemBytes::from_gib(12));
    assert!(best_worker_free < needed);

    // In a cluster with a roomier neighbour, the same submission —
    // explicitly targeted at the cramped job — spills over and runs.
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_6b(), 2)).seed(1))
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(2))
        .policy(FirstFit)
        .cost_report(false)
        .build();
    let handle = cluster
        .submit_with(task_of(12), SubmitOptions::new().affinity(0))
        .expect("spillover must admit what job 0 alone cannot hold");
    assert_eq!(handle.job(), 1, "routed to the job with room");
    let report = cluster.run();
    assert!(report.rejected.is_empty());
    assert_eq!(report.jobs[1].tasks.len(), 1);
    assert!(
        handle.steps().unwrap() > 0,
        "the spilled task did real work"
    );
    // Worker 2 of the 3.6B job (14.6 GiB free) is first-fit for 12 GiB.
    assert_eq!(handle.worker(), Some(2));
}

/// The batch helper and a hand-built one-job cluster agree exactly —
/// `run_colocation` *is* a one-job cluster.
#[test]
fn one_job_cluster_matches_run_colocation() {
    let submissions = || {
        vec![
            Submission::new(WorkloadKind::PageRank),
            Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(800)),
        ]
    };

    let dep_report = run_colocation(
        &pipeline(ModelSpec::nanogpt_3_6b(), 3),
        &FreeRideConfig::iterative().with_seed(9),
        &submissions(),
    );

    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 3)).seed(9))
        .cost_report(false)
        .build();
    for s in submissions() {
        cluster.submit_with(s, SubmitOptions::new()).unwrap();
    }
    let cluster_report = cluster.run();

    assert_eq!(cluster_report.jobs.len(), 1);
    let job = &cluster_report.jobs[0];
    assert_eq!(job.total_time, dep_report.total_time);
    assert_eq!(job.events_processed, dep_report.events_processed);
    assert_eq!(job.bubbles_reported, dep_report.bubbles_reported);
    assert_eq!(job.tasks.len(), dep_report.tasks.len());
    for (a, b) in job.tasks.iter().zip(&dep_report.tasks) {
        assert_eq!(a.worker, b.worker);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.final_state, b.final_state);
    }
}

/// Online arrivals work cluster-wide: a task arriving mid-run lands on
/// the policy-pinned worker of its job and still harvests bubbles.
#[test]
fn online_arrival_lands_on_the_pinned_worker() {
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 3)).seed(5))
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 3)).seed(6))
        .policy(BestFitMemory)
        .cost_report(false)
        .build();
    let late = cluster
        .submit_with(
            task_of(8).at(SimTime::from_millis(1_000)),
            SubmitOptions::new(),
        )
        .unwrap();
    // Tightest 8 GiB fit cluster-wide is job 0's worker 1 (8.8 GiB free).
    assert_eq!(late.job(), 0);
    let report = cluster.run();
    assert_eq!(
        late.worker(),
        Some(1),
        "pinned placement survives the arrival path"
    );
    assert!(late.steps().unwrap() > 0);
    assert_eq!(report.total_rejections(), 0);
}

/// A side task whose step only counts: what is left to run is the
/// simulator itself.
#[derive(Default)]
struct Counter {
    steps: u64,
}

impl SideTaskWorkload for Counter {
    fn name(&self) -> &'static str {
        "counter"
    }

    fn create(&mut self) {}

    fn init_gpu(&mut self) {}

    fn run_step(&mut self) -> f64 {
        self.steps += 1;
        self.steps as f64
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// Four jobs with four compute-free tasks each. Job 0 has a crash, a
/// straggler, an RPC spike, checkpoints and hedging, which touch its
/// workers mid-bubble.
fn counter_cluster(profile: bool) -> Cluster {
    let ms = SimTime::from_millis;
    let secs = SimDuration::from_secs;
    let faults = FaultPlan::new()
        .oom_window(ms(3_000), secs(2))
        .crash_worker(ms(4_000), 1, secs(1))
        .rpc_spike(ms(5_000), 3, SimDuration::from_millis(40), secs(1))
        .crash_worker(ms(5_200), 1, secs(3))
        .straggler(ms(6_000), 2, 0.25, secs(4));
    let models = [
        ModelSpec::nanogpt_3_6b(),
        ModelSpec::nanogpt_1_2b(),
        ModelSpec::nanogpt_6b(),
        ModelSpec::nanogpt_3_6b(),
    ];
    let mut builder = Cluster::builder()
        .policy(LeastLoaded)
        .cost_report(false)
        .profile(profile);
    for (j, model) in models.into_iter().enumerate() {
        let mut job = ClusterJob::new(pipeline(model, 2)).seed(j as u64 + 1);
        if j == 0 {
            job = job
                .faults(faults.clone())
                .checkpoint(secs(1))
                .supervise(SupervisorConfig::new().hedge(0.5));
        }
        builder = builder.job(job);
    }
    let mut cluster = builder.build();
    for j in 0..4 {
        for _ in 0..4 {
            let counter = Submission::custom("counter", MemBytes::from_gib(2), |_| {
                Box::new(Counter::default())
            })
            .with_step_time(SimDuration::from_millis(2));
            cluster
                .submit_with(counter, SubmitOptions::new().affinity(j))
                .unwrap();
        }
    }
    cluster
}

/// A well-behaved iterative task stepping alone in its bubble costs no
/// events per step: its steps are computed when something touches its
/// worker. On the counter cluster, the run needs fewer events than it
/// harvests steps. Queueing a launch and a completion per step would
/// need two.
#[test]
fn lone_side_steps_queue_no_events_of_their_own() {
    let report = counter_cluster(false).run();
    let (events, steps) = (report.events_processed, report.total_steps());
    assert!(events < steps, "{events} events for {steps} side steps");
}

/// Algorithm 2 runs on input only. A bubble report or an ack polls the
/// manager where it is delivered (an `rpc` event), so the manager's own
/// events are its polls at reported bubbles' predicted ends, one per
/// bubble, on the counter cluster and on the four-job cluster with its
/// imperative and MPS jobs. A timer that polls between inputs shows here
/// as extra events.
#[test]
fn the_manager_polls_once_per_reported_bubble() {
    for cluster in [counter_cluster(true), four_job_cluster(true)] {
        let report = cluster.run();
        let bubbles: u64 = report.jobs.iter().map(|j| j.bubbles_reported).sum();
        assert!(bubbles > 0);
        let profile = report.profile.expect("profiling is armed");
        let manager = profile.rows.iter().find(|r| r.subsystem == "manager");
        assert_eq!(manager.map(|r| r.events), Some(bubbles));
    }
}
