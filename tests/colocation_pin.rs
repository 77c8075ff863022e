//! Output-identity pin for the single-job path.
//!
//! `run_colocation` and a one-job `Cluster` with the cost report on are
//! reduced to an FNV-1a digest of everything a run reports: times, bubble
//! counts, the Fig. 9 breakdown, every task's outcome, every rejection,
//! and the cost metrics. The constants go back to digests captured before
//! the single-job wrappers were folded into `Cluster`: they were
//! recomputed without the event count on code that still matched those,
//! so any change to what the one front door computes fails here.
//!
//! Each run's `events_processed` is pinned on its own, as a plain number
//! beside the digest: a change to how many events the simulator needs
//! then shows as that number alone, with every output digest unchanged.
//!
//! One two-job cluster is pinned the same way: its jobs carry different
//! RPC physics and overlapping RPC spikes.

mod common;

use common::Fnv;
use freeride::prelude::*;

fn rejections(rejected: &[RejectedSubmission], h: &mut Fnv) {
    h.word(rejected.len() as u64);
    for r in rejected {
        h.bytes(r.submission.tag().name().as_bytes());
        h.bytes(r.error.kind().as_bytes());
    }
}

fn digest(report: &DeploymentReport, h: &mut Fnv) {
    h.word(report.total_time.as_nanos());
    h.word(report.epoch_times.len() as u64);
    for e in &report.epoch_times {
        h.word(e.as_nanos());
    }
    h.word(report.bubbles_reported);
    let b = &report.breakdown;
    for d in [b.total, b.running, b.insufficient, b.unused_oom] {
        h.word(d.as_nanos());
    }
    h.word(report.tasks.len() as u64);
    for t in &report.tasks {
        h.word(t.id.0);
        h.word(t.worker as u64);
        h.word(t.steps);
        h.bytes(format!("{:?}/{:?}", t.final_state, t.stop_reason).as_bytes());
        h.word(t.last_value.map_or(0, f64::to_bits));
    }
    rejections(&report.rejected, h);
    h.word(report.baseline_time.map_or(0, SimDuration::as_nanos));
    match &report.cost {
        Some(c) => {
            for f in [
                c.time_increase,
                c.baseline_cost,
                c.extra_cost,
                c.side_task_value,
                c.cost_savings,
            ] {
                h.word(f.to_bits());
            }
        }
        None => h.word(0),
    }
}

fn hex(d: u64) -> String {
    format!("{d:#018x}")
}

fn pipeline() -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2)
}

/// The output digest and the event count of one `run_colocation`.
fn colocation_digest(cfg: &FreeRideConfig, submissions: &[Submission]) -> (String, u64) {
    let report = run_colocation(&pipeline(), cfg, submissions);
    let mut h = Fnv::new();
    digest(&report, &mut h);
    (hex(h.finish()), report.events_processed)
}

#[test]
fn run_colocation_is_pinned() {
    let pagerank = Submission::per_worker(WorkloadKind::PageRank, 4);
    // An in-run rejection submitted before a submission-time one: the
    // report lists submission-time rejections first.
    let rejected = [
        Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(600_000)),
        Submission::new(WorkloadKind::Vgg19).with_batch(256),
        Submission::new(WorkloadKind::PageRank),
    ];
    let runs = [
        colocation_digest(&FreeRideConfig::iterative(), &pagerank),
        colocation_digest(&FreeRideConfig::imperative(), &pagerank),
        colocation_digest(&FreeRideConfig::mps_baseline(), &pagerank),
        colocation_digest(&FreeRideConfig::naive_baseline(), &pagerank),
        colocation_digest(&FreeRideConfig::iterative(), &Submission::mixed()),
        colocation_digest(&FreeRideConfig::iterative(), &rejected),
    ];
    let cases =
        "PageRank ×4 under iterative, imperative, MPS, naive; mixed and rejections under iterative";
    let expected = [
        0xdc4374ef74796085u64,
        0xd34f65ce146fac83,
        0x3047f585e91e1c73,
        0xc792726952f34ffe,
        0xf8a8c087c837c923,
        0x43ba4885ab222245,
    ];
    assert_eq!(runs.clone().map(|r| r.0), expected.map(hex), "{cases}");
    assert_eq!(
        runs.map(|r| r.1),
        [305, 1153, 2738, 3613, 305, 214],
        "events: {cases}"
    );
}

#[test]
fn one_job_cluster_with_cost_report_is_pinned() {
    let mut cluster = Cluster::builder().job(ClusterJob::new(pipeline())).build();
    let oversize = Submission::new(WorkloadKind::Vgg19).with_batch(256);
    let err = cluster
        .submit_with(oversize, SubmitOptions::new())
        .unwrap_err();
    assert_eq!(err.kind(), "insufficient-memory");
    let late = Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(1_500));
    cluster.submit_with(late, SubmitOptions::new()).unwrap();
    let report = cluster.run();

    let mut h = Fnv::new();
    rejections(&report.rejected, &mut h);
    digest(&report.jobs[0], &mut h);
    assert_eq!(hex(h.finish()), hex(0x5bf9e96b8525a52f));
    assert_eq!(report.jobs[0].events_processed, 214, "events");
}

/// A two-job cluster whose jobs run different RPC physics, PageRank on
/// every worker. Job 1 has its own latency and jitter, and its spiked
/// worker falls back to them when the spike ends. One job-0 worker sees
/// three overlapping spikes of different latencies; each window that
/// closes hands the link to the latest-opened one still open.
#[test]
fn two_jobs_with_their_own_rpc_physics_are_pinned() {
    let (at, ms) = (SimTime::from_millis, SimDuration::from_millis);
    let job0 = ClusterJob::new(pipeline()).faults(
        FaultPlan::new()
            .rpc_spike(at(2_000), 1, ms(30), ms(3_000))
            .rpc_spike(at(2_500), 1, ms(60), ms(1_000))
            .rpc_spike(at(4_500), 1, ms(10), ms(1_500)),
    );
    let job1 = ClusterJob::new(pipeline())
        .tune(|c| {
            c.rpc_latency = SimDuration::from_micros(300);
            c.rpc_jitter = 0.05;
        })
        .faults(FaultPlan::new().rpc_spike(at(3_000), 2, ms(40), ms(2_000)));
    let mut cluster = Cluster::builder()
        .job(job0)
        .job(job1)
        .cost_report(false)
        .build();
    for job in 0..2 {
        for sub in Submission::per_worker(WorkloadKind::PageRank, 4) {
            cluster
                .submit_with(sub, SubmitOptions::new().affinity(job))
                .expect("PageRank fits");
        }
    }
    let report = cluster.run();
    for job in &report.jobs {
        let mut workers: Vec<usize> = job.tasks.iter().map(|t| t.worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, [0, 1, 2, 3], "PageRank on every worker");
    }

    let mut h = Fnv::new();
    rejections(&report.rejected, &mut h);
    for job in &report.jobs {
        digest(job, &mut h);
    }
    assert_eq!(hex(h.finish()), hex(0x610710930b29c470));
    let events: Vec<u64> = report.jobs.iter().map(|j| j.events_processed).collect();
    assert_eq!(events, [312, 308], "events");
}
