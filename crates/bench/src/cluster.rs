//! The multi-job scaling experiment: job count × placement policy.
//!
//! Sweeps clusters of 1–4 concurrently-simulated pipeline-training jobs
//! (cycling model sizes 3.6B → 1.2B → 6B, each job under its own seed)
//! against every shipped [`PlacementPolicy`] but `FastestFit`: on this
//! sweep's uniform hardware it places exactly like `FirstFit`. Cells fan
//! out through the [`SweepRunner`](crate::SweepRunner) and rows are
//! collected in submission order, so the text is the same for any thread
//! count.
//!
//! Each cell submits the same contended workload mix — per-job affinity
//! tasks, policy-routed built-ins, and oversized footprints that only the
//! roomier jobs can host — and reports tasks placed, rejections,
//! harvested steps, the cluster-wide throughput loss, and the makespan.
//! A per-policy rejection summary closes the sweep.
//!
//! [`PlacementPolicy`]: freeride_core::PlacementPolicy

use crate::{header, pct, BenchArgs, Text, PLACEMENT_POLICIES};
use freeride_core::{
    Cluster, ClusterJob, ClusterReport, FastestFit, PlacementPolicy, Submission, SubmitOptions,
};
use freeride_gpu::MemBytes;
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_tasks::WorkloadKind;
use std::collections::BTreeMap;

/// The model rotation across jobs: the paper's 3.6B plus a roomy and a
/// cramped neighbour, so placement actually has texture.
fn model_of(job: usize) -> ModelSpec {
    match job % 3 {
        0 => ModelSpec::nanogpt_3_6b(),
        1 => ModelSpec::nanogpt_1_2b(),
        _ => ModelSpec::nanogpt_6b(),
    }
}

/// A side task with an explicit GPU footprint (the contention knob).
fn task_of(gib: u64) -> Submission {
    Submission::custom(format!("mem{gib}g"), MemBytes::from_gib(gib), |seed| {
        WorkloadKind::PageRank.build(seed)
    })
}

/// Builds, loads, and runs one cluster cell.
fn run_cell(
    jobs: usize,
    policy: Box<dyn PlacementPolicy>,
    epochs: usize,
    seed: Option<u64>,
) -> ClusterReport {
    let mut builder = Cluster::builder().policy(policy);
    for j in 0..jobs {
        let base = seed.unwrap_or(0xC1_05_7E); // "cluster"
        builder = builder.job(
            ClusterJob::new(PipelineConfig::paper_default(model_of(j)).with_epochs(epochs))
                .seed(base ^ (j as u64)),
        );
    }
    let mut cluster = builder.build();

    // Affinity: one PageRank pinned to each job (spills over if cramped).
    for j in 0..jobs {
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::PageRank),
            SubmitOptions::new().affinity(j),
        );
    }
    // Policy-routed built-ins, one wave per job.
    for _ in 0..jobs {
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::ResNet18),
            SubmitOptions::new(),
        );
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::ImageProc),
            SubmitOptions::new(),
        );
    }
    // Contended footprints: the 25 GiB task only fits a 1.2B job's late
    // stages — single-job (3.6B-only) clusters must reject it.
    for gib in [8, 12, 18, 25] {
        let _ = cluster.submit_with(task_of(gib), SubmitOptions::new());
    }
    cluster.run()
}

/// Renders the `cluster` bin's text.
///
/// Run: `cargo run --release -p freeride-bench --bin cluster
/// [epochs] [--threads N] [--seed N]`
pub fn render(args: &BenchArgs) -> String {
    let mut out = Text::default();
    header(&mut out, "Cluster sweep: job count x placement policy");
    writeln!(out, "(epochs={}, model rotation 3.6B/1.2B/6B)", args.epochs);

    let policies = PLACEMENT_POLICIES
        .into_iter()
        .filter(|make| make().name() != FastestFit.name());
    let jobs: Vec<_> = (1..=4)
        .flat_map(|n| policies.clone().map(move |make| (n, make)))
        .map(|(n, make)| {
            let epochs = args.epochs;
            let seed = args.seed;
            move || {
                let policy = make();
                let name = policy.name();
                let report = run_cell(n, policy, epochs, seed);
                let row = format!(
                    "jobs={n} policy={name:<16} tasks={:<2} rejected={} steps={:<6} \
                     loss={} makespan={}",
                    report.jobs.iter().map(|j| j.tasks.len()).sum::<usize>(),
                    report.total_rejections(),
                    report.total_steps(),
                    pct(report.global_throughput_loss().unwrap_or(0.0)),
                    report.makespan(),
                );
                (row, report.rejections_by_policy())
            }
        })
        .collect();
    let results = args.sweep().run(jobs);

    let mut by_policy: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (row, rejections) in &results {
        writeln!(out, "{row}");
        for (policy, count) in rejections {
            *by_policy.entry(policy).or_default() += count;
        }
    }

    header(&mut out, "Rejections per policy (summed over job counts)");
    for (policy, count) in by_policy {
        writeln!(out, "{policy:<16} {count}");
    }
    out.0
}
