//! The heterogeneous-fleet experiment: fleet mix × placement policy.
//!
//! The paper evaluates on four identical RTX 6000 Ada GPUs; this
//! experiment asks what bubble harvesting looks like when the fleet is
//! mixed. Four fleet compositions (uniform reference, fast head, fully
//! mixed, budget tail — built from the `HardwareSpec` presets) host the
//! paper's 1.2B model, and every shipped `PlacementPolicy` (including the
//! hardware-aware `FastestFit`) routes the same contended workload mix
//! onto them. Cells fan out through the
//! [`SweepRunner`](crate::SweepRunner) and rows are collected in
//! submission order, so the text is the same for any thread count.
//!
//! Each cell reports where tasks landed, per-worker harvested steps (the
//! direct fingerprint of device speed), rejections, the throughput loss,
//! and the fleet makespan.

use crate::{header, pct, BenchArgs, Text, PLACEMENT_POLICIES};
use freeride_core::{
    Cluster, ClusterJob, ClusterReport, PlacementPolicy, Submission, SubmitOptions,
};
use freeride_gpu::{HardwareSpec, MemBytes};
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_tasks::WorkloadKind;

/// The four fleet compositions under test. The 1.2B model pins ≈40.8 GiB
/// on stage 0 down to ≈15.6 GiB on stage 3, so big cards belong at the
/// head and the L4 only fits the tail.
fn fleets() -> Vec<(&'static str, Vec<HardwareSpec>)> {
    vec![
        ("uniform-48g", vec![HardwareSpec::rtx6000ada_48g(); 4]),
        (
            "fast-head",
            vec![
                HardwareSpec::h100_80g(),
                HardwareSpec::a100_80g(),
                HardwareSpec::rtx6000ada_48g(),
                HardwareSpec::rtx6000ada_48g(),
            ],
        ),
        (
            "mixed",
            vec![
                HardwareSpec::h100_80g(),
                HardwareSpec::a100_80g(),
                HardwareSpec::a100_40g(),
                HardwareSpec::l4_24g(),
            ],
        ),
        (
            "budget-tail",
            vec![
                HardwareSpec::rtx6000ada_48g(),
                HardwareSpec::rtx6000ada_48g(),
                HardwareSpec::a100_40g(),
                HardwareSpec::l4_24g(),
            ],
        ),
    ]
}

/// Builds, loads, and runs one fleet × policy cell: a single 1.2B job on
/// the given fleet, under a contended submission mix.
fn run_cell(
    fleet: Vec<HardwareSpec>,
    policy: Box<dyn PlacementPolicy>,
    epochs: usize,
    seed: Option<u64>,
) -> ClusterReport {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b())
        .with_epochs(epochs)
        .with_hardware(fleet);
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline).seed(seed.unwrap_or(0x4E_7E_20))) // "hetero"
        .policy(policy)
        .build();

    // Policy-routed built-ins: enough waves that placement differences
    // show up in per-worker step counts.
    for _ in 0..2 {
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::PageRank),
            SubmitOptions::new(),
        );
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::ResNet18),
            SubmitOptions::new(),
        );
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::ImageProc),
            SubmitOptions::new(),
        );
    }
    // Contended footprints: 6 GiB fits most workers; 30 GiB only fits the
    // roomy 80 GiB head stages of the mixed fleets.
    for gib in [6, 30] {
        let _ = cluster.submit_with(
            Submission::custom(format!("mem{gib}g"), MemBytes::from_gib(gib), |s| {
                WorkloadKind::PageRank.build(s)
            }),
            SubmitOptions::new(),
        );
    }
    cluster.run()
}

/// Per-worker harvested steps, e.g. `w0:0 w1:312 w2:95 w3:40`.
fn steps_by_worker(report: &ClusterReport, stages: usize) -> String {
    let mut per = vec![0u64; stages];
    for job in &report.jobs {
        for t in &job.tasks {
            per[t.worker] += t.steps;
        }
    }
    per.iter()
        .enumerate()
        .map(|(w, s)| format!("w{w}:{s}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders the `hetero` bin's text.
///
/// Run: `cargo run --release -p freeride-bench --bin hetero
/// [epochs] [--threads N] [--seed N]`
pub fn render(args: &BenchArgs) -> String {
    let mut out = Text::default();
    header(
        &mut out,
        "Heterogeneous fleets: fleet mix x placement policy (1.2B model)",
    );
    writeln!(
        out,
        "(epochs={}, speeds: h100=1.9 a100-80=1.1 a100-40=1.05 ref=1.0 l4=0.35)",
        args.epochs
    );

    let jobs: Vec<_> = fleets()
        .into_iter()
        .flat_map(|fleet| PLACEMENT_POLICIES.map(|make| (fleet.clone(), make)))
        .map(|((fleet_name, fleet), make)| {
            let epochs = args.epochs;
            let seed = args.seed;
            move || {
                let policy = make();
                let name = policy.name();
                let report = run_cell(fleet, policy, epochs, seed);
                format!(
                    "fleet={fleet_name:<12} policy={name:<16} tasks={} rejected={} \
                     steps={:<6} [{}] loss={} makespan={}",
                    report.jobs.iter().map(|j| j.tasks.len()).sum::<usize>(),
                    report.total_rejections(),
                    report.total_steps(),
                    steps_by_worker(&report, 4),
                    pct(report.global_throughput_loss().unwrap_or(0.0)),
                    report.makespan(),
                )
            }
        })
        .collect();
    for row in args.sweep().run(jobs) {
        writeln!(out, "{row}");
    }
    out.0
}
