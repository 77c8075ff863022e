//! The health benchmark: the chaos layer's fault trace replayed under
//! increasing levels of supervision, so the health subsystem's
//! contributions — detection, proactive migration, straggler hedging —
//! can be read off against the same disaster.
//!
//! Every cell arms the reactive mechanisms PR 6 established (retry +
//! checkpoint/restart) and replays the chaos benchmark's trace (double
//! crash of worker 1, OOM window, RPC spike, straggler on worker 2).
//! What varies is the supervisor:
//!
//! | cell | supervision | what it shows |
//! |---|---|---|
//! | `unsupervised` | — | the reactive baseline: restores wait for rejoins |
//! | `detect` | detector only | the transition log; only `Dead` evicts |
//! | `migrate` | + migration on Suspect | checkpointed tasks leave the flapping worker earlier |
//! | `hedged` | + hedging at 0.5× median | the straggler's laggards get speculative duplicates |
//!
//! Each cell reports the detector's full transition log plus the health
//! counters ([`HealthReport`]), and — like every bench grid — fans out
//! across threads via [`SweepRunner`] with byte-identical output for any
//! `--threads`.
//!
//! [`HealthReport`]: freeride_core::HealthReport

use crate::chaos;
use crate::sweep::SweepRunner;
use crate::{header, BenchArgs, Text};
use freeride_core::{
    Cluster, ClusterJob, ClusterReport, RetryPolicy, Submission, SubmitOptions, SupervisorConfig,
};
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_sim::{SimDuration, SimTime};
use freeride_tasks::WorkloadKind;

/// Default seed of the scenario's job (overridable via `--seed`); shared
/// with the chaos benchmark so the two grids replay the same disaster.
pub const DEFAULT_SEED: u64 = chaos::DEFAULT_SEED;

/// One supervision level the fault trace is replayed under.
#[derive(Debug, Clone, Copy)]
pub struct HealthCell {
    /// Row label in the health report.
    pub name: &'static str,
    /// The supervisor armed for this cell (`None` = reactive baseline).
    pub supervise: Option<SupervisionLevel>,
}

/// How much of the supervisor a [`HealthCell`] arms.
#[derive(Debug, Clone, Copy)]
pub enum SupervisionLevel {
    /// Failure detector only: transitions are logged, `Dead` evicts, but
    /// `Suspect` takes no action.
    Detect,
    /// Detector plus proactive migration of checkpointed tasks on
    /// `Suspect` (the [`SupervisorConfig`] default).
    Migrate,
    /// Migration plus straggler hedging at half the fleet median.
    Hedge,
}

impl SupervisionLevel {
    /// The supervisor configuration this level arms.
    pub fn config(self) -> SupervisorConfig {
        match self {
            SupervisionLevel::Detect => SupervisorConfig::new().migrate_on_suspect(false),
            SupervisionLevel::Migrate => SupervisorConfig::new(),
            SupervisionLevel::Hedge => SupervisorConfig::new().hedge(0.5),
        }
    }
}

/// The benchmark grid: the reactive baseline, then one cell per
/// supervision level.
pub const CELLS: [HealthCell; 4] = [
    HealthCell {
        name: "unsupervised",
        supervise: None,
    },
    HealthCell {
        name: "detect",
        supervise: Some(SupervisionLevel::Detect),
    },
    HealthCell {
        name: "migrate",
        supervise: Some(SupervisionLevel::Migrate),
    },
    HealthCell {
        name: "hedged",
        supervise: Some(SupervisionLevel::Hedge),
    },
];

/// What one cell's run came to: the harvest, the health counters, and
/// the detector's full transition log.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell label.
    pub name: &'static str,
    /// Completed side-task steps across the job.
    pub steps: u64,
    /// Detector transitions, formatted in simulated-time order.
    pub transitions: Vec<String>,
    /// Mean crash-to-detection latency.
    pub mean_ttd: SimDuration,
    /// Mean detection-to-recovery latency.
    pub mean_ttr: SimDuration,
    /// Checkpointed tasks the supervisor migrated off unhealthy workers.
    pub migrations: u64,
    /// Hedge races the speculative duplicate won.
    pub hedge_wins: u64,
    /// Hedge races the original won.
    pub hedge_losses: u64,
}

/// Formats one outcome as the health bin prints it: a summary row
/// followed by one indented line per detector transition.
fn rows(o: &CellOutcome) -> Vec<String> {
    let mut out = vec![format!(
        "{:<13} steps={:<6} transitions={} mean_ttd={} mean_ttr={} migrations={} \
         hedge_wins={} hedge_losses={}",
        o.name,
        o.steps,
        o.transitions.len(),
        o.mean_ttd,
        o.mean_ttr,
        o.migrations,
        o.hedge_wins,
        o.hedge_losses
    )];
    for tr in &o.transitions {
        out.push(format!("              {tr}"));
    }
    out
}

/// Renders the `health` bin's text.
///
/// Run: `cargo run --release -p freeride-bench --bin health
/// [epochs] [--threads N] [--seed N]`
pub fn render(args: &BenchArgs) -> String {
    let mut out = Text::default();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    header(&mut out, "Health: one fault trace, every supervision level");
    writeln!(
        out,
        "pipeline: nanoGPT-3.6B, 4 stages; epochs={}; seed={seed:#x}",
        args.epochs
    );
    writeln!(out, "faults: {}", chaos::FAULTS);
    writeln!(
        out,
        "every cell arms retry + 1s checkpointing; supervision varies"
    );
    for outcome in run_cells(args.epochs, seed, args.sweep()) {
        for line in rows(&outcome) {
            writeln!(out, "{line}");
        }
    }
    out.0
}

/// Replays the fault trace for `epochs` under one supervision level.
pub fn run_cell(epochs: usize, seed: u64, cell: HealthCell) -> CellOutcome {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs);
    let mut job = ClusterJob::new(pipeline)
        .seed(seed)
        .faults(chaos::fault_plan())
        .checkpoint(SimDuration::from_secs(1));
    if let Some(level) = cell.supervise {
        job = job.supervise(level.config());
    }
    let mut cluster = Cluster::builder().job(job).cost_report(false).build();

    let retry = SubmitOptions::new().retry(RetryPolicy::new(8, SimDuration::from_millis(200)));
    // Two steady tasks, spread onto workers 0 and 1 — the second sits in
    // the path of both crashes.
    for _ in 0..2 {
        cluster
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .expect("up-front tasks fit");
    }
    // One arrival inside the OOM window, one after it: retry carries both
    // in; the second lands while worker 2 straggles, giving the hedged
    // cell a laggard to duplicate.
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_500)),
        retry.clone(),
    );
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(5_500)),
        retry,
    );

    summarize(cell.name, &cluster.run())
}

/// Runs every cell of [`CELLS`] (fanned across `runner`'s threads) and
/// returns outcomes in grid order.
pub fn run_cells(epochs: usize, seed: u64, runner: SweepRunner) -> Vec<CellOutcome> {
    let jobs: Vec<_> = CELLS
        .into_iter()
        .map(|cell| move || run_cell(epochs, seed, cell))
        .collect();
    runner.run(jobs)
}

fn summarize(name: &'static str, report: &ClusterReport) -> CellOutcome {
    let h = &report.health;
    CellOutcome {
        name,
        steps: report.total_steps(),
        transitions: h.transitions.iter().map(|t| t.to_string()).collect(),
        mean_ttd: h.mean_time_to_detect(),
        mean_ttr: h.mean_time_to_recover(),
        migrations: h.migrations,
        hedge_wins: h.hedge_wins,
        hedge_losses: h.hedge_losses,
    }
}
