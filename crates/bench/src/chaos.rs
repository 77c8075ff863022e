//! The chaos benchmark: one deterministic fault trace replayed under
//! every resilience mechanism, so their effects can be compared on the
//! same disaster.
//!
//! The scenario is a single 4-stage 3.6B training job whose first eleven
//! simulated seconds go badly wrong:
//!
//! * an **OOM window** from 3.0s to 5.0s rejects every admission;
//! * worker 1 **crashes twice** — at 4.0s (down 1s) and again at 5.2s
//!   (down 3s) — a flapping worker that kills its side tasks;
//! * an **RPC spike** pins manager↔worker-3 latency at 40ms for the
//!   second starting at 5.0s;
//! * worker 2 **straggles** at ×0.25 compute speed from 6.0s to 10.0s.
//!
//! Against that trace run two steady side tasks (placed on workers 0 and
//! 1 up front), one late arrival inside the OOM window, and one arrival
//! pinned — by the scenario's placement policy — to the flapping worker
//! between its two crashes. Each cell of [`CELLS`] replays the identical
//! trace under a different mechanism mix:
//!
//! | cell | mechanisms | what it shows |
//! |---|---|---|
//! | `none` | — | both arrivals rejected, worker 1's task lost |
//! | `retry` | [`RetryPolicy`] | arrivals back off past the OOM window |
//! | `checkpoint` | checkpoint/restart | worker 1's task survives both crashes |
//! | `breaker` | [`CircuitBreaker`] + retry | the pinned arrival waits out the flapping |
//! | `all` | all three | the mechanisms compose |
//! | `supervised` | all three + [`SupervisorConfig`] | proactive migration out-harvests `all` |
//!
//! (A breaker only acts on *re*-submissions, so its cell rides on retry;
//! its isolated contribution is the delta against the `retry` cell. The
//! `supervised` cell arms the health subsystem on top of `all`: the
//! failure detector suspects the flapping worker ~300ms after its first
//! crash and migrates its checkpointed task to a healthy worker — dodging
//! the second crash entirely instead of restoring into it. It also hedges
//! the straggler window's laggards, but no hedge wins its race: the
//! `health` grid's `hedged` cell loses both and harvests exactly the
//! steps of its `migrate` cell.)
//!
//! Everything here is deterministic: cells fan out across threads via
//! [`SweepRunner`] and come back in submission order, so the chaos bin's
//! output is byte-identical for any `--threads`.

use crate::sweep::SweepRunner;
use crate::{header, BenchArgs, Text};
use freeride_core::{
    CircuitBreaker, Cluster, ClusterJob, ClusterReport, ClusterView, FaultPlan, MinTasksJob,
    Placement, PlacementPolicy, RetryPolicy, StopReason, Submission, SubmitOptions,
    SupervisorConfig,
};
use freeride_gpu::MemBytes;
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_sim::{SimDuration, SimTime};
use freeride_tasks::WorkloadKind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker the fault trace crashes twice.
pub const FLAPPING_WORKER: usize = 1;

/// Submissions routed normally before the policy starts pinning to the
/// flapping worker (two up-front tasks plus the OOM-window arrival).
const ROUTED_NORMALLY: usize = 3;

/// Default seed of the scenario's job (overridable via `--seed`).
pub const DEFAULT_SEED: u64 = 0xC4A05;

/// The scenario's placement policy: the first [`ROUTED_NORMALLY`]
/// submissions spread like [`MinTasksJob`]; every later one is pinned to
/// [`FLAPPING_WORKER`] — giving the resilience mechanisms a submission
/// stream aimed straight at the disaster.
struct PinLateToFlapping {
    routed: AtomicUsize,
}

impl PinLateToFlapping {
    fn new() -> Self {
        PinLateToFlapping {
            routed: AtomicUsize::new(0),
        }
    }
}

impl PlacementPolicy for PinLateToFlapping {
    fn name(&self) -> &'static str {
        "pin-late"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        if self.routed.fetch_add(1, Ordering::Relaxed) < ROUTED_NORMALLY {
            MinTasksJob.place(needed, view)
        } else {
            Some(Placement::Worker {
                job: 0,
                worker: FLAPPING_WORKER,
            })
        }
    }
}

/// [`fault_plan`] as the `chaos` and `health` bins print it.
pub(crate) const FAULTS: &str = "oom 3.0-5.0s | crash w1 @4.0s (1s) and @5.2s (3s) | \
                          rpc spike w3 @5.0s (40ms, 1s) | straggler w2 @6.0s (x0.25, 4s)";

/// The shared fault trace every cell replays.
pub fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .oom_window(SimTime::from_millis(3_000), SimDuration::from_secs(2))
        .crash_worker(
            SimTime::from_millis(4_000),
            FLAPPING_WORKER,
            SimDuration::from_secs(1),
        )
        .rpc_spike(
            SimTime::from_millis(5_000),
            3,
            SimDuration::from_millis(40),
            SimDuration::from_secs(1),
        )
        .crash_worker(
            SimTime::from_millis(5_200),
            FLAPPING_WORKER,
            SimDuration::from_secs(3),
        )
        .straggler(
            SimTime::from_millis(6_000),
            2,
            0.25,
            SimDuration::from_secs(4),
        )
}

/// One mechanism mix the trace is replayed under.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCell {
    /// Row label in the chaos report.
    pub name: &'static str,
    /// Arrivals carry a [`RetryPolicy`] (8 attempts, 200ms base backoff).
    pub retry: bool,
    /// The job checkpoints side-task progress every simulated second.
    pub checkpoint: bool,
    /// The placement policy is wrapped in a [`CircuitBreaker`]
    /// (threshold 2, cooldown 3s); implies retry (see module docs).
    pub breaker: bool,
    /// The health subsystem is armed ([`SupervisorConfig`] defaults plus
    /// hedging at half the fleet median); rides on all three mechanisms.
    pub supervise: bool,
}

/// The benchmark grid: no mechanism, each mechanism, all three, all
/// three under supervision.
pub const CELLS: [ChaosCell; 6] = [
    ChaosCell {
        name: "none",
        retry: false,
        checkpoint: false,
        breaker: false,
        supervise: false,
    },
    ChaosCell {
        name: "retry",
        retry: true,
        checkpoint: false,
        breaker: false,
        supervise: false,
    },
    ChaosCell {
        name: "checkpoint",
        retry: false,
        checkpoint: true,
        breaker: false,
        supervise: false,
    },
    ChaosCell {
        name: "breaker",
        retry: true,
        checkpoint: false,
        breaker: true,
        supervise: false,
    },
    ChaosCell {
        name: "all",
        retry: true,
        checkpoint: true,
        breaker: true,
        supervise: false,
    },
    ChaosCell {
        name: "supervised",
        retry: true,
        checkpoint: true,
        breaker: true,
        supervise: true,
    },
];

/// What one cell's run came to, reduced to the comparison metrics.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell label.
    pub name: &'static str,
    /// Active placement policy (`pin-late`, or `circuit-breaker` wrapping it).
    pub policy: &'static str,
    /// Completed side-task steps across the job.
    pub steps: u64,
    /// Rejected submissions (at submission plus in-run).
    pub rejections: usize,
    /// Tasks that died with the worker ([`StopReason::WorkerLost`]).
    pub lost: usize,
    /// Recoveries (retry that stuck, or checkpoint restore).
    pub recoveries: usize,
    /// Longest first-failure-to-recovery latency.
    pub worst_recovery: SimDuration,
}

/// Formats one outcome as the chaos bin prints it.
fn row(o: &CellOutcome) -> String {
    format!(
        "{:<11} policy={:<15} steps={:<6} rejected={} lost={} recovered={} worst_recovery={}",
        o.name, o.policy, o.steps, o.rejections, o.lost, o.recoveries, o.worst_recovery
    )
}

/// Renders the `chaos` bin's text.
///
/// Run: `cargo run --release -p freeride-bench --bin chaos
/// [epochs] [--threads N] [--seed N]`
pub fn render(args: &BenchArgs) -> String {
    let mut out = Text::default();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    header(
        &mut out,
        "Chaos: one fault trace, every resilience mechanism",
    );
    writeln!(
        out,
        "pipeline: nanoGPT-3.6B, 4 stages; epochs={}; seed={seed:#x}",
        args.epochs
    );
    writeln!(out, "faults: {FAULTS}");
    for outcome in run_cells(args.epochs, seed, args.sweep()) {
        writeln!(out, "{}", row(&outcome));
    }
    out.0
}

/// Replays the fault trace for `epochs` under one mechanism mix.
pub fn run_cell(epochs: usize, seed: u64, cell: ChaosCell) -> CellOutcome {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs);
    let mut job = ClusterJob::new(pipeline).seed(seed).faults(fault_plan());
    if cell.checkpoint {
        job = job.checkpoint(SimDuration::from_secs(1));
    }
    if cell.supervise {
        job = job.supervise(SupervisorConfig::new().hedge(0.5));
    }
    let builder = Cluster::builder().job(job).cost_report(false);
    let builder = if cell.breaker {
        builder.policy(CircuitBreaker::new(
            PinLateToFlapping::new(),
            2,
            SimDuration::from_secs(3),
        ))
    } else {
        builder.policy(PinLateToFlapping::new())
    };
    let mut cluster = builder.build();

    let retry = RetryPolicy::new(8, SimDuration::from_millis(200));
    let opts = || {
        if cell.retry {
            SubmitOptions::new().retry(retry)
        } else {
            SubmitOptions::new()
        }
    };

    // Two steady tasks: Algorithm 1 spreads them onto workers 0 and 1 —
    // the second lands in the path of both crashes.
    for _ in 0..2 {
        cluster
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .expect("up-front tasks fit");
    }
    // Arrival inside the OOM window (3.0–5.0s): dead on arrival without
    // retry, admitted onto an idle worker once the window passes with it.
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_500)),
        opts(),
    );
    // Arrival pinned to the flapping worker between its two crashes: the
    // cell that fares best is the breaker's, which sheds the doomed
    // placement attempts and probes back only once the worker stays up.
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(4_500)),
        opts(),
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
    let job = &report.jobs[0];
    CellOutcome {
        name,
        policy: report.policy,
        steps: report.total_steps(),
        rejections: report.total_rejections(),
        lost: job
            .tasks
            .iter()
            .filter(|t| t.stop_reason == StopReason::WorkerLost)
            .count(),
        recoveries: job.recoveries.len(),
        worst_recovery: job
            .recoveries
            .iter()
            .map(|r| r.latency)
            .max()
            .unwrap_or(SimDuration::ZERO),
    }
}
