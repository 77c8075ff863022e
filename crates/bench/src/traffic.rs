//! The traffic benchmark: open-loop multi-tenant load against the
//! service front-end, one grid of arrival processes × middleware stacks.
//!
//! Three tenants offer load against a single 4-stage 3.6B training job
//! for the first [`HORIZON_SECS`] simulated seconds:
//!
//! * `batch` — PageRank-heavy analytics (weight 3) plus Graph SGD;
//! * `interactive` — image processing;
//! * `training` — ResNet18 / VGG19 fine-tuning, the slow heavy tail.
//!
//! Each grid cell replays the same tenant mix under one arrival process
//! ([`PROCESSES`]: Poisson, bursty ON/OFF, diurnal) and one middleware
//! stack ([`STACKS`]):
//!
//! * `open` — only a [`ServiceMetrics`] layer: every arrival reaches the
//!   placement policy; the baseline latency and rejection floor;
//! * `guarded` — the full onion: metrics, [`AdmissionControl`],
//!   [`TenantQuota`], [`DeadlineLayer`], [`PriorityTag`], and a
//!   *delaying* [`RateLimit`] innermost — delays surface as
//!   latency-to-placement, and delays past the deadline budget surface
//!   as `deadline-exceeded` rejections at the admission plane.
//!
//! Every cell reports p50/p99/p999 latency-to-placement, rejection rates
//! by tenant and by layer, and harvest efficiency (the fraction of bubble
//! time spent running side-task steps). Cells fan out across threads via
//! [`SweepRunner`] and return in grid order — the traffic bin's output
//! is byte-identical for any `--threads`.

use crate::sweep::SweepRunner;
use crate::{header, BenchArgs, Text};
use freeride_core::ClusterJob;
use freeride_core::{
    AdmissionControl, Cluster, ClusterReport, DeadlineLayer, PriorityTag, RateLimit, RateLimitMode,
    ServiceMetrics, Submission, SubmitOptions, TenantQuota, TenantStats,
};
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_sim::SimDuration;
use freeride_tasks::{ArrivalProcess, TrafficClass, TrafficGen, WorkloadKind};

/// Default seed of the generated traces (overridable via `--seed`).
pub const DEFAULT_SEED: u64 = 0x7AFF1C;

/// Simulated seconds of offered load per cell.
pub const HORIZON_SECS: u64 = 20;

/// The arrival processes of the grid, in row order.
pub const PROCESSES: [&str; 3] = ["poisson", "onoff", "diurnal"];

/// The middleware stacks of the grid, in row order.
pub const STACKS: [&str; 2] = ["open", "guarded"];

/// One cell of the benchmark grid: an arrival process × a middleware
/// stack.
#[derive(Debug, Clone, Copy)]
pub struct TrafficCell {
    /// Arrival-process label (one of [`PROCESSES`]).
    pub process: &'static str,
    /// Middleware-stack label (one of [`STACKS`]).
    pub stack: &'static str,
}

/// The full grid, process-major: every process under every stack.
pub fn cells() -> Vec<TrafficCell> {
    let mut out = Vec::with_capacity(PROCESSES.len() * STACKS.len());
    for process in PROCESSES {
        for stack in STACKS {
            out.push(TrafficCell { process, stack });
        }
    }
    out
}

/// The cell's arrival process for a tenant whose mean offered rate is
/// `basis` arrivals per simulated second.
fn process_for(label: &str, basis: f64) -> ArrivalProcess {
    match label {
        "poisson" => ArrivalProcess::Poisson {
            rate_per_sec: basis,
        },
        // 2s bursts every 5s at 2.5x the mean rate: same offered load,
        // delivered in spikes.
        "onoff" => ArrivalProcess::OnOff {
            on: SimDuration::from_secs(2),
            off: SimDuration::from_secs(3),
            rate_per_sec: basis * 2.5,
        },
        // Two simulated "days" across the horizon, 4:1 peak-to-trough.
        "diurnal" => ArrivalProcess::Diurnal {
            mean_rate_per_sec: basis,
            peak_to_trough: 4.0,
            period: SimDuration::from_secs(10),
        },
        other => unreachable!("unknown process label {other}"),
    }
}

/// The shared three-tenant trace for one cell's arrival process.
pub fn trace_for(seed: u64, process: &str) -> Vec<freeride_tasks::Arrival> {
    TrafficGen::new(seed)
        .duration(SimDuration::from_secs(HORIZON_SECS))
        .class(
            TrafficClass::new("batch", process_for(process, 1.5))
                .workload(WorkloadKind::PageRank, 3.0)
                .workload(WorkloadKind::GraphSgd, 1.0),
        )
        .class(
            TrafficClass::new("interactive", process_for(process, 1.0))
                .workload(WorkloadKind::ImageProc, 1.0),
        )
        .class(
            TrafficClass::new("training", process_for(process, 0.5))
                .workload(WorkloadKind::ResNet18, 1.0)
                .workload(WorkloadKind::Vgg19, 1.0),
        )
        .generate()
}

/// What one cell's run came to, reduced to the comparison metrics.
#[derive(Debug, Clone)]
pub struct TrafficOutcome {
    /// Cell label, `process/stack`.
    pub name: String,
    /// Arrivals the generator offered.
    pub arrivals: usize,
    /// Of those, accepted by the admission plane.
    pub accepted: u64,
    /// Of those, rejected anywhere in the stack.
    pub rejected: u64,
    /// Median latency-to-placement.
    pub p50: SimDuration,
    /// 99th-percentile latency-to-placement.
    pub p99: SimDuration,
    /// 99.9th-percentile latency-to-placement.
    pub p999: SimDuration,
    /// Per-tenant counters, tenant-name order.
    pub tenants: Vec<(String, TenantStats)>,
    /// Rejections *originated* per layer (the chain's shed accounting),
    /// outermost first, with the placement policy last.
    pub layers: Vec<(&'static str, u64)>,
    /// Rejection counts keyed by error kind (the metrics layer's view).
    pub kinds: Vec<(&'static str, u64)>,
    /// Fraction of bubble time spent running side-task steps.
    pub harvest: f64,
}

/// Formats one outcome as the traffic bin prints it (three lines).
fn rows(o: &TrafficOutcome) -> Vec<String> {
    let mut out = Vec::with_capacity(3);
    out.push(format!(
        "{:<16} arrivals={:<4} accepted={:<4} rejected={:<4} p50={} p99={} p999={} harvest={:.3}",
        o.name, o.arrivals, o.accepted, o.rejected, o.p50, o.p99, o.p999, o.harvest
    ));
    let tenants: Vec<String> = o
        .tenants
        .iter()
        .map(|(name, s)| format!("{name}={}/{}", s.rejected, s.submitted))
        .collect();
    out.push(format!(
        "{:<16}   rejected/submitted by tenant: {}",
        "",
        tenants.join(" ")
    ));
    let layers: Vec<String> = o
        .layers
        .iter()
        .map(|(name, shed)| format!("{name}={shed}"))
        .collect();
    let kinds: Vec<String> = o
        .kinds
        .iter()
        .map(|(name, count)| format!("{name}={count}"))
        .collect();
    out.push(format!(
        "{:<16}   shed by layer: {} | by kind: {}",
        "",
        layers.join(" "),
        if kinds.is_empty() {
            "-".to_owned()
        } else {
            kinds.join(" ")
        }
    ));
    out
}

/// Renders the `traffic` bin's text.
///
/// Run: `cargo run --release -p freeride-bench --bin traffic
/// [epochs] [--threads N] [--seed N]`
pub fn render(args: &BenchArgs) -> String {
    let mut out = Text::default();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    header(
        &mut out,
        "Traffic: open-loop multi-tenant load on the service front-end",
    );
    writeln!(
        out,
        "pipeline: nanoGPT-3.6B, 4 stages; epochs={}; seed={seed:#x}; horizon={}s",
        args.epochs, HORIZON_SECS
    );
    writeln!(
        out,
        "tenants: batch (PageRank/GraphSGD, 1.5/s) | interactive (ImageProc, 1.0/s) | \
         training (ResNet18/VGG19, 0.5/s)"
    );
    for outcome in run_cells(args.epochs, seed, args.sweep()) {
        for line in rows(&outcome) {
            writeln!(out, "{line}");
        }
    }
    out.0
}

/// Replays one cell: generate the trace, drive it through the stack,
/// run the cluster, and reduce the report.
pub fn run_cell(epochs: usize, seed: u64, cell: TrafficCell) -> TrafficOutcome {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs);
    let mut builder = Cluster::builder()
        .job(ClusterJob::new(pipeline).seed(seed))
        .cost_report(false)
        .layer(ServiceMetrics::new());
    if cell.stack == "guarded" {
        builder = builder
            .layer(AdmissionControl::new(11, SimDuration::from_secs(4)))
            .layer(TenantQuota::new(5, SimDuration::from_secs(4)))
            .layer(DeadlineLayer::new(SimDuration::from_millis(1_500)))
            .layer(PriorityTag::new("best-effort"))
            .layer(RateLimit::new(2.4, 4).mode(RateLimitMode::Delay));
    }
    let mut cluster = builder.build();

    let trace = trace_for(seed, cell.process);
    let arrivals = trace.len();
    for arrival in &trace {
        let _ = cluster.submit_with(
            Submission::new(arrival.kind).at(arrival.at),
            SubmitOptions::new().tenant(arrival.tenant.clone()),
        );
    }
    summarize(cell, arrivals, cluster.run())
}

/// Runs every cell of [`cells`] (fanned across `runner`'s threads) and
/// returns outcomes in grid order.
pub fn run_cells(epochs: usize, seed: u64, runner: SweepRunner) -> Vec<TrafficOutcome> {
    let jobs: Vec<_> = cells()
        .into_iter()
        .map(|cell| move || run_cell(epochs, seed, cell))
        .collect();
    runner.run(jobs)
}

fn summarize(cell: TrafficCell, arrivals: usize, report: ClusterReport) -> TrafficOutcome {
    let service = report
        .service
        .as_ref()
        .expect("every traffic cell registers a metrics layer");
    let latency = service
        .latency
        .as_ref()
        .expect("the metrics layer fills the histogram");
    let tenants: Vec<(String, TenantStats)> = service
        .tenants
        .iter()
        .map(|(name, stats)| (name.clone(), *stats))
        .collect();
    let (accepted, rejected) = tenants
        .iter()
        .fold((0, 0), |(a, r), (_, s)| (a + s.accepted, r + s.rejected));
    let mut layers: Vec<(&'static str, u64)> =
        service.layers.iter().map(|l| (l.name, l.shed)).collect();
    layers.push((service.placement.name, service.placement.shed));
    let kinds: Vec<(&'static str, u64)> = service
        .rejections_by_kind
        .iter()
        .map(|(name, count)| (*name, *count))
        .collect();
    TrafficOutcome {
        name: format!("{}/{}", cell.process, cell.stack),
        arrivals,
        accepted,
        rejected,
        p50: latency.p50(),
        p99: latency.p99(),
        p999: latency.p999(),
        tenants,
        layers,
        kinds,
        harvest: report.jobs[0].breakdown.fractions().running,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_processes_by_stacks() {
        let grid = cells();
        assert_eq!(grid.len(), PROCESSES.len() * STACKS.len());
    }

    #[test]
    fn trace_is_deterministic_and_multi_tenant() {
        let a = trace_for(DEFAULT_SEED, "poisson");
        let b = trace_for(DEFAULT_SEED, "poisson");
        assert_eq!(a, b);
        for tenant in ["batch", "interactive", "training"] {
            assert!(
                a.iter().any(|x| x.tenant == tenant),
                "tenant {tenant} missing from the trace"
            );
        }
    }

    #[test]
    fn guarded_stack_sheds_and_delays() {
        let open = run_cell(
            2,
            DEFAULT_SEED,
            TrafficCell {
                process: "poisson",
                stack: "open",
            },
        );
        let guarded = run_cell(
            2,
            DEFAULT_SEED,
            TrafficCell {
                process: "poisson",
                stack: "guarded",
            },
        );
        assert_eq!(open.arrivals, guarded.arrivals, "same offered trace");
        assert!(
            guarded.rejected > open.rejected,
            "the guarded stack must shed load: {} vs {}",
            guarded.rejected,
            open.rejected
        );
        assert!(
            guarded.p99 > open.p99,
            "the delaying rate limiter must stretch the tail"
        );
    }
}
