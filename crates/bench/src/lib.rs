//! # freeride-bench — experiment harness
//!
//! One experiment per table/figure of the paper's evaluation (§2.2 and
//! §6), plus the scenarios beyond it. Each experiment is a function that
//! renders its bin's full text, listed by bin name in [`EXPERIMENTS`];
//! each `src/bin/*.rs` only calls [`run`] on its function. Paper rows
//! print side by side with the paper's published values where the paper
//! states them:
//!
//! | target | reproduces |
//! |---|---|
//! | `figure1` | Fig. 1 — per-stage op timeline, SM occupancy, memory |
//! | `figure2` | Fig. 2 — bubble shapes and rates vs model size |
//! | `table1` | Table 1 — side-task throughput: bubbles vs Server-II vs CPU |
//! | `table2` | Table 2 — time increase `I` and cost savings `S`, 4 methods |
//! | `figure7` | Fig. 7 — sensitivity: batch size, model size, micro-batches |
//! | `figure8` | Fig. 8 — GPU resource-limit demonstrations |
//! | `figure9` | Fig. 9 — bubble-time breakdown |
//! | `ablations` | design-choice sweeps (grace period, RPC latency, margin, placement) |
//! | `cluster` | beyond the paper: multi-job cluster scaling, job count × placement policy |
//! | `hetero` | beyond the paper: heterogeneous GPU fleets, fleet mix × placement policy |
//! | `chaos` | beyond the paper: one fault trace under every resilience mechanism |
//! | `health` | beyond the paper: the same fault trace under increasing supervision levels |
//! | `traffic` | beyond the paper: open-loop multi-tenant traffic against the service front-end |
//!
//! Run one: `cargo run --release -p freeride-bench --bin table2
//! [epochs]`. Every experiment's text at 2 epochs is pinned by the root
//! package's `tests/goldens.rs` (`cargo test -q --test goldens`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod health;
pub mod hetero;
pub mod paper;
pub mod sweep;
pub mod traffic;

pub use sweep::{default_threads, SweepRunner};

use freeride_core::{
    evaluate, run_colocation, BestFitMemory, CostReport, DeploymentReport, FastestFit, FirstFit,
    FreeRideConfig, LeastLoaded, MinTasksJob, PlacementPolicy, Submission,
};
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_sim::SimDuration;
use freeride_tasks::WorkloadKind;

/// An experiment: renders its bin's full text for one argument set.
pub type Experiment = fn(&BenchArgs) -> String;

/// Every experiment, by the name of the bin that prints it.
pub const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("figure1", paper::figure1),
    ("figure2", paper::figure2),
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("figure7", paper::figure7),
    ("figure8", paper::figure8),
    ("figure9", paper::figure9),
    ("ablations", paper::ablations),
    ("cluster", cluster::render),
    ("hetero", hetero::render),
    ("chaos", chaos::render),
    ("health", health::render),
    ("traffic", traffic::render),
];

/// The `main` of every experiment bin: parses the process's arguments
/// and prints the experiment's text.
pub fn run(experiment: Experiment) {
    print!("{}", experiment(&BenchArgs::parse()));
}

/// The text an experiment renders. `write!` and `writeln!` on it cannot
/// fail, so they return `()` instead of a `fmt::Result`.
#[derive(Default)]
pub(crate) struct Text(String);

impl Text {
    /// The method `write!` and `writeln!` call.
    pub(crate) fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        // Writing to a `String` never fails.
        let _ = std::fmt::Write::write_fmt(&mut self.0, args);
    }
}

/// Every shipped placement policy, in the order the `cluster` and
/// `hetero` sweeps print them; each reports its own name.
pub(crate) const PLACEMENT_POLICIES: [fn() -> Box<dyn PlacementPolicy>; 5] = [
    || Box::new(FirstFit),
    || Box::new(BestFitMemory),
    || Box::new(LeastLoaded),
    || Box::new(FastestFit),
    || Box::new(MinTasksJob),
];

/// Default epoch count for experiment binaries (1 profiling + 16 serving).
/// The paper trains 128 epochs. The shorter run saves wall-clock time and
/// costs fidelity: of E epochs one profiles with no side tasks, so
/// FreeRide's time increase `I` and cost savings `S` scale with about
/// (E−1)/E, 16/17 here against 127/128 at the paper's epoch count, about
/// 5% relative: `table2`'s average iterative `S` reads 7.4% at 17 epochs
/// and 7.8% at 128. Pass an epoch count as `argv[1]` to override.
pub const DEFAULT_EPOCHS: usize = 17;

/// Command-line arguments shared by every experiment binary.
///
/// Every experiment bin accepts the same small surface instead of each
/// parsing `argv` its own way:
///
/// * `[epochs]` — positional, or `--epochs N`: epochs per simulated run
///   (default [`DEFAULT_EPOCHS`]);
/// * `--threads N` — sweep fan-out; also readable from the `FR_THREADS`
///   environment variable (flag wins); default = available parallelism;
/// * `--seed N` — overrides the root seed of every `FreeRideConfig` the
///   binary constructs (default: the config's own seed, preserving
///   historical output byte-for-byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Epochs per simulated training run.
    pub epochs: usize,
    /// Sweep thread count.
    pub threads: usize,
    /// Root-seed override for constructed configs.
    pub seed: Option<u64>,
}

impl BenchArgs {
    /// Parses the process's arguments and environment.
    pub fn parse() -> Self {
        let env_threads = std::env::var("FR_THREADS")
            .ok()
            .and_then(|s| s.parse().ok());
        Self::from_iter(std::env::args().skip(1), env_threads)
    }

    /// Parses from an explicit argument stream (testable form).
    /// `env_threads` models `FR_THREADS`; an explicit `--threads` wins.
    /// Every ignored argument is reported on stderr.
    pub fn from_iter(args: impl Iterator<Item = String>, env_threads: Option<usize>) -> Self {
        let (out, warnings) = Self::parse_args(args, env_threads);
        for warning in warnings {
            eprintln!("warning: {warning}");
        }
        out
    }

    /// [`BenchArgs::from_iter`], returning the warnings instead of
    /// printing them.
    fn parse_args(
        args: impl Iterator<Item = String>,
        env_threads: Option<usize>,
    ) -> (Self, Vec<String>) {
        let mut out = BenchArgs {
            epochs: DEFAULT_EPOCHS,
            threads: env_threads.unwrap_or_else(default_threads),
            seed: None,
        };
        let mut warnings = Vec::new();
        // A missing or unparseable argument falls back to the default,
        // but never silently: a typo like `--threads 1O` or `table2 5O`
        // must not quietly change how a comparison run executes.
        fn take_num(
            flag: &str,
            iter: &mut std::iter::Peekable<impl Iterator<Item = String>>,
            warnings: &mut Vec<String>,
        ) -> Option<u64> {
            // The next flag is not this one's value.
            let Some(value) = iter.next_if(|v| !v.starts_with("--")) else {
                warnings.push(format!("{flag} given without a value; using default"));
                return None;
            };
            let parsed = value.parse().ok();
            if parsed.is_none() {
                warnings.push(format!(
                    "ignoring {flag} {value:?} (not a number); using default"
                ));
            }
            parsed
        }
        let mut iter = args.peekable();
        let mut saw_positional = false;
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--epochs" => {
                    if let Some(v) = take_num("--epochs", &mut iter, &mut warnings) {
                        out.epochs = v as usize;
                    }
                }
                "--threads" => {
                    if let Some(v) = take_num("--threads", &mut iter, &mut warnings) {
                        out.threads = v as usize;
                    }
                }
                "--seed" => out.seed = take_num("--seed", &mut iter, &mut warnings),
                other => match other.parse() {
                    Ok(epochs) if !saw_positional => {
                        out.epochs = epochs;
                        saw_positional = true;
                    }
                    Ok(_) => warnings.push(format!("ignoring extra epoch count {other:?}")),
                    Err(_) => {
                        warnings.push(format!("ignoring argument {other:?} (not an epoch count)"))
                    }
                },
            }
        }
        out.threads = out.threads.max(1);
        (out, warnings)
    }

    /// A sweep runner with this argument set's thread count.
    pub fn sweep(&self) -> SweepRunner {
        SweepRunner::new(self.threads)
    }

    /// Applies the `--seed` override (if any) to a constructed config.
    pub fn configure(&self, mut cfg: FreeRideConfig) -> FreeRideConfig {
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        cfg
    }
}

/// The paper's main pipeline setup (3.6B, 4 stages, 4 micro-batches).
pub fn main_pipeline(epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs)
}

/// One evaluated co-location configuration.
pub struct EvalRow {
    /// Human-readable method name.
    pub method: &'static str,
    /// The cost/overhead report.
    pub report: CostReport,
    /// The raw run.
    pub run: DeploymentReport,
}

/// Runs one workload under one method and evaluates the paper's metrics.
pub fn eval_method(
    pipeline: &PipelineConfig,
    method: &'static str,
    cfg: &FreeRideConfig,
    submissions: &[Submission],
    baseline: SimDuration,
) -> EvalRow {
    let run = run_colocation(pipeline, cfg, submissions);
    let report = evaluate(baseline, run.total_time, &run.work());
    EvalRow {
        method,
        report,
        run,
    }
}

/// The four methods of Table 2 in presentation order.
pub fn all_methods() -> Vec<(&'static str, FreeRideConfig)> {
    vec![
        ("FreeRide-Iterative", FreeRideConfig::iterative()),
        ("FreeRide-Imperative", FreeRideConfig::imperative()),
        ("Nvidia MPS", FreeRideConfig::mps_baseline()),
        ("Naive co-location", FreeRideConfig::naive_baseline()),
    ]
}

/// Formats a fraction as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Appends a section header.
pub(crate) fn header(out: &mut Text, title: &str) {
    writeln!(out);
    writeln!(out, "=== {title} ===");
}

/// Paper-published Table 2 values `(I%, S%)` per method per workload, for
/// side-by-side printing; `None` where the paper has no cell.
pub fn paper_table2(kind: WorkloadKind, method: &str) -> Option<(f64, f64)> {
    use WorkloadKind::*;
    let row = |k: WorkloadKind| -> [(f64, f64); 4] {
        match k {
            ResNet18 => [(0.9, 6.4), (2.2, 6.0), (16.8, -1.5), (49.8, -30.7)],
            ResNet50 => [(0.9, 5.3), (3.8, 3.9), (19.8, -5.1), (61.9, -44.0)],
            Vgg19 => [(0.9, 3.9), (5.0, 1.4), (21.4, -9.1), (53.4, -39.7)],
            PageRank => [(1.0, 11.1), (2.5, 16.4), (17.3, 3.5), (45.1, -16.0)],
            GraphSgd => [(1.2, 11.8), (4.1, 22.8), (231.0, -26.7), (62.4, -9.1)],
            ImageProc => [(1.4, 5.7), (2.7, 6.1), (9.5, 7.2), (46.0, -29.3)],
        }
    };
    let idx = match method {
        "FreeRide-Iterative" => 0,
        "FreeRide-Imperative" => 1,
        "Nvidia MPS" => 2,
        "Naive co-location" => 3,
        _ => return None,
    };
    Some(row(kind)[idx])
}

/// Paper-published "Mixed" row of Table 2.
pub fn paper_table2_mixed(method: &str) -> Option<(f64, f64)> {
    match method {
        "FreeRide-Iterative" => Some((1.1, 10.1)),
        "FreeRide-Imperative" => Some((4.3, 11.0)),
        "Nvidia MPS" => Some((24.8, 0.2)),
        "Naive co-location" => Some((64.3, -35.5)),
        _ => None,
    }
}

/// Paper Table 1: throughput of side tasks (iterations/s) on bubbles via
/// the iterative interface, on Server-II, and on Server-CPU. Absolute
/// units are testbed-specific; the reproduction targets the *ratios*.
pub fn paper_table1(kind: WorkloadKind) -> (f64, f64, f64) {
    use WorkloadKind::*;
    match kind {
        ResNet18 => (1586.6, 998.7, 26.5),
        ResNet50 => (533.1, 393.4, 9.1),
        Vgg19 => (170.7, 161.8, 3.0),
        PageRank => (333.9, 126.3, 11.1),
        GraphSgd => (4.2, 1.5, 0.6),
        ImageProc => (12.2, 7.8, 1.6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_cover_all_workloads_and_methods() {
        for kind in WorkloadKind::ALL {
            for (name, _) in all_methods() {
                assert!(paper_table2(kind, name).is_some(), "{kind:?}/{name}");
            }
            let (b, s2, cpu) = paper_table1(kind);
            assert!(b > s2 || kind == WorkloadKind::Vgg19, "{kind:?}");
            assert!(s2 > cpu, "{kind:?}");
        }
        for (name, _) in all_methods() {
            assert!(paper_table2_mixed(name).is_some());
        }
        assert!(paper_table2(WorkloadKind::ResNet18, "nope").is_none());
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.011), "+1.1%");
        assert_eq!(pct(-0.307), "-30.7%");
    }

    fn parse(args: &[&str], env_threads: Option<usize>) -> BenchArgs {
        BenchArgs::from_iter(args.iter().map(|s| s.to_string()), env_threads)
    }

    #[test]
    fn bench_args_defaults() {
        let a = parse(&[], None);
        assert_eq!(a.epochs, DEFAULT_EPOCHS);
        assert_eq!(a.threads, default_threads());
        assert_eq!(a.seed, None);
    }

    #[test]
    fn bench_args_positional_epochs_stays_compatible() {
        assert_eq!(parse(&["5"], None).epochs, 5);
        // Junk positional falls back to the default, as before.
        assert_eq!(parse(&["nope"], None).epochs, DEFAULT_EPOCHS);
    }

    #[test]
    fn bench_args_warn_about_every_ignored_argument() {
        let warnings = |args: &[&str]| {
            let (parsed, warnings) =
                BenchArgs::parse_args(args.iter().map(|s| s.to_string()), None);
            (parsed.epochs, warnings)
        };
        assert_eq!(warnings(&["5", "--threads", "2"]), (5, vec![]));
        // A typo'd epoch count runs the default, and says so.
        let (epochs, w) = warnings(&["5O"]);
        assert_eq!(epochs, DEFAULT_EPOCHS);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("\"5O\""), "{w:?}");
        // So does a second positional, and a junk one before the count.
        let (epochs, w) = warnings(&["5", "7"]);
        assert_eq!(epochs, 5);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("\"7\""), "{w:?}");
        let (epochs, w) = warnings(&["nope", "6"]);
        assert_eq!(epochs, 6);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("\"nope\""), "{w:?}");
        // A bad flag value is consumed and reported once; a missing one
        // leaves the next flag in place.
        let (_, w) = warnings(&["--threads", "1O", "3"]);
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(w[0].contains("--threads \"1O\""), "{w:?}");
        let (epochs, w) = warnings(&["--seed", "--epochs", "4"]);
        assert_eq!(epochs, 4);
        assert_eq!(w, vec!["--seed given without a value; using default"]);
    }

    #[test]
    fn bench_args_flags() {
        let a = parse(&["--epochs", "9", "--threads", "3", "--seed", "42"], None);
        assert_eq!(a.epochs, 9);
        assert_eq!(a.threads, 3);
        assert_eq!(a.seed, Some(42));
        assert_eq!(a.sweep().threads(), 3);
    }

    #[test]
    fn bench_args_env_threads_yields_to_flag() {
        assert_eq!(parse(&[], Some(6)).threads, 6);
        assert_eq!(parse(&["--threads", "2"], Some(6)).threads, 2);
        // Zero clamps to one.
        assert_eq!(parse(&["--threads", "0"], None).threads, 1);
    }

    #[test]
    fn bench_args_seed_overrides_config() {
        let a = parse(&["--seed", "123"], None);
        assert_eq!(a.configure(FreeRideConfig::iterative()).seed, 123);
        let none = parse(&[], None);
        let base = FreeRideConfig::iterative();
        assert_eq!(none.configure(base.clone()).seed, base.seed);
    }

    #[test]
    fn eval_method_smoke() {
        let pipeline = main_pipeline(3);
        let baseline = freeride_core::run_baseline(&pipeline);
        let row = eval_method(
            &pipeline,
            "FreeRide-Iterative",
            &FreeRideConfig::iterative(),
            &Submission::per_worker(WorkloadKind::PageRank, 4),
            baseline,
        );
        assert!(row.report.time_increase < 0.05);
        assert!(row.run.tasks.iter().map(|t| t.steps).sum::<u64>() > 0);
    }
}
