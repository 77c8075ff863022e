//! `freeride-benchmark`: the repository benchmark.
//!
//! One run executes one workload (see `workloads`) over and over for a
//! fixed host-time budget, checks every execution's simulated outputs, and
//! prints each metric's samples as a table followed, on the last line, by
//! one JSON object: `correct`, `attempted` and `failed` executions, and
//! every metric's value with its unit: the median of its samples.
//!
//! `--trace 0` reports the end-to-end metrics of untraced executions, made
//! in a sequence of child processes (one at a time, each single-threaded);
//! a host time's samples are each child's fastest execution. `--trace 1`
//! alternates untraced and traced executions in-process and reports the
//! per-layer metrics (see `layers`). The exit code is 0 when every check
//! passed, 1 when one failed, 2 on bad arguments.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path benchmark/Cargo.toml --
//! --workload paper_mix --seed 1 --seconds 30 --trace 0`

#![forbid(unsafe_code)]

mod layers;
mod probes;
mod stats;
mod workloads;

use stats::Summary;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{execute, Inputs, Outputs, Workload};

const USAGE: &str = "\
USAGE: freeride-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]

    --workload NAME   paper_mix | sim_core | online_traffic
    --seed N          seed of the generated inputs (default 1)
    --seconds N       host seconds to measure for (default 10)
    --trace 0|1       0: end-to-end metrics; 1: per-layer metrics of a
                      traced run (default 0)
";

/// Fewest child processes, or traced executions, a run makes however long
/// each takes.
const MIN_ITERATIONS: usize = 3;

/// Host seconds each child process of an untraced run measures for. Every
/// process gets its own randomized address-space layout, and on the host
/// the benchmark was defined on, a layout alone moved a process's speed by
/// up to 45%; spreading a run over about ten processes samples layouts.
const CHILD_SECONDS: u64 = 3;

/// Empty probes read to calibrate the timer.
const CALIBRATION_SAMPLES: usize = 200_000;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run as one child process of an untraced run (see [`run_child`]).
    child: bool,
}

/// Parses the arguments after the program name; `Ok(None)` asks for help.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut child = false;
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    }))
}

/// One reported metric and its samples; the value reported is their
/// median.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            samples,
        }
    }

    /// The nearest-rank median of the samples; NaN without samples.
    fn value(&self) -> f64 {
        let mut v = self.samples.clone();
        stats::sort(&mut v);
        stats::nearest_rank(&v, 0.5).unwrap_or(f64::NAN)
    }
}

/// The outcome of one run.
struct Measurement {
    attempted: usize,
    failed: usize,
    failures: BTreeSet<String>,
    digest: u64,
    metrics: Vec<Metric>,
}

impl Measurement {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = m.value();
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn table(&self) -> String {
        let mut out = format!(
            "{:<31} {:<5} {:>4} {:>13} {:>13} {:>13} {:>13} {:>13}\n",
            "metric", "unit", "n", "median", "min", "q1", "q3", "max"
        );
        for m in &self.metrics {
            let s = Summary::of(&m.samples);
            out.push_str(&format!(
                "{:<31} {:<5} {:>4} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6}\n",
                m.name, m.unit, s.n, s.median, s.min, s.q1, s.q3, s.max
            ));
        }
        out
    }

    fn exit_code(&self) -> ExitCode {
        if self.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Checks every execution of a run: its own output checks, and its digest
/// against the first execution's. Returns how many executions failed and
/// the distinct failures.
fn check(outputs: &[&Outputs]) -> (usize, BTreeSet<String>) {
    let mut failed = 0;
    let mut failures = BTreeSet::new();
    let first = outputs.first().map_or(0, |out| out.digest);
    for (i, out) in outputs.iter().enumerate() {
        let mut mine = out.failures.clone();
        if out.digest != first {
            mine.push(format!(
                "execution {i} produced digest {:#018x}, not {first:#018x}",
                out.digest
            ));
        }
        failed += usize::from(!mine.is_empty());
        failures.extend(mine);
    }
    (failed, failures)
}

/// The process's peak resident set in MiB (`VmHWM`), on Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One execution as a child process reports it: set-up seconds, run
/// seconds, and its outputs (only the digest and failed checks).
type Execution = (f64, f64, Outputs);

/// What one child process reported: its executions and its peak RSS.
#[derive(Default)]
struct ChildReport {
    executions: Vec<Execution>,
    rss_mib: f64,
}

/// Parses a child's standard output (see [`run_child`]).
fn parse_child(stdout: &str) -> Result<ChildReport, String> {
    let mut report = ChildReport::default();
    for line in stdout.lines() {
        let bad = || format!("unreadable child output line {line:?}");
        let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
        match kind {
            "execution" => {
                let mut fields = rest.split(' ');
                let mut float = || fields.next().and_then(|f| f.parse::<f64>().ok());
                let (setup, run) = float().zip(float()).ok_or_else(bad)?;
                let digest = fields
                    .next()
                    .and_then(|f| u64::from_str_radix(f, 16).ok())
                    .ok_or_else(bad)?;
                let out = Outputs {
                    digest,
                    ..Outputs::default()
                };
                report.executions.push((setup, run, out));
            }
            "failure" => match report.executions.last_mut() {
                Some((_, _, out)) => out.failures.push(rest.to_string()),
                None => return Err(bad()),
            },
            "rss" => report.rss_mib = rest.parse().map_err(|_| bad())?,
            _ => return Err(bad()),
        }
    }
    Ok(report)
}

/// A child process: executes the workload untraced until `--seconds` have
/// passed (at least once), printing each execution, then its peak RSS.
fn run_child(args: &Args) -> ExitCode {
    let inputs = Inputs::generate(args.workload, args.seed, args.workload.epochs());
    // freeride: allow(no-wall-clock) -- benchmark run budget; never fed into the simulation
    let start = Instant::now();
    loop {
        let it = execute(&inputs, false);
        println!("execution {} {} {:x}", it.setup_s, it.run_s, it.out.digest);
        for failure in &it.out.failures {
            println!("failure {failure}");
        }
        if start.elapsed().as_secs() >= args.seconds {
            break;
        }
    }
    match peak_rss_mib() {
        Some(mib) => {
            println!("rss {mib}");
            ExitCode::SUCCESS
        }
        None => ExitCode::FAILURE,
    }
}

/// Runs `args.workload` in child processes, one after another, for
/// `args.seconds`, and returns what each reported, or what went wrong.
fn measure_in_children(args: &Args) -> Result<Vec<ChildReport>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (seed, seconds) = (args.seed.to_string(), CHILD_SECONDS.to_string());
    let child_args = [
        "--workload",
        args.workload.name(),
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--child",
    ];
    let mut children: Vec<ChildReport> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    // freeride: allow(no-wall-clock) -- benchmark run budget; never fed into the simulation
    let start = Instant::now();
    while children.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let out = std::process::Command::new(&exe)
            .args(child_args)
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "child process failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        children.push(parse_child(&String::from_utf8_lossy(&out.stdout))?);
    }
    Ok(children)
}

fn measure(args: &Args) -> Measurement {
    let inputs = Inputs::generate(args.workload, args.seed, args.workload.epochs());
    let timer_ns = if args.trace {
        probes::calibrate(CALIBRATION_SAMPLES)
    } else {
        0.0
    };
    // A first execution lets caches fill and lazy set-up finish, and is
    // the reference every other execution's digest must match.
    let first = execute(&inputs, false);
    let mut outputs = vec![first.out];
    let mut errors = Vec::new();
    let metrics = if args.trace {
        let mut traced = Vec::new();
        let budget = Duration::from_secs(args.seconds);
        // freeride: allow(no-wall-clock) -- benchmark run budget; never fed into the simulation
        let start = Instant::now();
        while traced.len() < MIN_ITERATIONS || start.elapsed() < budget {
            let plain = execute(&inputs, false);
            let _ = probes::take();
            let it = execute(&inputs, true);
            let baseline_s = workloads::run_baselines(&inputs);
            let rec = probes::take();
            traced.push(layers::sample(&it, &plain, &rec, baseline_s, timer_ns));
            outputs.extend([plain.out, it.out]);
        }
        per_layer(&traced)
    } else {
        let children = measure_in_children(args).unwrap_or_else(|e| {
            errors.push(e);
            Vec::new()
        });
        // Each child contributes its fastest execution: on a shared host,
        // executions run in a fast mode broken by bursts, seconds long, of
        // executions 1.5-2x slower.
        let (mut setup, mut run, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        for child in children {
            let fastest = |time: fn(&Execution) -> f64| {
                child.executions.iter().map(time).fold(f64::NAN, f64::min)
            };
            setup.push(fastest(|e| e.0));
            run.push(fastest(|e| e.1));
            rss.push(child.rss_mib);
            outputs.extend(child.executions.into_iter().map(|e| e.2));
        }
        let reference = &outputs[0];
        let metric = Metric::new;
        vec![
            metric("wall_s", "s", run),
            metric("setup_s", "s", setup),
            metric("peak_rss_mb", "MiB", rss),
            metric(
                "time_increase_pct",
                "%",
                vec![reference.time_increase * 100.0],
            ),
            metric(
                "cost_savings_pct",
                "%",
                vec![reference.cost_savings * 100.0],
            ),
            metric("side_steps", "steps", vec![reference.side_steps as f64]),
        ]
    };
    let (failed, mut failures) = check(&outputs.iter().collect::<Vec<_>>());
    failures.extend(errors);
    Measurement {
        attempted: outputs.len(),
        failed,
        failures,
        digest: outputs[0].digest,
        metrics,
    }
}

/// Per-layer metrics: each sample's value per traced execution, plus the
/// spread of the tracing overhead across them.
fn per_layer(traced: &[BTreeMap<&'static str, f64>]) -> Vec<Metric> {
    let values =
        |name| -> Vec<f64> { traced.iter().filter_map(|m| m.get(name)).copied().collect() };
    layers::METRICS
        .iter()
        .map(|&(name, unit)| {
            let samples = if name == "obs.traced_overhead_iqr_pct" {
                let s = Summary::of(&values("obs.traced_overhead_pct"));
                vec![s.q3 - s.q1]
            } else {
                values(name)
            };
            Metric::new(name, unit, samples)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprint!("freeride-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return run_child(&args);
    }
    let m = measure(&args);
    println!(
        "workload={} seed={} seconds={} trace={} executions={} digest={:#018x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.attempted,
        m.digest
    );
    print!("{}", m.table());
    for failure in &m.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", m.json());
    m.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_every_flag() {
        let a = parse(&[
            "--workload",
            "sim_core",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
            "--child",
        ]);
        assert_eq!(
            a,
            Ok(Some(Args {
                workload: Workload::SimCore,
                seed: 42,
                seconds: 20,
                trace: true,
                child: true,
            }))
        );
    }

    #[test]
    fn defaults_apply_and_help_is_not_an_error() {
        let a = parse(&["--workload", "paper_mix"]).ok().flatten();
        assert_eq!(
            a,
            Some(Args {
                workload: Workload::PaperMix,
                seed: 1,
                seconds: 10,
                trace: false,
                child: false,
            })
        );
        assert_eq!(parse(&["--help"]), Ok(None));
    }

    #[test]
    fn child_output_round_trips() {
        let report = parse_child(
            "execution 0.000021 1.25 ff\nfailure band\nfailure other\n\
             execution 2e-5 1.5 10\nrss 3.96875\n",
        )
        .ok()
        .unwrap_or_default();
        let got: Vec<_> = report
            .executions
            .iter()
            .map(|(s, r, o)| (*s, *r, o.digest, o.failures.len()))
            .collect();
        assert_eq!(got, [(0.000021, 1.25, 0xff, 2), (2e-5, 1.5, 0x10, 0)]);
        assert_eq!(report.rss_mib, 3.96875);
        for bad in [
            "failure first\n",
            "execution 1 x ff\n",
            "noise\n",
            "rss ?\n",
        ] {
            assert!(parse_child(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "nope"],
            &["--workload", "paper_mix", "--seed", "x"],
            &["--workload", "paper_mix", "--trace", "2"],
            &["--workload", "paper_mix", "--reps", "3"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    fn outputs(digest: u64, failures: &[&str]) -> Outputs {
        Outputs {
            digest,
            failures: failures.iter().map(|f| f.to_string()).collect(),
            ..Outputs::default()
        }
    }

    #[test]
    fn a_mismatched_digest_fails_the_run() {
        let same = [outputs(5, &[]), outputs(5, &[])];
        assert_eq!(check(&same.iter().collect::<Vec<_>>()).0, 0);
        assert_eq!(check(&[]).0, 0);

        let odd = [outputs(5, &[]), outputs(6, &[]), outputs(5, &["band"])];
        let (failed, failures) = check(&odd.iter().collect::<Vec<_>>());
        assert_eq!(failed, 2);
        assert_eq!(failures.len(), 2, "{failures:?}");
        let m = Measurement {
            attempted: 3,
            failed,
            failures,
            digest: 5,
            metrics: Vec::new(),
        };
        assert_eq!(m.exit_code(), ExitCode::FAILURE);
        assert!(m
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
    }

    #[test]
    fn json_reports_medians_with_units() {
        let m = Measurement {
            attempted: 2,
            failed: 0,
            failures: BTreeSet::new(),
            digest: 0,
            metrics: vec![
                Metric::new("side_steps", "steps", vec![3.0, 1.0, 2.0]),
                Metric::new("wall_s", "s", vec![0.25, 1.5]),
                Metric::new("peak_rss_mb", "MiB", Vec::new()),
            ],
        };
        assert_eq!(m.exit_code(), ExitCode::SUCCESS);
        assert_eq!(
            m.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"side_steps\": {\"value\": 2, \"unit\": \"steps\"}, \
             \"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": null, \"unit\": \"MiB\"}}}"
        );
        assert!(m.table().contains("side_steps"));
    }
}
