//! `perf` — the tracked performance baseline of the reproduction.
//!
//! Runs a standard workload three times over:
//!
//! 1. **Single run** — one full co-location simulation, reporting
//!    wall-clock and simulation events/sec (the hot-path metric);
//! 2. **Standard sweep** — the Table-1 six-workload sweep plus the four
//!    Table-2 mixed-workload methods (10 independent simulations), first
//!    sequentially (`threads = 1`), then fanned across the configured
//!    thread count, reporting the wall-clock speedup (the parallel-executor
//!    metric);
//! 3. **Cluster run** — a 4-job multi-tenant cluster (model rotation
//!    3.6B/1.2B/6B, least-loaded placement) in one simulation, reporting
//!    `cluster_events_per_sec` (the multi-job-scale metric);
//! 4. **Hetero run** — the 1.2B model on a mixed fleet (H100 / A100-80 /
//!    A100-40 / L4) under `FastestFit` placement, reporting
//!    `hetero_events_per_sec` (the heterogeneous-hardware metric);
//! 5. **Chaos run** — the chaos benchmark's six-cell grid (one fault
//!    trace under every resilience mechanism), reporting
//!    `chaos_events_per_sec` (the fault-injection-path metric);
//! 6. **Traffic run** — a long-lived cluster under open-loop Poisson
//!    load through the full guarded middleware stack, reporting
//!    `traffic_events_per_sec` (the service-front-end metric);
//! 7. **Health run** — the health benchmark's four-cell supervision grid
//!    (one fault trace under every supervision level), reporting
//!    `health_events_per_sec` (the failure-detection-path metric);
//! 8. **Observability run** — the 4-job cluster re-run with tracing and
//!    per-subsystem profiling armed, reporting the tracing overhead
//!    (`obs_events_per_sec`), printing the attribution table (events and
//!    dispatch wall-time per subsystem), and writing the Chrome-trace
//!    export to `trace.json` (load it in `chrome://tracing` or Perfetto).
//!
//! Results are printed and written to `BENCH.json` in the current
//! directory so every PR leaves a perf trajectory to regress against
//! (CI's non-gating perf-smoke step uploads the file as an artifact).
//! Before overwriting, the committed `BENCH.json` is read back and a
//! per-cell delta table is printed — informational only, never gating.
//!
//! Run: `cargo run --release -p freeride-bench --bin perf
//! [epochs] [--threads N]`

#![forbid(unsafe_code)]

use freeride_bench::{
    all_methods, chaos, default_threads, health, main_pipeline, traffic, BenchArgs, SweepRunner,
};
use freeride_core::{
    run_colocation, Cluster, ClusterBuilder, ClusterJob, DeploymentReport, FastestFit,
    FreeRideConfig, LeastLoaded, ProfileReport, SimTracer, Submission, SubmitOptions,
};
use freeride_gpu::HardwareSpec;
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_tasks::WorkloadKind;
use std::time::Instant;

/// One measurement of the single-run hot path.
struct SingleRun {
    wall_s: f64,
    events: u64,
    events_per_sec: f64,
}

fn single_run(args: &BenchArgs) -> SingleRun {
    let pipeline = main_pipeline(args.epochs);
    let cfg = args.configure(FreeRideConfig::iterative());
    let subs = Submission::per_worker(WorkloadKind::PageRank, 4);
    // One warm-up, then the measured run.
    let _ = run_colocation(&pipeline, &cfg, &subs);
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let run = run_colocation(&pipeline, &cfg, &subs);
    let wall_s = start.elapsed().as_secs_f64();
    SingleRun {
        wall_s,
        events: run.events_processed,
        events_per_sec: run.events_processed as f64 / wall_s,
    }
}

/// The standard 4-job cluster: one simulation hosting four training jobs
/// (model rotation 3.6B/1.2B/6B, least-loaded placement), each job with a
/// pinned PageRank and a freely placed image task. `builder` carries any
/// observability switches.
fn standard_cluster(args: &BenchArgs, builder: ClusterBuilder) -> Cluster {
    let model = |j: usize| match j % 3 {
        0 => ModelSpec::nanogpt_3_6b(),
        1 => ModelSpec::nanogpt_1_2b(),
        _ => ModelSpec::nanogpt_6b(),
    };
    let mut builder = builder.policy(LeastLoaded).cost_report(false);
    for j in 0..4 {
        let cfg = args.configure(FreeRideConfig::iterative());
        builder = builder.job(
            ClusterJob::new(PipelineConfig::paper_default(model(j)).with_epochs(args.epochs))
                .config(cfg)
                .seed(0xC1_05_7E ^ (j as u64)),
        );
    }
    let mut cluster = builder.build();
    for j in 0..4 {
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::PageRank),
            SubmitOptions::new().affinity(j),
        );
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::ImageProc),
            SubmitOptions::new(),
        );
    }
    cluster
}

fn cluster_run_once(args: &BenchArgs) -> u64 {
    standard_cluster(args, Cluster::builder())
        .run()
        .events_processed
}

/// The observability run: the same 4-job cluster with tracing and
/// per-subsystem profiling armed. Returns the timing (to expose the
/// overhead of armed observability next to the unobserved `cluster`
/// cell), the attribution report, the trace summary line, and the
/// Chrome-trace JSON destined for `trace.json`.
fn obs_run(args: &BenchArgs) -> (SingleRun, ProfileReport, u64, String) {
    let run_once = || {
        let sink = SimTracer::shared();
        let builder = Cluster::builder().trace(sink.clone()).profile(true);
        let report = standard_cluster(args, builder).run();
        (report, sink)
    };
    // One warm-up, then the measured run.
    let _ = run_once();
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let (report, sink) = run_once();
    let wall_s = start.elapsed().as_secs_f64();
    let profile = report.profile.clone().expect("profiling armed");
    let summary = report.trace_summary.as_ref().expect("tracing armed");
    let trace_events = summary.events;
    let chrome = sink
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .to_chrome_trace();
    let run = SingleRun {
        wall_s,
        events: report.events_processed,
        events_per_sec: report.events_processed as f64 / wall_s,
    };
    (run, profile, trace_events, chrome)
}

/// One measurement of the multi-job (cluster) hot path.
fn cluster_perf(args: &BenchArgs) -> SingleRun {
    // One warm-up, then the measured run.
    let _ = cluster_run_once(args);
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let events = cluster_run_once(args);
    let wall_s = start.elapsed().as_secs_f64();
    SingleRun {
        wall_s,
        events,
        events_per_sec: events as f64 / wall_s,
    }
}

/// The standard heterogeneous run: the 1.2B model on a mixed fleet under
/// hardware-aware placement, with a contended workload mix.
fn hetero_run_once(args: &BenchArgs) -> u64 {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b())
        .with_epochs(args.epochs)
        .with_hardware(vec![
            HardwareSpec::h100_80g(),
            HardwareSpec::a100_80g(),
            HardwareSpec::a100_40g(),
            HardwareSpec::l4_24g(),
        ]);
    let cfg = args.configure(FreeRideConfig::iterative());
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline).config(cfg))
        .policy(FastestFit)
        .cost_report(false)
        .build();
    for kind in [
        WorkloadKind::PageRank,
        WorkloadKind::ResNet18,
        WorkloadKind::ImageProc,
        WorkloadKind::PageRank,
    ] {
        let _ = cluster.submit_with(Submission::new(kind), SubmitOptions::new());
    }
    cluster.run().events_processed
}

/// One measurement of the heterogeneous-fleet hot path.
fn hetero_perf(args: &BenchArgs) -> SingleRun {
    // One warm-up, then the measured run.
    let _ = hetero_run_once(args);
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let events = hetero_run_once(args);
    let wall_s = start.elapsed().as_secs_f64();
    SingleRun {
        wall_s,
        events,
        events_per_sec: events as f64 / wall_s,
    }
}

/// The standard chaos run: the six-cell mechanism grid, sequentially.
fn chaos_run_once(args: &BenchArgs) -> u64 {
    let seed = args.seed.unwrap_or(chaos::DEFAULT_SEED);
    chaos::run_cells(args.epochs, seed, SweepRunner::new(1))
        .iter()
        .map(|o| o.events)
        .sum()
}

/// The standard traffic run: a long-lived cluster under Poisson load
/// through the full guarded middleware stack.
fn traffic_run_once(args: &BenchArgs) -> u64 {
    let seed = args.seed.unwrap_or(traffic::DEFAULT_SEED);
    let cell = freeride_bench::traffic::TrafficCell {
        process: "poisson",
        stack: "guarded",
    };
    traffic::run_cell(args.epochs, seed, cell).events
}

/// One measurement of the service front-end hot path.
fn traffic_perf(args: &BenchArgs) -> SingleRun {
    // One warm-up, then the measured run.
    let _ = traffic_run_once(args);
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let events = traffic_run_once(args);
    let wall_s = start.elapsed().as_secs_f64();
    SingleRun {
        wall_s,
        events,
        events_per_sec: events as f64 / wall_s,
    }
}

/// The standard health run: the four-cell supervision grid, sequentially.
fn health_run_once(args: &BenchArgs) -> u64 {
    let seed = args.seed.unwrap_or(health::DEFAULT_SEED);
    health::run_cells(args.epochs, seed, SweepRunner::new(1))
        .iter()
        .map(|o| o.events)
        .sum()
}

/// One measurement of the failure-detection hot path.
fn health_perf(args: &BenchArgs) -> SingleRun {
    // One warm-up, then the measured run.
    let _ = health_run_once(args);
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let events = health_run_once(args);
    let wall_s = start.elapsed().as_secs_f64();
    SingleRun {
        wall_s,
        events,
        events_per_sec: events as f64 / wall_s,
    }
}

/// One measurement of the fault-injection hot path.
fn chaos_perf(args: &BenchArgs) -> SingleRun {
    // One warm-up, then the measured run.
    let _ = chaos_run_once(args);
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let events = chaos_run_once(args);
    let wall_s = start.elapsed().as_secs_f64();
    SingleRun {
        wall_s,
        events,
        events_per_sec: events as f64 / wall_s,
    }
}

/// The standard sweep: one closure per independent simulation.
fn sweep_jobs(args: &BenchArgs) -> Vec<Box<dyn FnOnce() -> DeploymentReport + Send>> {
    let pipeline = main_pipeline(args.epochs);
    let mut jobs: Vec<Box<dyn FnOnce() -> DeploymentReport + Send>> = Vec::new();
    for kind in WorkloadKind::ALL {
        let pipeline = pipeline.clone();
        let cfg = args.configure(FreeRideConfig::iterative());
        jobs.push(Box::new(move || {
            run_colocation(&pipeline, &cfg, &Submission::per_worker(kind, 4))
        }));
    }
    for (_, cfg) in all_methods() {
        let pipeline = pipeline.clone();
        let cfg = args.configure(cfg);
        jobs.push(Box::new(move || {
            run_colocation(&pipeline, &cfg, &Submission::mixed())
        }));
    }
    jobs
}

/// Extracts the number following `"key":` from hand-rolled JSON. Good
/// enough for `BENCH.json`, whose schema this bin itself writes.
fn json_number(src: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = src.find(&needle)? + needle.len();
    let rest = src[at..].trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Prints the per-cell delta table against the committed `BENCH.json`.
/// Purely informational — perf varies across hosts and the committed
/// file may come from different hardware, so nothing here gates.
fn print_bench_deltas(fresh: &[(&str, f64)]) {
    let Ok(old) = std::fs::read_to_string("BENCH.json") else {
        println!("no committed BENCH.json; skipping delta table");
        return;
    };
    let version = json_number(&old, "bench_version").unwrap_or(0.0);
    println!("-- deltas vs committed BENCH.json (bench_version {version:.0}, non-gating) --");
    for &(key, new) in fresh {
        match json_number(&old, key) {
            Some(prev) if prev != 0.0 => {
                let pct = 100.0 * (new - prev) / prev;
                println!("{key:<26} {prev:>12.3} -> {new:>12.3}  ({pct:+.1}%)");
            }
            _ => println!("{key:<26} {:>12} -> {new:>12.3}  (new cell)", "-"),
        }
    }
}

fn timed_sweep(runner: SweepRunner, args: &BenchArgs) -> (f64, u64) {
    let jobs = sweep_jobs(args);
    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let start = Instant::now();
    let runs = runner.run(jobs);
    let wall = start.elapsed().as_secs_f64();
    let events: u64 = runs.iter().map(|r| r.events_processed).sum();
    (wall, events)
}

fn main() {
    let args = BenchArgs::parse();
    let cores = default_threads();
    println!(
        "FreeRide perf baseline: epochs={}, threads={}, cores={}",
        args.epochs, args.threads, cores
    );

    println!("-- single run (PageRank x4, iterative) --");
    let single = single_run(&args);
    println!(
        "wall {:.3}s, {} events, {:.0} events/sec",
        single.wall_s, single.events, single.events_per_sec
    );

    println!("-- cluster run (4 jobs, model rotation, least-loaded placement) --");
    let cluster = cluster_perf(&args);
    println!(
        "wall {:.3}s, {} events, {:.0} cluster events/sec",
        cluster.wall_s, cluster.events, cluster.events_per_sec
    );

    println!("-- hetero run (1.2B on H100/A100-80/A100-40/L4, fastest-fit placement) --");
    let hetero = hetero_perf(&args);
    println!(
        "wall {:.3}s, {} events, {:.0} hetero events/sec",
        hetero.wall_s, hetero.events, hetero.events_per_sec
    );

    println!("-- chaos run (6-cell resilience grid on one fault trace) --");
    let chaos_run = chaos_perf(&args);
    println!(
        "wall {:.3}s, {} events, {:.0} chaos events/sec",
        chaos_run.wall_s, chaos_run.events, chaos_run.events_per_sec
    );

    println!("-- traffic run (open-loop Poisson load through the guarded middleware stack) --");
    let traffic_run = traffic_perf(&args);
    println!(
        "wall {:.3}s, {} events, {:.0} traffic events/sec",
        traffic_run.wall_s, traffic_run.events, traffic_run.events_per_sec
    );

    println!("-- health run (4-cell supervision grid on one fault trace) --");
    let health_run = health_perf(&args);
    println!(
        "wall {:.3}s, {} events, {:.0} health events/sec",
        health_run.wall_s, health_run.events, health_run.events_per_sec
    );

    println!("-- observability run (4-job cluster, tracing + profiling armed) --");
    let (obs, profile, trace_events, chrome) = obs_run(&args);
    println!(
        "wall {:.3}s, {} events, {:.0} obs events/sec, {} trace events",
        obs.wall_s, obs.events, obs.events_per_sec, trace_events
    );
    print!("{}", profile.table());

    println!("-- standard sweep (10 runs: table1 workloads + table2 mixed methods) --");
    let (seq_s, seq_events) = timed_sweep(SweepRunner::new(1), &args);
    println!("sequential: {seq_s:.3}s ({seq_events} events)");
    let (par_s, par_events) = timed_sweep(args.sweep(), &args);
    assert_eq!(
        seq_events, par_events,
        "parallel sweep must process identical event streams"
    );
    let speedup = seq_s / par_s;
    println!(
        "parallel ({} threads): {par_s:.3}s, speedup {speedup:.2}x",
        args.sweep().threads()
    );

    print_bench_deltas(&[
        ("events_per_sec", single.events_per_sec),
        ("cluster_events_per_sec", cluster.events_per_sec),
        ("hetero_events_per_sec", hetero.events_per_sec),
        ("chaos_events_per_sec", chaos_run.events_per_sec),
        ("traffic_events_per_sec", traffic_run.events_per_sec),
        ("health_events_per_sec", health_run.events_per_sec),
        ("obs_events_per_sec", obs.events_per_sec),
        ("speedup", speedup),
    ]);

    // freeride: allow(no-wall-clock) -- perf bin measures real wall time; never feeds back into sim state
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \
         \"bench_version\": 7,\n  \
         \"unix_time\": {unix_time},\n  \
         \"host\": {{ \"cores\": {cores} }},\n  \
         \"config\": {{ \"epochs\": {epochs}, \"threads\": {threads}, \"sweep_jobs\": 10, \"cluster_jobs\": 4 }},\n  \
         \"single_run\": {{ \"wall_s\": {sw:.4}, \"events\": {se}, \"events_per_sec\": {seps:.0} }},\n  \
         \"cluster\": {{ \"wall_s\": {cw:.4}, \"events\": {ce}, \"cluster_events_per_sec\": {ceps:.0} }},\n  \
         \"hetero\": {{ \"wall_s\": {hw:.4}, \"events\": {he}, \"hetero_events_per_sec\": {heps:.0} }},\n  \
         \"chaos\": {{ \"wall_s\": {xw:.4}, \"events\": {xe}, \"chaos_events_per_sec\": {xeps:.0} }},\n  \
         \"traffic\": {{ \"wall_s\": {tw:.4}, \"events\": {te}, \"traffic_events_per_sec\": {teps:.0} }},\n  \
         \"health\": {{ \"wall_s\": {lw:.4}, \"events\": {le}, \"health_events_per_sec\": {leps:.0} }},\n  \
         \"obs\": {{ \"wall_s\": {ow:.4}, \"events\": {oe}, \"obs_events_per_sec\": {oeps:.0}, \"trace_events\": {otr} }},\n  \
         \"sweep\": {{ \"sequential_s\": {qs:.4}, \"parallel_s\": {ps:.4}, \"speedup\": {sp:.3}, \"events\": {ev} }}\n\
         }}\n",
        epochs = args.epochs,
        threads = args.sweep().threads(),
        sw = single.wall_s,
        se = single.events,
        seps = single.events_per_sec,
        cw = cluster.wall_s,
        ce = cluster.events,
        ceps = cluster.events_per_sec,
        hw = hetero.wall_s,
        he = hetero.events,
        heps = hetero.events_per_sec,
        xw = chaos_run.wall_s,
        xe = chaos_run.events,
        xeps = chaos_run.events_per_sec,
        tw = traffic_run.wall_s,
        te = traffic_run.events,
        teps = traffic_run.events_per_sec,
        lw = health_run.wall_s,
        le = health_run.events,
        leps = health_run.events_per_sec,
        ow = obs.wall_s,
        oe = obs.events,
        oeps = obs.events_per_sec,
        otr = trace_events,
        qs = seq_s,
        ps = par_s,
        sp = speedup,
        ev = seq_events,
    );
    std::fs::write("BENCH.json", &json).expect("write BENCH.json");
    println!("wrote BENCH.json");
    std::fs::write("trace.json", &chrome).expect("write trace.json");
    println!("wrote trace.json ({} bytes)", chrome.len());
}
