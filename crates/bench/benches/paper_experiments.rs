//! Regenerates every table and figure of the paper in one pass.
//!
//! This is a `harness = false` bench target so `cargo bench --workspace`
//! prints the full evaluation. It is a compact version of the individual
//! binaries (`figure1`, `figure2`, `table1`, `table2`, `figure7`,
//! `figure8`, `figure9`, `ablations`); run those for the detailed output.
//!
//! Every row is an independent simulation, so each section fans its runs
//! across threads via the sweep executor (`FR_THREADS` / `--threads N`
//! control the fan-out); results are collected in submission order, so
//! the output is identical for any thread count.

use freeride_bench::{
    all_methods, eval_method, header, main_pipeline, paper_table1, paper_table2,
    paper_table2_mixed, BenchArgs, SweepRunner,
};
use freeride_core::{run_baseline, run_colocation, FreeRideConfig, Submission};
use freeride_pipeline::{run_training, ModelSpec, PipelineConfig, ScheduleKind};
use freeride_tasks::WorkloadKind;

const EPOCHS: usize = 13;

fn main() {
    // Epochs stay pinned (the reference output depends on them); the
    // sweep fan-out and seed come from the shared argument surface.
    let args = BenchArgs::parse();
    let sweep = args.sweep();
    println!("FreeRide paper experiments (epochs per run: {EPOCHS})");

    figure1_and_2(sweep);
    table1(sweep, &args);
    table2_and_figure9(sweep, &args);
    figure7(sweep, &args);
    println!();
    println!("(figure8 and ablations have dedicated binaries: `cargo run --release");
    println!(" -p freeride-bench --bin figure8` / `--bin ablations`)");
}

fn figure1_and_2(sweep: SweepRunner) {
    header("Figures 1 & 2: bubbles in pipeline parallelism");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "model", "epoch", "bubble rate", "dur min", "dur max", "stage0 free"
    );
    let models = [
        ModelSpec::nanogpt_1_2b(),
        ModelSpec::nanogpt_3_6b(),
        ModelSpec::nanogpt_6b(),
    ];
    let jobs: Vec<_> = models
        .into_iter()
        .map(|m| {
            move || {
                let cfg = PipelineConfig::paper_default(m).with_epochs(3);
                let run = run_training(&cfg, ScheduleKind::OneFOneB);
                format!(
                    "{:<8} {:>9.2}s {:>11.1}% {:>12} {:>12} {:>12}",
                    format!("{}B", m.params_b),
                    run.epoch_times[0].as_secs_f64(),
                    run.bubble_stats.bubble_rate * 100.0,
                    format!("{}", run.profile.min_duration().unwrap()),
                    format!("{}", run.profile.max_duration().unwrap()),
                    format!("{}", cfg.stage_free_memory(0)),
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
    let mb8 = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
        .with_micro_batches(8)
        .with_epochs(3);
    let run = run_training(&mb8, ScheduleKind::OneFOneB);
    println!(
        "3.6B with 8 micro-batches: bubble rate {:.1}% (paper 26.2%)",
        run.bubble_stats.bubble_rate * 100.0
    );
}

fn table1(sweep: SweepRunner, args: &BenchArgs) {
    header("Table 1: side-task throughput ratios (bubbles vs Server-II vs CPU)");
    let pipeline = main_pipeline(EPOCHS);
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10}",
        "task", "x Server-II", "(paper)", "x CPU", "(paper)"
    );
    let jobs: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let pipeline = pipeline.clone();
            let cfg = args.configure(FreeRideConfig::iterative());
            move || {
                let run = run_colocation(&pipeline, &cfg, &Submission::per_worker(kind, 4));
                let steps: u64 = run.tasks.iter().map(|t| t.steps).sum();
                let thr = steps as f64 / run.total_time.as_secs_f64();
                let p = kind.profile();
                let (pb, ps2, pcpu) = paper_table1(kind);
                format!(
                    "{:<10} {:>11.2}x {:>9.2}x {:>9.1}x {:>9.1}x",
                    kind.name(),
                    thr * p.step_server2.as_secs_f64(),
                    pb / ps2,
                    thr * p.step_cpu.as_secs_f64(),
                    pb / pcpu
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
}

fn table2_and_figure9(sweep: SweepRunner, args: &BenchArgs) {
    header("Table 2: I / S per method (paper values in parentheses)  +  Figure 9 breakdown");
    let pipeline = main_pipeline(EPOCHS);
    let baseline = run_baseline(&pipeline);

    // Per workload: one job per method cell plus the Figure 9 breakdown
    // run; plus the four mixed-workload cells. Everything fans out in a
    // single barrier (mixed job kinds, so boxed closures), then prints in
    // table order.
    enum Cell {
        Report(freeride_core::CostReport),
        Fractions(freeride_core::BreakdownFractions),
    }
    let mut jobs: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    let method_specs: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            all_methods()
                .into_iter()
                .map(move |(name, cfg)| (Submission::per_worker(kind, 4), name, cfg))
        })
        .chain(
            all_methods()
                .into_iter()
                .map(|(name, cfg)| (Submission::mixed(), name, cfg)),
        )
        .collect();
    let n_cells = method_specs.len();
    for (subs, name, cfg) in method_specs {
        let pipeline = pipeline.clone();
        let cfg = args.configure(cfg);
        jobs.push(Box::new(move || {
            Cell::Report(eval_method(&pipeline, name, &cfg, &subs, baseline).report)
        }));
    }
    for kind in WorkloadKind::ALL {
        let pipeline = pipeline.clone();
        let cfg = args.configure(FreeRideConfig::iterative());
        jobs.push(Box::new(move || {
            let fr = run_colocation(&pipeline, &cfg, &Submission::per_worker(kind, 4));
            Cell::Fractions(fr.breakdown.fractions())
        }));
    }

    let n_methods = all_methods().len();
    let mut cells = sweep.run(jobs);
    let fractions: Vec<_> = cells
        .split_off(n_cells)
        .into_iter()
        .map(|c| match c {
            Cell::Fractions(f) => f,
            Cell::Report(_) => unreachable!("tail cells are fig9 fractions"),
        })
        .collect();
    let reports: Vec<_> = cells
        .into_iter()
        .map(|c| match c {
            Cell::Report(r) => r,
            Cell::Fractions(_) => unreachable!("head cells are method reports"),
        })
        .collect();

    for (ki, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        print!("{:<10}", kind.name());
        for (mi, (name, _)) in all_methods().into_iter().enumerate() {
            let report = &reports[ki * n_methods + mi];
            let (pi, ps) = paper_table2(kind, name).unwrap();
            print!(
                "  I {:>5.1} ({:>5.1}) S {:>6.1} ({:>6.1})",
                report.time_increase * 100.0,
                pi,
                report.cost_savings * 100.0,
                ps
            );
        }
        println!();
        let f = &fractions[ki];
        println!(
            "           fig9: running {:.0}% runtime {:.0}% insufficient {:.0}% oom {:.0}%",
            f.running * 100.0,
            f.runtime * 100.0,
            f.insufficient * 100.0,
            f.unused_oom * 100.0
        );
    }
    print!("{:<10}", "Mixed");
    let mixed_base = WorkloadKind::ALL.len() * n_methods;
    for (mi, (name, _)) in all_methods().into_iter().enumerate() {
        let report = &reports[mixed_base + mi];
        let (pi, ps) = paper_table2_mixed(name).unwrap();
        print!(
            "  I {:>5.1} ({:>5.1}) S {:>6.1} ({:>6.1})",
            report.time_increase * 100.0,
            pi,
            report.cost_savings * 100.0,
            ps
        );
    }
    println!();
}

fn figure7(sweep: SweepRunner, args: &BenchArgs) {
    header("Figure 7: sensitivity (iterative interface, condensed)");
    let cfg = args.configure(FreeRideConfig::iterative());
    println!("(a,b) ResNet18 batch sweep:");
    let pipeline = main_pipeline(EPOCHS);
    let baseline = run_baseline(&pipeline);
    let jobs: Vec<_> = [16usize, 64, 128]
        .into_iter()
        .map(|batch| {
            let pipeline = pipeline.clone();
            let cfg = cfg.clone();
            move || {
                let subs: Vec<Submission> = (0..4)
                    .map(|_| Submission::new(WorkloadKind::ResNet18).with_batch(batch))
                    .collect();
                let run = run_colocation(&pipeline, &cfg, &subs);
                let r = freeride_core::evaluate(baseline, run.total_time, &run.work());
                format!(
                    "  batch {batch:>3}: I {:>5.1}%  S {:>5.1}%",
                    r.time_increase * 100.0,
                    r.cost_savings * 100.0
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
    println!("(c,d) model-size sweep (PageRank):");
    let jobs: Vec<_> = [1.2f64, 3.6, 6.0]
        .into_iter()
        .map(|params| {
            let cfg = cfg.clone();
            move || {
                let p = PipelineConfig::paper_default(ModelSpec::by_params_b(params))
                    .with_epochs(EPOCHS);
                let b = run_baseline(&p);
                let run =
                    run_colocation(&p, &cfg, &Submission::per_worker(WorkloadKind::PageRank, 4));
                let r = freeride_core::evaluate(b, run.total_time, &run.work());
                format!(
                    "  {params:>3}B: I {:>5.1}%  S {:>5.1}%",
                    r.time_increase * 100.0,
                    r.cost_savings * 100.0
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
    println!("(e,f) micro-batch sweep (PageRank):");
    let jobs: Vec<_> = [4usize, 6, 8]
        .into_iter()
        .map(|mb| {
            let cfg = cfg.clone();
            move || {
                let p = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
                    .with_micro_batches(mb)
                    .with_epochs(EPOCHS);
                let b = run_baseline(&p);
                let run =
                    run_colocation(&p, &cfg, &Submission::per_worker(WorkloadKind::PageRank, 4));
                let r = freeride_core::evaluate(b, run.total_time, &run.work());
                format!(
                    "  mb {mb}: I {:>5.1}%  S {:>5.1}%",
                    r.time_increase * 100.0,
                    r.cost_savings * 100.0
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
}
