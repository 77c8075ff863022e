//! Table 2 — time increase `I` (lower is better) and cost savings `S`
//! (higher is better) of running DeepSpeed with side tasks under FreeRide
//! (iterative, imperative) and the two baselines (MPS, naive co-location),
//! for each of the six workloads and the mixed workload.
//!
//! Run: `cargo run --release -p freeride-bench --bin table2
//! [epochs] [--threads N]` — 28 independent simulations, fanned across
//! threads; output is identical for any thread count.

#![forbid(unsafe_code)]

use freeride_bench::{
    all_methods, eval_method, header, main_pipeline, paper_table2, paper_table2_mixed, BenchArgs,
};
use freeride_core::{run_baseline, Submission};
use freeride_tasks::WorkloadKind;

fn main() {
    let args = BenchArgs::parse();
    let pipeline = main_pipeline(args.epochs);
    let baseline = run_baseline(&pipeline);

    header("Table 2: time increase I and cost savings S");
    println!(
        "{:<10} {:<20} {:>8} {:>9} {:>9} {:>9}",
        "Side task", "method", "I%", "paper I%", "S%", "paper S%"
    );

    // One job per (workload, method) cell, fanned across threads; rows
    // print in the table's order afterwards.
    let jobs: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| all_methods().into_iter().map(move |m| (kind, m)))
        .map(|(kind, (name, cfg))| {
            let pipeline = pipeline.clone();
            let cfg = args.configure(cfg);
            move || {
                let row = eval_method(
                    &pipeline,
                    name,
                    &cfg,
                    &Submission::per_worker(kind, 4),
                    baseline,
                );
                (kind, name, row.report)
            }
        })
        .collect();
    let cells = args.sweep().run(jobs);

    let mut iter_i = Vec::new();
    let mut iter_s = Vec::new();
    let methods_per_kind = all_methods().len();
    for (i, (kind, name, report)) in cells.into_iter().enumerate() {
        let (pi, ps) = paper_table2(kind, name).expect("paper cell");
        if name == "FreeRide-Iterative" {
            iter_i.push(report.time_increase);
            iter_s.push(report.cost_savings);
        }
        println!(
            "{:<10} {:<20} {:>7.1} {:>9.1} {:>8.1} {:>9.1}",
            kind.name(),
            name,
            report.time_increase * 100.0,
            pi,
            report.cost_savings * 100.0,
            ps
        );
        if (i + 1) % methods_per_kind == 0 {
            println!();
        }
    }

    header("Mixed workload (PageRank, ResNet18, Image, VGG19 - one per worker)");
    let jobs: Vec<_> = all_methods()
        .into_iter()
        .map(|(name, cfg)| {
            let pipeline = pipeline.clone();
            let cfg = args.configure(cfg);
            move || {
                let row = eval_method(&pipeline, name, &cfg, &Submission::mixed(), baseline);
                (name, row.report)
            }
        })
        .collect();
    for (name, report) in args.sweep().run(jobs) {
        let (pi, ps) = paper_table2_mixed(name).expect("paper cell");
        println!(
            "{:<10} {:<20} {:>7.1} {:>9.1} {:>8.1} {:>9.1}",
            "Mixed",
            name,
            report.time_increase * 100.0,
            pi,
            report.cost_savings * 100.0,
            ps
        );
    }

    header("Headline averages (iterative interface)");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average I = {:.1}% (paper 1.1%), average S = {:.1}% (paper 7.8%)",
        mean(&iter_i) * 100.0,
        mean(&iter_s) * 100.0
    );
}
