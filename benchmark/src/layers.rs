//! Per-layer metrics of one traced execution, named by crate and module.
//!
//! Probe totals are corrected by the calibrated timer cost (`timer_ns` per
//! call), so a probe around almost no work can read slightly negative.
//! Shares of host time are taken against the untraced execution that ran
//! just before, which carries no probe overhead.

use crate::probes::{Phase, Recording, Tally};
use crate::stats;
use crate::workloads::Iteration;
use std::collections::BTreeMap;

/// Metrics of the service layers that shed submissions in `online_traffic`,
/// with the layer names `ServiceReport` uses. The rest never shed there:
/// the deadline layer only stamps (the placement gate enforces it), the
/// rate limiter delays, and admission control never binds before the
/// quota does.
const SHED: [(&str, &str); 2] = [
    ("service.shed.tenant-quota", "tenant-quota"),
    ("service.shed.placement", "placement"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const METRICS: [(&str, &str); 34] = [
    ("tasks.run_step_s", "s"),
    ("tasks.run_step_calls", "count"),
    ("tasks.run_step_ns_p50", "ns"),
    ("tasks.run_step_ns_tail", "ns"),
    ("tasks.init_s", "s"),
    ("gpu.speeds_into_s", "s"),
    ("gpu.speeds_into_calls", "count"),
    ("cluster.place_s", "s"),
    ("cluster.place_calls", "count"),
    ("cluster.place_none", "count"),
    ("service.submit_calls", "count"),
    ("service.submit_ns_p50", "ns"),
    ("service.submit_ns_tail", "ns"),
    ("service.shed.tenant-quota", "count"),
    ("service.shed.placement", "count"),
    ("service.rejected_frac", "ratio"),
    ("pipeline.baseline_s", "s"),
    ("pipeline.bubbles", "count"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("orchestrator.residual_s", "s"),
    ("orchestrator.events", "count"),
    ("manager.events", "count"),
    ("rpc.events", "count"),
    ("service.events", "count"),
    ("health.events", "count"),
    ("fault.events", "count"),
    ("worker.harvest_frac", "ratio"),
    ("worker.insufficient_frac", "ratio"),
    ("worker.unused_oom_frac", "ratio"),
    ("obs.trace_events", "count"),
    ("obs.traced_overhead_pct", "%"),
    ("obs.traced_overhead_iqr_pct", "%"),
    ("bench.timer_ns", "ns"),
];

/// Seconds of a tally, less `timer_ns` per call.
fn secs(t: Tally, timer_ns: f64) -> f64 {
    (t.ns as f64 - t.calls as f64 * timer_ns) / 1e9
}

/// Median and tail (see [`stats::tail_quantile`]) of per-call readings,
/// less the timer cost; zero without readings.
fn p50_tail(readings: &[u64], timer_ns: f64) -> (f64, f64) {
    let mut v = readings.to_vec();
    v.sort_unstable();
    let at = |q: f64| stats::nearest_rank(&v, q).map_or(0.0, |ns| ns as f64 - timer_ns);
    let tail = stats::tail_quantile(v.len()).map_or(0.0, at);
    (at(0.5), tail)
}

/// The per-layer values of one traced execution, paired with the untraced
/// execution before it. `baseline_s` is the host time of the workload's
/// no-side-task baselines; `rec` holds the probe readings of the traced
/// execution and of the probed baseline replay.
/// `obs.traced_overhead_iqr_pct` is a whole-run value, left to the caller.
pub fn sample(
    traced: &Iteration,
    untraced: &Iteration,
    rec: &Recording,
    baseline_s: f64,
    timer_ns: f64,
) -> BTreeMap<&'static str, f64> {
    let setup = rec.phase(Phase::Setup);
    let run = rec.phase(Phase::Run);
    let base = rec.phase(Phase::Baseline);
    let out = &traced.out;

    let run_step_s = secs(run.run_step, timer_ns);
    let init_s = secs(run.init, timer_ns) + secs(setup.init, timer_ns);
    let gpu_s = secs(run.speeds_into, timer_ns) - secs(base.speeds_into, timer_ns);
    let place_run_s = secs(run.place, timer_ns);
    let (step_p50, step_tail) = p50_tail(&rec.run_step_ns, timer_ns);
    let (submit_p50, submit_tail) = p50_tail(&rec.submit_ns, timer_ns);
    let simulator_s = untraced.run_s - run_step_s - init_s - baseline_s;
    let bubble = out.bubble_s[0];
    let frac = |part: f64| if bubble > 0.0 { part / bubble } else { 0.0 };
    let events = |name: &str| out.profile_events.get(name).copied().unwrap_or(0) as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("tasks.run_step_s", run_step_s),
        ("tasks.run_step_calls", run.run_step.calls as f64),
        ("tasks.run_step_ns_p50", step_p50),
        ("tasks.run_step_ns_tail", step_tail),
        ("tasks.init_s", init_s),
        ("gpu.speeds_into_s", gpu_s),
        (
            "gpu.speeds_into_calls",
            run.speeds_into.calls.saturating_sub(base.speeds_into.calls) as f64,
        ),
        ("cluster.place_s", secs(setup.place, timer_ns) + place_run_s),
        (
            "cluster.place_calls",
            (setup.place.calls + run.place.calls) as f64,
        ),
        (
            "cluster.place_none",
            (setup.place_none + run.place_none) as f64,
        ),
        ("service.submit_calls", setup.submit.calls as f64),
        ("service.submit_ns_p50", submit_p50),
        ("service.submit_ns_tail", submit_tail),
        (
            "service.rejected_frac",
            out.rejected as f64 / out.attempted.max(1) as f64,
        ),
        ("pipeline.baseline_s", baseline_s),
        ("pipeline.bubbles", out.bubbles as f64),
        ("sim.events", out.events as f64),
        (
            "sim.ns_per_event",
            simulator_s * 1e9 / out.events.max(1) as f64,
        ),
        ("orchestrator.residual_s", simulator_s - gpu_s - place_run_s),
        ("orchestrator.events", events("orchestrator")),
        ("manager.events", events("manager")),
        ("rpc.events", events("rpc")),
        ("service.events", events("service")),
        ("health.events", events("health")),
        ("fault.events", events("fault")),
        ("worker.harvest_frac", frac(out.bubble_s[1])),
        ("worker.insufficient_frac", frac(out.bubble_s[2])),
        ("worker.unused_oom_frac", frac(out.bubble_s[3])),
        ("obs.trace_events", out.trace_events as f64),
        (
            "obs.traced_overhead_pct",
            (traced.run_s / untraced.run_s - 1.0) * 100.0,
        ),
        ("bench.timer_ns", timer_ns),
    ]);
    for (metric, layer) in SHED {
        m.insert(metric, out.shed.get(layer).copied().unwrap_or(0) as f64);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes;
    use crate::workloads::{execute, Inputs, Workload};

    #[test]
    fn a_traced_sample_fills_every_metric_but_the_overhead_spread() {
        let inputs = Inputs::generate(Workload::OnlineTraffic, 1, 2);
        let untraced = execute(&inputs, false);
        let _ = probes::take();
        let traced = execute(&inputs, true);
        let baseline_s = crate::workloads::run_baselines(&inputs);
        let rec = probes::take();
        let m = sample(&traced, &untraced, &rec, baseline_s, 20.0);
        for (name, _) in METRICS {
            let run_wide = name == "obs.traced_overhead_iqr_pct";
            assert_eq!(m.contains_key(name), !run_wide, "{name}");
        }
        assert_eq!(m.len(), METRICS.len() - 1);
        assert_eq!(m["service.submit_calls"], traced.out.attempted as f64);
        // This short run rejects nothing in-run, so every rejection is a
        // refusal at submission, which originates at exactly one layer.
        let shed: f64 = SHED.iter().map(|(metric, _)| m[metric]).sum();
        assert!(shed > 0.0);
        assert_eq!(shed, traced.out.rejected as f64, "{m:?}");
        assert!(m["cluster.place_calls"] > 0.0);
    }

    #[test]
    fn tails_need_enough_readings() {
        assert_eq!(p50_tail(&[], 5.0), (0.0, 0.0));
        let few: Vec<u64> = (1..=19).collect();
        assert_eq!(p50_tail(&few, 0.0), (10.0, 0.0));
        let many: Vec<u64> = (1..=1_000).rev().collect();
        assert_eq!(p50_tail(&many, 1.0), (499.0, 989.0));
    }
}
