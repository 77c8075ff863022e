//! The paper's evaluation metrics (§6.1.5): time increase `I`, cost
//! savings `S`, and the bubble-time breakdown of Fig. 9.
//!
//! [`Cluster::run`](crate::Cluster::run) computes a [`CostReport`] per job
//! automatically (unless disabled); [`evaluate`] remains the standalone
//! entry point for callers holding a baseline time and task work records.

use freeride_sim::SimDuration;
use freeride_tasks::{ServerSpec, WorkloadProfile};

/// Time increase `I = (T_with − T_no) / T_no` — the performance overhead
/// of co-locating side tasks with pipeline training. Lower is better; can
/// be (slightly) negative from measurement noise, as in the paper's
/// Fig. 7.
pub fn time_increase(baseline: SimDuration, with_side_tasks: SimDuration) -> f64 {
    assert!(!baseline.is_zero(), "baseline time must be positive");
    (with_side_tasks.as_secs_f64() - baseline.as_secs_f64()) / baseline.as_secs_f64()
}

/// Work done by one side task during a run, for the cost model.
#[derive(Debug, Clone, Copy)]
pub struct TaskWork {
    /// Steps completed while co-located (the paper's `W_sideTask,Server-I`).
    pub steps: u64,
    /// Per-step duration on Server-II (1/`Th_sideTask,Server-II`).
    pub step_server2: SimDuration,
}

impl TaskWork {
    /// From a profile and a step count.
    pub fn new(profile: &WorkloadProfile, steps: u64) -> Self {
        TaskWork {
            steps,
            step_server2: profile.step_server2,
        }
    }

    /// Server-II time needed to do the same work: `W / Th_II`.
    pub fn server2_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.steps as f64 * self.step_server2.as_secs_f64())
    }
}

/// The complete cost evaluation of one co-location run.
#[derive(Debug, Clone, Copy)]
pub struct CostReport {
    /// `T_noSideTask`.
    pub baseline_time: SimDuration,
    /// `T_withSideTasks`.
    pub run_time: SimDuration,
    /// `I` — relative training-time increase.
    pub time_increase: f64,
    /// `C_noSideTask` in dollars.
    pub baseline_cost: f64,
    /// `C_withSideTasks − C_noSideTask` in dollars.
    pub extra_cost: f64,
    /// `C_sideTasks` in dollars: what the same side-task work would cost
    /// on dedicated Server-II instances.
    pub side_task_value: f64,
    /// `S = (C_sideTasks − extra) / C_noSideTask` — positive is benefit.
    pub cost_savings: f64,
}

/// Evaluates the paper's metrics for a run (§6.1.5).
pub fn evaluate(
    baseline_time: SimDuration,
    run_time: SimDuration,
    work: &[TaskWork],
) -> CostReport {
    let i = time_increase(baseline_time, run_time);
    let baseline_cost = ServerSpec::SERVER_I.cost_of(baseline_time);
    let with_cost = ServerSpec::SERVER_I.cost_of(run_time);
    let extra_cost = with_cost - baseline_cost;
    let side_task_value: f64 = work
        .iter()
        .map(|w| ServerSpec::SERVER_II.cost_of(w.server2_time()))
        .sum();
    CostReport {
        baseline_time,
        run_time,
        time_increase: i,
        baseline_cost,
        extra_cost,
        side_task_value,
        cost_savings: (side_task_value - extra_cost) / baseline_cost,
    }
}

/// Fig. 9's bubble-time breakdown for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BubbleBreakdown {
    /// Total bubble time reported during serving epochs.
    pub total: SimDuration,
    /// Time spent executing side-task steps.
    pub running: SimDuration,
    /// Bubble tails too short for the next step ("insufficient time").
    pub insufficient: SimDuration,
    /// Bubbles with no side task assigned because none fit the worker's
    /// free memory ("no side task: OOM").
    pub unused_oom: SimDuration,
}

impl BubbleBreakdown {
    /// Everything else: interface bookkeeping, RPC latency, state
    /// transitions — the paper's "FreeRide runtime".
    pub fn runtime(&self) -> SimDuration {
        self.total
            .saturating_sub(self.running)
            .saturating_sub(self.insufficient)
            .saturating_sub(self.unused_oom)
    }

    /// Fraction helpers for the stacked-bar figure.
    pub fn fractions(&self) -> BreakdownFractions {
        let total = self.total.as_secs_f64();
        let f = |d: SimDuration| {
            if total > 0.0 {
                d.as_secs_f64() / total
            } else {
                0.0
            }
        };
        BreakdownFractions {
            running: f(self.running),
            runtime: f(self.runtime()),
            insufficient: f(self.insufficient),
            unused_oom: f(self.unused_oom),
        }
    }
}

/// Normalised Fig. 9 bar segments (sum to 1 when total > 0).
#[derive(Debug, Clone, Copy)]
pub struct BreakdownFractions {
    /// "Running".
    pub running: f64,
    /// "FreeRide runtime".
    pub runtime: f64,
    /// "No side task: insufficient time".
    pub insufficient: f64,
    /// "No side task: OOM".
    pub unused_oom: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeride_tasks::WorkloadKind;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn time_increase_basic() {
        assert!((time_increase(secs(100.0), secs(101.0)) - 0.01).abs() < 1e-12);
        assert!((time_increase(secs(100.0), secs(150.0)) - 0.5).abs() < 1e-12);
        assert!(time_increase(secs(100.0), secs(99.0)) < 0.0);
    }

    #[test]
    #[should_panic(expected = "baseline time")]
    fn zero_baseline_panics() {
        time_increase(SimDuration::ZERO, secs(1.0));
    }

    #[test]
    fn paper_formula_reproduces_resnet18_band() {
        // One hour of training at $3.96/h, 1.1% overhead, four ResNet18
        // instances harvesting ~38% of each GPU's time: the paper's
        // Table 2 reports S ≈ 6.4%.
        let profile = WorkloadKind::ResNet18.profile();
        let hour = secs(3600.0);
        let run = secs(3600.0 * 1.011);
        let steps_per_task = (0.38 * 3600.0 / profile.step_server1.as_secs_f64()).round() as u64;
        let work: Vec<TaskWork> = (0..4)
            .map(|_| TaskWork::new(&profile, steps_per_task))
            .collect();
        let report = evaluate(hour, run, &work);
        assert!((report.time_increase - 0.011).abs() < 1e-9);
        assert!(
            (0.03..=0.10).contains(&report.cost_savings),
            "S = {}",
            report.cost_savings
        );
    }

    #[test]
    fn savings_negative_when_overhead_dominates() {
        // 50% overhead with little side work → money lost (MPS/naive rows
        // of Table 2).
        let profile = WorkloadKind::ResNet18.profile();
        let report = evaluate(secs(3600.0), secs(5400.0), &[TaskWork::new(&profile, 1000)]);
        assert!(report.cost_savings < 0.0);
        assert!(report.extra_cost > 0.0);
    }

    #[test]
    fn no_work_no_value() {
        let report = evaluate(secs(100.0), secs(100.0), &[]);
        assert_eq!(report.side_task_value, 0.0);
        assert_eq!(report.cost_savings, 0.0);
        assert_eq!(report.time_increase, 0.0);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = BubbleBreakdown {
            total: secs(10.0),
            running: secs(6.0),
            insufficient: secs(1.0),
            unused_oom: secs(2.0),
        };
        assert_eq!(b.runtime(), secs(1.0));
        let f = b.fractions();
        let sum = f.running + f.runtime + f.insufficient + f.unused_oom;
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((f.running - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = BubbleBreakdown::default();
        let f = b.fractions();
        assert_eq!(f.running + f.runtime + f.insufficient + f.unused_oom, 0.0);
    }

    #[test]
    fn task_work_server2_time() {
        let profile = WorkloadKind::PageRank.profile();
        let w = TaskWork::new(&profile, 1000);
        let expected = profile.step_server2.as_secs_f64() * 1000.0;
        assert!((w.server2_time().as_secs_f64() - expected).abs() < 1e-9);
    }
}
