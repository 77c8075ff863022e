//! End-to-end health-subsystem tests: the chaos layer's fault trace
//! replayed with a supervisor armed, asserting that detection runs on
//! schedule, supervised migrations are attributed distinctly from
//! rejoin restores, and hedge races cancel their losers; and where a
//! migrated task and a hedge duplicate land.

use freeride::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker the trace crashes at 4.0s (down 1s) and 5.2s (down 3s).
const FLAPPING: usize = 1;

const EPOCHS: usize = 6;

const SEED: u64 = 0xC4A05;

fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .oom_window(SimTime::from_millis(3_000), SimDuration::from_secs(2))
        .crash_worker(
            SimTime::from_millis(4_000),
            FLAPPING,
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
            FLAPPING,
            SimDuration::from_secs(3),
        )
        .straggler(
            SimTime::from_millis(6_000),
            2,
            0.25,
            SimDuration::from_secs(4),
        )
}

/// Replays the trace with retry + checkpointing armed; `supervise`
/// additionally arms the supervisor.
fn run_cell(supervise: Option<SupervisorConfig>) -> ClusterReport {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(EPOCHS);
    let mut job = ClusterJob::new(pipeline)
        .seed(SEED)
        .faults(fault_plan())
        .checkpoint(SimDuration::from_secs(1));
    if let Some(cfg) = supervise {
        job = job.supervise(cfg);
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
    // One arrival inside the OOM window, one landing while worker 2
    // straggles (the hedged run's laggard).
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_500)),
        retry.clone(),
    );
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(5_500)),
        retry,
    );
    cluster.run()
}

#[test]
fn unsupervised_runs_report_no_health_and_only_rejoin_recoveries() {
    let reactive = run_cell(None);
    assert!(
        reactive.health.is_empty(),
        "no supervisor, no heartbeats, no health report"
    );
    assert!(!reactive.jobs[0].recoveries.is_empty());
    assert!(reactive.jobs[0]
        .recoveries
        .iter()
        .all(|r| r.kind != RecoveryKind::Migration && r.kind != RecoveryKind::Hedge));
}

#[test]
fn supervised_migrations_are_attributed_distinctly_from_rejoins() {
    let supervised = run_cell(Some(SupervisorConfig::new()));
    let h = &supervised.health;
    // The flapping worker walks Healthy -> Suspect -> Dead and back; the
    // straggler flaps Healthy <-> Suspect. Detection latency is bounded
    // by the heartbeat budget.
    assert!(!h.transitions.is_empty());
    assert!(h.transitions.iter().any(|t| t.worker == FLAPPING));
    assert!(h.mean_time_to_detect() > SimDuration::ZERO);
    // At least one checkpointed task left the suspect worker before its
    // daemon rejoined, and the recovery log says so explicitly.
    assert!(h.migrations > 0);
    let migrated = supervised.jobs[0]
        .recoveries
        .iter()
        .filter(|r| r.kind == RecoveryKind::Migration)
        .count() as u64;
    assert_eq!(
        migrated, h.migrations,
        "every supervised migration must be attributed in recoveries"
    );
}

#[test]
fn hedge_races_cancel_exactly_one_incarnation_per_race() {
    let hedged = run_cell(Some(SupervisorConfig::new().hedge(0.5)));
    let h = &hedged.health;
    let races = h.hedge_wins + h.hedge_losses;
    assert!(races > 0, "the straggler window must trigger a hedge race");
    // First completion wins; the loser — original or duplicate — is
    // cancelled with the dedicated stop reason, one per settled race.
    let cancelled = hedged.jobs[0]
        .tasks
        .iter()
        .filter(|t| t.stop_reason == StopReason::HedgeLost)
        .count() as u64;
    assert_eq!(cancelled, races);
}

#[test]
fn supervision_out_harvests_the_reactive_baseline() {
    let reactive = run_cell(None);
    let supervised = run_cell(Some(SupervisorConfig::new().hedge(0.5)));
    assert!(
        supervised.total_steps() > reactive.total_steps(),
        "supervision must out-harvest the reactive baseline ({} vs {})",
        supervised.total_steps(),
        reactive.total_steps()
    );
    // And determinism holds with everything armed.
    let again = run_cell(Some(SupervisorConfig::new().hedge(0.5)));
    assert_eq!(supervised.health, again.health);
    assert_eq!(supervised.total_steps(), again.total_steps());
}

/// Pins the i-th submission to worker `workers[i]` of job 0.
struct PinInOrder {
    workers: Vec<usize>,
    next: AtomicUsize,
}

impl PlacementPolicy for PinInOrder {
    fn name(&self) -> &'static str {
        "pin-in-order"
    }

    fn place(&self, _needed: MemBytes, _view: &ClusterView) -> Option<Placement> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        Some(Placement::Worker {
            job: 0,
            worker: self.workers[i],
        })
    }
}

/// A task migrated off a failing worker lands on the least-loaded healthy
/// host, ties toward the lower index. Algorithm 1 puts one task on worker
/// 0 and one on worker 1; when worker 1 crashes, workers 2 and 3 tie with
/// no task each, and the migrated task must land on worker 2.
#[test]
fn a_migration_breaks_a_load_tie_toward_the_lower_index() {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(EPOCHS);
    let crash = FaultPlan::new().crash_worker(
        SimTime::from_millis(4_000),
        FLAPPING,
        SimDuration::from_secs(3),
    );
    let job = ClusterJob::new(pipeline)
        .seed(SEED)
        .faults(crash)
        .checkpoint(SimDuration::from_secs(1))
        .supervise(SupervisorConfig::new());
    let mut cluster = Cluster::builder().job(job).cost_report(false).build();
    let handles: Vec<ClusterTaskHandle> = (0..2)
        .map(|_| {
            cluster
                .submit_with(
                    Submission::new(WorkloadKind::PageRank),
                    SubmitOptions::new(),
                )
                .expect("fits")
        })
        .collect();
    let report = cluster.run();
    let moved = &handles[1];
    assert_eq!(handles[0].worker(), Some(0));
    assert!(
        report.jobs[0]
            .recoveries
            .iter()
            .any(|r| r.task == moved.id() && r.kind == RecoveryKind::Migration),
        "worker 1's task is migrated, not restored on the rejoin"
    );
    assert_eq!(moved.worker(), Some(2));
}

/// A hedge duplicate lands on the fastest healthy host, even one that
/// carries more tasks. Tasks run on workers 0, 2 and 3; worker 2
/// straggles at a quarter speed and the H100 on worker 3 outpaces the
/// rest, so laggards get hedged. Every duplicate must land on worker 3,
/// which carries a task, and none on worker 1, which carries none.
#[test]
fn a_hedge_prefers_the_fastest_host_over_the_least_loaded() {
    let reference = HardwareSpec::rtx6000ada_48g();
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(EPOCHS);
    let slow = FaultPlan::new().straggler(
        SimTime::from_millis(1_000),
        2,
        0.25,
        SimDuration::from_secs(6),
    );
    let job = ClusterJob::new(pipeline)
        .seed(SEED)
        .hardware(vec![
            reference.clone(),
            reference.clone(),
            reference,
            HardwareSpec::h100_80g(),
        ])
        .faults(slow)
        .supervise(SupervisorConfig::new().hedge(0.5));
    let mut cluster = Cluster::builder()
        .job(job)
        .policy(PinInOrder {
            workers: vec![0, 2, 3],
            next: AtomicUsize::new(0),
        })
        .cost_report(false)
        .build();
    let submitted: Vec<TaskId> = (0..3)
        .map(|_| {
            cluster
                .submit_with(
                    Submission::new(WorkloadKind::PageRank),
                    SubmitOptions::new(),
                )
                .expect("fits")
                .id()
        })
        .collect();
    let report = cluster.run();
    let duplicates: Vec<&TaskSummary> = report.jobs[0]
        .tasks
        .iter()
        .filter(|t| !submitted.contains(&t.id))
        .collect();
    assert!(!duplicates.is_empty(), "a laggard is hedged");
    assert!(
        duplicates.iter().all(|t| t.worker == 3),
        "every duplicate lands on the H100: {duplicates:?}"
    );
}
