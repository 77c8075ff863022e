//! The health subsystem: failure detection, supervised migration and
//! straggler hedging.
//!
//! The chaos layer made failure a first-class scenario, but every
//! mechanism there is *reactive*: retries fire after a rejection,
//! restores wait for a crashed worker to rejoin, the breaker trips only
//! after placements fail. This module closes the loop with a
//! *supervision* layer that detects failures before placements bounce
//! off them and moves work proactively — all inside the deterministic
//! simulation:
//!
//! * **Failure detection** — workers send heartbeat RPCs;
//!   a per-worker phi-accrual-style suspicion score
//!   ([`FailureDetector::phi`]) drives `Healthy → Suspect → Dead`
//!   transitions at exact simulated times. Crashes silence heartbeats,
//!   stragglers stretch their emission interval, and `rpc_spike` faults
//!   delay their delivery — every fault kind perturbs the score.
//!
//!   ```text
//!                     phi ≥ 3                      phi ≥ 8
//!       ┌─────────┐ ──────────────▶ ┌─────────┐ ─────────────▶ ┌──────┐
//!       │ Healthy │                 │ Suspect │                │ Dead │
//!       └─────────┘ ◀────────────── └─────────┘ ◀───────────── └──────┘
//!                    heartbeat                    heartbeat
//!   ```
//!
//! * **Supervision** — a [`Supervisor`] reacts to transitions: `Suspect`
//!   drains the worker (the admission plane stops routing to it, and
//!   views expose it through [`WorkerView::health`]) and proactively
//!   migrates its checkpointed side tasks to healthy workers; `Dead`
//!   evicts immediately instead of waiting for the rejoin restore.
//! * **Straggler hedging** — a side task whose progress falls below a
//!   configurable fraction of the fleet median gets a speculative
//!   duplicate on the fastest healthy worker; the first completion wins
//!   and the loser is cancelled with
//!   [`StopReason::HedgeLost`](crate::StopReason::HedgeLost)
//!   (deterministic tie-break on worker index).
//!
//! Arm the supervisor per job with
//! [`ClusterJob::supervise`](crate::ClusterJob::supervise); everything it
//! observed lands in [`ClusterReport::health`](crate::ClusterReport::health)
//! as a [`HealthReport`]. The subsystem is **off by default**: a job
//! without a supervisor schedules no heartbeats and replays the exact
//! historical event stream.
//!
//! [`WorkerView::health`]: crate::WorkerView::health

use crate::task::TaskId;
use freeride_sim::{SimDuration, SimTime};

/// Liveness of one worker as judged by the [`FailureDetector`].
///
/// Marked `#[non_exhaustive]`: detector growth (e.g. a quarantine or
/// degraded state) must not break downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum HealthState {
    /// Heartbeats arrive on schedule.
    Healthy,
    /// Heartbeats are overdue past the suspicion threshold: the
    /// supervisor drains the worker and proactively migrates its
    /// checkpointed side tasks.
    Suspect,
    /// Heartbeats are overdue past the death threshold: the supervisor
    /// evicts the worker's tasks immediately instead of waiting for a
    /// rejoin.
    Dead,
}

impl HealthState {
    /// Stable lowercase label, used in displays and trace events.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
        }
    }
}

impl core::fmt::Display for HealthState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One state change in the failure detector's transition log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// The job whose detector observed the transition (stamped when
    /// per-job reports merge into the cluster report; `0` within a job).
    pub job: usize,
    /// The worker that changed state.
    pub worker: usize,
    /// When the transition happened (exact simulated time).
    pub at: SimTime,
    /// The state left.
    pub from: HealthState,
    /// The state entered.
    pub to: HealthState,
}

impl core::fmt::Display for HealthTransition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "j{} w{} {}->{} @{}",
            self.job, self.worker, self.from, self.to, self.at
        )
    }
}

/// How often each worker emits a heartbeat, and how often the supervisor
/// re-evaluates suspicion scores. Stragglers emit proportionally slower —
/// a 4× slowdown stretches the interval 4×.
pub(crate) const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Suspicion score ([`FailureDetector::phi`]) at which a worker becomes
/// [`HealthState::Suspect`]: elapsed silence measured in heartbeat
/// intervals.
const SUSPECT_AFTER: f64 = 3.0;
/// Suspicion score at which a worker becomes [`HealthState::Dead`].
const DEAD_AFTER: f64 = 8.0;
/// How often the supervisor scans for laggards to hedge.
pub(crate) const HEDGE_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Configuration of a job's [`Supervisor`] (builder style). Heartbeats
/// go out every 100 ms; a worker turns Suspect after 3 missed intervals
/// and Dead after 8; hedging scans every 500 ms.
///
/// ```
/// use freeride_core::SupervisorConfig;
///
/// let cfg = SupervisorConfig::new().migrate_on_suspect(false).hedge(0.5);
/// assert!(!cfg.migrate_on_suspect);
/// assert_eq!(cfg.hedge_threshold, Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Whether `Suspect` already migrates the worker's checkpointed side
    /// tasks to healthy workers (otherwise only `Dead` evicts).
    pub migrate_on_suspect: bool,
    /// Straggler-hedging threshold: a live task whose step count falls
    /// below this fraction of the fleet median gets a speculative
    /// duplicate on the fastest healthy worker. `None` disables hedging.
    pub hedge_threshold: Option<f64>,
}

impl Default for SupervisorConfig {
    /// Migration on suspect, hedging off.
    fn default() -> Self {
        SupervisorConfig {
            migrate_on_suspect: true,
            hedge_threshold: None,
        }
    }
}

impl SupervisorConfig {
    /// The default configuration (see [`SupervisorConfig::default`]).
    pub fn new() -> Self {
        SupervisorConfig::default()
    }

    /// Selects whether `Suspect` already migrates checkpointed tasks.
    pub fn migrate_on_suspect(mut self, migrate: bool) -> Self {
        self.migrate_on_suspect = migrate;
        self
    }

    /// Enables straggler hedging at `threshold` of the fleet median.
    pub fn hedge(mut self, threshold: f64) -> Self {
        self.hedge_threshold = Some(threshold);
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a hedge threshold outside `(0, 1)`.
    pub fn validate(&self) {
        if let Some(frac) = self.hedge_threshold {
            assert!(
                frac.is_finite() && frac > 0.0 && frac < 1.0,
                "hedge threshold must lie in (0, 1), got {frac}"
            );
        }
    }
}

/// Deterministic sim-time failure detector: a simplified phi-accrual
/// scheme where the suspicion score for a worker is the time since its
/// last heartbeat measured in heartbeat intervals.
///
/// The detector is a pure state machine — feed it heartbeats and
/// evaluation instants, read back transitions — which is what makes the
/// supervisor's detection times byte-identical across replays.
///
/// ```
/// use freeride_core::{FailureDetector, HealthState};
/// use freeride_sim::{SimDuration, SimTime};
///
/// let mut d = FailureDetector::new(2, SimDuration::from_millis(100), 3.0, 8.0);
/// let t = |ms| SimTime::from_millis(ms);
///
/// d.heartbeat(t(100), 0);
/// assert_eq!(d.state(0), HealthState::Healthy);
/// assert!(d.evaluate(t(200), 0).is_none(), "phi = 1.0, on schedule");
///
/// // Silence: 3 intervals overdue turns the worker Suspect...
/// let tr = d.evaluate(t(400), 0).expect("phi = 3.0");
/// assert_eq!((tr.from, tr.to), (HealthState::Healthy, HealthState::Suspect));
/// // ...8 turn it Dead...
/// assert_eq!(d.evaluate(t(900), 0).unwrap().to, HealthState::Dead);
/// // ...and a late heartbeat restores it.
/// assert_eq!(d.heartbeat(t(950), 0).unwrap().to, HealthState::Healthy);
/// ```
#[derive(Debug, Clone)]
pub struct FailureDetector {
    interval: SimDuration,
    suspect_after: f64,
    dead_after: f64,
    last_beat: Vec<SimTime>,
    state: Vec<HealthState>,
}

impl FailureDetector {
    /// A detector over `workers` workers expecting a heartbeat every
    /// `interval`, turning Suspect at score `suspect_after` and Dead at
    /// `dead_after`. Every worker starts Healthy with a heartbeat at
    /// t = 0.
    ///
    /// # Panics
    ///
    /// Panics on zero workers, a zero interval, or thresholds that are
    /// not positive and strictly increasing.
    pub fn new(workers: usize, interval: SimDuration, suspect_after: f64, dead_after: f64) -> Self {
        assert!(workers > 0, "a detector needs at least one worker");
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        assert!(
            suspect_after.is_finite() && suspect_after > 0.0 && dead_after > suspect_after,
            "thresholds must be positive and strictly increasing"
        );
        FailureDetector {
            interval,
            suspect_after,
            dead_after,
            last_beat: vec![SimTime::ZERO; workers],
            state: vec![HealthState::Healthy; workers],
        }
    }

    /// Number of workers observed.
    pub fn workers(&self) -> usize {
        self.state.len()
    }

    /// The current state of `worker`.
    pub fn state(&self, worker: usize) -> HealthState {
        self.state[worker]
    }

    /// The suspicion score of `worker` at `now`: time since its last
    /// heartbeat, measured in heartbeat intervals. `0.0` right after a
    /// beat, `1.0` when the next one is exactly due.
    pub fn phi(&self, now: SimTime, worker: usize) -> f64 {
        let elapsed = now.saturating_since(self.last_beat[worker]);
        elapsed.as_nanos() as f64 / self.interval.as_nanos() as f64
    }

    /// Records a heartbeat from `worker` at `now`. A worker that was
    /// Suspect or Dead transitions back to Healthy; the transition is
    /// returned.
    pub fn heartbeat(&mut self, now: SimTime, worker: usize) -> Option<HealthTransition> {
        self.last_beat[worker] = now;
        self.step(now, worker, HealthState::Healthy)
    }

    /// Re-evaluates `worker`'s suspicion score at `now`, stepping its
    /// state towards Suspect or Dead if heartbeats are overdue. Returns
    /// the transition, if any.
    pub fn evaluate(&mut self, now: SimTime, worker: usize) -> Option<HealthTransition> {
        let phi = self.phi(now, worker);
        let target = if phi >= self.dead_after {
            HealthState::Dead
        } else if phi >= self.suspect_after {
            HealthState::Suspect
        } else {
            return None; // evaluation never *improves* a state
        };
        // Evaluation only degrades: a recovery must come from a real
        // heartbeat, never from score arithmetic.
        if target > self.state[worker] {
            self.step(now, worker, target)
        } else {
            None
        }
    }

    fn step(&mut self, now: SimTime, worker: usize, to: HealthState) -> Option<HealthTransition> {
        let from = self.state[worker];
        if from == to {
            return None;
        }
        self.state[worker] = to;
        Some(HealthTransition {
            job: 0,
            worker,
            at: now,
            from,
            to,
        })
    }
}

/// The supervision layer over one job's fleet: wraps a
/// [`FailureDetector`], tracks which workers are drained, and accounts
/// detection/recovery latencies into a [`HealthReport`].
///
/// The orchestrator drives it with heartbeats and periodic checks;
/// standalone it is just as usable:
///
/// ```
/// use freeride_core::{HealthState, Supervisor, SupervisorConfig};
/// use freeride_sim::{SimDuration, SimTime};
///
/// let mut sup = Supervisor::new(2, &SupervisorConfig::new());
/// let t = |ms| SimTime::from_millis(ms);
///
/// sup.note_crash(t(100), 1); // fault injection: worker 1 dies
/// sup.on_heartbeat(t(400), 0); // worker 0 stays on schedule
/// let transitions = sup.check(t(450)); // heartbeats 3.5 intervals overdue
/// assert_eq!(transitions.len(), 1);
/// assert_eq!(transitions[0].to, HealthState::Suspect);
/// assert!(sup.is_drained(1), "suspect workers take no new placements");
/// assert!(!sup.is_drained(0));
///
/// sup.on_heartbeat(t(1_100), 1); // the worker rejoins
/// assert!(!sup.is_drained(1));
/// let report = sup.into_report();
/// // Detected 350 ms after the crash, recovered 650 ms after detection.
/// assert_eq!(report.time_to_detect[0].1, SimDuration::from_millis(350));
/// assert_eq!(report.time_to_recover[0].1, SimDuration::from_millis(650));
/// ```
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    detector: FailureDetector,
    drained: Vec<bool>,
    /// Injection time of an un-detected crash, for time-to-detect.
    crash_noted: Vec<Option<SimTime>>,
    /// When the worker last left Healthy, for time-to-recover.
    left_healthy: Vec<Option<SimTime>>,
    report: HealthReport,
}

impl Supervisor {
    /// A supervisor over `workers` workers under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SupervisorConfig::validate`] or `workers`
    /// is zero.
    pub fn new(workers: usize, cfg: &SupervisorConfig) -> Self {
        cfg.validate();
        Supervisor {
            detector: FailureDetector::new(workers, HEARTBEAT_INTERVAL, SUSPECT_AFTER, DEAD_AFTER),
            cfg: cfg.clone(),
            drained: vec![false; workers],
            crash_noted: vec![None; workers],
            left_healthy: vec![None; workers],
            report: HealthReport::default(),
        }
    }

    /// The configuration this supervisor runs under.
    pub fn cfg(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// The wrapped detector (read-only).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Whether `worker` is drained: Suspect or Dead, taking no new
    /// placements until a heartbeat restores it.
    pub fn is_drained(&self, worker: usize) -> bool {
        self.drained[worker]
    }

    /// Records that fault injection crashed `worker` at `now` — the
    /// ground truth time-to-detect is measured against.
    pub fn note_crash(&mut self, now: SimTime, worker: usize) {
        if self.crash_noted[worker].is_none() {
            self.crash_noted[worker] = Some(now);
        }
    }

    /// Feeds a heartbeat from `worker`, un-draining it if it was Suspect
    /// or Dead and recording the time-to-recover. Returns the transition,
    /// if any.
    pub fn on_heartbeat(&mut self, now: SimTime, worker: usize) -> Option<HealthTransition> {
        let tr = self.detector.heartbeat(now, worker)?;
        self.drained[worker] = false;
        self.crash_noted[worker] = None;
        if let Some(detected) = self.left_healthy[worker].take() {
            self.report
                .time_to_recover
                .push((worker, now.saturating_since(detected)));
        }
        self.report.transitions.push(tr);
        Some(tr)
    }

    /// Re-evaluates every worker at `now`, draining those that turned
    /// Suspect or Dead and recording detection latencies. Returns the
    /// transitions, in worker order.
    pub fn check(&mut self, now: SimTime) -> Vec<HealthTransition> {
        let mut out = Vec::new();
        for w in 0..self.detector.workers() {
            if let Some(tr) = self.detector.evaluate(now, w) {
                self.drained[w] = true;
                if tr.from == HealthState::Healthy {
                    self.left_healthy[w] = Some(now);
                    if let Some(crashed) = self.crash_noted[w].take() {
                        self.report
                            .time_to_detect
                            .push((w, now.saturating_since(crashed)));
                    }
                }
                self.report.transitions.push(tr);
                out.push(tr);
            }
        }
        out
    }

    /// Accounts one supervised migration (a checkpointed task moved off
    /// a Suspect/Dead worker).
    pub fn record_migration(&mut self) {
        self.report.migrations += 1;
    }

    /// Consumes the supervisor into everything it observed.
    pub fn into_report(self) -> HealthReport {
        self.report
    }
}

/// Why a recovered task recovered — the attribution
/// [`DeploymentReport::recoveries`](crate::DeploymentReport::recoveries)
/// keys latency stats on.
/// Marked `#[non_exhaustive]`: each new recovery mechanism adds a kind
/// (hedging was the latest), so downstream matches must carry a `_` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryKind {
    /// A retried submission finally stuck after transient rejections.
    Resubmit,
    /// A checkpoint restore onto the same worker when it rejoined.
    Rejoin,
    /// The supervisor proactively moved the checkpointed task to a
    /// healthy worker instead of waiting for the rejoin.
    Migration,
    /// A speculative hedge duplicate out-ran the original.
    Hedge,
}

impl RecoveryKind {
    /// Stable lowercase label, used in displays and trace events.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryKind::Resubmit => "resubmit",
            RecoveryKind::Rejoin => "rejoin",
            RecoveryKind::Migration => "migration",
            RecoveryKind::Hedge => "hedge",
        }
    }
}

impl core::fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One task recovery under the chaos layer, attributed to its mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The task that recovered (its original id).
    pub task: TaskId,
    /// Time from the first failure to the recovery that stuck.
    pub latency: SimDuration,
    /// Which mechanism recovered it.
    pub kind: RecoveryKind,
}

/// Everything the health subsystem observed over one run: the detector's
/// transition log, detection/recovery latencies, and supervisor action
/// counts. Empty when no job armed a supervisor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Every detector state change, in simulated-time order per job.
    pub transitions: Vec<HealthTransition>,
    /// Per detected failure: `(worker, crash-to-detection latency)`.
    pub time_to_detect: Vec<(usize, SimDuration)>,
    /// Per recovered worker: `(worker, detection-to-heartbeat latency)`.
    pub time_to_recover: Vec<(usize, SimDuration)>,
    /// Checkpointed tasks the supervisor moved off Suspect/Dead workers.
    pub migrations: u64,
    /// Hedge races the speculative duplicate won.
    pub hedge_wins: u64,
    /// Hedge races the original won (duplicate cancelled).
    pub hedge_losses: u64,
}

impl HealthReport {
    /// Whether nothing was observed (no supervisor was armed, or nothing
    /// happened).
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
            && self.time_to_detect.is_empty()
            && self.time_to_recover.is_empty()
            && self.migrations == 0
            && self.hedge_wins == 0
            && self.hedge_losses == 0
    }

    /// Folds `other` (job `job`'s report) into this one, stamping the
    /// job index onto its transitions.
    pub fn merge_from(&mut self, job: usize, mut other: HealthReport) {
        for tr in &mut other.transitions {
            tr.job = job;
        }
        self.transitions.append(&mut other.transitions);
        self.time_to_detect.append(&mut other.time_to_detect);
        self.time_to_recover.append(&mut other.time_to_recover);
        self.migrations += other.migrations;
        self.hedge_wins += other.hedge_wins;
        self.hedge_losses += other.hedge_losses;
    }

    /// Mean crash-to-detection latency, or zero when none was measured.
    pub fn mean_time_to_detect(&self) -> SimDuration {
        Self::mean(&self.time_to_detect)
    }

    /// Mean detection-to-recovery latency, or zero when none was
    /// measured.
    pub fn mean_time_to_recover(&self) -> SimDuration {
        Self::mean(&self.time_to_recover)
    }

    fn mean(samples: &[(usize, SimDuration)]) -> SimDuration {
        if samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = samples.iter().map(|(_, d)| d.as_nanos() as u128).sum();
        SimDuration::from_nanos((sum / samples.len() as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn detector_walks_healthy_suspect_dead_and_back() {
        let mut det = FailureDetector::new(3, d(100), 3.0, 8.0);
        assert_eq!(det.state(1), HealthState::Healthy);
        assert!(det.evaluate(t(250), 1).is_none(), "phi 2.5 < 3.0");

        let tr = det.evaluate(t(300), 1).expect("phi 3.0");
        assert_eq!(
            (tr.from, tr.to),
            (HealthState::Healthy, HealthState::Suspect)
        );
        assert!(det.evaluate(t(350), 1).is_none(), "still suspect");

        let tr = det.evaluate(t(800), 1).expect("phi 8.0");
        assert_eq!((tr.from, tr.to), (HealthState::Suspect, HealthState::Dead));
        assert!(
            det.evaluate(t(10_000), 1).is_none(),
            "dead is terminal for evaluate"
        );

        let tr = det.heartbeat(t(10_000), 1).expect("restored");
        assert_eq!((tr.from, tr.to), (HealthState::Dead, HealthState::Healthy));
        assert_eq!(det.phi(t(10_050), 1), 0.5);
        // Other workers were never touched.
        assert_eq!(det.state(0), HealthState::Healthy);
        assert_eq!(det.state(2), HealthState::Healthy);
    }

    #[test]
    fn detector_can_jump_straight_to_dead() {
        let mut det = FailureDetector::new(1, d(100), 3.0, 8.0);
        let tr = det.evaluate(t(5_000), 0).expect("phi 50");
        assert_eq!((tr.from, tr.to), (HealthState::Healthy, HealthState::Dead));
    }

    #[test]
    fn on_time_heartbeats_produce_no_transitions() {
        let mut det = FailureDetector::new(1, d(100), 3.0, 8.0);
        for ms in (100..2_000).step_by(100) {
            assert!(det.heartbeat(t(ms), 0).is_none());
            assert!(det.evaluate(t(ms + 50), 0).is_none());
        }
        assert_eq!(det.state(0), HealthState::Healthy);
    }

    #[test]
    fn supervisor_accounts_detection_and_recovery_latency() {
        let cfg = SupervisorConfig::new();
        let mut sup = Supervisor::new(4, &cfg);
        // Everyone beats at 1.0s; worker 2 then crashes and falls silent
        // while the rest keep beating on schedule.
        for w in 0..4 {
            sup.on_heartbeat(t(1_000), w);
        }
        sup.note_crash(t(1_000), 2);
        assert!(sup.check(t(1_200)).is_empty(), "not overdue yet");
        for w in [0, 1, 3] {
            sup.on_heartbeat(t(1_200), w);
        }
        let trs = sup.check(t(1_300));
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].worker, 2);
        assert!(sup.is_drained(2));

        // Degrading further to Dead measures no second TTD.
        for w in [0, 1, 3] {
            sup.on_heartbeat(t(1_700), w);
        }
        let trs = sup.check(t(1_800));
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].to, HealthState::Dead);

        sup.on_heartbeat(t(2_100), 2);
        assert!(!sup.is_drained(2));
        let report = sup.into_report();
        assert_eq!(report.transitions.len(), 3);
        assert_eq!(report.time_to_detect, vec![(2, d(300))]);
        assert_eq!(report.time_to_recover, vec![(2, d(800))]);
        assert_eq!(report.mean_time_to_detect(), d(300));
        assert_eq!(report.mean_time_to_recover(), d(800));
    }

    #[test]
    fn health_report_merge_stamps_jobs_and_sums_counters() {
        let mut merged = HealthReport::default();
        assert!(merged.is_empty());
        let job1 = HealthReport {
            transitions: vec![HealthTransition {
                job: 0,
                worker: 3,
                at: t(10),
                from: HealthState::Healthy,
                to: HealthState::Suspect,
            }],
            time_to_detect: vec![(3, d(300))],
            time_to_recover: vec![],
            migrations: 2,
            hedge_wins: 1,
            hedge_losses: 0,
        };
        merged.merge_from(1, job1.clone());
        merged.merge_from(2, job1);
        assert!(!merged.is_empty());
        assert_eq!(merged.transitions.len(), 2);
        assert_eq!(merged.transitions[0].job, 1);
        assert_eq!(merged.transitions[1].job, 2);
        assert_eq!(merged.migrations, 4);
        assert_eq!(merged.hedge_wins, 2);
        assert_eq!(merged.mean_time_to_detect(), d(300));
        assert_eq!(merged.mean_time_to_recover(), SimDuration::ZERO);
    }

    #[test]
    fn transition_display_is_stable() {
        let tr = HealthTransition {
            job: 1,
            worker: 2,
            at: t(4_300),
            from: HealthState::Healthy,
            to: HealthState::Suspect,
        };
        assert_eq!(
            tr.to_string(),
            format!("j1 w2 healthy->suspect @{}", t(4_300))
        );
    }

    #[test]
    #[should_panic(expected = "hedge threshold must lie in (0, 1)")]
    fn config_rejects_hedge_threshold_of_one() {
        SupervisorConfig::new().hedge(1.0).validate();
    }
}
