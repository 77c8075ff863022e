//! Deterministic fault injection and resilience middleware.
//!
//! The paper's middleware is evaluated on a permanently healthy fleet;
//! production middleware earns its keep when parts fail. This module adds
//! both halves of that story, fully inside the deterministic simulation:
//!
//! * **Fault injection** — a [`FaultPlan`] schedules typed fault events
//!   ([`FaultKind`]) at exact simulated times: worker-daemon crashes with
//!   side-task loss, straggling stages (transient compute-speed
//!   degradation through the hardware seam), transient OOM windows on the
//!   admission plane, and per-link RPC latency spikes. The same plan
//!   replayed twice yields byte-identical runs.
//! * **Resilience middleware** — mechanisms the user composes like onion
//!   layers: [`RetryPolicy`] (exponential backoff re-submission on typed
//!   [`SubmitError`]s), side-task checkpoint/restart (periodic progress
//!   snapshots restored when a crashed worker recovers, see
//!   [`ClusterJob::checkpoint`](crate::ClusterJob::checkpoint)), and a
//!   per-worker [`CircuitBreaker`] wrapping any
//!   [`PlacementPolicy`](crate::PlacementPolicy).
//!
//! A [`FaultPlan`] rides on a [`ClusterJob`](crate::ClusterJob); the
//! orchestrator seeds its events *after* all normal seeds, so a job with
//! an empty plan replays the exact historical event stream — the no-fault
//! path pays nothing.

use crate::cluster::{BreakerState, ClusterView, Placement, PlacementPolicy};
use crate::manager::SubmitError;
use freeride_gpu::MemBytes;
use freeride_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One kind of injected fault.
///
/// Marked `#[non_exhaustive]`: the fault taxonomy grows (e.g. correlated
/// rack failures, ECC degradation) without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The worker's side-task daemon crashes: every side task on it dies
    /// ([`StopReason::WorkerLost`](crate::StopReason::WorkerLost)), its
    /// manager queue is forgotten, and submissions targeting it are
    /// rejected with [`SubmitError::WorkerDown`] until the daemon
    /// restarts `down_for` later. Training itself is isolated and keeps
    /// running — the paper's §8 fault-tolerance argument.
    WorkerCrash {
        /// The crashing worker (stage index).
        worker: usize,
        /// How long the daemon stays down before restarting.
        down_for: SimDuration,
    },
    /// The worker's GPU transiently degrades to `factor` × its configured
    /// compute speed (a straggler: thermal throttling, a noisy
    /// neighbour). In-flight kernels keep the progress they accrued and
    /// drain the remainder at the degraded speed.
    Straggler {
        /// The degraded worker (stage index).
        worker: usize,
        /// Multiplier applied to the configured speed; `0 < factor`.
        /// `0.25` means a 4× slowdown.
        factor: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// A transient allocation-pressure window on the whole job: arrivals
    /// inside it are rejected as [`SubmitError::InsufficientMemory`] with
    /// zero reported free memory, as if fragmentation ate the fleet.
    /// Retryable by design — [`RetryPolicy`] rides it out.
    OomWindow {
        /// How long the window lasts.
        duration: SimDuration,
    },
    /// The RPC links between the job's manager and one worker spike to a
    /// fixed one-way `latency` (both directions) — a partition when large,
    /// a degraded link when moderate. Restored to the job's configured
    /// latency model after `duration`.
    RpcSpike {
        /// The worker whose manager links spike.
        worker: usize,
        /// Fixed one-way latency during the spike.
        latency: SimDuration,
        /// How long the spike lasts.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// Stable lowercase label, used in trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::WorkerCrash { .. } => "worker-crash",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::OomWindow { .. } => "oom-window",
            FaultKind::RpcSpike { .. } => "rpc-spike",
        }
    }

    /// The worker the fault targets, when it targets one (OOM windows
    /// press on the whole job).
    pub fn worker(&self) -> Option<usize> {
        match self {
            FaultKind::WorkerCrash { worker, .. }
            | FaultKind::Straggler { worker, .. }
            | FaultKind::RpcSpike { worker, .. } => Some(*worker),
            FaultKind::OomWindow { .. } => None,
        }
    }
}

/// One scheduled fault: a [`FaultKind`] firing at an exact simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires (simulated time since run start).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault injections for one job.
///
/// Build it fluently and attach it with
/// [`ClusterJob::faults`](crate::ClusterJob::faults). The plan is data,
/// not randomness: the same plan always produces the same run, which is
/// what makes chaos experiments diffable.
///
/// Windows of one kind on one worker may overlap. The worker stays
/// down, slowed or spiked until the last of them closes, under the
/// factor or latency of the latest one still open; a crash on a daemon
/// that is already down only extends the outage.
///
/// ```
/// use freeride_core::{FaultKind, FaultPlan};
/// use freeride_sim::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .crash_worker(SimTime::from_millis(4_000), 1, SimDuration::from_secs(3))
///     .straggler(SimTime::from_millis(6_000), 2, 0.25, SimDuration::from_secs(4))
///     .oom_window(SimTime::from_millis(3_000), SimDuration::from_secs(3))
///     .rpc_spike(SimTime::from_millis(5_000), 3, SimDuration::from_millis(40), SimDuration::from_secs(1));
///
/// assert_eq!(plan.len(), 4);
/// assert!(matches!(
///     plan.events()[0].kind,
///     FaultKind::WorkerCrash { worker: 1, .. }
/// ));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; the run is byte-identical to one
    /// with no plan at all).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a raw [`FaultEvent`].
    pub fn event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Schedules a worker-daemon crash at `at`, restarting `down_for`
    /// later.
    pub fn crash_worker(self, at: SimTime, worker: usize, down_for: SimDuration) -> Self {
        self.event(FaultEvent {
            at,
            kind: FaultKind::WorkerCrash { worker, down_for },
        })
    }

    /// Schedules a transient compute-speed degradation: `worker` runs at
    /// `factor` × its configured speed from `at` for `duration`.
    pub fn straggler(self, at: SimTime, worker: usize, factor: f64, duration: SimDuration) -> Self {
        self.event(FaultEvent {
            at,
            kind: FaultKind::Straggler {
                worker,
                factor,
                duration,
            },
        })
    }

    /// Schedules a transient OOM window on the admission plane from `at`
    /// for `duration`.
    pub fn oom_window(self, at: SimTime, duration: SimDuration) -> Self {
        self.event(FaultEvent {
            at,
            kind: FaultKind::OomWindow { duration },
        })
    }

    /// Schedules an RPC latency spike on the manager↔`worker` links from
    /// `at` for `duration`.
    pub fn rpc_spike(
        self,
        at: SimTime,
        worker: usize,
        latency: SimDuration,
        duration: SimDuration,
    ) -> Self {
        self.event(FaultEvent {
            at,
            kind: FaultKind::RpcSpike {
                worker,
                latency,
                duration,
            },
        })
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, in insertion order (ties at the same instant
    /// fire in this order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Validates the plan against a job with `stages` workers.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range worker index or a non-positive straggler
    /// factor.
    pub(crate) fn validate(&self, stages: usize) {
        for (i, e) in self.events.iter().enumerate() {
            match e.kind {
                FaultKind::WorkerCrash { worker, .. }
                | FaultKind::RpcSpike { worker, .. }
                | FaultKind::Straggler { worker, .. } => {
                    assert!(
                        worker < stages,
                        "fault event {i} targets worker {worker}, job has {stages} stages"
                    );
                }
                FaultKind::OomWindow { .. } => {}
            }
            if let FaultKind::Straggler { factor, .. } = e.kind {
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "fault event {i}: straggler factor must be finite and positive, got {factor}"
                );
            }
        }
    }
}

/// Exponential-backoff retry middleware for side-task submission.
///
/// Attach it to a submission through
/// [`SubmitOptions::retry`]; when the in-run
/// arrival is rejected with a retryable [`SubmitError`] (worker down,
/// circuit open, transient insufficient memory), the orchestrator re-runs
/// admission after `base_backoff * 2^attempt` of *simulated* time, up to
/// `max_attempts` retries, then reports the final rejection.
///
/// ```
/// use freeride_core::RetryPolicy;
/// use freeride_sim::SimDuration;
///
/// let p = RetryPolicy::new(3, SimDuration::from_millis(500));
/// assert_eq!(p.backoff(0), SimDuration::from_millis(500));
/// assert_eq!(p.backoff(1), SimDuration::from_millis(1_000));
/// assert_eq!(p.backoff(2), SimDuration::from_millis(2_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries after the initial attempt.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles every further attempt.
    pub base_backoff: SimDuration,
}

impl RetryPolicy {
    /// A policy retrying up to `max_attempts` times, starting at
    /// `base_backoff` and doubling.
    pub fn new(max_attempts: u32, base_backoff: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff,
        }
    }

    /// The backoff before retry number `attempt` (0-based): `base *
    /// 2^attempt`, saturating.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let mult = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        SimDuration::from_nanos(self.base_backoff.as_nanos().saturating_mul(mult))
    }

    /// Whether `error` is worth retrying: transient fleet conditions are
    /// (a crashed worker restarts, a breaker cools down, memory pressure
    /// passes); anything else is permanent.
    pub fn retryable(&self, error: &SubmitError) -> bool {
        matches!(
            error,
            SubmitError::WorkerDown { .. }
                | SubmitError::CircuitOpen { .. }
                | SubmitError::InsufficientMemory { .. }
        )
    }
}

impl Default for RetryPolicy {
    /// Three retries, 500 ms base backoff.
    fn default() -> Self {
        RetryPolicy::new(3, SimDuration::from_millis(500))
    }
}

/// Options for [`Cluster::submit_with`](crate::Cluster::submit_with): one
/// bag for everything that used to be separate entry points (job
/// affinity), plus the resilience knobs the chaos layer adds (retry
/// policy, priority tag).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubmitOptions {
    /// Preferred job: the policy sees this job first and spills over to
    /// the rest of the cluster only when it cannot host the task.
    pub affinity: Option<usize>,
    /// Retry middleware applied to in-run admission of this submission.
    pub retry: Option<RetryPolicy>,
    /// Free-form priority tag carried into the handle (reporting only —
    /// placement stays policy-driven).
    pub priority: Option<String>,
    /// Tenant label the service layer keys quotas and per-tenant metrics
    /// on. `None` falls under the shared
    /// [`DEFAULT_TENANT`](crate::DEFAULT_TENANT) bucket.
    pub tenant: Option<String>,
    /// Hard sim-time placement deadline: the admission plane rejects the
    /// submission with [`SubmitError::DeadlineExceeded`] if its effective
    /// arrival (after any service-layer delays) lands past this instant.
    pub deadline: Option<SimTime>,
}

impl SubmitOptions {
    /// Default options: no affinity, no retry, no priority.
    pub fn new() -> Self {
        SubmitOptions::default()
    }

    /// Prefers `job`, spilling over to the rest of the cluster when full.
    pub fn affinity(mut self, job: usize) -> Self {
        self.affinity = Some(job);
        self
    }

    /// Applies retry-with-backoff middleware to in-run admission.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Tags the submission with a priority label (carried into the
    /// handle; reporting only).
    pub fn priority(mut self, tag: impl Into<String>) -> Self {
        self.priority = Some(tag.into());
        self
    }

    /// Attributes the submission to `tenant` for quota accounting and
    /// per-tenant service metrics.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets a hard placement deadline: arrive (effectively, after any
    /// service-layer delays) by `at` or be rejected with
    /// [`SubmitError::DeadlineExceeded`].
    pub fn deadline(mut self, at: SimTime) -> Self {
        self.deadline = Some(at);
        self
    }
}

/// Per-worker breaker book-keeping.
#[derive(Debug, Clone, Copy)]
struct WorkerBreaker {
    consecutive_failures: u32,
    state: BreakerState,
    open_until: SimTime,
}

impl WorkerBreaker {
    fn new() -> Self {
        WorkerBreaker {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            open_until: SimTime::ZERO,
        }
    }
}

/// Per-worker circuit-breaker middleware wrapping any
/// [`PlacementPolicy`].
///
/// Classic three-state breaker, one per (job, worker): **closed** routes
/// normally; `threshold` *consecutive* admission failures trip it
/// **open**, shedding submissions to that worker with
/// [`SubmitError::CircuitOpen`] (cheap, typed, retryable) instead of
/// letting them fail slowly; after `cooldown` the first submission probes
/// **half-open** — success closes the breaker, failure re-opens it for
/// another cooldown. State is visible to callers through
/// [`WorkerView::breaker`](crate::WorkerView::breaker).
///
/// The wrapped policy never sees workers whose breaker is open: the view
/// it places over reports zero free memory for them, so any policy
/// (strict `free_mem > needed` by contract) routes around.
pub struct CircuitBreaker<P> {
    inner: P,
    threshold: u32,
    cooldown: SimDuration,
    state: Mutex<BTreeMap<(usize, usize), WorkerBreaker>>,
}

impl<P: PlacementPolicy> CircuitBreaker<P> {
    /// Wraps `inner`, tripping a worker's breaker open after `threshold`
    /// consecutive failures and probing again after `cooldown`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(inner: P, threshold: u32, cooldown: SimDuration) -> Self {
        assert!(threshold > 0, "breaker threshold must be at least 1");
        CircuitBreaker {
            inner,
            threshold,
            cooldown,
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn entry(
        map: &mut BTreeMap<(usize, usize), WorkerBreaker>,
        job: usize,
        worker: usize,
    ) -> &mut WorkerBreaker {
        map.entry((job, worker)).or_insert_with(WorkerBreaker::new)
    }
}

impl<P: PlacementPolicy> PlacementPolicy for CircuitBreaker<P> {
    fn name(&self) -> &'static str {
        "circuit-breaker"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        let state = self.state.lock().expect("breaker lock");
        let any_open = view.jobs().iter().any(|j| {
            j.workers.iter().any(|w| {
                state
                    .get(&(j.job, w.worker))
                    .is_some_and(|b| b.state == BreakerState::Open)
            })
        });
        if !any_open {
            drop(state);
            return self.inner.place(needed, view);
        }
        // Mask open workers: report zero capacity so the wrapped policy
        // (strict `free_mem > needed` by contract) routes around them.
        let mut masked = view.clone();
        for j in &mut masked.jobs {
            for w in &mut j.workers {
                if state
                    .get(&(j.job, w.worker))
                    .is_some_and(|b| b.state == BreakerState::Open)
                {
                    w.free_mem = MemBytes::ZERO;
                    w.free_memory = MemBytes::ZERO;
                }
            }
        }
        drop(state);
        self.inner.place(needed, &masked)
    }

    fn on_outcome(&self, now: SimTime, placement: Placement, ok: bool) {
        let Placement::Worker { job, worker } = placement else {
            return;
        };
        let mut state = self.state.lock().expect("breaker lock");
        let b = Self::entry(&mut state, job, worker);
        if ok {
            b.consecutive_failures = 0;
            b.state = BreakerState::Closed;
        } else {
            b.consecutive_failures = b.consecutive_failures.saturating_add(1);
            if b.state == BreakerState::HalfOpen || b.consecutive_failures >= self.threshold {
                b.state = BreakerState::Open;
                b.open_until = now.saturating_add(self.cooldown);
                b.consecutive_failures = 0;
            }
        }
    }

    fn blocks(&self, now: SimTime, job: usize, worker: usize) -> bool {
        let mut state = self.state.lock().expect("breaker lock");
        let b = Self::entry(&mut state, job, worker);
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if now >= b.open_until {
                    // Cooldown over: let one probe through.
                    b.state = BreakerState::HalfOpen;
                    false
                } else {
                    true
                }
            }
        }
    }

    fn breaker_state(&self, job: usize, worker: usize) -> Option<BreakerState> {
        let state = self.state.lock().expect("breaker lock");
        Some(
            state
                .get(&(job, worker))
                .map_or(BreakerState::Closed, |b| b.state),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FirstFit;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn fault_plan_builders_record_events_in_order() {
        let plan = FaultPlan::new()
            .oom_window(t(10), d(5))
            .crash_worker(t(20), 1, d(30));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].at, t(10));
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::WorkerCrash {
                worker: 1,
                down_for: d(30)
            }
        );
        plan.validate(4);
    }

    #[test]
    fn fault_plan_validate_rejects_bad_targets() {
        let plan = FaultPlan::new().crash_worker(t(0), 7, d(1));
        assert!(std::panic::catch_unwind(|| plan.validate(4)).is_err());
        let plan = FaultPlan::new().straggler(t(0), 0, 0.0, d(1));
        assert!(std::panic::catch_unwind(|| plan.validate(4)).is_err());
    }

    #[test]
    fn retry_backoff_doubles_and_saturates() {
        let p = RetryPolicy::new(5, d(100));
        assert_eq!(p.backoff(0), d(100));
        assert_eq!(p.backoff(3), d(800));
        assert_eq!(p.backoff(200), SimDuration::MAX, "saturates, never wraps");
        assert!(p.retryable(&SubmitError::WorkerDown { worker: 0 }));
        assert!(p.retryable(&SubmitError::CircuitOpen { worker: 0 }));
        assert!(!p.retryable(&SubmitError::ArrivedAfterShutdown {
            arrival: SimTime::ZERO
        }));
        assert!(!p.retryable(&SubmitError::UnknownJob { job: 5, jobs: 2 }));
    }

    #[test]
    fn submit_options_compose_fluently() {
        let opts = SubmitOptions::new()
            .affinity(2)
            .retry(RetryPolicy::default())
            .priority("batch");
        assert_eq!(opts.affinity, Some(2));
        assert_eq!(opts.retry.unwrap().max_attempts, 3);
        assert_eq!(opts.priority.as_deref(), Some("batch"));
    }

    #[test]
    fn breaker_trips_open_cools_down_and_probes() {
        let b = CircuitBreaker::new(FirstFit, 2, d(100));
        let p = Placement::Worker { job: 0, worker: 1 };
        assert_eq!(b.breaker_state(0, 1), Some(BreakerState::Closed));
        assert!(!b.blocks(t(0), 0, 1));

        b.on_outcome(t(10), p, false);
        assert_eq!(b.breaker_state(0, 1), Some(BreakerState::Closed));
        b.on_outcome(t(20), p, false);
        assert_eq!(b.breaker_state(0, 1), Some(BreakerState::Open));
        assert!(b.blocks(t(30), 0, 1), "open: shed load");

        // Cooldown (100ms from the trip at t=20) passes: half-open probe.
        assert!(!b.blocks(t(130), 0, 1));
        assert_eq!(b.breaker_state(0, 1), Some(BreakerState::HalfOpen));
        // Probe fails: straight back to open, no threshold needed.
        b.on_outcome(t(130), p, false);
        assert_eq!(b.breaker_state(0, 1), Some(BreakerState::Open));
        assert!(b.blocks(t(140), 0, 1));
        // Second probe succeeds: closed again, counters reset.
        assert!(!b.blocks(t(300), 0, 1));
        b.on_outcome(t(300), p, true);
        assert_eq!(b.breaker_state(0, 1), Some(BreakerState::Closed));
        assert!(!b.blocks(t(301), 0, 1));
    }

    #[test]
    fn breaker_only_counts_consecutive_failures() {
        let b = CircuitBreaker::new(FirstFit, 3, d(100));
        let p = Placement::Worker { job: 0, worker: 0 };
        b.on_outcome(t(0), p, false);
        b.on_outcome(t(1), p, false);
        b.on_outcome(t(2), p, true); // success resets the streak
        b.on_outcome(t(3), p, false);
        b.on_outcome(t(4), p, false);
        assert_eq!(b.breaker_state(0, 0), Some(BreakerState::Closed));
        b.on_outcome(t(5), p, false);
        assert_eq!(b.breaker_state(0, 0), Some(BreakerState::Open));
    }
}
