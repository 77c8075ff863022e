//! Runtime representation of a side task inside a worker.

use crate::config::InterfaceKind;
use crate::state::{SideTaskState, StateMachine, Transition};
use freeride_gpu::{MemBytes, ProcessId};
use freeride_sim::SimTime;
use freeride_tasks::{SideTaskWorkload, WorkloadProfile, WorkloadTag};

/// Identifier of a submitted side task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl core::fmt::Display for TaskId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Failure-injection knobs for testing the GPU resource limits (§6.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Misbehavior {
    /// A well-behaved task.
    None,
    /// Ignores `PauseSideTask` and keeps running past bubble ends; must be
    /// `SIGKILL`ed by the framework-enforced mechanism (Fig. 8(a)).
    IgnorePause,
    /// Allocates extra GPU memory every step until the MPS cap kills it
    /// (Fig. 8(b)).
    LeakMemory {
        /// Extra allocation per step.
        per_step: MemBytes,
    },
    /// Crashes (process death) after this many steps; isolation must keep
    /// training unaffected (§8, fault tolerance).
    CrashAfter {
        /// Steps until the crash.
        steps: u64,
    },
}

/// Why a task reached `STOPPED`.
///
/// Marked `#[non_exhaustive]`: the stop vocabulary grows with every
/// resilience mechanism (most recently `WorkerLost` and `HedgeLost`), so
/// downstream matches must carry a `_` arm instead of breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// Still running / never stopped.
    NotStopped,
    /// Orderly shutdown at end of run.
    Finished,
    /// Framework-enforced `SIGKILL`: failed to pause within the grace
    /// period.
    KilledGrace,
    /// MPS memory cap exceeded.
    KilledOom,
    /// The task process crashed on its own.
    Crashed,
    /// The whole worker daemon went down (injected crash fault); the task
    /// died with it. Under checkpoint/restart the orchestrator re-admits
    /// the task when the worker recovers.
    WorkerLost,
    /// The task lost a straggler-hedging race: a speculative duplicate
    /// (or the original it duplicated) finished first, so the supervisor
    /// cancelled this incarnation. See
    /// [`SupervisorConfig::hedge`](crate::SupervisorConfig::hedge).
    HedgeLost,
}

impl StopReason {
    /// Stable lowercase label, used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::NotStopped => "not-stopped",
            StopReason::Finished => "finished",
            StopReason::KilledGrace => "killed-grace",
            StopReason::KilledOom => "killed-oom",
            StopReason::Crashed => "crashed",
            StopReason::WorkerLost => "worker-lost",
            StopReason::HedgeLost => "hedge-lost",
        }
    }
}

/// A side task as owned by its worker.
pub struct SideTask {
    /// Task id.
    pub id: TaskId,
    /// Which workload this is (built-in kind or custom name).
    pub kind: WorkloadTag,
    /// Profiled characteristics (memory, step durations, interference).
    pub profile: WorkloadProfile,
    /// The programming interface it was implemented with.
    pub interface: InterfaceKind,
    /// The real computation.
    pub workload: Box<dyn SideTaskWorkload>,
    /// Life-cycle state machine.
    pub sm: StateMachine,
    /// Submission timestamp (Algorithm 2 serves the queue in this order).
    pub submitted_at: SimTime,
    /// GPU process, once created.
    pub pid: Option<ProcessId>,
    /// Timestamp the interface last recorded a successful pause; checked
    /// by the framework-enforced mechanism.
    pub last_paused: Option<SimTime>,
    /// Steps completed during bubbles.
    pub steps: u64,
    /// The workload's most recent progress metric (loss, delta, RMSE…),
    /// surfaced into the run report. Current only after the owning worker
    /// settles its tasks ([`Worker::settle`]): a completed step is charged
    /// at once but computed then.
    ///
    /// [`Worker::settle`]: crate::Worker::settle
    pub last_value: Option<f64>,
    /// Failure injection.
    pub misbehavior: Misbehavior,
    /// Why the task stopped, if it did.
    pub stop_reason: StopReason,
    /// Accumulated sub-kernel time towards the next full step (imperative
    /// interface only).
    pub sub_progress: freeride_sim::SimDuration,
    /// Steps charged to `workload` but not yet computed.
    unsettled: u64,
}

impl SideTask {
    /// Wraps a workload into a fresh `SUBMITTED` task.
    pub fn new(
        id: TaskId,
        kind: impl Into<WorkloadTag>,
        profile: WorkloadProfile,
        interface: InterfaceKind,
        workload: Box<dyn SideTaskWorkload>,
        now: SimTime,
    ) -> Self {
        SideTask {
            id,
            kind: kind.into(),
            profile,
            interface,
            workload,
            sm: StateMachine::new(now),
            submitted_at: now,
            pid: None,
            last_paused: None,
            steps: 0,
            last_value: None,
            misbehavior: Misbehavior::None,
            stop_reason: StopReason::NotStopped,
            sub_progress: freeride_sim::SimDuration::ZERO,
            unsettled: 0,
        }
    }

    /// Installs a failure-injection behaviour (builder style).
    pub fn with_misbehavior(mut self, m: Misbehavior) -> Self {
        self.misbehavior = m;
        self
    }

    /// Current life-cycle state.
    pub fn state(&self) -> SideTaskState {
        self.sm.state()
    }

    /// Whether the task has terminated.
    pub fn is_stopped(&self) -> bool {
        self.state() == SideTaskState::Stopped
    }

    /// Applies a transition at `now`.
    ///
    /// # Panics
    ///
    /// Panics on illegal transitions — the middleware must never attempt
    /// them; doing so is a bug, not a runtime condition.
    pub fn transition(&mut self, now: SimTime, t: Transition) -> SideTaskState {
        self.sm
            .apply(now, t)
            .unwrap_or_else(|e| panic!("{}: {e}", self.id))
    }

    /// Counts `n` completed steps; their computation waits for
    /// [`SideTask::settle`].
    pub(crate) fn charge_steps(&mut self, n: u64) {
        self.steps += n;
        self.unsettled += n;
    }

    /// Computes the charged steps in one batch
    /// ([`SideTaskWorkload::run_steps`]) and records the last value.
    pub(crate) fn settle(&mut self) {
        let n = std::mem::take(&mut self.unsettled);
        self.last_value = self.workload.run_steps(n).or(self.last_value);
    }

    /// Records a successful pause for the framework-enforced check.
    pub fn record_paused(&mut self, now: SimTime) {
        self.last_paused = Some(now);
    }

    /// Whether the interface honoured a pause requested at
    /// `pause_requested`: the framework-enforced mechanism checks that
    /// `last_paused` advanced past the request (§4.5).
    pub fn paused_since(&self, pause_requested: SimTime) -> bool {
        self.last_paused.is_some_and(|t| t >= pause_requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeride_tasks::WorkloadKind;

    fn task() -> SideTask {
        let kind = WorkloadKind::ResNet18;
        SideTask::new(
            TaskId(1),
            kind,
            kind.profile(),
            InterfaceKind::Iterative,
            kind.build(1),
            SimTime::ZERO,
        )
    }

    #[test]
    fn new_task_is_submitted() {
        let t = task();
        assert_eq!(t.state(), SideTaskState::Submitted);
        assert!(!t.is_stopped());
        assert_eq!(t.stop_reason, StopReason::NotStopped);
        assert_eq!(t.misbehavior, Misbehavior::None);
    }

    #[test]
    fn transitions_flow() {
        let mut t = task();
        t.transition(SimTime::from_millis(1), Transition::CreateSideTask);
        t.transition(SimTime::from_millis(2), Transition::InitSideTask);
        t.transition(SimTime::from_millis(3), Transition::StartSideTask);
        assert_eq!(t.state(), SideTaskState::Running);
        t.transition(SimTime::from_millis(4), Transition::StopSideTask);
        assert!(t.is_stopped());
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn illegal_transition_panics() {
        let mut t = task();
        t.transition(SimTime::ZERO, Transition::StartSideTask);
    }

    #[test]
    fn pause_bookkeeping() {
        let mut t = task();
        assert!(!t.paused_since(SimTime::ZERO));
        t.record_paused(SimTime::from_millis(50));
        assert!(t.paused_since(SimTime::from_millis(40)));
        assert!(t.paused_since(SimTime::from_millis(50)));
        assert!(!t.paused_since(SimTime::from_millis(60)));
    }

    #[test]
    fn misbehavior_builder() {
        let t = task().with_misbehavior(Misbehavior::IgnorePause);
        assert_eq!(t.misbehavior, Misbehavior::IgnorePause);
    }
}
