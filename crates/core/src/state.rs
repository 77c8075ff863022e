//! The side-task state machine (paper Fig. 4).
//!
//! Five states capture the life cycle of a side task from process creation
//! to termination; six transitions carry the user-defined logic. FreeRide
//! initiates transitions at run time (via the side-task manager); the
//! machine itself only validates legality and keeps history, so every
//! illegal sequence is caught at the transition site.
//!
//! ```text
//! SUBMITTED --CreateSideTask()--> CREATED --InitSideTask()--> PAUSED
//!     PAUSED  --StartSideTask()--> RUNNING --PauseSideTask()--> PAUSED
//!     RUNNING --RunNextStep()----> RUNNING        (iterative interface)
//!     CREATED | PAUSED | RUNNING --StopSideTask()--> STOPPED
//! ```
//!
//! Hardware-resource usage per state (§4.1): `CREATED` holds host memory
//! only; `PAUSED` adds GPU memory; `RUNNING` adds GPU execution time;
//! `STOPPED` holds nothing.

use freeride_sim::SimTime;

/// The five life-cycle states of a side task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SideTaskState {
    /// Profiled and submitted to the manager; no process yet.
    Submitted,
    /// Process created, context in host memory only.
    Created,
    /// Context loaded into GPU memory; waiting for a bubble.
    Paused,
    /// Executing step-wise GPU work inside a bubble.
    Running,
    /// Terminated; all resources released.
    Stopped,
}

impl SideTaskState {
    /// Stable lowercase label, used in trace events (the uppercase
    /// [`Display`](core::fmt::Display) form follows Fig. 4's lettering).
    pub fn label(self) -> &'static str {
        match self {
            SideTaskState::Submitted => "submitted",
            SideTaskState::Created => "created",
            SideTaskState::Paused => "paused",
            SideTaskState::Running => "running",
            SideTaskState::Stopped => "stopped",
        }
    }
}

impl core::fmt::Display for SideTaskState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            SideTaskState::Submitted => "SUBMITTED",
            SideTaskState::Created => "CREATED",
            SideTaskState::Paused => "PAUSED",
            SideTaskState::Running => "RUNNING",
            SideTaskState::Stopped => "STOPPED",
        };
        write!(f, "{s}")
    }
}

/// The six state transitions of Fig. 4(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transition {
    /// Worker creates the side-task process (`SUBMITTED → CREATED`).
    CreateSideTask,
    /// Load context into GPU memory (`CREATED → PAUSED`).
    InitSideTask,
    /// A bubble began (`PAUSED → RUNNING`).
    StartSideTask,
    /// The bubble ended (`RUNNING → PAUSED`).
    PauseSideTask,
    /// Execute one step (`RUNNING → RUNNING`, iterative interface).
    RunNextStep,
    /// Terminate (`CREATED | PAUSED | RUNNING → STOPPED`).
    StopSideTask,
}

/// An attempted transition that is not permitted from the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// State the machine was in.
    pub from: SideTaskState,
    /// The refused transition.
    pub transition: Transition,
}

impl core::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "illegal transition {:?} from {}",
            self.transition, self.from
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// Computes the successor state for a transition, if legal.
pub fn next_state(
    from: SideTaskState,
    transition: Transition,
) -> Result<SideTaskState, IllegalTransition> {
    use SideTaskState::*;
    use Transition::*;
    let to = match (from, transition) {
        (Submitted, CreateSideTask) => Created,
        (Created, InitSideTask) => Paused,
        (Paused, StartSideTask) => Running,
        (Running, PauseSideTask) => Paused,
        (Running, RunNextStep) => Running,
        (Created | Paused | Running, StopSideTask) => Stopped,
        _ => return Err(IllegalTransition { from, transition }),
    };
    Ok(to)
}

/// A side task's state with timestamped history.
#[derive(Debug, Clone)]
pub struct StateMachine {
    state: SideTaskState,
    history: Vec<(SimTime, SideTaskState)>,
}

impl StateMachine {
    /// A fresh machine in `SUBMITTED`.
    pub fn new(now: SimTime) -> Self {
        StateMachine {
            state: SideTaskState::Submitted,
            history: vec![(now, SideTaskState::Submitted)],
        }
    }

    /// Current state.
    pub fn state(&self) -> SideTaskState {
        self.state
    }

    /// Applies a transition, recording the new state.
    pub fn apply(
        &mut self,
        now: SimTime,
        transition: Transition,
    ) -> Result<SideTaskState, IllegalTransition> {
        let to = next_state(self.state, transition)?;
        if to != self.state {
            self.history.push((now, to));
        }
        self.state = to;
        Ok(to)
    }

    /// Whether a transition is currently legal.
    pub fn can_apply(&self, transition: Transition) -> bool {
        next_state(self.state, transition).is_ok()
    }

    /// Timestamped state history (entry state changes only).
    pub fn history(&self) -> &[(SimTime, SideTaskState)] {
        &self.history
    }

    /// When the task most recently entered `state`, if ever.
    pub fn last_entered(&self, state: SideTaskState) -> Option<SimTime> {
        self.history
            .iter()
            .rev()
            .find(|(_, s)| *s == state)
            .map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SideTaskState::*;
    use Transition::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn happy_path_lifecycle() {
        let mut sm = StateMachine::new(t(0));
        assert_eq!(sm.state(), Submitted);
        assert_eq!(sm.apply(t(1), CreateSideTask).unwrap(), Created);
        assert_eq!(sm.apply(t(2), InitSideTask).unwrap(), Paused);
        assert_eq!(sm.apply(t(3), StartSideTask).unwrap(), Running);
        assert_eq!(sm.apply(t(4), RunNextStep).unwrap(), Running);
        assert_eq!(sm.apply(t(5), PauseSideTask).unwrap(), Paused);
        assert_eq!(sm.apply(t(6), StartSideTask).unwrap(), Running);
        assert_eq!(sm.apply(t(7), StopSideTask).unwrap(), Stopped);
    }

    #[test]
    fn stop_allowed_from_created_paused_running() {
        for (setup, from) in [
            (vec![CreateSideTask], Created),
            (vec![CreateSideTask, InitSideTask], Paused),
            (vec![CreateSideTask, InitSideTask, StartSideTask], Running),
        ] {
            let mut sm = StateMachine::new(t(0));
            for tr in setup {
                sm.apply(t(1), tr).unwrap();
            }
            assert_eq!(sm.state(), from);
            assert_eq!(sm.apply(t(2), StopSideTask).unwrap(), Stopped);
        }
    }

    #[test]
    fn stop_not_allowed_from_submitted_or_stopped() {
        let mut sm = StateMachine::new(t(0));
        assert!(sm.apply(t(1), StopSideTask).is_err());
        sm.apply(t(1), CreateSideTask).unwrap();
        sm.apply(t(2), StopSideTask).unwrap();
        let err = sm.apply(t(3), StopSideTask).unwrap_err();
        assert_eq!(err.from, Stopped);
        assert_eq!(err.transition, StopSideTask);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let cases = [
            (Submitted, InitSideTask),
            (Submitted, StartSideTask),
            (Created, StartSideTask),
            (Created, CreateSideTask),
            (Paused, PauseSideTask),
            (Paused, InitSideTask),
            (Paused, RunNextStep),
            (Running, StartSideTask),
            (Running, InitSideTask),
            (Stopped, CreateSideTask),
        ];
        for (from, tr) in cases {
            assert!(next_state(from, tr).is_err(), "{from} --{tr:?}--> ?");
        }
    }

    #[test]
    fn run_next_step_only_while_running() {
        assert_eq!(next_state(Running, RunNextStep).unwrap(), Running);
        for from in [Submitted, Created, Paused, Stopped] {
            assert!(next_state(from, RunNextStep).is_err());
        }
    }

    #[test]
    fn history_records_entries() {
        let mut sm = StateMachine::new(t(0));
        sm.apply(t(10), CreateSideTask).unwrap();
        sm.apply(t(20), InitSideTask).unwrap();
        sm.apply(t(30), StartSideTask).unwrap();
        sm.apply(t(35), RunNextStep).unwrap(); // self-loop: not recorded
        sm.apply(t(40), PauseSideTask).unwrap();
        sm.apply(t(50), StartSideTask).unwrap();
        assert_eq!(sm.history().len(), 6);
        assert_eq!(sm.last_entered(Running), Some(t(50)));
        assert_eq!(sm.last_entered(Paused), Some(t(40)));
        assert_eq!(sm.last_entered(Stopped), None);
    }

    #[test]
    fn can_apply_matches_apply() {
        let sm = StateMachine::new(t(0));
        assert!(sm.can_apply(CreateSideTask));
        assert!(!sm.can_apply(StartSideTask));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Submitted.to_string(), "SUBMITTED");
        assert_eq!(Running.to_string(), "RUNNING");
    }
}
