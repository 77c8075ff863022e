//! The simulation driver.
//!
//! A simulation is a [`World`] (all mutable state) plus an [`EventQueue`]
//! of pending events. The driver pops the earliest event, advances the
//! clock, and hands the event to the world together with a [`Scheduler`]
//! through which the world can schedule (or cancel) further events.
//!
//! The world never sees the queue directly, which guarantees that time only
//! moves forward and that event ordering stays deterministic.

use crate::event::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// The mutable state of a simulation and its event handler.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at virtual time `now`, scheduling follow-up events
    /// through `scheduler`.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        scheduler: &mut Scheduler<'_, Self::Event>,
    );
}

/// Write-handle onto the event queue passed to [`World::handle`].
///
/// All scheduling is relative to or later than the current instant; the
/// scheduler refuses to schedule into the past.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire after `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: a discrete-event
    /// simulation must never travel backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` to fire immediately (at the current instant, after
    /// all events already queued for this instant).
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.queue.push(self.now, event)
    }

    /// Cancels a previously scheduled event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// Outcome of [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained before the deadline; the clock rests at the last
    /// delivered event.
    Quiescent,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The configured event budget was exhausted (runaway protection).
    BudgetExhausted,
}

/// A discrete-event simulation: a world, a clock, and an event queue.
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    events_processed: u64,
    /// Hard cap on events per `run_*` call; guards against scheduling loops.
    event_budget: u64,
}

/// Default per-run event budget; large enough for the full evaluation
/// harness, small enough to catch accidental infinite scheduling loops.
pub const DEFAULT_EVENT_BUDGET: u64 = 500_000_000;

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero around `world`.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events_processed: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
        }
    }

    /// Replaces the runaway-protection event budget.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (for seeding state between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an initial event from outside the world.
    pub fn seed_at(&mut self, at: SimTime, event: W::Event) -> EventId {
        assert!(at >= self.now, "cannot seed into the past");
        self.queue.push(at, event)
    }

    /// Schedules an initial event at the current instant.
    pub fn seed(&mut self, event: W::Event) -> EventId {
        self.queue.push(self.now, event)
    }

    /// Delivers the single earliest event, if any. Returns whether an event
    /// was delivered.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((time, event)) => {
                self.deliver(time, event);
                true
            }
            None => false,
        }
    }

    /// Advances the clock to `time` and hands `event` to the world.
    fn deliver(&mut self, time: SimTime, event: W::Event) {
        debug_assert!(time >= self.now, "event queue yielded a past event");
        self.now = time;
        self.events_processed += 1;
        let mut scheduler = Scheduler {
            now: time,
            queue: &mut self.queue,
        };
        self.world.handle(time, event, &mut scheduler);
    }

    /// Runs until the queue drains, `deadline` is passed, or the event
    /// budget is exhausted.
    ///
    /// Events scheduled exactly at `deadline` are delivered; the first event
    /// strictly after it is left in the queue and the clock is advanced to
    /// `deadline`. Each delivered event looks up the queue's head once, in
    /// a pop bounded by `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let mut budget = self.event_budget;
        loop {
            if budget == 0 {
                return match self.queue.peek_time() {
                    Some(t) if t <= deadline => RunOutcome::BudgetExhausted,
                    _ => self.stop_at(deadline),
                };
            }
            let Some((time, event)) = self.queue.pop_due(deadline) else {
                return self.stop_at(deadline);
            };
            budget -= 1;
            self.deliver(time, event);
        }
    }

    /// The outcome of a run with nothing due by `deadline`: quiescent if
    /// the queue drained, else the clock moves up to `deadline`.
    fn stop_at(&mut self, deadline: SimTime) -> RunOutcome {
        if self.queue.is_empty() {
            return RunOutcome::Quiescent;
        }
        self.now = deadline.max(self.now);
        RunOutcome::DeadlineReached
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        let deadline = self.now.saturating_add(span);
        self.run_until(deadline)
    }

    /// Runs until the queue is empty (or the budget trips).
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: each `Tick(n)` schedules `Tick(n-1)` one
    /// millisecond later.
    struct Countdown {
        fired: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl World for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, s: &mut Scheduler<'_, Ev>) {
            let Ev::Tick(n) = event;
            self.fired.push((now, n));
            if n > 0 {
                s.schedule_after(SimDuration::from_millis(1), Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn countdown_runs_to_quiescence() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.seed(Ev::Tick(5));
        assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(sim.world().fired.len(), 6);
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.seed(Ev::Tick(100));
        let outcome = sim.run_until(SimTime::from_millis(10));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        // Ticks at t=0..=10 ms inclusive have fired.
        assert_eq!(sim.world().fired.len(), 11);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.pending_events(), 1);
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.seed(Ev::Tick(100));
        sim.run_for(SimDuration::from_millis(3));
        assert_eq!(sim.now(), SimTime::from_millis(3));
        sim.run_for(SimDuration::from_millis(4));
        assert_eq!(sim.now(), SimTime::from_millis(7));
        assert_eq!(sim.world().fired.len(), 8);
    }

    #[test]
    fn budget_catches_runaway_loops() {
        /// Schedules itself at the same instant forever.
        struct Runaway;
        impl World for Runaway {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), s: &mut Scheduler<'_, ()>) {
                s.schedule_now(());
            }
        }
        let mut sim = Simulation::new(Runaway).with_event_budget(1_000);
        sim.seed(());
        assert_eq!(sim.run_to_quiescence(), RunOutcome::BudgetExhausted);
    }

    /// With the budget spent, the outcome still follows the head: an
    /// empty queue is quiescent and a head after the deadline moves the
    /// clock up to the deadline; only a due event reports exhaustion, and
    /// it stays queued.
    #[test]
    fn a_spent_budget_reports_by_the_head() {
        let mut sim = Simulation::new(Countdown { fired: vec![] }).with_event_budget(0);
        assert_eq!(
            sim.run_until(SimTime::from_millis(4)),
            RunOutcome::Quiescent
        );
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.seed_at(SimTime::from_millis(10), Ev::Tick(0));
        assert_eq!(
            sim.run_until(SimTime::from_millis(4)),
            RunOutcome::DeadlineReached
        );
        assert_eq!(sim.now(), SimTime::from_millis(4));
        assert_eq!(
            sim.run_until(SimTime::from_millis(10)),
            RunOutcome::BudgetExhausted
        );
        assert_eq!(sim.now(), SimTime::from_millis(4));
        assert_eq!(sim.pending_events(), 1);
        assert!(sim.world().fired.is_empty());
    }

    /// A deadline before the clock leaves the clock where it is.
    #[test]
    fn a_deadline_in_the_past_keeps_the_clock() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.seed(Ev::Tick(100));
        sim.run_until(SimTime::from_millis(7));
        assert_eq!(
            sim.run_until(SimTime::from_millis(3)),
            RunOutcome::DeadlineReached
        );
        assert_eq!(sim.now(), SimTime::from_millis(7));
        assert_eq!(sim.world().fired.len(), 8);
    }

    #[test]
    fn same_instant_events_fire_in_seed_order() {
        struct Recorder(Vec<u32>);
        impl World for Recorder {
            type Event = u32;
            fn handle(&mut self, _: SimTime, e: u32, _: &mut Scheduler<'_, u32>) {
                self.0.push(e);
            }
        }
        let mut sim = Simulation::new(Recorder(vec![]));
        for i in 0..10 {
            sim.seed(i);
        }
        sim.run_to_quiescence();
        assert_eq!(sim.world().0, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn step_returns_false_when_empty() {
        struct Nop;
        impl World for Nop {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut Scheduler<'_, ()>) {}
        }
        let mut sim = Simulation::new(Nop);
        assert!(!sim.step());
        sim.seed(());
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), s: &mut Scheduler<'_, ()>) {
                if now > SimTime::ZERO {
                    s.schedule_at(SimTime::ZERO, ());
                }
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.seed_at(SimTime::from_millis(5), ());
        sim.run_to_quiescence();
    }

    #[test]
    fn cancellation_from_within_world() {
        struct Canceller {
            victim: Option<EventId>,
            fired: Vec<&'static str>,
        }
        enum E {
            Arm,
            Victim,
            Cancel,
        }
        impl World for Canceller {
            type Event = E;
            fn handle(&mut self, _: SimTime, e: E, s: &mut Scheduler<'_, E>) {
                match e {
                    E::Arm => {
                        self.victim =
                            Some(s.schedule_after(SimDuration::from_millis(10), E::Victim));
                        s.schedule_after(SimDuration::from_millis(5), E::Cancel);
                    }
                    E::Victim => self.fired.push("victim"),
                    E::Cancel => {
                        let v = self.victim.take().expect("armed");
                        assert!(s.cancel(v));
                        self.fired.push("cancel");
                    }
                }
            }
        }
        let mut sim = Simulation::new(Canceller {
            victim: None,
            fired: vec![],
        });
        sim.seed(E::Arm);
        sim.run_to_quiescence();
        assert_eq!(sim.world().fired, vec!["cancel"]);
    }
}
