//! # freeride-sim — deterministic discrete-event simulation
//!
//! The foundation of the FreeRide reproduction: virtual time, a
//! deterministic event queue, a simulation driver, seeded random number
//! streams, and time-series trace capture.
//!
//! The paper's evaluation runs on real GPUs; this reproduction replaces the
//! hardware with a simulated world driven by this engine. Everything above
//! this crate — simulated GPUs, the pipeline-training engine, the FreeRide
//! middleware — is expressed as [`World`] event handlers, so an entire
//! multi-GPU, multi-process evaluation replays bit-for-bit from a seed.
//!
//! ## Example
//!
//! ```
//! use freeride_sim::{Simulation, World, Scheduler, SimTime, SimDuration};
//!
//! struct Ping { count: u32 }
//!
//! impl World for Ping {
//!     type Event = &'static str;
//!     fn handle(&mut self, _now: SimTime, ev: &'static str,
//!               s: &mut Scheduler<'_, &'static str>) {
//!         self.count += 1;
//!         if ev == "ping" && self.count < 4 {
//!             s.schedule_after(SimDuration::from_millis(10), "ping");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { count: 0 });
//! sim.seed("ping");
//! sim.run_to_quiescence();
//! assert_eq!(sim.world().count, 4);
//! assert_eq!(sim.now(), SimTime::from_millis(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event;
mod rng;
mod time;
mod trace;

pub use engine::{RunOutcome, Scheduler, Simulation, World, DEFAULT_EVENT_BUDGET};
pub use event::{EventId, EventQueue};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Sample, Series, TraceRecorder};
