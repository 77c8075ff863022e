//! # freeride-obs — deterministic observability for the FreeRide simulator
//!
//! Reports summarize *outcomes*; this crate sees *timelines*. It is the
//! layer every performance PR reads from, and it is deliberately
//! decoupled from the middleware crates: everything here speaks
//! primitives (job indices, worker indices, task ids, stable string
//! labels), so `freeride-core` depends on it and not the other way
//! around.
//!
//! Four pieces:
//!
//! * **Sim-time tracing** — a [`TraceSink`] trait and the default
//!   in-memory [`SimTracer`] recording typed [`TraceEvent`]s at exact
//!   simulated times: span begin/end for training bubbles and side-task
//!   steps, task lifecycles, placements, middleware decisions, fault
//!   injections, health transitions. Zero-cost when no sink is
//!   registered (the default): every emission site in core is an
//!   `if let Some(..)` over an absent handle.
//! * **Latency histograms** — the nearest-rank [`LatencyHistogram`]
//!   behind the service front-end's p50/p99/p999 latency-to-placement.
//!   Time series (Figs. 1 and 8) have one home,
//!   [`freeride_sim::TraceRecorder`].
//! * **Exporters** — Chrome-trace/Perfetto JSON
//!   ([`SimTracer::to_chrome_trace`]: one lane per worker, spans
//!   categorized by event kind) and a flat JSONL event log
//!   ([`SimTracer::to_jsonl`]), both byte-identical for any `--threads`.
//! * **Per-subsystem profiling** — [`ProfileCollector`] /
//!   [`ProfileReport`] attribute `events_processed` and sim-event
//!   wall-time to orchestrator / manager / rpc / service / fault /
//!   health buckets, rendered by [`ProfileReport::table`].
//!
//! ## Quickstart
//!
//! ```
//! use freeride_obs::{SimTracer, TraceEvent, TraceEventKind, TraceSink};
//! use freeride_sim::SimTime;
//!
//! let mut tracer = SimTracer::new();
//! tracer.record(TraceEvent {
//!     at: SimTime::from_nanos(1_500),
//!     job: Some(0),
//!     worker: Some(2),
//!     kind: TraceEventKind::BubbleBegin,
//! });
//! tracer.record(TraceEvent {
//!     at: SimTime::from_nanos(2_500),
//!     job: Some(0),
//!     worker: Some(2),
//!     kind: TraceEventKind::BubbleEnd,
//! });
//! assert_eq!(tracer.len(), 2);
//! let chrome = tracer.to_chrome_trace();
//! assert!(chrome.contains("\"ph\":\"B\"") && chrome.contains("\"ph\":\"E\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod profile;
mod trace;

pub use metrics::LatencyHistogram;
pub use profile::{ProfileCollector, ProfileReport, ProfileRow, Subsystem};
pub use trace::{SimTracer, TraceEvent, TraceEventKind, TraceHandle, TraceSink, TraceSummary};

pub(crate) use export::{escape_json, micros};
