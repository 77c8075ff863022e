//! Typed sim-time trace events, the sink trait, and the default
//! in-memory tracer.

use crate::{escape_json, micros};
use freeride_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One observation at an exact simulated instant.
///
/// Events speak primitives — job index, worker index, task id, stable
/// string labels — so the tracer stays decoupled from the middleware
/// crates that emit into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The simulated instant the event happened.
    pub at: SimTime,
    /// The job the event belongs to; `None` for cluster-level events of
    /// the admission plane (middleware decisions, rejected placements)
    /// that precede any job assignment.
    pub job: Option<usize>,
    /// The worker lane, when the event is tied to one GPU/worker;
    /// `None` for job-level events (placements, middleware decisions,
    /// fault windows spanning the fleet).
    pub worker: Option<usize>,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The typed vocabulary of things the instrumented middleware reports.
///
/// Non-exhaustive: later PRs add kinds without breaking sink
/// implementations (match with a `_` arm).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEventKind {
    /// A pipeline bubble opened on a worker (training op gap begins).
    BubbleBegin,
    /// The bubble closed (the next training op launches).
    BubbleEnd,
    /// A training epoch finished.
    EpochEnd {
        /// Zero-based epoch index.
        epoch: usize,
    },
    /// The job's training loop completed.
    TrainingDone,
    /// A side-task submission was accepted and placed.
    TaskAdmitted {
        /// The task's cluster-wide id.
        task: u64,
        /// The workload's display name.
        name: String,
    },
    /// A submission hit the placement gate.
    Placement {
        /// The task id on acceptance; `None` when rejected before an
        /// id was assigned.
        task: Option<u64>,
        /// Whether the placement succeeded.
        accepted: bool,
        /// The placement policy consulted, or the rejection kind.
        detail: String,
    },
    /// A middleware layer let a submission through or shed it.
    Middleware {
        /// The layer's stable name.
        layer: &'static str,
        /// `"accept"` or the rejection's stable kind label.
        decision: String,
    },
    /// The manager issued a command toward a worker.
    Command {
        /// The task the command addresses.
        task: u64,
        /// The command's stable label (`create`, `init`, `start`,
        /// `pause`, `stop`).
        cmd: &'static str,
    },
    /// A side task changed state (manager's view, from worker acks).
    TaskState {
        /// The task's cluster-wide id.
        task: u64,
        /// The new state's stable label.
        state: &'static str,
    },
    /// A side-task step launched on the GPU.
    StepBegin {
        /// The stepping task.
        task: u64,
    },
    /// The in-flight step retired.
    StepEnd {
        /// The stepping task.
        task: u64,
        /// Total steps completed by the task so far.
        steps: u64,
    },
    /// A side task left its worker for good.
    TaskStopped {
        /// The stopped task.
        task: u64,
        /// The stop reason's stable label.
        reason: &'static str,
    },
    /// A fault window opened (chaos layer).
    FaultBegin {
        /// The fault kind's stable label.
        fault: &'static str,
    },
    /// A fault window closed.
    FaultEnd {
        /// The fault kind's stable label.
        fault: &'static str,
    },
    /// Side-task progress was checkpointed.
    Checkpoint {
        /// How many tasks took a snapshot.
        tasks: u64,
    },
    /// The failure detector moved a worker between health states.
    Health {
        /// The state left behind.
        from: &'static str,
        /// The state entered.
        to: &'static str,
    },
    /// A resilience mechanism brought a task back.
    Recovery {
        /// The recovered task.
        task: u64,
        /// The recovery kind's stable label.
        kind: &'static str,
    },
}

impl TraceEventKind {
    /// The kind's stable label: the `name` in exported traces and the
    /// key in [`TraceSummary::by_kind`].
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::BubbleBegin => "bubble-begin",
            TraceEventKind::BubbleEnd => "bubble-end",
            TraceEventKind::EpochEnd { .. } => "epoch-end",
            TraceEventKind::TrainingDone => "training-done",
            TraceEventKind::TaskAdmitted { .. } => "task-admitted",
            TraceEventKind::Placement { .. } => "placement",
            TraceEventKind::Middleware { .. } => "middleware",
            TraceEventKind::Command { .. } => "command",
            TraceEventKind::TaskState { .. } => "task-state",
            TraceEventKind::StepBegin { .. } => "step-begin",
            TraceEventKind::StepEnd { .. } => "step-end",
            TraceEventKind::TaskStopped { .. } => "task-stopped",
            TraceEventKind::FaultBegin { .. } => "fault-begin",
            TraceEventKind::FaultEnd { .. } => "fault-end",
            TraceEventKind::Checkpoint { .. } => "checkpoint",
            TraceEventKind::Health { .. } => "health",
            TraceEventKind::Recovery { .. } => "recovery",
        }
    }

    /// The exporter category the kind is grouped (and colored) under.
    pub fn category(&self) -> &'static str {
        match self {
            TraceEventKind::BubbleBegin | TraceEventKind::BubbleEnd => "bubble",
            TraceEventKind::EpochEnd { .. } | TraceEventKind::TrainingDone => "training",
            TraceEventKind::TaskAdmitted { .. }
            | TraceEventKind::Placement { .. }
            | TraceEventKind::Middleware { .. } => "admission",
            TraceEventKind::Command { .. }
            | TraceEventKind::TaskState { .. }
            | TraceEventKind::TaskStopped { .. } => "lifecycle",
            TraceEventKind::StepBegin { .. } | TraceEventKind::StepEnd { .. } => "step",
            TraceEventKind::FaultBegin { .. }
            | TraceEventKind::FaultEnd { .. }
            | TraceEventKind::Checkpoint { .. } => "fault",
            TraceEventKind::Health { .. } | TraceEventKind::Recovery { .. } => "health",
        }
    }
}

/// Where instrumented middleware delivers its [`TraceEvent`]s.
///
/// `Send` is a supertrait so a shared `Arc<Mutex<dyn TraceSink>>` can
/// ride into sweep closures that fan across OS threads (each cluster
/// still records single-threaded, so insertion order is deterministic).
pub trait TraceSink: Send {
    /// Accepts one event.
    ///
    /// Calls come in a deterministic order, the same for any thread
    /// count, but not in time order. A worker computes the steps of a
    /// side task running alone in its bubble when something touches the
    /// worker, so their `StepBegin`/`StepEnd` events arrive then, after
    /// events with a later `at` from other lanes and the job. Every
    /// event carries its exact `at`, and the events a worker emits
    /// itself (steps and stops) arrive in time order.
    fn record(&mut self, event: TraceEvent);
}

/// The default sink: an in-memory, insertion-ordered event log with
/// exporters.
///
/// ```
/// use freeride_obs::{SimTracer, TraceEvent, TraceEventKind, TraceSink};
/// use freeride_sim::SimTime;
///
/// // Shared form: keep one handle, give the other to a cluster builder.
/// let tracer = SimTracer::shared();
/// tracer.lock().unwrap().record(TraceEvent {
///     at: SimTime::from_nanos(42),
///     job: Some(0),
///     worker: None,
///     kind: TraceEventKind::TrainingDone,
/// });
/// let jsonl = tracer.lock().unwrap().to_jsonl();
/// assert!(jsonl.contains("\"name\":\"training-done\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimTracer {
    events: Vec<TraceEvent>,
}

impl SimTracer {
    /// An empty tracer.
    pub fn new() -> Self {
        SimTracer::default()
    }

    /// An empty tracer behind the shared handle the cluster builder
    /// accepts. Keep a clone to read events back after the run.
    pub fn shared() -> Arc<Mutex<SimTracer>> {
        Arc::new(Mutex::new(SimTracer::new()))
    }

    /// The recorded events, in emission order: deterministic, but not
    /// time order (see [`TraceSink::record`]).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Event counts keyed by kind label.
    pub fn summary(&self) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for event in &self.events {
            summary.count(event.kind.label());
        }
        summary
    }

    /// Exports the log as Chrome-trace/Perfetto JSON — load it at
    /// `chrome://tracing` or <https://ui.perfetto.dev>. One process per
    /// job, one lane (`tid`) per worker (lane 0 holds job-level
    /// events); bubbles are sync `B`/`E` spans, side-task steps are
    /// async `b`/`e` spans keyed by task id (imperative kernels may
    /// drain past the bubble that launched them), everything else is an
    /// instant. Byte-identical for any `--threads`.
    pub fn to_chrome_trace(&self) -> String {
        export_chrome(&self.events)
    }

    /// Exports the log as flat JSONL: one hand-formatted JSON object
    /// per event, in emission order, which is not time order (see
    /// [`TraceSink::record`]). Byte-identical for any `--threads`.
    pub fn to_jsonl(&self) -> String {
        export_jsonl(&self.events)
    }
}

impl TraceSink for SimTracer {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Event counts by kind label, plus the total — the cheap always-on
/// digest of a traced run (`ClusterReport::trace_summary` in core).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events emitted.
    pub events: u64,
    /// Emission counts keyed by [`TraceEventKind::label`].
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl TraceSummary {
    fn count(&mut self, label: &'static str) {
        self.events += 1;
        *self.by_kind.entry(label).or_default() += 1;
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &TraceSummary) {
        self.events += other.events;
        for (label, n) in &other.by_kind {
            *self.by_kind.entry(label).or_default() += n;
        }
    }
}

/// The cloneable emission handle instrumentation sites hold: a shared
/// sink plus always-on per-kind counters (the counters survive into the
/// report even when the sink is user-provided).
///
/// Uses `std::sync::Mutex` deliberately: the simulation is
/// single-threaded per cluster, so the lock is uncontended; poisoning
/// is swallowed because a panicking sim already aborted the run.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Arc<Mutex<dyn TraceSink>>,
    counts: Arc<Mutex<TraceSummary>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("summary", &self.summary())
            .finish()
    }
}

impl TraceHandle {
    /// Wraps a shared sink into an emission handle.
    pub fn new(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        TraceHandle {
            sink,
            counts: Arc::new(Mutex::new(TraceSummary::default())),
        }
    }

    /// Delivers one event to the sink and bumps the summary counters.
    pub fn emit(&self, event: TraceEvent) {
        {
            let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
            counts.count(event.kind.label());
        }
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.record(event);
    }

    /// The per-kind emission counts so far.
    pub fn summary(&self) -> TraceSummary {
        self.counts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

// ---------------------------------------------------------------------
// Exporters (live here to keep `TraceEvent` internals private to the
// crate; formatting primitives are in `export`).
// ---------------------------------------------------------------------

/// Renders the per-event argument payload as JSON object members
/// (shared by both exporters; deterministic field order).
fn args_json(kind: &TraceEventKind) -> String {
    match kind {
        TraceEventKind::BubbleBegin | TraceEventKind::BubbleEnd | TraceEventKind::TrainingDone => {
            String::new()
        }
        TraceEventKind::EpochEnd { epoch } => format!("\"epoch\":{epoch}"),
        TraceEventKind::TaskAdmitted { task, name } => {
            format!("\"task\":{task},\"workload\":\"{}\"", escape_json(name))
        }
        TraceEventKind::Placement {
            task,
            accepted,
            detail,
        } => {
            let task = task.map_or_else(|| "null".to_owned(), |t| t.to_string());
            format!(
                "\"task\":{task},\"accepted\":{accepted},\"detail\":\"{}\"",
                escape_json(detail)
            )
        }
        TraceEventKind::Middleware { layer, decision } => {
            format!(
                "\"layer\":\"{}\",\"decision\":\"{}\"",
                escape_json(layer),
                escape_json(decision)
            )
        }
        TraceEventKind::Command { task, cmd } => format!("\"task\":{task},\"cmd\":\"{cmd}\""),
        TraceEventKind::TaskState { task, state } => {
            format!("\"task\":{task},\"state\":\"{state}\"")
        }
        TraceEventKind::StepBegin { task } => format!("\"task\":{task}"),
        TraceEventKind::StepEnd { task, steps } => format!("\"task\":{task},\"steps\":{steps}"),
        TraceEventKind::TaskStopped { task, reason } => {
            format!("\"task\":{task},\"reason\":\"{reason}\"")
        }
        TraceEventKind::FaultBegin { fault } | TraceEventKind::FaultEnd { fault } => {
            format!("\"fault\":\"{fault}\"")
        }
        TraceEventKind::Checkpoint { tasks } => format!("\"tasks\":{tasks}"),
        TraceEventKind::Health { from, to } => format!("\"from\":\"{from}\",\"to\":\"{to}\""),
        TraceEventKind::Recovery { task, kind } => format!("\"task\":{task},\"kind\":\"{kind}\""),
    }
}

/// The worker lane an event renders on: workers own lanes `1..`, lane 0
/// holds job-level events.
fn lane(event: &TraceEvent) -> usize {
    event.worker.map_or(0, |w| w + 1)
}

fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for event in events {
        out.push_str(&format!(
            "{{\"at_ns\":{},\"job\":{},\"worker\":{},\"name\":\"{}\",\"cat\":\"{}\"",
            event.at.as_nanos(),
            event
                .job
                .map_or_else(|| "null".to_owned(), |j| j.to_string()),
            event
                .worker
                .map_or_else(|| "null".to_owned(), |w| w.to_string()),
            event.kind.label(),
            event.kind.category(),
        ));
        let args = args_json(&event.kind);
        if !args.is_empty() {
            out.push(',');
            out.push_str(&args);
        }
        out.push_str("}\n");
    }
    out
}

fn export_chrome(events: &[TraceEvent]) -> String {
    // Submission-time events are recorded before the clock starts, and a
    // worker's deferred steps when it is caught up, so the log is not
    // globally time-ordered; Chrome's sync-span nesting needs it to be. Stable sort keeps emission order among equals,
    // so the output stays deterministic.
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.at.as_nanos());

    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for event in ordered {
        let (ph, extra): (&str, String) = match &event.kind {
            // Bubbles never overlap on one worker: proper sync spans.
            TraceEventKind::BubbleBegin => ("B", String::new()),
            TraceEventKind::BubbleEnd => ("E", String::new()),
            // Steps of different tasks can interleave on a lane, and
            // imperative kernels drain past the bubble that launched
            // them: async spans keyed by task id dodge the nesting
            // requirement.
            TraceEventKind::StepBegin { task } | TraceEventKind::StepEnd { task, .. } => (
                if matches!(event.kind, TraceEventKind::StepBegin { .. }) {
                    "b"
                } else {
                    "e"
                },
                format!(",\"id\":{task}"),
            ),
            _ => ("i", ",\"s\":\"t\"".to_owned()),
        };
        if !first {
            out.push(',');
        }
        first = false;
        let name = match ph {
            "B" | "E" => "bubble",
            "b" | "e" => "step",
            _ => event.kind.label(),
        };
        out.push_str(&format!(
            "\n{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{},\"tid\":{}{extra}",
            event.kind.category(),
            micros(event.at.as_nanos()),
            // pid 0 is the cluster's admission plane; jobs get pid 1..
            event.job.map_or(0, |j| j + 1),
            lane(event),
        ));
        // End phases must not carry args (Chrome merges them with the
        // begin event); everything else gets the typed payload.
        let args = args_json(&event.kind);
        if !args.is_empty() && ph != "E" && ph != "e" {
            out.push_str(&format!(",\"args\":{{{args}}}"));
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, worker: Option<usize>, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at),
            job: Some(0),
            worker,
            kind,
        }
    }

    #[test]
    fn summary_counts_by_label() {
        let mut tracer = SimTracer::new();
        tracer.record(ev(1, Some(0), TraceEventKind::BubbleBegin));
        tracer.record(ev(2, Some(0), TraceEventKind::BubbleEnd));
        tracer.record(ev(3, Some(0), TraceEventKind::BubbleBegin));
        let summary = tracer.summary();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.by_kind["bubble-begin"], 2);
        assert_eq!(summary.by_kind["bubble-end"], 1);
    }

    #[test]
    fn chrome_trace_sorts_by_time_stably() {
        let mut tracer = SimTracer::new();
        // Submission-time placement recorded first but timestamped late.
        tracer.record(ev(
            5_000,
            None,
            TraceEventKind::Placement {
                task: Some(1),
                accepted: true,
                detail: "first-fit".into(),
            },
        ));
        tracer.record(ev(1_000, Some(0), TraceEventKind::BubbleBegin));
        let chrome = tracer.to_chrome_trace();
        let bubble = chrome.find("\"ph\":\"B\"").expect("bubble span");
        let placement = chrome.find("placement").expect("placement instant");
        assert!(bubble < placement, "sorted by sim time");
        assert!(chrome.contains("\"ts\":1.000"));
        assert!(chrome.contains("\"ts\":5.000"));
    }

    #[test]
    fn jsonl_keeps_emission_order() {
        let mut tracer = SimTracer::new();
        tracer.record(ev(5_000, None, TraceEventKind::TrainingDone));
        tracer.record(ev(1_000, Some(1), TraceEventKind::BubbleBegin));
        let jsonl = tracer.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("training-done"));
        assert!(lines[1].contains("bubble-begin"));
        assert!(lines[1].contains("\"worker\":1"));
        assert!(lines[0].contains("\"worker\":null"));
    }

    #[test]
    fn handle_counts_even_for_custom_sinks() {
        struct Null;
        impl TraceSink for Null {
            fn record(&mut self, _: TraceEvent) {}
        }
        let handle = TraceHandle::new(Arc::new(Mutex::new(Null)));
        handle.emit(ev(1, None, TraceEventKind::TrainingDone));
        handle.emit(ev(2, None, TraceEventKind::TrainingDone));
        let summary = handle.summary();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.by_kind["training-done"], 2);
    }

    #[test]
    fn step_spans_are_async_with_task_id() {
        let mut tracer = SimTracer::new();
        tracer.record(ev(10, Some(0), TraceEventKind::StepBegin { task: 7 }));
        tracer.record(ev(
            20,
            Some(0),
            TraceEventKind::StepEnd { task: 7, steps: 3 },
        ));
        let chrome = tracer.to_chrome_trace();
        assert!(chrome.contains("\"ph\":\"b\""));
        assert!(chrome.contains("\"ph\":\"e\""));
        assert!(chrome.contains("\"id\":7"));
    }
}
