//! Per-subsystem attribution of simulation work: event counts (exact,
//! deterministic) and dispatch wall-time (measured, for the attribution
//! table only — never in determinism-tested output).

use std::time::Duration;

/// The subsystems simulation events are attributed to. Every event kind
/// of the orchestrator's dispatch loop maps to exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// Training-loop mechanics: op launches, epoch boundaries, device
    /// ticks, worker step/init/grace timers.
    Orchestrator,
    /// Side-task manager polls (Algorithm 2) at each reported bubble's
    /// predicted end; polls on a bubble report or an ack count as `Rpc`.
    Manager,
    /// RPC message deliveries.
    Rpc,
    /// Admission-plane arrivals.
    Service,
    /// Chaos-layer fault windows and checkpoints.
    Fault,
    /// Heartbeats, failure detection, hedging.
    Health,
}

impl Subsystem {
    /// Every bucket, in display order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::Orchestrator,
        Subsystem::Manager,
        Subsystem::Rpc,
        Subsystem::Service,
        Subsystem::Fault,
        Subsystem::Health,
    ];

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Orchestrator => "orchestrator",
            Subsystem::Manager => "manager",
            Subsystem::Rpc => "rpc",
            Subsystem::Service => "service",
            Subsystem::Fault => "fault",
            Subsystem::Health => "health",
        }
    }

    fn index(self) -> usize {
        match self {
            Subsystem::Orchestrator => 0,
            Subsystem::Manager => 1,
            Subsystem::Rpc => 2,
            Subsystem::Service => 3,
            Subsystem::Fault => 4,
            Subsystem::Health => 5,
        }
    }
}

/// The accumulator the dispatch loop feeds: a fixed array, no
/// allocation on the hot path.
#[derive(Debug, Clone, Default)]
pub struct ProfileCollector {
    cells: [(u64, Duration); 6],
}

impl ProfileCollector {
    /// An empty collector.
    pub fn new() -> Self {
        ProfileCollector::default()
    }

    /// Attributes one dispatched event and its wall-time to a bucket.
    pub fn record(&mut self, subsystem: Subsystem, wall: Duration) {
        let cell = &mut self.cells[subsystem.index()];
        cell.0 += 1;
        cell.1 += wall;
    }

    /// Freezes the counts into a report.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            rows: Subsystem::ALL
                .iter()
                .map(|&s| {
                    let (events, wall) = self.cells[s.index()];
                    ProfileRow {
                        subsystem: s.label(),
                        events,
                        wall,
                    }
                })
                .collect(),
        }
    }
}

/// One subsystem's share of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRow {
    /// The bucket's [`Subsystem::label`].
    pub subsystem: &'static str,
    /// Events dispatched to the bucket (exact, deterministic).
    pub events: u64,
    /// Wall-clock spent dispatching them (measured, machine-dependent).
    pub wall: Duration,
}

/// Per-subsystem attribution of one run — what the ROADMAP's
/// `JobRuntime` compaction work reads before touching anything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// One row per bucket, in [`Subsystem::ALL`] order.
    pub rows: Vec<ProfileRow>,
}

impl ProfileReport {
    /// Total events across all buckets.
    pub fn total_events(&self) -> u64 {
        self.rows.iter().map(|r| r.events).sum()
    }

    /// Total dispatch wall-time across all buckets.
    pub fn total_wall(&self) -> Duration {
        self.rows.iter().map(|r| r.wall).sum()
    }

    /// Renders the aligned attribution table `examples/traced_cluster.rs`
    /// prints. Buckets that saw no events are omitted.
    pub fn table(&self) -> String {
        let total_events = self.total_events().max(1);
        let total_wall = self.total_wall().as_secs_f64().max(f64::MIN_POSITIVE);
        let mut out = String::from(
            "subsystem      events   events%    wall_ms     wall%\n\
             ------------ -------- --------- ---------- ---------\n",
        );
        for row in self.rows.iter().filter(|r| r.events > 0) {
            out.push_str(&format!(
                "{:<12} {:>8} {:>8.1}% {:>10.3} {:>8.1}%\n",
                row.subsystem,
                row.events,
                100.0 * row.events as f64 / total_events as f64,
                row.wall.as_secs_f64() * 1e3,
                100.0 * row.wall.as_secs_f64() / total_wall,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_attributes_by_bucket() {
        let mut collector = ProfileCollector::new();
        collector.record(Subsystem::Rpc, Duration::from_micros(5));
        collector.record(Subsystem::Rpc, Duration::from_micros(5));
        collector.record(Subsystem::Health, Duration::from_micros(1));
        let report = collector.report();
        assert_eq!(report.total_events(), 3);
        let rpc = report.rows.iter().find(|r| r.subsystem == "rpc").unwrap();
        assert_eq!(rpc.events, 2);
        assert_eq!(rpc.wall, Duration::from_micros(10));
    }

    #[test]
    fn table_omits_empty_buckets() {
        let mut collector = ProfileCollector::new();
        collector.record(Subsystem::Orchestrator, Duration::ZERO);
        let table = collector.report().table();
        assert!(table.contains("orchestrator"));
        assert!(!table.contains("manager"));
        assert!(table.contains("100.0%"));
    }
}
