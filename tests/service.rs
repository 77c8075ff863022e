//! End-to-end service front-end tests: onion-model middleware ordering,
//! deterministic rejection behaviour of the shipped layers under a
//! generated multi-tenant trace, and the equivalence contract — an
//! empty chain (and a transparent pass-through layer) must not perturb
//! the simulation at all.

use freeride::prelude::*;
use std::sync::{Arc, Mutex};

const SEED: u64 = 0x5E4F1CE;

fn pipeline(epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs)
}

/// A layer that records when it was entered (inward pass) and exited
/// (outward pass), shared across the stack via one log.
struct Recorder {
    name: &'static str,
    log: Arc<Mutex<Vec<String>>>,
}

impl SubmitMiddleware for Recorder {
    fn name(&self) -> &'static str {
        self.name
    }

    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        self.log
            .lock()
            .unwrap()
            .push(format!("enter {}", self.name));
        let out = next.call(submission, opts);
        self.log.lock().unwrap().push(format!("exit {}", self.name));
        out
    }
}

#[test]
fn registration_order_is_onion_order() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(2)))
        .layer(Recorder {
            name: "outer",
            log: Arc::clone(&log),
        })
        .layer(Recorder {
            name: "middle",
            log: Arc::clone(&log),
        })
        .layer(Recorder {
            name: "inner",
            log: Arc::clone(&log),
        })
        .cost_report(false)
        .build();
    cluster
        .submit_with(
            Submission::new(WorkloadKind::PageRank),
            SubmitOptions::new(),
        )
        .expect("an idle cluster accepts");
    assert_eq!(
        *log.lock().unwrap(),
        vec![
            "enter outer",
            "enter middle",
            "enter inner",
            "exit inner",
            "exit middle",
            "exit outer",
        ],
        "first registered layer must be outermost"
    );
    let report = cluster.run();
    let service = report.service.expect("chain registered");
    let names: Vec<&str> = service.layers.iter().map(|l| l.name).collect();
    assert_eq!(names, vec!["outer", "middle", "inner"]);
}

/// The three-tenant trace the rejection tests replay: bursty enough to
/// trip every guard layer within a 12-second horizon.
fn trace() -> Vec<Arrival> {
    TrafficGen::new(SEED)
        .duration(SimDuration::from_secs(12))
        .class(
            TrafficClass::new("batch", ArrivalProcess::Poisson { rate_per_sec: 1.0 })
                .workload(WorkloadKind::PageRank, 1.0),
        )
        .class(
            TrafficClass::new(
                "interactive",
                ArrivalProcess::OnOff {
                    on: SimDuration::from_secs(1),
                    off: SimDuration::from_secs(2),
                    rate_per_sec: 9.0,
                },
            )
            .workload(WorkloadKind::ImageProc, 1.0),
        )
        .generate()
}

fn replay(build: impl Fn(ClusterBuilder) -> ClusterBuilder) -> ClusterReport {
    let mut cluster = build(
        Cluster::builder()
            .job(ClusterJob::new(pipeline(3)).seed(SEED))
            .cost_report(false)
            .layer(ServiceMetrics::new()),
    )
    .build();
    for arrival in trace() {
        let _ = cluster.submit_with(
            Submission::new(arrival.kind).at(arrival.at),
            SubmitOptions::new().tenant(arrival.tenant),
        );
    }
    cluster.run()
}

fn service_digest(report: &ClusterReport) -> String {
    let service = report.service.as_ref().expect("metrics layer registered");
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        service.layers,
        service.placement,
        service.tenants,
        service.rejections_by_kind,
        service
            .latency
            .as_ref()
            .map(|h| (h.p50(), h.p99(), h.p999())),
        report.events_processed,
    )
}

#[test]
fn rate_limit_rejections_are_deterministic() {
    let run = || replay(|b| b.layer(RateLimit::new(1.5, 2)));
    let a = run();
    let b = run();
    assert_eq!(service_digest(&a), service_digest(&b));
    let service = a.service.expect("chain registered");
    let limiter = service.layer("rate-limit").expect("layer reported");
    assert!(limiter.shed > 0, "a 1.5/s shedding limiter must trip");
    assert_eq!(
        service.rejections_by_kind.get("rate-limited").copied(),
        Some(limiter.shed),
        "every rate-limit shed surfaces as a RateLimited error"
    );
}

#[test]
fn quota_rejections_are_deterministic_and_per_tenant() {
    // Batch offers ~3 arrivals per 3s window (under the quota of 8);
    // interactive's 9-arrival bursts blow through it.
    let run = || replay(|b| b.layer(TenantQuota::new(8, SimDuration::from_secs(3))));
    let a = run();
    let b = run();
    assert_eq!(service_digest(&a), service_digest(&b));
    let service = a.service.expect("chain registered");
    let quota = service.layer("tenant-quota").expect("layer reported");
    assert!(quota.shed > 0, "the burst tenant must exhaust its quota");
    // The bursty interactive tenant trips the quota; the steady batch
    // tenant must keep an acceptance rate the burst cannot drag down.
    let interactive = &service.tenants["interactive"];
    let batch = &service.tenants["batch"];
    assert!(interactive.rejected > 0, "the bursty tenant is clipped");
    assert!(
        batch.accepted * interactive.submitted > interactive.accepted * batch.submitted,
        "quotas must isolate tenants: batch acceptance {} of {} vs interactive {} of {}",
        batch.accepted,
        batch.submitted,
        interactive.accepted,
        interactive.submitted,
    );
}

#[test]
fn deadline_rejections_are_deterministic() {
    // A delaying limiter in front of a tight deadline: delays past the
    // budget surface as DeadlineExceeded at the placement gate.
    let run = || {
        replay(|b| {
            b.layer(DeadlineLayer::new(SimDuration::from_millis(400)))
                .layer(RateLimit::new(1.2, 1).mode(RateLimitMode::Delay))
        })
    };
    let a = run();
    let b = run();
    assert_eq!(service_digest(&a), service_digest(&b));
    let service = a.service.expect("chain registered");
    let late = service
        .rejections_by_kind
        .get("deadline-exceeded")
        .copied()
        .unwrap_or(0);
    assert!(
        late > 0,
        "rate-limit delays past 400ms must miss the deadline"
    );
    assert_eq!(
        service.layer("rate-limit").expect("layer reported").shed,
        0,
        "in Delay mode the limiter originates no rejections"
    );
    assert!(
        service.placement.shed >= late,
        "deadline misses are enforced (and attributed) at the placement gate"
    );
}

fn cluster_digest(report: &ClusterReport) -> String {
    let tasks: Vec<_> = report
        .jobs
        .iter()
        .flat_map(|j| j.tasks.iter().map(|t| (t.id, t.worker, t.steps)))
        .collect();
    format!(
        "{:?}|{}|{}|{}",
        tasks,
        report.total_steps(),
        report.events_processed,
        report.makespan(),
    )
}

/// A layer that forwards everything untouched.
struct PassThrough;

impl SubmitMiddleware for PassThrough {
    fn name(&self) -> &'static str {
        "pass-through"
    }

    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        next.call(submission, opts)
    }
}

#[test]
fn empty_chain_is_identical_to_no_chain() {
    let run = |layered: bool| {
        let mut builder = Cluster::builder()
            .job(ClusterJob::new(pipeline(3)).seed(SEED))
            .cost_report(false);
        if layered {
            builder = builder.layer(PassThrough);
        }
        let mut cluster = builder.build();
        for arrival in trace() {
            let _ = cluster.submit_with(
                Submission::new(arrival.kind).at(arrival.at),
                SubmitOptions::new(),
            );
        }
        cluster.run()
    };
    let bare = run(false);
    let layered = run(true);
    assert!(bare.service.is_none(), "no chain, no service report");
    assert_eq!(
        cluster_digest(&bare),
        cluster_digest(&layered),
        "a transparent layer must not perturb the simulation"
    );
    let service = layered.service.expect("chain registered");
    assert_eq!(service.layers[0].shed, 0, "a pass-through sheds nothing");
    assert_eq!(
        service.layers[0].entered as usize,
        trace().len(),
        "every arrival passed through the layer"
    );
}

/// Every `SubmitError` variant maps to a stable, non-empty, unique
/// `kind()` label — the keys `rejections_by_kind` is bucketed by. A new
/// variant without a distinct label would silently merge rejection
/// buckets, so this list is exhaustive on purpose: extend it when the
/// error taxonomy grows.
#[test]
fn every_submit_error_variant_has_a_stable_kind_label() {
    let all = [
        (
            SubmitError::InsufficientMemory {
                needed: MemBytes::from_gib(4),
                best_worker_free: MemBytes::from_gib(1),
            },
            "insufficient-memory",
        ),
        (SubmitError::InvalidBatch { batch: 0 }, "invalid-batch"),
        (
            SubmitError::ArrivedAfterShutdown {
                arrival: SimTime::from_millis(9_000),
            },
            "arrived-after-shutdown",
        ),
        (SubmitError::WorkerDown { worker: 1 }, "worker-down"),
        (SubmitError::CircuitOpen { worker: 1 }, "circuit-open"),
        (
            SubmitError::DeadlineExceeded {
                deadline: SimTime::from_millis(400),
                arrival: SimTime::from_millis(900),
            },
            "deadline-exceeded",
        ),
        (
            SubmitError::RateLimited {
                retry_at: SimTime::from_millis(1_200),
            },
            "rate-limited",
        ),
        (SubmitError::QuotaExceeded { limit: 8 }, "quota-exceeded"),
        (
            SubmitError::Overloaded {
                inflight: 9,
                limit: 8,
            },
            "overloaded",
        ),
        (SubmitError::UnknownJob { job: 5, jobs: 2 }, "unknown-job"),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for (err, expected) in all {
        let kind = err.kind();
        assert_eq!(kind, expected, "label of {err:?} moved");
        assert!(!kind.is_empty(), "{err:?} has an empty label");
        assert!(
            kind.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
            "{kind:?} is not kebab-case"
        );
        assert!(seen.insert(kind), "duplicate label {kind:?}");
        assert!(
            !err.to_string().is_empty(),
            "{err:?} must render a message too"
        );
    }
}

/// In-run rejections — ones that happen at the arrival's simulated time,
/// not at the submit-time gate — land in `rejections_by_kind` as well.
/// `worker-down` and `circuit-open` can *only* arise in-run (they come
/// from the fault window and the breaker's reaction to it), so the
/// service report must fold the orchestrator's rejected list in.
#[test]
fn worker_down_and_circuit_open_surface_in_rejections_by_kind() {
    /// Pins every submission to worker 1, which the fault plan crashes.
    struct PinToCrashed;

    impl PlacementPolicy for PinToCrashed {
        fn name(&self) -> &'static str {
            "pin-to-crashed"
        }

        fn place(&self, _needed: MemBytes, _view: &ClusterView) -> Option<Placement> {
            Some(Placement::Worker { job: 0, worker: 1 })
        }
    }

    let mut cluster = Cluster::builder()
        .job(
            ClusterJob::new(pipeline(3))
                .seed(SEED)
                .faults(FaultPlan::new().crash_worker(
                    SimTime::from_millis(4_000),
                    1,
                    SimDuration::from_secs(3),
                )),
        )
        // Threshold 2: the first two worker-down failures (4.5s, 4.6s)
        // trip the breaker open until 9.6s. The third arrival lands at
        // 7.5s — after the worker restarts at 7.0s, while the breaker is
        // still open — so it is shed at the breaker, not the daemon.
        .policy(CircuitBreaker::new(
            PinToCrashed,
            2,
            SimDuration::from_secs(5),
        ))
        .layer(ServiceMetrics::new())
        .cost_report(false)
        .build();
    for ms in [4_500, 4_600, 7_500] {
        let _ = cluster.submit_with(
            Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(ms)),
            SubmitOptions::new(),
        );
    }
    let report = cluster.run();
    assert_eq!(report.total_rejections(), 3, "all three arrivals bounce");
    let service = report.service.expect("metrics layer registered");
    assert_eq!(
        service.rejections_by_kind.get("worker-down").copied(),
        Some(2),
        "two arrivals hit the downed worker directly: {:?}",
        service.rejections_by_kind
    );
    assert_eq!(
        service.rejections_by_kind.get("circuit-open").copied(),
        Some(1),
        "the third is shed by the now-open breaker: {:?}",
        service.rejections_by_kind
    );
}
