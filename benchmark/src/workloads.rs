//! The benchmark's three workloads, how one execution of each is timed,
//! and the checks its simulated outputs must pass.
//!
//! * `paper_mix` — Table 2's "Mixed" row: a 3.6B model, 4 stages, 4
//!   micro-batches, one PageRank, ResNet18, Image and VGG19 task, run under
//!   all four methods (four simulations). Real side-task compute dominates
//!   its host time, and the MPS and naive cells exercise the GPU
//!   interference model with co-running kernels.
//! * `sim_core` — four jobs (3.6B, 1.2B, 6B, 3.6B) under `LeastLoaded`,
//!   each with four compute-free side tasks, job 0 replaying a fault trace
//!   under checkpointing and a hedging supervisor. With no side-task
//!   compute, host time is the simulator's own machinery.
//! * `online_traffic` — one 3.6B job behind the guarded service stack,
//!   offered an open loop of Poisson arrivals from three tenants far above
//!   what the stack admits. The only workload where the service chain and
//!   placement run thousands of times.
//!
//! The seed makes the inputs — every job's seed (which seeds its RPC
//! jitter and side-task builds) and the arrival trace — and nothing else.

use crate::probes::{self, Phase, Seam, TimedFactory, TimedModels, TimedPolicy, TimedWorkload};
use freeride_core::{
    run_baseline_with, AdmissionControl, Cluster, ClusterBuilder, ClusterJob, ClusterReport,
    DeadlineLayer, FaultPlan, FreeRideConfig, LeastLoaded, MinTasksJob, PlacementPolicy,
    PriorityTag, RateLimit, RateLimitMode, ServiceMetrics, Submission, SubmitOptions,
    SupervisorConfig, TenantQuota, TraceEvent, TraceSink,
};
use freeride_gpu::{HardwareSpec, MemBytes};
use freeride_pipeline::{ModelSpec, PipelineConfig, ScheduleKind};
use freeride_sim::{SimDuration, SimTime};
use freeride_tasks::{
    Arrival, ArrivalProcess, SideTaskWorkload, TrafficClass, TrafficGen, WorkloadKind,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2's mixed row under all four methods.
    PaperMix,
    /// Four jobs with compute-free side tasks and a fault trace.
    SimCore,
    /// One job behind the guarded service stack under open-loop overload.
    OnlineTraffic,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::SimCore,
        Workload::OnlineTraffic,
    ];

    /// The name the command line and reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::SimCore => "sim_core",
            Workload::OnlineTraffic => "online_traffic",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Training epochs per job: sized so one execution takes 0.2-1.2 s of
    /// host time on a 2-core x86-64 container, and a 30 s run times tens
    /// of them. `online_traffic` offers about 5,400 arrivals at 45.
    pub fn epochs(self) -> usize {
        match self {
            Workload::PaperMix => 5,
            Workload::SimCore => 40,
            Workload::OnlineTraffic => 45,
        }
    }
}

/// Simulated seconds of offered traffic per training epoch: about one
/// epoch of the 3.6B job, so arrivals span the whole run.
const TRAFFIC_SECS_PER_EPOCH: u64 = 4;

/// The inputs of one benchmark run, all derived from its seed.
pub struct Inputs {
    workload: Workload,
    epochs: usize,
    seeds: [u64; 4],
    arrivals: Vec<Arrival>,
}

impl Inputs {
    /// Generates `workload`'s inputs at `epochs` from `seed`.
    pub fn generate(workload: Workload, seed: u64, epochs: usize) -> Inputs {
        let seeds = [0, 1, 2, 3].map(|k| mix(seed, k));
        let arrivals = match workload {
            Workload::OnlineTraffic => traffic(
                mix(seed, 4),
                SimDuration::from_secs(TRAFFIC_SECS_PER_EPOCH * epochs as u64),
            ),
            _ => Vec::new(),
        };
        Inputs {
            workload,
            epochs,
            seeds,
            arrivals,
        }
    }
}

/// SplitMix64 of `seed` and a stream index: independent sub-seeds.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Three tenants at ten times the traffic bin's rates: 15, 10 and 5
/// arrivals per simulated second. Every tenant submits PageRank: only a
/// handful of arrivals are ever admitted, and were their kinds drawn from
/// a mix, which ones won would change the host time of a run several-fold
/// from seed to seed. With one kind the seed moves arrival times only.
fn traffic(seed: u64, horizon: SimDuration) -> Vec<Arrival> {
    let tenant = |name: &str, rate_per_sec| {
        TrafficClass::new(name, ArrivalProcess::Poisson { rate_per_sec })
            .workload(WorkloadKind::PageRank, 1.0)
    };
    TrafficGen::new(seed)
        .duration(horizon)
        .class(tenant("batch", 15.0))
        .class(tenant("interactive", 10.0))
        .class(tenant("training", 5.0))
        .generate()
}

/// The chaos scenario's fault trace: an OOM window, a worker crashing
/// twice, an RPC spike and a straggler, all in the first eleven seconds.
fn fault_plan() -> FaultPlan {
    let ms = SimTime::from_millis;
    let secs = SimDuration::from_secs;
    FaultPlan::new()
        .oom_window(ms(3_000), secs(2))
        .crash_worker(ms(4_000), 1, secs(1))
        .rpc_spike(ms(5_000), 3, SimDuration::from_millis(40), secs(1))
        .crash_worker(ms(5_200), 1, secs(3))
        .straggler(ms(6_000), 2, 0.25, secs(4))
}

/// `sim_core`'s side task: a step only bumps a counter, so the simulator
/// is all that is left to measure.
#[derive(Default)]
struct Counter {
    steps: u64,
}

impl SideTaskWorkload for Counter {
    fn name(&self) -> &'static str {
        "counter"
    }

    fn create(&mut self) {}

    fn init_gpu(&mut self) {}

    fn run_step(&mut self) -> f64 {
        self.steps += 1;
        self.steps as f64
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// A trace sink that keeps nothing: the traced run reads the cluster's
/// per-kind counts, and storing millions of events would distort memory.
struct Discard;

impl TraceSink for Discard {
    fn record(&mut self, _event: TraceEvent) {}
}

/// One simulation of a workload, assembled but not yet built.
struct Sim {
    builder: ClusterBuilder,
    submissions: Vec<(Submission, SubmitOptions)>,
    /// Each job's pipeline and schedule, for its no-side-task baseline.
    baselines: Vec<(PipelineConfig, ScheduleKind)>,
}

fn pipeline(model: ModelSpec, epochs: usize, traced: bool) -> PipelineConfig {
    let pipe = PipelineConfig::paper_default(model).with_epochs(epochs);
    if !traced {
        return pipe;
    }
    let fleet = vec![HardwareSpec::rtx6000ada_48g().with_model_factory(TimedModels); pipe.stages];
    pipe.with_hardware(fleet)
}

fn builtin(kind: WorkloadKind, traced: bool) -> Submission {
    if traced {
        Submission::from_factory(Arc::new(TimedFactory(Arc::new(kind))))
    } else {
        Submission::new(kind)
    }
}

fn counter(traced: bool) -> Submission {
    let build = move |_| -> Box<dyn SideTaskWorkload> {
        let task = Box::new(Counter::default());
        if traced {
            Box::new(TimedWorkload(task))
        } else {
            task
        }
    };
    Submission::custom("counter", MemBytes::from_gib(2), build)
        .with_step_time(SimDuration::from_millis(2))
}

fn cluster(policy: impl PlacementPolicy + 'static, traced: bool) -> ClusterBuilder {
    if !traced {
        return Cluster::builder().policy(policy);
    }
    let sink: Arc<Mutex<dyn TraceSink>> = Arc::new(Mutex::new(Discard));
    Cluster::builder()
        .policy(TimedPolicy(policy))
        .trace(sink)
        .profile(true)
}

/// The workload's simulations, in the order they run.
fn sims(inputs: &Inputs, traced: bool) -> Vec<Sim> {
    let epochs = inputs.epochs;
    match inputs.workload {
        Workload::PaperMix => {
            let methods = [
                FreeRideConfig::iterative(),
                FreeRideConfig::imperative(),
                FreeRideConfig::mps_baseline(),
                FreeRideConfig::naive_baseline(),
            ];
            methods
                .into_iter()
                .map(|cfg| {
                    let pipe = pipeline(ModelSpec::nanogpt_3_6b(), epochs, traced);
                    let cfg = cfg.with_seed(inputs.seeds[0]);
                    let schedule = cfg.schedule;
                    let kinds = [
                        WorkloadKind::PageRank,
                        WorkloadKind::ResNet18,
                        WorkloadKind::ImageProc,
                        WorkloadKind::Vgg19,
                    ];
                    Sim {
                        builder: cluster(MinTasksJob, traced)
                            .job(ClusterJob::new(pipe.clone()).config(cfg)),
                        submissions: kinds
                            .map(|k| (builtin(k, traced), SubmitOptions::new()))
                            .into(),
                        baselines: vec![(pipe, schedule)],
                    }
                })
                .collect()
        }
        Workload::SimCore => {
            let models = [
                ModelSpec::nanogpt_3_6b(),
                ModelSpec::nanogpt_1_2b(),
                ModelSpec::nanogpt_6b(),
                ModelSpec::nanogpt_3_6b(),
            ];
            let mut builder = cluster(LeastLoaded, traced);
            let mut baselines = Vec::new();
            let mut submissions = Vec::new();
            for (j, model) in models.into_iter().enumerate() {
                let pipe = pipeline(model, epochs, traced);
                let cfg = FreeRideConfig::iterative().with_seed(inputs.seeds[j]);
                baselines.push((pipe.clone(), cfg.schedule));
                let mut job = ClusterJob::new(pipe).config(cfg);
                if j == 0 {
                    job = job
                        .faults(fault_plan())
                        .checkpoint(SimDuration::from_secs(1))
                        .supervise(SupervisorConfig::new().hedge(0.5));
                }
                builder = builder.job(job);
                for _ in 0..4 {
                    submissions.push((counter(traced), SubmitOptions::new().affinity(j)));
                }
            }
            vec![Sim {
                builder,
                submissions,
                baselines,
            }]
        }
        Workload::OnlineTraffic => {
            let pipe = pipeline(ModelSpec::nanogpt_3_6b(), epochs, traced);
            let cfg = FreeRideConfig::iterative().with_seed(inputs.seeds[0]);
            let schedule = cfg.schedule;
            let secs = SimDuration::from_secs;
            let builder = cluster(LeastLoaded, traced)
                .job(ClusterJob::new(pipe.clone()).config(cfg))
                .layer(ServiceMetrics::new())
                .layer(AdmissionControl::new(11, secs(4)))
                .layer(TenantQuota::new(5, secs(4)))
                .layer(DeadlineLayer::new(SimDuration::from_millis(1_500)))
                .layer(PriorityTag::new("best-effort"))
                .layer(RateLimit::new(2.4, 4).mode(RateLimitMode::Delay));
            let submissions = inputs
                .arrivals
                .iter()
                .map(|a| {
                    (
                        builtin(a.kind, traced).at(a.at),
                        SubmitOptions::new().tenant(a.tenant.clone()),
                    )
                })
                .collect();
            vec![Sim {
                builder,
                submissions,
                baselines: vec![(pipe, schedule)],
            }]
        }
    }
}

/// Host times and simulated outputs of one execution of a workload.
pub struct Iteration {
    /// Seconds spent in `ClusterBuilder::build` and every `submit_with`.
    pub setup_s: f64,
    /// Seconds spent inside `Cluster::run`, summed over the simulations.
    pub run_s: f64,
    /// What the simulations produced.
    pub out: Outputs,
}

/// The simulated outputs of one execution, reduced to what the benchmark
/// reports and checks.
#[derive(Default)]
pub struct Outputs {
    /// FNV-1a digest of every simulated output the checks compare.
    pub digest: u64,
    /// Time increase `I` of the headline simulation (fraction).
    pub time_increase: f64,
    /// Fleet cost savings `S` of the headline simulation (fraction).
    pub cost_savings: f64,
    /// Side-task steps of the headline simulation.
    pub side_steps: u64,
    /// Submissions handed to `submit_with`.
    pub attempted: u64,
    /// Submissions refused by `submit_with` or rejected in-run.
    pub rejected: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Bubbles reported to the managers.
    pub bubbles: u64,
    /// Bubble time of the headline simulation, and its running /
    /// insufficient / no-fit parts (s).
    pub bubble_s: [f64; 4],
    /// Rejections originated per service layer.
    pub shed: BTreeMap<&'static str, u64>,
    /// Events per profiled subsystem (traced executions only).
    pub profile_events: BTreeMap<&'static str, u64>,
    /// Trace events emitted (traced executions only).
    pub trace_events: u64,
    /// Checks the outputs failed.
    pub failures: Vec<String>,
}

/// Runs `inputs` once, timing set-up and run. A traced execution hands the
/// program the probe decorators and arms tracing and profiling.
pub fn execute(inputs: &Inputs, traced: bool) -> Iteration {
    let mut setup = Duration::ZERO;
    let mut run = Duration::ZERO;
    let (mut accepted, mut attempted) = (0u64, 0u64);
    let mut reports = Vec::new();
    for sim in sims(inputs, traced) {
        probes::set_phase(Phase::Setup);
        // freeride: allow(no-wall-clock) -- benchmark timing; never fed into the simulation
        let start = Instant::now();
        let mut cluster = sim.builder.build();
        for (sub, opts) in sim.submissions {
            let result = if traced {
                probes::timed(Seam::Submit, || cluster.submit_with(sub, opts))
            } else {
                cluster.submit_with(sub, opts)
            };
            attempted += 1;
            accepted += u64::from(result.is_ok());
        }
        setup += start.elapsed();
        probes::set_phase(Phase::Run);
        // freeride: allow(no-wall-clock) -- benchmark timing; never fed into the simulation
        let start = Instant::now();
        let report = cluster.run();
        run += start.elapsed();
        reports.push(report);
    }
    probes::set_phase(Phase::Setup);
    Iteration {
        setup_s: setup.as_secs_f64(),
        run_s: run.as_secs_f64(),
        out: reduce(inputs.workload, &reports, attempted, accepted),
    }
}

/// Times the no-side-task baselines `Cluster::run` trains for its cost
/// report, on plain hardware, and returns their seconds. Then replays them
/// on probed hardware under [`Phase::Baseline`], so that the interference
/// model's share of them can be told apart from the co-location run's.
pub fn run_baselines(inputs: &Inputs) -> f64 {
    let mut secs = 0.0;
    for sim in sims(inputs, false) {
        for (pipe, schedule) in &sim.baselines {
            // freeride: allow(no-wall-clock) -- benchmark timing; never fed into the simulation
            let start = Instant::now();
            let _ = run_baseline_with(pipe, *schedule);
            secs += start.elapsed().as_secs_f64();
        }
    }
    probes::set_phase(Phase::Baseline);
    for sim in sims(inputs, true) {
        for (pipe, schedule) in &sim.baselines {
            let _ = run_baseline_with(pipe, *schedule);
        }
    }
    probes::set_phase(Phase::Setup);
    secs
}

/// `I` and fleet-level `S` of one simulation: `Σ T_with / Σ T_base − 1`
/// and `Σ (C_sideTasks − extra) / Σ C_noSideTask` over its jobs.
fn cost(report: &ClusterReport) -> Option<(f64, f64)> {
    let (mut gain, mut base) = (0.0, 0.0);
    for job in &report.jobs {
        let c = job.cost.as_ref()?;
        gain += c.side_task_value - c.extra_cost;
        base += c.baseline_cost;
    }
    Some((report.global_throughput_loss()?, gain / base))
}

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn reduce(workload: Workload, reports: &[ClusterReport], attempted: u64, accepted: u64) -> Outputs {
    let mut out = Outputs {
        attempted,
        rejected: attempted - accepted,
        ..Outputs::default()
    };
    let mut fnv = Fnv::new();
    fnv.word(attempted);
    fnv.word(accepted);
    let mut costs = Vec::new();
    for report in reports {
        let (i, s) = cost(report).unwrap_or((f64::NAN, f64::NAN));
        costs.push((i, s));
        fnv.word(i.to_bits());
        fnv.word(s.to_bits());
        fnv.word(report.events_processed);
        fnv.word(report.total_rejections() as u64);
        out.events += report.events_processed;
        for job in &report.jobs {
            fnv.word(job.total_time.as_nanos());
            out.rejected += job.rejected.len() as u64;
            out.bubbles += job.bubbles_reported;
            for task in &job.tasks {
                fnv.word(task.steps);
                fnv.word(task.last_value.map_or(u64::MAX, f64::to_bits));
                if task.steps > 0 && !task.last_value.is_some_and(f64::is_finite) {
                    out.failures.push(format!(
                        "task {} ({}) ran {} steps but reports last_value {:?}",
                        task.id.0, task.kind, task.steps, task.last_value
                    ));
                }
            }
        }
        if let Some(service) = &report.service {
            for layer in service.layers.iter().chain([&service.placement]) {
                *out.shed.entry(layer.name).or_default() += layer.shed;
            }
        }
        if let Some(profile) = &report.profile {
            for row in &profile.rows {
                *out.profile_events.entry(row.subsystem).or_default() += row.events;
            }
        }
        if let Some(summary) = &report.trace_summary {
            out.trace_events += summary.events;
        }
    }
    out.digest = fnv.0;
    if let (Some(&(i, s)), Some(first)) = (costs.first(), reports.first()) {
        out.time_increase = i;
        out.cost_savings = s;
        out.side_steps = first.total_steps();
        for b in first.jobs.iter().map(|j| &j.breakdown) {
            let parts = [b.total, b.running, b.insufficient, b.unused_oom];
            for (acc, part) in out.bubble_s.iter_mut().zip(parts) {
                *acc += part.as_secs_f64();
            }
        }
    }
    if !(out.time_increase.is_finite() && out.cost_savings.is_finite()) {
        out.failures
            .push("the cost report gave no finite I and S".to_string());
    }
    if out.side_steps == 0 {
        out.failures.push("no side-task step ran".to_string());
    }
    out.failures
        .extend(workload_checks(workload, reports, &costs, accepted, &out));
    out
}

/// Checks on outputs, not pinned values: the paper's fidelity bands and
/// conservation of submissions.
fn workload_checks(
    workload: Workload,
    reports: &[ClusterReport],
    costs: &[(f64, f64)],
    accepted: u64,
    out: &Outputs,
) -> Vec<String> {
    let mut failed = Vec::new();
    match workload {
        Workload::PaperMix => {
            let &[(iter_i, iter_s), _, (mps_i, _), (_, naive_s)] = costs else {
                return vec![format!("expected 4 method cells, got {}", costs.len())];
            };
            if !(0.005..=0.02).contains(&iter_i) {
                failed.push(format!("iterative I = {iter_i} outside [0.5%, 2%]"));
            }
            if iter_s.is_nan() || iter_s <= 0.0 {
                failed.push(format!("iterative S = {iter_s} is not positive"));
            }
            if mps_i.is_nan() || mps_i <= iter_i {
                failed.push(format!("MPS I = {mps_i} not above iterative I = {iter_i}"));
            }
            if naive_s.is_nan() || naive_s >= 0.0 {
                failed.push(format!("naive S = {naive_s} is not negative"));
            }
        }
        Workload::OnlineTraffic => {
            let (mut submitted, mut admitted, mut refused) = (0, 0, 0);
            for t in reports
                .iter()
                .filter_map(|r| r.service.as_ref())
                .flat_map(|s| s.tenants.values())
            {
                submitted += t.submitted;
                admitted += t.accepted;
                refused += t.rejected;
            }
            if (submitted, admitted) != (out.attempted, accepted) || admitted + refused != submitted
            {
                failed.push(format!(
                    "service metrics count {submitted} submitted = {admitted} accepted + \
                     {refused} rejected; the benchmark made {} and {accepted} were accepted",
                    out.attempted
                ));
            }
            let resolved: u64 = reports
                .iter()
                .flat_map(|r| &r.jobs)
                .map(|j| (j.tasks.len() + j.rejected.len()) as u64)
                .sum();
            if resolved != accepted {
                failed.push(format!(
                    "{accepted} accepted submissions but {resolved} ran or were rejected in-run"
                ));
            }
        }
        Workload::SimCore => {}
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload) -> (Iteration, Iteration) {
        let inputs = Inputs::generate(workload, 7, 2);
        (execute(&inputs, false), execute(&inputs, false))
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seeds_change_inputs_and_only_the_seed_does() {
        let a = Inputs::generate(Workload::OnlineTraffic, 1, 2);
        let b = Inputs::generate(Workload::OnlineTraffic, 1, 2);
        let c = Inputs::generate(Workload::OnlineTraffic, 2, 2);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.seeds, b.seeds);
        assert_ne!(a.seeds, c.seeds);
        assert_ne!(a.arrivals, c.arrivals);
        assert!(a.arrivals.len() > 100, "{} arrivals", a.arrivals.len());
    }

    #[test]
    fn every_workload_replays_its_digest_and_passes_its_checks() {
        for w in Workload::ALL {
            let (a, b) = smoke(w);
            assert_eq!(a.out.digest, b.out.digest, "{}", w.name());
            assert!(
                a.out.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                a.out.failures
            );
            assert!(a.run_s > 0.0 && a.setup_s > 0.0);
        }
    }

    #[test]
    fn traced_execution_is_passive() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, 3, 2);
            let plain = execute(&inputs, false);
            let _ = probes::take();
            let traced = execute(&inputs, true);
            let rec = probes::take();
            assert_eq!(plain.out.digest, traced.out.digest, "{}", w.name());
            assert!(traced.out.trace_events > 0);
            assert!(rec.phase(Phase::Run).speeds_into.calls > 0);
            assert_eq!(
                rec.phase(Phase::Setup).submit.calls,
                traced.out.attempted,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn side_task_compute_dominates_paper_mix_but_not_sim_core() {
        let share = |w: Workload| {
            let inputs = Inputs::generate(w, 5, 2);
            let _ = probes::take();
            let it = execute(&inputs, true);
            let rec = probes::take();
            let step = rec.phase(Phase::Run).run_step;
            assert!(step.calls > 0, "{}", w.name());
            step.ns as f64 / 1e9 / it.run_s
        };
        let paper = share(Workload::PaperMix);
        let core = share(Workload::SimCore);
        assert!(paper > 0.3, "paper_mix run_step share {paper}");
        assert!(core < 0.1, "sim_core run_step share {core}");
    }

    #[test]
    fn baselines_are_timed_and_replayed_under_their_own_phase() {
        let inputs = Inputs::generate(Workload::SimCore, 1, 2);
        let _ = probes::take();
        let secs = run_baselines(&inputs);
        let rec = probes::take();
        assert!(secs > 0.0);
        assert!(rec.phase(Phase::Baseline).speeds_into.calls > 0);
        assert_eq!(rec.phase(Phase::Run).speeds_into.calls, 0);
    }

    #[test]
    fn out_of_band_paper_cells_fail_every_fidelity_check() {
        let out = Outputs::default();
        let bad = [(0.03, -0.1), (0.0, 0.0), (0.01, 0.0), (0.5, 0.1)];
        let failed = workload_checks(Workload::PaperMix, &[], &bad, 0, &out);
        assert_eq!(failed.len(), 4, "{failed:?}");
        let good = [(0.011, 0.1), (0.04, 0.1), (0.15, 0.0), (0.45, -0.17)];
        assert!(workload_checks(Workload::PaperMix, &[], &good, 0, &out).is_empty());
        assert!(!reduce(Workload::SimCore, &[], 0, 0).failures.is_empty());
    }
}
