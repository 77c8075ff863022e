//! Property-based tests over the core data structures and invariants:
//! schedules, the state machine, placement, memory accounting, the event
//! queue against a reference model, the side-task manager's polling on
//! input only, whole-pipeline termination for arbitrary shapes, the
//! one-epoch `T_noSideTask` against a full run, replay determinism under
//! arbitrary fault traces, PageRank's cycle replay against a plain power
//! iteration, and the NN matrix product against its reference summation
//! order.

use freeride::core::{
    next_state, run_baseline_with, run_colocation, AdmissionControl, BestFitMemory, Cluster,
    ClusterJob, ClusterReport, DeadlineLayer, FastestFit, FaultPlan, FirstFit, FreeRideConfig,
    LeastLoaded, ManagerCmd, MinTasksJob, Placement, PlacementPolicy, PriorityTag, RateLimit,
    RateLimitMode, RetryPolicy, ServiceMetrics, SideTaskManager, SideTaskState, Submission,
    SubmitOptions, SupervisorConfig, TaskId, TenantQuota, Transition, WorkerPolicy,
};
use freeride::gpu::{HardwareSpec, MemBytes, MemoryPool};
use freeride::obs::SimTracer;
use freeride::pipeline::{
    run_training, BubbleKind, BubbleReport, ModelSpec, PipelineConfig, Schedule, ScheduleKind,
};
use freeride::sim::{DetRng, EventId, EventQueue, SimDuration, SimTime};
use freeride::tasks::{ArrivalProcess, TrafficClass, TrafficGen};
use freeride::tasks::{CsrGraph, Matrix, PageRank, WorkloadKind};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #[test]
    fn any_schedule_shape_is_valid(
        stages in 2usize..10,
        micro_batches in 1usize..24,
        gpipe in any::<bool>(),
    ) {
        let kind = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::OneFOneB };
        let s = Schedule::build(kind, stages, micro_batches);
        s.assert_valid();
        prop_assert_eq!(s.num_stages(), stages);
        for st in 0..stages {
            prop_assert_eq!(s.stage_plan(st).len(), 2 * micro_batches + 1);
        }
    }

    /// The exact delivery order: by time, ties in insertion order. A
    /// quarter of the times spread over a millisecond, the rest come from
    /// eight values, so ties are common and most keys of a long batch wait
    /// in the overflow heap.
    #[test]
    fn event_queue_pops_sorted(draws in prop::collection::vec((0u64..4, 0u64..1_000_000), 1..200)) {
        let times: Vec<SimTime> = draws
            .iter()
            .map(|&(spread, t)| SimTime::from_nanos(if spread == 0 { t } else { t % 8 }))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut expected: Vec<(SimTime, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort();
        let delivered: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(delivered, expected);
    }

    /// Random interleavings of every queue operation against a reference
    /// model; see [`queue_matches_model`].
    #[test]
    fn event_queue_cancellation_preserves_others(
        ops in prop::collection::vec((0u8..20, any::<u64>()), 1..600),
    ) {
        queue_matches_model(&ops);
    }

    #[test]
    fn state_machine_never_leaves_stopped(
        transitions in prop::collection::vec(0usize..6, 0..40),
    ) {
        let all = [
            Transition::CreateSideTask,
            Transition::InitSideTask,
            Transition::StartSideTask,
            Transition::PauseSideTask,
            Transition::RunNextStep,
            Transition::StopSideTask,
        ];
        let mut state = SideTaskState::Submitted;
        let mut stopped = false;
        for idx in transitions {
            if let Ok(next) = next_state(state, all[idx]) {
                prop_assert!(!stopped, "transition out of STOPPED");
                state = next;
                if state == SideTaskState::Stopped {
                    stopped = true;
                }
            }
        }
    }

    #[test]
    fn state_machine_gpu_memory_only_after_init(
        transitions in prop::collection::vec(0usize..6, 0..40),
    ) {
        // The paper's resource story: CREATED holds host memory only;
        // PAUSED/RUNNING hold GPU memory. Check that RUNNING is only
        // reachable through PAUSED, which is only reachable through
        // CREATED.
        let all = [
            Transition::CreateSideTask,
            Transition::InitSideTask,
            Transition::StartSideTask,
            Transition::PauseSideTask,
            Transition::RunNextStep,
            Transition::StopSideTask,
        ];
        let mut state = SideTaskState::Submitted;
        let mut seen_created = false;
        let mut seen_paused = false;
        for idx in transitions {
            if let Ok(next) = next_state(state, all[idx]) {
                match next {
                    SideTaskState::Created => seen_created = true,
                    SideTaskState::Paused => {
                        prop_assert!(seen_created);
                        seen_paused = true;
                    }
                    SideTaskState::Running => prop_assert!(seen_paused),
                    _ => {}
                }
                state = next;
            }
        }
    }

    #[test]
    fn placement_respects_memory_under_any_policy(
        mems in prop::collection::vec(1u64..32, 1..6),
        tasks in prop::collection::vec(1u64..32, 0..20),
        policy_idx in 0usize..3,
    ) {
        let policy = [
            WorkerPolicy::MinTasks,
            WorkerPolicy::FirstFit,
            WorkerPolicy::MostMemory,
        ][policy_idx];
        let worker_mems: Vec<MemBytes> = mems.iter().map(|g| MemBytes::from_gib(*g)).collect();
        let mut m = SideTaskManager::new(worker_mems.clone()).with_policy(policy);
        for (i, t) in tasks.iter().enumerate() {
            let req = MemBytes::from_gib(*t);
            match m.submit(TaskId(i as u64), req) {
                Ok((w, _)) => prop_assert!(worker_mems[w] > req, "overcommitted worker {w}"),
                Err(_) => {
                    // Rejection must mean no worker could hold it.
                    prop_assert!(worker_mems.iter().all(|wm| *wm <= req));
                }
            }
        }
    }

    #[test]
    fn no_cluster_policy_overplaces_on_random_hetero_fleets(
        extras in prop::collection::vec(0u64..40, 8),
        speed_tenths in prop::collection::vec(1u64..40, 8),
        needed_gib in 1u64..48,
    ) {
        // Two jobs on randomized heterogeneous fleets: per stage, a
        // device barely big enough for training plus 0–39 GiB of bubble
        // headroom, at a random speed in 0.1x–3.9x. Every shipped policy
        // (including the hardware-aware FastestFit) must only ever place
        // where free memory strictly exceeds the request, and must not
        // miss a feasible placement.
        let base = PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b());
        let spec = |s: usize, extra: u64, tenths: u64| {
            let mem = base.stage_memory(s) + MemBytes::from_gib(extra) + MemBytes::from_mib(1);
            HardwareSpec::custom(format!("rand-{s}"), mem, tenths as f64 / 10.0)
        };
        let job = |off: usize| {
            let fleet = (0..4)
                .map(|s| spec(s, extras[off + s], speed_tenths[off + s]))
                .collect();
            ClusterJob::new(base.clone().with_hardware(fleet))
        };
        let cluster = Cluster::builder()
            .job(job(0))
            .job(job(4))
            .cost_report(false)
            .build();
        let view = cluster.view();
        let needed = MemBytes::from_gib(needed_gib);
        let any_fits = view
            .jobs()
            .iter()
            .any(|j| j.workers.iter().any(|w| w.free_mem > needed));
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(FirstFit),
            Box::new(BestFitMemory),
            Box::new(LeastLoaded),
            Box::new(FastestFit),
            Box::new(MinTasksJob),
        ];
        for policy in policies {
            match policy.place(needed, &view) {
                Some(Placement::Worker { job, worker }) => {
                    let w = &view.jobs()[job].workers[worker];
                    prop_assert!(
                        w.free_mem > needed,
                        "{} placed {needed} on job {job} worker {worker} offering {}",
                        policy.name(),
                        w.free_mem
                    );
                }
                Some(Placement::Job(job)) => {
                    prop_assert!(
                        view.jobs()[job].workers.iter().any(|w| w.free_mem > needed),
                        "{} routed {needed} to job {job} with no fitting worker",
                        policy.name()
                    );
                }
                None => prop_assert!(
                    !any_fits,
                    "{} rejected {needed} although a worker fits",
                    policy.name()
                ),
                // `Placement` is non-exhaustive: future placement shapes
                // are simply not checked by this property.
                Some(_) => {}
            }
        }
    }

    #[test]
    fn min_tasks_placement_is_balanced(count in 1usize..16) {
        let mut m = SideTaskManager::new(vec![MemBytes::from_gib(10); 4]);
        for i in 0..count {
            m.submit(TaskId(i as u64), MemBytes::from_gib(1)).unwrap();
        }
        let counts: Vec<usize> = (0..4).map(|w| m.worker(w).task_count()).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    #[test]
    fn memory_pool_never_overcommits(
        ops in prop::collection::vec((any::<bool>(), 1u64..10), 0..60),
    ) {
        let total = MemBytes::from_gib(32);
        let mut pool = MemoryPool::new(total);
        let mut held: Vec<MemBytes> = Vec::new();
        for (is_alloc, gib) in ops {
            let size = MemBytes::from_gib(gib);
            if is_alloc {
                if pool.reserve(size).is_ok() {
                    held.push(size);
                }
            } else if let Some(s) = held.pop() {
                pool.release(s);
            }
            let held_total: MemBytes = held.iter().copied().sum();
            prop_assert_eq!(pool.used(), held_total);
            prop_assert!(pool.used() <= total);
        }
    }
}

/// Replays `ops` on an [`EventQueue`] and on a reference model, a
/// `BTreeMap<(time, seq), payload>`, and requires the same answer at every
/// step: each delivered event, each `cancel` result, `peek_time` and
/// `len`, then the same drain. An op is `(code, draw)`:
///
/// | code | operation |
/// |---|---|
/// | 0–7 | push at `now` plus 0–25 ns in steps of 5, so ties are common |
/// | 8–10 | push 200–210 ns after `now`: with more than 32 keys pending, these take the overflow heap |
/// | 11–12 | cancel a pending event |
/// | 13 | cancel a delivered, cancelled or cleared event |
/// | 14 | cancel an id another queue issued |
/// | 15–17 | pop |
/// | 18 | pop due by `now` plus 0–35 ns |
/// | 19 | clear (one draw in 16), else nothing: the checks after every step read `peek_time` and `len` |
///
/// `now` is the time of the last delivery, as in a simulation.
fn queue_matches_model(ops: &[(u8, u64)]) {
    let mut q = EventQueue::new();
    let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
    // Every id the queue issued, indexed by payload (its push order), with
    // its model key while it is pending.
    let mut issued: Vec<(EventId, Option<(SimTime, u64)>)> = Vec::new();
    // This queue's slab never exceeds its push count, so another queue's
    // slots past `ops.len()` are unknown here.
    let mut other = EventQueue::new();
    let unknown: Vec<EventId> = (0..2 * ops.len())
        .map(|_| other.push(SimTime::ZERO, ()))
        .skip(ops.len())
        .collect();
    let mut now = SimTime::ZERO;
    let ns = SimDuration::from_nanos;
    for &(code, draw) in ops {
        match code {
            0..=10 => {
                let delay = if code <= 7 {
                    ns(draw % 6 * 5)
                } else {
                    ns(200 + draw % 3 * 5)
                };
                let payload = issued.len() as u64;
                let id = q.push(now + delay, payload);
                issued.push((id, Some((now + delay, payload))));
                model.insert((now + delay, payload), payload);
            }
            11..=13 => {
                let pending = code <= 12;
                let pool: Vec<usize> = (0..issued.len())
                    .filter(|&i| issued[i].1.is_some() == pending)
                    .collect();
                if let Some(&i) = pool.get((draw % pool.len().max(1) as u64) as usize) {
                    let (id, key) = issued[i];
                    prop_assert_eq!(q.cancel(id), pending);
                    if let Some(key) = key {
                        model.remove(&key);
                        issued[i].1 = None;
                    }
                }
            }
            14 => {
                let id = unknown[(draw % unknown.len() as u64) as usize];
                prop_assert!(!q.cancel(id), "an unknown id cancelled an event");
            }
            15..=18 => {
                let deadline = if code == 18 {
                    now + ns(draw % 8 * 5)
                } else {
                    SimTime::MAX
                };
                let expected = match model.first_key_value() {
                    Some((&(t, _), _)) if t <= deadline => model.pop_first(),
                    _ => None,
                };
                let got = q.pop_due(deadline);
                prop_assert_eq!(got, expected.map(|((t, _), v)| (t, v)));
                if let Some((t, v)) = got {
                    issued[v as usize].1 = None;
                    now = t;
                }
            }
            _ => {
                if draw % 16 == 0 {
                    q.clear();
                    model.clear();
                    issued.iter_mut().for_each(|e| e.1 = None);
                }
            }
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.is_empty(), model.is_empty());
        prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(t, _)| t));
    }
    let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
    let expected: Vec<(SimTime, u64)> = model.into_iter().map(|((t, _), v)| (t, v)).collect();
    prop_assert_eq!(drained, expected);
}

/// One input of the side-task manager, delivered as the orchestrator
/// delivers it.
#[derive(Debug, Clone, Copy)]
enum ManagerInput {
    /// A submission: Algorithm 1 places it and issues `Create`.
    Admit(u64),
    /// A bubble report reaches the manager.
    Bubble(BubbleReport),
    /// A reported bubble's predicted end.
    BubbleEnd,
    /// A worker acknowledges a command.
    Ack {
        worker: usize,
        task: TaskId,
        state: SideTaskState,
    },
    /// A worker's side-task daemon crashes.
    Crash(usize),
    /// Training ends: stop every live task.
    StopAll,
}

/// The acknowledgement a worker sends once it has carried out `cmd`.
fn ack_for(cmd: ManagerCmd) -> ManagerInput {
    let (worker, task, state) = match cmd {
        ManagerCmd::Create { worker, task } => (worker, task, SideTaskState::Created),
        ManagerCmd::Init { worker, task } | ManagerCmd::Pause { worker, task } => {
            (worker, task, SideTaskState::Paused)
        }
        ManagerCmd::Start { worker, task, .. } => (worker, task, SideTaskState::Running),
        ManagerCmd::Stop { worker, task } => (worker, task, SideTaskState::Stopped),
    };
    ManagerInput::Ack {
        worker,
        task,
        state,
    }
}

type CmdLog = Vec<(SimTime, ManagerCmd)>;

/// Runs Algorithm 2 on `m` at `now` and logs the commands it issues.
fn poll(m: &mut SideTaskManager, now: SimTime, log: &mut CmdLog) {
    log.extend(m.poll(now).into_iter().map(|cmd| (now, cmd)));
}

/// Hands `input` to `m` at `now`, then polls it; returns the tasks a crash
/// lost.
fn deliver(
    m: &mut SideTaskManager,
    now: SimTime,
    input: ManagerInput,
    log: &mut CmdLog,
) -> Vec<TaskId> {
    let mut lost = Vec::new();
    match input {
        ManagerInput::Admit(task) => {
            let mem = MemBytes::from_gib(1 + task % 3);
            let (_, cmd) = m.submit(TaskId(task), mem).expect("every task fits");
            log.push((now, cmd));
        }
        ManagerInput::Bubble(report) => m.add_bubble(report.stage, report),
        ManagerInput::BubbleEnd => {}
        ManagerInput::Ack {
            worker,
            task,
            state,
        } => m.on_task_state(worker, task, state),
        ManagerInput::Crash(worker) => lost = m.on_worker_crash(worker),
        ManagerInput::StopAll => log.extend(m.stop_all().into_iter().map(|cmd| (now, cmd))),
    }
    poll(m, now, log);
    lost
}

fn task_counts(m: &SideTaskManager) -> Vec<usize> {
    (0..m.num_workers())
        .map(|w| m.worker(w).task_count())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Algorithm 2 needs no timer. Two managers see the same random trace
    /// of admissions, bubble reports (up to 20 ms before a bubble starts or
    /// 30 ms after), crashes and acks, each ack one random RPC delay after
    /// its command. Both are polled after every input and at every
    /// reported bubble's predicted end, as the orchestrator polls. One of
    /// them is also polled at random instants between inputs, as a
    /// periodic tick would. They must issue the same commands at the same
    /// instants, return the same tasks from a crash and hold the same task
    /// count on every worker throughout.
    #[test]
    fn polls_between_inputs_change_no_command(
        seed in any::<u64>(),
        workers in 1usize..5,
        tasks in 1u64..12,
        crashes in 0usize..3,
    ) {
        const MS: u64 = 1_000_000;
        let horizon = 2_000 * MS;
        let mut rng = DetRng::seed_from_u64(seed);
        let mut inputs = EventQueue::new();
        for task in 0..tasks {
            let at = SimTime::from_nanos(rng.gen_range_u64(0, horizon / 2));
            inputs.push(at, ManagerInput::Admit(task));
        }
        for stage in 0..workers {
            let mut start = rng.gen_range_u64(0, 50 * MS);
            while start < horizon {
                let duration = rng.gen_range_u64(MS, 150 * MS);
                let report = BubbleReport {
                    stage,
                    start: SimTime::from_nanos(start),
                    duration: SimDuration::from_nanos(duration),
                    kind: BubbleKind::TypeB,
                    free_memory: MemBytes::from_gib(8),
                };
                let at = (start + rng.gen_range_u64(0, 50 * MS)).saturating_sub(20 * MS);
                inputs.push(SimTime::from_nanos(at), ManagerInput::Bubble(report));
                start += duration + rng.gen_range_u64(MS, 100 * MS);
            }
        }
        for _ in 0..crashes {
            let at = SimTime::from_nanos(rng.gen_range_u64(0, horizon));
            inputs.push(at, ManagerInput::Crash(rng.gen_index(workers)));
        }
        inputs.push(SimTime::from_nanos(horizon), ManagerInput::StopAll);

        let mems = vec![MemBytes::from_gib(8); workers];
        let mut on_input = SideTaskManager::new(mems.clone());
        let mut ticked = SideTaskManager::new(mems);
        let (mut log, mut ticked_log) = (CmdLog::new(), CmdLog::new());
        let mut last = 0;
        while let Some((now, input)) = inputs.pop() {
            let gap = now.as_nanos() - last;
            if gap > 1 {
                let mut ticks: Vec<u64> =
                    (0..rng.gen_index(3)).map(|_| last + rng.gen_range_u64(1, gap)).collect();
                ticks.sort_unstable();
                for at in ticks {
                    poll(&mut ticked, SimTime::from_nanos(at), &mut ticked_log);
                    prop_assert_eq!(&ticked_log, &log, "a poll at {} ns with no input", at);
                    prop_assert_eq!(task_counts(&ticked), task_counts(&on_input));
                }
            }
            let issued = log.len();
            let lost = deliver(&mut on_input, now, input, &mut log);
            prop_assert_eq!(deliver(&mut ticked, now, input, &mut ticked_log), lost);
            prop_assert_eq!(&ticked_log, &log, "{:?} at {}", input, now);
            prop_assert_eq!(task_counts(&ticked), task_counts(&on_input));
            if let ManagerInput::Bubble(report) = input {
                inputs.push(report.predicted_end().max(now), ManagerInput::BubbleEnd);
            }
            for &(_, cmd) in &log[issued..] {
                let delay = SimDuration::from_nanos(rng.gen_range_u64(MS / 20, 5 * MS));
                inputs.push(now + delay, ack_for(cmd));
            }
            last = now.as_nanos();
        }
        // With no crash, each worker's first task runs in some bubble.
        if crashes == 0 {
            prop_assert!(log.iter().any(|(_, cmd)| matches!(cmd, ManagerCmd::Start { .. })));
        }
    }
}

/// `steps` power iterations of PageRank (damping 0.85) from uniform ranks,
/// with the same arithmetic in the same order as `PageRank::step` and no
/// cycle detection; returns every L1 delta and the final ranks.
fn power_iteration(graph: &CsrGraph, steps: usize) -> (Vec<f64>, Vec<f64>) {
    let n = graph.num_nodes();
    let damping = 0.85;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut deltas = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        let mut dangling = 0.0;
        for (node, &rank) in ranks.iter().enumerate() {
            let out = graph.neighbors(node);
            if out.is_empty() {
                dangling += rank;
                continue;
            }
            let share = damping * rank / out.len() as f64;
            for &v in out {
                next[v as usize] += share;
            }
        }
        let dangling_share = damping * dangling / n as f64;
        for v in next.iter_mut() {
            *v += dangling_share;
        }
        deltas.push(next.iter().zip(&ranks).map(|(a, b)| (a - b).abs()).sum());
        ranks = next;
    }
    (deltas, ranks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PageRank's in-edge sweep and its replay of the bit-exact limit cycle
    /// return, step for step, what the push iteration returns. Besides
    /// power-law graphs, which have no sink and no self-loop, it runs on
    /// uniformly random edge lists, which have sinks, and always on at
    /// least one self-loop and one duplicated edge.
    #[test]
    fn pagerank_replay_matches_recompute(
        nodes in 2usize..300,
        edges_per_node in 1usize..6,
        random_edges in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let graph = if random_edges {
            let mut node = || rng.gen_index(nodes) as u32;
            let mut edges: Vec<(u32, u32)> =
                (0..nodes * edges_per_node / 2).map(|_| (node(), node())).collect();
            let looped = node();
            edges.push((looped, looped));
            edges.push(edges[0]);
            CsrGraph::from_edges(nodes, &edges)
        } else {
            CsrGraph::power_law(nodes, edges_per_node, &mut rng)
        };
        let (deltas, ranks) = power_iteration(&graph, 400);
        let mut pr = PageRank::new(graph);
        for (i, delta) in deltas.iter().enumerate() {
            prop_assert_eq!(pr.step().to_bits(), delta.to_bits(), "delta of step {}", i + 1);
        }
        prop_assert_eq!(pr.iterations(), 400);
        prop_assert_eq!(pr.last_delta().to_bits(), deltas[399].to_bits());
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(pr.ranks()), bits(&ranks));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Steps run in batches (`run_steps`, as a worker settles a task's
    /// charged steps) end where single steps do, for any chunking: the
    /// same values, `steps_done` and next step. Image seeks its pixel
    /// stream past every skipped image; PageRank computes up to its limit
    /// cycle (60–90 steps in) and jumps through the replayed cycle after
    /// it, so chunks of up to 199 steps straddle both.
    #[test]
    fn run_steps_in_any_chunking_matches_single_steps(
        image in any::<bool>(),
        seed in any::<u64>(),
        chunks in prop::collection::vec(0u64..200, 1..6),
    ) {
        let kind = if image { WorkloadKind::ImageProc } else { WorkloadKind::PageRank };
        let (mut batched, mut single) = (kind.build(seed), kind.build(seed));
        for task in [&mut batched, &mut single] {
            task.create();
            task.init_gpu();
        }
        for &n in &chunks {
            let expected = (0..n).map(|_| single.run_step()).last();
            prop_assert_eq!(batched.run_steps(n).map(f64::to_bits), expected.map(f64::to_bits));
        }
        prop_assert_eq!(batched.steps_done(), single.steps_done());
        prop_assert_eq!(batched.run_step().to_bits(), single.run_step().to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Matrix::matmul` returns, bit for bit, the plain triple loop: each
    /// element starts at +0.0 and adds its products in ascending k, skipping
    /// the left-hand side's exact zeros (−0.0 too), for any sparsity and
    /// any shape up to the widest NN layer's (k = 64, n = 96), so across
    /// every column tile and tail. A right-hand row that faces only zeros
    /// holds ±inf and NaN, so multiplying by a zero instead of skipping it
    /// shows.
    #[test]
    fn matmul_matches_the_reference_order(
        m in 0usize..40,
        k in 0usize..70,
        n in 0usize..100,
        zero_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut a = Matrix::random(m, k, &mut rng);
        for i in 0..m {
            for p in 0..k {
                if rng.gen_range_u64(0, 100) < zero_pct {
                    a.set(i, p, if rng.gen_bool(0.5) { -0.0 } else { 0.0 });
                }
            }
        }
        let mut b = Matrix::random(k, n, &mut rng);
        for p in 0..k {
            if (0..m).all(|i| a.get(i, p) == 0.0) {
                for j in 0..n {
                    b.set(p, j, [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][j % 3]);
                }
            }
        }
        let product = a.matmul(&b);
        prop_assert_eq!((product.rows(), product.cols()), (m, n));
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0.0;
                for p in 0..k {
                    let x = a.get(i, p);
                    if x != 0.0 {
                        sum += x * b.get(p, j);
                    }
                }
                prop_assert_eq!(
                    product.get(i, j).to_bits(),
                    sum.to_bits(),
                    "element ({}, {}) of {}x{} . {}x{}", i, j, m, k, k, n
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Online arrivals are work-preserving: when memory never binds and
    /// every task arrives before bubble serving begins (inside the
    /// profiling epoch), any interleaving of arrival times yields the
    /// same total work as the equivalent up-front batch. RPC jitter is
    /// disabled so message latencies cannot depend on send order.
    #[test]
    fn arrival_interleaving_preserves_total_work(
        arrivals_ms in prop::collection::vec(0u64..1500, 4),
    ) {
        let p = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
        let cfg = || {
            let mut c = FreeRideConfig::iterative();
            c.rpc_jitter = 0.0;
            c
        };

        let batch = run_colocation(&p, &cfg(), &Submission::per_worker(WorkloadKind::PageRank, 4));
        let online_subs: Vec<Submission> = arrivals_ms
            .iter()
            .map(|ms| Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(*ms)))
            .collect();
        let online = run_colocation(&p, &cfg(), &online_subs);
        prop_assert!(
            batch.rejected.is_empty() && online.rejected.is_empty(),
            "every submission fits bubble memory"
        );

        // Precondition: every arrival fell inside the profiling epoch,
        // before the first serving bubble.
        prop_assert!(
            online.epoch_times[0] > freeride::sim::SimDuration::from_millis(2_000),
            "profiling epoch shorter than the arrival window"
        );
        let batch_total: u64 = batch.tasks.iter().map(|t| t.steps).sum();
        let online_total: u64 = online.tasks.iter().map(|t| t.steps).sum();
        prop_assert_eq!(
            batch_total, online_total,
            "arrivals at {:?} ms changed total work", arrivals_ms
        );
        prop_assert_eq!(online.tasks.len(), 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pipeline engine terminates and keeps a sane bubble rate for any
    /// micro-batch count; the known (s−1)/(m+s−1) law bounds it.
    #[test]
    fn training_terminates_for_any_micro_batch_count(mb in 1usize..12) {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
            .with_micro_batches(mb)
            .with_epochs(2);
        let run = run_training(&cfg, ScheduleKind::OneFOneB);
        prop_assert_eq!(run.epoch_times.len(), 2);
        let rate = run.bubble_stats.bubble_rate;
        let ideal = 3.0 / (mb as f64 + 3.0);
        prop_assert!(
            (rate - ideal).abs() < 0.09,
            "rate {rate} far from the pipeline law {ideal} at mb={mb}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `T_noSideTask` is one epoch times the epoch count: with no side
    /// task every epoch of a full run is a time-shifted copy of the first,
    /// so the two agree to the nanosecond for every model preset, 1–16
    /// micro-batches, both schedules, 1–40 epochs, and the reference GPU,
    /// a homogeneous fleet or a mixed one of hardware presets that fit.
    #[test]
    fn baseline_is_epochs_times_one_epoch(
        model in 0usize..3,
        micro_batches in 1usize..=16,
        gpipe in any::<bool>(),
        epochs in 1usize..=40,
        fleet in 0u8..3,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 4),
    ) {
        let spec = [ModelSpec::nanogpt_1_2b(), ModelSpec::nanogpt_3_6b(), ModelSpec::nanogpt_6b()];
        let mut cfg = PipelineConfig::paper_default(spec[model])
            .with_micro_batches(micro_batches)
            .with_epochs(epochs);
        let fits = |s: usize| -> Vec<HardwareSpec> {
            HardwareSpec::presets()
                .into_iter()
                .filter(|h| cfg.stage_memory(s) <= h.memory())
                .collect()
        };
        let hardware: Vec<HardwareSpec> = match fleet {
            0 => Vec::new(),
            1 => {
                let everywhere: Vec<HardwareSpec> = fits(0)
                    .into_iter()
                    .filter(|h| (1..cfg.stages).all(|s| cfg.stage_memory(s) <= h.memory()))
                    .collect();
                let h = &everywhere[picks[0].index(everywhere.len())];
                vec![h.clone(); cfg.stages]
            }
            _ => (0..cfg.stages)
                .map(|s| {
                    let options = fits(s);
                    options[picks[s].index(options.len())].clone()
                })
                .collect(),
        };
        if !hardware.is_empty() {
            cfg = cfg.with_hardware(hardware);
        }
        let kind = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::OneFOneB };
        prop_assert_eq!(run_baseline_with(&cfg, kind), run_training(&cfg, kind).total_time);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos determinism: an arbitrary fault trace — crashes, stragglers,
    /// OOM windows, RPC spikes, in any order, overlapping or not — with
    /// any mechanism mix, replayed twice, yields an identical report.
    /// Fault injection must not break the simulation's replay contract.
    #[test]
    fn any_fault_trace_replays_identically(
        events in prop::collection::vec(
            (0u8..4, 500u64..11_000, 0usize..4, 200u64..3_000, 1u64..50),
            0..5,
        ),
        checkpoint in any::<bool>(),
        retry in any::<bool>(),
    ) {
        let plan = || {
            let mut p = FaultPlan::new();
            for (kind, at_ms, worker, dur_ms, lat_ms) in &events {
                let at = SimTime::from_millis(*at_ms);
                let dur = SimDuration::from_millis(*dur_ms);
                p = match kind {
                    0 => p.crash_worker(at, *worker, dur),
                    1 => p.straggler(at, *worker, 0.25 + (*lat_ms as f64) / 100.0, dur),
                    2 => p.oom_window(at, dur),
                    _ => p.rpc_spike(at, *worker, SimDuration::from_millis(*lat_ms), dur),
                };
            }
            p
        };
        let run = || {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
            let mut job = ClusterJob::new(pipeline).seed(0xD1CE).faults(plan());
            if checkpoint {
                job = job.checkpoint(SimDuration::from_millis(700));
            }
            let mut cluster = Cluster::builder().job(job).cost_report(false).build();
            for _ in 0..2 {
                let _ =
                    cluster.submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new());
            }
            let opts = if retry {
                SubmitOptions::new().retry(RetryPolicy::new(4, SimDuration::from_millis(250)))
            } else {
                SubmitOptions::new()
            };
            let _ = cluster.submit_with(
                Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_300)),
                opts,
            );
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let j = &r.jobs[0];
            format!(
                "{:?}|{:?}|{}|{}|{}",
                j.tasks
                    .iter()
                    .map(|t| (t.id, t.worker, t.steps, t.stop_reason))
                    .collect::<Vec<_>>(),
                j.recoveries,
                r.total_rejections(),
                r.events_processed,
                j.total_time,
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(digest(&a), digest(&b), "fault trace {:?} diverged on replay", events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Observability is passive: arming a tracer on an arbitrary chaos
    /// run — crashes, stragglers, OOM windows, RPC spikes, checkpoints,
    /// supervision — must not move the simulation by a byte. The traced
    /// run's digest (task outcomes, recoveries, rejections, event count,
    /// makespan) equals the untraced run's, while the trace itself is
    /// non-empty and internally consistent with the event stream it
    /// observed.
    #[test]
    fn traced_run_replays_digest_identical_to_untraced(
        events in prop::collection::vec(
            (0u8..4, 500u64..11_000, 0usize..4, 200u64..3_000, 1u64..50),
            0..5,
        ),
        supervise in any::<bool>(),
    ) {
        let plan = || {
            let mut p = FaultPlan::new();
            for (kind, at_ms, worker, dur_ms, lat_ms) in &events {
                let at = SimTime::from_millis(*at_ms);
                let dur = SimDuration::from_millis(*dur_ms);
                p = match kind {
                    0 => p.crash_worker(at, *worker, dur),
                    1 => p.straggler(at, *worker, 0.25 + (*lat_ms as f64) / 100.0, dur),
                    2 => p.oom_window(at, dur),
                    _ => p.rpc_spike(at, *worker, SimDuration::from_millis(*lat_ms), dur),
                };
            }
            p
        };
        let run = |traced: bool| {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
            let mut job = ClusterJob::new(pipeline)
                .seed(0xD1CE)
                .faults(plan())
                .checkpoint(SimDuration::from_millis(700));
            if supervise {
                job = job.supervise(SupervisorConfig::new().hedge(0.5));
            }
            let mut builder = Cluster::builder().job(job).cost_report(false);
            if traced {
                builder = builder.trace(SimTracer::shared());
            }
            let mut cluster = builder.build();
            for _ in 0..2 {
                let _ =
                    cluster.submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new());
            }
            let _ = cluster.submit_with(
                Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_300)),
                SubmitOptions::new().retry(RetryPolicy::new(4, SimDuration::from_millis(250))),
            );
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let j = &r.jobs[0];
            format!(
                "{:?}|{:?}|{:?}|{}|{}|{}",
                j.tasks
                    .iter()
                    .map(|t| (t.id, t.worker, t.steps, t.stop_reason))
                    .collect::<Vec<_>>(),
                j.recoveries,
                r.health,
                r.total_rejections(),
                r.events_processed,
                j.total_time,
            )
        };
        let untraced = run(false);
        let traced = run(true);
        prop_assert_eq!(
            digest(&untraced),
            digest(&traced),
            "tracing perturbed the run on fault trace {:?}",
            events
        );
        prop_assert!(untraced.trace_summary.is_none(), "no sink, no summary");
        let summary = traced.trace_summary.as_ref().expect("tracing armed");
        prop_assert!(summary.events > 0, "armed tracer saw no events");
        prop_assert!(
            summary.by_kind.contains_key("bubble-begin"),
            "training bubbles must be traced"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Health determinism: with the supervisor armed — heartbeat RPCs,
    /// migration on Suspect, hedging — an arbitrary fault trace
    /// still replays digest-identically, where the digest now includes
    /// the detector's full transition log, the TTD/TTR samples, and the
    /// per-recovery attribution. Supervision reacts to the event stream,
    /// so any replay divergence would smear straight into this digest.
    #[test]
    fn any_fault_trace_replays_identically_under_supervision(
        events in prop::collection::vec(
            (0u8..4, 500u64..11_000, 0usize..4, 200u64..3_000, 1u64..50),
            0..5,
        ),
        hedge in any::<bool>(),
    ) {
        let plan = || {
            let mut p = FaultPlan::new();
            for (kind, at_ms, worker, dur_ms, lat_ms) in &events {
                let at = SimTime::from_millis(*at_ms);
                let dur = SimDuration::from_millis(*dur_ms);
                p = match kind {
                    0 => p.crash_worker(at, *worker, dur),
                    1 => p.straggler(at, *worker, 0.25 + (*lat_ms as f64) / 100.0, dur),
                    2 => p.oom_window(at, dur),
                    _ => p.rpc_spike(at, *worker, SimDuration::from_millis(*lat_ms), dur),
                };
            }
            p
        };
        let run = || {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
            let supervise = if hedge {
                SupervisorConfig::new().hedge(0.5)
            } else {
                SupervisorConfig::new()
            };
            let job = ClusterJob::new(pipeline)
                .seed(0xD1CE)
                .faults(plan())
                .checkpoint(SimDuration::from_millis(700))
                .supervise(supervise);
            let mut cluster = Cluster::builder().job(job).cost_report(false).build();
            for _ in 0..2 {
                let _ =
                    cluster.submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new());
            }
            let _ = cluster.submit_with(
                Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_300)),
                SubmitOptions::new().retry(RetryPolicy::new(4, SimDuration::from_millis(250))),
            );
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let j = &r.jobs[0];
            format!(
                "{:?}|{:?}|{:?}|{}|{}|{}",
                j.tasks
                    .iter()
                    .map(|t| (t.id, t.worker, t.steps, t.stop_reason))
                    .collect::<Vec<_>>(),
                j.recoveries,
                r.health,
                r.total_rejections(),
                r.events_processed,
                j.total_time,
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(
            digest(&a),
            digest(&b),
            "supervised fault trace {:?} diverged on replay",
            events
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Service determinism: an arbitrary middleware stack — any mix of
    /// admission control, quotas, shedding/delaying rate limiters,
    /// priority tags, and deadlines, in any order — driven by an
    /// arbitrary generated arrival trace, replayed twice, yields an
    /// identical service report. The front-end must not break the
    /// simulation's replay contract.
    #[test]
    fn any_middleware_stack_replays_identically(
        layers in prop::collection::vec(
            (0u8..5, 1usize..12, 200u64..4_000, 1u64..40),
            0..5,
        ),
        seed in 1u64..u64::MAX,
        poisson in any::<bool>(),
        rate_x10 in 5u64..40,
    ) {
        let trace = || {
            let process = if poisson {
                ArrivalProcess::Poisson { rate_per_sec: rate_x10 as f64 / 10.0 }
            } else {
                ArrivalProcess::OnOff {
                    on: SimDuration::from_millis(800),
                    off: SimDuration::from_millis(1_700),
                    rate_per_sec: rate_x10 as f64 / 4.0,
                }
            };
            TrafficGen::new(seed)
                .duration(SimDuration::from_secs(10))
                .class(
                    TrafficClass::new("alpha", process)
                        .workload(WorkloadKind::PageRank, 2.0)
                        .workload(WorkloadKind::ImageProc, 1.0),
                )
                .generate()
        };
        let run = || {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2);
            let mut builder = Cluster::builder()
                .job(ClusterJob::new(pipeline).seed(seed))
                .cost_report(false)
                .layer(ServiceMetrics::new());
            for (kind, limit, ms, rate_x10) in &layers {
                let window = SimDuration::from_millis(*ms);
                let rate = *rate_x10 as f64 / 10.0;
                builder = match kind {
                    0 => builder.layer(AdmissionControl::new(*limit, window)),
                    1 => builder.layer(TenantQuota::new(*limit, window)),
                    2 => builder.layer(RateLimit::new(rate, *limit)),
                    3 => builder
                        .layer(RateLimit::new(rate, *limit).mode(RateLimitMode::Delay)),
                    _ => builder.layer(PriorityTag::new("prop")),
                };
            }
            let mut cluster = builder
                .layer(DeadlineLayer::new(SimDuration::from_millis(2_500)))
                .build();
            for arrival in trace() {
                let _ = cluster.submit_with(
                    Submission::new(arrival.kind).at(arrival.at),
                    SubmitOptions::new().tenant(arrival.tenant),
                );
            }
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let s = r.service.as_ref().expect("metrics layer registered");
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
                s.layers,
                s.placement,
                s.tenants,
                s.rejections_by_kind,
                s.latency.as_ref().map(|h| (h.len(), h.p50(), h.p99(), h.p999())),
                r.events_processed,
                r.makespan(),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(digest(&a), digest(&b), "stack {:?} diverged on replay", layers);
    }
}
