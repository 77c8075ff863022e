//! Criterion micro-benchmarks of the reproduction's hot paths: the event
//! queue, the GPU device fluid model, schedule construction, the manager's
//! Algorithms 1 & 2, the seeded RNG's draw path, a step of each real side
//! task the paper's tables run (PageRank, ResNet18, ResNet50, VGG19, Image;
//! PageRank also computing and replaying its limit cycle and settling a
//! fresh task's steps, Image also in a batch of a thousand), and a full
//! simulated training epoch with and without FreeRide.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use freeride_core::{run_colocation, FreeRideConfig, SideTaskManager, Submission, TaskId};
use freeride_gpu::{GpuDevice, GpuId, KernelSpec, MemBytes, MpsPrioritized, Priority};
use freeride_pipeline::{run_training, ModelSpec, PipelineConfig, Schedule, ScheduleKind};
use freeride_sim::{DetRng, EventQueue, SimDuration, SimTime};
use freeride_tasks::{CsrGraph, PageRank, WorkloadKind};
use rand::RngCore;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue push+pop 1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // The slot/generation scheme's stress case: half of all scheduled
    // events are cancelled, so pops must purge tombstone runs while slots
    // recycle.
    c.bench_function("sim/event_queue 50% cancellations 1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut ids = Vec::with_capacity(1000);
            for i in 0..1000u64 {
                ids.push(q.push(SimTime::from_nanos((i * 7919) % 100_000), i));
            }
            for id in ids.iter().skip(1).step_by(2) {
                q.cancel(*id);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box((acc, q.len()))
        })
    });
}

fn bench_device(c: &mut Criterion) {
    c.bench_function("gpu/device co-run advance", |b| {
        b.iter(|| {
            let mut d = GpuDevice::new(
                GpuId(0),
                MemBytes::from_gib(48),
                Box::new(MpsPrioritized::default()),
            );
            let train = d.register_process("t", Priority::High, None);
            let side = d.register_process("s", Priority::Low, None);
            let mut now = SimTime::ZERO;
            for _ in 0..50 {
                d.launch(
                    now,
                    KernelSpec::new(
                        train,
                        SimDuration::from_millis(10),
                        1.0,
                        Priority::High,
                        "fp",
                    ),
                )
                .unwrap();
                d.launch(
                    now,
                    KernelSpec::new(side, SimDuration::from_millis(3), 0.5, Priority::Low, "s"),
                )
                .unwrap();
                now = d.next_completion_time().unwrap();
                let done = d.advance_through(now);
                black_box(done.len());
                now = d.next_completion_time().map(|t| t.max(now)).unwrap_or(now);
                let done = d.advance_through(now);
                black_box(done.len());
            }
        })
    });
}

fn bench_schedule(c: &mut Criterion) {
    c.bench_function("pipeline/schedule 1f1b 8x32", |b| {
        b.iter(|| {
            let s = Schedule::one_f_one_b(8, 32);
            black_box(s.stage_plan(0).len())
        })
    });
}

fn bench_manager(c: &mut Criterion) {
    c.bench_function("core/manager submit+poll", |b| {
        b.iter(|| {
            let mut m = SideTaskManager::new(vec![MemBytes::from_gib(10); 4]);
            for i in 0..16u64 {
                let _ = m.submit(TaskId(i), MemBytes::from_gib(2));
            }
            for t in 0..100u64 {
                black_box(m.poll(SimTime::from_millis(t)).len());
            }
        })
    });
    // Algorithm 2 with a reused caller-owned buffer: 8 workers, 16 queued
    // tasks each awaiting its Create ack, polled 100 times with no input
    // in between, so no poll issues a command.
    c.bench_function("core/manager poll_into 8 workers deep queues", |b| {
        let mut m = SideTaskManager::new(vec![MemBytes::from_gib(24); 8]);
        for i in 0..128u64 {
            let _ = m.submit(TaskId(i), MemBytes::from_gib(1));
        }
        let mut buf = Vec::new();
        b.iter(|| {
            for t in 0..100u64 {
                buf.clear();
                m.poll_into(SimTime::from_millis(t), &mut buf);
                black_box(buf.len());
            }
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    // A thousand draws per iteration: one draw is shorter than the
    // harness's own clock read.
    c.bench_function("sim/detrng next_u64 x1000", |b| {
        let mut rng = DetRng::seed_from_u64(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });
}

fn bench_workload_steps(c: &mut Criterion) {
    // Built through `WorkloadKind::build`, so each bench steps exactly the
    // computation a cluster side task of that kind runs: same sizes, same
    // batch, same seeding.
    for kind in [
        WorkloadKind::PageRank,
        WorkloadKind::ResNet18,
        WorkloadKind::ResNet50,
        WorkloadKind::Vgg19,
        WorkloadKind::ImageProc,
    ] {
        c.bench_function(&format!("tasks/{} step", kind.name()), |b| {
            let mut task = kind.build(1);
            task.create();
            task.init_gpu();
            b.iter(|| black_box(task.run_step()))
        });
    }
    // A worker settles an Image task's charged steps in one `run_steps`
    // call, which seeks the pixel stream past all but the last image: a
    // thousand steps should cost about one `tasks/Image step`.
    c.bench_function("tasks/Image run_steps(1000)", |b| {
        let mut task = WorkloadKind::ImageProc.build(1);
        task.create();
        task.init_gpu();
        b.iter(|| black_box(task.run_steps(1000)))
    });
    // The PageRank task built at seed 1 computes its first 69 steps and
    // replays its bit-exact limit cycle from then on, so `tasks/PageRank
    // step` times computed steps only while the harness makes fewer calls
    // than that (it makes at most 51). These two time each phase on that
    // task's graph.
    let graph = CsrGraph::power_law(1000, 4, &mut DetRng::seed_from_u64(1));
    c.bench_function("tasks/PageRank first 60 steps", |b| {
        b.iter(|| {
            let mut pr = PageRank::new(graph.clone());
            for _ in 0..60 {
                black_box(pr.step());
            }
            pr.iterations()
        })
    });
    c.bench_function("tasks/PageRank converged step x1000", |b| {
        let mut pr = PageRank::new(graph.clone());
        for _ in 0..200 {
            pr.step();
        }
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += pr.step();
            }
            black_box(acc)
        })
    });
    // Each `online_traffic` worker settles a PageRank task's ~22,500
    // charged steps in one `run_steps` call on a fresh task: the computed
    // steps, then one jump through the replayed cycle. The harness makes at
    // most 51 calls, each on a task built beforehand, so a row times the
    // settle alone.
    let mut fresh: Vec<_> = (0..51)
        .map(|_| {
            let mut task = WorkloadKind::PageRank.build(1);
            task.create();
            task.init_gpu();
            task
        })
        .collect();
    c.bench_function("tasks/PageRank settle 22,500 steps", |b| {
        b.iter(|| fresh.pop().and_then(|mut task| task.run_steps(22_500)))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2);
    let mut group = c.benchmark_group("e2e");
    group.sample_size(10);
    group.bench_function("train 2 epochs (no side tasks)", |b| {
        b.iter(|| black_box(run_training(&cfg, ScheduleKind::OneFOneB).total_time))
    });
    group.bench_function("train 2 epochs + pagerank (freeride)", |b| {
        b.iter(|| {
            let run = run_colocation(
                &cfg,
                &FreeRideConfig::iterative(),
                &Submission::per_worker(WorkloadKind::PageRank, 4),
            );
            black_box(run.events_processed)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_device,
    bench_schedule,
    bench_manager,
    bench_rng,
    bench_workload_steps,
    bench_end_to_end
);
criterion_main!(benches);
