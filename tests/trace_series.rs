//! Output-identity pin for the Fig. 1/8 time series.
//!
//! Every series a run records is reduced to its name, its sample count and
//! an FNV-1a digest of its `(time, value bits)` pairs, and compared with
//! constants. Any change to when or what the recorders sample, however
//! small, fails here.

mod common;

use common::Fnv;
use freeride::prelude::*;
use freeride::sim::TraceRecorder;

/// `(name, samples, FNV-1a digest)` of one series.
type SeriesPin = (&'static str, usize, u64);

/// Every series of `trace`, in name order.
fn pins(trace: &TraceRecorder) -> Vec<(String, usize, u64)> {
    trace
        .iter()
        .map(|(name, series)| {
            let mut h = Fnv::new();
            for s in series.samples() {
                h.word(s.time.as_nanos());
                h.word(s.value.to_bits());
            }
            (name.to_owned(), series.samples().len(), h.finish())
        })
        .collect()
}

fn assert_pinned(trace: &TraceRecorder, expected: &[SeriesPin]) {
    let actual = pins(trace);
    let expected: Vec<(String, usize, u64)> = expected
        .iter()
        .map(|&(n, c, d)| (n.to_owned(), c, d))
        .collect();
    assert_eq!(actual, expected, "series changed: {actual:#x?}");
}

fn pipeline() -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2)
}

#[test]
fn colocation_memory_series_are_pinned() {
    // Healthy tasks fill workers 0-2 and a leaking task lands on stage 3,
    // so that worker's memory series climbs step by step until the cap
    // kills the task.
    let mut subs: Vec<Submission> = (0..3)
        .map(|_| Submission::new(WorkloadKind::PageRank))
        .collect();
    subs.push(
        Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::LeakMemory {
            per_step: MemBytes::from_mib(128),
        }),
    );
    let run = run_colocation(&pipeline(), &FreeRideConfig::iterative(), &subs);
    assert_pinned(
        &run.trace,
        &[
            ("gpu0.mem", 3, 0x2a72_7b75_418c_1ec7),
            ("gpu1.mem", 3, 0x5a2f_3110_fc94_ec09),
            ("gpu2.mem", 3, 0x2923_103b_b139_503e),
            ("gpu3.mem", 7, 0x3762_064d_e2bc_40ce),
        ],
    );
}

#[test]
fn training_series_are_pinned() {
    let run = run_training(&pipeline(), ScheduleKind::OneFOneB);
    assert_pinned(
        &run.trace,
        &[
            ("stage0.mem.used", 1, 0x23c0_1931_6343_9036),
            ("stage0.sm", 28, 0x9667_acdb_ab48_6039),
            ("stage1.mem.used", 1, 0x95f8_7046_6cb3_a61d),
            ("stage1.sm", 27, 0xa47c_51f5_54ba_0f36),
            ("stage2.mem.used", 1, 0xe638_d85e_b34e_917d),
            ("stage2.sm", 27, 0xe91c_37ce_fa68_ba7a),
            ("stage3.mem.used", 1, 0x5108_c0f1_1508_00fc),
            ("stage3.sm", 25, 0x7574_cbc0_9c18_2b33),
        ],
    );
}
