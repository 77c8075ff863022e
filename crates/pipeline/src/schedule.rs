//! Static pipeline schedules: the per-stage operation sequences DeepSpeed
//! builds before an epoch starts.
//!
//! Two schedules are implemented:
//!
//! * [`Schedule::one_f_one_b`] — PipeDream-Flush / DeepSpeed's default:
//!   warm-up forwards, a steady 1F1B phase, and a cool-down of backwards.
//!   This is the schedule behind the paper's Figure 1.
//! * [`Schedule::gpipe`] — all forwards, then all backwards; same bubble
//!   rate, different shapes. Used for the schedule ablation.
//!
//! Cross-stage data dependencies (`FP(s,m)` needs `FP(s−1,m)`; `BP(s,m)`
//! needs `BP(s+1,m)`) are properties of pipeline parallelism itself, not of
//! the schedule, and are enforced by the engine at run time.

use crate::config::StageId;

/// What a pipeline operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Forward propagation of one micro-batch.
    Forward,
    /// Backward propagation of one micro-batch (≈ 2× forward time).
    Backward,
    /// Per-stage optimizer step at the end of an epoch.
    OptimizerStep,
}

/// One operation in a stage's per-epoch plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Forward, backward, or optimizer step.
    pub kind: OpKind,
    /// Micro-batch index (0 for [`OpKind::OptimizerStep`]).
    pub micro_batch: usize,
}

impl Op {
    /// Forward op on micro-batch `m`.
    pub fn fp(m: usize) -> Self {
        Op {
            kind: OpKind::Forward,
            micro_batch: m,
        }
    }

    /// Backward op on micro-batch `m`.
    pub fn bp(m: usize) -> Self {
        Op {
            kind: OpKind::Backward,
            micro_batch: m,
        }
    }

    /// Optimizer step.
    pub fn opt() -> Self {
        Op {
            kind: OpKind::OptimizerStep,
            micro_batch: 0,
        }
    }
}

/// Which schedule to build; carried in configs and experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// DeepSpeed default (PipeDream-Flush).
    OneFOneB,
    /// GPipe: all forwards then all backwards.
    GPipe,
}

/// Per-stage operation sequences for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    stages: Vec<Vec<Op>>,
    micro_batches: usize,
    kind: ScheduleKind,
}

impl Schedule {
    /// Builds the requested schedule kind.
    pub fn build(kind: ScheduleKind, stages: usize, micro_batches: usize) -> Self {
        match kind {
            ScheduleKind::OneFOneB => Self::one_f_one_b(stages, micro_batches),
            ScheduleKind::GPipe => Self::gpipe(stages, micro_batches),
        }
    }

    /// DeepSpeed's default 1F1B schedule.
    ///
    /// Stage `s` of `S` performs `min(M, S−1−s)` warm-up forwards, then
    /// alternates forward/backward, then drains the remaining backwards,
    /// then runs its optimizer step.
    pub fn one_f_one_b(stages: usize, micro_batches: usize) -> Self {
        assert!(stages >= 2 && micro_batches >= 1);
        let plans = (0..stages)
            .map(|s| {
                let warmup = (stages - 1 - s).min(micro_batches);
                let mut plan = Vec::with_capacity(2 * micro_batches + 1);
                for m in 0..warmup {
                    plan.push(Op::fp(m));
                }
                for m in warmup..micro_batches {
                    plan.push(Op::fp(m));
                    plan.push(Op::bp(m - warmup));
                }
                for m in (micro_batches - warmup.min(micro_batches))..micro_batches {
                    plan.push(Op::bp(m));
                }
                plan.push(Op::opt());
                plan
            })
            .collect();
        Schedule {
            stages: plans,
            micro_batches,
            kind: ScheduleKind::OneFOneB,
        }
    }

    /// GPipe: all forwards in micro-batch order, then all backwards.
    pub fn gpipe(stages: usize, micro_batches: usize) -> Self {
        assert!(stages >= 2 && micro_batches >= 1);
        let plans = (0..stages)
            .map(|_| {
                let mut plan = Vec::with_capacity(2 * micro_batches + 1);
                for m in 0..micro_batches {
                    plan.push(Op::fp(m));
                }
                for m in 0..micro_batches {
                    plan.push(Op::bp(m));
                }
                plan.push(Op::opt());
                plan
            })
            .collect();
        Schedule {
            stages: plans,
            micro_batches,
            kind: ScheduleKind::GPipe,
        }
    }

    /// The plan for one stage.
    pub fn stage_plan(&self, stage: StageId) -> &[Op] {
        &self.stages[stage]
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of micro-batches.
    pub fn micro_batches(&self) -> usize {
        self.micro_batches
    }

    /// The schedule kind this was built as.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// Checks structural invariants every valid pipeline schedule must
    /// satisfy; used by tests and property-based checks.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on the first violated invariant.
    pub fn assert_valid(&self) {
        let m = self.micro_batches;
        for (s, plan) in self.stages.iter().enumerate() {
            let fps: Vec<usize> = plan
                .iter()
                .filter(|o| o.kind == OpKind::Forward)
                .map(|o| o.micro_batch)
                .collect();
            let bps: Vec<usize> = plan
                .iter()
                .filter(|o| o.kind == OpKind::Backward)
                .map(|o| o.micro_batch)
                .collect();
            assert_eq!(
                fps,
                (0..m).collect::<Vec<_>>(),
                "stage {s}: FP coverage/order"
            );
            assert_eq!(
                bps,
                (0..m).collect::<Vec<_>>(),
                "stage {s}: BP coverage/order"
            );
            // FP(m) precedes BP(m) on the same stage.
            for mb in 0..m {
                let f = plan
                    .iter()
                    .position(|o| *o == Op::fp(mb))
                    .expect("fp present");
                let b = plan
                    .iter()
                    .position(|o| *o == Op::bp(mb))
                    .expect("bp present");
                assert!(f < b, "stage {s}: FP({mb}) must precede BP({mb})");
            }
            // Exactly one optimizer step, last.
            assert_eq!(
                plan.iter()
                    .filter(|o| o.kind == OpKind::OptimizerStep)
                    .count(),
                1,
                "stage {s}: one optimizer step"
            );
            assert_eq!(plan.last(), Some(&Op::opt()), "stage {s}: optimizer last");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_f_one_b_matches_textbook_4x4() {
        let s = Schedule::one_f_one_b(4, 4);
        s.assert_valid();
        // Stage 0: 3 warmups, one 1F1B pair, 3 cooldown backwards.
        assert_eq!(
            s.stage_plan(0),
            &[
                Op::fp(0),
                Op::fp(1),
                Op::fp(2),
                Op::fp(3),
                Op::bp(0),
                Op::bp(1),
                Op::bp(2),
                Op::bp(3),
                Op::opt()
            ]
        );
        // Last stage: pure 1F1B alternation.
        assert_eq!(
            s.stage_plan(3),
            &[
                Op::fp(0),
                Op::bp(0),
                Op::fp(1),
                Op::bp(1),
                Op::fp(2),
                Op::bp(2),
                Op::fp(3),
                Op::bp(3),
                Op::opt()
            ]
        );
        // Stage 2: warmup 1.
        assert_eq!(
            s.stage_plan(2),
            &[
                Op::fp(0),
                Op::fp(1),
                Op::bp(0),
                Op::fp(2),
                Op::bp(1),
                Op::fp(3),
                Op::bp(2),
                Op::bp(3),
                Op::opt()
            ]
        );
    }

    #[test]
    fn gpipe_shape() {
        let s = Schedule::gpipe(4, 4);
        s.assert_valid();
        assert_eq!(
            s.stage_plan(1),
            &[
                Op::fp(0),
                Op::fp(1),
                Op::fp(2),
                Op::fp(3),
                Op::bp(0),
                Op::bp(1),
                Op::bp(2),
                Op::bp(3),
                Op::opt()
            ]
        );
    }

    #[test]
    fn valid_for_many_shapes() {
        for stages in 2..=8 {
            for m in 1..=16 {
                Schedule::one_f_one_b(stages, m).assert_valid();
                Schedule::gpipe(stages, m).assert_valid();
            }
        }
    }

    #[test]
    fn warmup_capped_by_micro_batches() {
        // 6 stages, 2 micro-batches: warmup at stage 0 would be 5, capped
        // to 2.
        let s = Schedule::one_f_one_b(6, 2);
        s.assert_valid();
        assert_eq!(
            s.stage_plan(0),
            &[Op::fp(0), Op::fp(1), Op::bp(0), Op::bp(1), Op::opt()]
        );
    }

    #[test]
    fn build_dispatches_on_kind() {
        assert_eq!(
            Schedule::build(ScheduleKind::OneFOneB, 4, 4),
            Schedule::one_f_one_b(4, 4)
        );
        assert_eq!(
            Schedule::build(ScheduleKind::GPipe, 4, 4),
            Schedule::gpipe(4, 4)
        );
    }

    #[test]
    fn plan_lengths() {
        let s = Schedule::one_f_one_b(4, 8);
        for st in 0..4 {
            assert_eq!(s.stage_plan(st).len(), 2 * 8 + 1);
        }
        assert_eq!(s.micro_batches(), 8);
        assert_eq!(s.num_stages(), 4);
        assert_eq!(s.kind(), ScheduleKind::OneFOneB);
    }
}
