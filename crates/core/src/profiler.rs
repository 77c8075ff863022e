//! The automated side-task profiler (paper §4.3, workflow step ➋).
//!
//! Before a side task is submitted, FreeRide runs it on an idle GPU and
//! records the two characteristics the manager needs: GPU memory
//! consumption and — for iterative tasks only — the per-step duration
//! (timestamps around each `RunNextStep()`). Imperative tasks are not
//! step-wise, so only their memory is profiled, exactly as the paper
//! specifies.
//!
//! In this reproduction the profiler executes the task's real workload on
//! a dedicated simulated device and measures what the device observed —
//! the measured numbers must agree with the calibrated
//! [`WorkloadProfile`], which is itself what the paper's profiler would
//! have produced on Server-I.

use crate::config::InterfaceKind;
use freeride_gpu::{GpuId, HardwareSpec, KernelSpec, MemBytes, Priority, SharingKind};
use freeride_sim::{SimDuration, SimTime};
use freeride_tasks::{SideTaskWorkload, WorkloadProfile};

/// What the profiler measured (step ➋'s output, submitted to the manager
/// together with the task in step ➌).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredProfile {
    /// Peak GPU memory the task process held.
    pub gpu_memory: MemBytes,
    /// Mean per-step duration; `None` for imperative tasks (§4.3: "the
    /// automated profiling tool does not measure the per-step duration").
    pub per_step: Option<SimDuration>,
    /// Steps executed during profiling.
    pub steps_measured: u64,
}

/// Runs `workload` standalone on an idle simulated GPU for `steps` steps
/// and measures its characteristics.
///
/// `declared` supplies the physical constants the simulator needs (the
/// footprint to allocate and the solo kernel duration); on real hardware
/// these are properties of the binary itself.
///
/// # Panics
///
/// Panics if `steps` is zero for an iterative task — a step-wise profile
/// needs at least one step.
pub fn profile_side_task(
    workload: &mut dyn SideTaskWorkload,
    declared: &WorkloadProfile,
    interface: InterfaceKind,
    steps: u64,
) -> MeasuredProfile {
    profile_side_task_on(
        workload,
        declared,
        interface,
        steps,
        &HardwareSpec::rtx6000ada_48g(),
    )
}

/// [`profile_side_task`] on specific hardware: the profiling device is
/// built from `hardware`, so the measured per-step duration reflects that
/// GPU's compute speed — what an operator profiling a task for a
/// heterogeneous fleet would observe per device class.
///
/// # Panics
///
/// Panics if `steps` is zero for an iterative task.
pub fn profile_side_task_on(
    workload: &mut dyn SideTaskWorkload,
    declared: &WorkloadProfile,
    interface: InterfaceKind,
    steps: u64,
    hardware: &HardwareSpec,
) -> MeasuredProfile {
    if interface == InterfaceKind::Iterative {
        assert!(steps > 0, "need at least one step to profile");
    }
    // A dedicated profiling device: nothing else runs (the paper profiles
    // offline or before serving).
    let mut device = hardware.build_device(GpuId(0), SharingKind::Prioritized);
    let pid = device.register_process("profiler.task", Priority::Low, None);

    workload.create();
    workload.init_gpu();
    device
        .alloc(pid, declared.gpu_mem)
        .expect("profiling device is empty");
    let peak = device.process(pid).expect("registered").allocated();

    let mut now = SimTime::ZERO;
    let mut total = SimDuration::ZERO;
    let mut executed = 0;
    if interface == InterfaceKind::Iterative {
        for _ in 0..steps {
            // Timestamp at RunNextStep() entry…
            let begin = now;
            device
                .launch(
                    now,
                    KernelSpec::new(
                        pid,
                        declared.step_server1,
                        declared.sm_demand,
                        Priority::Low,
                        "profile.step",
                    ),
                )
                .expect("profiling process alive");
            let done = device.next_completion_time().expect("kernel in flight");
            let completions = device.advance_through(done);
            debug_assert_eq!(completions.len(), 1);
            now = done;
            // …and at its exit.
            total += now - begin;
            workload.run_step();
            executed += 1;
        }
    }

    MeasuredProfile {
        gpu_memory: peak,
        per_step: (executed > 0).then(|| total / executed),
        steps_measured: executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeride_tasks::WorkloadKind;

    #[test]
    fn iterative_profile_matches_calibration() {
        for kind in WorkloadKind::ALL {
            let declared = kind.profile();
            let mut workload = kind.build(1);
            let measured =
                profile_side_task(workload.as_mut(), &declared, InterfaceKind::Iterative, 5);
            assert_eq!(measured.gpu_memory, declared.gpu_mem, "{kind:?}");
            assert_eq!(measured.per_step, Some(declared.step_server1), "{kind:?}");
            assert_eq!(measured.steps_measured, 5);
            assert_eq!(workload.steps_done(), 5, "{kind:?}: real work ran");
        }
    }

    #[test]
    fn imperative_profile_skips_step_duration() {
        let kind = WorkloadKind::ImageProc;
        let mut workload = kind.build(2);
        let measured = profile_side_task(
            workload.as_mut(),
            &kind.profile(),
            InterfaceKind::Imperative,
            0,
        );
        assert_eq!(measured.per_step, None);
        assert_eq!(measured.steps_measured, 0);
        assert_eq!(measured.gpu_memory, kind.profile().gpu_mem);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected_for_iterative() {
        let kind = WorkloadKind::PageRank;
        let mut workload = kind.build(3);
        profile_side_task(
            workload.as_mut(),
            &kind.profile(),
            InterfaceKind::Iterative,
            0,
        );
    }

    #[test]
    fn per_step_scales_with_hardware_speed() {
        let kind = WorkloadKind::PageRank;
        let declared = kind.profile();
        let reference = {
            let mut w = kind.build(1);
            profile_side_task(w.as_mut(), &declared, InterfaceKind::Iterative, 4)
        };
        let h100 = {
            let mut w = kind.build(1);
            profile_side_task_on(
                w.as_mut(),
                &declared,
                InterfaceKind::Iterative,
                4,
                &HardwareSpec::h100_80g(),
            )
        };
        let l4 = {
            let mut w = kind.build(1);
            profile_side_task_on(
                w.as_mut(),
                &declared,
                InterfaceKind::Iterative,
                4,
                &HardwareSpec::l4_24g(),
            )
        };
        assert_eq!(reference.per_step, Some(declared.step_server1));
        assert!(h100.per_step.unwrap() < reference.per_step.unwrap());
        assert!(l4.per_step.unwrap() > reference.per_step.unwrap());
        // Memory is speed-independent.
        assert_eq!(h100.gpu_memory, reference.gpu_memory);
    }

    #[test]
    fn profiling_is_deterministic() {
        let kind = WorkloadKind::GraphSgd;
        let run = || {
            let mut w = kind.build(9);
            profile_side_task(w.as_mut(), &kind.profile(), InterfaceKind::Iterative, 3)
        };
        assert_eq!(run(), run());
    }
}
