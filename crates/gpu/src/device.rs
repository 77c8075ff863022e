//! The simulated GPU device: processes, memory, and kernel execution.
//!
//! A device executes a set of *active kernels*. Each kernel carries its
//! remaining solo-time; the device's [`InterferenceModel`] assigns every
//! kernel a speed in `(0, 1]` that depends on what else is running, and the
//! remaining solo-time drains at that speed. Whenever the active set changes
//! (launch, completion, process kill) speeds are recomputed — exactly the
//! fluid-flow approximation used by GPU-sharing simulators.
//!
//! The device is passive: it never schedules events itself. Callers drive
//! it with [`GpuDevice::advance_through`] and consult
//! [`GpuDevice::next_completion_time`] to know when to call back. This keeps
//! the crate independent of any particular [`World`] layout.
//!
//! [`World`]: freeride_sim::World

use crate::ids::{GpuId, KernelId, ProcessId};
use crate::interference::{InterferenceModel, KernelCtx};
use crate::kernel::{KernelCompletion, KernelSpec, Priority};
use crate::memory::{MemBytes, MemoryPool, OomKind};
use freeride_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Liveness of a process context on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Running normally.
    Alive,
    /// Terminated because it exceeded its MPS memory cap.
    OomKilled,
    /// Terminated by an explicit kill (e.g. the framework-enforced limit's
    /// `SIGKILL`, §4.5).
    Killed,
}

/// A process context registered on a device.
#[derive(Debug, Clone)]
pub struct GpuProcess {
    /// The process id.
    pub id: ProcessId,
    /// Diagnostic name (e.g. `"train.stage2"`, `"side.resnet18"`).
    pub name: String,
    /// Kernel priority for all of this process's launches.
    pub priority: Priority,
    /// MPS memory cap; `None` means uncapped (the training job).
    pub mem_limit: Option<MemBytes>,
    allocated: MemBytes,
    state: ProcessState,
}

impl GpuProcess {
    /// Bytes currently allocated by this process.
    pub fn allocated(&self) -> MemBytes {
        self.allocated
    }

    /// Current liveness.
    pub fn state(&self) -> ProcessState {
        self.state
    }

    /// Whether the process can allocate and launch.
    pub fn is_alive(&self) -> bool {
        self.state == ProcessState::Alive
    }
}

/// Error launching a kernel.
///
/// Marked `#[non_exhaustive]`: device-model growth adds launch failure
/// modes, so downstream matches must carry a `_` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LaunchError {
    /// The process id was never registered on this device.
    UnknownProcess,
    /// The process has been killed (OOM or explicit).
    ProcessDead,
}

impl core::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LaunchError::UnknownProcess => write!(f, "unknown process"),
            LaunchError::ProcessDead => write!(f, "process is dead"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Error allocating device memory.
///
/// Marked `#[non_exhaustive]`: future growth may attach more context
/// (e.g. the fault window that induced the failure) without breaking
/// downstream destructuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct OomError {
    /// Whether the per-process cap or the physical device ran out.
    pub kind: OomKind,
    /// The process that attempted the allocation.
    pub process: ProcessId,
    /// The attempted allocation size.
    pub requested: MemBytes,
}

impl core::fmt::Display for OomError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} requesting {}: {}",
            self.process, self.requested, self.kind
        )
    }
}

impl std::error::Error for OomError {}

struct ActiveKernel {
    id: KernelId,
    process: ProcessId,
    priority: Priority,
    sm_demand: f64,
    intensity: f64,
    tag: &'static str,
    launched_at: SimTime,
    solo: SimDuration,
    /// Remaining solo-time in nanoseconds.
    remaining: f64,
    /// Current execution speed from the interference model.
    speed: f64,
}

/// Epsilon under which remaining work counts as finished (half a nanosecond
/// of solo-time absorbs f64 rounding).
const DONE_EPSILON: f64 = 0.5;

/// A simulated GPU.
pub struct GpuDevice {
    id: GpuId,
    mem: MemoryPool,
    procs: BTreeMap<ProcessId, GpuProcess>,
    active: Vec<ActiveKernel>,
    model: Box<dyn InterferenceModel>,
    /// Relative compute speed (reference hardware = `1.0`): the factor at
    /// which this device retires kernel solo-time compared to the paper's
    /// reference GPU. See [`crate::HardwareSpec`].
    compute_speed: f64,
    last_advance: SimTime,
    next_pid: u64,
    next_kid: u64,
    /// Scratch buffers reused across [`GpuDevice::recompute_speeds`] calls
    /// (one call per launch/completion/kill — the fluid model's hot path).
    ctx_buf: Vec<KernelCtx>,
    speed_buf: Vec<f64>,
}

impl GpuDevice {
    /// Creates a device with `total_mem` physical memory and the given
    /// sharing model, at the reference compute speed (`1.0`).
    pub fn new(id: GpuId, total_mem: MemBytes, model: Box<dyn InterferenceModel>) -> Self {
        GpuDevice {
            id,
            mem: MemoryPool::new(total_mem),
            procs: BTreeMap::new(),
            active: Vec::new(),
            model,
            compute_speed: 1.0,
            last_advance: SimTime::ZERO,
            next_pid: 0,
            next_kid: 0,
            ctx_buf: Vec::new(),
            speed_buf: Vec::new(),
        }
    }

    /// Overrides the relative compute speed (builder style). Kernels on a
    /// device at speed `s` retire solo-time `s`× as fast as on the
    /// reference hardware; `1.0` (the default) reproduces the pre-hardware
    /// behavior exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `speed` is finite and positive.
    pub fn with_compute_speed(mut self, speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "compute speed must be finite and positive, got {speed}"
        );
        self.compute_speed = speed;
        self
    }

    /// Device id.
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// Relative compute speed of this device (reference = `1.0`).
    pub fn compute_speed(&self) -> f64 {
        self.compute_speed
    }

    /// Changes the relative compute speed at `now` — the runtime seam for
    /// transient throttling (straggler fault injection, thermal events).
    /// In-flight kernels keep the solo-time they have already retired and
    /// drain the remainder at the new speed; future launches scale
    /// entirely by it.
    ///
    /// # Panics
    ///
    /// Panics unless `speed` is finite and positive, or if a completion
    /// strictly before `now` has not been drained — call
    /// [`GpuDevice::advance_through`] first.
    pub fn set_compute_speed(&mut self, now: SimTime, speed: f64) {
        assert!(
            speed.is_finite() && speed > 0.0,
            "compute speed must be finite and positive, got {speed}"
        );
        self.advance_clock_no_completions(now);
        self.compute_speed = speed;
    }

    /// Wall-clock time this device needs to retire `d` of reference
    /// solo-time at full kernel speed — what callers should budget for a
    /// step of reference duration `d` (e.g. the program-directed
    /// remaining-time check of §4.5).
    pub fn scaled_duration(&self, d: SimDuration) -> SimDuration {
        if self.compute_speed == 1.0 {
            return d;
        }
        SimDuration::from_nanos((d.as_nanos() as f64 / self.compute_speed).ceil() as u64)
    }

    /// Name of the sharing model in effect.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// Registers a process context.
    pub fn register_process(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        mem_limit: Option<MemBytes>,
    ) -> ProcessId {
        let pid = ProcessId((u64::from(self.id.0) << 32) | self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            GpuProcess {
                id: pid,
                name: name.into(),
                priority,
                mem_limit,
                allocated: MemBytes::ZERO,
                state: ProcessState::Alive,
            },
        );
        pid
    }

    /// Looks up a process.
    pub fn process(&self, pid: ProcessId) -> Option<&GpuProcess> {
        self.procs.get(&pid)
    }

    /// All registered processes in id order.
    pub fn processes(&self) -> impl Iterator<Item = &GpuProcess> {
        self.procs.values()
    }

    /// Physical memory capacity.
    pub fn total_mem(&self) -> MemBytes {
        self.mem.total()
    }

    /// Physical memory currently allocated across all processes.
    pub fn used_mem(&self) -> MemBytes {
        self.mem.used()
    }

    /// Physical memory currently free.
    pub fn free_mem(&self) -> MemBytes {
        self.mem.free()
    }

    /// Allocates `bytes` to `pid`, enforcing the MPS cap.
    ///
    /// On [`OomKind::ProcessCapExceeded`] the caller decides the process's
    /// fate (the paper's workers kill it; Fig. 8(b)). The device itself
    /// remains consistent either way.
    pub fn alloc(&mut self, pid: ProcessId, bytes: MemBytes) -> Result<(), OomError> {
        let proc = self.procs.get_mut(&pid).ok_or(OomError {
            kind: OomKind::DeviceExhausted,
            process: pid,
            requested: bytes,
        })?;
        assert!(proc.is_alive(), "allocation from dead process {pid}");
        if let Some(limit) = proc.mem_limit {
            if proc.allocated + bytes > limit {
                return Err(OomError {
                    kind: OomKind::ProcessCapExceeded,
                    process: pid,
                    requested: bytes,
                });
            }
        }
        self.mem.reserve(bytes).map_err(|kind| OomError {
            kind,
            process: pid,
            requested: bytes,
        })?;
        proc.allocated += bytes;
        Ok(())
    }

    /// Releases `bytes` previously allocated by `pid`.
    ///
    /// # Panics
    ///
    /// Panics if the process is unknown or frees more than it holds.
    pub fn free(&mut self, pid: ProcessId, bytes: MemBytes) {
        let proc = self.procs.get_mut(&pid).expect("unknown process");
        assert!(
            bytes <= proc.allocated,
            "{pid} freeing {bytes} but holds {}",
            proc.allocated
        );
        proc.allocated -= bytes;
        self.mem.release(bytes);
    }

    /// Terminates a process: frees all its memory, drops its kernels, and
    /// marks it dead. Other processes are unaffected. This and the
    /// per-process MPS cap are the simulator's whole isolation model. The
    /// paper also runs each side task in a Docker container (§4.6, §8
    /// *Fault tolerance*); what that shows, failure containment, is this
    /// property.
    ///
    /// Returns the ids of kernels that were aborted.
    pub fn kill_process(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        state: ProcessState,
    ) -> Vec<KernelId> {
        assert!(
            state != ProcessState::Alive,
            "kill_process must set a dead state"
        );
        self.advance_clock_no_completions(now);
        let proc = self.procs.get_mut(&pid).expect("unknown process");
        if !proc.is_alive() {
            return Vec::new();
        }
        proc.state = state;
        let held = proc.allocated;
        proc.allocated = MemBytes::ZERO;
        self.mem.release(held);
        let aborted: Vec<KernelId> = self
            .active
            .iter()
            .filter(|k| k.process == pid)
            .map(|k| k.id)
            .collect();
        self.active.retain(|k| k.process != pid);
        self.recompute_speeds();
        aborted
    }

    /// Launches a kernel at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if a completion boundary lies strictly before `now` (the
    /// caller must drain completions with [`advance_through`] first) or if
    /// `now` precedes the device clock.
    ///
    /// [`advance_through`]: GpuDevice::advance_through
    pub fn launch(&mut self, now: SimTime, spec: KernelSpec) -> Result<KernelId, LaunchError> {
        match self.procs.get(&spec.process) {
            None => return Err(LaunchError::UnknownProcess),
            Some(p) if !p.is_alive() => return Err(LaunchError::ProcessDead),
            Some(_) => {}
        }
        self.advance_clock_no_completions(now);
        let id = KernelId((u64::from(self.id.0) << 48) | self.next_kid);
        self.next_kid += 1;
        self.active.push(ActiveKernel {
            id,
            process: spec.process,
            priority: spec.priority,
            sm_demand: spec.sm_demand,
            intensity: spec.intensity,
            tag: spec.tag,
            launched_at: now,
            solo: spec.solo_duration,
            remaining: spec.solo_duration.as_nanos() as f64,
            speed: 1.0,
        });
        self.recompute_speeds();
        Ok(id)
    }

    /// The instant the next active kernel will finish if the active set does
    /// not change, or `None` when idle.
    pub fn next_completion_time(&self) -> Option<SimTime> {
        self.active
            .iter()
            .map(|k| completion_time(self.last_advance, k, self.compute_speed))
            .min()
    }

    /// Advances the device clock to `now`, delivering every kernel
    /// completion in `(last, now]` in time order and recomputing speeds at
    /// each boundary.
    pub fn advance_through(&mut self, now: SimTime) -> Vec<KernelCompletion> {
        assert!(
            now >= self.last_advance,
            "device clock cannot move backwards: at {}, asked {}",
            self.last_advance,
            now
        );
        // Nearly every call delivers at least one completion (callers wake
        // at `next_completion_time`), so size for the common small batch.
        let mut completions = Vec::with_capacity(2);
        while let Some(boundary) = self.next_completion_time() {
            if boundary > now {
                break;
            }
            self.drain_interval(boundary);
            // Collect everything that finished at this boundary.
            let mut finished_any = false;
            let mut i = 0;
            while i < self.active.len() {
                if self.active[i].remaining <= DONE_EPSILON {
                    let k = self.active.remove(i);
                    let elapsed = boundary - k.launched_at;
                    completions.push(KernelCompletion {
                        id: k.id,
                        process: k.process,
                        finished_at: boundary,
                        launched_at: k.launched_at,
                        tag: k.tag,
                        stretch: elapsed.saturating_sub(k.solo),
                    });
                    finished_any = true;
                } else {
                    i += 1;
                }
            }
            debug_assert!(finished_any, "boundary without completion");
            self.recompute_speeds();
        }
        self.drain_interval(now);
        completions
    }

    /// Instantaneous SM occupancy in `[0, 1]`: the demand-weighted load of
    /// currently active kernels, clamped to the device's capacity.
    pub fn occupancy(&self) -> f64 {
        self.active
            .iter()
            .map(|k| k.sm_demand)
            .sum::<f64>()
            .min(1.0)
    }

    /// Number of active kernels.
    pub fn active_kernels(&self) -> usize {
        self.active.len()
    }

    /// Whether `pid` has at least one active kernel.
    pub fn process_busy(&self, pid: ProcessId) -> bool {
        self.active.iter().any(|k| k.process == pid)
    }

    /// The device clock (time of last advance).
    pub fn clock(&self) -> SimTime {
        self.last_advance
    }

    /// Fast-forwards an idle device over `kernels` kernels that each ran
    /// alone and completed by `to`, leaving the kernel ids and the clock
    /// where [`GpuDevice::launch`] and [`GpuDevice::advance_through`] would
    /// have: for a caller that computes a run of lone kernels in closed
    /// form instead of driving each one through.
    pub fn skip_solo_kernels(&mut self, kernels: u64, to: SimTime) {
        debug_assert!(self.active.is_empty(), "skipped kernels must run alone");
        self.next_kid += kernels;
        self.drain_interval(to);
    }

    /// Advances to `now` assuming no completion falls strictly inside the
    /// interval; used by mutating calls that require the caller to have
    /// drained completions first.
    fn advance_clock_no_completions(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "device clock cannot move backwards"
        );
        if let Some(b) = self.next_completion_time() {
            assert!(
                b >= now,
                "un-drained completion at {b} before mutation at {now}; call advance_through first"
            );
        }
        self.drain_interval(now);
    }

    /// Applies elapsed time to every active kernel without completing any.
    fn drain_interval(&mut self, to: SimTime) {
        let dt = to.saturating_since(self.last_advance).as_nanos() as f64;
        if dt > 0.0 {
            // `compute_speed` scales how much reference solo-time a
            // wall-clock interval retires; at the default `1.0` the
            // arithmetic is bit-identical to the pre-hardware device.
            let scale = self.compute_speed;
            for k in &mut self.active {
                k.remaining = (k.remaining - dt * k.speed * scale).max(0.0);
            }
        }
        self.last_advance = self.last_advance.max(to);
    }

    fn recompute_speeds(&mut self) {
        if self.active.is_empty() {
            return;
        }
        self.ctx_buf.clear();
        self.ctx_buf.extend(self.active.iter().map(|k| KernelCtx {
            priority: k.priority,
            sm_demand: k.sm_demand,
            intensity: k.intensity,
        }));
        self.speed_buf.clear();
        self.model.speeds_into(&self.ctx_buf, &mut self.speed_buf);
        debug_assert_eq!(self.speed_buf.len(), self.active.len());
        for (k, &s) in self.active.iter_mut().zip(&self.speed_buf) {
            debug_assert!(s > 0.0 && s <= 1.0, "model produced speed {s}");
            k.speed = s;
        }
    }
}

fn completion_time(last: SimTime, k: &ActiveKernel, compute_speed: f64) -> SimTime {
    let nanos = (k.remaining / (k.speed * compute_speed)).ceil() as u64;
    last + SimDuration::from_nanos(nanos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{MpsPrioritized, TimeSliced, MIN_SPEED};

    fn device() -> GpuDevice {
        GpuDevice::new(
            GpuId(0),
            MemBytes::from_gib(48),
            Box::new(MpsPrioritized::default()),
        )
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn solo_kernel_finishes_on_time() {
        let mut d = device();
        let p = d.register_process("train", Priority::High, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(p, ms(100), 1.0, Priority::High, "fp"),
        )
        .unwrap();
        assert_eq!(d.next_completion_time(), Some(at(100)));
        let done = d.advance_through(at(100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, at(100));
        assert_eq!(done[0].stretch, SimDuration::ZERO);
        assert_eq!(d.active_kernels(), 0);
    }

    #[test]
    fn mid_run_launch_stretches_training() {
        // Training kernel 100ms solo. At t=50ms a side kernel (30ms solo,
        // demand 0.5) appears: the side kernel runs at a quarter speed
        // (contention share 1/(1+1) × grip 0.5), while training runs at
        // 1/1.5. Training finishes first: its remaining 50ms of work take
        // 75ms → done at t=125ms. The side kernel then speeds up: by
        // t=125 it has retired 18.75ms of its 30ms; the remaining 11.25ms
        // run at full speed → done at t=136.25ms.
        let mut d = device();
        let train = d.register_process("train", Priority::High, None);
        let side = d.register_process("side", Priority::Low, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(train, ms(100), 1.0, Priority::High, "fp"),
        )
        .unwrap();
        d.advance_through(at(50));
        d.launch(
            at(50),
            KernelSpec::new(side, ms(30), 0.5, Priority::Low, "step"),
        )
        .unwrap();
        let done = d.advance_through(at(200));
        let fp = done.iter().find(|c| c.tag == "fp").unwrap();
        assert_eq!(fp.finished_at, at(125));
        assert_eq!(fp.stretch, ms(25));
        let step = done.iter().find(|c| c.tag == "step").unwrap();
        assert_eq!(step.finished_at.as_nanos(), 136_250_000);
    }

    #[test]
    fn side_kernel_full_speed_in_bubble() {
        let mut d = device();
        let side = d.register_process("side", Priority::Low, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(side, ms(30), 0.8, Priority::Low, "step"),
        )
        .unwrap();
        let done = d.advance_through(at(30));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].stretch, SimDuration::ZERO);
    }

    #[test]
    fn time_sliced_model_shares_fairly() {
        let mut d = GpuDevice::new(GpuId(1), MemBytes::from_gib(48), Box::new(TimeSliced));
        let a = d.register_process("a", Priority::High, None);
        let b = d.register_process("b", Priority::Low, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(a, ms(100), 1.0, Priority::High, "a"),
        )
        .unwrap();
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(b, ms(100), 1.0, Priority::Low, "b"),
        )
        .unwrap();
        // Training at fair share 0.5 → done at 200ms. The side process
        // wastes half its slice on context switches (speed 0.25) until
        // training finishes, then runs alone: 50ms of work left at t=200
        // → done at 250ms.
        let done = d.advance_through(at(400));
        assert_eq!(done.len(), 2);
        let t = done.iter().find(|c| c.tag == "a").unwrap();
        assert_eq!(t.finished_at, at(200));
        let s2 = done.iter().find(|c| c.tag == "b").unwrap();
        assert_eq!(s2.finished_at, at(250));
    }

    #[test]
    fn memory_cap_enforced_per_process() {
        let mut d = device();
        let side = d.register_process("side", Priority::Low, Some(MemBytes::from_gib(8)));
        assert!(d.alloc(side, MemBytes::from_gib(6)).is_ok());
        let err = d.alloc(side, MemBytes::from_gib(3)).unwrap_err();
        assert_eq!(err.kind, OomKind::ProcessCapExceeded);
        // Cap failure must not leak pool accounting.
        assert_eq!(d.used_mem(), MemBytes::from_gib(6));
        // Another process can still allocate.
        let train = d.register_process("train", Priority::High, None);
        assert!(d.alloc(train, MemBytes::from_gib(30)).is_ok());
    }

    #[test]
    fn device_exhaustion() {
        let mut d = device();
        let p = d.register_process("big", Priority::High, None);
        assert!(d.alloc(p, MemBytes::from_gib(48)).is_ok());
        let err = d.alloc(p, MemBytes::from_bytes(1)).unwrap_err();
        assert_eq!(err.kind, OomKind::DeviceExhausted);
    }

    #[test]
    fn kill_frees_memory_and_aborts_kernels() {
        let mut d = device();
        let train = d.register_process("train", Priority::High, None);
        let side = d.register_process("side", Priority::Low, Some(MemBytes::from_gib(8)));
        d.alloc(side, MemBytes::from_gib(5)).unwrap();
        d.alloc(train, MemBytes::from_gib(20)).unwrap();
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(side, ms(50), 0.5, Priority::Low, "s"),
        )
        .unwrap();
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(train, ms(100), 1.0, Priority::High, "t"),
        )
        .unwrap();

        let aborted = d.kill_process(at(10), side, ProcessState::OomKilled);
        assert_eq!(aborted.len(), 1);
        assert_eq!(
            d.used_mem(),
            MemBytes::from_gib(20),
            "side memory reclaimed"
        );
        assert_eq!(d.process(side).unwrap().state(), ProcessState::OomKilled);
        assert!(!d.process(side).unwrap().is_alive());

        // Training keeps running and, with the side kernel gone, speeds up.
        let done = d.advance_through(at(500));
        assert_eq!(done.len(), 1);
        let t = &done[0];
        assert_eq!(t.tag, "t");
        // 10ms slowed (speed 1/1.5) consumed ~6.7ms of work; remaining
        // ~93.3ms at full speed → ~103.3ms total.
        assert!(t.finished_at > at(100) && t.finished_at < at(110));
    }

    #[test]
    fn launch_from_dead_process_fails() {
        let mut d = device();
        let side = d.register_process("side", Priority::Low, None);
        d.kill_process(SimTime::ZERO, side, ProcessState::Killed);
        let err = d
            .launch(at(1), KernelSpec::new(side, ms(1), 0.5, Priority::Low, "s"))
            .unwrap_err();
        assert_eq!(err, LaunchError::ProcessDead);
    }

    #[test]
    fn launch_from_unknown_process_fails() {
        let mut d = device();
        let err = d
            .launch(
                SimTime::ZERO,
                KernelSpec::new(ProcessId(999), ms(1), 0.5, Priority::Low, "s"),
            )
            .unwrap_err();
        assert_eq!(err, LaunchError::UnknownProcess);
    }

    #[test]
    fn occupancy_reflects_active_demand() {
        let mut d = device();
        let p = d.register_process("train", Priority::High, None);
        assert_eq!(d.occupancy(), 0.0);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(p, ms(10), 1.0, Priority::High, "fp"),
        )
        .unwrap();
        assert_eq!(d.occupancy(), 1.0);
        d.advance_through(at(10));
        assert_eq!(d.occupancy(), 0.0);
    }

    #[test]
    fn side_kernel_drains_at_contention_share() {
        let mut d = device();
        let train = d.register_process("train", Priority::High, None);
        let side = d.register_process("side", Priority::Low, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(train, ms(1000), 1.0, Priority::High, "t"),
        )
        .unwrap();
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(side, ms(10), 1.0, Priority::Low, "s"),
        )
        .unwrap();
        // Side runs at share 0.5 × grip 0.5 = 0.25: 10ms takes 40ms.
        let done = d.advance_through(at(100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, "s");
        assert_eq!(done[0].finished_at, at(40));
        // MIN_SPEED remains the hard floor for pathological demand sums.
        const { assert!(MIN_SPEED < 0.25) };
    }

    #[test]
    #[should_panic(expected = "un-drained completion")]
    fn launch_past_completion_panics() {
        let mut d = device();
        let p = d.register_process("train", Priority::High, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(p, ms(10), 1.0, Priority::High, "fp"),
        )
        .unwrap();
        // Completion at 10ms not drained:
        let _ = d.launch(
            at(20),
            KernelSpec::new(p, ms(10), 1.0, Priority::High, "fp2"),
        );
    }

    #[test]
    fn advance_through_handles_cascading_boundaries() {
        // Two kernels ending at different times; the second's speed
        // changes when the first finishes. Side kernel: demand 0.5,
        // intensity 2 → training speed 1/(1+1) = 0.5, side speed 0.5.
        let mut d = device();
        let train = d.register_process("train", Priority::High, None);
        let side = d.register_process("side", Priority::Low, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(train, ms(50), 1.0, Priority::High, "t"),
        )
        .unwrap();
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(side, ms(20), 0.5, Priority::Low, "s").with_intensity(2.0),
        )
        .unwrap();
        // Side drains 20ms of work at 0.5 → done at 40ms. Training does
        // 20ms of work by then, then runs solo: done at 70ms.
        let done = d.advance_through(at(1000));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, "s");
        assert_eq!(done[0].finished_at, at(40));
        assert_eq!(done[1].tag, "t");
        assert_eq!(done[1].finished_at, at(70));
    }

    #[test]
    fn oom_error_display_uses_gib_not_raw_bytes() {
        let mut d = device();
        let p = d.register_process("side", Priority::Low, Some(MemBytes::from_gib(8)));
        let err = d.alloc(p, MemBytes::from_gib(9)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("9.00GiB"), "GiB formatting in message: {msg}");
        assert!(
            !msg.contains(&MemBytes::from_gib(9).as_bytes().to_string()),
            "no raw byte counts in message: {msg}"
        );
        assert!(msg.contains("MPS memory cap"), "{msg}");
    }

    #[test]
    fn compute_speed_scales_completion_times() {
        // 2x device: a 100ms-reference kernel completes in 50ms.
        let mut d = GpuDevice::new(
            GpuId(0),
            MemBytes::from_gib(48),
            Box::new(MpsPrioritized::default()),
        )
        .with_compute_speed(2.0);
        let p = d.register_process("side", Priority::Low, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(p, ms(100), 1.0, Priority::Low, "s"),
        )
        .unwrap();
        assert_eq!(d.next_completion_time(), Some(at(50)));
        let done = d.advance_through(at(50));
        assert_eq!(done.len(), 1);
        // Stretch is measured against the reference solo-time, so a fast
        // device reports zero stretch for an uncontended kernel.
        assert_eq!(done[0].stretch, SimDuration::ZERO);

        // Quarter-speed device: the same kernel takes 400ms.
        let mut slow = GpuDevice::new(
            GpuId(1),
            MemBytes::from_gib(48),
            Box::new(MpsPrioritized::default()),
        )
        .with_compute_speed(0.25);
        let p = slow.register_process("side", Priority::Low, None);
        slow.launch(
            SimTime::ZERO,
            KernelSpec::new(p, ms(100), 1.0, Priority::Low, "s"),
        )
        .unwrap();
        assert_eq!(slow.next_completion_time(), Some(at(400)));
    }

    #[test]
    fn scaled_duration_inverts_compute_speed() {
        let fast = device().with_compute_speed(2.0);
        assert_eq!(fast.scaled_duration(ms(100)), ms(50));
        assert_eq!(fast.compute_speed(), 2.0);
        let reference = device();
        assert_eq!(reference.scaled_duration(ms(100)), ms(100));
        let slow = device().with_compute_speed(0.5);
        assert_eq!(slow.scaled_duration(ms(100)), ms(200));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_compute_speed_rejected() {
        let _ = device().with_compute_speed(0.0);
    }

    #[test]
    fn set_compute_speed_rescales_in_flight_kernels() {
        // A 100ms-reference kernel, throttled to quarter speed halfway
        // through: 50ms retires at full speed, the remaining 50ms of
        // reference work drains at 0.25x (200ms), finishing at 250ms.
        let mut d = device();
        let p = d.register_process("side", Priority::Low, None);
        d.launch(
            SimTime::ZERO,
            KernelSpec::new(p, ms(100), 1.0, Priority::Low, "s"),
        )
        .unwrap();
        assert_eq!(d.next_completion_time(), Some(at(100)));

        d.set_compute_speed(at(50), 0.25);
        assert_eq!(d.compute_speed(), 0.25);
        assert_eq!(d.next_completion_time(), Some(at(250)));

        // Restoring full speed at 150ms: 25ms of reference work retired
        // during the slow window leaves 25ms, done at 175ms.
        d.set_compute_speed(at(150), 1.0);
        assert_eq!(d.next_completion_time(), Some(at(175)));
        let done = d.advance_through(at(175));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, at(175));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn set_compute_speed_rejects_non_positive() {
        device().set_compute_speed(SimTime::ZERO, -1.0);
    }

    #[test]
    fn skipping_solo_kernels_leaves_what_running_them_leaves() {
        let spec = |p| KernelSpec::new(p, ms(3), 0.7, Priority::Low, "s");
        let mut ran = device().with_compute_speed(0.8);
        let mut skipped = device().with_compute_speed(0.8);
        let p = ran.register_process("side", Priority::Low, None);
        let q = skipped.register_process("side", Priority::Low, None);
        assert_eq!(p, q);
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            ran.launch(now, spec(p)).unwrap();
            now = ran.next_completion_time().unwrap();
            assert_eq!(ran.advance_through(now).len(), 1);
            now += ms(1);
        }
        skipped.skip_solo_kernels(5, ran.clock());
        assert_eq!(skipped.clock(), ran.clock());
        assert_eq!(skipped.launch(now, spec(q)), ran.launch(now, spec(p)));
        assert_eq!(skipped.next_completion_time(), ran.next_completion_time());
    }

    #[test]
    fn kill_is_idempotent() {
        let mut d = device();
        let side = d.register_process("side", Priority::Low, None);
        d.kill_process(SimTime::ZERO, side, ProcessState::Killed);
        let again = d.kill_process(at(1), side, ProcessState::OomKilled);
        assert!(again.is_empty());
        // First state sticks.
        assert_eq!(d.process(side).unwrap().state(), ProcessState::Killed);
    }
}
