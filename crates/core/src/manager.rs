//! The side-task manager: Algorithm 1 (placement) and Algorithm 2 (bubble
//! and task lifecycle management), §4.4 of the paper.
//!
//! The manager is deliberately a pure state machine: it consumes task
//! submissions, bubble reports, and task-state acknowledgements, and emits
//! [`ManagerCmd`]s that the orchestrator delivers to workers over RPC. All
//! the paper's per-worker metadata — `GPUMem`, `TaskQueue`, `CurrentTask`,
//! `CurrentBubble` — lives here, named identically.

use crate::state::SideTaskState;
use crate::task::TaskId;
use freeride_gpu::MemBytes;
use freeride_pipeline::BubbleReport;
use freeride_sim::SimTime;
use std::collections::VecDeque;

/// A command the manager wants delivered to a worker (as an RPC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManagerCmd {
    /// Create the side-task process (`CreateSideTask()`).
    Create {
        /// Target worker index.
        worker: usize,
        /// Task to create.
        task: TaskId,
    },
    /// Load the task's context onto the GPU (`InitSideTask()`).
    Init {
        /// Target worker index.
        worker: usize,
        /// Task to initialise.
        task: TaskId,
    },
    /// Start running in the current bubble (`StartSideTask()`); carries
    /// the bubble's predicted end for the program-directed mechanism.
    Start {
        /// Target worker index.
        worker: usize,
        /// Task to start.
        task: TaskId,
        /// Predicted end of the bubble being served.
        bubble_end: SimTime,
    },
    /// Pause at bubble end (`PauseSideTask()`).
    Pause {
        /// Target worker index.
        worker: usize,
        /// Task to pause.
        task: TaskId,
    },
    /// Terminate (`StopSideTask()`).
    Stop {
        /// Target worker index.
        worker: usize,
        /// Task to stop.
        task: TaskId,
    },
}

impl ManagerCmd {
    /// Stable lowercase label, used in trace events.
    pub fn label(&self) -> &'static str {
        match self {
            ManagerCmd::Create { .. } => "create",
            ManagerCmd::Init { .. } => "init",
            ManagerCmd::Start { .. } => "start",
            ManagerCmd::Pause { .. } => "pause",
            ManagerCmd::Stop { .. } => "stop",
        }
    }
}

/// Why a submission could not be admitted.
///
/// Replaces the old information-free `Rejected` unit struct: every variant
/// carries the numbers an operator needs to act on the rejection.
///
/// Marked `#[non_exhaustive]`: fault-injection growth keeps adding
/// variants (most recently [`SubmitError::WorkerDown`] and
/// [`SubmitError::CircuitOpen`]), so downstream matches must carry a `_`
/// arm instead of breaking on every release.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// Algorithm 1, line 13: no worker's bubble GPU memory can hold the
    /// task's footprint (admission requires strictly more free memory
    /// than the task needs).
    InsufficientMemory {
        /// GPU memory the task's profile requires.
        needed: MemBytes,
        /// The largest bubble free memory any worker offers.
        best_worker_free: MemBytes,
    },
    /// The submission's batch size is unusable (e.g. zero).
    InvalidBatch {
        /// The offending batch size.
        batch: usize,
    },
    /// The task's arrival time fell after pipeline training had already
    /// finished, so there were no bubbles left to serve it.
    ArrivedAfterShutdown {
        /// When the submission arrived.
        arrival: SimTime,
    },
    /// The target worker's side-task daemon was down (crash fault window)
    /// at the submission's arrival time. Retryable: the worker usually
    /// restarts.
    WorkerDown {
        /// The unreachable worker.
        worker: usize,
    },
    /// A circuit breaker guarding the target worker was open, shedding
    /// load after consecutive failures. Retryable after the breaker's
    /// cooldown.
    CircuitOpen {
        /// The worker whose breaker rejected the submission.
        worker: usize,
    },
    /// The submission could not be placed before its sim-time deadline
    /// ([`SubmitOptions::deadline`](crate::SubmitOptions::deadline)) —
    /// typically because an upstream service layer (rate limiting,
    /// retries) delayed its effective arrival past the cutoff.
    DeadlineExceeded {
        /// The deadline the submission carried.
        deadline: SimTime,
        /// The effective arrival that overshot it.
        arrival: SimTime,
    },
    /// A token-bucket rate limiter ([`crate::RateLimit`]) shed the
    /// submission: the bucket was empty at its arrival. Retryable at
    /// `retry_at`, when the next token accrues.
    RateLimited {
        /// Earliest simulated time a token will be available.
        retry_at: SimTime,
    },
    /// A per-tenant quota ([`crate::TenantQuota`]) was exhausted: the
    /// tenant already had `limit` submissions accepted inside the quota
    /// window.
    QuotaExceeded {
        /// The tenant's admission limit per window.
        limit: usize,
    },
    /// The cluster-wide admission gate ([`crate::AdmissionControl`]) shed
    /// the submission under pressure: `inflight` recent admissions against
    /// a ceiling of `limit`.
    Overloaded {
        /// Admissions counted inside the pressure window.
        inflight: usize,
        /// The gate's admission ceiling.
        limit: usize,
    },
    /// The submission's job affinity
    /// ([`SubmitOptions::affinity`](crate::SubmitOptions::affinity))
    /// named a job the cluster does not have.
    UnknownJob {
        /// The requested job index.
        job: usize,
        /// How many jobs the cluster has.
        jobs: usize,
    },
}

impl SubmitError {
    /// A stable, payload-free label for this error's variant — what
    /// service metrics key rejection counts by.
    pub fn kind(&self) -> &'static str {
        match self {
            SubmitError::InsufficientMemory { .. } => "insufficient-memory",
            SubmitError::InvalidBatch { .. } => "invalid-batch",
            SubmitError::ArrivedAfterShutdown { .. } => "arrived-after-shutdown",
            SubmitError::WorkerDown { .. } => "worker-down",
            SubmitError::CircuitOpen { .. } => "circuit-open",
            SubmitError::DeadlineExceeded { .. } => "deadline-exceeded",
            SubmitError::RateLimited { .. } => "rate-limited",
            SubmitError::QuotaExceeded { .. } => "quota-exceeded",
            SubmitError::Overloaded { .. } => "overloaded",
            SubmitError::UnknownJob { .. } => "unknown-job",
        }
    }
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::InsufficientMemory {
                needed,
                best_worker_free,
            } => write!(
                f,
                "no worker has enough bubble GPU memory: task needs {needed}, \
                 best worker offers {best_worker_free}"
            ),
            SubmitError::InvalidBatch { batch } => {
                write!(f, "invalid batch size {batch}: must be positive")
            }
            SubmitError::ArrivedAfterShutdown { arrival } => write!(
                f,
                "submission arrived at {arrival}, after pipeline training finished"
            ),
            SubmitError::WorkerDown { worker } => {
                write!(f, "worker {worker} is down (side-task daemon crashed)")
            }
            SubmitError::CircuitOpen { worker } => {
                write!(f, "circuit breaker open for worker {worker}")
            }
            SubmitError::DeadlineExceeded { deadline, arrival } => write!(
                f,
                "placement deadline {deadline} exceeded: effective arrival was {arrival}"
            ),
            SubmitError::RateLimited { retry_at } => {
                write!(f, "rate limited: next token available at {retry_at}")
            }
            SubmitError::QuotaExceeded { limit } => {
                write!(f, "tenant quota exhausted: {limit} admissions per window")
            }
            SubmitError::Overloaded { inflight, limit } => write!(
                f,
                "cluster overloaded: {inflight} recent admissions against a ceiling of {limit}"
            ),
            SubmitError::UnknownJob { job, jobs } => {
                write!(f, "no job {job}: the cluster has {jobs} jobs")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug, Clone)]
struct TaskView {
    id: TaskId,
    mem: MemBytes,
    state: SideTaskState,
    /// A command was issued and its acknowledgement is pending; suppresses
    /// duplicate RPCs across poll iterations.
    awaiting_ack: bool,
}

/// Per-worker metadata, named after the paper's fields (§4.4).
#[derive(Debug)]
pub struct WorkerMeta {
    /// Available GPU memory during this worker's bubbles.
    pub gpu_mem: MemBytes,
    /// Queue of side tasks ordered by submission timestamp.
    task_queue: VecDeque<TaskView>,
    /// The side task currently served.
    current_task: Option<TaskView>,
    /// The bubble currently valid.
    current_bubble: Option<BubbleReport>,
    /// Bubbles reported but not yet adopted.
    incoming: VecDeque<BubbleReport>,
}

impl WorkerMeta {
    fn new(gpu_mem: MemBytes) -> Self {
        WorkerMeta {
            gpu_mem,
            task_queue: VecDeque::new(),
            current_task: None,
            current_bubble: None,
            incoming: VecDeque::new(),
        }
    }

    /// `Worker.GetTaskNum()`: tasks assigned (queued + current).
    pub fn task_count(&self) -> usize {
        self.task_queue.len() + usize::from(self.current_task.is_some())
    }

    /// The task currently served, if any.
    pub fn current_task_id(&self) -> Option<TaskId> {
        self.current_task.as_ref().map(|t| t.id)
    }

    /// The bubble currently valid, if any.
    pub fn current_bubble(&self) -> Option<&BubbleReport> {
        self.current_bubble.as_ref()
    }

    fn view_mut(&mut self, id: TaskId) -> Option<&mut TaskView> {
        if let Some(cur) = self.current_task.as_mut() {
            if cur.id == id {
                return Some(cur);
            }
        }
        self.task_queue.iter_mut().find(|t| t.id == id)
    }
}

/// How Algorithm 1 chooses among **one job's** workers with enough bubble
/// memory. (Cluster-level routing across jobs is the separate, pluggable
/// [`PlacementPolicy`](crate::cluster::PlacementPolicy) trait; this enum
/// is the paper's intra-job worker selection.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerPolicy {
    /// The paper's policy: fewest assigned tasks wins (lines 6–9).
    #[default]
    MinTasks,
    /// Ablation: first qualifying worker wins (no load balancing).
    FirstFit,
    /// Ablation: most bubble memory wins (best-fit-decreasing flavour).
    MostMemory,
}

/// The side-task manager.
pub struct SideTaskManager {
    workers: Vec<WorkerMeta>,
    policy: WorkerPolicy,
}

impl SideTaskManager {
    /// Creates a manager for workers with the given bubble memory sizes
    /// (one worker per GPU/stage, in stage order).
    pub fn new(worker_mem: Vec<MemBytes>) -> Self {
        assert!(!worker_mem.is_empty(), "need at least one worker");
        SideTaskManager {
            workers: worker_mem.into_iter().map(WorkerMeta::new).collect(),
            policy: WorkerPolicy::MinTasks,
        }
    }

    /// Overrides the placement policy (builder style; ablation).
    pub fn with_policy(mut self, policy: WorkerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Worker metadata (read-only view for accounting and tests).
    pub fn worker(&self, idx: usize) -> &WorkerMeta {
        &self.workers[idx]
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The largest bubble free memory any worker offers — the admission
    /// bound of Algorithm 1 (a task needing this much or more is
    /// rejected).
    pub fn best_worker_free(&self) -> MemBytes {
        self.workers
            .iter()
            .map(|w| w.gpu_mem)
            .max()
            .unwrap_or(MemBytes::ZERO)
    }

    /// **Algorithm 1** — places a new task on the worker with enough
    /// bubble memory and the fewest assigned tasks; rejects if none
    /// qualifies. On success the task enters the worker's queue and a
    /// `Create` command is emitted.
    pub fn submit(
        &mut self,
        id: TaskId,
        mem: MemBytes,
    ) -> Result<(usize, ManagerCmd), SubmitError> {
        let Some(worker) = self.select_worker(mem, &[]) else {
            return Err(SubmitError::InsufficientMemory {
                needed: mem,
                best_worker_free: self.best_worker_free(),
            });
        };
        Ok((worker, self.admit_to(id, mem, worker)))
    }

    /// The selection half of Algorithm 1: which worker *would* host a task
    /// needing `mem`, without admitting it. Workers whose index is `true`
    /// in `blocked` are skipped (the seam fault-aware callers use to mask
    /// crashed workers or open circuit breakers); an empty slice blocks
    /// nobody, which makes `select_worker` + [`SideTaskManager::admit_to`]
    /// exactly [`SideTaskManager::submit`].
    pub fn select_worker(&self, mem: MemBytes, blocked: &[bool]) -> Option<usize> {
        let mut selected: Option<usize> = None;
        let mut best_key = (usize::MAX, MemBytes::ZERO);
        for (i, w) in self.workers.iter().enumerate() {
            if blocked.get(i).copied().unwrap_or(false) {
                continue;
            }
            if w.gpu_mem > mem {
                match self.policy {
                    WorkerPolicy::MinTasks => {
                        let n = w.task_count();
                        if n < best_key.0 {
                            best_key.0 = n;
                            selected = Some(i);
                        }
                    }
                    WorkerPolicy::FirstFit => {
                        selected = Some(i);
                        break;
                    }
                    WorkerPolicy::MostMemory => {
                        if w.gpu_mem > best_key.1 {
                            best_key.1 = w.gpu_mem;
                            selected = Some(i);
                        }
                    }
                }
            }
        }
        selected
    }

    /// The admission half of Algorithm 1: enqueues a task on `worker`
    /// unconditionally and emits the `Create` command. Callers are
    /// expected to have validated capacity (via
    /// [`SideTaskManager::select_worker`] or an earlier admission check —
    /// e.g. checkpoint/restart re-admits a task that already fit before
    /// its worker crashed).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn admit_to(&mut self, id: TaskId, mem: MemBytes, worker: usize) -> ManagerCmd {
        self.workers[worker].task_queue.push_back(TaskView {
            id,
            mem,
            state: SideTaskState::Submitted,
            awaiting_ack: true, // Create outstanding
        });
        ManagerCmd::Create { worker, task: id }
    }

    /// The worker's side-task daemon crashed: forget every task routed to
    /// it (their processes died with the daemon) and drop the bubble it
    /// was serving. Returns the forgotten task ids, current task first
    /// then queue order — the orchestrator uses them to mark tasks lost
    /// and (under checkpoint/restart) re-admit them on recovery. Bubbles
    /// still in `incoming` are kept: they come from training
    /// instrumentation, which the crash does not touch.
    pub fn on_worker_crash(&mut self, worker: usize) -> Vec<TaskId> {
        let w = &mut self.workers[worker];
        let mut lost: Vec<TaskId> = w.current_task.take().map(|t| t.id).into_iter().collect();
        lost.extend(w.task_queue.drain(..).map(|t| t.id));
        w.current_bubble = None;
        lost
    }

    /// Places a new task on a **specific** worker — the pinned form of
    /// [`SideTaskManager::submit`], used when a cluster-level
    /// [`PlacementPolicy`](crate::cluster::PlacementPolicy) has already
    /// chosen the worker. The same admission bound applies, but only
    /// against the pinned worker: its bubble memory must strictly exceed
    /// the task's footprint (`best_worker_free` in the error then reports
    /// that worker's memory, not the global best).
    pub fn submit_to(
        &mut self,
        id: TaskId,
        mem: MemBytes,
        worker: usize,
    ) -> Result<(usize, ManagerCmd), SubmitError> {
        assert!(worker < self.workers.len(), "worker {worker} out of range");
        let free = self.workers[worker].gpu_mem;
        if free <= mem {
            return Err(SubmitError::InsufficientMemory {
                needed: mem,
                best_worker_free: free,
            });
        }
        Ok((worker, self.admit_to(id, mem, worker)))
    }

    /// Records a bubble reported by the instrumented training system
    /// (step ➎ of Fig. 3).
    pub fn add_bubble(&mut self, worker: usize, report: BubbleReport) {
        self.workers[worker].incoming.push_back(report);
    }

    /// Updates the manager's view of a task's state (worker ack).
    pub fn on_task_state(&mut self, worker: usize, id: TaskId, state: SideTaskState) {
        let w = &mut self.workers[worker];
        if let Some(view) = w.view_mut(id) {
            view.state = state;
            view.awaiting_ack = false;
        }
        // A stopped current task frees the slot for the queue
        // (Algorithm 2, lines 11–15, on the next poll).
        if state == SideTaskState::Stopped {
            if w.current_task.as_ref().is_some_and(|t| t.id == id) {
                w.current_task = None;
            } else {
                w.task_queue.retain(|t| t.id != id);
            }
        }
    }

    /// **Algorithm 2** — one iteration of the management loop. Returns the
    /// state-transition RPCs to issue.
    ///
    /// Allocates a fresh vector per call; the orchestrator uses
    /// [`SideTaskManager::poll_into`] with a reused buffer instead.
    pub fn poll(&mut self, now: SimTime) -> Vec<ManagerCmd> {
        let mut cmds = Vec::new();
        self.poll_into(now, &mut cmds);
        cmds
    }

    /// **Algorithm 2**, buffer form: appends the state-transition RPCs to
    /// issue onto `cmds` (which the caller typically clears and reuses
    /// across polls, keeping the management loop allocation-free).
    ///
    /// `now` is only compared with bubbles' predicted ends, so a second
    /// poll with no input in between issues nothing unless a predicted end
    /// passed. The orchestrator therefore polls when an input arrives (a
    /// bubble report or an ack) and at each reported bubble's predicted
    /// end, and never on a timer.
    pub fn poll_into(&mut self, now: SimTime, cmds: &mut Vec<ManagerCmd>) {
        for wi in 0..self.workers.len() {
            let w = &mut self.workers[wi];

            // Lines 4–8: the current bubble ended → pause the current task.
            if let Some(b) = w.current_bubble {
                if now >= b.predicted_end() {
                    if let Some(cur) = w.current_task.as_mut() {
                        if cur.state == SideTaskState::Running && !cur.awaiting_ack {
                            cur.awaiting_ack = true;
                            cmds.push(ManagerCmd::Pause {
                                worker: wi,
                                task: cur.id,
                            });
                        }
                    }
                    w.current_bubble = None;
                }
            }

            // Lines 9–10: adopt a newly reported bubble (skipping any that
            // already ended while in flight).
            if w.current_bubble.is_none() {
                while let Some(b) = w.incoming.pop_front() {
                    if b.predicted_end() > now {
                        w.current_bubble = Some(b);
                        break;
                    }
                }
            }

            // Lines 11–15: pick the next task if the slot is free.
            if w.current_task.is_none() {
                w.current_task = w.task_queue.pop_front();
            }

            // Lines 16–19: advance the current task. `live_bubble_end` is
            // `Some` exactly when the adopted bubble is still open at `now`.
            let live_bubble_end = w
                .current_bubble
                .map(|b| b.predicted_end())
                .filter(|&end| end > now);
            let Some(cur) = w.current_task.as_mut() else {
                continue;
            };
            if cur.awaiting_ack {
                continue;
            }
            match cur.state {
                SideTaskState::Created => {
                    cur.awaiting_ack = true;
                    cmds.push(ManagerCmd::Init {
                        worker: wi,
                        task: cur.id,
                    });
                }
                SideTaskState::Paused => {
                    if let Some(bubble_end) = live_bubble_end {
                        cur.awaiting_ack = true;
                        cmds.push(ManagerCmd::Start {
                            worker: wi,
                            task: cur.id,
                            bubble_end,
                        });
                    }
                }
                // Safety net: a task that became Running after its bubble
                // already expired (Start ack raced the bubble end) must be
                // paused, or it would run into training.
                SideTaskState::Running if live_bubble_end.is_none() => {
                    cur.awaiting_ack = true;
                    cmds.push(ManagerCmd::Pause {
                        worker: wi,
                        task: cur.id,
                    });
                }
                _ => {}
            }
        }
    }

    /// Issues `Stop` for every live task (end of pipeline training).
    pub fn stop_all(&mut self) -> Vec<ManagerCmd> {
        let mut cmds = Vec::new();
        for (wi, w) in self.workers.iter_mut().enumerate() {
            let stoppable = |v: &TaskView| {
                matches!(
                    v.state,
                    SideTaskState::Created | SideTaskState::Paused | SideTaskState::Running
                )
            };
            if let Some(cur) = w.current_task.as_mut() {
                if stoppable(cur) {
                    cur.awaiting_ack = true;
                    cmds.push(ManagerCmd::Stop {
                        worker: wi,
                        task: cur.id,
                    });
                }
            }
            for t in w.task_queue.iter_mut() {
                if stoppable(t) {
                    t.awaiting_ack = true;
                    cmds.push(ManagerCmd::Stop {
                        worker: wi,
                        task: t.id,
                    });
                }
            }
        }
        cmds
    }

    /// Total memory requirement currently admitted per worker (diagnostic).
    pub fn admitted_mem(&self, worker: usize) -> MemBytes {
        let w = &self.workers[worker];
        let queue: MemBytes = w.task_queue.iter().map(|t| t.mem).sum();
        queue + w.current_task.as_ref().map_or(MemBytes::ZERO, |t| t.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freeride_pipeline::BubbleKind;

    fn gib(g: u64) -> MemBytes {
        MemBytes::from_gib(g)
    }

    fn manager() -> SideTaskManager {
        // Bubble memory like the paper's 3.6B stages: ~2, 10, 18, 26 GB.
        SideTaskManager::new(vec![gib(2), gib(10), gib(18), gib(26)])
    }

    fn bubble(start_ms: u64, dur_ms: u64) -> BubbleReport {
        BubbleReport {
            stage: 0,
            start: SimTime::from_millis(start_ms),
            duration: freeride_sim::SimDuration::from_millis(dur_ms),
            kind: BubbleKind::TypeB,
            free_memory: gib(10),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn algorithm1_picks_min_task_worker_with_enough_memory() {
        let mut m = manager();
        // 3 GiB task: workers 1, 2, 3 qualify; all empty → first wins.
        let (w, cmd) = m
            .submit(TaskId(0), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 1);
        assert_eq!(
            cmd,
            ManagerCmd::Create {
                worker: 1,
                task: TaskId(0)
            }
        );
        // Next 3 GiB task: worker 1 now has one task → worker 2.
        let (w, _) = m
            .submit(TaskId(1), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 2);
        let (w, _) = m
            .submit(TaskId(2), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 3);
        // Fourth: workers 1,2,3 all have 1 → min index wins again.
        let (w, _) = m
            .submit(TaskId(3), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 1);
    }

    #[test]
    fn algorithm1_rejects_oversized_tasks_with_real_numbers() {
        let mut m = manager();
        assert_eq!(
            m.submit(TaskId(0), gib(30)).unwrap_err(),
            SubmitError::InsufficientMemory {
                needed: gib(30),
                best_worker_free: gib(26),
            }
        );
        // Strict inequality: a task exactly equal to the max is rejected.
        assert!(m.submit(TaskId(1), gib(26)).is_err());
        assert!(m.submit(TaskId(2), gib(25)).is_ok());
    }

    #[test]
    fn submit_error_display_carries_the_numbers() {
        let mut m = manager();
        let err = m.submit(TaskId(0), gib(30)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("30"), "needed memory in message: {msg}");
        assert!(msg.contains("26"), "best worker memory in message: {msg}");
        // Memory renders through MemBytes's Display — human units, never
        // raw byte counts.
        assert!(
            msg.contains("30.00GiB") && msg.contains("26.00GiB"),
            "GiB formatting in message: {msg}"
        );
        assert!(
            !msg.contains(&gib(30).as_bytes().to_string()),
            "no raw byte counts in message: {msg}"
        );
    }

    #[test]
    fn submit_error_display_covers_every_variant() {
        // Each variant's Display must surface its payload: the operator
        // acts on these strings.
        let mem = SubmitError::InsufficientMemory {
            needed: gib(30),
            best_worker_free: gib(26),
        };
        let msg = mem.to_string();
        assert!(msg.contains("bubble GPU memory"), "{msg}");

        let batch = SubmitError::InvalidBatch { batch: 0 };
        let msg = batch.to_string();
        assert!(msg.contains("invalid batch size 0"), "{msg}");
        assert!(msg.contains("positive"), "{msg}");

        let late = SubmitError::ArrivedAfterShutdown {
            arrival: SimTime::from_millis(12_345),
        };
        let msg = late.to_string();
        assert!(msg.contains("after pipeline training finished"), "{msg}");
        assert!(
            msg.contains(&SimTime::from_millis(12_345).to_string()),
            "arrival timestamp in message: {msg}"
        );

        // Debug formatting (the other format path reports use) stays
        // structured and lossless.
        let dbg = format!("{mem:?}");
        assert!(dbg.contains("InsufficientMemory"), "{dbg}");
        assert!(format!("{batch:?}").contains("InvalidBatch"));
        assert!(format!("{late:?}").contains("ArrivedAfterShutdown"));

        // And SubmitError is a real std error.
        let as_err: &dyn std::error::Error = &mem;
        assert!(as_err.source().is_none());
    }

    #[test]
    fn small_task_can_go_anywhere() {
        let mut m = manager();
        let (w, _) = m
            .submit(TaskId(0), gib(1))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 0, "smallest-index empty worker");
    }

    /// Walks a task through Create→Init→Start acks.
    fn admit_and_ready(m: &mut SideTaskManager, id: TaskId, mem: MemBytes) -> usize {
        let (w, _) = m
            .submit(id, mem)
            .expect("a worker with free memory exists in this scenario");
        m.on_task_state(w, id, SideTaskState::Created);
        let cmds = m.poll(SimTime::ZERO);
        assert!(
            cmds.contains(&ManagerCmd::Init {
                worker: w,
                task: id
            }),
            "{cmds:?}"
        );
        m.on_task_state(w, id, SideTaskState::Paused);
        w
    }

    #[test]
    fn algorithm2_full_lifecycle() {
        let mut m = manager();
        let id = TaskId(7);
        let w = admit_and_ready(&mut m, id, gib(3));

        // No bubble yet: nothing to do.
        assert!(m.poll(t(10)).is_empty());

        // Bubble arrives → Start with its predicted end.
        m.add_bubble(w, bubble(10, 500));
        let cmds = m.poll(t(11));
        assert_eq!(
            cmds,
            vec![ManagerCmd::Start {
                worker: w,
                task: id,
                bubble_end: t(510)
            }]
        );
        m.on_task_state(w, id, SideTaskState::Running);

        // While the bubble lives: nothing more.
        assert!(m.poll(t(200)).is_empty());

        // Bubble ends → Pause.
        let cmds = m.poll(t(510));
        assert_eq!(
            cmds,
            vec![ManagerCmd::Pause {
                worker: w,
                task: id
            }]
        );
        m.on_task_state(w, id, SideTaskState::Paused);
        assert!(m.worker(w).current_bubble().is_none());

        // Next bubble → Start again.
        m.add_bubble(w, bubble(600, 300));
        let cmds = m.poll(t(601));
        assert_eq!(
            cmds,
            vec![ManagerCmd::Start {
                worker: w,
                task: id,
                bubble_end: t(900)
            }]
        );
    }

    #[test]
    fn no_duplicate_commands_while_ack_pending() {
        let mut m = manager();
        let id = TaskId(1);
        let (w, _) = m
            .submit(id, gib(3))
            .expect("a worker with free memory exists in this scenario");
        // Create ack pending: poll must not emit Init yet.
        assert!(m.poll(t(1)).is_empty());
        m.on_task_state(w, id, SideTaskState::Created);
        let first = m.poll(t(2));
        assert_eq!(first.len(), 1);
        // Init ack still pending → no duplicate.
        assert!(m.poll(t(3)).is_empty());
    }

    #[test]
    fn stale_bubbles_are_skipped() {
        let mut m = manager();
        let id = TaskId(2);
        let w = admit_and_ready(&mut m, id, gib(3));
        m.add_bubble(w, bubble(0, 100)); // ends at 100

        // Polled long after the bubble ended: no Start.
        let cmds = m.poll(t(500));
        assert!(cmds.is_empty(), "{cmds:?}");
        assert!(m.worker(w).current_bubble().is_none());
    }

    #[test]
    fn stopped_current_task_frees_slot_for_queue() {
        let mut m = SideTaskManager::new(vec![gib(10)]);
        let a = TaskId(1);
        let b = TaskId(2);
        m.submit(a, gib(3))
            .expect("a worker with free memory exists in this scenario");
        m.submit(b, gib(3))
            .expect("a worker with free memory exists in this scenario");
        m.on_task_state(0, a, SideTaskState::Created);
        m.on_task_state(0, b, SideTaskState::Created);
        // First poll: a becomes current, gets Init.
        let cmds = m.poll(t(1));
        assert_eq!(cmds, vec![ManagerCmd::Init { worker: 0, task: a }]);
        assert_eq!(m.worker(0).current_task_id(), Some(a));
        // a dies (e.g. OOM kill) → b takes over on the next poll.
        m.on_task_state(0, a, SideTaskState::Stopped);
        assert_eq!(m.worker(0).current_task_id(), None);
        let cmds = m.poll(t(2));
        assert_eq!(cmds, vec![ManagerCmd::Init { worker: 0, task: b }]);
    }

    #[test]
    fn queue_is_fifo_by_submission() {
        let mut m = SideTaskManager::new(vec![gib(10)]);
        for i in 0..3 {
            m.submit(TaskId(i), gib(1))
                .expect("a worker with free memory exists in this scenario");
            m.on_task_state(0, TaskId(i), SideTaskState::Created);
        }
        m.poll(t(1));
        assert_eq!(m.worker(0).current_task_id(), Some(TaskId(0)));
        assert_eq!(m.worker(0).task_count(), 3);
    }

    #[test]
    fn stop_all_targets_every_live_task() {
        let mut m = SideTaskManager::new(vec![gib(10), gib(10)]);
        let a = TaskId(1);
        let b = TaskId(2);
        m.submit(a, gib(3))
            .expect("a worker with free memory exists in this scenario");
        m.submit(b, gib(3))
            .expect("a worker with free memory exists in this scenario");
        m.on_task_state(0, a, SideTaskState::Created);
        m.on_task_state(1, b, SideTaskState::Created);
        m.poll(t(1));
        m.on_task_state(0, a, SideTaskState::Paused);
        m.on_task_state(1, b, SideTaskState::Paused);
        let cmds = m.stop_all();
        assert_eq!(cmds.len(), 2);
        assert!(cmds.contains(&ManagerCmd::Stop { worker: 0, task: a }));
        assert!(cmds.contains(&ManagerCmd::Stop { worker: 1, task: b }));
    }

    #[test]
    fn pause_only_for_running_task() {
        let mut m = manager();
        let id = TaskId(3);
        let w = admit_and_ready(&mut m, id, gib(3));
        // Bubble comes and goes while the task is still Paused (Start ack
        // never arrives): on expiry there must be no Pause for a
        // non-running task.
        m.add_bubble(w, bubble(0, 50));
        let cmds = m.poll(t(10));
        assert_eq!(cmds.len(), 1, "start issued");
        // No Running ack. Bubble expires:
        let cmds = m.poll(t(100));
        assert!(cmds.is_empty(), "{cmds:?}");
    }

    #[test]
    fn first_fit_policy_ignores_load() {
        let mut m = manager().with_policy(WorkerPolicy::FirstFit);
        let (w, _) = m
            .submit(TaskId(0), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 1);
        let (w, _) = m
            .submit(TaskId(1), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 1, "first fit piles onto the same worker");
    }

    #[test]
    fn most_memory_policy_prefers_late_stages() {
        let mut m = manager().with_policy(WorkerPolicy::MostMemory);
        let (w, _) = m
            .submit(TaskId(0), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 3, "stage 3 has the most bubble memory");
        let (w, _) = m
            .submit(TaskId(1), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 3);
    }

    #[test]
    fn submit_to_pins_the_worker_and_checks_only_its_memory() {
        let mut m = manager();
        // Pinned to worker 0 (2 GiB): a 1 GiB task fits, a 3 GiB task is
        // rejected against *that* worker even though worker 3 could host it.
        let (w, cmd) = m
            .submit_to(TaskId(0), gib(1), 0)
            .expect("pinned worker accepts the task in this scenario");
        assert_eq!(w, 0);
        assert_eq!(
            cmd,
            ManagerCmd::Create {
                worker: 0,
                task: TaskId(0)
            }
        );
        assert_eq!(
            m.submit_to(TaskId(1), gib(3), 0).unwrap_err(),
            SubmitError::InsufficientMemory {
                needed: gib(3),
                best_worker_free: gib(2),
            }
        );
        // Pinning overrides load balancing: a second task lands on the
        // same pinned worker.
        let (w, _) = m
            .submit_to(TaskId(2), gib(1), 0)
            .expect("pinned worker accepts the task in this scenario");
        assert_eq!(w, 0);
        assert_eq!(m.worker(0).task_count(), 2);
    }

    #[test]
    fn admitted_mem_tracks_queue() {
        let mut m = SideTaskManager::new(vec![gib(10)]);
        m.submit(TaskId(1), gib(2))
            .expect("a worker with free memory exists in this scenario");
        m.submit(TaskId(2), gib(3))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(m.admitted_mem(0), gib(5));
    }

    #[test]
    fn select_worker_skips_blocked_workers() {
        let m = manager(); // workers: [2, 10, 18, 26] GiB, MinTasks
        assert_eq!(m.select_worker(gib(3), &[]), Some(1));
        // Blocking the natural pick falls through to the next candidate.
        assert_eq!(m.select_worker(gib(3), &[false, true]), Some(2));
        // Blocking every fitting worker yields no placement at all.
        assert_eq!(m.select_worker(gib(3), &[true, true, true, true]), None);
        // A short mask blocks nobody beyond its length.
        assert_eq!(m.select_worker(gib(20), &[true, true]), Some(3));
    }

    #[test]
    fn on_worker_crash_forgets_tasks_current_first() {
        let mut m = manager().with_policy(WorkerPolicy::FirstFit);
        // FirstFit piles all three 1 GiB tasks onto worker 0 (2 GiB).
        for id in [7, 8, 9] {
            let (w, _) = m
                .submit(TaskId(id), gib(1))
                .expect("a worker with free memory exists in this scenario");
            assert_eq!(w, 0);
        }
        // Promote task 7 to current: ack Create, adopt a bubble, poll.
        m.on_task_state(0, TaskId(7), SideTaskState::Created);
        m.add_bubble(0, bubble(0, 50));
        let _ = m.poll(t(0));
        assert_eq!(m.worker(0).current_task_id(), Some(TaskId(7)));
        assert!(m.worker(0).current_bubble().is_some());

        let lost = m.on_worker_crash(0);
        assert_eq!(lost, vec![TaskId(7), TaskId(8), TaskId(9)]);
        assert_eq!(m.worker(0).task_count(), 0);
        assert!(m.worker(0).current_bubble().is_none());
        // The worker stays selectable: a restart re-admits onto it.
        let (w, _) = m
            .submit(TaskId(10), gib(1))
            .expect("a worker with free memory exists in this scenario");
        assert_eq!(w, 0);
    }
}
