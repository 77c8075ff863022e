//! The parallel sweep executor: fans independent simulation runs across
//! OS threads while keeping output deterministic.
//!
//! Every paper experiment is a sweep of independent full simulations
//! (workloads × batch sizes × methods × model sizes). Each run is
//! single-threaded and deterministic, so the sweep parallelises perfectly:
//! submit closures, run them on a small thread pool of scoped threads, and
//! collect results **in submission order** — the printed output is
//! byte-identical to a sequential run regardless of thread count or
//! scheduling.
//!
//! Jobs must therefore be pure with respect to the terminal: compute and
//! *return* row data; the caller prints after the sweep completes.
//!
//! Thread count comes from [`BenchArgs`](crate::BenchArgs) (`--threads N`
//! or `FR_THREADS`, default = available parallelism); `threads = 1`
//! degenerates to an in-place sequential loop with no thread spawned.

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Executes batches of independent jobs across a fixed number of threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// Creates a runner that uses up to `threads` OS threads per sweep
    /// (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// Number of threads this runner fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job and returns their results in submission order.
    ///
    /// Jobs are claimed from a shared queue (so long and short runs load-
    /// balance across threads) but each result lands in its submission
    /// slot, making the output independent of scheduling. A sequential
    /// in-place loop is used when one thread suffices.
    ///
    /// # Panics
    ///
    /// A panicking job propagates its panic out of the sweep (after the
    /// remaining threads are joined).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let n = jobs.len();
        if self.threads == 1 || n <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }

        let queue = Mutex::new(jobs.into_iter().enumerate());
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // `std::thread::scope` joins every thread, then panics if any
        // job did.
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| loop {
                    // Hold the queue lock only for the claim, not the run.
                    let job = queue.lock().expect("queue lock").next();
                    match job {
                        Some((i, f)) => {
                            let out = f();
                            *results[i].lock().expect("result lock") = Some(out);
                        }
                        None => break,
                    }
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result lock")
                    .expect("every job ran")
            })
            .collect()
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let runner = SweepRunner::new(4);
        let jobs: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    // Stagger runtimes so completion order differs from
                    // submission order.
                    std::thread::sleep(std::time::Duration::from_micros(((32 - i) as u64) * 50));
                    i * 10
                }
            })
            .collect();
        let out = runner.run(jobs);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_in_place() {
        let runner = SweepRunner::new(1);
        let main_thread = std::thread::current().id();
        let jobs: Vec<_> = (0..2)
            .map(|_| move || std::thread::current().id() == main_thread)
            .collect();
        let out = runner.run(jobs);
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let runner = SweepRunner::new(8);
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = &counter;
                move || c.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let out = runner.run(jobs);
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        // All tickets distinct: each job ran exactly once.
        let mut seen = out.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn a_panicking_job_propagates_after_the_others_run() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..16usize)
            .map(|i| {
                let c = &counter;
                move || {
                    assert_ne!(i, 5, "job 5 fails");
                    c.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        let runner = SweepRunner::new(4);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(jobs)));
        assert!(outcome.is_err(), "the job's panic must reach the caller");
        assert_eq!(counter.load(Ordering::SeqCst), 15, "every other job ran");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u8> = SweepRunner::new(4).run(Vec::<fn() -> u8>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        // The determinism contract: same closures, any thread count, same
        // bytes. Jobs format floats (the usual row payload) to catch any
        // ordering- or state-dependence.
        let make_jobs = || {
            (0..24u64)
                .map(|i| {
                    move || {
                        let x = (i as f64 * 0.37).sin() * 100.0;
                        format!("row {i}: {x:.6}")
                    }
                })
                .collect::<Vec<_>>()
        };
        let seq = SweepRunner::new(1).run(make_jobs());
        for threads in [2, 3, 8] {
            let par = SweepRunner::new(threads).run(make_jobs());
            assert_eq!(seq, par, "threads={threads} must not change output");
        }
    }
}
