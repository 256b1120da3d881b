//! A persistent worker-thread pool for the parallel Gibbs engines.
//!
//! The chromatic engine dispatches one batch of jobs per color class, every
//! sweep, for thousands of sweeps. Spawning OS threads per class (the naive
//! `std::thread::scope` approach) pays thread-creation latency on every
//! batch; this pool spawns its workers **once** and feeds them jobs over a
//! channel, which is the difference between microseconds and milliseconds
//! per class on small models.
//!
//! Design: a single `std::sync::mpsc` job channel shared by all workers
//! behind a mutex (SPMC), plus a completion channel workers ack on after
//! every job. [`WorkerPool::execute`] submits a batch of borrowing closures
//! and blocks until all of them have acked — that barrier is what makes
//! lending non-`'static` closures to the workers sound (see the safety
//! notes on `execute`).

#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A lifetime-erased job. Only ever constructed inside
/// [`WorkerPool::execute`], which guarantees the erased borrows stay alive
/// until the job has finished.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Outcome ack a worker sends after running one job.
#[derive(Debug, Clone, Copy)]
enum Ack {
    Done,
    Panicked,
}

/// Per-worker idle/busy accounting, updated with relaxed atomics after
/// every job (two stores per *job*, not per variable — the cost is noise
/// next to channel traffic, so the accounting is always on).
#[derive(Debug, Default)]
struct WorkerAccounting {
    /// Nanoseconds spent executing job closures.
    busy_ns: AtomicU64,
    /// Jobs executed.
    jobs: AtomicU64,
}

/// A snapshot of one worker's cumulative accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Nanoseconds this worker spent executing job closures since the pool
    /// was created.
    pub busy_ns: u64,
    /// Jobs this worker has executed since the pool was created.
    pub jobs: u64,
}

/// A fixed-size pool of persistent worker threads executing batches of
/// scoped jobs.
#[derive(Debug)]
pub struct WorkerPool {
    /// `None` only during drop (taking the sender closes the channel).
    jobs: Option<Sender<Job>>,
    /// Behind a mutex so the pool is `Sync`; only the batch holder reads it.
    acks: Mutex<Receiver<Ack>>,
    workers: Vec<JoinHandle<()>>,
    /// Per-worker busy/job tallies, shared with the worker threads.
    accounting: Arc<Vec<WorkerAccounting>>,
    /// Serializes `execute` batches so acks of concurrent callers can't
    /// interleave.
    batch_gate: Mutex<()>,
}

impl WorkerPool {
    /// Spawn a pool with `n_threads` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        let (jobs_tx, jobs_rx) = channel::<Job>();
        let (acks_tx, acks_rx) = channel::<Ack>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let accounting: Arc<Vec<WorkerAccounting>> = Arc::new(
            (0..n_threads)
                .map(|_| WorkerAccounting::default())
                .collect(),
        );
        let workers = (0..n_threads)
            .map(|i| {
                let jobs_rx = Arc::clone(&jobs_rx);
                let acks_tx = acks_tx.clone();
                let accounting = Arc::clone(&accounting);
                std::thread::Builder::new()
                    .name(format!("coopmc-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing.
                        let job = match jobs_rx.lock().unwrap().recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped: channel closed
                        };
                        let t0 = Instant::now();
                        let ack = match catch_unwind(AssertUnwindSafe(job)) {
                            Ok(()) => Ack::Done,
                            Err(_) => Ack::Panicked,
                        };
                        let slot = &accounting[i];
                        slot.busy_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        slot.jobs.fetch_add(1, Ordering::Relaxed);
                        // The pool may already be gone mid-drop; a dead ack
                        // channel just means nobody is waiting.
                        let _ = acks_tx.send(ack);
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            jobs: Some(jobs_tx),
            acks: Mutex::new(acks_rx),
            workers,
            accounting,
            batch_gate: Mutex::new(()),
        }
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot every worker's cumulative busy/job tallies.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.accounting
            .iter()
            .map(|a| WorkerStats {
                busy_ns: a.busy_ns.load(Ordering::Relaxed),
                jobs: a.jobs.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total nanoseconds workers have spent executing jobs (all workers).
    pub fn total_busy_ns(&self) -> u64 {
        self.accounting
            .iter()
            .map(|a| a.busy_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Total jobs executed by the pool.
    pub fn total_jobs(&self) -> u64 {
        self.accounting
            .iter()
            .map(|a| a.jobs.load(Ordering::Relaxed))
            .sum()
    }

    /// Run a batch of jobs to completion on the pool.
    ///
    /// Blocks until every job has finished. Jobs may borrow from the
    /// caller's stack (`'scope`), which is what the chromatic engine needs:
    /// they capture `&Model` and per-worker scratch slots.
    ///
    /// # Panics
    ///
    /// Panics with "worker panicked" if any job panicked (after all jobs in
    /// the batch have completed, so borrows are never left dangling).
    pub fn execute<'scope>(&self, batch: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        self.execute_with(batch, &coopmc_obs::NoopRecorder);
    }

    /// [`execute`](Self::execute), reporting dispatch/join latency to a
    /// profiling recorder.
    ///
    /// The time spent feeding the job channel is reported as a
    /// `pool.dispatch` leaf and the time blocked on worker acks as a
    /// `pool.join` leaf, both on lane 0 (the coordinator) — the join leaf is
    /// how the scaling-curve bench separates coordinator wait from worker
    /// busy time. Both are timed with the recorder's clock, so with the
    /// [`coopmc_obs::NoopRecorder`] this is exactly `execute`.
    pub fn execute_with<'scope, Rec: coopmc_obs::Recorder>(
        &self,
        batch: Vec<Box<dyn FnOnce() + Send + 'scope>>,
        recorder: &Rec,
    ) {
        use coopmc_obs::profile::Kernel;
        // `into_inner` on poison: a previous batch that propagated a job
        // panic must not brick the pool.
        let _gate = self.batch_gate.lock().unwrap_or_else(|e| e.into_inner());
        let n = batch.len();
        let jobs = self.jobs.as_ref().expect("pool is live outside drop");
        let t_dispatch = recorder.now_ns();
        for job in batch {
            // SAFETY: erasing 'scope to 'static is sound because this
            // function does not return (not even by panic) until the ack
            // loop below has received one ack per submitted job, and a
            // worker only acks *after* the job closure has been consumed.
            // The borrows captured in `job` therefore strictly outlive its
            // execution. The ack loop cannot miss acks: `batch_gate`
            // serializes batches, and workers never terminate while
            // `self.jobs` is alive.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            jobs.send(job).expect("workers alive while pool is live");
        }
        let t_join = recorder.now_ns();
        recorder.prof_leaf(0, Kernel::PoolDispatch, t_join - t_dispatch);
        let mut panicked = false;
        {
            let acks = self.acks.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..n {
                match acks.recv().expect("workers alive while pool is live") {
                    Ack::Done => {}
                    Ack::Panicked => panicked = true,
                }
            }
        }
        recorder.prof_leaf(0, Kernel::PoolJoin, recorder.now_ns() - t_join);
        assert!(!panicked, "worker panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channel makes every worker's recv fail and exit.
        drop(self.jobs.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_borrowing_jobs() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let values = [1usize, 2, 3, 4, 5, 6, 7];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = values
            .iter()
            .map(|v| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(*v, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.execute(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 28);
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..200 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.execute(jobs);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 600);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.execute(Vec::new());
    }

    #[test]
    fn panicking_job_is_reported_after_batch_completes() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    let counter = &counter;
                    Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.execute(jobs);
        }));
        assert!(result.is_err(), "execute must propagate the panic");
        assert_eq!(counter.load(Ordering::SeqCst), 3, "other jobs still ran");
        // The pool stays usable after a panicked batch.
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {})];
        pool.execute(jobs);
    }

    #[test]
    fn execute_with_profiler_emits_dispatch_and_join_leaves() {
        use coopmc_obs::profile::Kernel;
        use coopmc_obs::SpanProfiler;
        let pool = WorkerPool::new(2);
        let prof = SpanProfiler::new(3);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.execute_with(jobs, &&prof);
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        let reports = prof.kernel_reports();
        for k in [Kernel::PoolDispatch, Kernel::PoolJoin] {
            let row = reports
                .iter()
                .find(|r| r.kernel == k && r.worker == 0)
                .unwrap_or_else(|| panic!("missing {} leaf", k.name()));
            assert_eq!(row.calls, 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn worker_accounting_tracks_jobs_and_busy_time() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.total_jobs(), 0);
        assert_eq!(pool.total_busy_ns(), 0);
        for _ in 0..4 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|_| {
                    Box::new(|| {
                        std::hint::black_box((0..2000).sum::<u64>());
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.execute(jobs);
        }
        assert_eq!(pool.total_jobs(), 24, "every job must be accounted");
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 24);
        assert_eq!(
            stats.iter().map(|s| s.busy_ns).sum::<u64>(),
            pool.total_busy_ns()
        );
    }
}
