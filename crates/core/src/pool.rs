//! A persistent worker-thread pool for the chromatic Gibbs engine, which
//! resamples one color class per barrier, thousands of times a run.
//!
//! One primitive, [`WorkerPool::broadcast`], runs a borrowed task on slots
//! `0..slots`: the calling thread runs slot 0 and `n − 1` persistent workers
//! the rest. They meet at a start and an end [`Barrier`] behind a gate
//! mutex, and a drop guard meets the end barrier whether `broadcast`
//! returns or unwinds, so no task outlives the call. A broadcast allocates
//! nothing.

#![allow(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use coopmc_obs::profile::Kernel;
use coopmc_obs::{Event, NoopRecorder, Recorder, WorkerStats};

/// A task with its borrows erased. Only [`WorkerPool::broadcast`] makes
/// one, and it clears it before the borrows end.
type Task = &'static (dyn Fn(usize) + Sync);

/// What the caller publishes to the workers for one broadcast.
#[derive(Default)]
struct Round {
    /// `None` outside a broadcast: a worker released from the start barrier
    /// without a task exits.
    task: Option<Task>,
    /// Slots `0..slots` run the task.
    slots: usize,
    /// The first panicking task's payload.
    panic: Option<Box<dyn Any + Send>>,
}

/// One slot's busy nanoseconds and tasks run: relaxed atomics, bumped once
/// per run.
#[derive(Default)]
struct SlotAccounting {
    busy_ns: AtomicU64,
    jobs: AtomicU64,
}

/// The pool's state; each worker holds it through an `Arc`.
struct Shared {
    /// Lets one broadcast at a time use the barriers.
    gate: Mutex<()>,
    round: Mutex<Round>,
    start: Barrier,
    end: Barrier,
    slots: Vec<SlotAccounting>,
}

impl Shared {
    /// Lock the round; every update is one assignment, so it is never torn.
    fn round(&self) -> MutexGuard<'_, Round> {
        self.round.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `slot` of `task`, keeping the first panic's payload and timing
    /// the run into the slot's accounting.
    fn run(&self, slot: usize, task: &(dyn Fn(usize) + Sync)) {
        let t0 = Instant::now();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(slot))) {
            self.round().panic.get_or_insert(payload);
        }
        let acc = &self.slots[slot];
        acc.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        acc.jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker's life: run `slot` of every round until the pool drops.
    fn serve(&self, slot: usize) {
        loop {
            self.start.wait();
            let Round { task, slots, .. } = *self.round();
            let Some(task) = task else { return };
            if slot < slots {
                self.run(slot, task);
            }
            self.end.wait();
        }
    }
}

/// Ends a round when dropped, even by an unwind: meets the end barrier, so
/// every worker has finished the task, then clears the task.
struct EndOfRound<'a>(&'a Shared);

impl Drop for EndOfRound<'_> {
    fn drop(&mut self) {
        self.0.end.wait();
        self.0.round().task = None;
    }
}

/// A fixed-size pool of threads running borrowed tasks: the calling thread
/// is slot 0 and `n − 1` persistent workers are slots `1..n`.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("n_threads", &self.n_threads())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool of `n_threads` slots: the caller plus `n_threads − 1`
    /// spawned workers.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        let shared = Arc::new(Shared {
            gate: Mutex::default(),
            round: Mutex::default(),
            start: Barrier::new(n_threads),
            end: Barrier::new(n_threads),
            slots: (0..n_threads).map(|_| SlotAccounting::default()).collect(),
        });
        let workers = (1..n_threads)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("coopmc-worker-{}", slot - 1))
                    .spawn(move || shared.serve(slot))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of slots: the caller plus the spawned workers.
    pub fn n_threads(&self) -> usize {
        self.shared.slots.len()
    }

    /// Snapshot every slot's cumulative busy/job tallies, slot 0 first.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .slots
            .iter()
            .map(|a| WorkerStats {
                busy_ns: a.busy_ns.load(Ordering::Relaxed),
                jobs: a.jobs.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total nanoseconds every slot, slot 0 included, has spent running
    /// tasks.
    pub fn total_busy_ns(&self) -> u64 {
        self.shared
            .slots
            .iter()
            .map(|a| a.busy_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Run `task(slot)` for every slot in `0..slots` and return once all
    /// have finished; the task may borrow from the caller's stack. The
    /// calling thread runs slot 0 and worker `i` slot `i + 1`. The
    /// `pool.dispatch` (publish, start barrier) and `pool.join` (end
    /// barrier) times go to `rec` as lane 0's [`Event::Kernel`]s, timed
    /// with `rec`'s clock.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= slots <= n_threads()`. If a task panicked,
    /// re-raises the first payload once every slot has finished; the pool
    /// stays usable.
    pub fn broadcast(&self, slots: usize, task: &(dyn Fn(usize) + Sync), rec: &impl Recorder) {
        let n = self.n_threads();
        assert!((1..=n).contains(&slots), "{slots} slots on {n} threads");
        let shared = &*self.shared;
        // A panic re-raised by an earlier broadcast poisons the gate; the
        // round it guarded has ended all the same.
        let _gate = shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let t_dispatch = rec.now_ns();
        // A payload left by a round that unwound early: its drop may panic.
        drop(shared.round().panic.take());
        // SAFETY: workers read the erased reference only between the start
        // and the end barrier of this round, and `EndOfRound` meets the end
        // barrier and clears the reference before this function returns or
        // unwinds past it; nothing between publishing (which drops no
        // payload) and the start barrier can panic. The borrows `task` holds
        // therefore outlive every use.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(task) };
        *shared.round() = Round {
            task: Some(erased),
            slots,
            panic: None,
        };
        shared.start.wait();
        let round = EndOfRound(shared);
        leaf(rec, Kernel::PoolDispatch, t_dispatch);
        shared.run(0, task);
        let t_join = rec.now_ns();
        drop(round);
        leaf(rec, Kernel::PoolJoin, t_join);
        let panic = shared.round().panic.take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Run a batch of jobs, which may borrow from the caller's stack,
    /// round-robin over the slots: slot `s` runs jobs `s`, `s + slots`, …
    ///
    /// # Panics
    ///
    /// A panicking job ends its slot's turn; once the other slots have
    /// finished theirs, its payload is re-raised.
    pub fn execute<'scope>(&self, batch: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let slots = batch.len().clamp(1, self.n_threads());
        let jobs: Vec<_> = batch.into_iter().map(|job| Mutex::new(Some(job))).collect();
        let run_slot = |slot: usize| {
            for job in jobs.iter().skip(slot).step_by(slots) {
                let job = job.lock().expect("no job runs under its lock").take();
                job.expect("slots take disjoint jobs")();
            }
        };
        self.broadcast(slots, &run_slot, &NoopRecorder);
    }
}

/// Report lane 0's time in `kernel` since clock reading `start_ns`.
fn leaf(rec: &impl Recorder, kernel: Kernel, start_ns: u64) {
    let end_ns = rec.now_ns();
    rec.record(Event::Kernel {
        lane: 0,
        kernel,
        end_ns,
        dur_ns: end_ns - start_ns,
        cycles: 0,
    });
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Released from the start barrier with no task, every worker exits;
        // workers catch their tasks' panics, so joining reports nothing.
        self.shared.start.wait();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
        let payload = result.expect_err("execute must propagate the panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "the job's own payload"
        );
        assert_eq!(counter.load(Ordering::SeqCst), 3, "other jobs still ran");
        // The pool stays usable after a panicked batch.
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {})];
        pool.execute(jobs);
    }

    #[test]
    fn broadcast_with_profiler_emits_dispatch_and_join_leaves() {
        use coopmc_obs::SpanProfiler;
        let pool = WorkerPool::new(2);
        let prof = SpanProfiler::new(2);
        let counter = AtomicUsize::new(0);
        pool.broadcast(
            2,
            &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            },
            &&prof,
        );
        assert_eq!(counter.load(Ordering::SeqCst), 2);
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
        // Six jobs on three slots: every slot runs once per batch.
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.jobs == 4), "{stats:?}");
        assert_eq!(
            stats.iter().map(|s| s.busy_ns).sum::<u64>(),
            pool.total_busy_ns()
        );
    }

    /// A recorder whose clock panics on its second reading — inside a
    /// broadcast, after the workers were released — flagging it first.
    struct PanickingClock {
        reads: AtomicUsize,
        broke: AtomicBool,
    }

    impl Recorder for PanickingClock {
        fn now_ns(&self) -> u64 {
            if self.reads.fetch_add(1, Ordering::SeqCst) == 1 {
                self.broke.store(true, Ordering::SeqCst);
                panic!("clock broke");
            }
            0
        }
    }

    #[test]
    fn a_panicking_recorder_leaves_no_task_running() {
        let pool = WorkerPool::new(2);
        let rec = PanickingClock {
            reads: AtomicUsize::new(0),
            broke: AtomicBool::new(false),
        };
        let (running, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // The worker is mid-task when the clock breaks, and stays there
        // long enough for an unguarded caller to unwind past it.
        let task = |_| {
            running.fetch_add(1, Ordering::SeqCst);
            while !rec.broke.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            running.fetch_sub(1, Ordering::SeqCst);
            done.fetch_add(1, Ordering::SeqCst);
        };
        let result = catch_unwind(AssertUnwindSafe(|| pool.broadcast(2, &task, &rec)));
        assert!(result.is_err(), "the recorder's panic reaches the caller");
        assert_eq!(
            running.load(Ordering::SeqCst),
            0,
            "a task outlived the call"
        );
        // The panic came before slot 0 ran; the worker's slot finished.
        assert_eq!(done.load(Ordering::SeqCst), 1);
        pool.broadcast(2, &task, &NoopRecorder);
        assert_eq!(done.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn many_broadcasts_over_cycling_slot_counts_and_two_callers() {
        let pool = WorkerPool::new(4);
        // Every call sees its own slots `0..slots` run once each, and no
        // other slot, even while another thread broadcasts on the pool.
        let call = |slots: usize| {
            let hits = [(); 4].map(|_| AtomicUsize::new(0));
            pool.broadcast(
                slots,
                &|slot| {
                    hits[slot].fetch_add(1, Ordering::SeqCst);
                },
                &NoopRecorder,
            );
            let hits = hits.map(AtomicUsize::into_inner);
            let expected: Vec<usize> = (0..4).map(|s| usize::from(s < slots)).collect();
            assert_eq!(hits[..], expected[..], "{slots} slots");
        };
        for i in 0..10_000 {
            call(i % 4 + 1);
        }
        std::thread::scope(|s| {
            for offset in 0..2 {
                s.spawn(move || {
                    for i in 0..2_000 {
                        call((i + offset) % 4 + 1);
                    }
                });
            }
        });
    }
}
