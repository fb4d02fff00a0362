//! A persistent, session-lifetime worker pool.
//!
//! The executor previously spawned OS threads with `crossbeam::thread::scope`
//! on every mini-batch ingest — thread creation cost on the critical path of
//! every batch, for every block. [`WorkerPool`] instead spawns `threads - 1`
//! workers once per session and keeps them parked on a condvar between
//! batches.
//!
//! One primitive, two shapes. Every job is a *cell* a queued stub points
//! at: whichever thread reaches the cell first — a worker popping the stub,
//! or the thread waiting for the result — runs the job; the other finds it
//! started and either waits (the waiter) or moves on (the worker).
//!
//! * [`WorkerPool::spawn`] submits one owned job and returns its [`Task`].
//!   The step uses it to gather and weigh the next mini-batch while the
//!   current one runs; [`Task::join`] runs the job inline if no worker has
//!   started it.
//! * [`WorkerPool::map`] submits one cell per item, then the calling thread
//!   runs every cell no worker has started and waits for the rest. With
//!   `threads = 1` there are no workers at all and `map` is a plain loop —
//!   the determinism baseline. A *nested* `map` (an item that maps on the
//!   pool itself) cannot deadlock: a thread only ever waits for a cell
//!   another thread is running, and that job only waits for cells it
//!   submitted itself.
//!
//! Panics are caught in the cell and re-raised on the thread that takes the
//! result: `map` re-raises the first panic by item index once every item
//! has finished — identical observable behaviour to the scoped-thread code
//! it replaces.

use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use gola_common::rng::hash_combine;
use gola_common::sync::{lock, wait};
use gola_common::timing::Stopwatch;
use gola_storage::shuffle::shuffle_in_place;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Wakes workers when jobs arrive or shutdown is flagged.
    work_ready: Condvar,
}

impl Shared {
    /// Worker loop: pop the next job or park until one arrives. A job
    /// whose cell another thread already started returns at once.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = wait(&self.work_ready, q);
                }
            };
            job();
        }
    }
}

/// Where one job is: queued (its closure inside), running on some thread,
/// done (its result or panic payload), or its result taken.
enum State<'a, R> {
    Queued(Box<dyn FnOnce() -> R + Send + 'a>),
    Running,
    Done(std::thread::Result<R>),
    Taken,
}

/// One job's hand-off between the thread that runs it and the one that
/// takes its result.
struct Cell<'a, R> {
    state: Mutex<State<'a, R>>,
    done: Condvar,
}

impl<'a, R> Cell<'a, R> {
    fn new(job: Box<dyn FnOnce() -> R + Send + 'a>) -> Arc<Cell<'a, R>> {
        Arc::new(Cell {
            state: Mutex::new(State::Queued(job)),
            done: Condvar::new(),
        })
    }

    /// Run the job on this thread unless a thread already started it.
    fn try_run(&self) {
        let job = {
            let mut state = lock(&self.state);
            match mem::replace(&mut *state, State::Running) {
                State::Queued(job) => job,
                other => {
                    *state = other;
                    return;
                }
            }
        };
        let result = catch_unwind(AssertUnwindSafe(job));
        *lock(&self.state) = State::Done(result);
        self.done.notify_all();
    }

    /// The job's result: run here if no thread has started it, otherwise
    /// waited for.
    fn join(&self) -> std::thread::Result<R> {
        self.try_run();
        let mut state = lock(&self.state);
        loop {
            match mem::replace(&mut *state, State::Taken) {
                State::Done(result) => return result,
                other => *state = other,
            }
            state = wait(&self.done, state);
        }
    }
}

/// An owned job submitted with [`WorkerPool::spawn`]. Dropping a task
/// that no thread has started drops its job unrun.
pub struct Task<R> {
    cell: Arc<Cell<'static, R>>,
}

impl<R> Task<R> {
    /// Run the job on this thread unless a thread has started it.
    pub fn try_run(&self) {
        self.cell.try_run();
    }

    /// The job's result: run on this thread if no worker has started it,
    /// otherwise waited for. Re-raises the job's panic.
    pub fn join(self) -> R {
        self.cell
            .join()
            .unwrap_or_else(|payload| resume_unwind(payload))
    }
}

impl<R> Drop for Task<R> {
    fn drop(&mut self) {
        let mut state = lock(&self.cell.state);
        if matches!(*state, State::Queued(_)) {
            *state = State::Taken;
        }
    }
}

/// A persistent pool of `threads - 1` workers plus the calling thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Schedule-perturbation seed: when set, each `map`'s jobs are queued
    /// and run in an order shuffled under a per-`map` seed.
    perturb: Option<u64>,
    /// `map` calls so far, the per-`map` part of a perturbation seed.
    maps: AtomicU64,
}

impl WorkerPool {
    /// Build a pool that executes on `threads` threads total (the caller
    /// counts as one; `threads <= 1` spawns nothing).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::build(threads, None)
    }

    /// As [`WorkerPool::new`], but every `map`'s dispatch order is
    /// shuffled with an RNG derived from `seed`. Completion order becomes
    /// adversarial while results must stay bit-identical — the dynamic
    /// complement to `clippy.toml`'s `disallowed-methods`.
    pub fn with_perturbation(threads: usize, seed: u64) -> WorkerPool {
        WorkerPool::build(threads, Some(seed))
    }

    fn build(threads: usize, perturb: Option<u64>) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("gola-worker-{i}"))
                    .spawn(move || shared.worker_loop());
                #[expect(clippy::expect_used, reason = "a pool that cannot spawn cannot run")]
                spawned.expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
            perturb,
            maps: AtomicU64::new(0),
        }
    }

    /// Total threads a `map` executes on (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Wrap `job` with the pool's (inert) instrumentation: queue-wait and
    /// run-time histograms, and the submitting thread's span path captured
    /// here — at submission, deterministically — and re-established around
    /// the job wherever it runs, so span parent links are independent of
    /// which thread executes it.
    fn instrument<'a, R: 'a>(
        job: impl FnOnce() -> R + Send + 'a,
    ) -> Box<dyn FnOnce() -> R + Send + 'a> {
        if !gola_obs::enabled() {
            return Box::new(job);
        }
        crate::metrics::pool_jobs().inc();
        let submitted = Stopwatch::start();
        let span_path = gola_obs::span::current_path();
        Box::new(move || {
            crate::metrics::pool_queue_wait().observe_duration(submitted.elapsed());
            let run = Stopwatch::start();
            let result = if span_path.is_empty() {
                job()
            } else {
                gola_obs::span::with_path(&span_path, job)
            };
            crate::metrics::pool_job_run().observe_duration(run.elapsed());
            result
        })
    }

    /// Queue `jobs` for the workers.
    fn enqueue(&self, jobs: impl IntoIterator<Item = Job>) {
        lock(&self.shared.queue).jobs.extend(jobs);
        self.shared.work_ready.notify_all();
    }

    /// Submit one owned job. A worker runs it when it reaches it in the
    /// queue, unless [`Task::join`] gets there first and runs it inline;
    /// with one thread there is no worker and `join` always does.
    pub fn spawn<R: Send + 'static>(&self, job: impl FnOnce() -> R + Send + 'static) -> Task<R> {
        let cell = Cell::new(WorkerPool::instrument(job));
        if !self.workers.is_empty() {
            let stub = Arc::clone(&cell);
            self.enqueue([Box::new(move || stub.try_run()) as Job]);
        }
        Task { cell }
    }

    /// Apply `f` to every item across the pool and return the results in
    /// item order — the one parallel shape the stages use. With one thread
    /// or at most one item this is a plain inline loop (no boxing, no
    /// queue); otherwise each item is one job the caller and the workers
    /// share, and the first panic by item index propagates once every item
    /// has finished.
    pub fn map<T: Send, R: Send>(
        &self,
        items: impl IntoIterator<Item = T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let items: Vec<T> = items.into_iter().collect();
        if self.workers.is_empty() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        if gola_obs::enabled() {
            crate::metrics::pool_runs().inc();
        }
        let f = &f;
        let cells: Vec<Arc<Cell<'_, R>>> = items
            .into_iter()
            .map(|item| Cell::new(WorkerPool::instrument(move || f(item))))
            .collect();
        // Schedule-perturbation stress: queue and run in a shuffled order.
        // Results are taken in item order below, so which panic propagates
        // is shuffle-invariant; only the physical completion order moves.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        if let Some(seed) = self.perturb {
            let nth = self.maps.fetch_add(1, Ordering::Relaxed);
            shuffle_in_place(&mut order, hash_combine(seed, nth));
        }
        self.enqueue(order.iter().map(|&i| {
            let stub = Arc::clone(&cells[i]);
            let stub: Box<dyn FnOnce() + Send + '_> = Box::new(move || stub.try_run());
            // SAFETY: `map` returns (normally or by panic) only after every
            // cell is `Taken` — each was run or waited for below, and a
            // job's panic is caught inside its cell. A stub still queued
            // after that holds nothing borrowed: its `try_run` finds the
            // cell taken and returns, and dropping it drops an empty state.
            unsafe { mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(stub) }
        }));
        // The caller runs every job no worker has started, then waits for
        // the ones still running.
        for &i in &order {
            cells[i].try_run();
        }
        let results: Vec<_> = cells.iter().map(|c| c.join()).collect();
        (results.into_iter())
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn jobs_touching(counter: &AtomicUsize, n: usize) -> Vec<Box<dyn FnOnce() + Send + '_>> {
        (0..n)
            .map(|_| {
                let c = counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect()
    }

    #[test]
    fn runs_all_jobs_single_threaded() {
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.map(jobs_touching(&counter, 17), |job| job());
        assert_eq!(counter.load(Ordering::Relaxed), 17);
        let squares: Vec<u64> = (0..17).map(|i| i * i).collect();
        assert_eq!(pool.map(0..17u64, |i| i * i), squares);
    }

    #[test]
    fn runs_all_jobs_multi_threaded() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.map(jobs_touching(&counter, 23), |job| job());
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50 * 23);
    }

    #[test]
    fn jobs_borrow_caller_state() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let sums: Vec<Mutex<u64>> = (0..4).map(|_| Mutex::new(0)).collect();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks(250)
            .zip(&sums)
            .map(|(chunk, slot)| {
                Box::new(move || {
                    *slot.lock().unwrap() = chunk.iter().sum();
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.map(jobs, |job| job());
        let by_run: Vec<u64> = sums.iter().map(|s| *s.lock().unwrap()).collect();
        assert_eq!(by_run.iter().sum::<u64>(), 999 * 1000 / 2);
        // `map` returns results in item order whichever thread produced
        // them.
        let by_map = pool.map(data.chunks(250), |chunk| chunk.iter().sum::<u64>());
        assert_eq!(by_map, by_run);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let counter = Arc::new(AtomicUsize::new(0));
        let outer: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                        .map(|_| {
                            let counter = Arc::clone(&counter);
                            Box::new(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.map(inner, |job| job());
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.map(outer, |job| job());
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_propagates_after_all_jobs_finish() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let job = |i: usize| {
            if i == 3 {
                panic!("job 3 exploded");
            }
            counter.fetch_add(1, Ordering::Relaxed);
        };
        let via_run = || {
            let jobs = (0..8).map(|i| Box::new(move || job(i)) as Box<dyn FnOnce() + Send + '_>);
            drop(pool.map(jobs, |job| job()))
        };
        let via_map = || drop(pool.map(0..8, job));
        for (ran, drive) in [(7, &via_run as &dyn Fn()), (14, &via_map)] {
            let err = catch_unwind(AssertUnwindSafe(drive)).unwrap_err();
            let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "job 3 exploded");
            // Every non-panicking job still ran before the panic re-raised.
            assert_eq!(counter.load(Ordering::Relaxed), ran);
        }
    }

    #[test]
    fn pool_survives_panicking_run() {
        let pool = WorkerPool::new(2);
        let bad: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
            .map(|_| Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        assert!(catch_unwind(AssertUnwindSafe(|| pool.map(bad, |job| job()))).is_err());
        let counter = AtomicUsize::new(0);
        pool.map(jobs_touching(&counter, 5), |job| job());
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    /// A spawned job runs exactly once — on a worker or inside `join` —
    /// and a task dropped before any thread starts it never runs.
    #[test]
    fn spawned_jobs_run_once_wherever_they_land() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let counter = Arc::new(AtomicUsize::new(0));
            let tasks: Vec<Task<usize>> = (0..64)
                .map(|i| {
                    let counter = Arc::clone(&counter);
                    pool.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        i * i
                    })
                })
                .collect();
            let squares: Vec<usize> = tasks.into_iter().map(Task::join).collect();
            assert_eq!(squares, (0..64).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(counter.load(Ordering::Relaxed), 64, "threads={threads}");
        }
        let pool = WorkerPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ran);
        drop(pool.spawn(move || seen.fetch_add(1, Ordering::Relaxed)));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "a dropped task ran");
    }

    #[test]
    fn spawned_panic_reraises_on_join() {
        let pool = WorkerPool::new(2);
        let task = pool.spawn(|| -> u32 { panic!("spawned job exploded") });
        let err = catch_unwind(AssertUnwindSafe(|| task.join())).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"spawned job exploded"));
        assert_eq!(pool.map(0..4u32, |i| i + 1), vec![1, 2, 3, 4]);
    }
}
