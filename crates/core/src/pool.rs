//! A persistent, session-lifetime worker pool.
//!
//! The executor previously spawned OS threads with `crossbeam::thread::scope`
//! on every mini-batch ingest — thread creation cost on the critical path of
//! every batch, for every block. [`WorkerPool`] instead spawns `threads - 1`
//! workers once per session and keeps them parked on a condvar between
//! batches; [`WorkerPool::run`] then executes a batch of borrowed closures
//! across the workers *and* the calling thread.
//!
//! Design points:
//!
//! * **The caller participates.** `run` executes jobs on the calling thread
//!   while workers drain the same queue. With `threads = 1` there are no
//!   workers at all and `run` degenerates to a sequential loop — the
//!   determinism baseline. Caller participation also makes *nested* `run`
//!   calls safe: an inner `run` simply executes on whichever thread entered
//!   it (jobs are tagged with a run id, so an inner run never steals the
//!   outer run's jobs), which the executor relies on when a parallel
//!   wavefront ingest reaches a per-block parallel chunk fold.
//! * **Borrowed jobs.** Jobs capture `&'a` state from the caller's stack.
//!   They are transmuted to `'static` to cross the thread boundary; this is
//!   sound because `run` does not return (normally or by panic) until every
//!   job of that run has finished executing, so no borrow outlives the call.
//! * **Panic propagation.** Worker-side panics are caught, carried back as
//!   results, and re-raised on the calling thread after the whole run
//!   completes — identical observable behaviour to the scoped-thread code it
//!   replaces.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use gola_common::rng::hash_combine;
use gola_common::sync::{lock, wait};
use gola_common::timing::Stopwatch;
use gola_storage::shuffle::shuffle_in_place;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A panic payload tagged with its job's submission index.
type IndexedPanic = (usize, Box<dyn std::any::Any + Send>);

struct QueueState {
    jobs: VecDeque<(u64, Job)>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Wakes workers when jobs arrive or shutdown is flagged.
    work_ready: Condvar,
}

impl Shared {
    /// Worker loop: pop any job (regardless of run id — workers are
    /// stateless) or park until one arrives.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some((_, job)) = q.jobs.pop_front() {
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

    /// Pop a job belonging to run `run_id`, if any remain queued. Used by
    /// the submitting thread, which must not steal jobs of an *outer* run
    /// while a nested run drains (that would deadlock: the outer job could
    /// in turn wait on the inner run's latch it is already inside).
    fn try_pop(&self, run_id: u64) -> Option<Job> {
        let mut q = lock(&self.queue);
        let idx = q.jobs.iter().position(|(id, _)| *id == run_id)?;
        q.jobs.remove(idx).map(|(_, job)| job)
    }
}

/// Completion latch for one `run` call.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Arc<Latch> {
        Arc::new(Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        })
    }

    fn count_down(&self) {
        let mut r = lock(&self.remaining);
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = lock(&self.remaining);
        while *r > 0 {
            r = wait(&self.done, r);
        }
    }
}

/// A persistent pool of `threads - 1` workers plus the calling thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    next_run: Mutex<u64>,
    /// Schedule-perturbation seed: when set, each run's queue is shuffled
    /// (seeded per run) before dispatch to stress schedule independence.
    perturb: Option<u64>,
}

impl WorkerPool {
    /// Build a pool that executes runs on `threads` threads total (the
    /// caller counts as one; `threads <= 1` spawns nothing).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::build(threads, None)
    }

    /// As [`WorkerPool::new`], but every `run`'s job queue is shuffled with
    /// a per-run RNG derived from `seed` before workers see it. Completion
    /// order becomes adversarial while results must stay bit-identical —
    /// the dynamic complement to `clippy.toml`'s `disallowed-methods`.
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
            next_run: Mutex::new(0),
            perturb,
        }
    }

    /// Total threads a run executes on (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item across the pool and return the results in
    /// item order — the one parallel shape the stages use. With one thread
    /// or at most one item this is a plain inline loop (no boxing, no
    /// queue); otherwise each item is one [`WorkerPool::run`] job, so the
    /// first panic by item index propagates once every item has finished.
    pub fn map<T: Send, R: Send>(
        &self,
        items: impl IntoIterator<Item = T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let items: Vec<T> = items.into_iter().collect();
        if self.threads == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        let f = &f;
        self.run(
            items
                .into_iter()
                .zip(slots.iter_mut())
                .map(|(item, slot)| {
                    Box::new(move || *slot = Some(f(item))) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        #[expect(
            clippy::expect_used,
            reason = "`run` returns only once every job has run (a panicking job \
                      re-raises above), so an empty slot is a pool bug"
        )]
        let results = slots.into_iter().map(|r| r.expect("pool ran every item"));
        results.collect()
    }

    /// Execute every closure in `jobs`, distributing across the pool's
    /// workers and the calling thread. Blocks until all have finished; if
    /// any panicked, re-raises the first panic (by job order) on the caller.
    pub fn run<'a>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        if self.threads == 1 || n == 1 {
            // Sequential fast path — same code the workers would run.
            for job in jobs {
                job();
            }
            return;
        }
        let run_id = {
            let mut id = lock(&self.next_run);
            *id += 1;
            *id
        };
        // Observability (inert): queue-wait and run-time histograms per job,
        // plus the submitting thread's span path captured *here* — at
        // submission, deterministically — and re-established around the job
        // body wherever it lands, so span parent links are independent of
        // which thread executes the job.
        let obs = gola_obs::enabled();
        if obs {
            crate::metrics::pool_runs().inc();
            crate::metrics::pool_jobs().add(n as u64);
        }
        let span_path = if obs {
            gola_obs::span::current_path()
        } else {
            Vec::new()
        };
        let latch = Latch::new(n);
        let panics: Arc<Mutex<Vec<IndexedPanic>>> = Arc::new(Mutex::new(Vec::new()));
        let mut wrapped_jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let latch = Arc::clone(&latch);
                let panics = Arc::clone(&panics);
                let submitted = obs.then(Stopwatch::start);
                let span_path = span_path.clone();
                let wrapped: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
                    let run_sw = submitted.map(|sw| {
                        crate::metrics::pool_queue_wait().observe_duration(sw.elapsed());
                        Stopwatch::start()
                    });
                    let body = || {
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                            lock(&panics).push((i, payload));
                        }
                    };
                    if span_path.is_empty() {
                        body();
                    } else {
                        gola_obs::span::with_path(&span_path, body);
                    }
                    if let Some(sw) = run_sw {
                        crate::metrics::pool_job_run().observe_duration(sw.elapsed());
                    }
                    latch.count_down();
                });
                // SAFETY: `run` blocks on the latch until every wrapped job
                // has executed (panics included — the latch counts down in
                // all cases), so the `'a` borrows inside `job` are live for
                // as long as any thread can touch them.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(wrapped) }
            })
            .collect();
        // Schedule-perturbation stress: shuffle the dispatch order with a
        // per-run RNG. Panic indices were captured above, at submission
        // order, so observable behaviour (which panic propagates first) is
        // shuffle-invariant; only the physical completion order moves.
        if let Some(seed) = self.perturb {
            shuffle_in_place(&mut wrapped_jobs, hash_combine(seed, run_id));
        }
        {
            let mut q = lock(&self.shared.queue);
            for wrapped in wrapped_jobs {
                q.jobs.push_back((run_id, wrapped));
            }
            self.shared.work_ready.notify_all();
        }
        // The caller drains its own run's jobs, then waits for stragglers
        // still executing on workers.
        while let Some(job) = self.shared.try_pop(run_id) {
            job();
        }
        latch.wait();
        let mut panics = lock(&panics);
        if !panics.is_empty() {
            panics.sort_by_key(|(i, _)| *i);
            let (_, payload) = panics.remove(0);
            resume_unwind(payload);
        }
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        pool.run(jobs_touching(&counter, 17));
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
            pool.run(jobs_touching(&counter, 23));
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
        pool.run(jobs);
        let by_run: Vec<u64> = sums.iter().map(|s| *s.lock().unwrap()).collect();
        assert_eq!(by_run.iter().sum::<u64>(), 999 * 1000 / 2);
        // `map` is the same run with the slots built in: results come back
        // in item order whichever thread produced them.
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
                    pool.run(inner);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(outer);
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
            pool.run(jobs.collect())
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
        assert!(catch_unwind(AssertUnwindSafe(|| pool.run(bad))).is_err());
        let counter = AtomicUsize::new(0);
        pool.run(jobs_touching(&counter, 5));
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }
}
