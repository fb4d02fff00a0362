//! The threaded multi-tenant query service: `min(max_active, CPUs)`
//! runner threads time-slicing every admitted session, side by side, over
//! one session table and one shared intra-query [`WorkerPool`].
//!
//! Clients call [`QueryService::submit`] from any thread; admission runs on
//! that thread under the table's lock and is answered synchronously (typed
//! [`SubmitError`] on refusal, so the HTTP layer can emit a 429 with the
//! exact saturation numbers). Each runner loops: under the lock it
//! [`pick`](Scheduler::pick)s the lowest-`(pass, id)` session no other
//! runner holds, runs that session's quantum outside the lock (the quantum
//! sends its own report), and [`charge`](Scheduler::charge)s it under the
//! lock again. So different sessions' quanta overlap, one session's never
//! do, and its quanta run in order.
//!
//! No quantum waits. A session caught up with an open stream parks: its
//! quantum registers the service's one [`Waker`] with the stream and
//! returns, and the scheduler skips the session until a wake. A seal or
//! close on any stream a session waits on unparks every parked session
//! and wakes the idle runners; one parked on another stream just polls
//! again and parks again. A runner sleeps only while every active session
//! is held or parked.
//!
//! Each admitted session gets its own report channel — the [`QueryHandle`]
//! iterates it exactly like a solo [`crate::OnlineExecution`].
//! The stream is bit-identical to that solo run because a session's step
//! is a pure function of its own state and batch: nothing another session
//! does, and no pool size or dispatch order, reaches its answers
//! (`tests/sched_equivalence.rs`). A session ends exactly once, when it
//! leaves the table: at its last quantum's charge, at a cancel (or a
//! dropped handle) of a session no runner holds, or — for one canceled
//! while its quantum runs — at that quantum's charge
//! (`tests/sched_cancel.rs`, `tests/sched_park.rs`).
//!
//! Observability: every session's executor metrics carry a
//! `session="s<id>"` label (see `OnlineConfig::session_label`), and the
//! service itself maintains `service.submitted` / `service.rejected` /
//! `service.completed` / `service.canceled` counters plus
//! `service.active` / `service.queued` / `service.parked` gauges — all
//! behind [`gola_obs::enabled`], preserving the obs-inert contract. The
//! series of the [`SESSION_SERIES_KEPT`] newest ended sessions stay; an
//! older one's are retired ([`gola_obs::retire`]: its counters fold into
//! the unlabelled totals, its gauges go), so a long-running server's
//! registry does not grow with every query.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Poll, Wake, Waker};
use std::thread::JoinHandle;

use gola_common::sync::{lock, wait};
use gola_common::Result;
use gola_storage::catalog::Entry;
use gola_storage::Catalog;

use crate::config::OnlineConfig;
use crate::join::WeightStore;
use crate::pool::WorkerPool;
use crate::report::BatchReport;
use crate::sched::{AdmissionError, Charged, Quantum, SchedTask, Scheduler, SessionId, Urgency};
use crate::session::OnlineSession;
use crate::step::OnlineExecution;

/// Ended sessions whose `session="s<id>"` metric series stay exported, so
/// a scrape after a query ends still sees its numbers (the server keeps as
/// many finished jobs).
pub const SESSION_SERIES_KEPT: usize = 32;

/// Capacity and sizing of a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Sessions time-slicing concurrently; more wait in the queue. The
    /// service runs `min(max_active, CPUs)` sessions' quanta at once.
    pub max_active: usize,
    /// Admitted-but-waiting sessions beyond the active set.
    pub queue_capacity: usize,
    /// Width of the one intra-query worker pool every quantum shares (1 =
    /// sequential batches). It does not set how many sessions run at once:
    /// the runner count comes from the CPUs and `max_active`.
    pub threads: usize,
    /// Per-session execution defaults; `session_label`, `threads` and the
    /// worker pool itself are overridden per session by the service. Its
    /// `bootstrap` spec is every session's, so the service's one
    /// [`WeightStore`] holds that spec's rows for the ids of the catalog's
    /// largest static table (`⌈trials / 2⌉` bytes per id, filled on first
    /// need) and every session reads them.
    pub base: OnlineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_active: 4,
            queue_capacity: 16,
            threads: 1,
            base: OnlineConfig::default(),
        }
    }
}

/// Why a submission failed.
#[derive(Debug)]
pub enum SubmitError {
    /// The SQL did not compile / plan; carries the engine diagnostic.
    Compile(gola_common::Error),
    /// Admission control refused the session (HTTP: 429).
    Admission(AdmissionError),
    /// The service is shutting down.
    Shutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Compile(e) => write!(f, "{e}"),
            SubmitError::Admission(e) => write!(f, "{e}"),
            SubmitError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One admitted query as the scheduler holds it: its execution and the
/// channel its reports go out on, so a session leaves the scheduler and
/// closes its client's stream in one step. A runner's quantum sends the
/// report itself, outside the table's lock.
struct ScheduledQuery {
    exec: OnlineExecution,
    reports: Sender<Result<BatchReport>>,
}

impl SchedTask for ScheduledQuery {
    /// The report went out (a client that hung up cancels the session as
    /// it drops its [`QueryHandle`]).
    type Output = ();

    /// One `OnlineExecution::poll_next` mini-batch — the engine's
    /// preemption-safe unit: between batches the execution holds only its
    /// own accumulators, so interleaving sessions cannot perturb answers.
    /// A query caught up with an open stream gives back a parked quantum.
    /// The next quantum's urgency is what the query's contract driver set.
    fn run_quantum(&mut self, waker: &Waker) -> Quantum<()> {
        let Poll::Ready(next) = self.exec.poll_next(waker) else {
            return Quantum {
                output: None,
                finished: false,
                parked: true,
                urgency: Urgency::Normal,
            };
        };
        // An execution error ends the stream as its last item.
        let finished = !matches!(next, Some(Ok(_))) || self.exec.is_complete();
        Quantum {
            output: next.map(|r| drop(self.reports.send(r))),
            finished,
            parked: false,
            urgency: self.exec.urgency(),
        }
    }
}

/// A client's view of one admitted session: iterate it for the report
/// stream (ends after the final report; an execution error is the last
/// item). Dropping the handle cancels the session, parked or not.
pub struct QueryHandle {
    id: SessionId,
    reports: Receiver<Result<BatchReport>>,
    service: Weak<Shared>,
}

impl QueryHandle {
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Block for the next report; `None` once the stream has ended.
    pub fn recv(&self) -> Option<Result<BatchReport>> {
        self.reports.recv().ok()
    }

    /// Non-blocking pull of one ready report (job-poll surface).
    pub fn try_recv(
        &self,
    ) -> std::result::Result<Result<BatchReport>, std::sync::mpsc::TryRecvError> {
        self.reports.try_recv()
    }

    /// Cancel the session now (idempotent; finishing first is fine).
    pub fn cancel(&self) {
        if let Some(shared) = self.service.upgrade() {
            shared.cancel(self.id);
        }
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        self.cancel();
    }
}

impl Iterator for QueryHandle {
    type Item = Result<BatchReport>;

    fn next(&mut self) -> Option<Self::Item> {
        self.recv()
    }
}

struct ServiceMetrics {
    submitted: gola_obs::Counter,
    rejected: gola_obs::Counter,
    completed: gola_obs::Counter,
    canceled: gola_obs::Counter,
    active: gola_obs::Gauge,
    queued: gola_obs::Gauge,
    parked: gola_obs::Gauge,
}

impl ServiceMetrics {
    fn resolve() -> ServiceMetrics {
        ServiceMetrics {
            submitted: gola_obs::counter("service.submitted"),
            rejected: gola_obs::counter("service.rejected"),
            completed: gola_obs::counter("service.completed"),
            canceled: gola_obs::counter("service.canceled"),
            active: gola_obs::gauge("service.active"),
            queued: gola_obs::gauge("service.queued"),
            parked: gola_obs::gauge("service.parked"),
        }
    }
}

/// What the runners and the submitting threads share: the one session
/// table behind one lock, the condvar idle runners park on, and the waker
/// every parked session registers.
struct Shared {
    state: Mutex<State>,
    /// Signalled when a session may have become pickable, and at shutdown.
    ready: Condvar,
    /// A [`Wakeup`] of this service.
    waker: Waker,
    metrics: Option<ServiceMetrics>,
}

/// The service's waker: a seal or close on a stream that a parked session
/// waits on makes every parked session ready (see the module doc). It
/// holds the service weakly, so a stream outliving the service keeps
/// nothing alive, and a wake after the service is gone does nothing.
struct Wakeup(Weak<Shared>);

impl Wake for Wakeup {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if let Some(shared) = self.0.upgrade() {
            let mut state = lock(&shared.state);
            state.sched.wake_all();
            shared.changed(&state);
        }
    }
}

struct State {
    sched: Scheduler<ScheduledQuery>,
    /// Ended sessions, oldest first. A session ends when it leaves the
    /// table, and a held one leaves only at its charge, so no quantum of an
    /// ended session is running and nothing writes its series any more.
    ended: VecDeque<SessionId>,
    shutdown: bool,
}

impl Shared {
    /// Count session `id`'s end, once: every path out of the table comes
    /// through here.
    fn end(&self, state: &mut State, id: SessionId, canceled: bool) {
        if let Some(m) = &self.metrics {
            if canceled {
                m.canceled.inc();
            } else {
                m.completed.inc();
            }
        }
        state.ended.push_back(id);
        while state.ended.len() > SESSION_SERIES_KEPT {
            if let Some(old) = state.ended.pop_front() {
                gola_obs::retire("session", &old.to_string());
            }
        }
    }

    /// The table changed: refresh the gauges and wake the idle runners.
    fn changed(&self, state: &State) {
        if let Some(m) = &self.metrics {
            m.active.set(state.sched.num_active() as f64);
            m.queued.set(state.sched.num_queued() as f64);
            m.parked.set(state.sched.num_parked() as f64);
        }
        self.ready.notify_all();
    }

    fn cancel(&self, id: SessionId) {
        let mut state = lock(&self.state);
        // A held session is only marked; its runner ends it at the charge.
        if state.sched.cancel(id) {
            self.end(&mut state, id, true);
            self.changed(&state);
        }
    }

    /// One runner: pick the most deserving ready session, run its quantum
    /// outside the lock, charge it; sleep while nothing can be picked;
    /// return at shutdown.
    fn run(&self) {
        let mut state = lock(&self.state);
        loop {
            if state.shutdown {
                return;
            }
            let Some((id, mut query)) = state.sched.pick() else {
                state = wait(&self.ready, state);
                continue;
            };
            drop(state);
            let quantum = query.run_quantum(&self.waker);
            state = lock(&self.state);
            match state.sched.charge(id, query, &quantum) {
                Charged::Finished => self.end(&mut state, id, false),
                Charged::Canceled => self.end(&mut state, id, true),
                Charged::Running => {}
            }
            self.changed(&state);
        }
    }
}

/// The multi-tenant service. Owns the runner threads, the shared pool, the
/// shared [`WeightStore`] and the one waker of its parked sessions;
/// dropping it shuts the runners down (in-flight and parked sessions see
/// their streams end early).
pub struct QueryService {
    session: Arc<OnlineSession>,
    pool: Arc<WorkerPool>,
    /// Every session's bootstrap weights for the ids of the catalog's
    /// largest static table, generated once per service.
    store: Arc<WeightStore>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    runners: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Start `min(max_active, CPUs)` runners over one session table (see
    /// the module doc); `cfg.threads` sizes the intra-query pool they
    /// share.
    pub fn new(catalog: Catalog, cfg: ServiceConfig) -> QueryService {
        let pool = Arc::new(WorkerPool::new(cfg.threads.max(1)));
        let shared = Arc::new_cyclic(|service| Shared {
            state: Mutex::new(State {
                sched: Scheduler::new(cfg.max_active, cfg.queue_capacity),
                ended: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            waker: Waker::from(Arc::new(Wakeup(Weak::clone(service)))),
            metrics: gola_obs::enabled().then(ServiceMetrics::resolve),
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "the runner count sets how many sessions' quanta overlap, never what a report holds"
        )]
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let runners = (0..cfg.max_active.clamp(1, cpus))
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gola-runner-{i}"))
                    .spawn(move || shared.run())
                    .ok()
            })
            .collect();
        let rows = largest_table(&catalog);
        let store = Arc::new(WeightStore::new(cfg.base.bootstrap, rows));
        let session = Arc::new(OnlineSession::new(catalog, cfg.base));
        QueryService {
            session,
            pool,
            store,
            shared,
            next_id: AtomicU64::new(0),
            runners,
        }
    }

    /// The shared pool size (for diagnostics / the server's health page).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Compile `sql` on the calling thread (so diagnostics return before
    /// admission), then admit the execution, also on the calling thread.
    pub fn submit(&self, sql: &str) -> std::result::Result<QueryHandle, SubmitError> {
        if self.runners.is_empty() {
            return Err(SubmitError::Shutdown);
        }
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        // Per-session config: labeled metrics, threads pinned to the
        // shared pool's size (informational only — the pool is shared).
        let config = self
            .session
            .config()
            .clone()
            .with_session_label(id.to_string())
            .with_threads(self.pool.threads());
        let tenant = OnlineSession::new(self.session.catalog().clone(), config);
        let prepared = tenant.prepare(sql).map_err(SubmitError::Compile)?;
        let exec = tenant
            .execute_prepared_with_pool(&prepared, Arc::clone(&self.pool), Arc::clone(&self.store))
            .map_err(SubmitError::Compile)?;

        let (report_tx, report_rx) = std::sync::mpsc::channel();
        let query = ScheduledQuery {
            exec,
            reports: report_tx,
        };
        let shared = &self.shared;
        let mut state = lock(&shared.state);
        let outcome = state.sched.submit_with_id(id, query);
        if let Some(m) = &shared.metrics {
            match &outcome {
                Ok(_) => m.submitted.inc(),
                Err(_) => m.rejected.inc(),
            }
        }
        shared.changed(&state);
        drop(state);
        match outcome {
            Ok(_admitted) => Ok(QueryHandle {
                id,
                reports: report_rx,
                service: Arc::downgrade(shared),
            }),
            Err(e) => Err(SubmitError::Admission(e)),
        }
    }

    /// Cancel a session by id (idempotent).
    pub fn cancel(&self, id: SessionId) {
        self.shared.cancel(id);
    }
}

/// Rows of `catalog`'s largest static table: a tuple id is a row index, so
/// every id below this is one a session may read weights for again. A
/// stream is left out, so its tail never grows the store.
fn largest_table(catalog: &Catalog) -> usize {
    let tables = catalog.entries().filter_map(|(_, entry)| match entry {
        Entry::Static(table) => Some(table.num_rows()),
        Entry::Stream(_) => None,
    });
    tables.max().unwrap_or(0)
}

impl Drop for QueryService {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.ready.notify_all();
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
    }
}
