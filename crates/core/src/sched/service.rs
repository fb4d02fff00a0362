//! The threaded multi-tenant query service: one scheduler thread
//! time-slicing every admitted session over one shared [`WorkerPool`].
//!
//! Clients call [`QueryService::submit`] from any thread; admission is
//! answered synchronously (typed [`SubmitError`] on refusal, so the HTTP
//! layer can emit a 429 with the exact saturation numbers). Each admitted
//! session gets its own report channel — the [`QueryHandle`] iterates it
//! exactly like a solo [`crate::session::OnlineExecution`], and because the
//! scheduler runs one batch round at a time on the shared pool, the stream
//! it sees is bit-identical to that solo run (`tests/sched_equivalence.rs`).
//!
//! Observability: every session's executor metrics carry a
//! `session="s<id>"` label (see `OnlineConfig::session_label`), and the
//! service itself maintains `service.submitted` / `service.rejected` /
//! `service.completed` / `service.canceled` counters plus
//! `service.active` / `service.queued` gauges — all behind
//! [`gola_obs::enabled`], preserving the obs-inert contract. The series of
//! the [`SESSION_SERIES_KEPT`] newest ended sessions stay; an older one's
//! are retired ([`gola_obs::retire`]: its counters fold into the
//! unlabelled totals, its gauges go), so a long-running server's registry
//! does not grow with every query.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use gola_common::Result;
use gola_storage::Catalog;

use crate::config::OnlineConfig;
use crate::pool::WorkerPool;
use crate::report::BatchReport;
use crate::sched::task::QueryTask;
use crate::sched::{
    AdmissionError, Admitted, PolicyConfig, Quantum, SchedTask, Scheduler, SessionId,
};
use crate::session::OnlineSession;

/// Ended sessions whose `session="s<id>"` metric series stay exported, so
/// a scrape after a query ends still sees its numbers (the server keeps as
/// many finished jobs).
pub const SESSION_SERIES_KEPT: usize = 32;

/// Capacity and sizing of a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Sessions time-slicing concurrently; more wait in the queue.
    pub max_active: usize,
    /// Admitted-but-waiting sessions beyond the active set.
    pub queue_capacity: usize,
    /// Threads of the one shared worker pool (1 = sequential batches).
    pub threads: usize,
    /// Per-session execution defaults; `session_label`, `threads` and the
    /// worker pool itself are overridden per session by the service.
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

enum Command {
    Submit {
        id: SessionId,
        query: Box<ScheduledQuery>,
        weight: u64,
        reply: SyncSender<std::result::Result<Admitted, AdmissionError>>,
    },
    Cancel(SessionId),
    Shutdown,
}

/// One admitted query as the scheduler holds it: the task and the channel
/// its reports go out on, so a session leaves the scheduler and closes its
/// client's stream in one step.
struct ScheduledQuery {
    task: QueryTask,
    reports: Sender<Result<BatchReport>>,
}

impl SchedTask for ScheduledQuery {
    /// Whether the quantum's report reached the client; `false` once the
    /// client has dropped its [`QueryHandle`].
    type Output = bool;

    fn run_quantum(&mut self) -> Quantum<bool> {
        let quantum = self.task.run_quantum();
        Quantum {
            output: quantum.output.map(|r| self.reports.send(r).is_ok()),
            finished: quantum.finished,
            urgency: quantum.urgency,
        }
    }
}

/// A client's view of one admitted session: iterate it for the report
/// stream (ends after the final report; an execution error is the last
/// item). Dropping the handle lazily cancels the session — the scheduler
/// notices the closed channel at its next report and reclaims the slot.
pub struct QueryHandle {
    id: SessionId,
    reports: Receiver<Result<BatchReport>>,
    cmds: Sender<Command>,
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
        let _ = self.cmds.send(Command::Cancel(self.id));
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
        }
    }
}

/// The multi-tenant service. Owns the scheduler thread and the shared
/// pool; dropping it shuts the scheduler down (in-flight sessions see
/// their streams end early).
pub struct QueryService {
    session: Arc<OnlineSession>,
    pool: Arc<WorkerPool>,
    cmds: Sender<Command>,
    next_id: AtomicU64,
    worker: Option<JoinHandle<()>>,
}

impl QueryService {
    pub fn new(catalog: Catalog, cfg: ServiceConfig) -> QueryService {
        let pool = Arc::new(WorkerPool::new(cfg.threads.max(1)));
        let policy = PolicyConfig {
            max_active: cfg.max_active,
            queue_capacity: cfg.queue_capacity,
        };
        let session = Arc::new(OnlineSession::new(catalog, cfg.base));
        let (cmds, rx) = std::sync::mpsc::channel();
        let worker = std::thread::Builder::new()
            .name("gola-sched".into())
            .spawn(move || scheduler_loop(policy, rx))
            .ok();
        QueryService {
            session,
            pool,
            cmds,
            next_id: AtomicU64::new(0),
            worker,
        }
    }

    /// The shared pool size (for diagnostics / the server's health page).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Compile `sql` and submit it as a weight-1 session.
    pub fn submit(&self, sql: &str) -> std::result::Result<QueryHandle, SubmitError> {
        self.submit_weighted(sql, 1)
    }

    /// Compile `sql` on the calling thread (so diagnostics return before
    /// admission), then hand the execution to the scheduler.
    pub fn submit_weighted(
        &self,
        sql: &str,
        weight: u64,
    ) -> std::result::Result<QueryHandle, SubmitError> {
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
            .execute_prepared_with_pool(&prepared, Arc::clone(&self.pool))
            .map_err(SubmitError::Compile)?;

        let (report_tx, report_rx) = std::sync::mpsc::channel();
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        let query = ScheduledQuery {
            task: QueryTask::new(exec),
            reports: report_tx,
        };
        self.cmds
            .send(Command::Submit {
                id,
                query: Box::new(query),
                weight,
                reply: reply_tx,
            })
            .map_err(|_| SubmitError::Shutdown)?;
        match reply_rx.recv() {
            Ok(Ok(_admitted)) => Ok(QueryHandle {
                id,
                reports: report_rx,
                cmds: self.cmds.clone(),
            }),
            Ok(Err(e)) => Err(SubmitError::Admission(e)),
            Err(_) => Err(SubmitError::Shutdown),
        }
    }

    /// Cancel a session by id (idempotent).
    pub fn cancel(&self, id: SessionId) {
        let _ = self.cmds.send(Command::Cancel(id));
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        let _ = self.cmds.send(Command::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The scheduler thread: drain commands (blocking while idle), then run
/// one quantum, forever. Exactly one session's batch round executes at any
/// moment — that serialization is what carries bit-identity.
fn scheduler_loop(policy: PolicyConfig, cmds: Receiver<Command>) {
    let mut sched: Scheduler<ScheduledQuery> = Scheduler::new(policy);
    let metrics = gola_obs::enabled().then(ServiceMetrics::resolve);
    // Ended sessions, oldest first. A session ends on the scheduler thread,
    // after its last batch round, so nothing writes its series any more.
    let mut ended: VecDeque<SessionId> = VecDeque::new();
    let mut end = |id: SessionId| {
        ended.push_back(id);
        while ended.len() > SESSION_SERIES_KEPT {
            if let Some(old) = ended.pop_front() {
                gola_obs::retire("session", &old.to_string());
            }
        }
    };

    loop {
        // Idle: block for the next command. Busy: drain without blocking.
        loop {
            let cmd = if sched.is_idle() {
                match cmds.recv() {
                    Ok(c) => c,
                    Err(_) => return,
                }
            } else {
                match cmds.try_recv() {
                    Ok(c) => c,
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                }
            };
            match cmd {
                Command::Submit {
                    id,
                    query,
                    weight,
                    reply,
                } => {
                    let outcome = sched.submit_with_id(id, *query, weight);
                    if let Some(m) = &metrics {
                        match &outcome {
                            Ok(_) => m.submitted.inc(),
                            Err(_) => m.rejected.inc(),
                        }
                    }
                    let _ = reply.send(outcome);
                }
                Command::Cancel(id) => {
                    if sched.cancel(id) {
                        end(id);
                        if let Some(m) = &metrics {
                            m.canceled.inc();
                        }
                    }
                }
                Command::Shutdown => return,
            }
        }

        if let Some(round) = sched.round() {
            // An undelivered report: the client dropped its handle, so
            // reclaim the slot.
            let canceled = round.output == Some(false) && !round.finished;
            if canceled {
                sched.cancel(round.id);
            }
            if canceled || round.finished {
                end(round.id);
                if let Some(m) = &metrics {
                    if canceled {
                        m.canceled.inc();
                    } else {
                        m.completed.inc();
                    }
                }
            }
        }

        if let Some(m) = &metrics {
            m.active.set(sched.num_active() as f64);
            m.queued.set(sched.num_queued() as f64);
        }
    }
}
