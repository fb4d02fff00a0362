//! Multi-tenant scheduling: many concurrent online sessions time-slicing
//! one shared [`crate::WorkerPool`] with **batch-granularity preemption**.
//!
//! The scheduler only ever yields *between* mini-batch report rounds —
//! never inside one. One quantum = one `OnlineExecution::next()` call, run
//! to completion on the shared pool while every other session waits. Since
//! the engine's threads=1/N contract makes each report bit-identical
//! regardless of pool size or dispatch order, serializing quanta this way
//! makes every session's report stream bit-identical to a solo run *by
//! construction* — interleaving affects only latency, never answers
//! (pinned end-to-end by `tests/sched_equivalence.rs`: both workload
//! suites, mixed weights, queued admissions, recovering sessions).
//!
//! Layering, simulator-first:
//!
//! * [`policy`] — pure stride-scheduling arithmetic + bounded admission.
//! * [`Scheduler`] — the policy paired with generic [`SchedTask`]s; no
//!   threads, no clocks, fully deterministic.
//! * [`sim`] — `SchedulerSim`: scripted arrivals driving a [`Scheduler`]
//!   under a virtual round clock; the property tests run here.
//! * [`task`] — `QueryTask`: a real `OnlineExecution` as a [`SchedTask`],
//!   with contract-aware urgency.
//! * [`service`] — `QueryService`: the threaded runtime (one scheduler
//!   thread, per-session report channels) that `gola-server` exposes.
//!
//! The sim and the live service drive the *same* `Scheduler::round` code
//! path, so what the simulator proves is what the service runs.

pub mod policy;
pub mod service;
pub mod sim;
pub mod task;

use std::collections::BTreeMap;
use std::fmt;

pub use policy::{
    Admission, AdmissionError, PolicyConfig, SchedPolicy, Urgency, MAX_WEIGHT, STRIDE_ONE,
    URGENT_BOOST,
};
pub use service::{QueryHandle, QueryService, ServiceConfig, SubmitError, SESSION_SERIES_KEPT};
pub use sim::{Arrival, SchedulerSim, ScriptedTask, SimEvent, SimOutcome};
pub use task::QueryTask;

/// Identifies one admitted session within a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What one quantum produced.
#[derive(Debug)]
pub struct Quantum<O> {
    /// The quantum's output (a `BatchReport` round), if it produced one.
    pub output: Option<O>,
    /// `true` when the task will produce nothing further; the scheduler
    /// retires it and activates the next queued session.
    pub finished: bool,
    /// Contract pressure for the *next* quantum's priority.
    pub urgency: Urgency,
}

/// A schedulable unit of work. One `run_quantum` call must be one
/// *preemption-safe* step: for query tasks that is exactly one report
/// round — the task must never hold partial-batch state that another
/// session's quantum could perturb.
pub trait SchedTask {
    type Output;

    fn run_quantum(&mut self) -> Quantum<Self::Output>;
}

/// Where a submission landed (admission never silently drops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Scheduled immediately.
    Active(SessionId),
    /// Admitted into the FIFO wait queue.
    Queued(SessionId),
}

impl Admitted {
    pub fn id(&self) -> SessionId {
        match *self {
            Admitted::Active(id) | Admitted::Queued(id) => id,
        }
    }
}

/// The outcome of one scheduling round.
#[derive(Debug)]
pub struct Round<O> {
    pub id: SessionId,
    pub output: Option<O>,
    pub finished: bool,
}

/// A fair scheduler over a set of tasks: repeatedly pick the most
/// deserving session (stride scheduling, see [`policy`]), run exactly one
/// quantum of it, charge it. Single-threaded and deterministic — the
/// [`service`] wraps it in a thread; the [`sim`] drives it on a virtual
/// clock.
pub struct Scheduler<T: SchedTask> {
    policy: SchedPolicy,
    tasks: BTreeMap<u64, T>,
    next_id: u64,
}

impl<T: SchedTask> Scheduler<T> {
    pub fn new(cfg: PolicyConfig) -> Scheduler<T> {
        Scheduler {
            policy: SchedPolicy::new(cfg),
            tasks: BTreeMap::new(),
            next_id: 0,
        }
    }

    pub fn num_active(&self) -> usize {
        self.policy.num_active()
    }

    pub fn num_queued(&self) -> usize {
        self.policy.num_queued()
    }

    /// `true` when no admitted session remains.
    pub fn is_idle(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Submit a task with the next free session id.
    pub fn submit(&mut self, task: T, weight: u64) -> Result<Admitted, AdmissionError> {
        let id = SessionId(self.next_id);
        self.submit_with_id(id, task, weight)
    }

    /// Submit a task under a caller-chosen id (the service pre-assigns ids
    /// so the obs session label exists before admission).
    pub fn submit_with_id(
        &mut self,
        id: SessionId,
        task: T,
        weight: u64,
    ) -> Result<Admitted, AdmissionError> {
        let admission = self.policy.admit(id.0, weight)?;
        self.tasks.insert(id.0, task);
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(match admission {
            Admission::Active => Admitted::Active(id),
            Admission::Queued => Admitted::Queued(id),
        })
    }

    /// Cancel a session, active or queued. Returns `false` for unknown
    /// ids (already finished, never admitted).
    pub fn cancel(&mut self, id: SessionId) -> bool {
        let known = self.tasks.remove(&id.0).is_some();
        self.policy.remove(id.0);
        self.policy.activate_next();
        known
    }

    /// Run one quantum of the most deserving session. `None` when no
    /// session is active (idle, or everything still queued — impossible by
    /// construction, queued implies active is full).
    pub fn round(&mut self) -> Option<Round<T::Output>> {
        let id = self.policy.pick()?;
        let task = self.tasks.get_mut(&id)?;
        let quantum = task.run_quantum();
        if quantum.finished {
            self.tasks.remove(&id);
            self.policy.remove(id);
            self.policy.activate_next();
        } else {
            self.policy.charge(id);
            self.policy.set_urgency(id, quantum.urgency);
        }
        Some(Round {
            id: SessionId(id),
            output: quantum.output,
            finished: quantum.finished,
        })
    }
}
