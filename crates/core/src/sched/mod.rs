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
//! * [`Scheduler`] — one table of sessions (stride-scheduling state and
//!   task side by side) plus bounded admission; no threads, no clocks,
//!   fully deterministic.
//! * [`sim`] — `SchedulerSim`: scripted arrivals driving a [`Scheduler`]
//!   under a virtual round clock; the property tests run here.
//! * [`task`] — `QueryTask`: a real `OnlineExecution` as a [`SchedTask`],
//!   with contract-aware urgency.
//! * [`service`] — `QueryService`: the threaded runtime (one scheduler
//!   thread; each scheduled session owns its report channel) that
//!   `gola-server` exposes.
//!
//! The sim and the live service drive the *same* `Scheduler::round` code
//! path, so what the simulator proves is what the service runs. [`policy`]
//! holds the fair-share model, its constants and the admission types; it
//! keeps no state of its own.

pub mod policy;
pub mod service;
pub mod sim;
pub mod task;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

pub use policy::{AdmissionError, PolicyConfig, Urgency, MAX_WEIGHT, STRIDE_ONE, URGENT_BOOST};
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
    /// Admitted into the FIFO wait queue; activates in FIFO order as
    /// slots free up.
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

/// An active session: its stride-scheduling state beside its task.
struct Entry<T> {
    weight: u64,
    urgency: Urgency,
    pass: u64,
    task: T,
}

/// A fair scheduler over a set of tasks: repeatedly pick the most
/// deserving session (stride scheduling, see [`policy`]), run exactly one
/// quantum of it, charge it. Single-threaded and deterministic — the
/// [`service`] wraps it in a thread; the [`sim`] drives it on a virtual
/// clock.
pub struct Scheduler<T: SchedTask> {
    cfg: PolicyConfig,
    /// The scheduled sessions, by id.
    active: BTreeMap<u64, Entry<T>>,
    /// FIFO of admitted sessions waiting for an active slot:
    /// `(id, weight, task)`.
    queued: VecDeque<(u64, u64, T)>,
    /// Global virtual time: the pass of the most recently scheduled
    /// session at the moment it was picked. Monotone non-decreasing.
    vtime: u64,
    next_id: u64,
}

impl<T: SchedTask> Scheduler<T> {
    pub fn new(cfg: PolicyConfig) -> Scheduler<T> {
        Scheduler {
            cfg: PolicyConfig {
                max_active: cfg.max_active.max(1),
                ..cfg
            },
            active: BTreeMap::new(),
            queued: VecDeque::new(),
            vtime: 0,
            next_id: 0,
        }
    }

    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    pub fn num_queued(&self) -> usize {
        self.queued.len()
    }

    /// `true` when no admitted session remains.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.queued.is_empty()
    }

    /// Submit a task with the next free session id.
    pub fn submit(&mut self, task: T, weight: u64) -> Result<Admitted, AdmissionError> {
        let id = SessionId(self.next_id);
        self.submit_with_id(id, task, weight)
    }

    /// Submit a task under a caller-chosen id (the service pre-assigns ids
    /// so the obs session label exists before admission). `weight` is
    /// clamped to `1..=MAX_WEIGHT`.
    pub fn submit_with_id(
        &mut self,
        id: SessionId,
        task: T,
        weight: u64,
    ) -> Result<Admitted, AdmissionError> {
        let weight = weight.clamp(1, MAX_WEIGHT);
        if self.active.contains_key(&id.0) || self.queued.iter().any(|(q, ..)| *q == id.0) {
            return Err(AdmissionError::DuplicateSession { id: id.0 });
        }
        let admitted = if self.active.len() < self.cfg.max_active {
            self.activate(id.0, weight, task);
            Admitted::Active(id)
        } else if self.queued.len() < self.cfg.queue_capacity {
            self.queued.push_back((id.0, weight, task));
            Admitted::Queued(id)
        } else {
            return Err(AdmissionError::Saturated {
                active: self.active.len(),
                queued: self.queued.len(),
                max_active: self.cfg.max_active,
                queue_capacity: self.cfg.queue_capacity,
            });
        };
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(admitted)
    }

    /// Cancel a session, active or queued, and promote the longest-waiting
    /// queued session into a freed slot. Returns `false` for unknown ids
    /// (already finished, never admitted).
    pub fn cancel(&mut self, id: SessionId) -> bool {
        let known = self.active.remove(&id.0).is_some()
            || (self.queued.iter().position(|(q, ..)| *q == id.0))
                .and_then(|at| self.queued.remove(at))
                .is_some();
        if self.active.len() < self.cfg.max_active {
            if let Some((id, weight, task)) = self.queued.pop_front() {
                self.activate(id, weight, task);
            }
        }
        known
    }

    /// Run one quantum of the session with the smallest `(pass, id)`.
    /// `None` when no session is active (idle, or everything still queued
    /// — impossible by construction, queued implies active is full).
    pub fn round(&mut self) -> Option<Round<T::Output>> {
        let (&id, entry) = self
            .active
            .iter_mut()
            .min_by_key(|(id, e)| (e.pass, **id))?;
        let quantum = entry.task.run_quantum();
        if quantum.finished {
            self.cancel(SessionId(id));
        } else {
            // Global virtual time catches up to the pass, then the pass
            // advances by the stride; the new urgency counts from the
            // next charge on.
            self.vtime = self.vtime.max(entry.pass);
            entry.pass += STRIDE_ONE / (entry.weight * entry.urgency.boost());
            entry.urgency = quantum.urgency;
        }
        Some(Round {
            id: SessionId(id),
            output: quantum.output,
            finished: quantum.finished,
        })
    }

    /// A new or promoted session starts at the global virtual time.
    fn activate(&mut self, id: u64, weight: u64, task: T) {
        let entry = Entry {
            weight,
            urgency: Urgency::Normal,
            pass: self.vtime,
            task,
        };
        self.active.insert(id, entry);
    }
}
