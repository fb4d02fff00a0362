//! Multi-tenant scheduling: many concurrent online sessions time-slicing
//! the service's runners and one shared [`crate::WorkerPool`] with
//! **batch-granularity preemption**.
//!
//! The scheduler only ever yields *between* mini-batch report rounds —
//! never inside one. One quantum = one `OnlineExecution::next()` call, run
//! to completion by one runner; other runners run other sessions' quanta
//! meanwhile, never another quantum of the same session. A session's step
//! is a pure function of its own state and batch, and the engine's
//! threads=1/N contract makes each report bit-identical regardless of pool
//! size or dispatch order, so every session's report stream is
//! bit-identical to a solo run *by construction* — which sessions run
//! beside it, and when, affects only latency, never answers (pinned
//! end-to-end by `tests/sched_equivalence.rs`: both workload suites, mixed
//! weights, queued admissions, recovering sessions).
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
//! * [`service`] — `QueryService`: the threaded runtime (runners that
//!   pick, run and charge sessions; each scheduled session owns its report
//!   channel) that `gola-server` exposes.
//!
//! The sim's `Scheduler::round` is `pick` → `run_quantum` → `charge`, the
//! very steps a service runner takes, so what the simulator proves about
//! the policy is what the service runs. [`policy`]
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

/// Where a session stands once [`Scheduler::charge`] has taken its quantum
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charged {
    /// Still scheduled; it can be picked again.
    Running,
    /// Its task finished: it left the table.
    Finished,
    /// It was canceled while its quantum ran: it left the table now, and
    /// its task was dropped.
    Canceled,
}

/// An active session: its stride-scheduling state beside its task.
struct Entry<T> {
    weight: u64,
    urgency: Urgency,
    pass: u64,
    slot: Slot<T>,
}

/// An active session's task: in the table, or out with a runner.
enum Slot<T> {
    /// Waiting to be picked.
    Ready(T),
    /// [`Scheduler::pick`] handed the task out; [`Scheduler::charge`]
    /// brings it back. `canceled` once a cancel came in meanwhile.
    Held { canceled: bool },
}

/// A fair scheduler over a set of tasks: repeatedly pick the most
/// deserving session (stride scheduling, see [`policy`]), run exactly one
/// quantum of it, charge it. No threads and deterministic: the [`sim`]
/// drives it on a virtual clock through [`Scheduler::round`]; the
/// [`service`] puts it behind one lock and lets several runners
/// [`pick`](Scheduler::pick) sessions, run their quanta outside the lock
/// and [`charge`](Scheduler::charge) them, so no session is ever run by
/// two runners at once.
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
    /// queued session into a freed slot. Returns whether the session left
    /// the table now: `false` for unknown ids (already finished, never
    /// admitted) and for a held session, which is only marked — it keeps
    /// its slot until [`Scheduler::charge`] takes its quantum back and
    /// reports [`Charged::Canceled`].
    pub fn cancel(&mut self, id: SessionId) -> bool {
        if let Some(Entry {
            slot: Slot::Held { canceled },
            ..
        }) = self.active.get_mut(&id.0)
        {
            *canceled = true;
            return false;
        }
        let known = self.active.remove(&id.0).is_some()
            || (self.queued.iter().position(|(q, ..)| *q == id.0))
                .and_then(|at| self.queued.remove(at))
                .is_some();
        self.promote();
        known
    }

    /// Run one quantum of the session with the smallest `(pass, id)`:
    /// [`Scheduler::pick`], `run_quantum`, [`Scheduler::charge`]. `None`
    /// when no session can be picked (idle, everything held, or everything
    /// still queued — impossible by construction, queued implies active is
    /// full).
    pub fn round(&mut self) -> Option<Round<T::Output>> {
        let (id, mut task) = self.pick()?;
        let quantum = task.run_quantum();
        self.charge(id, task, &quantum);
        Some(Round {
            id,
            output: quantum.output,
            finished: quantum.finished,
        })
    }

    /// Hand out the task of the session with the smallest `(pass, id)`
    /// among those not already held. The session stays in the table,
    /// held, until [`Scheduler::charge`] brings the task back.
    pub fn pick(&mut self) -> Option<(SessionId, T)> {
        let (&id, entry) = (self.active.iter_mut())
            .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
            .min_by_key(|(id, e)| (e.pass, **id))?;
        match std::mem::replace(&mut entry.slot, Slot::Held { canceled: false }) {
            Slot::Ready(task) => Some((SessionId(id), task)),
            Slot::Held { .. } => None,
        }
    }

    /// Take back the task [`Scheduler::pick`] handed out for `id`, with
    /// the quantum it ran. A finished or meanwhile-canceled session leaves
    /// the table (its task is dropped) and the queue head takes its slot;
    /// any other is charged its stride and can be picked again. An id that
    /// is not in the table counts as canceled.
    pub fn charge(&mut self, id: SessionId, task: T, quantum: &Quantum<T::Output>) -> Charged {
        let Some(entry) = self.active.get_mut(&id.0) else {
            return Charged::Canceled;
        };
        let outcome = match entry.slot {
            Slot::Held { canceled: true } => Charged::Canceled,
            _ if quantum.finished => Charged::Finished,
            _ => {
                // Global virtual time catches up to the pass, then the
                // pass advances by the stride; the new urgency counts from
                // the next charge on.
                self.vtime = self.vtime.max(entry.pass);
                entry.pass += STRIDE_ONE / (entry.weight * entry.urgency.boost());
                entry.urgency = quantum.urgency;
                entry.slot = Slot::Ready(task);
                return Charged::Running;
            }
        };
        self.active.remove(&id.0);
        self.promote();
        outcome
    }

    /// Move the longest-waiting queued session into a free active slot.
    fn promote(&mut self) {
        if self.active.len() < self.cfg.max_active {
            if let Some((id, weight, task)) = self.queued.pop_front() {
                self.activate(id, weight, task);
            }
        }
    }

    /// A new or promoted session starts at the global virtual time.
    fn activate(&mut self, id: u64, weight: u64, task: T) {
        let entry = Entry {
            weight,
            urgency: Urgency::Normal,
            pass: self.vtime,
            slot: Slot::Ready(task),
        };
        self.active.insert(id, entry);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;

    /// Longer than any test below runs it, so no session finishes early.
    const LONG: u64 = 1_000;

    /// A [`ScriptedTask`] that counts its drops.
    struct Tracked {
        task: ScriptedTask,
        drops: Rc<Cell<u32>>,
    }

    impl SchedTask for Tracked {
        type Output = u64;

        fn run_quantum(&mut self) -> Quantum<u64> {
            self.task.run_quantum()
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    fn scheduler(max_active: usize, queue: usize, sessions: u64) -> Scheduler<ScriptedTask> {
        let mut s = Scheduler::new(PolicyConfig {
            max_active,
            queue_capacity: queue,
        });
        for id in 0..sessions {
            s.submit_with_id(SessionId(id), ScriptedTask::new(LONG), 1)
                .expect("admits");
        }
        s
    }

    /// Run the picked task's quantum and charge it, as a runner does.
    fn run_and_charge<T: SchedTask>(
        s: &mut Scheduler<T>,
        (id, mut task): (SessionId, T),
    ) -> Charged {
        let quantum = task.run_quantum();
        s.charge(id, task, &quantum)
    }

    #[test]
    fn picks_without_a_charge_take_the_lowest_free_sessions() {
        let mut s = scheduler(3, 0, 3);
        assert_eq!(s.round().expect("runs").id, SessionId(0));
        // Session 0's pass moved on; 1 and 2 tie at pass 0, by id.
        let first = s.pick().expect("picks");
        let second = s.pick().expect("picks");
        assert_eq!((first.0, second.0), (SessionId(1), SessionId(2)));
        assert_eq!(s.pick().map(|(id, _)| id), Some(SessionId(0)));
        assert!(s.pick().is_none(), "every session is held");
        assert_eq!(s.num_active(), 3, "held sessions keep their slots");
    }

    #[test]
    fn a_held_session_is_not_picked_again_until_charged() {
        let mut s = scheduler(2, 0, 2);
        let zero = s.pick().expect("picks");
        let one = s.pick().expect("picks");
        assert_eq!((zero.0, one.0), (SessionId(0), SessionId(1)));
        assert!(s.pick().is_none());
        assert_eq!(run_and_charge(&mut s, zero), Charged::Running);
        // Session 1 has the smaller pass but is still held.
        let again = s.pick().expect("picks");
        assert_eq!(again.0, SessionId(0));
        assert_eq!(run_and_charge(&mut s, one), Charged::Running);
        assert_eq!(run_and_charge(&mut s, again), Charged::Running);
        assert_eq!(s.pick().map(|(id, _)| id), Some(SessionId(1)));
    }

    #[test]
    fn charging_a_session_canceled_while_held_ends_it_and_promotes_at_vtime() {
        let drops = Rc::new(Cell::new(0));
        let mut s: Scheduler<Tracked> = Scheduler::new(PolicyConfig {
            max_active: 2,
            queue_capacity: 1,
        });
        for id in 0..3 {
            let task = Tracked {
                task: ScriptedTask::new(LONG),
                drops: Rc::clone(&drops),
            };
            s.submit_with_id(SessionId(id), task, 1).expect("admits");
        }
        // Two rounds each: both passes reach 2 strides, virtual time 1.
        let order: Vec<u64> = (0..4).map(|_| s.round().expect("runs").id.0).collect();
        assert_eq!(order, [0, 1, 0, 1]);

        let held = s.pick().expect("picks");
        assert_eq!(held.0, SessionId(0));
        assert!(!s.cancel(SessionId(0)), "a held session is only marked");
        assert!(!s.cancel(SessionId(0)), "idempotent");
        assert_eq!(
            (s.num_active(), s.num_queued()),
            (2, 1),
            "no slot frees yet"
        );
        assert_eq!(run_and_charge(&mut s, held), Charged::Canceled);
        assert_eq!(drops.get(), 1, "the canceled task is dropped");
        assert_eq!(
            (s.num_active(), s.num_queued()),
            (2, 0),
            "the queue head took the slot"
        );
        assert!(!s.cancel(SessionId(0)), "no entry is left");

        // Session 2 starts at virtual time (1 stride), below session 1's 2
        // strides but not at 0: it runs once, then the two alternate.
        let order: Vec<u64> = (0..4).map(|_| s.round().expect("runs").id.0).collect();
        assert_eq!(order, [2, 1, 2, 1]);
        assert_eq!(drops.get(), 1);
    }
}
