//! Multi-tenant scheduling: many concurrent online sessions time-slicing
//! the service's runners and one shared [`crate::WorkerPool`] with
//! **batch-granularity preemption**.
//!
//! The scheduler only ever yields *between* mini-batches — never inside
//! one. One quantum = one `OnlineExecution::poll_next` call = one
//! mini-batch, run to completion by one runner; other runners run other
//! sessions' quanta meanwhile, never another quantum of the same session.
//! A session's step is a pure function of its own state and batch, and the
//! engine's threads=1/N contract makes each report bit-identical regardless
//! of pool size or dispatch order, so every session's report stream is
//! bit-identical to a solo run *by construction* — which sessions run
//! beside it, and when, affects only latency, never answers (pinned
//! end-to-end by `tests/sched_equivalence.rs`: both workload suites,
//! queued admissions, recovering sessions).
//!
//! Layering, simulator-first:
//!
//! * [`Scheduler`] — one table of sessions (stride-scheduling state and
//!   task side by side) plus bounded admission; no threads, no clocks,
//!   fully deterministic.
//! * [`sim`] — `SchedulerSim`: scripted arrivals driving a [`Scheduler`]
//!   under a virtual round clock; the property tests run here.
//! * [`service`] — `QueryService`: the threaded runtime (runners that
//!   pick, run and charge sessions; each scheduled session is a real
//!   `OnlineExecution` as a [`SchedTask`] and owns its report channel)
//!   that `gola-server` exposes. A session's [`Urgency`] for its next
//!   quantum is what its query's contract driver set at the last report.
//!
//! The sim's `Scheduler::round` is `pick` → `run_quantum` → `charge`, the
//! very steps a service runner takes, so what the simulator proves about
//! the policy is what the service runs. [`policy`]
//! holds the fair-share model, its constants and the admission types; it
//! keeps no state of its own.

pub mod policy;
pub mod service;
pub mod sim;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::task::Waker;

pub use policy::{AdmissionError, Urgency, STRIDE_ONE, URGENT_BOOST};
pub use service::{QueryHandle, QueryService, ServiceConfig, SubmitError, SESSION_SERIES_KEPT};
pub use sim::{Arrival, SchedulerSim, ScriptedTask, SimEvent, SimOutcome};

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
    /// The quantum's output (a query's `BatchReport`), if it produced one.
    pub output: Option<O>,
    /// `true` when the task will produce nothing further; the scheduler
    /// retires it and activates the next queued session.
    pub finished: bool,
    /// `true` when the task found nothing to do yet and registered the
    /// quantum's waker for when it will: the scheduler parks it until a
    /// wake ([`Scheduler::wake`]).
    pub parked: bool,
    /// Contract pressure for the *next* quantum's priority.
    pub urgency: Urgency,
}

/// A schedulable unit of work. One `run_quantum` call must be one
/// *preemption-safe* step: for query tasks that is exactly one mini-batch
/// — the task must never hold partial-batch state that another
/// session's quantum could perturb. A quantum never waits: a task with
/// nothing to do yet registers `waker` where the work will come from and
/// returns a parked quantum.
pub trait SchedTask {
    type Output;

    fn run_quantum(&mut self, waker: &Waker) -> Quantum<Self::Output>;
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
    /// Still scheduled: it can be picked again, or it parked until a wake.
    Running,
    /// Its task finished: it left the table.
    Finished,
    /// It was canceled while its quantum ran: it left the table now, and
    /// its task was dropped.
    Canceled,
}

/// An active session: its stride-scheduling state beside its task.
struct Entry<T> {
    urgency: Urgency,
    pass: u64,
    slot: Slot<T>,
}

/// An active session's task: in the table, or out with a runner.
enum Slot<T> {
    /// Waiting to be picked.
    Ready(T),
    /// [`Scheduler::pick`] handed the task out; [`Scheduler::charge`]
    /// brings it back. `canceled` once a cancel came in meanwhile, `woken`
    /// once a wake did.
    Held { canceled: bool, woken: bool },
    /// Its last quantum parked: never picked until a wake.
    Parked(T),
}

impl<T> Entry<T> {
    /// A parked session becomes ready at `max(pass, vtime)`, as an
    /// arriving one starts at `vtime`, so a long park earns no burst of
    /// quanta. A held one is marked, so that its charge makes it ready
    /// instead of parking it: a wake during the quantum is not lost.
    fn wake(&mut self, vtime: u64) {
        let woken = Slot::Held {
            canceled: false,
            woken: true,
        };
        self.slot = match std::mem::replace(&mut self.slot, woken) {
            Slot::Parked(task) => {
                self.pass = self.pass.max(vtime);
                Slot::Ready(task)
            }
            Slot::Held { canceled, .. } => Slot::Held {
                canceled,
                woken: true,
            },
            ready => ready,
        };
    }
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
    /// Sessions scheduled concurrently (time-sliced; the service runs up
    /// to `min(max_active, CPUs)` of their quanta at once).
    max_active: usize,
    /// Admitted-but-waiting sessions beyond the active set.
    queue_capacity: usize,
    /// The scheduled sessions, by id.
    active: BTreeMap<u64, Entry<T>>,
    /// FIFO of admitted sessions waiting for an active slot: `(id, task)`.
    queued: VecDeque<(u64, T)>,
    /// Global virtual time: the pass of the most recently scheduled
    /// session at the moment it was picked. Monotone non-decreasing.
    vtime: u64,
    next_id: u64,
}

impl<T: SchedTask> Scheduler<T> {
    /// A scheduler running up to `max_active` sessions (at least one),
    /// with `queue_capacity` more waiting.
    pub fn new(max_active: usize, queue_capacity: usize) -> Scheduler<T> {
        Scheduler {
            max_active: max_active.max(1),
            queue_capacity,
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

    /// Active sessions parked until a wake.
    pub fn num_parked(&self) -> usize {
        let parked = |e: &&Entry<T>| matches!(e.slot, Slot::Parked(_));
        self.active.values().filter(parked).count()
    }

    /// `true` when no admitted session remains.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.queued.is_empty()
    }

    /// Submit a task with the next free session id.
    pub fn submit(&mut self, task: T) -> Result<Admitted, AdmissionError> {
        let id = SessionId(self.next_id);
        self.submit_with_id(id, task)
    }

    /// Submit a task under a caller-chosen id (the service pre-assigns ids
    /// so the obs session label exists before admission).
    pub fn submit_with_id(&mut self, id: SessionId, task: T) -> Result<Admitted, AdmissionError> {
        if self.active.contains_key(&id.0) || self.queued.iter().any(|(q, _)| *q == id.0) {
            return Err(AdmissionError::DuplicateSession { id: id.0 });
        }
        let admitted = if self.active.len() < self.max_active {
            self.activate(id.0, task);
            Admitted::Active(id)
        } else if self.queued.len() < self.queue_capacity {
            self.queued.push_back((id.0, task));
            Admitted::Queued(id)
        } else {
            return Err(AdmissionError::Saturated {
                active: self.active.len(),
                queued: self.queued.len(),
                max_active: self.max_active,
                queue_capacity: self.queue_capacity,
            });
        };
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(admitted)
    }

    /// Cancel a session, active (ready or parked) or queued, and promote
    /// the longest-waiting queued session into a freed slot. Returns
    /// whether the session left the table now: `false` for unknown ids
    /// (already finished, never admitted) and for a held session, which is
    /// only marked — it keeps its slot until [`Scheduler::charge`] takes
    /// its quantum back and reports [`Charged::Canceled`].
    pub fn cancel(&mut self, id: SessionId) -> bool {
        if let Some(Entry {
            slot: Slot::Held { canceled, .. },
            ..
        }) = self.active.get_mut(&id.0)
        {
            *canceled = true;
            return false;
        }
        let known = self.active.remove(&id.0).is_some()
            || (self.queued.iter().position(|(q, _)| *q == id.0))
                .and_then(|at| self.queued.remove(at))
                .is_some();
        self.promote();
        known
    }

    /// Wake session `id` (see [`Scheduler::wake_all`]); a no-op for an id
    /// that is not active.
    pub fn wake(&mut self, id: SessionId) {
        let vtime = self.vtime;
        if let Some(entry) = self.active.get_mut(&id.0) {
            entry.wake(vtime);
        }
    }

    /// Make every parked session ready and mark every held one, so that a
    /// parking charge makes it ready instead. A session woken for another's
    /// stream just parks again at its next quantum.
    pub fn wake_all(&mut self) {
        let vtime = self.vtime;
        self.active.values_mut().for_each(|e| e.wake(vtime));
    }

    /// Run one quantum of the session with the smallest `(pass, id)`:
    /// [`Scheduler::pick`], `run_quantum`, [`Scheduler::charge`]. `None`
    /// when no session can be picked (idle, everything held or parked, or
    /// everything still queued — impossible by construction, queued
    /// implies active is full). The quantum's waker does nothing: a task
    /// that parks here stays parked until [`Scheduler::wake`].
    pub fn round(&mut self) -> Option<Round<T::Output>> {
        let (id, mut task) = self.pick()?;
        let quantum = task.run_quantum(Waker::noop());
        self.charge(id, task, &quantum);
        Some(Round {
            id,
            output: quantum.output,
            finished: quantum.finished,
        })
    }

    /// Hand out the task of the session with the smallest `(pass, id)`
    /// among the ready ones (neither held nor parked). The session stays
    /// in the table, held, until [`Scheduler::charge`] brings the task
    /// back.
    pub fn pick(&mut self) -> Option<(SessionId, T)> {
        let (&id, entry) = (self.active.iter_mut())
            .filter(|(_, e)| matches!(e.slot, Slot::Ready(_)))
            .min_by_key(|(id, e)| (e.pass, **id))?;
        let held = Slot::Held {
            canceled: false,
            woken: false,
        };
        match std::mem::replace(&mut entry.slot, held) {
            Slot::Ready(task) => Some((SessionId(id), task)),
            _ => None,
        }
    }

    /// Take back the task [`Scheduler::pick`] handed out for `id`, with
    /// the quantum it ran. A finished or meanwhile-canceled session leaves
    /// the table (its task is dropped) and the queue head takes its slot.
    /// A parked quantum did no work and is charged nothing: the session
    /// parks, or is ready at once if a wake came in while it ran. Any other
    /// is charged its stride and can be picked again. An id that is not in
    /// the table counts as canceled.
    pub fn charge(&mut self, id: SessionId, task: T, quantum: &Quantum<T::Output>) -> Charged {
        let Some(entry) = self.active.get_mut(&id.0) else {
            return Charged::Canceled;
        };
        let outcome = match entry.slot {
            Slot::Held { canceled: true, .. } => Charged::Canceled,
            _ if quantum.finished => Charged::Finished,
            Slot::Held { woken, .. } if quantum.parked => {
                entry.slot = Slot::Parked(task);
                if woken {
                    entry.wake(self.vtime);
                }
                return Charged::Running;
            }
            _ => {
                // Global virtual time catches up to the pass, then the
                // pass advances by the stride; the new urgency counts from
                // the next charge on.
                self.vtime = self.vtime.max(entry.pass);
                entry.pass += STRIDE_ONE / entry.urgency.boost();
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
        if self.active.len() < self.max_active {
            if let Some((id, task)) = self.queued.pop_front() {
                self.activate(id, task);
            }
        }
    }

    /// A new or promoted session starts at the global virtual time.
    fn activate(&mut self, id: u64, task: T) {
        let entry = Entry {
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

        fn run_quantum(&mut self, waker: &Waker) -> Quantum<u64> {
            self.task.run_quantum(waker)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    fn scheduler(max_active: usize, queue: usize, sessions: u64) -> Scheduler<ScriptedTask> {
        let mut s = Scheduler::new(max_active, queue);
        for id in 0..sessions {
            s.submit_with_id(SessionId(id), ScriptedTask::new(LONG))
                .expect("admits");
        }
        s
    }

    /// Run the picked task's quantum and charge it, as a runner does.
    fn run_and_charge<T: SchedTask>(
        s: &mut Scheduler<T>,
        (id, mut task): (SessionId, T),
    ) -> Charged {
        let quantum = task.run_quantum(Waker::noop());
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
        let mut s: Scheduler<Tracked> = Scheduler::new(2, 1);
        for id in 0..3 {
            let task = Tracked {
                task: ScriptedTask::new(LONG),
                drops: Rc::clone(&drops),
            };
            s.submit_with_id(SessionId(id), task).expect("admits");
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

    /// The pass of session `id`, as the next pick would order it.
    fn pass<T: SchedTask>(s: &Scheduler<T>, id: u64) -> u64 {
        s.active[&id].pass
    }

    /// Session 0 parks on its first quantum; session 1 never does.
    fn parking_pair() -> Scheduler<ScriptedTask> {
        let mut s = Scheduler::new(2, 1);
        let parks = ScriptedTask::new(LONG).parks_after(0);
        s.submit_with_id(SessionId(0), parks).expect("admits");
        s.submit_with_id(SessionId(1), ScriptedTask::new(LONG))
            .expect("admits");
        s
    }

    #[test]
    fn a_parked_session_is_never_picked_and_is_charged_nothing() {
        let mut s = parking_pair();
        let parked = s.round().expect("runs");
        assert_eq!((parked.id, parked.output), (SessionId(0), None));
        assert_eq!((pass(&s, 0), s.num_parked()), (0, 1));
        let order: Vec<u64> = (0..5).map(|_| s.round().expect("runs").id.0).collect();
        assert_eq!(order, [1; 5], "the parked session holds the lowest pass");
        assert_eq!(pass(&s, 0), 0, "and is charged nothing");
        let one = s.pick().expect("picks");
        assert!(s.pick().is_none(), "held and parked: nothing to pick");
        assert_eq!(run_and_charge(&mut s, one), Charged::Running);
    }

    #[test]
    fn a_wake_while_the_session_is_held_is_not_lost() {
        let mut s = parking_pair();
        let (id, mut task) = s.pick().expect("picks");
        assert_eq!(id, SessionId(0));
        let quantum = task.run_quantum(Waker::noop());
        assert!(quantum.parked);
        // The stream grew after the quantum looked and before its charge.
        s.wake_all();
        assert_eq!(s.charge(id, task, &quantum), Charged::Running);
        assert_eq!(s.num_parked(), 0, "the charge made it ready");
        assert_eq!(s.round().expect("runs").output, Some(0));
    }

    #[test]
    fn a_long_park_resumes_at_virtual_time_without_a_burst() {
        let mut s = parking_pair();
        assert!(s.round().expect("runs").output.is_none());
        for _ in 0..100 {
            assert_eq!(s.round().expect("runs").id, SessionId(1));
        }
        s.wake(SessionId(0));
        assert_eq!(pass(&s, 0), s.vtime, "resumes at virtual time");
        assert_eq!(s.vtime, 99 * STRIDE_ONE);
        // Session 1's pass is one stride past virtual time and session 0
        // wins ties by id: it runs twice, as an arrival would, and then the
        // two alternate; not the hundred quanta its old pass would allow.
        let order: Vec<u64> = (0..6).map(|_| s.round().expect("runs").id.0).collect();
        assert_eq!(order, [0, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn cancelling_a_parked_session_promotes_the_queue_head() {
        let mut s = parking_pair();
        s.submit_with_id(SessionId(2), ScriptedTask::new(LONG))
            .expect("queues");
        assert!(s.round().expect("runs").output.is_none());
        assert_eq!((s.num_parked(), s.num_queued()), (1, 1));
        assert!(s.cancel(SessionId(0)), "a parked session leaves at once");
        assert_eq!((s.num_active(), s.num_parked(), s.num_queued()), (2, 0, 0));
        let order: Vec<u64> = (0..2).map(|_| s.round().expect("runs").id.0).collect();
        assert_eq!(order, [1, 2], "the promoted session starts at vtime");
    }

    #[test]
    fn a_wake_of_an_ended_session_is_a_no_op() {
        let mut s = scheduler(1, 0, 0);
        s.submit_with_id(SessionId(0), ScriptedTask::new(1))
            .expect("admits");
        assert!(s.round().expect("runs").finished);
        s.wake(SessionId(0));
        s.wake(SessionId(7));
        s.wake_all();
        assert!(s.is_idle());
        assert!(s.round().is_none());
    }
}
