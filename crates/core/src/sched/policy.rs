//! The fair-share policy: stride scheduling with contract-aware priority
//! and bounded admission. [`crate::sched::Scheduler`] keeps each session's
//! pass and urgency beside its task and applies the arithmetic below; this
//! module holds the policy's constants and types.
//!
//! # Model
//!
//! Every *active* session holds a `pass` value (a virtual timestamp). Each
//! scheduling round picks the runnable session with the smallest
//! `(pass, id)` pair and, after its quantum — one mini-batch — advances its
//! pass by `STRIDE_ONE / boost` — classic stride scheduling (Waldspurger &
//! Weihl, OSDI '94). Consequences, all deterministic:
//!
//! * **Proportional share.** Over any long window a session receives
//!   quanta in proportion to its boost: equal sessions round-robin.
//! * **No starvation.** A runnable session's pass is frozen while it
//!   waits; every other session's pass strictly grows when it runs, so the
//!   waiter becomes the minimum within a bounded number of rounds (at most
//!   `Σ_j ceil(stride_i / stride_j)` ≈ `Σ_j b_i / b_j` rounds,
//!   property-tested in `crates/core/tests/sched_sim.rs`).
//! * **Contract preference.** A session whose `ERROR`/`WITHIN` contract is
//!   close to its target — as its query's contract driver judges at each
//!   report — is [`Urgency::Urgent`] and its boost doubles: nearly-done
//!   contracted queries drain first, freeing their slot.
//!
//! # Admission
//!
//! At most `max_active` sessions are scheduled; up to `queue_capacity`
//! more wait in FIFO order. Beyond that, submission fails with the typed
//! [`AdmissionError`] — the caller (HTTP surface) maps it to `429`. An
//! *admitted* session (active or queued) is never dropped by the
//! scheduler; it leaves only by finishing or by explicit cancellation.
//!
//! New sessions (and sessions activated from the wait queue) start at the
//! global virtual time — the pass of the most recently scheduled session —
//! so an arrival can neither monopolize the scheduler with a stale small
//! pass nor be penalized for history it did not witness.

use std::fmt;

/// One quantum's worth of virtual time for a normal-urgency session.
/// Strides divide this by the boost, exactly.
pub const STRIDE_ONE: u64 = 1 << 20;

/// How much a session's share is boosted by contract urgency.
pub const URGENT_BOOST: u64 = 2;

/// Scheduling pressure reported by a task after each quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Urgency {
    /// No contract, or the contract target is still far away.
    #[default]
    Normal,
    /// An `ERROR`/`WITHIN` contract is near its target: finishing this
    /// session soon both honors the contract and frees its slot.
    Urgent,
}

impl Urgency {
    pub(crate) fn boost(self) -> u64 {
        match self {
            Urgency::Normal => 1,
            Urgency::Urgent => URGENT_BOOST,
        }
    }
}

/// Typed admission rejection (HTTP maps this to `429 Too Many Requests`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// Both the active set and the wait queue are full.
    Saturated {
        active: usize,
        queued: usize,
        max_active: usize,
        queue_capacity: usize,
    },
    /// A session with this id is already admitted (internal misuse guard;
    /// the service's id counter makes it unreachable in practice).
    DuplicateSession { id: u64 },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Saturated {
                active,
                queued,
                max_active,
                queue_capacity,
            } => write!(
                f,
                "scheduler saturated: {active}/{max_active} active sessions and \
                 {queued}/{queue_capacity} queued"
            ),
            AdmissionError::DuplicateSession { id } => {
                write!(f, "session id {id} is already admitted")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Admitted, Scheduler, ScriptedTask, SessionId};

    /// Longer than any test below runs it, so no session finishes early.
    const LONG: u64 = 1_000;

    fn admit(s: &mut Scheduler<ScriptedTask>, id: u64) -> Admitted {
        s.submit_with_id(SessionId(id), ScriptedTask::new(LONG))
            .expect("admits")
    }

    /// Run `rounds` quanta and count them per session id.
    fn counts(s: &mut Scheduler<ScriptedTask>, rounds: usize) -> [u32; 2] {
        let mut counts = [0u32; 2];
        for _ in 0..rounds {
            let id = s.round().expect("runs").id;
            counts[usize::try_from(id.0).expect("small id")] += 1;
        }
        counts
    }

    #[test]
    fn admission_fills_active_then_queue_then_rejects() {
        let mut s = Scheduler::new(2, 1);
        let mut submit = |id, total| s.submit_with_id(SessionId(id), ScriptedTask::new(total));
        assert_eq!(submit(0, 1), Ok(Admitted::Active(SessionId(0))));
        assert_eq!(submit(1, LONG), Ok(Admitted::Active(SessionId(1))));
        assert_eq!(submit(2, LONG), Ok(Admitted::Queued(SessionId(2))));
        assert_eq!(
            submit(3, LONG),
            Err(AdmissionError::Saturated {
                active: 2,
                queued: 1,
                max_active: 2,
                queue_capacity: 1,
            })
        );
        assert_eq!(
            submit(1, LONG),
            Err(AdmissionError::DuplicateSession { id: 1 })
        );
        // A finishing session frees a slot for the queued one.
        let done = s.round().expect("runs");
        assert_eq!((done.id, done.finished), (SessionId(0), true));
        assert_eq!(s.num_active(), 2);
        assert_eq!(s.num_queued(), 0);
        let next = [s.round(), s.round()].map(|r| r.expect("runs").id);
        assert_eq!(next, [SessionId(1), SessionId(2)]);
    }

    #[test]
    fn equal_weights_round_robin() {
        let mut s = Scheduler::new(3, 0);
        for id in 0..3 {
            admit(&mut s, id);
        }
        let order: Vec<u64> = (0..6).map(|_| s.round().expect("runs").id.0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn urgency_doubles_share() {
        let mut s = Scheduler::new(2, 0);
        let urgent = ScriptedTask::new(LONG).urgent_after(0);
        s.submit_with_id(SessionId(0), urgent).expect("admits");
        admit(&mut s, 1);
        let counts = counts(&mut s, 300);
        assert!(counts[0] >= 195 && counts[0] <= 205, "{counts:?}");
    }

    #[test]
    fn late_arrival_starts_at_virtual_time() {
        let mut s = Scheduler::new(2, 0);
        admit(&mut s, 0);
        counts(&mut s, 100);
        admit(&mut s, 1);
        // The newcomer must not monopolize: within a few rounds both run.
        let counts = counts(&mut s, 10);
        assert!(counts[0] >= 4, "{counts:?}");
        assert!(counts[1] >= 4, "{counts:?}");
    }
}
