//! The fair-share scheduling policy: stride scheduling with contract-aware
//! priority and bounded admission.
//!
//! # Model
//!
//! Every *active* session holds a `pass` value (a virtual timestamp). Each
//! scheduling round picks the runnable session with the smallest
//! `(pass, id)` pair and, after its quantum, advances its pass by
//! `STRIDE_ONE / (weight × boost)` — classic stride scheduling
//! (Waldspurger & Weihl, OSDI '94). Consequences, all deterministic:
//!
//! * **Proportional share.** Over any long window a session receives
//!   quanta in proportion to `weight × boost`.
//! * **No starvation.** A runnable session's pass is frozen while it
//!   waits; every other session's pass strictly grows when it runs, so the
//!   waiter becomes the minimum within a bounded number of rounds (at most
//!   `Σ_j ceil(stride_i / stride_j)` ≈ `Σ_j (w_i·b_i)/(w_j·b_j)` rounds,
//!   property-tested in `crates/core/tests/sched_sim.rs`).
//! * **Contract preference.** A session whose `ERROR`/`WITHIN` contract is
//!   close to its target reports [`Urgency::Urgent`] and its boost doubles:
//!   nearly-done contracted queries drain first, freeing their slot
//!   (BlinkDB-style accuracy contracts meet PF-OLA-style shared scheduling).
//!
//! # Admission
//!
//! At most `max_active` sessions are scheduled; up to `queue_capacity`
//! more wait in FIFO order. Beyond that, submission fails with the typed
//! [`AdmissionError`] — the caller (HTTP surface) maps it to `429`. An
//! *admitted* session (active or queued) is never dropped by the policy;
//! it leaves only by finishing or by explicit cancellation.
//!
//! New sessions (and sessions activated from the wait queue) start at the
//! global virtual time — the pass of the most recently scheduled session —
//! so an arrival can neither monopolize the scheduler with a stale small
//! pass nor be penalized for history it did not witness.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// One quantum's worth of virtual time for a weight-1, normal-urgency
/// session. Strides divide this; with `weight × boost ≤ 32` the integer
/// division loses at most 1/32768 of precision per charge.
pub const STRIDE_ONE: u64 = 1 << 20;

/// Weights are clamped to `1..=MAX_WEIGHT` so the starvation bound stays
/// small and `STRIDE_ONE / (weight × boost)` stays far from zero.
pub const MAX_WEIGHT: u64 = 16;

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

/// Capacity knobs of the policy.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Sessions scheduled concurrently (time-sliced, one quantum at a time).
    pub max_active: usize,
    /// Admitted-but-waiting sessions beyond the active set.
    pub queue_capacity: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            max_active: 4,
            queue_capacity: 16,
        }
    }
}

/// Where an admitted session landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Scheduled immediately.
    Active,
    /// Admitted; will activate in FIFO order as slots free up.
    Queued,
}

#[derive(Debug)]
struct Entry {
    weight: u64,
    urgency: Urgency,
    pass: u64,
}

impl Entry {
    fn stride(&self) -> u64 {
        STRIDE_ONE / (self.weight * self.urgency.boost())
    }
}

/// Pure scheduling bookkeeping: no tasks, no threads, no clocks. The
/// generic [`crate::sched::Scheduler`] pairs it with tasks; the simulator
/// and the live service both drive that same code.
#[derive(Debug)]
pub struct SchedPolicy {
    cfg: PolicyConfig,
    active: BTreeMap<u64, Entry>,
    /// FIFO of admitted sessions waiting for an active slot: `(id, weight)`.
    queued: VecDeque<(u64, u64)>,
    /// Global virtual time: the pass of the most recently scheduled
    /// session at the moment it was picked. Monotone non-decreasing.
    vtime: u64,
}

impl SchedPolicy {
    pub fn new(cfg: PolicyConfig) -> SchedPolicy {
        SchedPolicy {
            cfg: PolicyConfig {
                max_active: cfg.max_active.max(1),
                queue_capacity: cfg.queue_capacity,
            },
            active: BTreeMap::new(),
            queued: VecDeque::new(),
            vtime: 0,
        }
    }

    pub fn config(&self) -> PolicyConfig {
        self.cfg
    }

    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    pub fn num_queued(&self) -> usize {
        self.queued.len()
    }

    /// Admit session `id`, either into the active set or the wait queue.
    /// `weight` is clamped to `1..=MAX_WEIGHT`.
    pub fn admit(&mut self, id: u64, weight: u64) -> Result<Admission, AdmissionError> {
        let weight = weight.clamp(1, MAX_WEIGHT);
        if self.active.contains_key(&id) || self.queued.iter().any(|(q, _)| *q == id) {
            return Err(AdmissionError::DuplicateSession { id });
        }
        if self.active.len() < self.cfg.max_active {
            self.activate(id, weight);
            return Ok(Admission::Active);
        }
        if self.queued.len() < self.cfg.queue_capacity {
            self.queued.push_back((id, weight));
            return Ok(Admission::Queued);
        }
        Err(AdmissionError::Saturated {
            active: self.active.len(),
            queued: self.queued.len(),
            max_active: self.cfg.max_active,
            queue_capacity: self.cfg.queue_capacity,
        })
    }

    fn activate(&mut self, id: u64, weight: u64) {
        self.active.insert(
            id,
            Entry {
                weight,
                urgency: Urgency::Normal,
                pass: self.vtime,
            },
        );
    }

    /// The next session to run: smallest `(pass, id)` among the active
    /// set. Pure (no state change); `charge` records the decision.
    pub fn pick(&self) -> Option<u64> {
        self.active
            .iter()
            .min_by_key(|(id, e)| (e.pass, **id))
            .map(|(id, _)| *id)
    }

    /// Charge one executed quantum to session `id`: global virtual time
    /// catches up to its pass, then its pass advances by its stride.
    pub fn charge(&mut self, id: u64) {
        if let Some(e) = self.active.get_mut(&id) {
            self.vtime = self.vtime.max(e.pass);
            e.pass += e.stride();
        }
    }

    /// Update a session's contract urgency (affects its stride from the
    /// next charge on).
    pub fn set_urgency(&mut self, id: u64, urgency: Urgency) {
        if let Some(e) = self.active.get_mut(&id) {
            e.urgency = urgency;
        }
    }

    /// Remove a session (finished or cancelled), wherever it is. Returns
    /// `false` if the id is unknown.
    pub fn remove(&mut self, id: u64) -> bool {
        if self.active.remove(&id).is_some() {
            return true;
        }
        if let Some(at) = self.queued.iter().position(|(q, _)| *q == id) {
            self.queued.remove(at);
            return true;
        }
        false
    }

    /// Promote the longest-waiting queued session into a free active slot.
    /// Call after `remove`; returns the activated id, if any.
    pub fn activate_next(&mut self) -> Option<u64> {
        if self.active.len() >= self.cfg.max_active {
            return None;
        }
        let (id, weight) = self.queued.pop_front()?;
        self.activate(id, weight);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(max_active: usize, queue: usize) -> SchedPolicy {
        SchedPolicy::new(PolicyConfig {
            max_active,
            queue_capacity: queue,
        })
    }

    #[test]
    fn admission_fills_active_then_queue_then_rejects() {
        let mut p = policy(2, 1);
        assert_eq!(p.admit(0, 1), Ok(Admission::Active));
        assert_eq!(p.admit(1, 1), Ok(Admission::Active));
        assert_eq!(p.admit(2, 1), Ok(Admission::Queued));
        assert_eq!(
            p.admit(3, 1),
            Err(AdmissionError::Saturated {
                active: 2,
                queued: 1,
                max_active: 2,
                queue_capacity: 1,
            })
        );
        assert_eq!(
            p.admit(1, 1),
            Err(AdmissionError::DuplicateSession { id: 1 })
        );
        // A finishing session frees a slot for the queued one.
        assert!(p.remove(0));
        assert_eq!(p.activate_next(), Some(2));
        assert_eq!(p.num_active(), 2);
        assert_eq!(p.num_queued(), 0);
    }

    #[test]
    fn equal_weights_round_robin() {
        let mut p = policy(3, 0);
        for id in 0..3 {
            p.admit(id, 1).expect("admits");
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let id = p.pick().expect("picks");
            order.push(id);
            p.charge(id);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn weights_give_proportional_share() {
        let mut p = policy(2, 0);
        p.admit(0, 3).expect("admits");
        p.admit(1, 1).expect("admits");
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            let id = p.pick().expect("picks");
            counts[usize::try_from(id).expect("small id")] += 1;
            p.charge(id);
        }
        // 3:1 share within rounding slack.
        assert!(counts[0] >= 295 && counts[0] <= 305, "{counts:?}");
    }

    #[test]
    fn urgency_doubles_share() {
        let mut p = policy(2, 0);
        p.admit(0, 1).expect("admits");
        p.admit(1, 1).expect("admits");
        p.set_urgency(0, Urgency::Urgent);
        let mut counts = [0u32; 2];
        for _ in 0..300 {
            let id = p.pick().expect("picks");
            counts[usize::try_from(id).expect("small id")] += 1;
            p.charge(id);
        }
        assert!(counts[0] >= 195 && counts[0] <= 205, "{counts:?}");
    }

    #[test]
    fn late_arrival_starts_at_virtual_time() {
        let mut p = policy(2, 0);
        p.admit(0, 1).expect("admits");
        for _ in 0..100 {
            let id = p.pick().expect("picks");
            p.charge(id);
        }
        p.admit(1, 1).expect("admits");
        // The newcomer must not monopolize: within a few rounds both run.
        let mut counts = [0u32; 2];
        for _ in 0..10 {
            let id = p.pick().expect("picks");
            counts[usize::try_from(id).expect("small id")] += 1;
            p.charge(id);
        }
        assert!(counts[0] >= 4, "{counts:?}");
        assert!(counts[1] >= 4, "{counts:?}");
    }
}
