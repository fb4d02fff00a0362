//! A deterministic scheduler simulator: scripted session arrivals driving
//! the real [`Scheduler`] under a virtual clock.
//!
//! The virtual clock is the *round counter* — each scheduling quantum is
//! one tick, matching the live system where a quantum is one mini-batch
//! on the shared pool. There are no threads, no sockets and no wall
//! clocks anywhere in here: the same script always produces the same
//! event trace byte for byte, which is what lets the property tests in
//! `crates/core/tests/sched_sim.rs` sweep seeds × session counts and
//! assert fairness, starvation bounds and admission behavior exactly.

use std::collections::BTreeMap;
use std::task::Waker;

use crate::sched::{AdmissionError, SchedTask, Scheduler, SessionId, Urgency};

/// A scripted session arrival. Arrivals are submitted in declaration order
/// once the virtual clock reaches `at_round`.
#[derive(Debug)]
pub struct Arrival<T> {
    pub at_round: u64,
    pub task: T,
}

/// One entry of the simulator's event trace. Fully ordered and
/// deterministic; tests assert on it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    Admitted {
        round: u64,
        id: SessionId,
        queued: bool,
    },
    Rejected {
        round: u64,
        error: AdmissionError,
    },
    Ran {
        round: u64,
        id: SessionId,
        finished: bool,
    },
}

/// Everything a simulation produced.
#[derive(Debug)]
pub struct SimOutcome<O> {
    /// The full ordered event trace.
    pub events: Vec<SimEvent>,
    /// Per session: every quantum output, in order.
    pub outputs: BTreeMap<SessionId, Vec<O>>,
    /// Rounds the virtual clock advanced through.
    pub rounds: u64,
    /// Arrivals refused with a typed [`AdmissionError`].
    pub rejected: usize,
    /// `true` if every admitted session ran to completion before
    /// `max_rounds` (tests assert this; `false` means the bound was hit).
    pub drained: bool,
}

impl<O> SimOutcome<O> {
    /// Quanta executed per session, from the trace.
    pub fn quanta(&self) -> BTreeMap<SessionId, u64> {
        let mut counts = BTreeMap::new();
        for ev in &self.events {
            if let SimEvent::Ran { id, .. } = ev {
                *counts.entry(*id).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Rounds at which each session ran (for starvation-gap assertions).
    pub fn run_rounds(&self, id: SessionId) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                SimEvent::Ran { round, id: r, .. } if *r == id => Some(*round),
                _ => None,
            })
            .collect()
    }
}

/// Drives a [`Scheduler`] from a script of arrivals until every admitted
/// session finishes (or `max_rounds` elapses, a runaway guard).
pub struct SchedulerSim;

impl SchedulerSim {
    pub fn run<T: SchedTask>(
        mut sched: Scheduler<T>,
        arrivals: Vec<Arrival<T>>,
        max_rounds: u64,
    ) -> SimOutcome<T::Output> {
        let mut events = Vec::new();
        let mut outputs: BTreeMap<SessionId, Vec<T::Output>> = BTreeMap::new();
        let mut rejected = 0usize;
        let mut pending = arrivals.into_iter().peekable();
        let mut round = 0u64;
        let mut drained = true;

        loop {
            while pending.peek().is_some_and(|a| a.at_round <= round) {
                let Some(arrival) = pending.next() else { break };
                match sched.submit(arrival.task) {
                    Ok(admitted) => {
                        let id = admitted.id();
                        outputs.entry(id).or_default();
                        events.push(SimEvent::Admitted {
                            round,
                            id,
                            queued: matches!(admitted, crate::sched::Admitted::Queued(_)),
                        });
                    }
                    Err(error) => {
                        rejected += 1;
                        events.push(SimEvent::Rejected { round, error });
                    }
                }
            }

            if sched.is_idle() && pending.peek().is_none() {
                break;
            }
            if round >= max_rounds {
                drained = false;
                break;
            }

            if let Some(done) = sched.round() {
                events.push(SimEvent::Ran {
                    round,
                    id: done.id,
                    finished: done.finished,
                });
                if let Some(out) = done.output {
                    outputs.entry(done.id).or_default().push(out);
                }
            }
            round += 1;
        }

        SimOutcome {
            events,
            outputs,
            rounds: round,
            rejected,
            drained,
        }
    }
}

/// A synthetic task for simulation: yields `total` quanta of output
/// (`0..total`), optionally turning urgent once `urgent_after` quanta have
/// run — a stand-in for a contracted query entering its endgame — and
/// optionally parking once, after `park_after` quanta — a stand-in for a
/// query that has caught up with an open stream.
#[derive(Debug, Clone)]
pub struct ScriptedTask {
    total: u64,
    urgent_after: Option<u64>,
    park_after: Option<u64>,
    done: u64,
}

impl ScriptedTask {
    pub fn new(total: u64) -> ScriptedTask {
        ScriptedTask {
            total: total.max(1),
            urgent_after: None,
            park_after: None,
            done: 0,
        }
    }

    /// Report [`Urgency::Urgent`] from the `after`-th quantum on.
    pub fn urgent_after(mut self, after: u64) -> ScriptedTask {
        self.urgent_after = Some(after);
        self
    }

    /// Run one parked quantum (no output) once `after` quanta have run.
    #[cfg(test)]
    pub fn parks_after(mut self, after: u64) -> ScriptedTask {
        self.park_after = Some(after);
        self
    }

    /// Total quanta this task will run.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl SchedTask for ScriptedTask {
    type Output = u64;

    fn run_quantum(&mut self, _waker: &Waker) -> crate::sched::Quantum<u64> {
        if self
            .park_after
            .take_if(|after| *after == self.done)
            .is_some()
        {
            return crate::sched::Quantum {
                output: None,
                finished: false,
                parked: true,
                urgency: Urgency::Normal,
            };
        }
        let index = self.done;
        self.done += 1;
        let urgency = if self.urgent_after.is_some_and(|after| self.done >= after) {
            Urgency::Urgent
        } else {
            Urgency::Normal
        };
        crate::sched::Quantum {
            output: Some(index),
            finished: self.done >= self.total,
            parked: false,
            urgency,
        }
    }
}
