//! Scheduler properties, proven on the deterministic simulator.
//!
//! `SchedulerSim` drives the *same* `Scheduler::round` code the live
//! `QueryService` runs — no threads, no clocks, scripted arrivals under a
//! virtual round clock — so every property here is exact, not
//! statistical: seeds × session counts are swept and each trace is
//! asserted deterministically.
//!
//! Properties:
//! 1. **No starvation** — while a session is runnable its inter-run gap is
//!    bounded (stride scheduling freezes a waiter's pass).
//! 2. **Proportional share** — quanta track the urgency boost (the
//!    policy unit test `urgency_doubles_share`).
//! 3. **Contract priority** — an urgent session finishes ahead of an
//!    otherwise-identical normal one, without starving anyone.
//! 4. **Admission** — typed rejection exactly at saturation; every
//!    *admitted* session runs to completion (never dropped).
//! 5. **Determinism** — identical scripts produce identical traces.

use gola_common::rng::SplitMix64;
use gola_core::sched::{
    AdmissionError, Arrival, Scheduler, SchedulerSim, ScriptedTask, SessionId, SimEvent,
    URGENT_BOOST,
};

/// A scheduler of scripted tasks: `max_active` slots, `queue` more waiting.
fn sched(max_active: usize, queue: usize) -> Scheduler<ScriptedTask> {
    Scheduler::new(max_active, queue)
}

/// A seeded random script: `n` sessions, arrival rounds in `0..spread`,
/// lengths in `1..=max_len`, one in three urgent after a random number of
/// quanta.
fn random_script(seed: u64, n: usize, spread: u64, max_len: u64) -> Vec<Arrival<ScriptedTask>> {
    let mut rng = SplitMix64::new(seed);
    let mut arrivals: Vec<Arrival<ScriptedTask>> = (0..n)
        .map(|_| {
            let total = 1 + rng.next_below(max_len);
            let mut task = ScriptedTask::new(total);
            if rng.next_below(3) == 0 {
                task = task.urgent_after(1 + rng.next_below(total));
            }
            Arrival {
                at_round: rng.next_below(spread),
                task,
            }
        })
        .collect();
    arrivals.sort_by_key(|a| a.at_round);
    arrivals
}

#[test]
fn every_admitted_session_completes_across_seeds_and_sizes() {
    for &n in &[2usize, 4, 8] {
        for seed in 0..12u64 {
            let script = random_script(seed ^ (n as u64) << 32, n, 6, 12);
            let lengths: Vec<u64> = script.iter().map(|a| a.task.total()).collect();
            let out = SchedulerSim::run(sched(n.min(4), n), script, 10_000);
            assert!(out.drained, "seed {seed} n {n}: sim hit round bound");
            assert_eq!(out.rejected, 0, "seed {seed} n {n}: capacity fits all");
            // Never dropped, never truncated, outputs in order.
            assert_eq!(out.outputs.len(), n, "seed {seed} n {n}: all admitted");
            for (id, outputs) in &out.outputs {
                let expect = lengths[usize::try_from(id.0).expect("small id")];
                let want: Vec<u64> = (0..expect).collect();
                assert_eq!(outputs, &want, "seed {seed} n {n}: session {id} outputs");
            }
        }
    }
}

#[test]
fn no_starvation_within_bounded_rounds() {
    // Boost ≤ URGENT_BOOST gives a worst-case stride ratio of
    // URGENT_BOOST: between two consecutive runs of any runnable session,
    // each competitor fits at most ceil(ratio) + 1 quanta. Session churn
    // (arrivals entering at virtual time) can add slack, so the sweep
    // asserts a generous multiple of that structural bound.
    for &n in &[2usize, 4, 8] {
        let per_competitor = URGENT_BOOST + 1;
        let bound = 2 * (n as u64 - 1) * per_competitor + 1;
        for seed in 0..12u64 {
            let out = SchedulerSim::run(
                sched(n, 0),
                random_script(seed.wrapping_mul(0x9E37) ^ n as u64, n, 4, 20),
                10_000,
            );
            assert!(out.drained);
            for id in out.outputs.keys() {
                let rounds = out.run_rounds(*id);
                for pair in rounds.windows(2) {
                    let gap = pair[1] - pair[0];
                    assert!(
                        gap <= bound,
                        "seed {seed} n {n}: session {id} waited {gap} rounds (bound {bound})"
                    );
                }
            }
        }
    }
}

#[test]
fn urgent_session_finishes_first_without_starving_peers() {
    // Three identical-length sessions; only one is urgent from the start.
    // Urgency doubles its share, so it must finish strictly first — while
    // the others still complete (no starvation).
    let task = |urgent: bool| {
        let t = ScriptedTask::new(40);
        if urgent {
            t.urgent_after(1)
        } else {
            t
        }
    };
    let script = vec![
        Arrival {
            at_round: 0,
            task: task(false),
        },
        Arrival {
            at_round: 0,
            task: task(true),
        },
        Arrival {
            at_round: 0,
            task: task(false),
        },
    ];
    let out = SchedulerSim::run(sched(3, 0), script, 10_000);
    assert!(out.drained);
    let finish = |id: u64| {
        out.events
            .iter()
            .find_map(|ev| match ev {
                SimEvent::Ran {
                    round,
                    id: r,
                    finished: true,
                } if r.0 == id => Some(*round),
                _ => None,
            })
            .expect("session finishes")
    };
    let urgent_done = finish(1);
    assert!(
        urgent_done < finish(0) && urgent_done < finish(2),
        "urgent session must drain first: {} vs {} / {}",
        urgent_done,
        finish(0),
        finish(2)
    );
    // Peers still completed all 40 quanta each.
    for id in [0u64, 2] {
        assert_eq!(out.outputs[&SessionId(id)].len(), 40);
    }
}

#[test]
fn admission_rejects_exactly_at_saturation_with_typed_error() {
    // Capacity 2 active + 1 queued; 5 simultaneous arrivals → arrivals 3
    // and 4 are refused with the exact saturation numbers, the rest all
    // complete.
    let script: Vec<Arrival<ScriptedTask>> = (0..5)
        .map(|_| Arrival {
            at_round: 0,
            task: ScriptedTask::new(5),
        })
        .collect();
    let out = SchedulerSim::run(sched(2, 1), script, 10_000);
    assert_eq!(out.rejected, 2);
    let rejections: Vec<&AdmissionError> = out
        .events
        .iter()
        .filter_map(|ev| match ev {
            SimEvent::Rejected { error, .. } => Some(error),
            _ => None,
        })
        .collect();
    assert_eq!(
        rejections,
        vec![
            &AdmissionError::Saturated {
                active: 2,
                queued: 1,
                max_active: 2,
                queue_capacity: 1,
            };
            2
        ]
    );
    // The three admitted sessions were never dropped.
    assert_eq!(out.outputs.len(), 3);
    for outputs in out.outputs.values() {
        assert_eq!(outputs.len(), 5);
    }
    // The queued session starts only after a slot frees: its first run
    // comes after some session's finishing run.
    let first_queued_run = out.run_rounds(SessionId(2))[0];
    let first_finish = out
        .events
        .iter()
        .find_map(|ev| match ev {
            SimEvent::Ran {
                round,
                finished: true,
                ..
            } => Some(*round),
            _ => None,
        })
        .expect("something finishes");
    assert!(first_queued_run > first_finish);
}

#[test]
fn identical_scripts_produce_identical_traces() {
    for seed in 0..8u64 {
        let a = SchedulerSim::run(sched(3, 4), random_script(seed, 6, 5, 10), 10_000);
        let b = SchedulerSim::run(sched(3, 4), random_script(seed, 6, 5, 10), 10_000);
        assert_eq!(a.events, b.events, "seed {seed}: trace determinism");
        assert_eq!(a.outputs, b.outputs, "seed {seed}: output determinism");
    }
}
