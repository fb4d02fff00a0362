//! Scheduler trace golden: the exact decision sequence of a fixed set of
//! scripts, one `Debug` line per `SimEvent`, pinned to
//! `sched_trace_golden.txt`.
//!
//! `sched_sim.rs` asserts properties (completion, starvation gaps, shares
//! within slack); this file pins *which* session runs in every round, so a
//! refactor of the scheduler must leave the text byte-identical. The
//! scripts cover the seeded random shapes, a saturated admission, a queued
//! session activated by a finish and by a cancel, a late arrival and an
//! urgent session beside a normal one. On a mismatch the test prints the
//! whole new text, so a deliberate change of policy can be reviewed
//! against the checked-in file and copied over it by hand.

use std::fmt::Write;

use gola_common::rng::SplitMix64;
use gola_core::sched::{
    Admitted, Arrival, Scheduler, SchedulerSim, ScriptedTask, SessionId, SimEvent,
};

const GOLDEN: &str = include_str!("sched_trace_golden.txt");

/// A scheduler of scripted tasks: `max_active` slots, `queue` more waiting.
fn sched(max_active: usize, queue: usize) -> Scheduler<ScriptedTask> {
    Scheduler::new(max_active, queue)
}

/// The seeded script shape of `sched_sim.rs`: `n` sessions, arrival
/// rounds in `0..spread`, lengths in `1..=max_len`, one in three urgent
/// after a random number of quanta.
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

fn arrival(at_round: u64, task: ScriptedTask) -> Arrival<ScriptedTask> {
    Arrival { at_round, task }
}

/// Append one titled simulation's trace to `text`.
fn trace(
    text: &mut String,
    title: &str,
    sched: Scheduler<ScriptedTask>,
    script: Vec<Arrival<ScriptedTask>>,
) {
    let out = SchedulerSim::run(sched, script, 10_000);
    assert!(out.drained, "{title}: sim hit round bound");
    writeln!(text, "== {title} ==").expect("write to string");
    for ev in &out.events {
        writeln!(text, "{ev:?}").expect("write to string");
    }
}

/// A queued session activated by cancels: the simulator has no cancel, so
/// this drives a `Scheduler` directly and writes the same event lines,
/// plus one `Canceled` line per cancel with what `cancel` returned.
fn cancel_trace(text: &mut String) {
    writeln!(text, "== cancel activates the queued session ==").expect("write to string");
    let mut sched = sched(2, 2);
    let mut round = 0u64;
    for total in [6, 6, 4, 3] {
        let admitted = sched
            .submit(ScriptedTask::new(total))
            .expect("capacity fits");
        let ev = SimEvent::Admitted {
            round: 0,
            id: admitted.id(),
            queued: matches!(admitted, Admitted::Queued(_)),
        };
        writeln!(text, "{ev:?}").expect("write to string");
    }
    let cancel = |sched: &mut Scheduler<ScriptedTask>, text: &mut String, round: u64, id| {
        let known = sched.cancel(SessionId(id));
        writeln!(
            text,
            "Canceled {{ round: {round}, id: s{id}, known: {known} }}"
        )
        .expect("write to string");
    };
    while !sched.is_idle() {
        match round {
            // An active session: the first queued one takes its slot.
            2 => cancel(&mut sched, text, round, 0),
            // A queued session: it leaves the queue without running.
            3 => cancel(&mut sched, text, round, 3),
            // Unknown and already-canceled ids.
            4 => {
                cancel(&mut sched, text, round, 0);
                cancel(&mut sched, text, round, 99);
            }
            _ => {}
        }
        let Some(done) = sched.round() else { break };
        let ev = SimEvent::Ran {
            round,
            id: done.id,
            finished: done.finished,
        };
        writeln!(text, "{ev:?}").expect("write to string");
        round += 1;
    }
    writeln!(
        text,
        "end {{ rounds: {round}, active: {}, queued: {} }}",
        sched.num_active(),
        sched.num_queued()
    )
    .expect("write to string");
}

#[test]
fn scheduler_decisions_match_their_golden_trace() {
    let mut text = String::new();
    for n in [2usize, 4, 8] {
        for seed in 0..3u64 {
            let script = random_script(seed ^ (n as u64) << 32, n, 6, 12);
            let title = format!("completion shape n {n} seed {seed}");
            trace(&mut text, &title, sched(n.min(4), n), script);
            let script = random_script(seed.wrapping_mul(0x9E37) ^ n as u64, n, 4, 20);
            let title = format!("starvation shape n {n} seed {seed}");
            trace(&mut text, &title, sched(n, 0), script);
            let script = random_script(seed, n, 5, 10);
            let title = format!("queueing shape n {n} seed {seed}");
            trace(&mut text, &title, sched(2, n), script);
        }
    }
    let saturated = (0..5)
        .map(|i| arrival(0, ScriptedTask::new(3 + i)))
        .chain([arrival(2, ScriptedTask::new(2))])
        .collect();
    trace(&mut text, "saturated admission", sched(2, 1), saturated);
    let finish = vec![
        arrival(0, ScriptedTask::new(3)),
        arrival(0, ScriptedTask::new(5)),
        arrival(1, ScriptedTask::new(2)),
    ];
    trace(
        &mut text,
        "finish activates the queued session",
        sched(1, 2),
        finish,
    );
    cancel_trace(&mut text);
    let late = vec![
        arrival(0, ScriptedTask::new(130)),
        arrival(100, ScriptedTask::new(12)),
    ];
    trace(
        &mut text,
        "late arrival after 100 rounds",
        sched(2, 0),
        late,
    );
    let urgent = vec![
        arrival(0, ScriptedTask::new(20)),
        arrival(0, ScriptedTask::new(20).urgent_after(3)),
    ];
    trace(&mut text, "urgent beside normal", sched(2, 0), urgent);
    assert!(
        text == GOLDEN,
        "scheduler trace golden mismatch; the new text is:\n{text}<<< end of new text"
    );
}
