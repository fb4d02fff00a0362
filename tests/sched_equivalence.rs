//! The multi-tenant preemption-safety contract, end to end.
//!
//! N concurrent sessions time-slicing the `QueryService`'s runners and
//! one shared worker pool must each see a report stream **bit-identical**
//! to the same query run solo on a single-threaded session. Each session's
//! step is a pure function of its own state, quanta of different sessions
//! run side by side but never two of one session, and the engine's
//! threads=1/N contract holds per quantum, so this holds by construction;
//! this test holds the whole threaded stack (channels, runners, shared
//! pool, admission queue) to it — across seeds × {2, 4, 8} concurrent
//! sessions of both workloads' queries, with two active slots so that
//! larger mixes queue.

use std::sync::Arc;

use g_ola::core::sched::{QueryService, ServiceConfig};
use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};
use gola_conformance::assert_reports_identical;

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(4000)),
        )
        .expect("register table");
    catalog
        .register(
            "lineitem_denorm",
            Arc::new(TpchGenerator::default().generate(2000)),
        )
        .expect("register table");
    catalog
}

/// Both suites, interleaved so that four sessions already mix the Conviva
/// queries with TPC-H's correlated Q17 and Q20, which recover.
const SUITE: [(&str, &str); 8] = [
    ("SBI", conviva::SBI),
    ("Q17", tpch::Q17),
    ("C1", conviva::C1),
    ("Q20", tpch::Q20),
    ("C2", conviva::C2),
    ("Q11", tpch::Q11),
    ("C3", conviva::C3),
    ("Q18", tpch::Q18),
];

fn base_config(seed: u64) -> OnlineConfig {
    OnlineConfig::for_tests(6).with_trials(16).with_seed(seed)
}

fn solo_stream(catalog: &Catalog, sql: &str, seed: u64) -> Vec<BatchReport> {
    let session = OnlineSession::new(catalog.clone(), base_config(seed).with_threads(1));
    let exec = session.execute_online(sql).expect("query compiles");
    exec.map(|r| r.expect("batch succeeds")).collect()
}

/// Run `n` sessions concurrently through one service — two active, the
/// rest queued — and return each session's full stream, in submission
/// order.
fn service_streams(
    catalog: &Catalog,
    queries: &[(&str, &str)],
    seed: u64,
    threads: usize,
) -> Vec<Vec<BatchReport>> {
    let service = QueryService::new(
        catalog.clone(),
        ServiceConfig {
            max_active: 2,
            queue_capacity: queries.len(),
            threads,
            base: base_config(seed),
        },
    );
    // Submit everything up front so the scheduler genuinely interleaves,
    // then drain the per-session channels in any order (delivery order
    // within one session is the scheduler's round order).
    let handles: Vec<_> = queries
        .iter()
        .map(|(name, sql)| {
            service
                .submit(sql)
                .unwrap_or_else(|e| panic!("{name} admits: {e}"))
        })
        .collect();
    handles
        .into_iter()
        .zip(queries)
        .map(|(handle, (name, _))| {
            handle
                .map(|r| r.unwrap_or_else(|e| panic!("{name} batch fails: {e}")))
                .collect()
        })
        .collect()
}

#[test]
fn concurrent_streams_are_bit_identical_to_solo_runs() {
    let catalog = catalog();
    let mut recomputations = 0;
    for n in [2usize, 4, 8] {
        for seed in [7u64, 20_260_809] {
            // The first n suite queries, all distinct work in flight at
            // once on a threads=2 shared pool.
            let queries = &SUITE[..n];
            let streams = service_streams(&catalog, queries, seed, 2);
            for ((name, sql), stream) in queries.iter().zip(&streams) {
                let solo = solo_stream(&catalog, sql, seed);
                assert!(
                    !stream.is_empty(),
                    "{name} (n={n}, seed={seed}): empty stream"
                );
                assert_reports_identical(&format!("{name} (n={n}, seed={seed})"), &solo, stream);
                recomputations += stream.last().map_or(0, |r| r.recomputations);
            }
        }
    }
    assert!(recomputations > 0, "no interleaved session ever recovered");
}

#[test]
fn cancellation_frees_a_slot_for_queued_sessions() {
    let catalog = catalog();
    let service = QueryService::new(
        catalog.clone(),
        ServiceConfig {
            max_active: 1,
            queue_capacity: 1,
            threads: 1,
            base: base_config(3),
        },
    );
    let first = service.submit(conviva::SBI).expect("first admits");
    let second = service.submit(conviva::C1).expect("second queues");
    // Cancel the active session: the queued one must activate and run to
    // completion (admitted sessions are never dropped).
    first.cancel();
    let stream: Vec<BatchReport> = second.map(|r| r.expect("batch succeeds")).collect();
    let solo = solo_stream(&catalog, conviva::C1, 3);
    assert_reports_identical("C1 after cancel", &solo, &stream);
}
