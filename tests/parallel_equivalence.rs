//! Determinism contract of the parallel runtime: for every workload query,
//! a `threads = 1` run and a `threads = 4` run must produce **identical**
//! per-batch reports — same estimates (bit-for-bit), same confidence
//! intervals, same uncertain-set sizes, same recompute counts.
//!
//! This holds because ingest uses fixed-size candidate chunks whose
//! boundaries are independent of the thread count, the pool returns chunk
//! results in chunk index order, and fold takes the chunks in that order
//! on one thread at every thread count — and every mergeable aggregate
//! state finalizes to a function of the multiset it folded, however the
//! folds were cut into runs.

use std::sync::Arc;

use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};
use gola_conformance::assert_reports_identical;

fn run(catalog: &Catalog, sql: &str, threads: usize) -> Vec<BatchReport> {
    let config = OnlineConfig::for_tests(8)
        .with_trials(32)
        .with_threads(threads);
    let session = OnlineSession::new(catalog.clone(), config);
    let exec = session.execute_online(sql).expect("query compiles");
    exec.map(|r| r.expect("batch succeeds")).collect()
}

fn check(catalog: &Catalog, name: &str, sql: &str) {
    let seq = run(catalog, sql, 1);
    let par = run(catalog, sql, 4);
    assert_reports_identical(name, &seq, &par);
}

#[test]
fn conviva_queries_thread_invariant() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(6000)),
        )
        .unwrap();
    check(&catalog, "SBI", conviva::SBI);
    check(&catalog, "C1", conviva::C1);
    check(&catalog, "C2", conviva::C2);
    check(&catalog, "C3", conviva::C3);
}

fn run_with(catalog: &Catalog, sql: &str, config: OnlineConfig) -> Vec<BatchReport> {
    let session = OnlineSession::new(catalog.clone(), config);
    let exec = session.execute_online(sql).expect("query compiles");
    exec.map(|r| r.expect("batch succeeds")).collect()
}

/// Stratified partitioning and error-bounded contracts preserve the
/// thread-count determinism contract: the schedule is fixed by (table,
/// column, k, seed) and the stopping decision is a pure function of the
/// (bit-identical) reports, so `threads = 1` and `threads = 4` must agree
/// on every report *and* on the stopping batch.
#[test]
fn stratified_and_error_contract_thread_invariant() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(6000)),
        )
        .unwrap();
    let base = OnlineConfig::for_tests(8).with_trials(32);

    // Stratified mini-batches on the group column.
    let strat = |threads| {
        run_with(
            &catalog,
            conviva::C2,
            base.clone()
                .with_stratify_column("geo")
                .with_threads(threads),
        )
    };
    assert_reports_identical("C2/stratified", &strat(1), &strat(4));

    // Error-bounded contract: both runs must stop at the same batch with
    // the same reports (stopping is deterministic — no wall clock).
    let contracted = |threads| {
        run_with(
            &catalog,
            "SELECT geo, AVG(play_time) FROM sessions GROUP BY geo ERROR 5% CONFIDENCE 95%",
            base.clone().with_threads(threads),
        )
    };
    let seq = contracted(1);
    let par = contracted(4);
    assert_reports_identical("C2/error-contract", &seq, &par);
    let stop = |r: &[BatchReport]| r.last().and_then(|r| r.contract.as_ref()?.stop);
    assert_eq!(stop(&seq), stop(&par), "stopping reason must agree");

    // Stratified + contract together.
    let both = |threads| {
        run_with(
            &catalog,
            "SELECT geo, AVG(play_time) FROM sessions GROUP BY geo ERROR 5% CONFIDENCE 95%",
            base.clone()
                .with_stratify_column("geo")
                .with_threads(threads),
        )
    };
    assert_reports_identical("C2/stratified+contract", &both(1), &both(4));
}

#[test]
fn tpch_queries_thread_invariant() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "lineitem_denorm",
            Arc::new(TpchGenerator::default().generate(6000)),
        )
        .unwrap();
    check(&catalog, "Q11", tpch::Q11);
    check(&catalog, "Q17", tpch::Q17);
    check(&catalog, "Q18", tpch::Q18);
    check(&catalog, "Q20", tpch::Q20);
}

/// Batches of several chunks, so `threads = 2` weighs and classifies the
/// chunks on two workers, and C2's two inner blocks fold concurrently,
/// while `threads = 1` runs all of it inline. Each chunk's tuples reach
/// each group as one run, and the runs must add up to the same bits
/// whichever worker prepared their chunk. Q17 is the many-group,
/// short-run shape (a few tuples per part and chunk); C2 the scalar nested
/// one (whole chunks as single runs, STDDEV's three value streams).
#[test]
fn multi_chunk_batches_thread_invariant() {
    let tpch_rows = TpchGenerator::default().generate(9000);
    let conviva_rows = ConvivaGenerator::default().generate(9000);
    for (name, sql, table_name, table) in [
        ("Q17", tpch::Q17, "lineitem_denorm", tpch_rows),
        ("C2", conviva::C2, "sessions", conviva_rows),
    ] {
        let mut catalog = Catalog::new();
        catalog.register(table_name, Arc::new(table)).unwrap();
        // 3 batches of 3000 rows: three 1024-candidate chunks each.
        let config = |threads| OnlineConfig::for_tests(3).with_threads(threads);
        let seq = run_with(&catalog, sql, config(1));
        let par = run_with(&catalog, sql, config(2));
        assert_reports_identical(name, &seq, &par);
    }
}
