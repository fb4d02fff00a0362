//! The observability no-perturbation contract.
//!
//! Enabling the metrics registry must not change a single bit of any
//! `BatchReport`, at any thread count: instrumentation is write-only with
//! respect to the computation (`tests/parallel_equivalence.rs` proves the
//! thread-count half of the contract; this test proves the metrics half).
//! On top of that, the registry itself must be deterministic — two
//! identical runs export byte-identical default snapshots, and no
//! wall-clock-derived value appears without the explicit `timings` opt-in.
//!
//! Everything lives in ONE test function: the registry is process-global
//! and `cargo test` runs test functions concurrently, so splitting these
//! assertions up would race on `set_enabled` / `reset`.

use std::sync::Arc;

use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, ConvivaGenerator};
use gola_conformance::assert_reports_identical;

fn run(catalog: &Catalog, sql: &str, threads: usize) -> Vec<BatchReport> {
    let config = OnlineConfig::for_tests(8)
        .with_trials(32)
        .with_threads(threads);
    let session = OnlineSession::new(catalog.clone(), config);
    let exec = session.execute_online(sql).expect("query compiles");
    exec.map(|r| r.expect("batch succeeds")).collect()
}

#[test]
fn observability_is_inert_and_deterministic() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(6000)),
        )
        .unwrap();
    let sql = conviva::SBI;

    // Baselines with the registry off (the process default).
    assert!(!obs::enabled(), "registry must default to off");
    let off1 = run(&catalog, sql, 1);
    let off4 = run(&catalog, sql, 4);

    // Same runs with the registry on, snapshotting after each.
    obs::set_enabled(true);
    let on1 = run(&catalog, sql, 1);
    let snap1 = obs::snapshot_json(false);
    let prom1 = obs::prometheus(false);
    obs::reset();
    let on1_again = run(&catalog, sql, 1);
    let snap1_again = obs::snapshot_json(false);
    obs::reset();
    let on4 = run(&catalog, sql, 4);
    let snap4 = obs::snapshot_json(false);
    let prom4 = obs::prometheus(false);
    obs::set_enabled(false);

    // 1. Inert: metrics on vs off, bit-identical at both thread counts.
    assert_reports_identical("threads=1 obs on vs off", &off1, &on1);
    assert_reports_identical("threads=4 obs on vs off", &off4, &on4);
    assert_reports_identical("threads=1 vs threads=4", &off1, &off4);

    // 2. Deterministic registry: identical runs, byte-identical snapshots.
    assert_reports_identical("threads=1 repeat", &on1, &on1_again);
    assert_eq!(
        snap1, snap1_again,
        "two identical runs must export identical default snapshots"
    );

    // 3. No wall-clock values without the timings opt-in. The only
    //    histograms the engine registers are duration histograms, so a
    //    default snapshot must contain no `sum` at all, no span seconds,
    //    and no timestamp.
    for snap in [&snap1, &snap4] {
        assert!(!snap.contains("generated_unix_ms"), "timestamp leaked");
        assert!(!snap.contains("\"sum\""), "duration sum leaked: {snap}");
        assert!(!snap.contains("total_seconds"), "span seconds leaked");
    }
    assert!(!prom4.contains("_seconds_total"), "span seconds leaked");
    assert!(
        !prom4.contains("queue_wait_seconds_sum"),
        "duration sum leaked"
    );

    // 4. The expected instruments actually registered and counted.
    assert!(snap1.contains("\"report.batches\": 8"), "snapshot: {snap1}");
    for name in ["classify", "fold", "publish", "report", "ingest", "join"] {
        assert!(
            snap1.contains(&format!("\"{name}\"")),
            "span '{name}' missing from snapshot: {snap1}"
        );
    }
    // Parent links are schedule-independent: classify closes under ingest
    // even when it runs on a pool worker thread.
    assert!(prom4.contains("gola_span_classify_parent_total{parent=\"ingest\"}"));
    assert!(prom1.contains("gola_report_batches_total 8"));
    // The threads=4 run exercises the worker pool; threads=1 takes the
    // uninstrumented sequential fast path.
    assert!(snap4.contains("\"pool.jobs\""), "snapshot: {snap4}");
    assert!(
        !snap1.contains("\"pool.jobs\""),
        "threads=1 must not touch pool instruments: {snap1}"
    );
}
