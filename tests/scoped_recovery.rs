//! Scoped recovery: after an envelope violation, TPC-H Q20 replays only the
//! `suppkey` groups its violated `(partkey, suppkey)` entries reach, not
//! every seen tuple. Q20's root groups by `suppkey` and compares against a
//! per-`(partkey, suppkey)` inner SUM, so a recovery's few violated keys
//! touch a few of its groups.
//!
//! Counted through `recover::recover`'s own `gola_obs` counters. One test
//! function only: the registry is process-global.

use std::sync::Arc;

use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{tpch, TpchGenerator};

#[test]
fn q20_recoveries_replay_only_the_groups_violated_keys_reach() {
    let (rows, batches) = (12_000, 12);
    let generator = TpchGenerator {
        num_parts: 100,
        ..Default::default()
    };
    let mut catalog = Catalog::new();
    catalog
        .register("lineitem_denorm", Arc::new(generator.generate(rows)))
        .unwrap();
    let scoped = obs::counter("recover.scoped");
    let full = obs::counter("recover.full");
    let keys = obs::counter("recover.violated_keys");
    let replayed = obs::counter("recover.replayed_tuples");
    let mut counts = Vec::new();
    for threads in [1, 2] {
        obs::set_enabled(true);
        obs::reset();
        let config = OnlineConfig::for_tests(batches)
            .with_trials(32)
            .with_threads(threads);
        let session = OnlineSession::new(catalog.clone(), config);
        let stream = session.execute_online(tpch::Q20).expect("query compiles");
        // What a full replay of every recovery would re-ingest: all the
        // rows seen through its batch, `Σ (upto + 1) · batch rows`.
        let mut seen_at_recoveries = 0;
        let mut recoveries = 0;
        for report in stream {
            let report = report.expect("batch succeeds");
            let now = scoped.get() + full.get();
            seen_at_recoveries += (now - recoveries) * report.rows_seen as u64;
            recoveries = now;
        }
        obs::set_enabled(false);
        assert!(scoped.get() > 0, "threads={threads}: no scoped recovery");
        assert!(
            keys.get() >= recoveries,
            "threads={threads}: a recovery without a key"
        );
        assert!(
            replayed.get() * 4 <= seen_at_recoveries,
            "threads={threads}: {} of {seen_at_recoveries} seen tuples replayed",
            replayed.get()
        );
        counts.push((scoped.get(), full.get(), keys.get(), replayed.get()));
    }
    assert_eq!(counts[0], counts[1], "thread count changed the work");
}
