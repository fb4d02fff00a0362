//! Bootstrap weights are generated once per tuple and step, however many
//! lineage blocks fold the tuple: C2's three streaming blocks (AVG and
//! STDDEV over every session, and the root over the slow ones) read one
//! shared matrix, and a tuple entering an uncertain set copies its row
//! instead of regenerating it.
//!
//! Counted through the weight kernel's own `gola_obs` instruments. The
//! replica work — `fold_run` calls, the tuples they fold, and the replica
//! values publish and report finalize — is a count too, so it is the same
//! at every thread count. On two threads every batch after the first is
//! gathered and weighed ahead, while the step before it runs; that moves
//! no weight cell, it only moves where the cells are filled. A query whose
//! every block filters prefetches nothing. Sessions of one `QueryService`
//! share its weight store, so across them the kernel generates each tuple's
//! weights once. One test function only: the registry is process-global.

use std::sync::Arc;

use g_ola::core::sched::{QueryService, ServiceConfig};
use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, ConvivaGenerator};
use gola_conformance::assert_reports_identical;

/// A query whose only block has a certain filter: no block folds every
/// row, so no weight is generated ahead.
const FILTERED: &str =
    "SELECT geo, AVG(play_time) FROM sessions WHERE buffer_time > 5 GROUP BY geo";

#[test]
fn c2_generates_each_tuples_weights_once() {
    let (rows, batches, trials) = (6000u64, 8u64, 32u64);
    let mut catalog = Catalog::new();
    let table = ConvivaGenerator::default().generate(rows as usize);
    catalog.register("sessions", Arc::new(table)).unwrap();
    let cells = obs::counter("bootstrap.weight_cells");
    let calls = obs::duration_histogram("bootstrap.weights_seconds");
    let prefetched = obs::counter("core.prefetch.weight_cells");
    let stored = obs::counter("core.weights.stored_cells");
    let reused = obs::counter("core.weights.reused_cells");
    let work = ["fold.runs", "fold.run_tuples", "publish.replica_finalizes"].map(obs::counter);
    let mut at_one_thread = None;
    let mut filtered_at_one_thread = None;
    let mut solo_c2 = None;
    for threads in [1, 2] {
        let run = |sql| {
            obs::set_enabled(true);
            obs::reset();
            let config = OnlineConfig::for_tests(batches as usize)
                .with_trials(trials as u32)
                .with_threads(threads);
            let session = OnlineSession::new(catalog.clone(), config);
            let stream = session.execute_online(sql).expect("query compiles");
            let reports: Vec<_> = stream.map(|r| r.expect("batch succeeds")).collect();
            obs::set_enabled(false);
            assert_eq!(reports.len() as u64, batches);
            assert_eq!(
                reports.iter().map(|r| r.recomputations).max(),
                Some(0),
                "a replayed batch regenerates its weights; pick a run without one"
            );
            reports
        };
        let c2 = run(conviva::C2);
        solo_c2.get_or_insert(c2);
        // Every session is folded by the two scalar blocks, so every
        // tuple's weights are needed — and generated exactly once.
        assert_eq!(cells.get(), rows * trials, "threads={threads}");
        // 750-row batches fit one kernel call each.
        assert_eq!(calls.count(), batches, "threads={threads}");
        // A session outside a service has an empty store.
        assert_eq!((stored.get(), reused.get()), (0, 0), "threads={threads}");
        // Batch 0 fills its own weights; on two threads every later batch
        // is filled ahead, on one thread none is.
        let ahead = if threads == 1 { 0 } else { batches - 1 };
        let per_batch = rows / batches;
        assert_eq!(
            prefetched.get(),
            ahead * per_batch * trials,
            "threads={threads}"
        );
        let counts = work.clone().map(|c| c.get());
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
        assert_eq!(
            *at_one_thread.get_or_insert(counts),
            counts,
            "threads={threads}"
        );

        let _ = run(FILTERED);
        let filtered = cells.get();
        assert!(filtered > 0 && filtered < rows * trials, "{filtered}");
        assert_eq!(prefetched.get(), 0, "threads={threads}");
        assert_eq!(
            *filtered_at_one_thread.get_or_insert(filtered),
            filtered,
            "threads={threads}"
        );
    }

    // Three C2 sessions side by side in one service: the kernel generates
    // the table's blocks once, into the store, and every cell the sessions
    // read is copied out of it.
    obs::set_enabled(true);
    obs::reset();
    let base = OnlineConfig::for_tests(batches as usize).with_trials(trials as u32);
    let config = ServiceConfig {
        max_active: 3,
        queue_capacity: 3,
        threads: 2,
        base,
    };
    let service = QueryService::new(catalog.clone(), config);
    let handles: Vec<_> = (0..3)
        .map(|_| service.submit(conviva::C2).expect("C2 admits"))
        .collect();
    let streams: Vec<Vec<_>> = (handles.into_iter())
        .map(|handle| handle.map(|r| r.expect("batch succeeds")).collect())
        .collect();
    drop(service);
    obs::set_enabled(false);
    assert_eq!(cells.get(), rows * trials);
    assert_eq!(stored.get(), rows * trials);
    assert_eq!(reused.get(), 3 * rows * trials);
    let bytes = obs::gauge("core.mem.weight_store").get();
    assert_eq!(bytes, (rows * trials / 2) as f64);
    let solo_c2 = solo_c2.expect("C2 ran solo");
    for (i, stream) in streams.iter().enumerate() {
        assert_reports_identical(&format!("C2 session {i} of 3"), &solo_c2, stream);
    }
}
