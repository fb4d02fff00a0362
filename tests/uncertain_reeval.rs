//! The uncertain set is re-evaluated against one RHS vector per
//! (comparison, correlation key), not one per tuple: Q17's root block
//! compares each uncertain lineitem with `0.5 × AVG(quantity)` of its own
//! part, so a call over an uncertain set of thousands of tuples builds at
//! most as many vectors as the set has distinct parts.
//!
//! Counted through `groups::effective_states`' own `gola_obs` counters and
//! its `reeval` span; `publish.flipped_cells` counts the point and trial
//! decisions the delta re-merge applied. One test function only: the
//! registry is process-global.

use std::sync::Arc;

use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{tpch, TpchGenerator};

#[test]
fn q17_builds_one_rhs_vector_per_correlation_key() {
    let (rows, batches, parts) = (12_000, 8, 40u64);
    let generator = TpchGenerator {
        num_parts: parts,
        ..Default::default()
    };
    let mut catalog = Catalog::new();
    catalog
        .register("lineitem_denorm", Arc::new(generator.generate(rows)))
        .unwrap();
    let evals = obs::counter("publish.uncertain_evals");
    let vectors = obs::counter("publish.rhs_vectors");
    let flipped = obs::counter("publish.flipped_cells");
    let mut counts = Vec::new();
    for threads in [1, 2] {
        obs::set_enabled(true);
        obs::reset();
        let config = OnlineConfig::for_tests(batches)
            .with_trials(32)
            .with_threads(threads);
        let session = OnlineSession::new(catalog.clone(), config);
        let stream = session.execute_online(tpch::Q17).expect("query compiles");
        let reports: Vec<_> = stream.map(|r| r.expect("batch succeeds")).collect();
        let snapshot = obs::snapshot_json(false);
        obs::set_enabled(false);
        assert_eq!(reports.len(), batches);
        // Each step calls `effective_states` once for the root block (its
        // report; a recovery replays ingest only) and once for the inner
        // block, which has no uncertain tuples. Only the root's are
        // uncertain, so the step's report counts exactly the set the call
        // re-evaluated.
        let sizes = reports.iter().map(|r| r.uncertain_tuples as u64);
        assert_eq!(evals.get(), sizes.clone().sum::<u64>(), "threads={threads}");
        // A call's set has at most `parts` distinct correlation keys.
        let bound: u64 = sizes.map(|u| u.min(parts)).sum();
        assert!(
            vectors.get() <= bound,
            "threads={threads}: {} vectors for at most {bound} (call, key) pairs",
            vectors.get()
        );
        // Not vacuous: the sets are far larger than their key counts.
        assert!(vectors.get() > 0 && evals.get() >= 10 * bound);
        // Each call runs in a `reeval` span under the stage that made it:
        // the inner block's publish and the root's report, once a step.
        // Its `tuples` field holds the last call's set: the root's.
        let spans = format!(
            "\"reeval\": {{\"count\": {}, \"parents\": {{\"publish\": {batches}, \"report\": {batches}}}}}",
            2 * batches
        );
        assert!(snapshot.contains(&spans), "want {spans} in {snapshot}");
        let last = reports.last().map(|r| r.uncertain_tuples);
        let tuples = format!("\"reeval.tuples\": {}", last.unwrap_or_default());
        assert!(snapshot.contains(&tuples), "want {tuples} in {snapshot}");
        // Every decision applied is a flip, an entry or an exit: at most
        // one per (lane, tuple) a call decided or saw leave.
        let lanes = 1 + 32;
        assert!(
            flipped.get() > 0 && flipped.get() <= 2 * lanes * evals.get(),
            "threads={threads}: {} decisions applied over {} evaluations",
            flipped.get(),
            evals.get()
        );
        counts.push((evals.get(), vectors.get(), flipped.get()));
    }
    assert_eq!(counts[0], counts[1], "thread count changed the work");
}
