//! A scoped recovery gathers only the rows it decides again: on TPC-H Q20
//! and Q17 the batch rows a scoped recovery gathers equal the candidates
//! it ingests again, fewer than the rows seen, where a full recovery
//! gathers every seen row. Q17's root has no GROUP BY; its folds retract,
//! so none of its recoveries is full. Read per step from
//! `recover.gathered_rows`, `recover.replayed_tuples` and the `recover`
//! span's fields. Q17's seen index holds 12 bytes per seen row, a word per
//! batch, a bit per row and its one group's folded count, which the gauge
//! `core.mem.seen_index` shows.
//!
//! One test function only: the registry is process-global.

use std::sync::Arc;

use g_ola::bootstrap::EpsilonPolicy;
use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{tpch, TpchGenerator};

#[test]
fn a_scoped_recovery_gathers_exactly_its_in_scope_candidates() {
    let generator = TpchGenerator {
        num_parts: 100,
        ..Default::default()
    };
    let mut catalog = Catalog::new();
    catalog
        .register("lineitem_denorm", Arc::new(generator.generate(12_000)))
        .unwrap();
    let scoped = obs::counter("recover.scoped");
    let full = obs::counter("recover.full");
    let gathered = obs::counter("recover.gathered_rows");
    let replayed = obs::counter("recover.replayed_tuples");
    let seen_index = obs::gauge("core.mem.seen_index");
    obs::set_enabled(true);
    // Q17 recovers at the default slack too, but seldom: 0.5σ makes it
    // recover on most batches.
    let tight = EpsilonPolicy::StdDevScaled(0.5);
    for (name, sql, epsilon) in [("Q20", tpch::Q20, None), ("Q17", tpch::Q17, Some(tight))] {
        obs::reset();
        let mut config = OnlineConfig::for_tests(12).with_trials(32);
        if let Some(epsilon) = epsilon {
            config = config.with_epsilon(epsilon);
        }
        let session = OnlineSession::new(catalog.clone(), config);
        let stream = session.execute_online(sql).expect("query compiles");
        let (mut before, mut checked) = ((0, 0, 0, 0), 0);
        for report in stream {
            let report = report.expect("batch succeeds");
            let batch = report.batch_index;
            let now = (scoped.get(), full.get(), gathered.get(), replayed.get());
            let (rows, tuples) = (now.2 - before.2, now.3 - before.3);
            match (now.0 - before.0, now.1 - before.1) {
                (0, 0) => assert_eq!((rows, tuples), (0, 0), "no recovery, nothing gathered"),
                (1, 0) => {
                    assert_eq!(rows, tuples, "{name} batch {batch}: gathered rows");
                    assert!(
                        rows < report.rows_seen as u64,
                        "{name}: a scope of every row"
                    );
                    assert_eq!(obs::gauge("recover.scope").get(), 1.0);
                    assert!(obs::gauge("recover.groups").get() >= 1.0);
                    assert_eq!(obs::gauge("recover.gathered").get(), rows as f64);
                    checked += 1;
                }
                (0, 1) => {
                    assert_ne!(name, "Q17", "batch {batch}: a full Q17 recovery");
                    assert!(
                        rows >= report.rows_seen as u64,
                        "a full replay gathers it all"
                    );
                    assert_eq!(obs::gauge("recover.scope").get(), 0.0);
                }
                steps => panic!("one recovery per step at most, saw {steps:?}"),
            }
            if name == "Q17" {
                let rows = report.rows_seen;
                let bytes = 12 * rows + 4 + 8 * (batch + 1 + rows.div_ceil(64));
                assert_eq!(seen_index.get(), bytes as f64, "batch {batch}");
            }
            before = now;
        }
        assert!(checked > 0, "{name}: no scoped recovery to check");
    }
    obs::set_enabled(false);
}
