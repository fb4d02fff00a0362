//! A scoped recovery gathers only the rows it replays: on TPC-H Q20 the
//! batch rows a scoped recovery gathers equal the seen candidates of its
//! scope — the tuples its replay ingests — where a full recovery gathers
//! every seen row. Read per step from `recover.gathered_rows`,
//! `recover.replayed_tuples` and the `recover` span's fields.
//!
//! One test function only: the registry is process-global.

use std::sync::Arc;

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
    obs::set_enabled(true);
    obs::reset();
    let config = OnlineConfig::for_tests(12).with_trials(32);
    let session = OnlineSession::new(catalog, config);
    let stream = session.execute_online(tpch::Q20).expect("query compiles");
    let (mut before, mut checked) = ((0, 0, 0, 0), 0);
    for report in stream {
        let report = report.expect("batch succeeds");
        let now = (scoped.get(), full.get(), gathered.get(), replayed.get());
        let (rows, tuples) = (now.2 - before.2, now.3 - before.3);
        match (now.0 - before.0, now.1 - before.1) {
            (0, 0) => assert_eq!((rows, tuples), (0, 0), "no recovery, nothing gathered"),
            (1, 0) => {
                assert_eq!(rows, tuples, "batch {}: gathered rows", report.batch_index);
                assert!(rows < report.rows_seen as u64, "a scope of every row");
                assert_eq!(obs::gauge("recover.scope").get(), 1.0);
                assert!(obs::gauge("recover.groups").get() >= 1.0);
                assert_eq!(obs::gauge("recover.gathered").get(), rows as f64);
                checked += 1;
            }
            (0, 1) => {
                assert!(
                    rows >= report.rows_seen as u64,
                    "a full replay gathers it all"
                );
                assert_eq!(obs::gauge("recover.scope").get(), 0.0);
            }
            steps => panic!("one recovery per step at most, saw {steps:?}"),
        }
        before = now;
    }
    obs::set_enabled(false);
    assert!(checked > 0, "no scoped recovery to check");
}
