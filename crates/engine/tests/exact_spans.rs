//! The exact engine's per-layer spans and its scan counter.
//!
//! One test function: the metrics registry is process-global and test
//! functions in one binary run concurrently.

use std::sync::Arc;

use gola_storage::{Catalog, Table};
use gola_workloads::{conviva, ConvivaGenerator, MyTubeGenerator};

/// Run `sql` exactly with the registry on; return the result and the
/// registry's snapshot, then clear the registry.
fn traced(catalog: &Catalog, sql: &str) -> (Table, String) {
    let graph = gola_sql::compile(sql, catalog).unwrap();
    let out = gola_engine::BatchEngine::new(catalog)
        .execute(&graph)
        .unwrap();
    let snapshot = gola_obs::snapshot_json(false);
    gola_obs::reset();
    (out, snapshot)
}

/// `exact.<layer>` ran `count` times, each time as a child of `exact.query`.
fn assert_layer(snapshot: &str, layer: &str, count: usize) {
    let span = format!(
        "\"exact.{layer}\": {{\"count\": {count}, \"parents\": {{\"exact.query\": {count}}}}}"
    );
    assert!(snapshot.contains(&span), "want {span} in {snapshot}");
}

#[test]
fn layers_trace_under_the_query_span_and_scans_count_rows() {
    const N: usize = 5000;
    let mut catalog = Catalog::new();
    let sessions = Arc::new(ConvivaGenerator::default().generate(N));
    catalog.register("sessions", sessions).unwrap();
    gola_obs::set_enabled(true);
    gola_obs::reset();

    let (out, snapshot) = traced(&catalog, conviva::C2);
    // Three scans of `sessions` (AVG, STDDEV and the outer query), each
    // counted from the table's length.
    assert!(
        snapshot.contains(&format!("\"exact.rows_scanned\": {}", 3 * N)),
        "{snapshot}"
    );
    assert_layer(&snapshot, "scan", 3);
    assert_layer(&snapshot, "aggregate", 3);
    for layer in ["filter", "project", "sort"] {
        assert_layer(&snapshot, layer, 1);
    }
    let rows = format!("\"exact.sort.rows\": {}", out.num_rows());
    assert!(snapshot.contains(&rows), "{snapshot}");

    let mytube = MyTubeGenerator::default().catalog(500);
    let join = "SELECT a.category, COUNT(*) FROM mytube_sessions s \
                JOIN ads a ON s.ad_id = a.ad_id GROUP BY a.category";
    let (_, snapshot) = traced(&mytube, join);
    assert_layer(&snapshot, "join", 1);
    assert!(snapshot.contains("\"exact.join.rows\": 500"), "{snapshot}");
    gola_obs::set_enabled(false);
}
