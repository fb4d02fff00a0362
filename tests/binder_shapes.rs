//! Aggregate-row binding shapes, table-driven: expressions over group keys
//! in SELECT and HAVING, BETWEEN over a subquery in HAVING, a correlated
//! subquery in HAVING keyed by a group key, and a subquery in `JOIN … ON`.
//!
//! Each query must bind, plan the expected number of subqueries, and run
//! online to completion with a final answer bit-equal to the exact
//! engine's at threads 1 and 2 (`gola_conformance::run_case` over the
//! Conviva table; the JOIN case needs the MyTube dimension table).

use std::sync::Arc;

use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::storage::Catalog;
use g_ola::workloads::MyTubeGenerator;
use gola_conformance::{
    assert_reports_identical, run_case, tables_bit_equal, Fault, OracleConfig, SchemaClass,
};

/// `(name, sql, leading group-key output columns, planned subqueries)`.
const CASES: &[(&str, &str, usize, usize)] = &[
    (
        "select expression over a group key",
        "SELECT ad_id + 1 AS k1, COUNT(*) AS n FROM sessions GROUP BY ad_id",
        1,
        0,
    ),
    (
        "having expression over a group key",
        "SELECT ad_id, COUNT(*) AS n FROM sessions GROUP BY ad_id HAVING ad_id + 1 > 3",
        1,
        0,
    ),
    (
        "select expression over a group expression",
        "SELECT ad_id * 2 + 1 AS k, COUNT(*) AS n FROM sessions GROUP BY ad_id * 2",
        1,
        0,
    ),
    (
        "having between over a subquery",
        "SELECT ad_id, SUM(play_time) AS s FROM sessions GROUP BY ad_id \
         HAVING (SELECT AVG(play_time) FROM sessions) BETWEEN 1 AND SUM(play_time)",
        1,
        1,
    ),
    (
        "correlated subquery in having keyed by a group key",
        "SELECT ad_id, SUM(play_time) AS s FROM sessions s GROUP BY ad_id \
         HAVING SUM(play_time) > (SELECT AVG(s2.play_time) FROM sessions s2 \
                                  WHERE s2.ad_id = s.ad_id)",
        1,
        1,
    ),
    (
        // Each group against its own even-numbered half: about half pass.
        "selective correlated subquery in having",
        "SELECT ad_id, AVG(play_time) AS p FROM sessions s GROUP BY ad_id \
         HAVING AVG(play_time) > (SELECT AVG(s2.play_time) FROM sessions s2 \
                                  WHERE s2.ad_id = s.ad_id AND s2.session_id % 2 = 0)",
        1,
        1,
    ),
];

#[test]
fn aggregate_row_shapes_bind_and_match_the_exact_engine() {
    let class = SchemaClass::Conviva;
    let data = Arc::new(class.generate(400, 0x5EED_DA7A));
    let mut catalog = Catalog::new();
    catalog
        .register(class.table_name(), Arc::clone(&data))
        .unwrap();
    let cfg = OracleConfig {
        threads: 2,
        ..OracleConfig::default()
    };
    for &(name, sql, key_cols, subqueries) in CASES {
        let graph = g_ola::sql::compile(sql, &catalog)
            .unwrap_or_else(|e| panic!("{name}: failed to bind: {e}\n  {sql}"));
        assert_eq!(
            graph.subqueries.len(),
            subqueries,
            "{name}: planned subqueries\n{}",
            graph.explain()
        );
        let stats = run_case(class, &data, sql, key_cols, &cfg, Fault::None)
            .unwrap_or_else(|f| panic!("{name}: {f}\n  {sql}"));
        assert!(stats.result_rows > 0, "{name}: empty answer\n  {sql}");
    }
}

#[test]
fn subquery_in_join_on_binds_and_matches_the_exact_engine() {
    let sql = "SELECT a.category, COUNT(*) AS n, SUM(s.ad_revenue) AS revenue \
               FROM mytube_sessions s JOIN ads a ON s.ad_id = a.ad_id \
               AND s.buffer_time > (SELECT AVG(buffer_time) FROM mytube_sessions) \
               GROUP BY a.category ORDER BY a.category";
    let catalog = MyTubeGenerator::default().catalog(600);
    let graph = g_ola::sql::compile(sql, &catalog).expect("ON subquery binds");
    assert_eq!(graph.subqueries.len(), 1, "{}", graph.explain());

    let config = |threads| OnlineConfig::for_tests(6).with_threads(threads);
    let exact = OnlineSession::new(catalog.clone(), config(1))
        .execute_exact(sql)
        .unwrap();
    let run = |threads| {
        OnlineSession::new(catalog.clone(), config(threads))
            .execute_online(sql)
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    };
    let (solo, par) = (run(1), run(2));
    assert_reports_identical("threads 1 vs 2", &solo, &par);
    let last = solo.last().expect("at least one report");
    assert!(last.is_final() && exact.num_rows() > 0);
    tables_bit_equal(&last.table, &exact).unwrap();
}
