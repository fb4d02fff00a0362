//! Table-driven SQL semantics tests: tricky NULL / three-valued-logic /
//! expression cases checked against hand-computed expectations on both the
//! exact engine and the online executor (which must agree).

use std::sync::Arc;

use g_ola::common::{DataType, Row, Schema, Value};
use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::storage::{Catalog, Table};

/// A small table with NULLs sprinkled through every column.
///   k    x      y     s
///   1    1.0    10    "a"
///   1    NULL   20    "b"
///   2    3.0    NULL  "a"
///   2    4.0    40    NULL
///   3    -5.0   50    "c"
fn catalog() -> Catalog {
    let schema = Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("x", DataType::Float),
        ("y", DataType::Int),
        ("s", DataType::Str),
    ]));
    let rows = vec![
        Row::new(vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(10),
            Value::str("a"),
        ]),
        Row::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Int(20),
            Value::str("b"),
        ]),
        Row::new(vec![
            Value::Int(2),
            Value::Float(3.0),
            Value::Null,
            Value::str("a"),
        ]),
        Row::new(vec![
            Value::Int(2),
            Value::Float(4.0),
            Value::Int(40),
            Value::Null,
        ]),
        Row::new(vec![
            Value::Int(3),
            Value::Float(-5.0),
            Value::Int(50),
            Value::str("c"),
        ]),
    ];
    let mut c = Catalog::new();
    c.register("t", Arc::new(Table::try_new(schema, rows).unwrap()))
        .unwrap();
    c
}

/// Run on the exact engine, assert single-row expectations, then run online
/// to completion and assert it agrees.
fn check(sql: &str, expected: &[Value]) {
    let session = OnlineSession::new(catalog(), OnlineConfig::for_tests(2));
    let exact = session.execute_exact(sql).unwrap();
    assert_eq!(exact.num_rows(), 1, "{sql}");
    let exact_row = exact.row(0);
    for (i, want) in expected.iter().enumerate() {
        let got = exact_row.get(i);
        match (got.as_f64(), want.as_f64()) {
            (Some(g), Some(w)) => {
                assert!((g - w).abs() < 1e-9, "{sql} col {i}: {got} vs {want}")
            }
            _ => assert_eq!(got, want, "{sql} col {i}"),
        }
    }
    let online = session
        .execute_online(sql)
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(online.table.num_rows(), 1, "{sql} online");
    let online_row = online.table.row(0);
    for (i, want) in expected.iter().enumerate() {
        let got = online_row.get(i);
        match (got.as_f64(), want.as_f64()) {
            (Some(g), Some(w)) => {
                assert!(
                    (g - w).abs() < 1e-9,
                    "{sql} online col {i}: {got} vs {want}"
                )
            }
            _ => assert_eq!(got, want, "{sql} online col {i}"),
        }
    }
}

#[test]
fn aggregates_skip_nulls() {
    // AVG(x) over {1, 3, 4, -5} (one NULL skipped).
    check(
        "SELECT AVG(x), COUNT(x), COUNT(*) FROM t",
        &[Value::Float(0.75), Value::Float(4.0), Value::Float(5.0)],
    );
    // SUM(y) over {10, 20, 40, 50}.
    check(
        "SELECT SUM(y), MIN(y), MAX(y) FROM t",
        &[Value::Float(120.0), Value::Int(10), Value::Int(50)],
    );
}

#[test]
fn null_comparisons_filter() {
    // x > 0: NULL x fails the filter.
    check("SELECT COUNT(*) FROM t WHERE x > 0", &[Value::Float(3.0)]);
    // NOT (x > 0): NULL still fails (NOT NULL = NULL).
    check(
        "SELECT COUNT(*) FROM t WHERE NOT x > 0",
        &[Value::Float(1.0)],
    );
    // IS NULL / IS NOT NULL.
    check(
        "SELECT COUNT(*) FROM t WHERE x IS NULL",
        &[Value::Float(1.0)],
    );
    check(
        "SELECT COUNT(*) FROM t WHERE s IS NOT NULL",
        &[Value::Float(4.0)],
    );
}

#[test]
fn three_valued_and_or() {
    // (x > 0 OR y > 15): row2 (x NULL, y 20) and row5 (x -5, y 50) pass
    // via OR's TRUE arm — every row qualifies.
    check(
        "SELECT COUNT(*) FROM t WHERE x > 0 OR y > 15",
        &[Value::Float(5.0)],
    );
    // (x > 0 AND y > 15): row2 fails (NULL AND TRUE = NULL).
    check(
        "SELECT COUNT(*) FROM t WHERE x > 0 AND y > 15",
        &[Value::Float(1.0)],
    );
}

#[test]
fn in_list_null_semantics() {
    check(
        "SELECT COUNT(*) FROM t WHERE s IN ('a', 'c')",
        &[Value::Float(3.0)],
    );
    // NOT IN with a NULL in a row's s: NULL never passes.
    check(
        "SELECT COUNT(*) FROM t WHERE s NOT IN ('a')",
        &[Value::Float(2.0)],
    );
    check(
        "SELECT COUNT(*) FROM t WHERE k IN (1, 3)",
        &[Value::Float(3.0)],
    );
}

#[test]
fn between_and_case() {
    check(
        "SELECT COUNT(*) FROM t WHERE y BETWEEN 15 AND 45",
        &[Value::Float(2.0)],
    );
    // CASE with NULL handling: coalesce-style bucketing.
    check(
        "SELECT SUM(CASE WHEN x IS NULL THEN 0 ELSE 1 END) FROM t",
        &[Value::Float(4.0)],
    );
    check(
        "SELECT AVG(CASE WHEN y > 25 THEN 1.0 ELSE 0.0 END) FROM t",
        &[Value::Float(0.4)],
    );
}

#[test]
fn arithmetic_null_propagation_and_division() {
    // x + y is NULL for rows 2 and 3 → AVG over {11, 44, 45}.
    check("SELECT AVG(x + y) FROM t", &[Value::Float(100.0 / 3.0)]);
    // Division by zero yields NULL (skipped by aggregates): only rows 4
    // (40/1) and 5 (50/2) produce values.
    check("SELECT COUNT(y / (k - 1)) FROM t", &[Value::Float(2.0)]);
}

#[test]
fn scalar_functions_compose() {
    check(
        "SELECT SUM(abs(x)), MAX(greatest(x, 2.0)) FROM t",
        &[Value::Float(13.0), Value::Float(4.0)],
    );
    check(
        "SELECT COUNT(*) FROM t WHERE coalesce(s, 'missing') = 'missing'",
        &[Value::Float(1.0)],
    );
    check(
        "SELECT MIN(if(x < 0, 'neg', 'pos')) FROM t WHERE x IS NOT NULL",
        &[Value::str("neg")],
    );
}

#[test]
fn cast_semantics() {
    check(
        "SELECT SUM(CAST(s = 'a' AS INT)) FROM t WHERE s IS NOT NULL",
        &[Value::Float(2.0)],
    );
    check(
        "SELECT MAX(CAST(y AS FLOAT) / 2) FROM t",
        &[Value::Float(25.0)],
    );
}

#[test]
fn group_by_nulls_form_their_own_group() {
    let session = OnlineSession::new(catalog(), OnlineConfig::for_tests(2));
    let exact = session
        .execute_exact("SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s")
        .unwrap();
    // Groups: NULL, a, b, c — NULL sorts first.
    assert_eq!(exact.num_rows(), 4);
    assert!(exact.rows()[0].get(0).is_null());
    assert_eq!(exact.rows()[0].get(1), &Value::Float(1.0));
    assert_eq!(exact.rows()[1].get(0), &Value::str("a"));
    assert_eq!(exact.rows()[1].get(1), &Value::Float(2.0));
    let online = session
        .execute_online("SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s")
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(online.table.num_rows(), 4);
    assert!(online.table.rows()[0].get(0).is_null());
}

#[test]
fn nested_aggregate_with_nulls() {
    // Inner AVG(x) = 0.75; outer counts rows with x > 0.75 → {1? no (1.0 > 0.75 yes!), 3, 4} → 3.
    check(
        "SELECT COUNT(*) FROM t WHERE x > (SELECT AVG(x) FROM t)",
        &[Value::Float(3.0)],
    );
    // NULL x never passes even against an uncertain inner value.
    check(
        "SELECT COUNT(*) FROM t WHERE x < (SELECT AVG(x) FROM t)",
        &[Value::Float(1.0)],
    );
}

#[test]
fn empty_groups_and_empty_tables() {
    check(
        "SELECT COUNT(*), SUM(x), AVG(x) FROM t WHERE k > 99",
        &[Value::Float(0.0), Value::Null, Value::Null],
    );
}

#[test]
fn order_by_with_nulls_first() {
    let session = OnlineSession::new(catalog(), OnlineConfig::for_tests(2));
    let exact = session.execute_exact("SELECT x FROM t ORDER BY x").unwrap();
    assert!(exact.rows()[0].get(0).is_null());
    assert_eq!(exact.rows()[1].get(0), &Value::Float(-5.0));
    assert_eq!(exact.rows()[4].get(0), &Value::Float(4.0));
}

/// Groups of non-finite and extreme values, one per `g`:
///   1  x ∈ {2.0, +∞}          4  x = 1e308, 80 times (the sums overflow)
///   2  x ∈ {3.0, NaN}         5  n ∈ {i64::MIN, i64::MAX, −1, 0, 1, 2^53 + 1}
///   3  x ∈ {+∞, −∞}
/// (`n` is 7 outside group 5, `x` is 0.5 in group 5.)
fn non_finite_catalog() -> Catalog {
    let schema = Arc::new(Schema::from_pairs(&[
        ("g", DataType::Int),
        ("x", DataType::Float),
        ("n", DataType::Int),
    ]));
    let mut groups: Vec<(i64, f64, i64)> = vec![
        (1, 2.0, 7),
        (1, f64::INFINITY, 7),
        (2, 3.0, 7),
        (2, f64::NAN, 7),
        (3, f64::INFINITY, 7),
        (3, f64::NEG_INFINITY, 7),
    ];
    groups.extend((0..80).map(|_| (4, 1e308, 7)));
    let extremes = [i64::MIN, i64::MAX, -1, 0, 1, (1 << 53) + 1];
    groups.extend(extremes.iter().map(|&n| (5, 0.5, n)));
    // Interleave the groups so every mini-batch mixes them.
    let rows: Vec<Row> = (0..groups.len())
        .map(|i| groups[(i * 37) % groups.len()])
        .map(|(g, x, n)| Row::new(vec![Value::Int(g), Value::Float(x), Value::Int(n)]))
        .collect();
    let mut c = Catalog::new();
    c.register("nf", Arc::new(Table::try_new(schema, rows).unwrap()))
        .unwrap();
    c
}

/// SUM/AVG of a group holding `+∞` is `+∞`, not NaN; VAR_POP/STDDEV of a
/// group holding NaN or ±∞ (or whose moments overflow) is NaN, not 0.0 —
/// as IEEE and PostgreSQL have it. The online final report bit-matches the
/// exact engine at one and two threads.
#[test]
fn non_finite_groups_aggregate_as_ieee() {
    let sql = "SELECT g, SUM(x), AVG(x), VAR_POP(x), STDDEV(x), MIN(x), MAX(x), COUNT(x), \
               SUM(n), AVG(n), VAR_POP(n), STDDEV(n), MIN(n), MAX(n), COUNT(n) \
               FROM nf GROUP BY g ORDER BY g";
    let catalog = non_finite_catalog();
    let session = OnlineSession::new(catalog.clone(), OnlineConfig::for_tests(4));
    let exact = session.execute_exact(sql).unwrap();
    assert_eq!(exact.num_rows(), 5);
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    // SUM, AVG, VAR_POP, STDDEV, MIN, MAX, COUNT of x, per group.
    let want_x: [[f64; 7]; 5] = [
        [inf, inf, nan, nan, 2.0, inf, 2.0],
        [nan, nan, nan, nan, 3.0, nan, 2.0],
        [nan, nan, nan, nan, -inf, inf, 2.0],
        [inf, inf, nan, nan, 1e308, 1e308, 80.0],
        [3.0, 0.5, 0.0, 0.0, 0.5, 0.5, 6.0],
    ];
    for (g, want) in want_x.iter().enumerate() {
        let row = exact.row(g);
        assert_eq!(row.get(0), &Value::Int(g as i64 + 1));
        for (j, &w) in want.iter().enumerate() {
            let got = row.get(1 + j).as_f64().unwrap();
            let same = if w.is_nan() { got.is_nan() } else { got == w };
            assert!(same, "group {} x column {j}: {got} vs {w}", g + 1);
        }
    }
    // The integer extremes sum exactly as doubles: −2^63 + 2^63 − 1 + 0 +
    // 1 + 2^53 (2^53 + 1 rounds to 2^53).
    let ext = exact.row(4);
    let two53 = 9_007_199_254_740_992.0;
    assert_eq!(ext.get(8), &Value::Float(two53));
    assert_eq!(ext.get(9), &Value::Float(two53 / 6.0));
    let var = ext.get(10).as_f64().unwrap();
    let mean = two53 / 6.0;
    let want_var = (2.0 * 2f64.powi(126) + 2.0 + two53 * two53) / 6.0 - mean * mean;
    assert!(
        (var - want_var).abs() <= want_var * 1e-15,
        "{var} vs {want_var}"
    );
    assert_eq!(ext.get(11), &Value::Float(var.sqrt()));
    assert_eq!(ext.get(12), &Value::Int(i64::MIN));
    assert_eq!(ext.get(13), &Value::Int(i64::MAX));
    assert_eq!(ext.get(14), &Value::Float(6.0));

    for threads in [1, 2] {
        let config = OnlineConfig::for_tests(4).with_threads(threads);
        let online = OnlineSession::new(catalog.clone(), config)
            .execute_online(sql)
            .unwrap()
            .run_to_completion()
            .unwrap();
        gola_conformance::oracle::tables_bit_equal(&online.table, &exact)
            .unwrap_or_else(|e| panic!("threads {threads}: {e}"));
    }
}
