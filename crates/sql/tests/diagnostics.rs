//! Negative-path coverage for the SQL front end: malformed queries must
//! fail with *stable, specific* diagnostics at the right layer.
//!
//! Each assertion pins the user-visible error text (via substring, so
//! positions and quoting may evolve without churn) and the layer prefix
//! (`lex error` / `parse error` / `bind error`), so an accidental change
//! to a diagnostic — or a malformed query suddenly compiling — fails
//! loudly here instead of surfacing as a confusing message downstream.

use std::sync::Arc;

use gola_common::{DataType, Error, Row, Schema, Value};
use gola_sql::{compile, lexer::tokenize};
use gola_storage::{Catalog, Table};

fn catalog() -> Catalog {
    let schema = Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("x", DataType::Float),
        ("s", DataType::Str),
    ]));
    let row = Row::new(vec![Value::Int(1), Value::Float(1.0), Value::str("a")]);
    let mut c = Catalog::new();
    c.register(
        "t",
        Arc::new(Table::new_unchecked(Arc::clone(&schema), vec![row.clone()])),
    )
    .unwrap();
    c.register("u", Arc::new(Table::new_unchecked(schema, vec![row])))
        .unwrap();
    c
}

/// Compile `sql` and return the rendered error (panics if it compiles).
fn diag(sql: &str) -> String {
    match compile(sql, &catalog()) {
        Ok(_) => panic!("expected failure, but compiled: {sql}"),
        Err(e) => e.to_string(),
    }
}

#[track_caller]
fn assert_diag(sql: &str, layer: &str, needle: &str) {
    let msg = diag(sql);
    assert!(
        msg.starts_with(layer),
        "wrong layer for {sql:?}: got {msg:?}, want prefix {layer:?}"
    );
    assert!(
        msg.contains(needle),
        "unstable diagnostic for {sql:?}: got {msg:?}, want substring {needle:?}"
    );
}

// ---------------------------------------------------------------- lexer

#[test]
fn lexer_unterminated_string() {
    assert_diag(
        "SELECT COUNT(*) FROM t WHERE s = 'oops",
        "lex error",
        "unterminated '-quoted literal",
    );
    assert_diag(
        "SELECT COUNT(*) FROM \"t",
        "lex error",
        "unterminated \"-quoted literal",
    );
}

#[test]
fn lexer_unexpected_character() {
    assert_diag(
        "SELECT COUNT(*) FROM t WHERE x ? 1",
        "lex error",
        "unexpected character '?'",
    );
}

#[test]
fn lexer_invalid_number() {
    // A dangling exponent is consumed into the number token and fails the
    // float parse ("1.2.3" instead lexes as two valid numbers).
    assert_diag(
        "SELECT SUM(x) FROM t WHERE x > 1.5e",
        "lex error",
        "invalid number '1.5e'",
    );
}

#[test]
fn lexer_reports_byte_position() {
    let Err(Error::Lex { pos, .. }) = tokenize("SELECT @") else {
        panic!("expected a lex error");
    };
    assert_eq!(pos, 7);
}

// --------------------------------------------------------------- parser

#[test]
fn parser_missing_from() {
    assert_diag("SELECT COUNT(*) t", "parse error", "expected FROM");
}

#[test]
fn parser_expected_identifier() {
    assert_diag(
        "SELECT COUNT(*) FROM 42",
        "parse error",
        "expected identifier",
    );
}

#[test]
fn parser_unexpected_token_in_expression() {
    assert_diag(
        "SELECT SUM(x) FROM t WHERE > 1",
        "parse error",
        "unexpected token",
    );
}

#[test]
fn parser_trailing_tokens() {
    assert_diag(
        "SELECT COUNT(*) FROM t extra garbage",
        "parse error",
        "unexpected trailing tokens",
    );
}

#[test]
fn parser_between_requires_and() {
    assert_diag(
        "SELECT COUNT(*) FROM t WHERE x BETWEEN 1 2",
        "parse error",
        "expected AND",
    );
}

// ------------------------------------------------------------ contracts

#[test]
fn contract_negative_error_target() {
    assert_diag(
        "SELECT AVG(x) FROM t ERROR -5%",
        "parse error",
        "ERROR expects a percentage in (0, 100), got -5",
    );
}

#[test]
fn contract_confidence_over_100() {
    assert_diag(
        "SELECT AVG(x) FROM t ERROR 5% CONFIDENCE 120%",
        "parse error",
        "CONFIDENCE expects a percentage in (0, 100), got 120",
    );
}

#[test]
fn contract_zero_deadline() {
    assert_diag(
        "SELECT AVG(x) FROM t WITHIN 0 SECONDS",
        "parse error",
        "WITHIN expects a positive number of seconds",
    );
}

#[test]
fn contract_missing_percent_sign() {
    assert_diag(
        "SELECT AVG(x) FROM t ERROR 5",
        "parse error",
        "ERROR expects a percentage (e.g. 5%)",
    );
}

#[test]
fn contract_on_non_aggregate_query() {
    assert_diag(
        "SELECT x FROM t ERROR 5%",
        "bind error",
        "ERROR/WITHIN contracts require an aggregate query",
    );
    assert_diag(
        "SELECT x FROM t WITHIN 1 SECONDS",
        "bind error",
        "ERROR/WITHIN contracts require an aggregate query",
    );
}

#[test]
fn contract_in_subquery_rejected() {
    assert_diag(
        "SELECT AVG(x) FROM t WHERE x > (SELECT AVG(x) FROM u ERROR 5%)",
        "bind error",
        "ERROR/WITHIN contracts are not allowed in subqueries",
    );
    assert_diag(
        "SELECT AVG(x) FROM t WHERE k IN (SELECT k FROM u GROUP BY k WITHIN 1 SECONDS)",
        "bind error",
        "ERROR/WITHIN contracts are not allowed in subqueries",
    );
}

// --------------------------------------------------------------- binder

#[test]
fn binder_unknown_column() {
    assert_diag(
        "SELECT SUM(nope) FROM t",
        "bind error",
        "unknown column 'nope'",
    );
}

#[test]
fn binder_unknown_table_alias() {
    assert_diag(
        "SELECT SUM(z.x) FROM t",
        "bind error",
        "unknown table or alias 'z'",
    );
}

#[test]
fn binder_ambiguous_column() {
    // `x` exists in both joined tables.
    assert_diag(
        "SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE x > 1",
        "bind error",
        "ambiguous column 'x'",
    );
}

#[test]
fn binder_aggregate_in_where() {
    assert_diag(
        "SELECT COUNT(*) FROM t WHERE SUM(x) > 10",
        "bind error",
        "aggregate functions are not allowed in WHERE",
    );
}

#[test]
fn binder_having_without_group() {
    assert_diag(
        "SELECT x FROM t HAVING x > 1",
        "bind error",
        "HAVING requires GROUP BY",
    );
}

#[test]
fn binder_unknown_function() {
    // An unknown call name is routed to the scalar-function registry, so
    // the diagnostic says "function", not "aggregate".
    assert_diag(
        "SELECT MEDIAN_ABS(x) FROM t",
        "bind error",
        "unknown function 'MEDIAN_ABS'",
    );
}

#[test]
fn binder_nested_aggregates() {
    assert_diag(
        "SELECT SUM(AVG(x)) FROM t",
        "bind error",
        "nested aggregate calls are not allowed",
    );
}

#[test]
fn binder_in_subquery_arity() {
    assert_diag(
        "SELECT COUNT(*) FROM t WHERE k IN (SELECT k, x FROM u)",
        "bind error",
        "IN subquery must select exactly one column",
    );
}

#[test]
fn binder_unknown_cast_type() {
    // Type names are upper-cased before lookup, and the diagnostic echoes
    // the canonical form.
    assert_diag(
        "SELECT SUM(CAST(x AS decimal128)) FROM t",
        "bind error",
        "unknown type 'DECIMAL128' in CAST",
    );
}

#[test]
fn binder_source_column_outside_every_group() {
    assert_diag(
        "SELECT x + 1, COUNT(*) FROM t GROUP BY k",
        "bind error",
        "expression (x + 1) must appear in GROUP BY or inside an aggregate",
    );
}

#[test]
fn binder_correlated_having_key_not_grouped() {
    // The subquery correlates on `a.k`, but the outer query groups by `s`,
    // so the key has no column on the aggregate row.
    assert_diag(
        "SELECT s, SUM(x) FROM t a GROUP BY s \
         HAVING SUM(x) > (SELECT AVG(b.x) FROM u b WHERE b.k = a.k)",
        "bind error",
        "correlated key #0 in HAVING/SELECT must be a GROUP BY expression",
    );
}

#[test]
fn binder_order_by_aggregate_outside_select_list() {
    assert_diag(
        "SELECT k, SUM(x) FROM t GROUP BY k ORDER BY AVG(x)",
        "bind error",
        "ORDER BY expression avg(x) must appear in the select list",
    );
}
