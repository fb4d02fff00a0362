//! Plan golden: the bound `QueryGraph::explain()` of every workload-suite
//! query and every example query, pinned to `plan_golden.txt`.
//!
//! A binder refactor must leave this text byte-identical. On a mismatch
//! the test prints the whole new text, so a deliberate plan change can be
//! reviewed against the checked-in file and copied over it by hand.

use std::sync::Arc;

use gola_sql::compile;
use gola_storage::Catalog;
use gola_workloads::{conviva, tpch, ConvivaGenerator, MyTubeGenerator, TpchGenerator};

const GOLDEN: &str = include_str!("plan_golden.txt");

/// One catalog holding every workload table (binding reads schemas only).
fn catalog() -> Catalog {
    let mut c = MyTubeGenerator::default().catalog(50);
    c.register(
        "sessions",
        Arc::new(ConvivaGenerator::default().generate(50)),
    )
    .unwrap();
    c.register(
        "lineitem_denorm",
        Arc::new(TpchGenerator::default().generate(50)),
    )
    .unwrap();
    c
}

/// The string constant `name` of an example program, with the `\`
/// line continuations of its Rust literal folded away.
fn example_sql(src: &str, name: &str) -> String {
    let start = src
        .find(&format!("const {name}: &str = \""))
        .unwrap_or_else(|| panic!("example constant {name} not found"));
    let body = &src[start..];
    let body = &body[body.find('"').unwrap() + 1..];
    let body = &body[..body.find("\";").unwrap()];
    let mut sql = String::new();
    for (i, line) in body.split("\\\n").enumerate() {
        sql.push_str(if i == 0 { line } else { line.trim_start() });
    }
    sql
}

fn corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for (name, sql) in conviva::queries() {
        out.push((format!("conviva {name}"), sql.to_string()));
    }
    for (name, sql) in tpch::queries() {
        out.push((format!("tpch {name}"), sql.to_string()));
    }
    let ab = include_str!("../../../examples/ab_testing.rs");
    out.push(("example ab_testing".into(), example_sql(ab, "AB_QUERY")));
    let ad = include_str!("../../../examples/ad_optimization.rs");
    out.push((
        "example ad_optimization".into(),
        example_sql(ad, "AD_HEALTH"),
    ));
    out
}

#[test]
fn every_suite_and_example_query_binds_to_its_golden_plan() {
    let cat = catalog();
    let mut text = String::new();
    for (name, sql) in corpus() {
        let graph = compile(&sql, &cat).unwrap_or_else(|e| panic!("{name} failed to bind: {e}"));
        text.push_str(&format!("== {name} ==\n{sql}\n{}\n", graph.explain()));
    }
    assert!(
        text == GOLDEN,
        "plan golden mismatch; the new text is:\n{text}<<< end of new text"
    );
}
