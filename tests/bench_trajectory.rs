//! Schema check of the benchmark ledger, `BENCH_trajectory.json`.
//!
//! Every performance change appends rows to the ledger: one row per
//! measurement session and seed, holding the measured commit, its parent,
//! the seeds, and for each workload the number of alternating
//! parent/change pairs and, per metric, the median and quartiles of both
//! sides. Workload and metric names must be ones `BENCHMARK.json`
//! declares, so a row can always be read against the benchmark's bounds.
//! With `BENCH_LEDGER` set to a file, that file is checked instead:
//! `scripts/check.sh` points it at a fresh `scripts/bench_pair.sh` row.

use std::collections::BTreeMap;

use g_ola::obs::json::{parse, Value};

/// `file` under the repository root, or itself when absolute.
fn read(file: &str) -> Value {
    let path = match file.starts_with('/') {
        true => file.to_string(),
        false => format!("{}/{file}", env!("CARGO_MANIFEST_DIR")),
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn object<'a>(v: &'a Value, what: &str) -> &'a BTreeMap<String, Value> {
    match v {
        Value::Object(m) => m,
        other => panic!("{what}: expected an object, got {other:?}"),
    }
}

fn array<'a>(v: Option<&'a Value>, what: &str) -> &'a [Value] {
    match v {
        Some(Value::Array(xs)) => xs,
        other => panic!("{what}: expected an array, got {other:?}"),
    }
}

/// Names listed under `key` in `BENCHMARK.json` (each entry's `name`).
fn declared(bench: &Value, key: &str) -> Vec<String> {
    array(bench.get(key), key)
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn is_hash(s: &str) -> bool {
    (7..=40).contains(&s.len()) && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// A side's summary: finite `median` within finite quartiles.
fn check_summary(v: Option<&Value>, what: &str) {
    let v = v.unwrap_or_else(|| panic!("{what}: missing"));
    let field = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .filter(|x| x.is_finite())
            .unwrap_or_else(|| panic!("{what}.{k}: missing or not a finite number"))
    };
    let (q1, median, q3) = (field("q1"), field("median"), field("q3"));
    assert!(
        q1 <= median && median <= q3,
        "{what}: q1 {q1} ≤ median {median} ≤ q3 {q3} fails"
    );
}

#[test]
fn every_ledger_row_has_commit_seeds_and_paired_quartiles() {
    let bench = read("BENCHMARK.json");
    let workloads = declared(&bench, "workloads");
    let metrics = declared(&bench, "end_to_end");
    let ledger = std::env::var("BENCH_LEDGER")
        .map_or_else(|_| read("BENCH_trajectory.json"), |file| read(&file));
    let rows = array(ledger.get("rows"), "rows");
    assert!(!rows.is_empty(), "the ledger has no rows");
    for (i, row) in rows.iter().enumerate() {
        let at = format!("rows[{i}]");
        // `commit` is null only on rows added by the measured commit itself.
        match row.get("commit") {
            Some(Value::Null) => {}
            Some(Value::String(s)) if is_hash(s) => {}
            other => panic!("{at}.commit: expected a hash or null, got {other:?}"),
        }
        let parent = row.get("parent").and_then(Value::as_str).unwrap_or("");
        assert!(
            is_hash(parent),
            "{at}.parent: expected a hash, got {parent:?}"
        );
        let seeds = array(row.get("seeds"), &format!("{at}.seeds"));
        assert!(!seeds.is_empty(), "{at}.seeds is empty");
        for s in seeds {
            let s = s.as_f64().unwrap_or(f64::NAN);
            assert!(
                s >= 0.0 && s.fract() == 0.0,
                "{at}.seeds: {s} is not a seed"
            );
        }
        let per_workload = object(row.get("workloads").expect("workloads"), &at);
        assert!(!per_workload.is_empty(), "{at}.workloads is empty");
        for (w, entry) in per_workload {
            let at = format!("{at}.workloads.{w}");
            assert!(workloads.contains(w), "{at}: not a declared workload");
            let pairs = entry.get("pairs").and_then(Value::as_f64).unwrap_or(0.0);
            assert!(pairs >= 1.0 && pairs.fract() == 0.0, "{at}.pairs: {pairs}");
            let per_metric = object(entry.get("metrics").expect("metrics"), &at);
            assert!(!per_metric.is_empty(), "{at}.metrics is empty");
            for (m, sides) in per_metric {
                let at = format!("{at}.metrics.{m}");
                assert!(metrics.contains(m), "{at}: not a declared metric");
                check_summary(sides.get("parent"), &format!("{at}.parent"));
                check_summary(sides.get("change"), &format!("{at}.change"));
            }
        }
    }
}
