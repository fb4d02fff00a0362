//! Golden tests for the `golint` rules.
//!
//! Each file under `tests/fixtures/` is linted under a *virtual* workspace
//! path (rule scopes are path-prefix based, so the same source can be
//! checked in scope, out of scope, and in blessed/test locations). Expected
//! diagnostics are declared in the fixtures themselves, compiletest-style:
//! a line ending in `//~ rule-name [rule-name …]` must produce exactly
//! those diagnostics on exactly that line, and no others.

use xlint::{lint_sources, lint_sources_full, to_json, Config, Diagnostic, Rule};

const HASH_ORDER: &str = include_str!("fixtures/hash_order_leak.rs");
const SCHEDULE: &str = include_str!("fixtures/schedule_leak.rs");
const UNSAFE: &str = include_str!("fixtures/unsafe_audit.rs");
const FLOAT_FOLD: &str = include_str!("fixtures/float_fold.rs");
const PANIC: &str = include_str!("fixtures/panic_surface.rs");
const ALLOW_SYNTAX: &str = include_str!("fixtures/allow_syntax.rs");
const FLOAT_TOTAL: &str = include_str!("fixtures/float_total_order.rs");
const LOSSY_CAST: &str = include_str!("fixtures/lossy_cast.rs");
const MERGE_COMM: &str = include_str!("fixtures/merge_commutativity.rs");

/// Parse the fixture's `//~ rule` markers into the expected (line, rule)
/// multiset.
fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some((_, tail)) = line.split_once("//~") {
            for rule in tail.split_whitespace() {
                assert!(
                    Rule::from_name(rule).is_some() || rule == "allow-syntax",
                    "fixture marker names unknown rule `{rule}`"
                );
                out.push((i as u32 + 1, rule.to_string()));
            }
        }
    }
    out.sort();
    out
}

fn lint_under(path: &str, src: &str) -> Vec<(u32, String)> {
    let sources = vec![(path.to_string(), src.to_string())];
    let mut got: Vec<(u32, String)> = lint_sources(&sources, &Config::default())
        .into_iter()
        .map(|d| {
            assert_eq!(d.file, path, "diagnostic attributed to the wrong file");
            (d.line, d.rule.name().to_string())
        })
        .collect();
    got.sort();
    got
}

/// In scope, a fixture must produce exactly its markers.
fn check_in_scope(fixture: &str, path: &str, src: &str) {
    let expected = expected_markers(src);
    assert!(
        !expected.is_empty(),
        "{fixture}: fixture has no `//~` markers — nothing would be tested"
    );
    assert_eq!(lint_under(path, src), expected, "{fixture} under {path}");
}

/// Out of scope (or blessed), the same fixture must produce nothing.
fn check_silent(fixture: &str, path: &str, src: &str) {
    assert_eq!(
        lint_under(path, src),
        Vec::<(u32, String)>::new(),
        "{fixture} under {path} should be out of scope"
    );
}

#[test]
fn hash_order_leak_golden() {
    check_in_scope(
        "hash_order_leak.rs",
        "crates/core/src/fixture.rs",
        HASH_ORDER,
    );
    check_in_scope(
        "hash_order_leak.rs",
        "crates/agg/src/fixture.rs",
        HASH_ORDER,
    );
    // Iteration order in a non-result-producing crate is not a leak.
    check_silent(
        "hash_order_leak.rs",
        "crates/cli/src/fixture.rs",
        HASH_ORDER,
    );
    // Tests may iterate hash maps freely.
    check_silent("hash_order_leak.rs", "tests/fixture.rs", HASH_ORDER);
}

#[test]
fn schedule_leak_golden() {
    check_in_scope("schedule_leak.rs", "crates/core/src/fixture.rs", SCHEDULE);
    check_in_scope(
        "schedule_leak.rs",
        "crates/storage/src/fixture.rs",
        SCHEDULE,
    );
    // Blessed locations: benchmarks and the Stopwatch module itself.
    check_silent("schedule_leak.rs", "crates/bench/src/fixture.rs", SCHEDULE);
    check_silent("schedule_leak.rs", "crates/common/src/timing.rs", SCHEDULE);
}

#[test]
fn unsafe_audit_golden() {
    check_in_scope("unsafe_audit.rs", "crates/common/src/fixture.rs", UNSAFE);
    // The audit is the one rule that also applies to test code.
    check_in_scope("unsafe_audit.rs", "tests/fixture.rs", UNSAFE);
}

#[test]
fn unsafe_inventory_lists_every_site() {
    let sources = vec![(
        "crates/common/src/fixture.rs".to_string(),
        UNSAFE.to_string(),
    )];
    let (_, inventory) = lint_sources_full(&sources, &Config::default());
    let summary: Vec<(&str, bool)> = inventory
        .iter()
        .map(|s| (s.kind, s.has_safety_comment))
        .collect();
    // All four sites — including the SAFETY-commented and the allowed one —
    // appear, in source order.
    assert_eq!(
        summary,
        vec![
            ("block", false),
            ("fn", false),
            ("block", true),
            ("block", false)
        ]
    );
}

#[test]
fn float_fold_golden() {
    check_in_scope("float_fold.rs", "crates/agg/src/fixture.rs", FLOAT_FOLD);
    check_in_scope("float_fold.rs", "crates/common/src/fixture.rs", FLOAT_FOLD);
    check_silent("float_fold.rs", "crates/cli/src/fixture.rs", FLOAT_FOLD);
}

#[test]
fn panic_surface_golden() {
    check_in_scope("panic_surface.rs", "crates/engine/src/fixture.rs", PANIC);
    check_in_scope("panic_surface.rs", "crates/core/src/pool.rs", PANIC);
    // Hot-path discipline does not extend to cold crates or tests.
    check_silent("panic_surface.rs", "crates/storage/src/fixture.rs", PANIC);
    check_silent("panic_surface.rs", "tests/fixture.rs", PANIC);
}

#[test]
fn float_total_order_golden() {
    check_in_scope(
        "float_total_order.rs",
        "crates/expr/src/fixture.rs",
        FLOAT_TOTAL,
    );
    check_in_scope(
        "float_total_order.rs",
        "crates/core/src/fixture.rs",
        FLOAT_TOTAL,
    );
    // The module that implements the total order is blessed: raw IEEE
    // comparison is its job.
    check_silent(
        "float_total_order.rs",
        "crates/common/src/fsum.rs",
        FLOAT_TOTAL,
    );
    check_silent(
        "float_total_order.rs",
        "crates/cli/src/fixture.rs",
        FLOAT_TOTAL,
    );
}

#[test]
fn lossy_cast_golden() {
    check_in_scope("lossy_cast.rs", "crates/storage/src/fixture.rs", LOSSY_CAST);
    // Self-hosting: the linter's own crate is in scope for this rule.
    check_in_scope("lossy_cast.rs", "crates/xlint/src/fixture.rs", LOSSY_CAST);
    check_silent("lossy_cast.rs", "crates/cli/src/fixture.rs", LOSSY_CAST);
}

#[test]
fn merge_commutativity_golden() {
    check_in_scope(
        "merge_commutativity.rs",
        "crates/agg/src/fixture.rs",
        MERGE_COMM,
    );
    // The exact-accumulator surface is blessed: ExactSum/Value implement
    // the arithmetic the rule exists to route everyone else through.
    check_silent(
        "merge_commutativity.rs",
        "crates/common/src/value.rs",
        MERGE_COMM,
    );
    // Out of scope: storage has no shard-merge paths.
    check_silent(
        "merge_commutativity.rs",
        "crates/storage/src/fixture.rs",
        MERGE_COMM,
    );
}

#[test]
fn allow_syntax_golden() {
    check_in_scope(
        "allow_syntax.rs",
        "crates/engine/src/fixture.rs",
        ALLOW_SYNTAX,
    );
}

#[test]
fn diagnostic_display_format() {
    let d = Diagnostic {
        file: "crates/core/src/fold.rs".to_string(),
        line: 42,
        rule: Rule::HashOrderLeak,
        message: "iteration over hash-ordered `groups`".to_string(),
    };
    assert_eq!(
        d.to_string(),
        "crates/core/src/fold.rs:42: hash-order-leak: iteration over hash-ordered `groups`"
    );
}

#[test]
fn json_output_is_escaped_and_counted() {
    let diags = vec![Diagnostic {
        file: "a\\b.rs".to_string(),
        line: 7,
        rule: Rule::PanicSurface,
        message: "`.expect(\"boom\")` in a hot path".to_string(),
    }];
    let json = to_json(&diags, None);
    assert!(json.contains("\"count\": 1"), "{json}");
    assert!(json.contains("a\\\\b.rs"), "{json}");
    assert!(json.contains("\\\"boom\\\""), "{json}");
    assert!(json.contains("\"rule\": \"panic-surface\""), "{json}");
}

/// The whole point: the workspace itself lints clean, and every unsafe site
/// in it carries a SAFETY comment.
#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let (diags, inventory) =
        xlint::lint_workspace(&root, &Config::default()).expect("workspace readable");
    let listing: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        listing.join("\n")
    );
    assert!(
        !inventory.is_empty(),
        "the pool transmute should appear in the unsafe inventory"
    );
    for site in &inventory {
        assert!(
            site.has_safety_comment,
            "{}:{}: unsafe {} lacks a SAFETY comment",
            site.file, site.line, site.kind
        );
    }
}
