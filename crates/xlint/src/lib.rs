//! `golint` — a determinism & concurrency auditor for the G-OLA workspace.
//!
//! G-OLA's correctness contract is that every mini-batch publishes the same
//! `BatchReport` regardless of physical schedule (threads=1 ≡ threads=N,
//! bit-identical). Nothing in the type system stops a future change from
//! breaking that with a stray `HashMap` iteration, a NaN-partial float
//! comparison, or a wall-clock read in a publish path, so this crate
//! enforces the contract as code: a static-analysis pass over every
//! workspace `.rs` file with eight deny-by-default rules, running on a
//! lightweight Rust AST ([`ast`]) with type-hint dataflow ([`sem`]).
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `hash-order-leak` | iteration over hash-ordered values in result-producing crates (taint-tracked through bindings, fields and returns) |
//! | `schedule-leak` | `Instant`/`SystemTime`/thread-identity/thread-count reads outside blessed timing & bench modules |
//! | `unsafe-audit` | `unsafe` without a `// SAFETY:` comment within 5 lines above |
//! | `float-fold-ordering` | unchunked float sum/product/fold outside the blessed chunk kernels (float-ness inferred, not just turbofish-spelled) |
//! | `panic-surface` | `unwrap`/`expect`/`panic!`-family in library hot paths, minus a poisoning-lock allowlist |
//! | `float-total-order` | raw `==`/`!=` on float values, `partial_cmp`, float `sort_by` without `total_cmp`, and `derive(PartialEq)` on float-bearing types — outside the modules that implement the total order |
//! | `lossy-cast-audit` | `as` casts between integer types that can truncate (narrowing) or wrap (signed→unsigned) row counts and chunk offsets |
//! | `merge-commutativity` | arithmetic on non-integer per-shard state inside `*merge*` functions — merges must go through the blessed multiset-exact ops (DESIGN.md §3.9) |
//!
//! Every rule has a scoped escape hatch:
//!
//! ```text
//! // golint: allow(hash-order-leak) -- merge is commutative per key
//! ```
//!
//! The allow comment covers its own line(s) plus the statement that follows
//! (to the next `;` or `{` at depth 0, capped at 12 lines), and the
//! `-- reason` is mandatory — a reasonless allow is itself a
//! diagnostic (`allow-syntax`), as is an unknown rule name.
//!
//! The analysis is hint-based, not a type checker: pass 1 parses every file
//! and builds workspace-global tables (field name → class, fn name → return
//! class, float-bearing type names); pass 2 walks each function with a
//! lexically scoped environment, classifying values as float / int / hash /
//! unknown and flagging rule-specific uses. Each rule decides which way
//! unknown errs — see [`sem`]. False positives are silenced with a reasoned
//! allow comment; that reason is the documentation reviewers actually want.

pub mod ast;
pub mod lexer;
pub mod sem;

use lexer::{Tok, TokKind};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules. `AllowSyntax` is internal: it fires on malformed
/// `golint: allow` comments and cannot itself be allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    HashOrderLeak,
    ScheduleLeak,
    UnsafeAudit,
    FloatFoldOrdering,
    PanicSurface,
    FloatTotalOrder,
    LossyCastAudit,
    MergeCommutativity,
    AllowSyntax,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::HashOrderLeak,
        Rule::ScheduleLeak,
        Rule::UnsafeAudit,
        Rule::FloatFoldOrdering,
        Rule::PanicSurface,
        Rule::FloatTotalOrder,
        Rule::LossyCastAudit,
        Rule::MergeCommutativity,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::HashOrderLeak => "hash-order-leak",
            Rule::ScheduleLeak => "schedule-leak",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::FloatFoldOrdering => "float-fold-ordering",
            Rule::PanicSurface => "panic-surface",
            Rule::FloatTotalOrder => "float-total-order",
            Rule::LossyCastAudit => "lossy-cast-audit",
            Rule::MergeCommutativity => "merge-commutativity",
            Rule::AllowSyntax => "allow-syntax",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One `unsafe` occurrence, for the `--unsafe-inventory` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    /// `block`, `fn`, `impl`, `trait`, or `other`.
    pub kind: &'static str,
    pub has_safety_comment: bool,
}

/// Per-rule path policy. All paths are workspace-relative with `/`
/// separators; a scope entry matches any file whose path starts with it.
#[derive(Debug, Clone)]
pub struct Config {
    /// `hash-order-leak` fires only under these prefixes (result-producing
    /// crates whose iteration order can reach a `BatchReport`).
    pub hash_order_scope: Vec<String>,
    /// `schedule-leak` fires everywhere EXCEPT these prefixes (blessed
    /// timing and benchmark code, where wall-clock reads are the point).
    pub schedule_blessed: Vec<String>,
    /// `float-fold-ordering` fires only under these prefixes.
    pub float_fold_scope: Vec<String>,
    /// `panic-surface` fires only under these prefixes (library hot paths).
    pub panic_scope: Vec<String>,
    /// Receiver methods whose `unwrap`/`expect` is allowed without an
    /// annotation: lock poisoning and thread joins, where propagating the
    /// panic is the correct and conventional response.
    pub panic_allowed_receivers: Vec<String>,
    /// Functions that consume a hash map and erase its iteration order
    /// (sorting sinks). A `for`-loop whose iterated expression routes
    /// through one of these is not an order leak.
    pub hash_order_sinks: Vec<String>,
    /// `float-total-order` fires only under these prefixes.
    pub float_total_scope: Vec<String>,
    /// `lossy-cast-audit` fires only under these prefixes.
    pub lossy_cast_scope: Vec<String>,
    /// `merge-commutativity` fires only under these prefixes, and only in
    /// functions whose name contains one of `merge_fn_markers`.
    pub merge_scope: Vec<String>,
    /// Function-name substrings that mark a per-shard merge path.
    pub merge_fn_markers: Vec<String>,
    /// Files that *implement* the float total order and the exact
    /// accumulators (`Value::total_cmp`, `ExactSum`): exempt from
    /// `float-total-order` and `merge-commutativity`, because raw IEEE
    /// comparisons there are the definition the rules point everyone at.
    pub float_blessed: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            hash_order_scope: s(&[
                "crates/core/src",
                "crates/engine/src",
                "crates/agg/src",
                "crates/bootstrap/src",
            ]),
            schedule_blessed: s(&[
                "crates/bench/",
                "benchmarks/",
                "crates/common/src/timing.rs",
                // The observability clock: the one sanctioned absolute-time
                // read (export timestamps only, never fed back into results).
                "crates/obs/src/clock.rs",
            ]),
            float_fold_scope: s(&[
                "crates/core/src",
                "crates/engine/src",
                "crates/agg/src",
                "crates/bootstrap/src",
                "crates/common/src",
            ]),
            panic_scope: s(&[
                // The per-batch stages and their step driver.
                "crates/core/src/join.rs",
                "crates/core/src/classify.rs",
                "crates/core/src/fold.rs",
                "crates/core/src/groups.rs",
                "crates/core/src/publish.rs",
                "crates/core/src/recover.rs",
                "crates/core/src/report.rs",
                "crates/core/src/step.rs",
                "crates/core/src/runtime.rs",
                "crates/core/src/pool.rs",
                // The multi-tenant scheduler and HTTP front end: a panic
                // here takes down every tenant, not one query.
                "crates/core/src/sched",
                "crates/server/src",
                "crates/engine/src",
                // The durability layer: a panic mid-seal can orphan a
                // segment file or tear a manifest append, and the
                // partitioner runs inside every query.
                "crates/storage/src/segment.rs",
                "crates/storage/src/stream.rs",
                "crates/storage/src/partition.rs",
                // Self-hosting: the lint library must hold itself to the
                // no-panic bar (the CLI may exit, the library may not).
                "crates/xlint/src/lib.rs",
                "crates/xlint/src/ast.rs",
                "crates/xlint/src/sem.rs",
                "crates/xlint/src/lexer.rs",
            ]),
            panic_allowed_receivers: s(&["lock", "read", "write", "wait", "join", "recv"]),
            hash_order_sinks: s(&["sorted_entries", "sorted_into_entries"]),
            float_total_scope: s(&[
                "crates/core/src",
                "crates/engine/src",
                "crates/agg/src",
                "crates/bootstrap/src",
                "crates/common/src",
                "crates/expr/src",
                "crates/storage/src",
            ]),
            lossy_cast_scope: s(&[
                "crates/core/src",
                "crates/engine/src",
                "crates/agg/src",
                "crates/bootstrap/src",
                "crates/common/src",
                "crates/expr/src",
                "crates/storage/src",
                "crates/server/src",
                "crates/xlint/src",
            ]),
            merge_scope: s(&[
                "crates/core/src",
                "crates/engine/src",
                "crates/agg/src",
                "crates/bootstrap/src",
                "crates/common/src",
            ]),
            merge_fn_markers: s(&["merge"]),
            float_blessed: s(&["crates/common/src/fsum.rs", "crates/common/src/value.rs"]),
        }
    }
}

fn in_scope(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

/// Integration-test and fixture sources: exempt from everything except the
/// unsafe audit (tests may iterate hash maps and unwrap freely; they may
/// not skip safety comments).
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

const ORDER_SENSITIVE_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

// ---------------------------------------------------------------------------
// Per-file token view
// ---------------------------------------------------------------------------

struct FileView<'a> {
    path: &'a str,
    /// Non-comment tokens only — lexical scanning happens here.
    code: Vec<Tok>,
    /// The parsed AST — structural rules run on this.
    ast: ast::SourceFile,
    /// `(start_line, end_line, text)` of every comment.
    comments: Vec<(u32, u32, String)>,
    /// Inclusive line ranges of `#[cfg(test)]`-guarded items.
    test_regions: Vec<(u32, u32)>,
}

impl<'a> FileView<'a> {
    fn new(path: &'a str, src: &str) -> FileView<'a> {
        let mut code = Vec::new();
        let mut comments = Vec::new();
        for t in lexer::tokenize(src) {
            match t.kind {
                TokKind::Comment { text, end_line } => comments.push((t.line, end_line, text)),
                _ => code.push(t),
            }
        }
        let test_regions = find_test_regions(&code);
        let ast = ast::parse(&code);
        FileView {
            path,
            code,
            ast,
            comments,
            test_regions,
        }
    }

    fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Last line of the statement (or item header) that starts on the first
    /// code line after `after`: scans to the first `;` or `{` at depth 0,
    /// capped at 12 lines. This is the span an allow comment covers — the
    /// next statement, not the block it may open.
    fn next_statement_end(&self, after: u32) -> Option<u32> {
        let start = self.code.iter().position(|t| t.line > after)?;
        let first_line = self.code[start].line;
        let mut depth = 0i32;
        let mut last_line = first_line;
        for t in &self.code[start..] {
            if t.line > first_line + 12 {
                break;
            }
            last_line = t.line;
            match &t.kind {
                k if k.is_punct('(') || k.is_punct('[') => depth += 1,
                k if k.is_punct(')') || k.is_punct(']') => depth -= 1,
                k if depth <= 0 && (k.is_punct(';') || k.is_punct('{') || k.is_punct('}')) => {
                    break;
                }
                _ => {}
            }
        }
        Some(last_line)
    }
}

/// Find `#[cfg(test)] <item> { … }` regions by matching the brace that
/// follows the attribute. Good enough for the workspace convention of
/// `#[cfg(test)] mod tests { … }`.
fn find_test_regions(code: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].kind.is_punct('#') && code[i + 1].kind.is_punct('[') {
            // Collect the attribute body up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < code.len() && depth > 0 {
                match &code[j].kind {
                    k if k.is_punct('[') => depth += 1,
                    k if k.is_punct(']') => depth -= 1,
                    k if k.is_ident("cfg") => saw_cfg = true,
                    k if k.is_ident("test") => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // Find the item's opening brace and match it.
                let mut k = j;
                while k < code.len() && !code[k].kind.is_punct('{') {
                    // A `;` first means `#[cfg(test)] mod foo;` — no body.
                    if code[k].kind.is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if k < code.len() && code[k].kind.is_punct('{') {
                    let start_line = code[i].line;
                    let mut b = 1i32;
                    let mut m = k + 1;
                    while m < code.len() && b > 0 {
                        if code[m].kind.is_punct('{') {
                            b += 1;
                        } else if code[m].kind.is_punct('}') {
                            b -= 1;
                        }
                        m += 1;
                    }
                    let end_line = code.get(m.saturating_sub(1)).map_or(u32::MAX, |t| t.line);
                    regions.push((start_line, end_line));
                    i = m;
                    continue;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

// ---------------------------------------------------------------------------
// Allow comments
// ---------------------------------------------------------------------------

struct Allow {
    rules: Vec<Rule>,
    /// Lines this allow covers (its own lines + first following code line).
    lines: (u32, u32),
}

/// Parse `// golint: allow(rule, …) -- reason` comments. Malformed allows
/// (missing reason, unknown rule) become `allow-syntax` diagnostics and
/// suppress nothing.
fn collect_allows(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (start, end, text) in &view.comments {
        // Only comments that LEAD with the marker are directives; prose
        // that mentions `golint: allow(...)` mid-sentence is not.
        let stripped = text.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(rest) = stripped.strip_prefix("golint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            diags.push(Diagnostic {
                file: view.path.to_string(),
                line: *start,
                rule: Rule::AllowSyntax,
                message: "golint comment is not of the form `golint: allow(rule, …) -- reason`"
                    .to_string(),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (list, tail) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some(x) => x,
            None => {
                diags.push(Diagnostic {
                    file: view.path.to_string(),
                    line: *start,
                    rule: Rule::AllowSyntax,
                    message: "allow comment missing `(rule, …)` list".to_string(),
                });
                continue;
            }
        };
        let reason = tail.split_once("--").map(|(_, r)| r.trim()).unwrap_or("");
        if reason.is_empty() {
            diags.push(Diagnostic {
                file: view.path.to_string(),
                line: *start,
                rule: Rule::AllowSyntax,
                message: "allow comment missing a `-- reason`; say why the pattern is sound"
                    .to_string(),
            });
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_name(name) {
                Some(r) => rules.push(r),
                None => {
                    diags.push(Diagnostic {
                        file: view.path.to_string(),
                        line: *start,
                        rule: Rule::AllowSyntax,
                        message: format!("unknown rule `{name}` in allow comment"),
                    });
                    bad = true;
                }
            }
        }
        if bad || rules.is_empty() {
            continue;
        }
        let covered_end = view.next_statement_end(*end).unwrap_or(*end);
        allows.push(Allow {
            rules,
            lines: (*start, covered_end),
        });
    }
    allows
}

// ---------------------------------------------------------------------------
// Lexical rule scanners (schedule-leak, unsafe-audit)
//
// These two rules deliberately stay token-based: `schedule-leak` must see
// `use` imports and type positions the AST subset drops, and
// `unsafe-audit` is about comment adjacency, which no AST can express.
// ---------------------------------------------------------------------------

fn scan_schedule(view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
    let code = &view.code;
    for (i, t) in code.iter().enumerate() {
        let Some(name) = t.kind.ident() else { continue };
        let msg = match name {
            "Instant" => {
                "wall-clock `Instant` outside blessed timing modules; \
                          use `gola_common::timing::Stopwatch`"
            }
            "SystemTime" => "`SystemTime` read leaks wall-clock state into the schedule",
            "available_parallelism" | "num_cpus" => {
                "thread-count read outside bench code makes behaviour host-dependent"
            }
            "thread" => {
                let is_current = code.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
                    && code.get(i + 2).is_some_and(|t| t.kind.is_punct(':'))
                    && code.get(i + 3).is_some_and(|t| t.kind.is_ident("current"));
                if !is_current {
                    continue;
                }
                "`thread::current()` identity read leaks the physical schedule"
            }
            _ => continue,
        };
        out.push(Diagnostic {
            file: view.path.to_string(),
            line: t.line,
            rule: Rule::ScheduleLeak,
            message: msg.to_string(),
        });
    }
}

/// Scan for `unsafe` tokens; returns the inventory and appends diagnostics
/// for sites lacking a `// SAFETY:` comment within 5 lines above.
fn scan_unsafe(view: &FileView<'_>, out: &mut Vec<Diagnostic>) -> Vec<UnsafeSite> {
    let code = &view.code;
    let mut sites = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !t.kind.is_ident("unsafe") {
            continue;
        }
        let kind = match code.get(i + 1).map(|t| &t.kind) {
            Some(k) if k.is_punct('{') => "block",
            Some(k) if k.is_ident("fn") => "fn",
            Some(k) if k.is_ident("impl") => "impl",
            Some(k) if k.is_ident("trait") => "trait",
            _ => "other",
        };
        let has_safety = view
            .comments
            .iter()
            .any(|(_, end, text)| text.contains("SAFETY:") && *end <= t.line && t.line - *end <= 5);
        if !has_safety {
            out.push(Diagnostic {
                file: view.path.to_string(),
                line: t.line,
                rule: Rule::UnsafeAudit,
                message: format!(
                    "`unsafe` {kind} without a `// SAFETY:` comment within 5 lines above"
                ),
            });
        }
        sites.push(UnsafeSite {
            file: view.path.to_string(),
            line: t.line,
            kind,
            has_safety_comment: has_safety,
        });
    }
    sites
}

// ---------------------------------------------------------------------------
// AST rule scanners
// ---------------------------------------------------------------------------

/// Which AST-based rules are active for one file (scope already resolved).
struct AstRules {
    hash: bool,
    float_fold: bool,
    panic: bool,
    float_total: bool,
    lossy_cast: bool,
    merge: bool,
}

impl AstRules {
    fn any(&self) -> bool {
        self.hash
            || self.float_fold
            || self.panic
            || self.float_total
            || self.lossy_cast
            || self.merge
    }
}

/// A short human name for an integer class in cast messages. `usize`/`isize`
/// report as their 64-bit equivalents (documented policy: 64-bit targets).
fn int_name(bits: u8, signed: bool) -> String {
    format!("{}{bits}", if signed { "i" } else { "u" })
}

/// Strip `&`/`*` so `for x in &m` sees `m`.
fn strip_ref(e: &ast::Expr) -> &ast::Expr {
    match e {
        ast::Expr::Unary {
            op: '&' | '*',
            expr,
            ..
        } => strip_ref(expr),
        _ => e,
    }
}

/// A display name for the value an expression denotes, for messages.
fn expr_name(e: &ast::Expr) -> String {
    match e {
        ast::Expr::Path { segs, .. } => segs.last().cloned().unwrap_or_else(|| "map".into()),
        ast::Expr::Field { name, .. } => name.clone(),
        ast::Expr::Unary { expr, .. } => expr_name(expr),
        ast::Expr::MethodCall { recv, .. } => expr_name(recv),
        ast::Expr::Call { callee, .. } => expr_name(callee),
        ast::Expr::Index { base, .. } => expr_name(base),
        _ => "map".to_string(),
    }
}

/// Is this a literal (possibly negated)? Literal comparisons like
/// `x == 0.0` are exempt from `float-total-order`: they are exact-value
/// guards, and NaN correctly compares unequal to every literal.
fn is_num_literal(e: &ast::Expr) -> bool {
    match e {
        ast::Expr::Num { .. } => true,
        ast::Expr::Unary { op: '-', expr, .. } => matches!(expr.as_ref(), ast::Expr::Num { .. }),
        _ => false,
    }
}

/// Does any argument mention `total_cmp` (closure body or fn path)? Used to
/// bless `sort_by(|a, b| a.total_cmp(b))` and `sort_by(f64::total_cmp)`.
fn args_mention_total_cmp(args: &[ast::Expr]) -> bool {
    let mut found = false;
    for a in args {
        ast::walk_expr(a, &mut |e| match e {
            ast::Expr::MethodCall { method, .. } if method == "total_cmp" => found = true,
            ast::Expr::Path { segs, .. } if segs.iter().any(|s| s == "total_cmp") => found = true,
            _ => {}
        });
    }
    found
}

/// `lock().unwrap()`-style receivers where propagating the panic is the
/// conventional response (lock poisoning, thread joins).
fn recv_is_allowed(recv: &ast::Expr, allowed: &[String]) -> bool {
    match recv {
        ast::Expr::MethodCall { method, .. } => allowed.iter().any(|a| a == method),
        ast::Expr::Call { callee, .. } => matches!(
            callee.as_ref(),
            ast::Expr::Path { segs, .. }
                if segs.last().is_some_and(|s| allowed.iter().any(|a| a == s))
        ),
        _ => false,
    }
}

/// Can this operand participate in a merge without the result depending on
/// merge-tree shape? Integer and bool arithmetic is exact (no rounding), so
/// any association order gives the same bits.
fn merge_exact(c: &sem::Class) -> bool {
    c.is_int() || matches!(c, sem::Class::Bool)
}

fn scan_ast(
    view: &FileView<'_>,
    g: &sem::Globals,
    cfg: &Config,
    on: &AstRules,
    out: &mut Vec<Diagnostic>,
) {
    if !on.any() {
        return;
    }
    sem::for_each_item(&view.ast, &mut |item, _| match item {
        ast::Item::Struct(s) if on.float_total => {
            check_float_derive(view, g, &s.attrs, &s.name, s.line, out);
        }
        ast::Item::Enum(e) if on.float_total => {
            check_float_derive(view, g, &e.attrs, &e.name, e.line, out);
        }
        ast::Item::Fn(f) => {
            let merge_fn = on.merge
                && cfg
                    .merge_fn_markers
                    .iter()
                    .any(|m| f.name.contains(m.as_str()));
            sem::walk_fn(f, g, &mut |e, env| {
                scan_expr(view, g, cfg, on, merge_fn, e, env, out);
            });
        }
        _ => {}
    });
}

/// `float-total-order` item check: deriving `PartialEq`/`PartialOrd`/`Ord`
/// on a float-bearing type inherits IEEE partial comparison — the exact bug
/// class behind `eq_tri` disagreeing with itself under NaN.
fn check_float_derive(
    view: &FileView<'_>,
    g: &sem::Globals,
    attrs: &ast::Attrs,
    name: &str,
    line: u32,
    out: &mut Vec<Diagnostic>,
) {
    let bad: Vec<&str> = attrs
        .derives
        .iter()
        .map(|s| s.as_str())
        .filter(|d| matches!(*d, "PartialEq" | "PartialOrd" | "Ord"))
        .collect();
    if !bad.is_empty() && g.float_bearing.contains(name) {
        out.push(Diagnostic {
            file: view.path.to_string(),
            line,
            rule: Rule::FloatTotalOrder,
            message: format!(
                "derive({}) on float-bearing `{name}` inherits IEEE partial comparison \
                 (NaN-unsound); implement the total order via `total_cmp` like `Value`",
                bad.join(", ")
            ),
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_expr(
    view: &FileView<'_>,
    g: &sem::Globals,
    cfg: &Config,
    on: &AstRules,
    merge_fn: bool,
    e: &ast::Expr,
    env: &sem::Env,
    out: &mut Vec<Diagnostic>,
) {
    use ast::Expr;
    let push = |out: &mut Vec<Diagnostic>, line: u32, rule: Rule, message: String| {
        out.push(Diagnostic {
            file: view.path.to_string(),
            line,
            rule,
            message,
        });
    };
    match e {
        Expr::MethodCall {
            recv,
            method,
            targs,
            args,
            line,
        } => {
            let m = method.as_str();
            if on.hash && ORDER_SENSITIVE_METHODS.contains(&m) && sem::infer(recv, env, g).is_hash()
            {
                push(
                    out,
                    *line,
                    Rule::HashOrderLeak,
                    format!(
                        "iteration over hash-ordered `{}` in a result-producing crate; \
                         sort entries (or use a BTreeMap) before results can reach a BatchReport",
                        expr_name(recv)
                    ),
                );
            }
            if on.float_fold {
                let float_acc = match m {
                    "sum" | "product" => match targs.first() {
                        Some(t) => sem::classify_ty(t).is_float(),
                        None => sem::infer(recv, env, g).is_float(),
                    },
                    "fold" => args
                        .first()
                        .is_some_and(|a| sem::infer(a, env, g).is_float()),
                    _ => false,
                };
                if float_acc {
                    push(
                        out,
                        *line,
                        Rule::FloatFoldOrdering,
                        format!(
                            "unchunked float {m}: accumulation order must be fixed \
                             (1024-tuple chunk kernel) or proven order-insensitive"
                        ),
                    );
                }
            }
            if on.panic
                && (m == "unwrap" || m == "expect")
                && !recv_is_allowed(recv, &cfg.panic_allowed_receivers)
            {
                push(
                    out,
                    *line,
                    Rule::PanicSurface,
                    format!(
                        "`.{m}()` in a library hot path; propagate the error \
                         or annotate the invariant that makes this infallible"
                    ),
                );
            }
            if on.float_total {
                if m == "partial_cmp" && sem::infer(recv, env, g).is_float() {
                    push(
                        out,
                        *line,
                        Rule::FloatTotalOrder,
                        "`partial_cmp` on floats returns None on NaN and poisons \
                         downstream ordering; use `total_cmp`"
                            .to_string(),
                    );
                }
                if matches!(
                    m,
                    "sort_by" | "sort_unstable_by" | "min_by" | "max_by" | "binary_search_by"
                ) && sem::infer(recv, env, g).is_float()
                    && !args_mention_total_cmp(args)
                {
                    push(
                        out,
                        *line,
                        Rule::FloatTotalOrder,
                        format!(
                            "float `{m}` comparator without `total_cmp`; IEEE comparison \
                             is partial under NaN — order floats with the total order"
                        ),
                    );
                }
            }
        }
        Expr::Macro { name, line, .. } if on.panic => {
            if matches!(
                name.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) {
                push(
                    out,
                    *line,
                    Rule::PanicSurface,
                    format!(
                        "`{name}!` in a library hot path; return an error or \
                         annotate why this is unreachable"
                    ),
                );
            }
        }
        Expr::For { iter, .. } if on.hash => {
            // `.iter()`/`.keys()` on a hash value is already flagged at the
            // method call; flag only whole-value consumption here
            // (`for (k, v) in shard.groups`), and skip loops routed through
            // a sorting sink.
            let base = strip_ref(iter);
            let already = matches!(base, Expr::MethodCall { method, .. }
                if ORDER_SENSITIVE_METHODS.contains(&method.as_str()));
            let sunk = matches!(base, Expr::Call { callee, .. }
                if matches!(callee.as_ref(), Expr::Path { segs, .. }
                    if segs.last().is_some_and(|s| cfg.hash_order_sinks.contains(s))));
            if !already && !sunk && sem::infer(base, env, g).is_hash() {
                push(
                    out,
                    base.line(),
                    Rule::HashOrderLeak,
                    format!(
                        "iteration over hash-ordered `{}` in a result-producing crate; \
                         sort entries (or use a BTreeMap) before results can reach a BatchReport",
                        expr_name(base)
                    ),
                );
            }
        }
        Expr::Binary { op, lhs, rhs, line } => {
            if on.float_total && op.is_eq() && !is_num_literal(lhs) && !is_num_literal(rhs) {
                let floaty =
                    sem::infer(lhs, env, g).is_float() || sem::infer(rhs, env, g).is_float();
                if floaty {
                    push(
                        out,
                        *line,
                        Rule::FloatTotalOrder,
                        "raw float `==`/`!=` is partial under NaN; compare via `total_cmp` \
                         or against a literal guard"
                            .to_string(),
                    );
                }
            }
            if merge_fn && op.is_arith() {
                let l = sem::infer(lhs, env, g);
                let r = sem::infer(rhs, env, g);
                if !(merge_exact(&l) && merge_exact(&r)) {
                    push(
                        out,
                        *line,
                        Rule::MergeCommutativity,
                        "arithmetic on non-integer state in a merge path; per-shard \
                         merges must use the blessed multiset-exact ops \
                         (ExactSum add, min/max, integer counts — DESIGN.md §3.9)"
                            .to_string(),
                    );
                }
            }
        }
        Expr::Assign {
            op: Some(op),
            lhs,
            rhs,
            line,
        } if merge_fn && op.is_arith() => {
            let l = sem::infer(lhs, env, g);
            let r = sem::infer(rhs, env, g);
            if !(merge_exact(&l) && merge_exact(&r)) {
                push(
                    out,
                    *line,
                    Rule::MergeCommutativity,
                    "compound assignment on non-integer state in a merge path; per-shard \
                     merges must use the blessed multiset-exact ops \
                     (ExactSum add, min/max, integer counts — DESIGN.md §3.9)"
                        .to_string(),
                );
            }
        }
        Expr::Cast { expr, ty, line } if on.lossy_cast => {
            // Pointer casts reinterpret addresses, not values.
            if matches!(ty, ast::Ty::Ref(_)) {
                return;
            }
            let sem::Class::Int {
                bits: tb,
                signed: ts,
            } = sem::classify_ty(ty)
            else {
                return;
            };
            // A literal that provably fits its target is exact by
            // construction (`0u64 as u32`, `1 as u8`).
            if let Expr::Num { text, .. } = strip_ref(expr) {
                if let Some(v) = sem::num_literal_value(text) {
                    if !sem::literal_fits(v, tb, ts) {
                        push(
                            out,
                            *line,
                            Rule::LossyCastAudit,
                            format!(
                                "literal `{text}` does not fit `{}`; the cast wraps at \
                                 compile-visible constant value",
                                int_name(tb, ts)
                            ),
                        );
                    }
                    return;
                }
            }
            if let sem::Class::Int {
                bits: sb,
                signed: ss,
            } = sem::infer(expr, env, g)
            {
                let narrowing = tb < sb;
                let sign_wrap = ss && !ts;
                if narrowing || sign_wrap {
                    let how = if narrowing {
                        "silently truncates"
                    } else {
                        "wraps negative values"
                    };
                    push(
                        out,
                        *line,
                        Rule::LossyCastAudit,
                        format!(
                            "`as` cast {}→{} {how}; row counts and chunk offsets must \
                             use a checked conversion (`try_from` + explicit failure path)",
                            int_name(sb, ss),
                            int_name(tb, ts)
                        ),
                    );
                }
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint a set of `(workspace-relative path, source)` pairs. Pure — this is
/// the entry point fixture tests use to lint virtual files under arbitrary
/// paths.
pub fn lint_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    lint_sources_full(sources, cfg).0
}

/// As [`lint_sources`], also returning the workspace unsafe inventory.
pub fn lint_sources_full(
    sources: &[(String, String)],
    cfg: &Config,
) -> (Vec<Diagnostic>, Vec<UnsafeSite>) {
    // Pass 1: parse every file and build the workspace-global tables
    // (field classes, fn return classes, float-bearing type names).
    let views: Vec<FileView<'_>> = sources
        .iter()
        .map(|(path, src)| FileView::new(path, src))
        .collect();
    let asts: Vec<&ast::SourceFile> = views.iter().map(|v| &v.ast).collect();
    let globals = sem::build_globals(&asts);

    // Pass 2: per-file rule scans, then allow/test-region filtering.
    let mut diags = Vec::new();
    let mut inventory = Vec::new();
    for v in &views {
        let mut raw = Vec::new();
        let allows = collect_allows(v, &mut raw);
        let test_file = is_test_path(v.path);

        inventory.extend(scan_unsafe(v, &mut raw));
        if !test_file {
            if !in_scope(v.path, &cfg.schedule_blessed) {
                scan_schedule(v, &mut raw);
            }
            let blessed = in_scope(v.path, &cfg.float_blessed);
            let on = AstRules {
                hash: in_scope(v.path, &cfg.hash_order_scope),
                float_fold: in_scope(v.path, &cfg.float_fold_scope),
                panic: in_scope(v.path, &cfg.panic_scope),
                float_total: in_scope(v.path, &cfg.float_total_scope) && !blessed,
                lossy_cast: in_scope(v.path, &cfg.lossy_cast_scope),
                merge: in_scope(v.path, &cfg.merge_scope) && !blessed,
            };
            scan_ast(v, &globals, cfg, &on, &mut raw);
        }

        let allowed = |d: &Diagnostic| {
            allows
                .iter()
                .any(|a| a.rules.contains(&d.rule) && a.lines.0 <= d.line && d.line <= a.lines.1)
        };
        for d in raw {
            if d.rule != Rule::UnsafeAudit
                && d.rule != Rule::AllowSyntax
                && v.in_test_region(d.line)
            {
                continue;
            }
            if d.rule != Rule::AllowSyntax && allowed(&d) {
                continue;
            }
            diags.push(d);
        }
    }
    diags.sort();
    diags.dedup();
    (diags, inventory)
}

/// Walk `root` for workspace `.rs` files (skipping `target/`, `vendor/`,
/// `.git/`, and lint fixtures) and lint them.
pub fn lint_workspace(
    root: &Path,
    cfg: &Config,
) -> std::io::Result<(Vec<Diagnostic>, Vec<UnsafeSite>)> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(lint_sources_full(&sources, cfg))
}

const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "results"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// JSON output (hand-rolled — no serde in the workspace)
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `--json` document schema version. Bump when the shape changes;
/// `scripts/golint_schema.json` describes (and CI validates) this version.
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// Render diagnostics (and optionally the unsafe inventory) as a stable
/// machine-readable JSON document.
pub fn to_json(diags: &[Diagnostic], inventory: Option<&[UnsafeSite]>) -> String {
    let mut out = format!("{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "],\n" } else { "\n  ],\n" });
    out.push_str(&format!("  \"count\": {}", diags.len()));
    if let Some(sites) = inventory {
        out.push_str(",\n  \"unsafe_inventory\": [");
        for (i, s) in sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"has_safety_comment\": {}}}",
                json_escape(&s.file),
                s.line,
                s.kind,
                s.has_safety_comment
            ));
        }
        out.push_str(if sites.is_empty() { "]" } else { "\n  ]" });
    }
    out.push_str("\n}\n");
    out
}

/// Group a diagnostic list by rule, for the human summary footer.
pub fn counts_by_rule(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut map = BTreeMap::new();
    for d in diags {
        *map.entry(d.rule.name()).or_insert(0) += 1;
    }
    map
}
