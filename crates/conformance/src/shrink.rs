//! Failure minimization: shrink a failing case to the smallest query AST
//! and row prefix that still fails with the same failure kind, and package
//! it as a replayable artifact.
//!
//! Shrinking is greedy and two-phase:
//!
//! 1. **AST pruning** — repeatedly try structural reductions (drop an
//!    aggregate, drop a filter, strip HAVING/ORDER BY/GROUP BY, simplify a
//!    subquery filter to a plain comparison) until no reduction preserves
//!    the failure.
//! 2. **Row reduction** — binary-search the shortest data *prefix* that
//!    still fails. Prefixes (rather than arbitrary subsets) keep the
//!    artifact replayable from `(schema, data_seed, rows)` alone: the
//!    deterministic generator regenerates the exact table.
//!
//! The whole search is capped by [`ShrinkConfig::budget`] oracle runs, so a
//! pathological case can't stall a soak run.

use std::fmt;
use std::sync::Arc;

use gola_storage::Table;

use crate::calib::{calibrate, CalibClass, CalibConfig, CalibReport};
use crate::gen::{Filter, Query, SchemaClass};
use crate::oracle::{run_case, Failure, Fault, OracleConfig};

/// Shrinker limits.
#[derive(Debug, Clone)]
pub struct ShrinkConfig {
    /// Maximum oracle invocations across both phases.
    pub budget: usize,
    /// Row floor: don't shrink the table below this many rows (the online
    /// executor needs at least one tuple per batch).
    pub min_rows: usize,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            budget: 200,
            min_rows: 16,
        }
    }
}

/// A minimized, replayable failing case. Everything needed to reproduce:
/// the deterministic data recipe (`schema`, `data_seed`, `rows`), the exact
/// SQL, and the oracle parameters.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub schema: SchemaClass,
    pub data_seed: u64,
    pub rows: usize,
    pub sql: String,
    pub key_cols: usize,
    pub oracle: OracleConfig,
    pub fault: Fault,
    pub failure: Failure,
    /// Oracle runs spent shrinking.
    pub runs_used: usize,
}

impl Artifact {
    /// Re-run the minimized case and return its failure, if it still fails
    /// (replay check for tests and for humans pasting from a soak log).
    pub fn replay(&self) -> Option<Failure> {
        let data = Arc::new(self.schema.generate(self.rows, self.data_seed));
        run_case(
            self.schema,
            &data,
            &self.sql,
            self.key_cols,
            &self.oracle,
            self.fault,
        )
        .err()
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "--- conformance failure artifact ---")?;
        writeln!(f, "schema:         {}", self.schema)?;
        writeln!(f, "data_seed:      {:#x}", self.data_seed)?;
        writeln!(f, "rows:           {}", self.rows)?;
        writeln!(f, "partition_seed: {:#x}", self.oracle.partition_seed)?;
        writeln!(
            f,
            "batches/trials: {}/{}",
            self.oracle.num_batches, self.oracle.trials
        )?;
        writeln!(f, "failure:        {}", self.failure)?;
        writeln!(f, "sql:            {}", self.sql)?;
        write!(f, "------------------------------------")
    }
}

/// Shrink a failing `(query, data)` case. `data_seed`/`rows` must be the
/// recipe that produced `data`. Returns the minimized artifact; if nothing
/// shrinks, the artifact is the original case.
#[expect(
    clippy::too_many_arguments,
    reason = "a replay recipe simply has this many parts"
)]
pub fn shrink(
    class: SchemaClass,
    data_seed: u64,
    rows: usize,
    query: &Query,
    oracle: &OracleConfig,
    fault: Fault,
    failure: &Failure,
    cfg: &ShrinkConfig,
) -> Artifact {
    let kind = failure.kind();
    let mut runs_used = 0;
    let table = class.table_name();

    // One oracle probe: does `(q, n)` still fail the same way?
    let probe = |q: &Query, n: usize, runs_used: &mut usize| -> Option<Failure> {
        if *runs_used >= cfg.budget {
            return None;
        }
        *runs_used += 1;
        let data = Arc::new(class.generate(n, data_seed));
        match run_case(class, &data, &q.sql(table), q.key_cols(), oracle, fault) {
            Err(f) if f.kind() == kind => Some(f),
            _ => None,
        }
    };

    // Phase 1: greedy AST pruning to a fixpoint.
    let mut best = query.clone();
    let mut best_failure = failure.clone();
    loop {
        let mut reduced = false;
        for candidate in reductions(&best) {
            if let Some(f) = probe(&candidate, rows, &mut runs_used) {
                best = candidate;
                best_failure = f;
                reduced = true;
                break;
            }
        }
        if !reduced || runs_used >= cfg.budget {
            break;
        }
    }

    // Phase 2: binary-search the shortest failing row prefix.
    let mut n_fail = rows; // known to fail
    let mut n_pass = cfg.min_rows.saturating_sub(1); // assumed (not probed) to pass
    while n_fail - n_pass > 1 && runs_used < cfg.budget {
        let mid = n_pass + (n_fail - n_pass) / 2;
        if mid < cfg.min_rows {
            break;
        }
        match probe(&best, mid, &mut runs_used) {
            Some(f) => {
                n_fail = mid;
                best_failure = f;
            }
            None => n_pass = mid,
        }
    }

    Artifact {
        schema: class,
        data_seed,
        rows: n_fail,
        sql: best.sql(table),
        key_cols: best.key_cols(),
        oracle: oracle.clone(),
        fault,
        failure: best_failure,
        runs_used,
    }
}

/// All single-step structural reductions of a query, roughly largest
/// simplification first (so the greedy loop takes big steps early).
fn reductions(q: &Query) -> Vec<Query> {
    let mut out = Vec::new();
    // Drop whole clauses.
    if q.order_by.is_some() {
        let mut c = q.clone();
        c.order_by = None;
        out.push(c);
    }
    if q.having.is_some() {
        let mut c = q.clone();
        c.having = None;
        out.push(c);
    }
    if q.group_by.is_some() && q.having.is_none() {
        let mut c = q.clone();
        c.group_by = None;
        // An ORDER BY on the group alias would dangle.
        c.order_by = None;
        out.push(c);
    }
    // Drop one filter at a time.
    for i in 0..q.filters.len() {
        let mut c = q.clone();
        c.filters.remove(i);
        if c.filters.len() < 2 {
            c.filters_or = false;
        }
        out.push(c);
    }
    // Simplify a subquery filter to a plain comparison against a constant
    // (keeps selectivity pressure while removing the nested aggregate).
    for (i, f) in q.filters.iter().enumerate() {
        let simpler = match f {
            &Filter::ScalarSub {
                ref col,
                op,
                factor,
                ..
            }
            | &Filter::CorrSub {
                ref col,
                op,
                factor,
                ..
            } => Some(Filter::Cmp {
                col: col.clone(),
                op,
                rhs: factor,
            }),
            _ => None,
        };
        if let Some(s) = simpler {
            let mut c = q.clone();
            c.filters[i] = s;
            out.push(c);
        }
        // A guarded scalar subquery also shrinks by dropping its guard.
        if let Filter::ScalarSub { guard: Some(_), .. } = f {
            let mut c = q.clone();
            if let Filter::ScalarSub { guard, .. } = &mut c.filters[i] {
                *guard = None;
            }
            out.push(c);
        }
    }
    // Drop one aggregate at a time (keep at least one).
    if q.aggs.len() > 1 {
        for i in 0..q.aggs.len() {
            let mut c = q.clone();
            c.aggs.remove(i);
            // Output aliases renumber, so an ORDER BY on an agg alias may
            // dangle; drop it for safety.
            c.order_by = None;
            out.push(c);
        }
    }
    out
}

/// A minimized, replayable *calibration* failure: the smallest seed count
/// and dataset size at which a query class still fails its binomial band.
/// A calibration failure has no single failing input to shrink — the
/// evidence is a coverage count — so minimization shrinks the experiment
/// itself instead, down to the cheapest replay that still demonstrates the
/// miscalibration.
#[derive(Debug, Clone)]
pub struct CalibArtifact {
    pub class: CalibClass,
    pub cfg: CalibConfig,
    pub fault: Fault,
    pub report: CalibReport,
    /// Calibration runs spent shrinking (including the initial full run).
    pub runs_used: usize,
}

impl CalibArtifact {
    /// Re-run the minimized experiment (replay check).
    pub fn replay(&self) -> CalibReport {
        calibrate(&self.class, &self.cfg, self.fault)
    }
}

impl fmt::Display for CalibArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "--- calibration failure artifact ---")?;
        writeln!(
            f,
            "class:       {} ({})",
            self.class.kind, self.class.schema
        )?;
        writeln!(f, "sql:         {}", self.class.sql)?;
        writeln!(
            f,
            "recipe:      seeds={} rows={} k={} trials={} batch={}",
            self.cfg.seeds,
            self.cfg.rows,
            self.cfg.num_batches,
            self.cfg.trials,
            self.cfg.report_batch
        )?;
        writeln!(f, "result:      {}", self.report)?;
        write!(f, "------------------------------------")
    }
}

/// Shrink a failing calibration class to the smallest `(seeds, rows)` that
/// still fails the band. Returns `None` if the class passes at `base` (a
/// passing experiment has nothing to minimize).
pub fn shrink_calibration(
    class: &CalibClass,
    base: &CalibConfig,
    fault: Fault,
) -> Option<CalibArtifact> {
    const MIN_SEEDS: usize = 20;
    let full = calibrate(class, base, fault);
    if full.pass {
        return None;
    }
    let mut runs_used = 1;
    let mut cfg = base.clone();
    let mut report = full;

    // Probe: does the experiment still fail at this size? (Each probe is a
    // complete calibration run; shrinking seeds first makes the later row
    // probes cheap.)
    let probe = |cfg: &CalibConfig, runs_used: &mut usize| -> Option<CalibReport> {
        *runs_used += 1;
        let r = calibrate(class, cfg, fault);
        (!r.pass).then_some(r)
    };

    // Phase 1: binary-search the smallest failing seed count.
    let mut fail_n = cfg.seeds;
    let mut pass_n = MIN_SEEDS - 1; // assumed (not probed) floor
    while fail_n - pass_n > 1 {
        let mid = pass_n + (fail_n - pass_n) / 2;
        if mid < MIN_SEEDS {
            break;
        }
        let c = CalibConfig {
            seeds: mid,
            ..cfg.clone()
        };
        match probe(&c, &mut runs_used) {
            Some(r) => {
                fail_n = mid;
                report = r;
            }
            None => pass_n = mid,
        }
    }
    cfg.seeds = fail_n;

    // Phase 2: binary-search the smallest failing dataset.
    let min_rows = (cfg.num_batches * 8).max(16);
    let mut fail_rows = cfg.rows;
    let mut pass_rows = min_rows - 1;
    while fail_rows - pass_rows > 1 {
        let mid = pass_rows + (fail_rows - pass_rows) / 2;
        if mid < min_rows {
            break;
        }
        let c = CalibConfig {
            rows: mid,
            ..cfg.clone()
        };
        match probe(&c, &mut runs_used) {
            Some(r) => {
                fail_rows = mid;
                report = r;
            }
            None => pass_rows = mid,
        }
    }
    cfg.rows = fail_rows;

    Some(CalibArtifact {
        class: class.clone(),
        cfg,
        fault,
        report,
        runs_used,
    })
}

/// Convenience: shrink against an already generated table (regenerating it
/// from the recipe each probe). Used by the soak binary.
pub fn shrink_case(
    class: SchemaClass,
    data_seed: u64,
    data: &Arc<Table>,
    query: &Query,
    oracle: &OracleConfig,
    fault: Fault,
    failure: &Failure,
) -> Artifact {
    shrink(
        class,
        data_seed,
        data.num_rows(),
        query,
        oracle,
        fault,
        failure,
        &ShrinkConfig::default(),
    )
}
