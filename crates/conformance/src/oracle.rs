//! The three-pronged conformance oracle.
//!
//! For one `(schema, data, query)` case the oracle runs:
//!
//! 1. **Differential** — the online executor's final-batch answer must
//!    bit-match the exact batch engine's answer (possible because SUM/AVG/
//!    VAR fold through exact expansions, see `gola_common::fsum`), at
//!    `threads = 1` and `threads = N`.
//! 2. **Invariant** — per-batch checks along the whole refinement
//!    trajectory: same-seed reruns are bit-identical, thread counts don't
//!    change any report, rows classified *certain* never retract while no
//!    recomputation intervenes, and the uncertain sets drain to zero by the
//!    final batch.
//! 3. **Fault transparency** — a [`Fault`] can be planted to prove the
//!    oracle actually discriminates: `WeightBias` plants an off-by-one
//!    bootstrap weight (caught by calibration, see `calib`), `SkewOnline`
//!    perturbs the online answer before comparison (caught here), and
//!    `AbsoluteStop` an absolute stopping rule (caught by `contract`).

use std::fmt;
use std::sync::Arc;

use gola_bootstrap::BootstrapSpec;
use gola_core::{BatchReport, OnlineConfig, OnlineSession};
use gola_storage::{Catalog, Table};

use crate::gen::SchemaClass;

/// Execution parameters of one conformance case.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Mini-batch count `k` (clamped to the row count by the session).
    pub num_batches: usize,
    /// Bootstrap replica count.
    pub trials: u32,
    /// Parallel thread count for the `threads = N` leg.
    pub threads: usize,
    /// Seed of the mini-batch partitioner (part of a case's replay recipe).
    pub partition_seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            num_batches: 5,
            trials: 24,
            threads: 4,
            partition_seed: 0xF1_00_DB,
        }
    }
}

/// A deliberately planted estimator bug, used to prove the oracles have
/// teeth: each one must be caught by the oracle named on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    None,
    /// Off-by-one bootstrap replica weights
    /// ([`BootstrapSpec::with_weight_bias`]). Point estimates are
    /// unaffected, so the differential oracle stays green — only the
    /// calibration oracle can see it.
    WeightBias,
    /// Multiply every float cell of the online final answer by this factor
    /// before the differential comparison — a stand-in for a wrong
    /// multiplicity/scale estimator bug.
    SkewOnline(f64),
    /// Stop an `ERROR p%` contract when the *absolute* CI half-width drops
    /// below `p` instead of the relative half-width — the classic
    /// absolute-vs-relative stopping-rule bug. The contract oracle
    /// ([`crate::contract`]) plants this rule itself over the uncontracted
    /// query; its promise check catches it on any aggregate whose magnitude
    /// is far from 1.
    AbsoluteStop,
}

/// Why a case failed; [`Failure::kind`] names the oracle leg.
#[derive(Debug, Clone)]
pub enum Failure {
    /// SQL rejected or execution error in the exact engine.
    Exact(String),
    /// Execution error in the online executor.
    Online(String),
    /// Final online answer differs from the exact answer.
    Differential(String),
    /// Two same-seed `threads = 1` runs produced different reports.
    Rerun { batch: usize, detail: String },
    /// `threads = 1` and `threads = N` reports differ.
    Threads { batch: usize, detail: String },
    /// A certain row vanished or reverted with no recomputation in between.
    Retraction { batch: usize, detail: String },
    /// The refinement trajectory itself is malformed: coverage not
    /// monotone, multiplicity not shrinking toward 1, or the last report
    /// not marked final/exact.
    Shape { batch: usize, detail: String },
}

impl Failure {
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Exact(_) => "exact",
            Failure::Online(_) => "online",
            Failure::Differential(_) => "differential",
            Failure::Rerun { .. } => "rerun",
            Failure::Threads { .. } => "threads",
            Failure::Retraction { .. } => "retraction",
            Failure::Shape { .. } => "shape",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Exact(e) => write!(f, "exact engine: {e}"),
            Failure::Online(e) => write!(f, "online executor: {e}"),
            Failure::Differential(d) => write!(f, "differential mismatch: {d}"),
            Failure::Rerun { batch, detail } => {
                write!(f, "same-seed rerun diverged at batch {batch}: {detail}")
            }
            Failure::Threads { batch, detail } => {
                write!(f, "thread counts diverged at batch {batch}: {detail}")
            }
            Failure::Retraction { batch, detail } => {
                write!(f, "certain row retracted at batch {batch}: {detail}")
            }
            Failure::Shape { batch, detail } => {
                write!(f, "malformed trajectory at batch {batch}: {detail}")
            }
        }
    }
}

/// Telemetry from a passing case (used by the smoke tests to assert the
/// generated corpus actually exercises the interesting machinery).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    pub batches: usize,
    pub recomputations: usize,
    pub uncertain_peak: usize,
    pub result_rows: usize,
}

/// Run the full oracle for one case.
///
/// `key_cols` is the number of leading output columns that are group keys
/// (from [`crate::gen::Query::key_cols`]); the retraction invariant tracks
/// certain rows by that key.
pub fn run_case(
    class: SchemaClass,
    data: &Arc<Table>,
    sql: &str,
    key_cols: usize,
    cfg: &OracleConfig,
    fault: Fault,
) -> Result<CaseStats, Failure> {
    let mut catalog = Catalog::new();
    catalog
        .register(class.table_name(), Arc::clone(data))
        .map_err(|e| Failure::Exact(e.to_string()))?;

    let bootstrap = BootstrapSpec::new(cfg.trials, 0x60_1A)
        .with_weight_bias(u8::from(fault == Fault::WeightBias));
    let config = |threads: usize| OnlineConfig {
        num_batches: cfg.num_batches,
        bootstrap,
        partition_seed: cfg.partition_seed,
        threads,
        ..OnlineConfig::default()
    };

    let exact = OnlineSession::new(catalog.clone(), config(1))
        .execute_exact(sql)
        .map_err(|e| Failure::Exact(e.to_string()))?;

    let run = |threads: usize| -> Result<Vec<BatchReport>, Failure> {
        let session = OnlineSession::new(catalog.clone(), config(threads));
        let exec = session
            .execute_online(sql)
            .map_err(|e| Failure::Online(e.to_string()))?;
        exec.collect::<Result<Vec<_>, _>>()
            .map_err(|e| Failure::Online(e.to_string()))
    };

    let seq = run(1)?;
    let rerun = run(1)?;
    if let Err((batch, detail)) = reports_identical(&seq, &rerun) {
        return Err(Failure::Rerun { batch, detail });
    }
    let par = run(cfg.threads)?;
    if let Err((batch, detail)) = reports_identical(&seq, &par) {
        return Err(Failure::Threads { batch, detail });
    }

    check_trajectory(&seq, key_cols)?;

    let last = seq
        .last()
        .ok_or_else(|| Failure::Online("no batches".into()))?;
    let online_table = match fault {
        Fault::SkewOnline(factor) => skew_floats(&last.table, factor),
        _ => last.table.clone(),
    };
    if let Err(detail) = tables_bit_equal(&online_table, &exact) {
        return Err(Failure::Differential(detail));
    }

    Ok(CaseStats {
        batches: seq.len(),
        recomputations: last.recomputations,
        uncertain_peak: seq.iter().map(|r| r.uncertain_tuples).max().unwrap_or(0),
        result_rows: last.table.num_rows(),
    })
}

/// Per-batch invariants along one run's refinement trajectory.
///
/// Note what is deliberately *not* checked: the uncertain set is not
/// required to shrink monotonically, nor to drain by the final batch. New
/// ingests add fresh borderline candidates, and a predicate whose
/// classification range never collapses (its epsilon tracks a bootstrap
/// spread that stays wide) legitimately caches its boundary tuples forever
/// — the final answer is still exact because effective states merge the
/// uncertain contributions (DESIGN.md §3.7).
fn check_trajectory(reports: &[BatchReport], key_cols: usize) -> Result<(), Failure> {
    // Shape: coverage grows monotonically to completion, multiplicity
    // shrinks toward 1, indices are sequential, and the last report is the
    // final (exact) one.
    for (i, r) in reports.iter().enumerate() {
        if r.batch_index != i {
            return Err(Failure::Shape {
                batch: i,
                detail: format!("batch_index {} at position {i}", r.batch_index),
            });
        }
    }
    for pair in reports.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        if next.rows_seen <= prev.rows_seen {
            return Err(Failure::Shape {
                batch: next.batch_index,
                detail: format!(
                    "rows_seen not increasing: {} -> {}",
                    prev.rows_seen, next.rows_seen
                ),
            });
        }
        if next.multiplicity >= prev.multiplicity {
            return Err(Failure::Shape {
                batch: next.batch_index,
                detail: format!(
                    "multiplicity not shrinking: {} -> {}",
                    prev.multiplicity, next.multiplicity
                ),
            });
        }
    }
    if let Some(last) = reports.last() {
        if !last.is_final() || last.rows_seen != last.total_rows {
            return Err(Failure::Shape {
                batch: last.batch_index,
                detail: format!(
                    "last report not final: {}/{} rows, batch {}/{}",
                    last.rows_seen, last.total_rows, last.batch_index, last.num_batches
                ),
            });
        }
        if (last.multiplicity - 1.0).abs() > 1e-12 {
            return Err(Failure::Shape {
                batch: last.batch_index,
                detail: format!("final multiplicity {} != 1", last.multiplicity),
            });
        }
    }
    for pair in reports.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        // A recomputation legitimately revises earlier classifications; the
        // no-retraction guarantee only holds between undisturbed batches.
        if next.recomputations != prev.recomputations {
            continue;
        }
        for (row, certain) in prev.row_certain.iter().enumerate() {
            if !certain {
                continue;
            }
            let key = row_key(prev, row, key_cols);
            let found = (0..next.table.num_rows()).find(|&r| row_key(next, r, key_cols) == key);
            match found {
                None => {
                    return Err(Failure::Retraction {
                        batch: next.batch_index,
                        detail: format!("certain row {key:?} disappeared"),
                    });
                }
                Some(r) if !next.row_certain[r] => {
                    return Err(Failure::Retraction {
                        batch: next.batch_index,
                        detail: format!("certain row {key:?} became uncertain"),
                    });
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Identity of output row `row` for the retraction check: its group-key
/// cells, or the row index for scalar (keyless) results.
fn row_key(report: &BatchReport, row: usize, key_cols: usize) -> Vec<gola_common::Value> {
    if key_cols == 0 {
        return vec![gola_common::Value::Int(row as i64)];
    }
    report.table.rows()[row]
        .iter()
        .take(key_cols)
        .cloned()
        .collect()
}

/// Bit-for-bit comparison of two full report sequences — the one report
/// comparator behind every determinism contract (reruns, thread counts,
/// schedule perturbation, observability, the scheduler, crash replay and
/// growing streams). On a mismatch returns the batch index and what
/// differed.
pub fn reports_identical(a: &[BatchReport], b: &[BatchReport]) -> Result<(), (usize, String)> {
    if a.len() != b.len() {
        return Err((0, format!("batch count {} vs {}", a.len(), b.len())));
    }
    for (ra, rb) in a.iter().zip(b) {
        let i = ra.batch_index;
        let fields = [
            ("batch index", ra.batch_index, rb.batch_index),
            ("num_batches", ra.num_batches, rb.num_batches),
            ("rows seen", ra.rows_seen, rb.rows_seen),
            ("total rows", ra.total_rows, rb.total_rows),
            ("|U|", ra.uncertain_tuples, rb.uncertain_tuples),
            ("recomputes", ra.recomputations, rb.recomputations),
        ];
        for (what, x, y) in fields {
            if x != y {
                return Err((i, format!("{what} {x} vs {y}")));
            }
        }
        if ra.multiplicity.to_bits() != rb.multiplicity.to_bits() {
            return Err((
                i,
                format!("multiplicity {} vs {}", ra.multiplicity, rb.multiplicity),
            ));
        }
        if ra.row_certain != rb.row_certain {
            return Err((i, "row certainty differs".into()));
        }
        if let Err(d) = rows_bit_equal_in_order(&ra.table, &rb.table) {
            return Err((i, d));
        }
        if ra.estimates.len() != rb.estimates.len() {
            return Err((i, "estimate count differs".into()));
        }
        for (ea, eb) in ra.estimates.iter().zip(&rb.estimates) {
            let (x, y) = (&ea.estimate, &eb.estimate);
            let cell = (ea.row, ea.col);
            if cell != (eb.row, eb.col) {
                return Err((i, "estimate cell ids differ".into()));
            }
            if x.value.to_bits() != y.value.to_bits() {
                return Err((i, format!("estimate {cell:?} {} vs {}", x.value, y.value)));
            }
            if x.fpc.to_bits() != y.fpc.to_bits() {
                return Err((i, format!("fpc of cell {cell:?} {} vs {}", x.fpc, y.fpc)));
            }
            if x.replicas.len() != y.replicas.len()
                || x.replicas
                    .iter()
                    .zip(&y.replicas)
                    .any(|(u, v)| u.to_bits() != v.to_bits())
            {
                return Err((i, format!("replicas of cell {cell:?}")));
            }
        }
    }
    Ok(())
}

/// [`reports_identical`] as an assertion, for tests: panics naming
/// `what`, the batch and the differing field.
#[track_caller]
pub fn assert_reports_identical(what: &str, a: &[BatchReport], b: &[BatchReport]) {
    if let Err((batch, detail)) = reports_identical(a, b) {
        panic!("{what}: batch {batch}: {detail}");
    }
}

/// In-order bit equality (determinism contract: same run → same row order).
fn rows_bit_equal_in_order(a: &Table, b: &Table) -> Result<(), String> {
    if a.num_rows() != b.num_rows() {
        return Err(format!("{} vs {} rows", a.num_rows(), b.num_rows()));
    }
    for (x, y) in a.rows().iter().zip(b.rows()) {
        for (u, v) in x.iter().zip(y.iter()) {
            match (u.as_f64(), v.as_f64()) {
                (Some(fu), Some(fv)) => {
                    if fu.to_bits() != fv.to_bits() {
                        return Err(format!("cell {fu} vs {fv}"));
                    }
                }
                _ => {
                    if u != v {
                        return Err(format!("cell {u} vs {v}"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Order-insensitive bit equality: the differential contract compares the
/// online answer against the batch engine's, whose ORDER BY tie order may
/// legitimately differ, so both sides are sorted on the full row first.
pub fn tables_bit_equal(online: &Table, exact: &Table) -> Result<(), String> {
    if online.num_rows() != exact.num_rows() {
        return Err(format!(
            "{} online rows vs {} exact rows",
            online.num_rows(),
            exact.num_rows()
        ));
    }
    let sort = |t: &Table| {
        let mut rows = t.rows().to_vec();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    };
    for (x, y) in sort(online).iter().zip(&sort(exact)) {
        for (u, v) in x.iter().zip(y.iter()) {
            match (u.as_f64(), v.as_f64()) {
                (Some(fu), Some(fv)) => {
                    if fu.to_bits() != fv.to_bits() {
                        return Err(format!("cell {fu} vs {fv} (row {x} vs {y})"));
                    }
                }
                _ => {
                    if u != v {
                        return Err(format!("cell {u} vs {v} (row {x} vs {y})"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Scale every float cell (the [`Fault::SkewOnline`] injection point).
fn skew_floats(table: &Table, factor: f64) -> Table {
    let rows = table
        .rows()
        .iter()
        .map(|r| {
            gola_common::Row::new(
                r.iter()
                    .map(|v| match v {
                        gola_common::Value::Float(f) => gola_common::Value::Float(f * factor),
                        other => other.clone(),
                    })
                    .collect(),
            )
        })
        .collect();
    Table::new_unchecked(Arc::clone(table.schema()), rows)
}
