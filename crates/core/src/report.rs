//! Per-batch progress reports — the OLA user interface — and the stage
//! that builds one: **report** materializes the root block's current
//! answer with bootstrap error bars.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use gola_bootstrap::{ConfidenceInterval, Estimate};
use gola_common::{Result, Row, Value};
use gola_expr::eval::eval;
use gola_expr::{Expr, Tri};
use gola_storage::{Partitioner, Table};

use crate::groups::{effective_states, having_pass, GroupEval};
use crate::runtime::{BlockEnv, BlockRuntime};

/// The error model of one output cell.
#[derive(Debug, Clone)]
pub struct CellEstimate {
    /// Row index in [`BatchReport::table`].
    pub row: usize,
    /// Column index.
    pub col: usize,
    pub estimate: Estimate,
}

/// Why a contracted query stopped at this report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractStop {
    /// Every estimated cell's CI half-width met the relative-error target.
    ErrorTargetMet,
    /// The wall-clock deadline would be crossed by another batch.
    /// Nondeterministic by nature: the stopping batch index depends on
    /// observed throughput.
    DeadlineReached,
    /// All mini-batches were processed; the answer is exact.
    Exhausted,
}

/// Progress of an `ERROR`/`WITHIN` contract, attached to every report of a
/// contracted run.
#[derive(Debug, Clone)]
pub struct ContractProgress {
    /// The contract being honored.
    pub contract: gola_plan::QueryContract,
    /// Worst (largest) achieved relative CI half-width across the
    /// estimated cells at this report, `half_width / |value|`. `None`
    /// while no cell has a usable interval (or for pure deadline runs
    /// before the first interval exists), and while any cell's estimate is
    /// exactly 0 with a non-degenerate interval: relative error is then
    /// undefined. An `ERROR` run whose estimate stays near 0 therefore
    /// never meets its target; it stops only when the data runs out, with
    /// [`ContractStop::Exhausted`] and the exact answer.
    pub achieved_rel_error: Option<f64>,
    /// Set on the report the run stops at; `None` while running.
    pub stop: Option<ContractStop>,
}

/// Wall-clock breakdown of one mini-batch, by executor stage. Stages are
/// summed across all lineage blocks of the batch; `recover` covers the full
/// failure-triggered replay (whose internal join/classify/fold work is *not*
/// double-counted into the other buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchTiming {
    /// Dimension joins + lineage projection of new tuples.
    pub join: Duration,
    /// Uncertain/deterministic classification of candidates.
    pub classify: Duration,
    /// Folding deterministic-true tuples into replicated aggregate states.
    pub fold: Duration,
    /// Publishing block outputs: effective states, bootstrap CIs,
    /// envelope checks.
    pub publish: Duration,
    /// Failure-triggered recomputation (replay of affected blocks).
    pub recover: Duration,
    /// Tuples of the streamed table ingested this batch.
    pub batch_rows: usize,
}

impl BatchTiming {
    /// Sum of all stage buckets.
    pub fn total(&self) -> Duration {
        self.join + self.classify + self.fold + self.publish + self.recover
    }

    /// Accumulate another batch's buckets (used for run-level summaries).
    pub fn accumulate(&mut self, other: &BatchTiming) {
        self.join += other.join;
        self.classify += other.classify;
        self.fold += other.fold;
        self.publish += other.publish;
        self.recover += other.recover;
        self.batch_rows += other.batch_rows;
    }
}

/// One refinement step: the approximate answer after a mini-batch, with its
/// error model and execution telemetry.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// 0-based index of the batch that was just processed.
    pub batch_index: usize,
    /// Total number of mini-batches `k`.
    pub num_batches: usize,
    /// Tuples of the streamed table processed so far (`|Dᵢ|`).
    pub rows_seen: usize,
    /// Total tuples of the streamed table (`|D|`).
    pub total_rows: usize,
    /// Multiplicity `m = |D| / |Dᵢ|` used for this answer.
    pub multiplicity: f64,
    /// The current approximate answer, shaped exactly like the final result.
    pub table: Table,
    /// Bootstrap estimates for every numeric output cell.
    pub estimates: Vec<CellEstimate>,
    /// Per output row: `true` if the row's membership in the result can no
    /// longer change — its group has deterministic support (it cannot
    /// vanish when uncertain tuples resolve) and any HAVING classified
    /// deterministically. The executor is held to this flag: breaking a
    /// previously reported claim counts as a recomputation, so a certain
    /// row never retracts between reports with equal
    /// [`BatchReport::recomputations`].
    pub row_certain: Vec<bool>,
    /// Confidence level of [`BatchReport::ci`]/primary interval.
    pub ci_level: f64,
    /// Total size of all uncertain sets after this batch (`Σ |Uᵢ|`).
    pub uncertain_tuples: usize,
    /// Cumulative failure-triggered recomputations so far.
    pub recomputations: usize,
    /// Wall-clock time of this batch (including any recomputation).
    pub batch_time: Duration,
    /// Wall-clock time since the query started.
    pub cumulative_time: Duration,
    /// Per-stage wall-clock breakdown of this batch.
    pub timing: BatchTiming,
    /// Contract progress; `None` for uncontracted runs.
    pub contract: Option<ContractProgress>,
}

impl BatchReport {
    /// The headline estimate: the first numeric cell (row 0), if any.
    pub fn primary(&self) -> Option<&Estimate> {
        self.estimates
            .iter()
            .find(|c| c.row == 0)
            .map(|c| &c.estimate)
    }

    /// Relative standard deviation of the headline estimate — the y-axis of
    /// the paper's Figure 3(a).
    pub fn primary_rel_stddev(&self) -> Option<f64> {
        self.primary().and_then(Estimate::rel_stddev)
    }

    /// Percentile-bootstrap CI of the headline estimate.
    pub fn ci(&self) -> Option<ConfidenceInterval> {
        self.primary().and_then(|e| e.ci_percentile(self.ci_level))
    }

    /// Estimate for a specific output cell, if it has one.
    pub fn estimate_at(&self, row: usize, col: usize) -> Option<&Estimate> {
        self.estimates
            .iter()
            .find(|c| c.row == row && c.col == col)
            .map(|c| &c.estimate)
    }

    /// `true` after the final batch (the answer is exact).
    pub fn is_final(&self) -> bool {
        self.batch_index + 1 == self.num_batches
    }

    /// Fraction of data processed so far.
    pub fn progress(&self) -> f64 {
        self.rows_seen as f64 / self.total_rows as f64
    }

    /// Worst achieved relative CI half-width across all estimated cells at
    /// `level`: `max_cells half_width / |value|`, where a degenerate
    /// interval counts 0. `None` if no cell has a percentile interval, or
    /// any cell's relative error is not finite: a zero value under a
    /// non-degenerate interval, or a NaN half-width (an overflowed SUM's
    /// `[∞, ∞]` interval), which `f64::max` would otherwise drop.
    pub fn achieved_rel_error(&self, level: f64) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for cell in &self.estimates {
            let half = cell.estimate.ci_percentile(level)?.half_width();
            let rel = if half == 0.0 {
                0.0
            } else {
                half / cell.estimate.value.abs()
            };
            if !rel.is_finite() {
                return None;
            }
            worst = Some(worst.map_or(rel, |w: f64| w.max(rel)));
        }
        worst
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[batch {}/{} | {:5.1}% | {:?}] ",
            self.batch_index + 1,
            self.num_batches,
            self.progress() * 100.0,
            self.cumulative_time,
        )?;
        match self.primary() {
            Some(e) => {
                write!(f, "{e}")?;
                if let Some(rsd) = e.rel_stddev() {
                    write!(f, " (rel σ {:.3}%)", rsd * 100.0)?;
                }
            }
            None => write!(f, "{} row(s)", self.table.num_rows())?,
        }
        if self.uncertain_tuples > 0 {
            write!(f, " |U|={}", self.uncertain_tuples)?;
        }
        if self.recomputations > 0 {
            write!(f, " recomputes={}", self.recomputations)?;
        }
        if let Some(c) = &self.contract {
            if let Some(rel) = c.achieved_rel_error {
                write!(f, " rel err {:.3}%", rel * 100.0)?;
            }
            match c.stop {
                Some(ContractStop::ErrorTargetMet) => write!(f, " [error target met]")?,
                Some(ContractStop::DeadlineReached) => write!(f, " [deadline reached]")?,
                Some(ContractStop::Exhausted) => write!(f, " [exhausted: exact]")?,
                None => {}
            }
        }
        Ok(())
    }
}

/// What the report stage reads besides the root block's [`BlockEnv`].
pub(crate) struct ReportInput<'a> {
    pub rt: &'a BlockRuntime,
    pub partitioner: &'a Partitioner,
    pub batch_index: usize,
    /// Global multiplicity `k/i`.
    pub m: f64,
    pub last: bool,
    pub uncertain_tuples: usize,
    pub recomputations: usize,
}

/// The report stage's output.
pub(crate) struct ReportOutput {
    /// Timing fields are left zeroed for the step driver to fill.
    pub report: BatchReport,
    /// Per output group (pre-ORDER BY/LIMIT): `(key, certain)` — the
    /// certainty claim made about it, so the driver can hold the executor
    /// to its earlier claims.
    pub claims: Vec<(Vec<Value>, bool)>,
    /// The global finite-population correction applied to the CIs.
    pub fpc: f64,
}

/// One output row before ORDER BY / LIMIT.
struct OutRow {
    row: Row,
    certain: bool,
    fpc: f64,
    /// Per output column: that cell's numeric value in each trial.
    replicas: Vec<Vec<f64>>,
}

/// Run the stage.
pub(crate) fn build(env: &BlockEnv<'_>, input: ReportInput<'_>) -> Result<ReportOutput> {
    let cb = env.cb;
    let ReportInput {
        rt,
        partitioner,
        batch_index,
        m,
        last,
        ..
    } = input;
    // Finite-population correction for the reported CIs: the stream is a
    // without-replacement sample of a known population, so replica spread
    // overstates the remaining uncertainty by 1/√(1 − n/N) (see the
    // gola-bootstrap ci module docs). At the final batch the factor is
    // pinned to exactly zero — the answer is the full-data answer — rather
    // than trusting `1 − n/N` to reach 0.0 in floats.
    //
    // `N` is the partitioner's **live** population, not a query-start
    // snapshot: under a growing stream an append strictly widens or holds
    // the correction, and `last` — the only thing that pins it to exactly
    // 0.0 — exists only once the stream is closed and drained.
    let correction = |seen: usize, total: usize| {
        if last || total == 0 {
            0.0
        } else {
            (1.0 - seen as f64 / total as f64).max(0.0).sqrt()
        }
    };
    let rows_seen = partitioner.rows_seen_through(batch_index);
    let total_rows = partitioner.total_rows();
    let fpc = correction(rows_seen, total_rows);
    let n_keys = cb.num_keys();

    // Per-stratum estimation (DESIGN.md §3.10): when the stream is
    // stratified on one of this block's group-key columns, each group is a
    // without-replacement sample of *its own stratum*, so its multiplicity
    // is `m_h = N_h / n_h` and its FPC is `sqrt(1 - n_h / N_h)` — an
    // exhausted (rare, oversampled) stratum reaches m_h = 1, fpc_h = 0 and
    // reports exactly, batches before the uniform design would get there.
    let strat_key_idx: Option<usize> = partitioner
        .stratify_column()
        .and_then(|col| (0..n_keys).find(|&i| cb.block.agg_row_schema.field(i).name == col));

    // Post-projection (identity when absent).
    let identity: Vec<Expr> = (0..cb.block.agg_row_schema.len()).map(Expr::col).collect();
    let post: &[Expr] = cb.block.post_project.as_deref().unwrap_or(&identity);
    // Which output columns carry sampling error at all?
    let has_error: Vec<bool> = post
        .iter()
        .map(|e| {
            let mut cols = Vec::new();
            e.collect_columns(&mut cols);
            cols.iter().any(|&c| c >= n_keys) || e.has_subquery_ref()
        })
        .collect();

    let mut rows: Vec<OutRow> = Vec::new();
    let mut claims: Vec<(Vec<Value>, bool)> = Vec::new();
    for group in &effective_states(env, rt)? {
        let key: &[Value] = &group.key;
        // Group-level multiplicity and FPC: per-stratum when this group's
        // key column is the stratification column, global otherwise (also
        // the fallback for keys no stratum matches, e.g. groups keyed on a
        // derived expression).
        let (gm, gfpc) = strat_key_idx
            .and_then(|ki| partitioner.stratum_rate(&key[ki], batch_index))
            .filter(|&(n_h, _)| n_h > 0)
            .map_or((m, fpc), |(n_h, cap_h)| {
                (cap_h as f64 / n_h as f64, correction(n_h, cap_h))
            });
        let g = GroupEval::new(env, key, &group.states, gm);
        // A group with no point support does not exist in the point answer
        // — the exact engine never creates it — and one failing HAVING at
        // point values is filtered: neither may appear as an output row.
        let exists =
            (group.supported || n_keys == 0) && having_pass(&cb.block.having, &g.point_ctx())?;
        // Row certainty — "membership in the result can no longer change"
        // — needs both legs. (a) The group has deterministic support: a
        // group fed only by uncertain tuples vanishes if they all resolve
        // false. (b) Any HAVING classifies deterministically true over the
        // aggregates' variation ranges. After the final batch the answer
        // is exact, so every row is certain.
        let certain = exists
            && (last
                || ((n_keys == 0 || group.settled)
                    && (cb.block.having.is_empty() || g.having_tri()? == Tri::True)));
        claims.push((key.to_vec(), certain));
        if !exists {
            continue;
        }
        let out_vals: Result<Vec<Value>> = post.iter().map(|e| eval(e, &g.point_ctx())).collect();
        let mut replicas: Vec<Vec<f64>> = vec![Vec::new(); post.len()];
        g.for_each_trial(|ctx| {
            for (c, e) in post.iter().enumerate() {
                if has_error[c] {
                    replicas[c].extend(eval(e, ctx)?.as_f64());
                }
            }
            Ok(())
        })?;
        rows.push(OutRow {
            row: Row::new(out_vals?),
            certain,
            fpc: gfpc,
            replicas,
        });
    }

    // ORDER BY, defaulting to the group key columns; then LIMIT.
    let by_keys: Vec<(usize, bool)> = (0..n_keys.min(post.len())).map(|i| (i, false)).collect();
    let order: &[(usize, bool)] = if cb.block.order_by.is_empty() {
        &by_keys
    } else {
        &cb.block.order_by
    };
    rows.sort_by(|a, b| {
        order
            .iter()
            .map(|&(idx, desc)| {
                let ord = a.row.get(idx).total_cmp(b.row.get(idx));
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows.truncate(cb.block.limit.unwrap_or(usize::MAX));

    let mut estimates = Vec::new();
    for (out_idx, out) in rows.iter_mut().enumerate() {
        for (c, reps) in out.replicas.iter_mut().enumerate() {
            if let Some(v) = out.row.get(c).as_f64().filter(|_| has_error[c]) {
                estimates.push(CellEstimate {
                    row: out_idx,
                    col: c,
                    estimate: Estimate::new(v, std::mem::take(reps)).with_fpc(out.fpc),
                });
            }
        }
    }
    let row_certain = rows.iter().map(|r| r.certain).collect();
    let table_rows = rows.into_iter().map(|r| r.row).collect();
    let report = BatchReport {
        batch_index,
        // While a growing stream is open, at least one more batch can
        // always appear — advertise it so `is_final()` never claims
        // finality for a schedule that can still grow. Static partitioners
        // are always finalized, so they are unaffected.
        num_batches: partitioner.num_batches() + usize::from(!partitioner.finalized()),
        rows_seen,
        total_rows,
        multiplicity: m,
        table: Table::new_unchecked(Arc::clone(&cb.block.output_schema), table_rows),
        estimates,
        row_certain,
        ci_level: env.config.ci_level,
        uncertain_tuples: input.uncertain_tuples,
        recomputations: input.recomputations,
        batch_time: Duration::ZERO,
        cumulative_time: Duration::ZERO,
        timing: BatchTiming::default(),
        contract: None,
    };
    Ok(ReportOutput {
        report,
        claims,
        fpc,
    })
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact float results")]
mod tests {
    use super::*;
    use gola_common::{row, DataType, Schema};
    use std::sync::Arc;

    fn sample() -> BatchReport {
        let schema = Arc::new(Schema::from_pairs(&[("avg_play", DataType::Float)]));
        let table = Table::new_unchecked(schema, vec![row![42.0f64]]);
        BatchReport {
            batch_index: 4,
            num_batches: 10,
            rows_seen: 500,
            total_rows: 1000,
            multiplicity: 2.0,
            table,
            estimates: vec![CellEstimate {
                row: 0,
                col: 0,
                estimate: Estimate::new(42.0, vec![40.0, 41.0, 42.0, 43.0, 44.0]),
            }],
            row_certain: vec![true],
            ci_level: 0.95,
            uncertain_tuples: 7,
            recomputations: 1,
            batch_time: Duration::from_millis(12),
            cumulative_time: Duration::from_millis(60),
            timing: BatchTiming::default(),
            contract: None,
        }
    }

    #[test]
    fn primary_and_ci() {
        let r = sample();
        assert_eq!(r.primary().unwrap().value, 42.0);
        assert!(r.primary_rel_stddev().unwrap() > 0.0);
        let ci = r.ci().unwrap();
        assert!(ci.contains(42.0));
        assert!(r.estimate_at(0, 0).is_some());
        assert!(r.estimate_at(0, 1).is_none());
    }

    #[test]
    fn timing_totals_and_throughput() {
        let mut t = BatchTiming {
            join: Duration::from_millis(10),
            classify: Duration::from_millis(20),
            fold: Duration::from_millis(30),
            publish: Duration::from_millis(25),
            recover: Duration::from_millis(15),
            batch_rows: 1000,
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        t.accumulate(&t.clone());
        assert_eq!(t.total(), Duration::from_millis(200));
        assert_eq!(t.batch_rows, 2000);
    }

    #[test]
    fn progress_and_final() {
        let r = sample();
        assert_eq!(r.progress(), 0.5);
        assert!(!r.is_final());
    }

    #[test]
    fn achieved_rel_error_is_worst_cell() {
        let mut r = sample();
        assert!(r.achieved_rel_error(0.95).unwrap() > 0.0);
        // A second, much looser cell dominates.
        r.estimates.push(CellEstimate {
            row: 0,
            col: 1,
            estimate: Estimate::new(10.0, vec![1.0, 5.0, 10.0, 15.0, 19.0]),
        });
        let loose = r.achieved_rel_error(0.95).unwrap();
        assert!(loose > 0.3, "{loose}");
        // A zero-valued cell with spread makes relative error undefined.
        r.estimates.push(CellEstimate {
            row: 0,
            col: 2,
            estimate: Estimate::new(0.0, vec![-1.0, 0.0, 1.0]),
        });
        assert!(r.achieved_rel_error(0.95).is_none());
    }

    #[test]
    fn display_mentions_contract_stop() {
        let mut r = sample();
        r.contract = Some(ContractProgress {
            contract: gola_plan::QueryContract::Error {
                target: 0.05,
                confidence: 0.95,
            },
            achieved_rel_error: Some(0.012),
            stop: Some(ContractStop::ErrorTargetMet),
        });
        let s = r.to_string();
        assert!(s.contains("rel err 1.200%"), "{s}");
        assert!(s.contains("[error target met]"), "{s}");
    }

    #[test]
    fn display_mentions_uncertainty_and_recomputes() {
        let s = sample().to_string();
        assert!(s.contains("batch 5/10"), "{s}");
        assert!(s.contains("|U|=7"), "{s}");
        assert!(s.contains("recomputes=1"), "{s}");
        assert!(s.contains("rel σ"), "{s}");
    }
}
