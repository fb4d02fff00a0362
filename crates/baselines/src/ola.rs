//! Classic online aggregation (Hellerstein, Haas & Wang, SIGMOD '97).
//!
//! Incremental running aggregates with closed-form CLT confidence
//! intervals. Exactly as the G-OLA paper notes, this only works for
//! *monotonic* SPJA queries: any nested aggregate subquery is rejected at
//! construction — the limitation G-OLA exists to lift.
//!
//! Interval formulas (per group, `n` = tuples folded into the group, `s` =
//! sample standard deviation of the aggregate argument, `m` = multiplicity,
//! `fpc = √(1 − n_seen/N)` the finite-population correction):
//!
//! * `AVG`:   mean ± z·s/√n · fpc
//! * `SUM`:   m·Σx ± z·m·s·√n · fpc
//! * `COUNT`: m·n ± z·m·√(n·(1 − n/n_seen)) · fpc

use std::sync::Arc;
use std::time::Duration;

use gola_common::timing::Stopwatch;

use gola_agg::AggKind;
use gola_bootstrap::ci::z_for_level;
use gola_bootstrap::ConfidenceInterval;
use gola_common::stats::Welford;
use gola_common::{Error, FxHashMap, Result, Row, Value};
use gola_core::compiled::CompiledBlock;
use gola_core::join::join_one;
use gola_core::runtime::{CtxMode, GroupCtx, TupleCtx};
use gola_expr::eval::{eval, eval_predicate, ExactContext};
use gola_expr::Expr;
use gola_plan::{AggCall, BlockRole, MetaPlan};
use gola_storage::{Catalog, Partitioner};

/// One interval-annotated output cell.
#[derive(Debug, Clone)]
pub struct OlaCell {
    pub row: usize,
    pub col: usize,
    pub estimate: f64,
    pub ci: ConfidenceInterval,
}

/// Per-batch output of classic OLA.
#[derive(Debug, Clone)]
pub struct OlaReport {
    pub batch_index: usize,
    pub num_batches: usize,
    pub rows_seen: usize,
    pub total_rows: usize,
    pub table: gola_storage::Table,
    pub cells: Vec<OlaCell>,
    pub batch_time: Duration,
    pub cumulative_time: Duration,
}

struct GroupState {
    /// Welford accumulator per aggregate argument.
    accs: Vec<Welford>,
}

/// Classic OLA executor for monotonic single-block aggregate queries.
pub struct ClassicOlaExecutor {
    compiled: CompiledBlock,
    partitioner: Arc<Partitioner>,
    dims: Vec<FxHashMap<Vec<Value>, Vec<Row>>>,
    groups: FxHashMap<Vec<Value>, GroupState>,
    ci_level: f64,
    batches_done: usize,
    rows_folded: usize,
    cumulative: Duration,
}

impl ClassicOlaExecutor {
    /// Build from a compiled meta plan. Errors when the query is not a
    /// single monotonic SPJA block or uses aggregates outside
    /// COUNT/SUM/AVG.
    pub fn new(
        catalog: &Catalog,
        meta: &MetaPlan,
        partitioner: Arc<Partitioner>,
        ci_level: f64,
    ) -> Result<ClassicOlaExecutor> {
        if meta.blocks.len() != 1 {
            return Err(Error::plan(
                "classic OLA only supports monotonic SPJA queries \
                 (no nested aggregate subqueries)",
            ));
        }
        let block = meta.root_block().clone();
        if block.role != BlockRole::Root || !block.having.is_empty() {
            return Err(Error::plan("classic OLA does not support HAVING"));
        }
        for AggCall { kind, .. } in &block.aggs {
            match kind {
                AggKind::Count | AggKind::Sum | AggKind::Avg => {}
                other => {
                    return Err(Error::plan(format!(
                        "classic OLA has closed-form intervals only for \
                         COUNT/SUM/AVG, not {other}"
                    )))
                }
            }
        }
        let compiled = CompiledBlock::new(block);
        let mut dims = Vec::with_capacity(compiled.block.dims.len());
        for d in &compiled.block.dims {
            let table = catalog.get(&d.table)?;
            let mut map: FxHashMap<Vec<Value>, Vec<Row>> = FxHashMap::default();
            for row in table.rows() {
                let ctx = ExactContext::new(&row);
                let key: Result<Vec<Value>> = d.dim_keys.iter().map(|k| eval(k, &ctx)).collect();
                let key = key?;
                if key.iter().any(Value::is_null) {
                    continue;
                }
                map.entry(key).or_default().push(row.clone());
            }
            dims.push(map);
        }
        Ok(ClassicOlaExecutor {
            compiled,
            partitioner,
            dims,
            groups: FxHashMap::default(),
            ci_level,
            batches_done: 0,
            rows_folded: 0,
            cumulative: Duration::ZERO,
        })
    }

    pub fn is_finished(&self) -> bool {
        self.batches_done == self.partitioner.num_batches()
    }

    pub fn step(&mut self) -> Result<OlaReport> {
        if self.is_finished() {
            return Err(Error::exec("all mini-batches already processed"));
        }
        let start = Stopwatch::start();
        let i = self.batches_done;
        let batch = self.partitioner.batch(i);
        let cb = &self.compiled;
        let no_pubs: Vec<gola_core::runtime::Published> = Vec::new();
        let mut joined_buf: Vec<Row> = Vec::new();
        for (_tid, fact_row) in batch.iter() {
            joined_buf.clear();
            join_one(&fact_row, &self.dims, &cb.block.dims, &mut joined_buf)?;
            'rows: for joined in &joined_buf {
                let ctx = TupleCtx {
                    row: joined.values(),
                    pubs: &no_pubs,
                    mode: CtxMode::Point,
                };
                for f in &cb.block.filters {
                    if !eval_predicate(f, &ctx)? {
                        continue 'rows;
                    }
                }
                let key: Result<Vec<Value>> =
                    cb.block.group_by.iter().map(|g| eval(g, &ctx)).collect();
                let state = self.groups.entry(key?).or_insert_with(|| GroupState {
                    accs: vec![Welford::new(); cb.block.aggs.len()],
                });
                for (acc, call) in state.accs.iter_mut().zip(&cb.block.aggs) {
                    if let Some(x) = eval(&call.arg, &ctx)?.as_f64() {
                        acc.add(x);
                    }
                }
                self.rows_folded += 1;
            }
        }

        let report = self.build_report(i)?;
        self.batches_done += 1;
        let elapsed = start.elapsed();
        self.cumulative += elapsed;
        let mut report = report;
        report.batch_time = elapsed;
        report.cumulative_time = self.cumulative;
        Ok(report)
    }

    fn build_report(&self, batch_index: usize) -> Result<OlaReport> {
        let cb = &self.compiled;
        let n_keys = cb.num_keys();
        let n_seen = self.partitioner.rows_seen_through(batch_index) as f64;
        let total = self.partitioner.total_rows() as f64;
        let m = total / n_seen;
        let fpc = (1.0 - n_seen / total).max(0.0).sqrt();
        let z = z_for_level(self.ci_level);

        let identity: Vec<Expr> = (0..cb.block.agg_row_schema.len()).map(Expr::col).collect();
        let post: &[Expr] = cb.block.post_project.as_deref().unwrap_or(&identity);
        let no_pubs: Vec<gola_core::runtime::Published> = Vec::new();

        let mut entries: Vec<(&Vec<Value>, &GroupState)> = self.groups.iter().collect();
        entries.sort_by(|a, b| {
            for (x, y) in a.0.iter().zip(b.0.iter()) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let empty_key: Vec<Value> = Vec::new();
        let empty_state = GroupState {
            accs: vec![Welford::new(); cb.block.aggs.len()],
        };
        if entries.is_empty() && n_keys == 0 {
            entries.push((&empty_key, &empty_state));
        }

        let mut rows = Vec::with_capacity(entries.len());
        let mut cells = Vec::new();
        for (out_idx, (key, state)) in entries.iter().enumerate() {
            // Point estimates + closed-form errors per aggregate.
            let mut agg_vals = Vec::with_capacity(state.accs.len());
            let mut agg_ses = Vec::with_capacity(state.accs.len());
            for (acc, call) in state.accs.iter().zip(&cb.block.aggs) {
                let n = acc.count;
                let s = acc.variance_sample().map(f64::sqrt).unwrap_or(0.0);
                let (v, se) = match call.kind {
                    AggKind::Avg => {
                        if n == 0.0 {
                            (Value::Null, 0.0)
                        } else {
                            (Value::Float(acc.mean), s / n.sqrt() * fpc)
                        }
                    }
                    AggKind::Sum => {
                        if n == 0.0 {
                            (Value::Null, 0.0)
                        } else {
                            (Value::Float(m * acc.mean * n), m * s * n.sqrt() * fpc)
                        }
                    }
                    AggKind::Count => {
                        let p = if n_seen > 0.0 { n / n_seen } else { 0.0 };
                        (
                            Value::Float(m * n),
                            m * (n * (1.0 - p)).max(0.0).sqrt() * fpc,
                        )
                    }
                    _ => unreachable!("validated in constructor"),
                };
                agg_vals.push(v);
                agg_ses.push(se);
            }
            let ctx = GroupCtx {
                keys: key,
                aggs: &agg_vals,
                agg_ranges: None,
                pubs: &no_pubs,
                mode: CtxMode::Point,
            };
            let out_vals: Result<Vec<Value>> = post.iter().map(|e| eval(e, &ctx)).collect();
            let out_vals = out_vals?;
            // Attach intervals only to cells that are exactly one aggregate
            // column (classic OLA's closed forms do not compose through
            // arbitrary projections).
            for (c, e) in post.iter().enumerate() {
                if let Expr::Column(idx) = e {
                    if *idx >= n_keys {
                        if let Some(v) = out_vals[c].as_f64() {
                            let se = agg_ses[*idx - n_keys];
                            cells.push(OlaCell {
                                row: out_idx,
                                col: c,
                                estimate: v,
                                ci: ConfidenceInterval {
                                    lo: v - z * se,
                                    hi: v + z * se,
                                    level: self.ci_level,
                                },
                            });
                        }
                    }
                }
            }
            rows.push(Row::new(out_vals));
        }
        let table = gola_storage::Table::new_unchecked(Arc::clone(&cb.block.output_schema), rows);
        Ok(OlaReport {
            batch_index,
            num_batches: self.partitioner.num_batches(),
            rows_seen: n_seen as usize,
            total_rows: total as usize,
            table,
            cells,
            batch_time: Duration::ZERO,
            cumulative_time: Duration::ZERO,
        })
    }
}
