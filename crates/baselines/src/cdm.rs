//! Classical delta maintenance (CDM).
//!
//! The paper's §3.1 baseline: aggregation is blocking, so when an inner
//! aggregate's value is refined, every decision the outer query made
//! becomes suspect and classical incremental view maintenance has no
//! recourse but to re-evaluate the outer query over *all previously seen
//! data*. Blocks whose predicates carry no subquery references stay
//! incremental (they are monotonic); every block with uncertain predicates
//! is recomputed from scratch each batch.
//!
//! CDM maintains the same bootstrap replicas as G-OLA so the per-tuple work
//! is comparable and the Figure 3(b) time ratio isolates the *algorithmic*
//! difference (O(|Dᵢ|) vs O(|ΔDᵢ| + |Uᵢ|) per batch).

use std::sync::Arc;
use std::time::Duration;

use gola_common::timing::Stopwatch;

use gola_agg::ReplicatedStates;
use gola_bootstrap::Estimate;
use gola_common::{Error, FxHashMap, Result, Row, Value};
use gola_core::compiled::CompiledBlock;
use gola_core::join::join_one;
use gola_core::report::{BatchReport, CellEstimate};
use gola_core::runtime::{
    CtxMode, GroupCtx, Published, PublishedMember, PublishedScalar, TupleCtx,
};
use gola_core::OnlineConfig;
use gola_expr::eval::{eval, eval_predicate, ExactContext};
use gola_expr::{Expr, RangeVal, Tri};
use gola_plan::{BlockRole, MetaPlan};
use gola_storage::{Catalog, Partitioner};

/// Classical-delta-maintenance executor with the same reporting interface
/// as [`gola_core::OnlineExecutor`].
pub struct CdmExecutor {
    config: OnlineConfig,
    meta: MetaPlan,
    compiled: Vec<CompiledBlock>,
    partitioner: Arc<Partitioner>,
    dims: Vec<Vec<FxHashMap<Vec<Value>, Vec<Row>>>>,
    /// Incrementally maintained group states (blocks without uncertain
    /// predicates).
    groups: Vec<FxHashMap<Vec<Value>, ReplicatedStates>>,
    published: Vec<Published>,
    /// All fact tuples seen so far — CDM must retain them to recompute.
    seen: Vec<(u64, Row)>,
    batches_done: usize,
    cumulative: Duration,
    /// Tuples re-processed due to outer-query recomputation (telemetry).
    pub reprocessed_tuples: u64,
}

impl CdmExecutor {
    pub fn new(
        catalog: &Catalog,
        meta: MetaPlan,
        partitioner: Arc<Partitioner>,
        config: OnlineConfig,
    ) -> Result<CdmExecutor> {
        config.validate()?;
        let compiled: Vec<CompiledBlock> = meta
            .blocks
            .iter()
            .cloned()
            .map(CompiledBlock::new)
            .collect();
        let mut dims = Vec::with_capacity(compiled.len());
        for cb in &compiled {
            let mut block_dims = Vec::with_capacity(cb.block.dims.len());
            for d in &cb.block.dims {
                let table = catalog.get(&d.table)?;
                let mut map: FxHashMap<Vec<Value>, Vec<Row>> = FxHashMap::default();
                for row in table.rows() {
                    let ctx = ExactContext::new(&row);
                    let key: Result<Vec<Value>> =
                        d.dim_keys.iter().map(|k| eval(k, &ctx)).collect();
                    let key = key?;
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    map.entry(key).or_default().push(row.clone());
                }
                block_dims.push(map);
            }
            dims.push(block_dims);
        }
        for cb in &compiled {
            if !cb.block.is_streaming {
                return Err(Error::plan(
                    "CDM baseline supports fully-streaming queries only",
                ));
            }
        }
        let groups = (0..compiled.len()).map(|_| FxHashMap::default()).collect();
        let published = (0..compiled.len()).map(|_| Published::default()).collect();
        Ok(CdmExecutor {
            config,
            meta,
            compiled,
            partitioner,
            dims,
            groups,
            published,
            seen: Vec::new(),
            batches_done: 0,
            cumulative: Duration::ZERO,
            reprocessed_tuples: 0,
        })
    }

    pub fn is_finished(&self) -> bool {
        self.batches_done == self.partitioner.num_batches()
    }

    pub fn batches_done(&self) -> usize {
        self.batches_done
    }

    /// Process the next batch. Non-monotonic blocks re-read all seen data.
    pub fn step(&mut self) -> Result<BatchReport> {
        if self.is_finished() {
            return Err(Error::exec("all mini-batches already processed"));
        }
        let start = Stopwatch::start();
        let i = self.batches_done;
        let batch = self.partitioner.batch(i);
        let m = self.partitioner.multiplicity_after(i);
        let last = i + 1 == self.partitioner.num_batches();
        let prev_seen = self.seen.len();
        self.seen
            .extend(batch.tuple_ids.iter().copied().zip(batch.rows()));

        let order = self.meta.order.clone();
        for &b in &order {
            let incremental = !self.compiled[b].block.has_uncertain_predicates();
            let range = if incremental {
                // Monotonic: fold only the new tuples.
                prev_seen..self.seen.len()
            } else {
                // Non-monotonic: the inner aggregate moved → recompute over
                // everything (the classical behaviour).
                self.groups[b].clear();
                self.reprocessed_tuples += self.seen.len() as u64;
                0..self.seen.len()
            };
            self.fold_range(b, range)?;
            if self.compiled[b].block.role != BlockRole::Root {
                self.publish_block(b, m, last)?;
            }
        }

        let mut report = self.build_report(i, m)?;
        self.batches_done += 1;
        let elapsed = start.elapsed();
        self.cumulative += elapsed;
        report.batch_time = elapsed;
        report.cumulative_time = self.cumulative;
        Ok(report)
    }

    fn fold_range(&mut self, b: usize, range: std::ops::Range<usize>) -> Result<()> {
        let mut groups = std::mem::take(&mut self.groups[b]);
        let cb = &self.compiled[b];
        let trials = self.config.bootstrap.trials;
        let mut joined_buf: Vec<Row> = Vec::new();
        for idx in range {
            let (tid, fact_row) = &self.seen[idx];
            joined_buf.clear();
            join_one(fact_row, &self.dims[b], &cb.block.dims, &mut joined_buf)?;
            'rows: for joined in &joined_buf {
                let point_ctx = TupleCtx {
                    row: joined.values(),
                    pubs: &self.published,
                    mode: CtxMode::Point,
                };
                for f in &cb.certain_filters {
                    if !eval_predicate(f, &point_ctx)? {
                        continue 'rows;
                    }
                }
                let key: Result<Vec<Value>> = cb
                    .block
                    .group_by
                    .iter()
                    .map(|g| eval(g, &point_ctx))
                    .collect();
                let args: Result<Vec<Value>> = cb
                    .block
                    .aggs
                    .iter()
                    .map(|a| eval(&a.arg, &point_ctx))
                    .collect();
                let args = args?;
                let states = groups
                    .entry(key?)
                    .or_insert_with(|| ReplicatedStates::new(&cb.agg_kinds, trials));
                // Point inclusion under the current inner estimates.
                let mut pass = true;
                for f in &cb.uncertain_filters {
                    if !eval_predicate(f, &point_ctx)? {
                        pass = false;
                        break;
                    }
                }
                if pass {
                    states.update_main(&args);
                }
                // Per-trial inclusion with that trial's inner values.
                for t in 0..trials {
                    let w = self.config.bootstrap.weight(*tid, t);
                    if w == 0 {
                        continue;
                    }
                    let trial_ctx = TupleCtx {
                        row: joined.values(),
                        pubs: &self.published,
                        mode: CtxMode::Trial(t),
                    };
                    let mut pass = true;
                    for f in &cb.uncertain_filters {
                        if !eval_predicate(f, &trial_ctx)? {
                            pass = false;
                            break;
                        }
                    }
                    if pass {
                        states.update_replica(t, &args, w as f64);
                    }
                }
            }
        }
        self.groups[b] = groups;
        Ok(())
    }

    fn publish_block(&mut self, b: usize, m: f64, last: bool) -> Result<()> {
        let cb = &self.compiled[b];
        let groups = &self.groups[b];
        let trials = self.config.bootstrap.trials;
        let n_aggs = cb.agg_kinds.len();
        let mut out = Published {
            live: !last,
            ..Default::default()
        };
        let empty;
        #[expect(
            clippy::disallowed_methods,
            reason = "published into maps; no order escapes"
        )]
        let iter: Box<dyn Iterator<Item = (&Vec<Value>, &ReplicatedStates)>> =
            if groups.is_empty() && cb.num_keys() == 0 {
                empty = ReplicatedStates::new(&cb.agg_kinds, trials);
                static EMPTY_KEY: Vec<Value> = Vec::new();
                Box::new(std::iter::once((&EMPTY_KEY, &empty)))
            } else {
                Box::new(groups.iter())
            };
        for (key, states) in iter {
            let point_aggs: Vec<Value> = (0..n_aggs).map(|j| states.value(j, m)).collect();
            match cb.block.role {
                BlockRole::Scalar => {
                    let post = &cb.block.post_project.as_ref().expect("scalar projection")[0];
                    let ctx = GroupCtx {
                        keys: key,
                        aggs: &point_aggs,
                        agg_ranges: None,
                        pubs: &self.published,
                        mode: CtxMode::Point,
                    };
                    let value = eval(post, &ctx)?;
                    let mut trial_vals = Vec::with_capacity(trials as usize);
                    for t in 0..trials {
                        let agg_t: Vec<Value> =
                            (0..n_aggs).map(|j| states.trial_value(j, t, m)).collect();
                        let ctx = GroupCtx {
                            keys: key,
                            aggs: &agg_t,
                            agg_ranges: None,
                            pubs: &self.published,
                            mode: CtxMode::Trial(t),
                        };
                        trial_vals.push(eval(post, &ctx)?);
                    }
                    out.scalars.insert(
                        key.as_slice().into(),
                        PublishedScalar {
                            value,
                            trials: trial_vals,
                            // CDM has no envelopes — it never classifies.
                            env: RangeVal::Unknown,
                            used: std::sync::atomic::AtomicBool::new(false),
                        },
                    );
                }
                BlockRole::Membership => {
                    let point = self.having_pass(cb, key, &point_aggs, CtxMode::Point)?;
                    let mut trial_pass = Vec::with_capacity(trials as usize);
                    for t in 0..trials {
                        let agg_t: Vec<Value> =
                            (0..n_aggs).map(|j| states.trial_value(j, t, m)).collect();
                        trial_pass.push(self.having_pass(cb, key, &agg_t, CtxMode::Trial(t))?);
                    }
                    out.members.insert(
                        key.as_slice().into(),
                        PublishedMember {
                            point,
                            trials: trial_pass,
                            tri: Tri::Maybe,
                            relied: std::sync::atomic::AtomicU8::new(0),
                        },
                    );
                }
                BlockRole::Root => unreachable!(),
            }
        }
        self.published[b] = out;
        Ok(())
    }

    fn having_pass(
        &self,
        cb: &CompiledBlock,
        keys: &[Value],
        aggs: &[Value],
        mode: CtxMode,
    ) -> Result<bool> {
        let ctx = GroupCtx {
            keys,
            aggs,
            agg_ranges: None,
            pubs: &self.published,
            mode,
        };
        for h in &cb.block.having {
            if !eval_predicate(h, &ctx)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn build_report(&self, batch_index: usize, m: f64) -> Result<BatchReport> {
        let root = self.meta.root;
        let cb = &self.compiled[root];
        let trials = self.config.bootstrap.trials;
        let n_keys = cb.num_keys();
        let n_aggs = cb.agg_kinds.len();
        let identity: Vec<Expr> = (0..cb.block.agg_row_schema.len()).map(Expr::col).collect();
        let post: &[Expr] = cb.block.post_project.as_deref().unwrap_or(&identity);
        let has_error: Vec<bool> = post
            .iter()
            .map(|e| {
                let mut cols = Vec::new();
                e.collect_columns(&mut cols);
                cols.iter().any(|&c| c >= n_keys) || e.has_subquery_ref()
            })
            .collect();

        let empty;
        let groups = &self.groups[root];
        #[expect(
            clippy::disallowed_methods,
            reason = "rows are sorted by group key below; this baseline is outside the \
                      determinism contract, so ORDER BY ties may keep hash order"
        )]
        let iter: Box<dyn Iterator<Item = (&Vec<Value>, &ReplicatedStates)>> =
            if groups.is_empty() && n_keys == 0 {
                empty = ReplicatedStates::new(&cb.agg_kinds, trials);
                static EMPTY_KEY: Vec<Value> = Vec::new();
                Box::new(std::iter::once((&EMPTY_KEY, &empty)))
            } else {
                Box::new(groups.iter())
            };

        let mut rows: Vec<Row> = Vec::new();
        let mut cell_replicas: Vec<Vec<Vec<f64>>> = Vec::new();
        for (key, states) in iter {
            let point_aggs: Vec<Value> = (0..n_aggs).map(|j| states.value(j, m)).collect();
            if !self.having_pass(cb, key, &point_aggs, CtxMode::Point)? {
                continue;
            }
            let ctx = GroupCtx {
                keys: key,
                aggs: &point_aggs,
                agg_ranges: None,
                pubs: &self.published,
                mode: CtxMode::Point,
            };
            let out_vals: Result<Vec<Value>> = post.iter().map(|e| eval(e, &ctx)).collect();
            let mut col_reps: Vec<Vec<f64>> = vec![Vec::new(); post.len()];
            for t in 0..trials {
                let agg_t: Vec<Value> = (0..n_aggs).map(|j| states.trial_value(j, t, m)).collect();
                let ctx = GroupCtx {
                    keys: key,
                    aggs: &agg_t,
                    agg_ranges: None,
                    pubs: &self.published,
                    mode: CtxMode::Trial(t),
                };
                for (c, e) in post.iter().enumerate() {
                    if has_error[c] {
                        if let Some(x) = eval(e, &ctx)?.as_f64() {
                            col_reps[c].push(x);
                        }
                    }
                }
            }
            rows.push(Row::new(out_vals?));
            cell_replicas.push(col_reps);
        }

        let mut perm: Vec<usize> = (0..rows.len()).collect();
        if !cb.block.order_by.is_empty() {
            let keys = &cb.block.order_by;
            perm.sort_by(|&a, &b| {
                for &(idx, desc) in keys.iter() {
                    let ord = rows[a].get(idx).total_cmp(rows[b].get(idx));
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        } else if n_keys > 0 {
            perm.sort_by(|&a, &b| {
                for idx in 0..n_keys.min(rows[a].len()) {
                    let ord = rows[a].get(idx).total_cmp(rows[b].get(idx));
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = cb.block.limit {
            perm.truncate(n);
        }

        // Finite-population correction, same convention as the G-OLA
        // executor: √(1 − n/N), pinned to exactly 0 at the final batch so
        // the last CI collapses to a point.
        let rows_seen = self.partitioner.rows_seen_through(batch_index);
        let total_rows = self.partitioner.total_rows();
        let last = batch_index + 1 == self.partitioner.num_batches();
        let fpc = if last || total_rows == 0 {
            0.0
        } else {
            (1.0 - rows_seen as f64 / total_rows as f64).max(0.0).sqrt()
        };
        let mut table_rows = Vec::with_capacity(perm.len());
        let mut estimates = Vec::new();
        for (out_idx, &src) in perm.iter().enumerate() {
            table_rows.push(rows[src].clone());
            for (c, reps) in cell_replicas[src].iter().enumerate() {
                if has_error[c] {
                    if let Some(v) = rows[src].get(c).as_f64() {
                        estimates.push(CellEstimate {
                            row: out_idx,
                            col: c,
                            estimate: Estimate::new(v, reps.clone()).with_fpc(fpc),
                        });
                    }
                }
            }
        }
        let row_certain = vec![false; table_rows.len()];
        let table =
            gola_storage::Table::new_unchecked(Arc::clone(&cb.block.output_schema), table_rows);
        Ok(BatchReport {
            batch_index,
            num_batches: self.partitioner.num_batches(),
            rows_seen,
            total_rows,
            multiplicity: m,
            table,
            estimates,
            row_certain,
            ci_level: self.config.ci_level,
            uncertain_tuples: 0,
            recomputations: 0,
            batch_time: Duration::ZERO,
            cumulative_time: Duration::ZERO,
            timing: Default::default(),
            contract: None,
        })
    }
}
