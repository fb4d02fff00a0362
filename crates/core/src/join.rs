//! Stage **join**: one mini-batch in, the block's candidate tuples out.
//!
//! New fact tuples are joined against the broadcast dimensions, pass the
//! certain filters once, and are projected to lineage columns (paper
//! §3.3); the block's carried uncertain set is prepended, because every
//! batch re-examines it against fresher envelopes.

use gola_bootstrap::BootstrapSpec;
use gola_common::{Bitmap, FxHashMap, Result, Row, Value};
use gola_expr::eval::{eval, eval_predicate, ExactContext};
use gola_expr::vector::predicate_mask;
use gola_expr::Expr;
use gola_storage::{Catalog, ColumnChunk, MiniBatch};

use crate::compiled::CompiledBlock;
use crate::runtime::{BlockEnv, CtxMode, TupleCtx, TupleReader, UncertainSet};

/// Per dimension join of one block: join key → dimension rows.
pub(crate) type DimMaps = Vec<FxHashMap<Vec<Value>, Vec<Row>>>;

/// Hash every dimension table of `cb` on its join key (NULL keys never
/// match and are left out).
pub(crate) fn hash_dims(catalog: &Catalog, cb: &CompiledBlock) -> Result<DimMaps> {
    // golint: allow(hash-order-leak) -- `block.dims` is a Vec of join specs;
    // the name collides with the hash-typed `dims` fields
    let specs = cb.block.dims.iter();
    specs
        .map(|d| {
            let mut map: FxHashMap<Vec<Value>, Vec<Row>> = FxHashMap::default();
            for row in catalog.get(&d.table)?.rows() {
                let ctx = ExactContext::new(&row);
                let key: Vec<Value> = d
                    .dim_keys
                    .iter()
                    .map(|k| eval(k, &ctx))
                    .collect::<Result<_>>()?;
                if !key.iter().any(Value::is_null) {
                    map.entry(key).or_default().push(row);
                }
            }
            Ok(map)
        })
        .collect()
}

/// The join stage's output: carried uncertain tuples followed by the
/// batch's new tuples, column-major over the lineage columns.
pub(crate) struct Candidates {
    pub chunk: ColumnChunk,
    /// Stable tuple id per candidate.
    pub ids: Vec<u64>,
    /// The first `carried_len` candidates came from the uncertain set and
    /// keep the bootstrap weights cached there (`carried_len × trials`).
    pub carried_len: usize,
    pub carried_weights: Vec<u32>,
}

impl Candidates {
    /// Bootstrap weights for `selection` (candidate indices, walked once
    /// in this order): the batched kernel runs over the new tuples among
    /// them only — carried ones already have theirs.
    pub(crate) fn weights_of<'a>(
        &'a self,
        spec: &BootstrapSpec,
        selection: impl Iterator<Item = usize>,
        fresh: &'a mut Vec<u32>,
    ) -> CandWeights<'a> {
        let new_ids: Vec<u64> = selection
            .filter(|&i| i >= self.carried_len)
            .map(|i| self.ids[i])
            .collect();
        spec.weights_batch(&new_ids, fresh);
        CandWeights {
            cand: self,
            fresh,
            stride: spec.trials as usize,
            next_fresh: 0,
        }
    }
}

/// Cursor over the weights of a [`Candidates::weights_of`] selection.
pub(crate) struct CandWeights<'a> {
    cand: &'a Candidates,
    fresh: &'a [u32],
    stride: usize,
    next_fresh: usize,
}

impl<'a> CandWeights<'a> {
    /// Weights of candidate `i`, which must be the selection's next one: a
    /// carried tuple indexes its cached slice by position, a new one
    /// consumes the kernel's output in selection order.
    pub(crate) fn next(&mut self, i: usize) -> &'a [u32] {
        let (src, at) = if i < self.cand.carried_len {
            (self.cand.carried_weights.as_slice(), i)
        } else {
            self.next_fresh += 1;
            (self.fresh, self.next_fresh - 1)
        };
        &src[at * self.stride..(at + 1) * self.stride]
    }
}

/// Run the stage: `carried ++ new_candidates(batch)`.
pub(crate) fn join(
    env: &BlockEnv<'_>,
    batch: &MiniBatch,
    carried: UncertainSet,
) -> Result<Candidates> {
    let (new_ids, new_chunk) = new_candidates(env, batch)?;
    let mut ids = carried.tuple_ids;
    let carried_len = ids.len();
    ids.extend_from_slice(&new_ids);
    Ok(Candidates {
        chunk: carried.chunk.concat(&new_chunk),
        ids,
        carried_len,
        carried_weights: carried.weights,
    })
}

/// Join one batch against the block's dimensions, apply the certain
/// filters, and project to lineage columns.
///
/// Without dimension joins this is vectorized: certain filters the kernel
/// supports become selection bitmaps, and the lineage projection of the
/// survivors is an `Arc` bump (all rows pass) or a typed gather — no `Row`
/// is ever materialized.
fn new_candidates(env: &BlockEnv<'_>, batch: &MiniBatch) -> Result<(Vec<u64>, ColumnChunk)> {
    let cb = env.cb;
    if cb.block.dims.is_empty() {
        let chunk = batch.chunk();
        let len = chunk.len();
        let lineage = chunk.project(&cb.lineage_cols);
        let mut mask: Option<Bitmap> = None;
        let mut fallback: Vec<&Expr> = Vec::new();
        for f in &cb.certain_filters {
            match (predicate_mask(f, chunk.columns(), len), mask.as_mut()) {
                (Some(m), Some(acc)) => acc.and_with(&m),
                (Some(m), None) => mask = Some(m),
                (None, _) => fallback.push(f),
            }
        }
        if mask.is_none() && fallback.is_empty() {
            return Ok((batch.tuple_ids.clone(), lineage));
        }
        let mut reader = TupleReader::new(chunk, env.pubs);
        let mut sel: Vec<usize> = Vec::new();
        'rows: for i in 0..len {
            if mask.as_ref().is_some_and(|m| !m.get(i)) {
                continue;
            }
            for &f in &fallback {
                if !eval_predicate(f, &reader.ctx(i, CtxMode::Point))? {
                    continue 'rows;
                }
            }
            sel.push(i);
        }
        if sel.len() == len {
            return Ok((batch.tuple_ids.clone(), lineage));
        }
        let ids = sel.iter().map(|&i| batch.tuple_ids[i]).collect();
        return Ok((ids, lineage.gather(&sel)));
    }
    // Dimension joins stay row-at-a-time (broadcast hash join), then the
    // joined lineage rows transpose back into a columnar chunk.
    let mut ids: Vec<u64> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut joined_buf: Vec<Row> = Vec::new();
    for (tid, fact_row) in batch.iter() {
        joined_buf.clear();
        join_one(&fact_row, env.dims, &cb.block.dims, &mut joined_buf)?;
        'joined: for joined in &joined_buf {
            let ctx = TupleCtx {
                row: joined.values(),
                pubs: env.pubs,
                mode: CtxMode::Point,
            };
            for f in &cb.certain_filters {
                if !eval_predicate(f, &ctx)? {
                    continue 'joined;
                }
            }
            ids.push(tid);
            rows.push(joined.project(&cb.lineage_cols));
        }
    }
    let chunk = ColumnChunk::from_rows_untyped(cb.lineage_cols.len(), &rows);
    Ok((ids, chunk))
}

/// Join one fact row against the block's broadcast dimensions, appending
/// every joined output row to `out`. Shared with the baseline executors.
pub fn join_one(
    fact_row: &Row,
    dim_maps: &[FxHashMap<Vec<Value>, Vec<Row>>],
    dims: &[gola_plan::DimJoin],
    out: &mut Vec<Row>,
) -> Result<()> {
    out.push(fact_row.clone());
    for (d, map) in dims.iter().zip(dim_maps) {
        let mut next = Vec::with_capacity(out.len());
        for acc in out.iter() {
            let ctx = ExactContext::new(acc);
            let key: Result<Vec<Value>> = d.fact_keys.iter().map(|k| eval(k, &ctx)).collect();
            let key = key?;
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(matches) = map.get(&key) {
                for mrow in matches {
                    next.push(acc.concat(mrow));
                }
            }
        }
        *out = next;
    }
    Ok(())
}
