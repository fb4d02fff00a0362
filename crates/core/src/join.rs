//! Stage **join**: one mini-batch in, the block's candidate tuples out.
//!
//! New fact tuples are joined against the broadcast dimensions, pass the
//! certain filters once, and are projected to lineage columns (paper
//! §3.3); the block's carried uncertain set is prepended, because every
//! batch re-examines it against fresher envelopes.

use gola_bootstrap::BootstrapSpec;
use gola_common::{row_u32, Bitmap, FxHashMap, Result, Row, Value};
use gola_expr::eval::{eval, eval_predicate, ExactContext};
use gola_expr::vector::predicate_mask;
use gola_expr::Expr;
use gola_storage::{Catalog, ColumnChunk, MiniBatch};

use crate::classify::CHUNK;
use crate::compiled::CompiledBlock;
use crate::pool::WorkerPool;
use crate::recover::GroupScope;
use crate::runtime::{BlockEnv, CtxMode, TupleCtx, TupleReader, UncertainSet};

/// Per dimension join of one block: join key → dimension rows.
pub(crate) type DimMaps = Vec<FxHashMap<Vec<Value>, Vec<Row>>>;

/// Hash every dimension table of `cb` on its join key (NULL keys never
/// match and are left out).
pub(crate) fn hash_dims(catalog: &Catalog, cb: &CompiledBlock) -> Result<DimMaps> {
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
    /// Per new candidate (those after the carried ones): the batch row it
    /// came from, which is where [`BatchWeights`] keeps its weights.
    pub batch_rows: Vec<u32>,
}

impl Candidates {
    /// The batch row of candidate `i`, `None` for a carried one.
    pub(crate) fn batch_row(&self, i: usize) -> Option<u32> {
        Some(self.batch_rows[i.checked_sub(self.carried_len)?])
    }

    /// Bootstrap weights of candidate `i`: a carried tuple's cached row,
    /// a new tuple's row of the step's shared matrix.
    pub(crate) fn weights_of<'a>(&'a self, fresh: &'a BatchWeights, i: usize) -> &'a [u32] {
        match self.batch_row(i) {
            Some(row) => fresh.row(row),
            None => &self.carried_weights[i * fresh.trials..][..fresh.trials],
        }
    }
}

/// The bootstrap weights of one mini-batch's tuples, generated at most
/// once per step however many blocks fold the tuple: weights are a pure
/// function of `(tuple id, trial, seed)`, so every block of every wave
/// reads the same rows. Rows are generated on first need — a wave asks for
/// the batch rows its blocks will fold or keep uncertain — so a query whose
/// certain filters drop most of a batch does not pay for the dropped rows.
/// Lives for one step (`batch_rows × trials × 4` bytes at most).
pub(crate) struct BatchWeights {
    trials: usize,
    /// Batch row → row of `data`, `NONE` until a block needs the tuple.
    slot: Vec<u32>,
    /// `generated × trials`, row-major.
    data: Vec<u32>,
    generated: usize,
}

const NONE: u32 = u32::MAX;

impl BatchWeights {
    pub(crate) fn new(batch: &MiniBatch, spec: &BootstrapSpec) -> BatchWeights {
        BatchWeights {
            trials: spec.trials as usize,
            slot: vec![NONE; batch.len()],
            data: Vec::new(),
            generated: 0,
        }
    }

    /// Generate the rows among `need` (batch rows) that no earlier call
    /// generated, [`CHUNK`] tuples per pool item.
    pub(crate) fn extend(
        &mut self,
        spec: &BootstrapSpec,
        pool: &WorkerPool,
        batch: &MiniBatch,
        need: impl Iterator<Item = u32>,
    ) {
        let mut ids: Vec<u64> = Vec::new();
        for row in need {
            let slot = &mut self.slot[row as usize];
            if *slot == NONE {
                *slot = row_u32(self.generated + ids.len());
                ids.push(batch.tuple_ids[row as usize]);
            }
        }
        self.generated += ids.len();
        if ids.is_empty() || self.trials == 0 {
            return;
        }
        let start = self.data.len();
        self.data.resize(start + ids.len() * self.trials, 0);
        let parts = self.data[start..].chunks_mut(CHUNK * self.trials);
        pool.map(ids.chunks(CHUNK).zip(parts), |(ids, out)| {
            spec.weights_fill(ids, out)
        });
    }

    fn row(&self, batch_row: u32) -> &[u32] {
        let slot = self.slot[batch_row as usize];
        debug_assert_ne!(
            slot, NONE,
            "weights of batch row {batch_row} never requested"
        );
        &self.data[slot as usize * self.trials..][..self.trials]
    }
}

/// Run the stage: `carried ++ new_candidates(batch)`, the new ones limited
/// to the groups in `scope` (a recovery's replay; every group otherwise).
pub(crate) fn join(
    env: &BlockEnv<'_>,
    batch: &MiniBatch,
    carried: UncertainSet,
    scope: &GroupScope,
) -> Result<Candidates> {
    let (batch_rows, new_chunk) = new_candidates(env, batch)?;
    let (batch_rows, new_chunk) = scope.select(env, batch_rows, new_chunk)?;
    let mut ids = carried.tuple_ids;
    let carried_len = ids.len();
    ids.extend(batch_rows.iter().map(|&r| batch.tuple_ids[r as usize]));
    Ok(Candidates {
        chunk: carried.chunk.concat(&new_chunk),
        ids,
        carried_len,
        carried_weights: carried.weights,
        batch_rows,
    })
}

/// Join one batch against the block's dimensions, apply the certain
/// filters, and project to lineage columns; returns each surviving
/// candidate's batch row beside the projection.
///
/// Without dimension joins this is vectorized: certain filters the kernel
/// supports become selection bitmaps, and the lineage projection of the
/// survivors is an `Arc` bump (all rows pass) or a typed gather — no `Row`
/// is ever materialized.
fn new_candidates(env: &BlockEnv<'_>, batch: &MiniBatch) -> Result<(Vec<u32>, ColumnChunk)> {
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
        let all_rows = || (0..row_u32(len)).collect();
        if mask.is_none() && fallback.is_empty() {
            return Ok((all_rows(), lineage));
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
            return Ok((all_rows(), lineage));
        }
        let rows = sel.iter().map(|&i| row_u32(i)).collect();
        return Ok((rows, lineage.gather(&sel)));
    }
    // Dimension joins stay row-at-a-time (broadcast hash join), then the
    // joined lineage rows transpose back into a columnar chunk.
    let mut batch_rows: Vec<u32> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut joined_buf: Vec<Row> = Vec::new();
    for (r, (_, fact_row)) in batch.iter().enumerate() {
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
            batch_rows.push(row_u32(r));
            rows.push(joined.project(&cb.lineage_cols));
        }
    }
    let chunk = ColumnChunk::from_rows_untyped(cb.lineage_cols.len(), &rows);
    Ok((batch_rows, chunk))
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
