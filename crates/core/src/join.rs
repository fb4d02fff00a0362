//! Stage **join**: one mini-batch in, the block's candidate tuples out.
//!
//! New fact tuples are joined against the broadcast dimensions, pass the
//! certain filters once, and are projected to lineage columns (paper
//! §3.3); the block's carried uncertain set is prepended, because every
//! batch re-examines it against fresher envelopes. Every new candidate is
//! then labelled with its group id and correlation-key ids from the
//! block's [`Labels`], the one place a key is hashed.

use std::sync::Arc;

use gola_bootstrap::BootstrapSpec;
use gola_common::timing::Stopwatch;
use gola_common::{row_u32, Bitmap, Result};
use gola_engine::HashIndex;
use gola_expr::eval::{eval_predicate, NoResolver};
use gola_expr::vector::predicate_mask;
use gola_expr::Expr;
use gola_plan::Block;
use gola_storage::{Catalog, ColumnChunk, MiniBatch, Partitioner};

use crate::classify::CHUNK;
use crate::metrics;
use crate::pool::{Task, WorkerPool};
use crate::runtime::{BlockEnv, CtxMode, Labels, TupleReader, UncertainSet};

/// Index every dimension table of `block` on its join keys.
pub(crate) fn index_dims(catalog: &Catalog, block: &Block) -> Result<Vec<HashIndex>> {
    let build = |d: &gola_plan::DimJoin| {
        HashIndex::build(&*catalog.get(&d.table)?, &d.dim_keys, &NoResolver)
    };
    block.dims.iter().map(build).collect()
}

/// Join `chunk` against `block`'s dimensions in turn, through their
/// `indexes`: the chunk row of each joined row (`None` when the block has
/// no dimension, so every row is its own), and the joined chunk (fact
/// columns, then each dimension's). Join keys read no subquery.
pub(crate) fn join_dims(
    block: &Block,
    indexes: &[HashIndex],
    chunk: &ColumnChunk,
) -> Result<(Option<Vec<usize>>, ColumnChunk)> {
    let mut rows: Option<Vec<usize>> = None;
    let mut joined = chunk.clone();
    for (d, index) in block.dims.iter().zip(indexes) {
        let (left, next) = index.probe(&joined, &d.fact_keys, &NoResolver)?;
        rows = Some(match rows {
            Some(r) => left.iter().map(|&i| r[i]).collect(),
            None => left,
        });
        joined = next;
    }
    Ok((rows, joined))
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
    pub carried_weights: Vec<u8>,
    /// Correlation-key ids, `× conjuncts` (see [`UncertainSet::key_ids`]):
    /// the carried candidates' cached ones, then the new candidates' as
    /// [`label`] names them.
    pub key_ids: Vec<u32>,
    /// Group ids likewise, one per candidate (see
    /// [`UncertainSet::group_ids`]).
    pub group_ids: Vec<u32>,
    /// Per new candidate (those after the carried ones): the batch row it
    /// came from, which is where [`BatchWeights`] keeps its weights.
    pub batch_rows: Vec<u32>,
}

impl Candidates {
    /// The batch row of candidate `i`, `None` for a carried one.
    pub(crate) fn batch_row(&self, i: usize) -> Option<u32> {
        Some(self.batch_rows[i.checked_sub(self.carried_len)?])
    }

    /// Candidate `i`'s correlation-key id for conjunct `k` of `conjuncts`.
    pub(crate) fn key_id(&self, i: usize, k: usize, conjuncts: usize) -> u32 {
        self.key_ids[i * conjuncts + k]
    }

    /// Bootstrap weights of candidate `i`: a carried tuple's cached row,
    /// a new tuple's row of the step's shared matrix.
    pub(crate) fn weights_of<'a>(&'a self, fresh: &'a BatchWeights, i: usize) -> &'a [u8] {
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
/// Lives for one step (`batch_rows × trials` bytes at most).
pub(crate) struct BatchWeights {
    trials: usize,
    /// Batch row → row of `data`, `NONE` until a block needs the tuple.
    slot: Vec<u32>,
    /// `generated × trials`, row-major.
    data: Vec<u8>,
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

    /// Every row's weights at once, from `parts` in batch-row order.
    fn complete(trials: usize, rows: usize, parts: impl IntoIterator<Item = Vec<u8>>) -> Self {
        let mut data = Vec::with_capacity(rows * trials);
        parts.into_iter().for_each(|part| data.extend(part));
        BatchWeights {
            trials,
            slot: (0..row_u32(rows)).collect(),
            data,
            generated: rows,
        }
    }

    fn row(&self, batch_row: u32) -> &[u8] {
        let slot = self.slot[batch_row as usize];
        debug_assert_ne!(
            slot, NONE,
            "weights of batch row {batch_row} never requested"
        );
        &self.data[slot as usize * self.trials..][..self.trials]
    }
}

/// One mini-batch's gather and bootstrap weights, running on the pool
/// ahead of the step that reads them: one job gathers the batch, one per
/// [`CHUNK`] tuples fills their rows of the weight matrix. Weights are a
/// pure function of `(tuple id, trial, seed)`, so a prefetched matrix is
/// the one the step would generate on demand.
pub(crate) struct Prefetch {
    pub index: usize,
    batch: Task<MiniBatch>,
    weights: Vec<Task<Vec<u8>>>,
}

impl Prefetch {
    /// Submit batch `index`'s jobs to `pool`.
    pub(crate) fn submit(
        pool: &WorkerPool,
        partitioner: &Arc<Partitioner>,
        spec: &BootstrapSpec,
        index: usize,
    ) -> Prefetch {
        let source = Arc::clone(partitioner);
        let batch = pool.spawn(move || source.batch(index));
        // No replicas, no weights: `BatchWeights::extend` skips them too.
        let ids = match spec.trials {
            0 => Vec::new(),
            _ => partitioner.tuple_ids(index),
        };
        let spec = *spec;
        let weights = (ids.chunks(CHUNK).map(<[u64]>::to_vec))
            .map(|ids| {
                pool.spawn(move || {
                    let mut out = vec![0; ids.len() * spec.trials as usize];
                    spec.weights_fill(&ids, &mut out);
                    out
                })
            })
            .collect();
        Prefetch {
            index,
            batch,
            weights,
        }
    }

    /// The batch and its whole weight matrix. The calling thread runs every
    /// job no worker has started, then waits for the ones still running.
    pub(crate) fn join(self, spec: &BootstrapSpec) -> (MiniBatch, BatchWeights) {
        self.batch.try_run();
        self.weights.iter().for_each(Task::try_run);
        let wait = gola_obs::enabled().then(Stopwatch::start);
        let batch = self.batch.join();
        let parts: Vec<Vec<u8>> = self.weights.into_iter().map(Task::join).collect();
        let weights = BatchWeights::complete(spec.trials as usize, batch.len(), parts);
        if let Some(wait) = wait {
            metrics::prefetch_wait().observe_duration(wait.elapsed());
            metrics::prefetch_batches().inc();
            metrics::prefetch_weight_cells().add(weights.data.len() as u64);
        }
        (batch, weights)
    }
}

/// Run the stage: `carried ++ new_candidates(batch)`, the new candidates
/// labelled from (and into) `labels`.
pub(crate) fn join(
    env: &BlockEnv<'_>,
    batch: &MiniBatch,
    carried: UncertainSet,
    labels: &mut Labels,
) -> Result<Candidates> {
    let (batch_rows, new_chunk) = new_candidates(env, batch)?;
    let mut ids = carried.tuple_ids;
    let carried_len = ids.len();
    ids.extend(batch_rows.iter().map(|&r| batch.tuple_ids[r as usize]));
    let mut cand = Candidates {
        chunk: carried.chunk.concat(&new_chunk),
        ids,
        carried_len,
        carried_weights: carried.weights,
        key_ids: carried.key_ids,
        group_ids: carried.group_ids,
        batch_rows,
    };
    label(env, labels, &mut cand)?;
    Ok(cand)
}

/// Give `cand`'s new candidates (those after the carried ones) their group
/// id and one correlation-key id per `FastScalarCmp` conjunct, interning
/// keys `labels` has not seen.
fn label(env: &BlockEnv<'_>, labels: &mut Labels, cand: &mut Candidates) -> Result<()> {
    let cb = env.cb;
    let fscs = cb.fast_scalar_cmp.as_deref().unwrap_or_default();
    labels.keys.resize_with(fscs.len(), Default::default);
    let mut reader = TupleReader::new(&cand.chunk, env.pubs);
    let mut key = Vec::new();
    for i in cand.carried_len..cand.chunk.len() {
        let group = labels
            .groups
            .label(&mut reader, i, &cb.lin_slot_key, &mut key)?;
        cand.group_ids.push(group);
        for (fsc, ids) in fscs.iter().zip(&mut labels.keys) {
            cand.key_ids
                .push(ids.label(&mut reader, i, &fsc.key, &mut key)?);
        }
    }
    Ok(())
}

/// Join one batch against the block's dimensions, apply the certain
/// filters, and project to lineage columns; returns each surviving
/// candidate's batch row beside the projection.
///
/// Columnar throughout: the joins are [`HashIndex`] probes, certain
/// filters the kernel supports become selection bitmaps (the rest run row
/// by row over the survivors), and the lineage projection is an `Arc` bump
/// (all rows pass) or a typed gather.
fn new_candidates(env: &BlockEnv<'_>, batch: &MiniBatch) -> Result<(Vec<u32>, ColumnChunk)> {
    let cb = env.cb;
    let (joined_rows, chunk) = join_dims(&cb.block, env.dims, batch.chunk())?;
    let batch_row = |i: usize| row_u32(joined_rows.as_ref().map_or(i, |r| r[i]));
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
    let all_rows = || (0..len).map(batch_row).collect();
    if mask.is_none() && fallback.is_empty() {
        return Ok((all_rows(), lineage));
    }
    let mut reader = TupleReader::new(&chunk, env.pubs);
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
    let rows = sel.iter().map(|&i| batch_row(i)).collect();
    Ok((rows, lineage.gather(&sel)))
}
