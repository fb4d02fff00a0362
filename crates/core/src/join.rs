//! Stage **join**: one mini-batch in, the block's candidate tuples out.
//!
//! New fact tuples are joined against the broadcast dimensions, pass the
//! certain filters once, and are projected to lineage columns (paper
//! §3.3); the block's carried uncertain set is prepended, because every
//! batch re-examines it against fresher envelopes. Every new candidate is
//! then labelled with its group id and correlation-key ids from the
//! block's [`Labels`], the one place a key is hashed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use gola_bootstrap::BootstrapSpec;
use gola_common::timing::Stopwatch;
use gola_common::{row_u32, Bitmap, Result};
use gola_engine::HashIndex;
use gola_expr::eval::{eval_predicate, NoResolver};
use gola_expr::vector::predicate_mask;
use gola_expr::Expr;
use gola_plan::Block;
use gola_storage::{Catalog, ColumnChunk, MiniBatch, Partitioner};

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
    /// The carried candidates' last re-merge decisions (see
    /// [`UncertainSet::decisions`]).
    pub carried_decisions: Vec<u64>,
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
    /// Each candidate's entry in the block's seen index (see
    /// [`UncertainSet::seen`]): the carried candidates' cached ones, then
    /// the new candidates' once the index has recorded them. Empty for a
    /// block that keeps no index.
    pub seen: Vec<u32>,
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

/// A nibble that stands for "15 or more": the cell's weight is read back
/// through [`BootstrapSpec::weight`], so the bias and the cap at 16 stay
/// exact.
const ESCAPE: u8 = 15;

/// Tuple ids per [`WeightStore`] block, and tuples per pool item of the
/// weight fill ([`BatchWeights::extend`], [`Prefetch`]). Neither boundary
/// depends on the thread count, and neither can reach a report bit: a
/// weight is a pure function of its tuple id.
pub(crate) const CHUNK: usize = 1024;

/// Ids per kernel call while a block is generated, so the unpacked cells
/// a generation holds stay small beside the packed block.
const PIECE: usize = 64;

/// The one place a step's bootstrap weights come from: a memo of one
/// [`BootstrapSpec`]'s rows for the tuple ids in `[0, rows)`.
///
/// Weights are a pure function of `(tuple id, trial, seed)`, and a tuple
/// id is a row index, so every query over one catalog under one spec needs
/// the same rows. The store keeps them in blocks of 1,024 (`CHUNK`)
/// consecutive ids, each generated once by the weight kernel on first need
/// (under a `OnceLock`, so racing fills wait for the one that generates)
/// and held at 4 bits per weight. A cell of 15 (`ESCAPE`) is re-read
/// through the scalar [`BootstrapSpec::weight`]; under the default spec
/// that is a weight of 15 or 16, ~3e-13 of cells. Ids at or above `rows`,
/// and every fill under another spec, go straight to the kernel, so an
/// empty store (`rows = 0`, the [`Default`]) is the kernel itself.
///
/// A [`crate::sched::QueryService`] owns one store over its catalog's
/// largest static table and hands it to every session: memory is
/// `rows × ⌈trials / 2⌉` bytes at most (≈ 1 MB for 20k rows at B = 100),
/// bounded by data the service already holds.
#[derive(Debug, Default)]
pub struct WeightStore {
    spec: BootstrapSpec,
    rows: u64,
    blocks: Box<[OnceLock<StoredBlock>]>,
    /// Ids generated into the store so far.
    stored: AtomicUsize,
}

/// One block's rows, `⌈trials / 2⌉` bytes each: trial `b` in the low (even
/// `b`) or high (odd `b`) nibble of byte `b / 2`, capped at [`ESCAPE`].
#[derive(Debug)]
struct StoredBlock {
    nibbles: Box<[u8]>,
    /// Whether some cell reads [`ESCAPE`].
    escapes: bool,
}

impl WeightStore {
    /// A store for `spec`'s rows of tuple ids `[0, rows)`, every block
    /// still empty.
    pub fn new(spec: BootstrapSpec, rows: usize) -> WeightStore {
        let rows = if spec.trials == 0 { 0 } else { rows };
        WeightStore {
            spec,
            rows: rows as u64,
            blocks: (0..rows.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect(),
            stored: AtomicUsize::new(0),
        }
    }

    /// Bytes of weights held.
    pub(crate) fn bytes(&self) -> usize {
        self.stored.load(Ordering::Relaxed) * self.stride()
    }

    fn stride(&self) -> usize {
        (self.spec.trials as usize).div_ceil(2)
    }

    /// [`BootstrapSpec::weights_fill`] through the store: `out` gets
    /// `ids.len() × spec.trials` cells, row-major, bit-identical to the
    /// kernel's.
    pub(crate) fn fill(&self, spec: &BootstrapSpec, ids: &[u64], out: &mut [u8]) {
        let trials = spec.trials as usize;
        if *spec != self.spec || self.blocks.is_empty() {
            return spec.weights_fill(ids, out);
        }
        let mut tail = Vec::new();
        for (i, (&id, row)) in ids.iter().zip(out.chunks_exact_mut(trials)).enumerate() {
            if id < self.rows {
                self.read(id, row);
            } else {
                tail.push(i);
            }
        }
        if gola_obs::enabled() {
            metrics::weights_reused_cells().add(((ids.len() - tail.len()) * trials) as u64);
        }
        if tail.is_empty() {
            return;
        }
        let tail_ids: Vec<u64> = tail.iter().map(|&i| ids[i]).collect();
        let mut rows = vec![0; tail_ids.len() * trials];
        spec.weights_fill(&tail_ids, &mut rows);
        for (&i, row) in tail.iter().zip(rows.chunks_exact(trials)) {
            out[i * trials..][..trials].copy_from_slice(row);
        }
    }

    /// Copy `id`'s row (`id < rows`) out of its block, generating the block
    /// first if no fill has.
    fn read(&self, id: u64, row: &mut [u8]) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "id < rows, and rows came from a usize"
        )]
        let (b, at) = ((id / CHUNK as u64) as usize, (id % CHUNK as u64) as usize);
        let block = self.blocks[b].get_or_init(|| self.generate(b));
        let stride = self.stride();
        let packed = &block.nibbles[at * stride..][..stride];
        let mut pairs = row.chunks_exact_mut(2);
        for (pair, &byte) in (&mut pairs).zip(packed) {
            pair[0] = byte & 0x0F;
            pair[1] = byte >> 4;
        }
        if let ([last], Some(&byte)) = (pairs.into_remainder(), packed.last()) {
            *last = byte & 0x0F;
        }
        if block.escapes {
            for (trial, w) in (0u32..).zip(row) {
                if *w == ESCAPE {
                    // Never clamps: a weight is at most 16 + MAX_WEIGHT_BIAS.
                    *w = u8::try_from(self.spec.weight(id, trial)).unwrap_or(u8::MAX);
                }
            }
        }
    }

    /// Run the kernel over block `b`'s ids, [`PIECE`] at a time, and pack
    /// their rows.
    fn generate(&self, b: usize) -> StoredBlock {
        let (trials, stride) = (self.spec.trials as usize, self.stride());
        let ids: Vec<u64> = (b as u64 * CHUNK as u64..self.rows).take(CHUNK).collect();
        let mut nibbles = vec![0; ids.len() * stride];
        let mut cells = vec![0; PIECE * trials];
        let mut escapes = false;
        for (ids, packed) in ids.chunks(PIECE).zip(nibbles.chunks_mut(PIECE * stride)) {
            let cells = &mut cells[..ids.len() * trials];
            self.spec.weights_fill(ids, cells);
            // A max, not `any`: the max vectorizes, the early exit does not.
            escapes |= cells.iter().fold(0, |max, &w| max.max(w)) >= ESCAPE;
            for (row, packed) in cells
                .chunks_exact(trials)
                .zip(packed.chunks_exact_mut(stride))
            {
                let mut pairs = row.chunks_exact(2);
                for (pair, byte) in (&mut pairs).zip(&mut *packed) {
                    *byte = pair[0].min(ESCAPE) | pair[1].min(ESCAPE) << 4;
                }
                if let ([last], Some(byte)) = (pairs.remainder(), packed.last_mut()) {
                    *byte = (*last).min(ESCAPE);
                }
            }
        }
        self.stored.fetch_add(ids.len(), Ordering::Relaxed);
        if gola_obs::enabled() {
            metrics::weights_stored_cells().add((ids.len() * trials) as u64);
            metrics::mem_weight_store().set(self.bytes() as f64);
        }
        StoredBlock {
            escapes,
            nibbles: nibbles.into(),
        }
    }
}

/// The bootstrap weights of one mini-batch's tuples, generated at most
/// once per step however many blocks fold the tuple: weights are a pure
/// function of `(tuple id, trial, seed)`, so every block of every wave
/// reads the same rows. Rows are generated on first need — a wave asks for
/// the batch rows its blocks will fold or keep uncertain — so a query whose
/// certain filters drop most of a batch does not pay for the dropped rows.
/// Rows come from the session's [`WeightStore`]. Lives for one step
/// (`batch_rows × trials` bytes at most).
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

    /// Fill the rows among `need` (batch rows) that no earlier call
    /// filled, [`CHUNK`] tuples per pool item, through `store`.
    pub(crate) fn extend(
        &mut self,
        store: &WeightStore,
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
            store.fill(spec, ids, out)
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
/// [`CHUNK`] tuples fills their rows of the weight matrix through the
/// session's [`WeightStore`]. Weights are a pure function of `(tuple id,
/// trial, seed)`, so a prefetched matrix is the one the step would fill on
/// demand.
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
        store: &Arc<WeightStore>,
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
                let store = Arc::clone(store);
                pool.spawn(move || {
                    let mut out = vec![0; ids.len() * spec.trials as usize];
                    store.fill(&spec, &ids, &mut out);
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
        carried_decisions: carried.decisions,
        key_ids: carried.key_ids,
        group_ids: carried.group_ids,
        batch_rows,
        seen: carried.seen,
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

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use gola_bootstrap::MAX_WEIGHT_BIAS;

    use super::*;

    /// Three blocks, the last one partial.
    const ROWS: usize = 2 * CHUNK + 552;

    /// Every id below `ROWS + 40` once, scattered: consecutive ids land in
    /// different blocks, every block edge is crossed, and 40 ids are past
    /// the store.
    fn scattered() -> Vec<u64> {
        let n = ROWS as u64 + 40;
        (0..n).map(|i| i * 7919 % n).collect()
    }

    /// `ids`' rows through `store`, each cell checked against the scalar
    /// oracle.
    fn read_checked(store: &WeightStore, spec: &BootstrapSpec, ids: &[u64]) -> Vec<u8> {
        let trials = spec.trials as usize;
        let mut out = vec![0xAA; ids.len() * trials];
        store.fill(spec, ids, &mut out);
        for (&id, row) in ids.iter().zip(out.chunks_exact(trials)) {
            for (trial, &w) in (0u32..).zip(row) {
                assert_eq!(
                    u32::from(w),
                    spec.weight(id, trial),
                    "id {id} trial {trial}"
                );
            }
        }
        out
    }

    #[test]
    fn weight_store_cells_equal_the_scalar_weight() {
        let ids = scattered();
        for trials in [1, 7, 100, 128, 130] {
            // Bias 14 sends every weight above 0 through the escape.
            for bias in [0, 14, MAX_WEIGHT_BIAS] {
                let spec = BootstrapSpec::new(trials, 0x60_1A).with_weight_bias(bias);
                let store = WeightStore::new(spec, ROWS);
                let generated = read_checked(&store, &spec, &ids);
                assert_eq!(store.bytes(), ROWS * (trials as usize).div_ceil(2));
                let escapes = store.blocks.iter().map(|b| b.get().unwrap().escapes);
                assert!(escapes.clone().all(|e| e == (bias > 0)), "bias {bias}");
                // The second read copies every stored row out again.
                assert_eq!(read_checked(&store, &spec, &ids), generated);
                assert_eq!(store.bytes(), ROWS * (trials as usize).div_ceil(2));
            }
        }
    }

    #[test]
    fn weight_store_empty_or_foreign_is_the_kernel() {
        let spec = BootstrapSpec::new(100, 7);
        let ids = scattered();
        for store in [
            WeightStore::default(),
            WeightStore::new(spec, 0),
            WeightStore::new(BootstrapSpec::new(100, 8), ROWS),
            WeightStore::new(BootstrapSpec::new(64, 7), ROWS),
        ] {
            read_checked(&store, &spec, &ids);
            assert_eq!(store.bytes(), 0, "{store:?}");
        }
    }

    /// Two threads fill overlapping id sets at once, in opposite orders:
    /// every block is generated exactly once, and both read the kernel's
    /// rows.
    #[test]
    fn weight_store_racing_fills_generate_each_block_once() {
        let spec = BootstrapSpec::new(100, 7);
        let forward = scattered();
        let backward: Vec<u64> = forward.iter().rev().copied().collect();
        let kernel = |ids: &[u64]| {
            let mut out = Vec::new();
            spec.weights_batch(ids, &mut out);
            out
        };
        let expected = [kernel(&forward), kernel(&backward)];
        for _ in 0..4 {
            let store = WeightStore::new(spec, ROWS);
            let start = Barrier::new(2);
            let fill = |ids: &[u64]| {
                start.wait();
                let mut out = vec![0; ids.len() * 100];
                store.fill(&spec, ids, &mut out);
                out
            };
            let read = std::thread::scope(|s| {
                let a = s.spawn(|| fill(&forward));
                let b = s.spawn(|| fill(&backward));
                [a.join().unwrap(), b.join().unwrap()]
            });
            assert_eq!(store.stored.load(Ordering::Relaxed), ROWS);
            assert!(read == expected);
        }
    }
}
