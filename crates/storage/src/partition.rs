//! The mini-batch partitioner (paper §2.1–2.2).
//!
//! G-OLA randomly partitions the dataset `D` into `k` mini-batches
//! `ΔD₁ … ΔDₖ` of (near-)uniform size and streams them to the online
//! executor. After batch `i` the running result is `Q(Dᵢ, k/i)` where every
//! tuple is annotated with multiplicity `m = |D| / |Dᵢ|` — because a random
//! prefix of the shuffled data is a uniform sample, seeing a tuple once in
//! `Dᵢ` is "roughly equivalent to seeing it m times in D".
//!
//! Each tuple also carries a stable `tuple_id` (its index in the underlying
//! table). The poissonized bootstrap derives per-replica weights from this
//! id, so a tuple's weight is identical every time it is (re-)processed —
//! the property that makes uncertain-set re-evaluation and failure-triggered
//! recomputation statistically consistent.
//!
//! One [`Partitioner`] covers every sampling design: a schedule is a list
//! of row ids in batch order, cut at `k` offsets, and batch `i` is a
//! columnar gather of its slice — so the executor folds column slices
//! instead of cloning rows. The designs differ only in how the list is
//! drawn and whether batches can be added after the query starts:
//!
//! - **Uniform** ([`Partitioner::new`]): one seeded permutation.
//! - **Stratified** ([`Partitioner::stratified`], BlinkDB, arXiv
//!   1203.5485): the uniform design starves rare groups — a group holding
//!   1% of a table contributes ~1% of every batch, so its CI converges k×
//!   slower than the overall answer. Strata are keyed on one
//!   low-cardinality column and every batch takes each stratum's
//!   proportional share, but never fewer than `floor = max(1, n/k²)` rows
//!   while the stratum has rows left: rare strata are **oversampled
//!   early** and exhaust after a few batches, at which point their
//!   per-stratum FPC hits 0 and their group estimate is exact. An early
//!   stratified prefix is *not* a uniform sample, so the executor weights
//!   each stratum by its own rate ([`Partitioner::stratum_rate`]) when the
//!   query groups by the stratification column; the last batch drains
//!   every stratum, so the finished answer is exact regardless.
//! - **Growing** ([`Partitioner::growing`], Fegaras, arXiv 1511.07846): a
//!   uniform schedule over a [`StreamTable`]'s sealed snapshot at start,
//!   plus a *tail* — a segment sealed afterwards needs no shuffling into
//!   the schedule; it is one more batch, appended (tuple ids are the
//!   segment's global row range, so bootstrap weights stay stable). `N` is
//!   the stream's **live** population (sealed + buffered), so
//!   multiplicities and FPCs never overstate convergence, and the last
//!   batch exists only once the stream is closed and every sealed segment
//!   consumed — at which point the final multiplicity is exactly `1.0`.
//!
//! Determinism: a schedule is a pure function of its constructor's
//! arguments (strata ordered by [`Value::total_cmp`], each shuffled under a
//! sub-seed drawn in that order, allocated by integer arithmetic), and a
//! tail's batches are materialized once, in seal order, and cached — so
//! `batch(i)` returns bit-identical data on every call, which replay and
//! the threads=1/N contract rely on. *When* appended data becomes visible
//! under wall-clock-driven ingest is explicitly not deterministic
//! (DESIGN.md §3.12).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::task::{Poll, Waker};

use gola_common::rng::SplitMix64;
use gola_common::sync::lock;
use gola_common::{Error, Result, Row, Value};

use crate::chunk::ColumnChunk;
use crate::shuffle::{permutation, shuffle_in_place};
use crate::stream::StreamTable;
use crate::table::Table;

/// One randomly-drawn batch of tuples with stable ids, stored column-major.
#[derive(Debug, Clone)]
pub struct MiniBatch {
    /// 0-based batch number.
    pub index: usize,
    /// Stable per-tuple ids (row index in the source table).
    pub tuple_ids: Vec<u64>,
    /// The tuples themselves, as a columnar chunk.
    chunk: ColumnChunk,
}

impl MiniBatch {
    pub fn new(index: usize, tuple_ids: Vec<u64>, chunk: ColumnChunk) -> MiniBatch {
        debug_assert_eq!(tuple_ids.len(), chunk.len());
        MiniBatch {
            index,
            tuple_ids,
            chunk,
        }
    }

    pub fn len(&self) -> usize {
        self.chunk.len()
    }

    pub fn is_empty(&self) -> bool {
        self.chunk.is_empty()
    }

    /// The columnar payload.
    pub fn chunk(&self) -> &ColumnChunk {
        &self.chunk
    }

    /// Materialize the batch as rows (a view for tests).
    pub fn rows(&self) -> Vec<Row> {
        self.chunk.to_rows()
    }
}

/// A random schedule of mini-batches over one table, with optional strata
/// and an optional growing tail. Clones share the tail, so every handle to
/// one query sees the same schedule.
#[derive(Debug, Clone)]
pub struct Partitioner {
    /// The base table, or the stream's sealed snapshot at query start.
    table: Arc<Table>,
    /// Row ids in batch order.
    perm: Vec<usize>,
    /// Exclusive end offset of each batch within `perm`.
    bounds: Vec<usize>,
    strata: Option<Strata>,
    tail: Option<Arc<Tail>>,
}

/// A stratified schedule's per-stratum sampling state.
#[derive(Debug, Clone)]
struct Strata {
    column: String,
    /// Stratum index by key value.
    by_key: HashMap<Value, usize>,
    /// Per stratum: rows taken through batch `i`; the last entry is the
    /// stratum's size.
    taken: Vec<Vec<usize>>,
}

/// The stream behind a growing schedule and the batches it sealed after
/// the query started.
#[derive(Debug)]
struct Tail {
    stream: Arc<StreamTable>,
    state: Mutex<GrowState>,
}

#[derive(Debug, Default)]
struct GrowState {
    /// Batches materialized from post-snapshot segments, in seal order.
    extra: Vec<MiniBatch>,
    /// Cumulative rows through each extra batch (absolute, including the
    /// base snapshot).
    bounds: Vec<usize>,
    /// Stream segments consumed so far (snapshot + extras).
    segments_seen: usize,
    /// Stream closed and every sealed segment consumed: the batch list is
    /// complete and the next unprocessed batch index can be "last".
    finalized: bool,
}

impl Partitioner {
    /// `k` uniform random batches whose sizes differ by at most one row
    /// (the paper's "uniform size"). Deterministic under `(table, k, seed)`.
    pub fn new(table: Arc<Table>, k: usize, seed: u64) -> Result<Partitioner> {
        let n = check_batches(&table, k)?;
        // Balanced split: the first (n % k) batches get one extra row.
        let bounds = (1..=k).map(|i| i * (n / k) + i.min(n % k)).collect();
        Ok(Partitioner {
            table,
            perm: permutation(n, seed),
            bounds,
            strata: None,
            tail: None,
        })
    }

    /// `k` batches stratified on `column`, with the floor `max(1, n / k²)`
    /// — small enough to leave proportional allocation untouched for common
    /// strata, large enough that a rare stratum exhausts within the first
    /// few batches. Every batch is nonempty, and batch 0 represents every
    /// stratum whenever that is feasible (`num_strata <= n - k + 1`).
    pub fn stratified(table: Arc<Table>, column: &str, k: usize, seed: u64) -> Result<Partitioner> {
        let n = check_batches(&table, k)?;
        let mut by_key: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, v) in table.column(column)?.into_iter().enumerate() {
            by_key.entry(v).or_default().push(i);
        }
        // Strata in key order: stable under row shuffles of the input.
        let mut strata: Vec<(Value, Vec<usize>)> = by_key.into_iter().collect();
        strata.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut rng = SplitMix64::new(seed);
        for (_, idxs) in &mut strata {
            shuffle_in_place(idxs, rng.next_u64());
        }
        let sizes: Vec<usize> = strata.iter().map(|(_, idxs)| idxs.len()).collect();
        let taken = allocate(&sizes, k, (n / (k * k)).max(1));

        // Batch i is each stratum's slice for it, in stratum order.
        let mut perm = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(k);
        for i in 0..k {
            for ((_, idxs), t) in strata.iter().zip(&taken) {
                let start = if i == 0 { 0 } else { t[i - 1] };
                perm.extend_from_slice(&idxs[start..t[i]]);
            }
            bounds.push(perm.len());
        }
        let by_key = strata
            .into_iter()
            .enumerate()
            .map(|(h, (key, _))| (key, h))
            .collect();
        Ok(Partitioner {
            table,
            perm,
            bounds,
            strata: Some(Strata {
                column: column.to_string(),
                by_key,
                taken,
            }),
            tail: None,
        })
    }

    /// `k` uniform batches of the stream's sealed snapshot, then one batch
    /// per segment sealed later (see [`Partitioner::refresh`]). The
    /// snapshot must be nonempty: a growing query needs at least one sealed
    /// row to start.
    pub fn growing(stream: Arc<StreamTable>, k: usize, seed: u64) -> Result<Partitioner> {
        let (snapshot, segments_seen) = stream.snapshot_with_segments()?;
        if snapshot.num_rows() == 0 {
            return Err(Error::config(
                "growing query needs at least one sealed row at start (seal before querying)",
            ));
        }
        let mut p = Partitioner::new(Arc::new(snapshot), k, seed)?;
        p.tail = Some(Arc::new(Tail {
            stream,
            state: Mutex::new(GrowState {
                segments_seen,
                ..GrowState::default()
            }),
        }));
        p.refresh();
        Ok(p)
    }

    /// Batches visible so far.
    pub fn num_batches(&self) -> usize {
        self.bounds.len() + self.grown(|g| g.extra.len())
    }

    /// The population `N`: the table's rows, or a stream's **live**
    /// population — every sealed row plus the write buffer. Deliberately
    /// larger than the visible batches while ingest is in flight: that
    /// slack keeps the FPC from claiming convergence against a population
    /// that can still grow.
    #[expect(clippy::cast_possible_truncation, reason = "in-memory rows fit usize")]
    pub fn total_rows(&self) -> usize {
        self.tail
            .as_ref()
            .map_or(self.perm.len(), |t| t.stream.total_rows() as usize)
    }

    /// Rows contained in batches `0..=i` (that is `|Dᵢ₊₁|` in paper terms).
    pub fn rows_seen_through(&self, i: usize) -> usize {
        match self.bounds.get(i) {
            Some(&end) => end,
            None => self.grown(|g| g.bounds[i - self.bounds.len()]),
        }
    }

    /// The multiplicity annotation `m = |D| / |Dᵢ|` after batch `i`
    /// (0-based): the paper's `k / i` for uniform sizes, exactly `1.0` at
    /// the final batch.
    pub fn multiplicity_after(&self, i: usize) -> f64 {
        self.total_rows() as f64 / self.rows_seen_through(i) as f64
    }

    /// Materialize batch `i`: a columnar gather of its slice of the
    /// schedule, or a cached segment of the tail.
    pub fn batch(&self, i: usize) -> MiniBatch {
        let Some(&end) = self.bounds.get(i) else {
            return self.grown(|g| g.extra[i - self.bounds.len()].clone());
        };
        let start = if i == 0 { 0 } else { self.bounds[i - 1] };
        MiniBatch::new(
            i,
            self.tuple_ids(i),
            self.table.gather(&self.perm[start..end]),
        )
    }

    /// Batch `i`'s tuple ids, in row order, without gathering its values:
    /// what the bootstrap weights of its tuples are a function of.
    pub fn tuple_ids(&self, i: usize) -> Vec<u64> {
        let Some(&end) = self.bounds.get(i) else {
            return self.grown(|g| g.extra[i - self.bounds.len()].tuple_ids.clone());
        };
        let start = if i == 0 { 0 } else { self.bounds[i - 1] };
        self.perm[start..end].iter().map(|&x| x as u64).collect()
    }

    /// Rows `rows` of batch `i`, as a batch of their own: the tuple ids and
    /// values `batch(i)` holds at those rows, gathered without
    /// materializing the rest of the batch.
    pub fn batch_rows(&self, i: usize, rows: &[usize]) -> MiniBatch {
        let Some(&end) = self.bounds.get(i) else {
            return self.grown(|g| {
                let batch = &g.extra[i - self.bounds.len()];
                let ids = rows.iter().map(|&r| batch.tuple_ids[r]).collect();
                MiniBatch::new(i, ids, batch.chunk.gather(rows))
            });
        };
        let start = if i == 0 { 0 } else { self.bounds[i - 1] };
        let idxs: Vec<usize> = rows.iter().map(|&r| self.perm[start..end][r]).collect();
        MiniBatch::new(
            i,
            idxs.iter().map(|&x| x as u64).collect(),
            self.table.gather(&idxs),
        )
    }

    /// The base table (for a growing schedule, the snapshot at start).
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Pull newly sealed segments into the batch list, one batch per
    /// segment in seal order. `true` when new batches appeared; idempotent
    /// and cheap when nothing changed, and always `false` without a tail.
    pub fn refresh(&self) -> bool {
        self.pull(None)
    }

    /// [`Partitioner::refresh`] for a caller that must not wait: `Ready`
    /// when new batches appeared or the batch list is final, `Pending`
    /// when the stream is open with nothing new, with `waker` registered
    /// for its next seal or its close.
    pub fn poll_refresh(&self, waker: &Waker) -> Poll<()> {
        if self.pull(Some(waker)) || self.finalized() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }

    /// [`Partitioner::refresh`], registering `waker` when it finds
    /// nothing on an open stream.
    fn pull(&self, waker: Option<&Waker>) -> bool {
        let Some(tail) = &self.tail else {
            return false;
        };
        let mut state = lock(&tail.state);
        if state.finalized {
            return false;
        }
        let (fresh, closed) = tail.stream.poll(state.segments_seen, waker);
        let grew = !fresh.is_empty();
        for seg in fresh {
            let len = seg.chunk.len();
            let ids = (seg.start_row..seg.start_row + len as u64).collect();
            let index = self.bounds.len() + state.extra.len();
            let end = state.bounds.last().copied().unwrap_or(self.perm.len()) + len;
            state.extra.push(MiniBatch::new(index, ids, seg.chunk));
            state.bounds.push(end);
            state.segments_seen += 1;
        }
        // `closed` forbids further appends and seals, and this poll took
        // every segment visible with it: the batch list is complete.
        state.finalized = closed;
        grew
    }

    /// `true` once the batch list can no longer grow: from birth without a
    /// tail.
    pub fn finalized(&self) -> bool {
        self.tail.as_ref().is_none_or(|t| lock(&t.state).finalized)
    }

    /// Is batch `i` the definitive last batch — the one whose report is
    /// exact? While a stream is open, no batch is.
    pub fn is_final_batch(&self, i: usize) -> bool {
        self.finalized() && i + 1 == self.num_batches()
    }

    /// The stratification column, when stratified.
    pub fn stratify_column(&self) -> Option<&str> {
        self.strata.as_ref().map(|s| s.column.as_str())
    }

    /// Per-stratum sampling state after batch `i` for the stratum keyed by
    /// `key`: `(n_h, N_h)` — rows of the stratum seen through batch `i` and
    /// the stratum's size. `None` when not stratified or the key is unknown.
    pub fn stratum_rate(&self, key: &Value, i: usize) -> Option<(usize, usize)> {
        let strata = self.strata.as_ref()?;
        let taken = &strata.taken[*strata.by_key.get(key)?];
        Some((taken[i], *taken.last()?))
    }

    /// `f` over the tail's state, or over an empty one without a tail.
    fn grown<R>(&self, f: impl FnOnce(&GrowState) -> R) -> R {
        match &self.tail {
            Some(tail) => f(&lock(&tail.state)),
            None => f(&GrowState::default()),
        }
    }
}

/// `|D|` once `k` batches of `table` are possible (`1 <= k <= |D|`).
fn check_batches(table: &Table, k: usize) -> Result<usize> {
    let n = table.num_rows();
    if k == 0 {
        return Err(Error::config("mini-batch count must be >= 1"));
    }
    if n == 0 {
        return Err(Error::config("cannot partition an empty table"));
    }
    if k > n {
        return Err(Error::config(format!(
            "mini-batch count {k} exceeds row count {n}"
        )));
    }
    Ok(n)
}

/// Rows each stratum (of `sizes`) gives batches `0..=i`, for every `i`:
/// the proportional share with a floor, capped by what the stratum has
/// left, then trimmed so every later batch can still be nonempty. The last
/// batch drains everything.
fn allocate(sizes: &[usize], k: usize, floor: usize) -> Vec<Vec<usize>> {
    let n: usize = sizes.iter().sum();
    let mut taken = vec![Vec::new(); sizes.len()];
    let mut taken_total = 0;
    for i in 0..k - 1 {
        let (mut props, mut takes) = (Vec::new(), Vec::new());
        for (&n_h, t) in sizes.iter().zip(&taken) {
            let left = n_h - t.last().copied().unwrap_or(0);
            // Balanced proportional share: the first n_h % k batches get
            // one extra row, mirroring the uniform split.
            let prop = (n_h / k + usize::from(i < n_h % k)).min(left);
            props.push(prop);
            takes.push(prop.max(floor.min(left)));
        }
        // Leave at least one row for each of the k-1-i later batches: give
        // back floor-driven oversampling first (down to the proportional
        // share), then, if the table is nearly drained, the share itself.
        let max_allowed = n - taken_total - (k - 1 - i);
        let mut over = takes.iter().sum::<usize>().saturating_sub(max_allowed);
        for (t, &prop) in takes.iter_mut().zip(&props) {
            let cut = (*t - prop).min(over);
            *t -= cut;
            over -= cut;
        }
        for t in &mut takes {
            let cut = (*t).min(over);
            *t -= cut;
            over -= cut;
        }
        for (col, &t) in taken.iter_mut().zip(&takes) {
            let through = col.last().copied().unwrap_or(0) + t;
            col.push(through);
            taken_total += t;
        }
    }
    for (col, &n_h) in taken.iter_mut().zip(sizes) {
        col.push(n_h);
    }
    taken
}

/// `MiniBatchPartitioner::new` — the uniform constructor under its old name,
/// kept for the frozen `benchmarks/` package only.
pub type MiniBatchPartitioner = Partitioner;

/// `StratifiedPartitioner::new`, kept for the frozen `benchmarks/` package.
pub enum StratifiedPartitioner {}

impl StratifiedPartitioner {
    #[expect(clippy::new_ret_no_self, reason = "alias for a retired type name")]
    pub fn new(table: Arc<Table>, column: &str, k: usize, seed: u64) -> Result<Partitioner> {
        Partitioner::stratified(table, column, k, seed)
    }
}

/// `GrowingPartitioner::new`, kept for the frozen `benchmarks/` package.
pub enum GrowingPartitioner {}

impl GrowingPartitioner {
    #[expect(clippy::new_ret_no_self, reason = "alias for a retired type name")]
    pub fn new(stream: Arc<StreamTable>, k: usize, seed: u64) -> Result<Partitioner> {
        Partitioner::growing(stream, k, seed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gola_common::{row, DataType, Schema};

    fn table(n: usize) -> Arc<Table> {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        Arc::new(Table::new_unchecked(
            schema,
            (0..n).map(|i| row![i as i64]).collect(),
        ))
    }

    fn batches(p: &Partitioner) -> Vec<MiniBatch> {
        (0..p.num_batches()).map(|i| p.batch(i)).collect()
    }

    #[test]
    fn batches_partition_all_tuples_exactly_once() {
        let p = Partitioner::new(table(103), 10, 5).unwrap();
        let mut ids: Vec<u64> = batches(&p).into_iter().flat_map(|b| b.tuple_ids).collect();
        assert_eq!(ids.len(), 103);
        ids.sort_unstable();
        assert_eq!(ids, (0..103u64).collect::<Vec<_>>());
    }

    /// `batch_rows(i, rows)` is `batch(i)` at `rows`: same ids, same
    /// values, same batch index.
    pub(crate) fn assert_batch_rows_subset(p: &Partitioner) {
        for i in 0..p.num_batches() {
            let whole = p.batch(i);
            let rows: Vec<usize> = (0..whole.len()).filter(|r| r % 3 != 1).collect();
            let part = p.batch_rows(i, &rows);
            assert_eq!(part.index, i);
            let ids: Vec<u64> = rows.iter().map(|&r| whole.tuple_ids[r]).collect();
            assert_eq!(part.tuple_ids, ids, "batch {i}");
            assert_eq!(
                part.rows(),
                whole.chunk().gather(&rows).to_rows(),
                "batch {i}"
            );
        }
    }

    #[test]
    fn batch_rows_is_the_batch_at_those_rows() {
        assert_batch_rows_subset(&Partitioner::new(table(103), 10, 5).unwrap());
    }

    #[test]
    fn batch_sizes_near_uniform() {
        let p = Partitioner::new(table(103), 10, 5).unwrap();
        let sizes: Vec<usize> = batches(&p).iter().map(MiniBatch::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn multiplicity_matches_paper_k_over_i() {
        let p = Partitioner::new(table(100), 10, 1).unwrap();
        // Uniform sizes: after batch i (0-based) multiplicity = k/(i+1).
        for i in 0..10 {
            let expected = 10.0 / (i as f64 + 1.0);
            assert!((p.multiplicity_after(i) - expected).abs() < 1e-12);
        }
        assert_eq!(p.rows_seen_through(9), 100);
    }

    #[test]
    fn deterministic_under_seed() {
        let t = table(50);
        let a = Partitioner::new(Arc::clone(&t), 5, 9).unwrap();
        let b = Partitioner::new(Arc::clone(&t), 5, 9).unwrap();
        for i in 0..5 {
            assert_eq!(a.batch(i).tuple_ids, b.batch(i).tuple_ids);
        }
        let c = Partitioner::new(t, 5, 10).unwrap();
        assert_ne!(a.batch(0).tuple_ids, c.batch(0).tuple_ids);
    }

    #[test]
    fn rows_match_tuple_ids() {
        let p = Partitioner::new(table(30), 3, 2).unwrap();
        for b in batches(&p) {
            for (&id, row) in b.tuple_ids.iter().zip(b.rows()) {
                assert_eq!(row.get(0).as_i64().unwrap(), id as i64);
            }
        }
    }

    #[test]
    fn config_errors() {
        assert!(Partitioner::new(table(10), 0, 1).is_err());
        assert!(Partitioner::new(table(10), 11, 1).is_err());
        let empty = Arc::new(Table::empty(Arc::new(Schema::from_pairs(&[(
            "x",
            DataType::Int,
        )]))));
        assert!(Partitioner::new(empty, 1, 1).is_err());
    }

    #[test]
    fn single_batch_is_whole_table() {
        let p = Partitioner::new(table(10), 1, 1).unwrap();
        assert_eq!(p.batch(0).len(), 10);
        assert!((p.multiplicity_after(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_chunk_matches_rows() {
        let p = Partitioner::new(table(30), 3, 2).unwrap();
        let b = p.batch(1);
        assert_eq!(b.chunk().len(), b.len());
        let rows = b.rows();
        assert_eq!(rows.len(), b.tuple_ids.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &b.chunk().row(i));
        }
    }
}
