//! The growing partitioner: live appends as extra mini-batches.
//!
//! Fegaras's incremental-OLA observation (PAPERS.md) is that a segment of
//! rows that arrives *after* a query starts needs no shuffling into the
//! existing schedule — it is simply one more mini-batch, appended to the
//! end. [`GrowingPartitioner`] wraps the uniform [`MiniBatchPartitioner`]
//! over a snapshot of the stream taken at query start, then polls the
//! [`StreamTable`] for segments sealed afterwards and exposes each as an
//! additional batch (tuple ids are the segment's global row range, so
//! bootstrap weights stay stable and replayable).
//!
//! Moving-N semantics: `total_rows` is the stream's **live** population
//! (sealed + buffered), so multiplicities and finite-population
//! corrections computed against it never overstate convergence — an
//! append strictly widens (or holds) the CI. The *last* batch exists only
//! once the stream is closed and every sealed segment is consumed; at
//! that point `closed ⇒ pending = 0` makes the final multiplicity exactly
//! `1.0` and the FPC exactly `0.0`, identical to the static path.
//!
//! Determinism: extra batches are materialized once, in seal order, and
//! cached — `batch(i)` returns bit-identical data on every call, which is
//! what failure-triggered replay (`gola_core`'s recover stage) and the
//! threads=1/N contract rely on. Reports are bit-identical across runs
//! whenever the interleaving of appends/seals/close with executor steps
//! is the same; *when* data becomes visible under wall-clock-driven
//! ingest is explicitly not deterministic (DESIGN.md §3.12).

use std::sync::{Arc, Mutex};

use gola_common::{Error, Result};

use crate::partition::{MiniBatch, MiniBatchPartitioner};
use crate::stream::StreamTable;
use crate::table::Table;

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

/// A partitioner over a [`StreamTable`] whose batch list grows as segments
/// seal. Clones share growth state, so every handle to one query sees the
/// same schedule.
#[derive(Clone)]
pub struct GrowingPartitioner {
    stream: Arc<StreamTable>,
    base: MiniBatchPartitioner,
    state: Arc<Mutex<GrowState>>,
}

impl std::fmt::Debug for GrowingPartitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrowingPartitioner")
            .field("base_batches", &self.base.num_batches())
            .finish_non_exhaustive()
    }
}

impl GrowingPartitioner {
    /// Partition the stream's current sealed snapshot into `k` seeded
    /// batches; segments sealed later surface through [`Self::refresh`].
    /// The snapshot must be nonempty (a growing query needs at least one
    /// sealed row to start).
    pub fn new(stream: Arc<StreamTable>, k: usize, seed: u64) -> Result<Self> {
        let (snapshot, segments_seen) = stream.snapshot_with_segments()?;
        if snapshot.num_rows() == 0 {
            return Err(Error::config(
                "growing query needs at least one sealed row at start (seal before querying)",
            ));
        }
        let base = MiniBatchPartitioner::new(Arc::new(snapshot), k, seed)?;
        let p = GrowingPartitioner {
            stream,
            base,
            state: Arc::new(Mutex::new(GrowState {
                extra: Vec::new(),
                bounds: Vec::new(),
                segments_seen,
                finalized: false,
            })),
        };
        p.refresh();
        Ok(p)
    }

    /// The stream backing this partitioner.
    pub fn stream(&self) -> &Arc<StreamTable> {
        &self.stream
    }

    /// Pull newly sealed segments into the batch list (one batch per
    /// segment, seal order). Returns `true` when new batches appeared.
    /// Idempotent and cheap when nothing changed.
    pub fn refresh(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.finalized {
            return false;
        }
        let (fresh, closed) = self.stream.poll(state.segments_seen);
        let grew = !fresh.is_empty();
        for seg in fresh {
            let index = self.base.num_batches() + state.extra.len();
            let len = seg.chunk.len();
            let ids: Vec<u64> = (0..len as u64).map(|j| seg.start_row + j).collect();
            let prev = state
                .bounds
                .last()
                .copied()
                .unwrap_or_else(|| self.base.total_rows());
            state.extra.push(MiniBatch::new(index, ids, seg.chunk));
            state.bounds.push(prev + len);
            state.segments_seen += 1;
        }
        if closed {
            // `closed` forbids further appends and seals, and we consumed
            // every segment visible in the same atomic poll — the batch
            // list is complete.
            state.finalized = true;
        }
        grew
    }

    /// `true` once the batch list can no longer grow.
    pub fn finalized(&self) -> bool {
        self.state.lock().unwrap().finalized
    }

    /// Is batch `i` the definitive last batch? Only a finalized schedule
    /// has one — while the stream is open, no batch is last.
    pub fn is_final_batch(&self, i: usize) -> bool {
        let state = self.state.lock().unwrap();
        state.finalized && i + 1 == self.base.num_batches() + state.extra.len()
    }

    /// Block until the stream seals a segment we have not consumed or
    /// closes, then pull it in. Used by the executor when every visible
    /// batch is processed but the stream is still open.
    pub fn wait_for_growth(&self) {
        let seen = self.state.lock().unwrap().segments_seen;
        self.stream.wait_for_growth(seen);
        self.refresh();
    }

    /// Batches visible so far (base + consumed extras).
    pub fn num_batches(&self) -> usize {
        self.base.num_batches() + self.state.lock().unwrap().extra.len()
    }

    /// The **live** population `N`: every sealed row plus the write
    /// buffer. Deliberately larger than the sum of visible batches while
    /// ingest is in flight — that slack is exactly what keeps the FPC
    /// from claiming convergence against a population that can still grow.
    pub fn total_rows(&self) -> usize {
        self.stream.total_rows() as usize
    }

    /// Rows contained in batches `0..=i`.
    pub fn rows_seen_through(&self, i: usize) -> usize {
        let k = self.base.num_batches();
        if i < k {
            self.base.rows_seen_through(i)
        } else {
            self.state.lock().unwrap().bounds[i - k]
        }
    }

    /// Multiplicity `m = N_live / |Dᵢ|` after batch `i`. Exactly `1.0` at
    /// the final batch of a closed stream (numerator equals denominator).
    pub fn multiplicity_after(&self, i: usize) -> f64 {
        self.total_rows() as f64 / self.rows_seen_through(i) as f64
    }

    /// Materialize batch `i` — stable: identical bits on every call.
    pub fn batch(&self, i: usize) -> MiniBatch {
        let k = self.base.num_batches();
        if i < k {
            self.base.batch(i)
        } else {
            self.state.lock().unwrap().extra[i - k].clone()
        }
    }

    /// The base snapshot (rows sealed at query start).
    pub fn table(&self) -> &Arc<Table> {
        self.base.table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, DataType, Row, Schema};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[("x", DataType::Int)]))
    }

    fn rows(lo: i64, n: i64) -> Vec<Row> {
        (lo..lo + n).map(|i| row![i]).collect()
    }

    fn seeded_stream(n: i64) -> Arc<StreamTable> {
        let s = StreamTable::new(schema());
        s.append_rows(&rows(0, n)).unwrap();
        s.seal().unwrap();
        s
    }

    #[test]
    fn extra_segments_become_batches_with_global_ids() {
        let s = seeded_stream(40);
        let p = GrowingPartitioner::new(Arc::clone(&s), 4, 7).unwrap();
        assert_eq!(p.num_batches(), 4);
        assert!(!p.finalized());
        assert!(!p.is_final_batch(3), "open stream has no last batch");

        s.append_rows(&rows(40, 10)).unwrap();
        s.seal().unwrap();
        assert!(p.refresh());
        assert_eq!(p.num_batches(), 5);
        let b = p.batch(4);
        assert_eq!(b.index, 4);
        assert_eq!(b.tuple_ids, (40..50u64).collect::<Vec<_>>());
        assert_eq!(p.rows_seen_through(4), 50);
        assert!(!p.is_final_batch(4));

        s.close().unwrap();
        assert!(!p.refresh(), "close adds no rows");
        assert!(p.finalized());
        assert!(p.is_final_batch(4));
        assert!((p.multiplicity_after(4) - 1.0).abs() == 0.0, "exact 1.0");
    }

    #[test]
    fn live_total_rows_counts_pending_buffer() {
        let s = seeded_stream(20);
        let p = GrowingPartitioner::new(Arc::clone(&s), 2, 1).unwrap();
        assert_eq!(p.total_rows(), 20);
        s.append_rows(&rows(20, 7)).unwrap();
        // Buffered rows are not a batch yet, but they are population.
        assert_eq!(p.num_batches(), 2);
        assert_eq!(p.total_rows(), 27);
        assert!(p.multiplicity_after(1) > 1.0);
    }

    #[test]
    fn batches_are_stable_across_calls_and_clones() {
        let s = seeded_stream(30);
        let p = GrowingPartitioner::new(Arc::clone(&s), 3, 9).unwrap();
        s.append_rows(&rows(30, 5)).unwrap();
        s.seal().unwrap();
        let q = p.clone();
        assert!(p.refresh());
        // The clone shares state: no second refresh needed.
        assert_eq!(q.num_batches(), 4);
        for i in 0..4 {
            assert_eq!(p.batch(i).tuple_ids, q.batch(i).tuple_ids);
            assert_eq!(p.batch(i).tuple_ids, p.batch(i).tuple_ids);
        }
    }

    #[test]
    fn empty_snapshot_rejected() {
        let s = StreamTable::new(schema());
        assert!(GrowingPartitioner::new(s, 2, 1).is_err());
    }

    #[test]
    fn wait_for_growth_wakes_on_seal_and_close() {
        let s = seeded_stream(10);
        let p = GrowingPartitioner::new(Arc::clone(&s), 1, 1).unwrap();
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            s2.append_rows(&rows(10, 3)).unwrap();
            s2.seal().unwrap();
            s2.close().unwrap();
        });
        // Either wakeup order is fine; after the thread ends we must see
        // the extra batch and the final state.
        p.wait_for_growth();
        t.join().unwrap();
        p.refresh();
        assert!(p.finalized());
        assert_eq!(p.num_batches(), 2);
    }
}
