//! Unit tests of growing schedules ([`crate::Partitioner::growing`]).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gola_common::{row, DataType, Row, Schema};

    use crate::{Partitioner, StreamTable};

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
        let p = Partitioner::growing(Arc::clone(&s), 4, 7).unwrap();
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
        crate::partition::tests::assert_batch_rows_subset(&p);
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
        let p = Partitioner::growing(Arc::clone(&s), 2, 1).unwrap();
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
        let p = Partitioner::growing(Arc::clone(&s), 3, 9).unwrap();
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
        assert!(Partitioner::growing(s, 2, 1).is_err());
    }

    /// `poll_refresh` is `Pending` exactly while the stream is open with
    /// nothing new, and `Ready` once a seal adds a batch or the close ends
    /// the list.
    #[test]
    fn poll_refresh_is_pending_until_a_seal_or_the_close() {
        use std::task::{Poll, Waker};
        let s = seeded_stream(10);
        let p = Partitioner::growing(Arc::clone(&s), 1, 1).unwrap();
        let waker = Waker::noop();
        assert_eq!(p.poll_refresh(waker), Poll::Pending);
        s.append_rows(&rows(10, 3)).unwrap();
        assert_eq!(p.poll_refresh(waker), Poll::Pending, "buffered, not sealed");
        s.seal().unwrap();
        assert_eq!(p.poll_refresh(waker), Poll::Ready(()));
        assert_eq!(p.num_batches(), 2);
        assert_eq!(p.poll_refresh(waker), Poll::Pending);
        s.close().unwrap();
        assert_eq!(p.poll_refresh(waker), Poll::Ready(()));
        assert!(p.finalized());
        assert_eq!(p.num_batches(), 2, "close adds no batch");
        let fixed = Partitioner::new(Arc::new(s.snapshot().unwrap()), 2, 1).unwrap();
        assert_eq!(fixed.poll_refresh(waker), Poll::Ready(()), "no tail");
    }
}
