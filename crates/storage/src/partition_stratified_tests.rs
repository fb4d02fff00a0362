//! Unit tests of stratified schedules ([`crate::Partitioner::stratified`]).

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gola_common::{row, DataType, Schema, Value};

    use crate::{MiniBatch, Partitioner, Table};

    /// `n` rows over `g` groups: group id `i % g`.
    fn grouped_table(n: usize, g: i64) -> Arc<Table> {
        let schema = Arc::new(Schema::from_pairs(&[
            ("grp", DataType::Int),
            ("x", DataType::Int),
        ]));
        Arc::new(Table::new_unchecked(
            schema,
            (0..n).map(|i| row![(i as i64) % g, i as i64]).collect(),
        ))
    }

    fn batches(p: &Partitioner) -> Vec<MiniBatch> {
        (0..p.num_batches()).map(|i| p.batch(i)).collect()
    }

    #[test]
    fn batches_partition_all_tuples_exactly_once() {
        let p = Partitioner::stratified(grouped_table(103, 7), "grp", 10, 5).unwrap();
        let mut ids: Vec<u64> = batches(&p).into_iter().flat_map(|b| b.tuple_ids).collect();
        assert_eq!(ids.len(), 103);
        ids.sort_unstable();
        assert_eq!(ids, (0..103u64).collect::<Vec<_>>());
    }

    #[test]
    fn every_stratum_in_batch_zero() {
        let t = grouped_table(200, 9);
        let p = Partitioner::stratified(Arc::clone(&t), "grp", 8, 3).unwrap();
        let b0 = p.batch(0);
        let groups: std::collections::HashSet<i64> = b0
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(groups.len(), 9, "batch 0 must touch all 9 strata");
    }

    #[test]
    fn rare_stratum_oversampled_and_exhausted_early() {
        // 1000 rows, one rare group of 20 rows; k = 10 gives the default
        // floor max(1, 1000/10²) = 10 rows per batch.
        let schema = Arc::new(Schema::from_pairs(&[("grp", DataType::Int)]));
        let rows = (0..1000).map(|i| row![i64::from(i % 50 == 0)]);
        let t = Arc::new(Table::new_unchecked(schema, rows.collect()));
        let p = Partitioner::stratified(t, "grp", 10, 1).unwrap();
        // Rare stratum (20 rows, floor 10) exhausts by batch 1.
        let (n_h, total_h) = p.stratum_rate(&Value::Int(1), 1).unwrap();
        assert_eq!(total_h, 20);
        assert_eq!(n_h, 20, "floor 10/batch drains 20 rows in two batches");
        // Uniform allocation would have seen ~2 rows by then.
        let (n0, _) = p.stratum_rate(&Value::Int(1), 0).unwrap();
        assert_eq!(n0, 10);
    }

    #[test]
    fn deterministic_under_seed_and_sensitive_to_it() {
        let t = grouped_table(150, 5);
        let a = Partitioner::stratified(Arc::clone(&t), "grp", 6, 9).unwrap();
        let b = Partitioner::stratified(Arc::clone(&t), "grp", 6, 9).unwrap();
        for i in 0..6 {
            assert_eq!(a.batch(i).tuple_ids, b.batch(i).tuple_ids);
        }
        let c = Partitioner::stratified(t, "grp", 6, 10).unwrap();
        assert_ne!(a.batch(0).tuple_ids, c.batch(0).tuple_ids);
    }

    #[test]
    fn bounds_cover_table_and_batches_nonempty() {
        for k in [1, 2, 5, 16] {
            let p = Partitioner::stratified(grouped_table(64, 13), "grp", k, 2).unwrap();
            let sizes: Vec<usize> = batches(&p).iter().map(MiniBatch::len).collect();
            assert_eq!(sizes.iter().sum::<usize>(), 64);
            assert!(sizes.iter().all(|&s| s > 0), "k={k}: sizes {sizes:?}");
            assert_eq!(p.rows_seen_through(k - 1), 64);
            assert!((p.multiplicity_after(k - 1) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn config_errors_match_uniform() {
        let t = grouped_table(10, 2);
        assert!(Partitioner::stratified(Arc::clone(&t), "grp", 0, 1).is_err());
        assert!(Partitioner::stratified(Arc::clone(&t), "grp", 11, 1).is_err());
        assert!(Partitioner::stratified(t, "nope", 2, 1).is_err());
        let empty = Arc::new(Table::empty(Arc::new(Schema::from_pairs(&[(
            "grp",
            DataType::Int,
        )]))));
        assert!(Partitioner::stratified(empty, "grp", 1, 1).is_err());
    }
}
