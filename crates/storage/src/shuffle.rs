//! Random shuffling of tables.
//!
//! G-OLA's statistical guarantees require that any prefix of the processed
//! data is a uniform random sample of the whole dataset (paper §2). When the
//! physical layout is correlated with query attributes, the paper's
//! pre-processing tool randomly shuffles the input; this module is that tool.

use std::sync::Arc;

use gola_common::rng::SplitMix64;

use crate::table::Table;

/// Fisher–Yates shuffle of `items` under a deterministic seed.
pub fn shuffle_in_place<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        #[expect(clippy::cast_possible_truncation, reason = "< i + 1, a usize")]
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// A deterministic random permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    shuffle_in_place(&mut idx, seed);
    idx
}

/// Return a new table whose rows are a random permutation of `table`'s,
/// materialized as a columnar gather of the permuted indices.
#[expect(clippy::expect_used, reason = "gathering a valid table")]
pub fn shuffle_table(table: &Table, seed: u64) -> Table {
    let perm = permutation(table.num_rows(), seed);
    let chunk = table.gather(&perm);
    Table::from_chunks(Arc::clone(table.schema()), vec![chunk])
        .expect("gather of a valid table yields a schema-consistent chunk")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, DataType, Schema, Value};

    #[test]
    fn permutation_is_a_permutation() {
        let p = permutation(1000, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(permutation(100, 3), permutation(100, 3));
        assert_ne!(permutation(100, 3), permutation(100, 4));
    }

    #[test]
    fn shuffle_table_preserves_multiset() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let rows: Vec<_> = (0..50).map(|i| row![i as i64]).collect();
        let t = Table::new_unchecked(schema, rows);
        let s = shuffle_table(&t, 11);
        let mut orig: Vec<i64> = t
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        let mut shuf: Vec<i64> = s
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        assert_ne!(orig, shuf, "seed 11 should actually move rows");
        orig.sort_unstable();
        shuf.sort_unstable();
        assert_eq!(orig, shuf);
        assert_eq!(s.column("x").unwrap().len(), 50);
        assert!(s.column("x").unwrap().contains(&Value::Int(49)));
    }

    #[test]
    fn tiny_inputs() {
        let mut empty: [u8; 0] = [];
        shuffle_in_place(&mut empty, 1);
        let mut one = [5];
        shuffle_in_place(&mut one, 1);
        assert_eq!(one, [5]);
    }
}
