//! Seeded random permutations.
//!
//! G-OLA's statistical guarantees require that any prefix of the processed
//! data is a uniform random sample of the whole dataset (paper §2). When the
//! physical layout is correlated with query attributes, the paper's
//! pre-processing tool randomly shuffles the input; here the partitioner
//! draws its batches through a [`permutation`] instead.

use gola_common::rng::SplitMix64;

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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tiny_inputs() {
        let mut empty: [u8; 0] = [];
        shuffle_in_place(&mut empty, 1);
        let mut one = [5];
        shuffle_in_place(&mut one, 1);
        assert_eq!(one, [5]);
    }
}
