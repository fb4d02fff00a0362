//! Property test: the batched Poisson-weight kernel is bit-identical to the
//! scalar `BootstrapSpec::weight` for arbitrary tuple ids, trial counts,
//! seeds and weight biases up to the largest allowed one, whose biased
//! weights fill the kernel's `u8` cells to the top. The executor's
//! determinism contract (threads = 1 ≡ threads = N) rests on this
//! equivalence.

use gola_bootstrap::{BootstrapSpec, MAX_WEIGHT_BIAS};
use proptest::prelude::*;

proptest! {
    #[test]
    fn batch_kernel_matches_scalar(
        tuple_ids in prop::collection::vec(any::<u64>(), 0..200),
        // Past 256, so a run crosses the 128-replica block boundary twice.
        trials in 0u32..300,
        seed in any::<u64>(),
        bias in prop_oneof![0u8..2, Just(MAX_WEIGHT_BIAS), 0..=MAX_WEIGHT_BIAS],
    ) {
        let spec = BootstrapSpec::new(trials, seed).with_weight_bias(bias);
        let mut out = Vec::new();
        spec.weights_batch(&tuple_ids, &mut out);
        prop_assert_eq!(out.len(), tuple_ids.len() * trials as usize);
        for (i, &t) in tuple_ids.iter().enumerate() {
            for b in 0..trials {
                prop_assert_eq!(
                    u32::from(out[i * trials as usize + b as usize]),
                    spec.weight(t, b),
                    "tuple {} trial {} seed {} bias {}", t, b, seed, bias
                );
            }
        }
    }

    #[test]
    fn single_cell_matches(t in any::<u64>(), b in 0u32..1024, seed in any::<u64>()) {
        let spec = BootstrapSpec::new(b + 1, seed);
        let mut out = Vec::new();
        spec.weights_batch(&[t], &mut out);
        prop_assert_eq!(u32::from(out[b as usize]), spec.weight(t, b));
    }
}

/// Every path of the kernel on one fixed matrix: 2,000 tuples × 100
/// replicas, each cell against the scalar draw. Weights 0..=7 must all
/// occur, so the branch-free draws 3 and 4 and the scalar tail past them
/// (weights ≥ 4, ~1.9% of cells) all ran.
#[test]
fn every_cell_and_every_chain_length_matches_the_scalar_draw() {
    let spec = BootstrapSpec::new(100, 0x5EED);
    let ids: Vec<u64> = (0..2000u64).map(|i| i * 0x9E37 + 11).collect();
    let mut out = Vec::new();
    spec.weights_batch(&ids, &mut out);
    let mut seen = [0usize; 17];
    for (i, &t) in ids.iter().enumerate() {
        for b in 0..100u32 {
            let w = out[i * 100 + b as usize];
            assert_eq!(u32::from(w), spec.weight(t, b), "tuple {t} trial {b}");
            seen[w as usize] += 1;
        }
    }
    for (w, &n) in seen.iter().enumerate().take(8) {
        assert!(n > 0, "weight {w} never drawn: {seen:?}");
    }
}
