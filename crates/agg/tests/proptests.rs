//! Property tests for aggregate states: weighted updates equal repetition,
//! merge is order-insensitive and matches single-pass accumulation bit for
//! bit, scaling laws hold, and monotone lower bounds actually bound.

use gola_agg::{AggKind, AggState, ReplicatedStates};
use gola_bootstrap::BootstrapSpec;
use gola_common::Value;
use proptest::prelude::*;

fn numeric_kinds() -> Vec<AggKind> {
    vec![
        AggKind::Count,
        AggKind::Sum,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
        AggKind::VarPop,
        AggKind::StdDev,
    ]
}

fn feed(kind: &AggKind, xs: &[(f64, u8)]) -> AggState {
    let mut s = kind.new_state();
    for &(x, w) in xs {
        s.update(&Value::Float(x), w as f64);
    }
    s
}

fn close(a: &Value, b: &Value, tol: f64) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x - y).abs() <= tol * (1.0 + y.abs()),
        _ => a == b,
    }
}

/// Equal to the last bit. The mergeable states are multiset-exact
/// (DESIGN.md §3.9), so any regrouping of the same tuples must finalize
/// to the same bits.
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Replicated states over `xs`, tuple `t` carrying id `first_id + t`.
fn feed_replicated(spec: &BootstrapSpec, first_id: u64, xs: &[f64]) -> ReplicatedStates {
    let kinds = numeric_kinds();
    let mut s = ReplicatedStates::new(&kinds, spec.trials);
    for (t, &x) in (first_id..).zip(xs) {
        s.update(&vec![Value::Float(x); kinds.len()], t, spec);
    }
    s
}

proptest! {
    #[test]
    fn weighted_update_equals_repetition(
        xs in prop::collection::vec((-1e3f64..1e3, 0u8..4), 0..60),
    ) {
        for kind in numeric_kinds() {
            let weighted = feed(&kind, &xs);
            let mut repeated = kind.new_state();
            for &(x, w) in &xs {
                for _ in 0..w {
                    repeated.update(&Value::Float(x), 1.0);
                }
            }
            // SUM/AVG/VAR accumulate through exact expansions, so a
            // weighted update and its unit-weight repetition agree to the
            // last bit; 1e-9 is pure slack.
            let tol = 1e-9;
            prop_assert!(
                close(&weighted.finalize(1.0), &repeated.finalize(1.0), tol),
                "{kind}: {} vs {}",
                weighted.finalize(1.0),
                repeated.finalize(1.0)
            );
        }
    }

    #[test]
    fn merge_matches_single_pass(
        xs in prop::collection::vec((-1e3f64..1e3, 1u8..3), 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        for kind in numeric_kinds() {
            let whole = feed(&kind, &xs);
            let mut a = feed(&kind, &xs[..split]);
            let b = feed(&kind, &xs[split..]);
            a.merge(&b);
            prop_assert!(
                bits_eq(&a.finalize(1.0), &whole.finalize(1.0)),
                "{kind} merge mismatch: {} vs {}",
                a.finalize(1.0),
                whole.finalize(1.0)
            );
        }
    }

    #[test]
    fn merge_is_commutative(
        xs in prop::collection::vec((-1e3f64..1e3, 1u8..3), 1..30),
        ys in prop::collection::vec((-1e3f64..1e3, 1u8..3), 1..30),
    ) {
        for kind in numeric_kinds() {
            let mut ab = feed(&kind, &xs);
            ab.merge(&feed(&kind, &ys));
            let mut ba = feed(&kind, &ys);
            ba.merge(&feed(&kind, &xs));
            prop_assert!(bits_eq(&ab.finalize(1.0), &ba.finalize(1.0)), "{kind}");
        }
    }

    #[test]
    fn merge_regroups_bit_exactly(
        xs in prop::collection::vec((-1e3f64..1e3, 1u8..3), 1..60),
        cut1 in 0usize..60,
        cut2 in 0usize..60,
    ) {
        // (a ⊕ b) ⊕ c ≡ a ⊕ (b ⊕ c) ≡ the single pass over a ++ b ++ c.
        let (i, j) = (cut1.min(cut2).min(xs.len()), cut1.max(cut2).min(xs.len()));
        let (xa, xb, xc) = (&xs[..i], &xs[i..j], &xs[j..]);
        for kind in numeric_kinds() {
            let whole = feed(&kind, &xs).finalize(1.0);
            let mut left = feed(&kind, xa);
            left.merge(&feed(&kind, xb));
            left.merge(&feed(&kind, xc));
            let mut bc = feed(&kind, xb);
            bc.merge(&feed(&kind, xc));
            let mut right = feed(&kind, xa);
            right.merge(&bc);
            prop_assert!(bits_eq(&left.finalize(1.0), &whole), "{kind}: (a⊕b)⊕c");
            prop_assert!(bits_eq(&right.finalize(1.0), &whole), "{kind}: a⊕(b⊕c)");
        }
    }

    #[test]
    fn replicated_merge_matches_single_pass_on_every_lane(
        xs in prop::collection::vec(-1e3f64..1e3, 1..80),
        split in 0usize..80,
        seed in any::<u64>(),
    ) {
        let spec = BootstrapSpec::new(20, seed);
        let split = split.min(xs.len());
        let whole = feed_replicated(&spec, 0, &xs);
        // Lane by lane, as `groups::semi_join_states` merges partitions.
        let tail = feed_replicated(&spec, split as u64, &xs[split..]);
        let mut merged = feed_replicated(&spec, 0, &xs[..split]);
        merged.merge_main(&tail);
        for b in 0..spec.trials {
            merged.merge_replica(b, &tail);
        }
        for (j, kind) in numeric_kinds().iter().enumerate() {
            prop_assert!(bits_eq(&merged.value(j, 1.0), &whole.value(j, 1.0)), "{kind} main");
            for b in 0..spec.trials {
                prop_assert!(
                    bits_eq(&merged.trial_value(j, b, 1.0), &whole.trial_value(j, b, 1.0)),
                    "{kind} replica {b}"
                );
            }
        }
    }

    #[test]
    fn scale_laws(
        xs in prop::collection::vec((-1e3f64..1e3, 1u8..3), 1..40),
        m in 1.0f64..50.0,
    ) {
        // COUNT and SUM scale linearly in the multiplicity; AVG/MIN/MAX/
        // STDDEV are scale-free.
        let count = feed(&AggKind::Count, &xs);
        let c1 = count.finalize(1.0).as_f64().unwrap();
        let cm = count.finalize(m).as_f64().unwrap();
        prop_assert!((cm - m * c1).abs() < 1e-9 * (1.0 + cm.abs()));
        let sum = feed(&AggKind::Sum, &xs);
        let s1 = sum.finalize(1.0).as_f64().unwrap();
        let sm = sum.finalize(m).as_f64().unwrap();
        prop_assert!((sm - m * s1).abs() < 1e-6 * (1.0 + sm.abs()));
        for kind in [AggKind::Avg, AggKind::Min, AggKind::Max, AggKind::StdDev] {
            let s = feed(&kind, &xs);
            prop_assert!(close(&s.finalize(1.0), &s.finalize(m), 1e-12), "{kind}");
        }
    }

    #[test]
    fn monotone_lower_bound_bounds_future(
        xs in prop::collection::vec(0.0f64..1e6, 1..40),
        more in prop::collection::vec(0.0f64..1e6, 0..40),
    ) {
        // For non-negative data, the bound after a prefix holds for every
        // extension of the stream.
        for kind in [AggKind::Count, AggKind::Sum] {
            let mut s = kind.new_state();
            for &x in &xs {
                s.update(&Value::Float(x), 1.0);
            }
            let bound = s.monotone_lower_bound().unwrap();
            for &x in &more {
                s.update(&Value::Float(x), 1.0);
            }
            let final_value = s.finalize(1.0).as_f64().unwrap();
            prop_assert!(final_value >= bound - 1e-9);
        }
    }

    #[test]
    fn negative_sums_have_no_bound(x in -1e6f64..-1e-6) {
        let mut s = AggKind::Sum.new_state();
        s.update(&Value::Float(1.0), 1.0);
        s.update(&Value::Float(x), 1.0);
        prop_assert!(s.monotone_lower_bound().is_none());
    }

    #[test]
    fn finalize_f64_matches_finalize(
        xs in prop::collection::vec((-1e3f64..1e3, 1u8..3), 0..40),
        m in 1.0f64..20.0,
    ) {
        for kind in numeric_kinds() {
            let s = feed(&kind, &xs);
            let boxed = s.finalize(m).as_f64();
            let raw = s.finalize_f64(m);
            match (boxed, raw) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-12),
                (None, None) => {}
                other => prop_assert!(false, "{kind}: {other:?}"),
            }
        }
    }
}

/// The replicated states against an oracle that shares none of their
/// layout: one plain [`AggState`] per (slot, aggregate), slot 0 the main
/// state and `1 + b` replica `b`, fed tuple by tuple through
/// `AggState::update` in ascending trial order and merged through
/// `AggState::merge`. `ReplicatedStates` is documented bit-identical to
/// that at every finalize — through `fold_run`, `update_main`/
/// `update_replica`, `merge_main`/`merge_replica` and `clone` — and this
/// holds it there on every lane kind, run lengths from 1 to a full
/// 1024-tuple chunk, trial counts {0, 1, 100}, biased and masked and
/// all-zero weight rows, and values picked to break a pre-rounding kernel
/// or a one-double sum (NaN, ±∞, ±1e308, subnormals, integers above 2^53).
///
/// `PROPTEST_CASES` raises the case count (`scripts/check.sh` runs 2000 in
/// release); the default keeps `cargo test` quick.
mod run_fold_equivalence {
    use std::sync::Arc;

    use gola_agg::udaf::GeometricMean;
    use gola_agg::{AggKind, AggState, FoldScratch, ReplicatedStates};
    use gola_bootstrap::BootstrapSpec;
    use gola_common::rng::SplitMix64;
    use gola_common::Value;
    use proptest::prelude::*;

    fn cases() -> u32 {
        let env = std::env::var("PROPTEST_CASES").ok();
        env.and_then(|c| c.parse().ok()).unwrap_or(96)
    }

    /// One lane per aggregate kind.
    fn kinds() -> Vec<AggKind> {
        vec![
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
            AggKind::VarPop,
            AggKind::StdDev,
            AggKind::Quantile(0.5),
            AggKind::Udaf(Arc::new(GeometricMean)),
        ]
    }

    /// The kinds whose states merge.
    fn mergeable_kinds() -> Vec<AggKind> {
        kinds().into_iter().filter(AggKind::is_mergeable).collect()
    }

    /// The kinds whose states retract.
    fn retractable_kinds() -> Vec<AggKind> {
        kinds()
            .into_iter()
            .filter(AggKind::is_retractable)
            .collect()
    }

    /// The oracle: `slots[i][j]` is aggregate `j`'s state in slot `i`.
    #[derive(Clone)]
    struct Reference {
        slots: Vec<Vec<AggState>>,
    }

    impl Reference {
        fn new(kinds: &[AggKind], trials: u32) -> Reference {
            let row: Vec<AggState> = kinds.iter().map(AggKind::new_state).collect();
            Reference {
                slots: vec![row; 1 + trials as usize],
            }
        }

        /// Tuple after tuple: the main state at weight 1 (if asked), then
        /// each replica with a non-zero weight, in trial order.
        fn fold(&mut self, run: &Run, include_main: bool) {
            for (t, row) in run.weights.iter().enumerate() {
                let weighted = (1..).zip(row).filter(|(_, &w)| w != 0);
                let main = include_main.then_some((0, &1));
                for (i, &w) in main.into_iter().chain(weighted) {
                    for (st, lane) in self.slots[i].iter_mut().zip(&run.lanes) {
                        st.update(&lane[t], f64::from(w));
                    }
                }
            }
        }

        fn merge(&mut self, i: usize, other: &Reference) {
            for (a, b) in self.slots[i].iter_mut().zip(&other.slots[i]) {
                a.merge(b);
            }
        }
    }

    /// A lane argument from value family `family`: families keep a run's
    /// magnitudes related (one column's worth), `7` mixes them all.
    fn lane_val(rng: &mut SplitMix64, family: u64) -> Value {
        let unit = |rng: &mut SplitMix64| rng.next_f64() - 0.5;
        let pick = |rng: &mut SplitMix64, xs: &[f64]| xs[rng.next_below(xs.len() as u64) as usize];
        match if family == 7 {
            rng.next_below(7)
        } else {
            family
        } {
            // Conviva-like: positive, a few binades.
            0 => Value::Float(rng.next_f64() * 300.0),
            // Small lattice: MIN/MAX ties, exact cancellation.
            1 => Value::Float((rng.next_below(17) as f64 - 8.0) * 0.25),
            // Mixed signs over 80 binades.
            2 => Value::Float(unit(rng) * 2f64.powi(rng.next_below(80) as i32 - 40)),
            // ±1e300 beside ±1e-300, subnormals, signed zeros.
            3 => Value::Float(
                unit(rng) * pick(rng, &[1e300, 1e-300, 1e-310, 5e-324, 0.0, -0.0, 1.0]),
            ),
            // Non-finite values among ordinary ones.
            4 => Value::Float(pick(
                rng,
                &[
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1.5,
                    -2.25,
                    1e308,
                    -1e308,
                ],
            )),
            // Integers above 2^53, as ints (converted) and as floats.
            5 => Value::Int((1i64 << 53) + rng.next_below(1 << 20) as i64 - (1 << 19)),
            // Nulls, strings, bools, small ints: the skipping rules.
            _ => match rng.next_below(5) {
                0 => Value::Null,
                1 => Value::str(if rng.next_below(2) == 0 { "s" } else { "t" }),
                2 => Value::Bool(rng.next_below(2) == 0),
                _ => Value::Int(rng.next_below(200) as i64 - 100),
            },
        }
    }

    /// One run: per lane the tuples' arguments, and per tuple a weight row.
    struct Run {
        lanes: Vec<Vec<Value>>,
        weights: Vec<Vec<u8>>,
    }

    fn run(rng: &mut SplitMix64, spec: &BootstrapSpec, lanes: usize) -> Run {
        // Mostly short runs (many-group shapes), sometimes a full chunk.
        let n = match rng.next_below(8) {
            0 => 1,
            1..=4 => 1 + rng.next_below(12) as usize,
            5 | 6 => 1 + rng.next_below(200) as usize,
            _ => 1 + rng.next_below(1024) as usize,
        };
        let first_id = rng.next_u64() >> 1;
        let mut weights = Vec::new();
        let mut row = Vec::new();
        for t in 0..n as u64 {
            spec.weights_into(first_id + t, &mut row);
            match rng.next_below(6) {
                // An all-zero row; a masked row (uncertain-set shape).
                0 => row.iter_mut().for_each(|w| *w = 0),
                1 => row.iter_mut().for_each(|w| *w *= rng.next_below(2) as u8),
                _ => {}
            }
            weights.push(row.clone());
        }
        let family = rng.next_below(8);
        let lanes = (0..lanes)
            .map(|_| (0..n).map(|_| lane_val(rng, family)).collect())
            .collect();
        Run { lanes, weights }
    }

    fn bits_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    fn f64_bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    /// Every reader of the states against the oracle's.
    fn assert_states_match(
        states: &ReplicatedStates,
        oracle: &Reference,
        what: &str,
    ) -> Result<(), TestCaseError> {
        let trials = states.trials();
        prop_assert_eq!(trials as usize + 1, oracle.slots.len(), "{}", what);
        for scale in [1.0, 1.5] {
            for j in 0..states.num_aggs() {
                let main = &oracle.slots[0][j];
                let want = main.finalize(scale);
                prop_assert!(
                    bits_eq(&states.value(j, scale), &want),
                    "{what}: main lane {j} scale {scale}: {:?} vs {want:?}",
                    states.value(j, scale)
                );
                let slots = &oracle.slots[1..];
                let values: Vec<Value> = states.trial_values(j, scale).collect();
                let numbers: Vec<Option<f64>> = states.trial_values_f64(j, scale).collect();
                prop_assert_eq!(values.len(), slots.len(), "{}", what);
                for (b, slot) in slots.iter().enumerate() {
                    let want = slot[j].finalize(scale);
                    let got = states.trial_value(j, b as u32, scale);
                    prop_assert!(
                        bits_eq(&got, &want) && bits_eq(&values[b], &want),
                        "{what}: lane {j} trial {b} scale {scale}: {got:?} vs {want:?}"
                    );
                    let want = f64_bits(slot[j].finalize_f64(scale));
                    prop_assert_eq!(
                        f64_bits(numbers[b]),
                        want,
                        "{}: lane {} trial {}",
                        what,
                        j,
                        b
                    );
                }
                let replicas: Vec<f64> = slots
                    .iter()
                    .filter_map(|s| s[j].finalize_f64(scale))
                    .collect();
                let got: Vec<u64> = (states.replica_values(j, scale).iter())
                    .map(|x| x.to_bits())
                    .collect();
                let want: Vec<u64> = replicas.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got, want, "{}: lane {} replica values", what, j);
                let estimate = states.estimate(j, scale);
                match main.finalize(scale).as_f64() {
                    Some(v) => {
                        let e = estimate.expect("numeric main value has an estimate");
                        prop_assert_eq!(e.value.to_bits(), v.to_bits(), "{}", what);
                        let reps: Vec<u64> = e.replicas.iter().map(|x| x.to_bits()).collect();
                        let want: Vec<u64> = replicas.iter().map(|x| x.to_bits()).collect();
                        prop_assert_eq!(reps, want, "{}: lane {} estimate", what, j);
                    }
                    None => prop_assert!(estimate.is_none(), "{}: lane {} estimate", what, j),
                }
                prop_assert_eq!(
                    f64_bits(states.lower_bound(j)),
                    f64_bits(main.monotone_lower_bound()),
                    "{}: lane {} lower bound",
                    what,
                    j
                );
                prop_assert_eq!(
                    f64_bits(states.observations(j)),
                    f64_bits(main.observations()),
                    "{}: lane {} observations",
                    what,
                    j
                );
            }
        }
        let empty = oracle.slots[0].iter().all(AggState::is_empty);
        prop_assert_eq!(states.is_empty(), empty, "{}", what);
        Ok(())
    }

    /// `run` into every lane of `states` through `fold_run`.
    fn fold_run(states: &mut ReplicatedStates, run: &Run, main: bool, scratch: &mut FoldScratch) {
        let rows: Vec<&[u8]> = run.weights.iter().map(Vec::as_slice).collect();
        for (j, values) in run.lanes.iter().enumerate() {
            states.fold_run(j, values, &rows, main, scratch);
        }
    }

    /// A bootstrap spec of 0, 1 or 100 trials, sometimes biased.
    fn spec(rng: &mut SplitMix64) -> BootstrapSpec {
        let trials = [0, 1, 100][rng.next_below(3) as usize];
        let bias = [0, 0, 1, 3][rng.next_below(4) as usize];
        BootstrapSpec::new(trials, rng.next_u64()).with_weight_bias(bias)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]
        /// Two runs in a row (the second lands on non-empty states), with
        /// and without the main state: `fold_run`, the per-tuple
        /// `update_main` + `update_replica`, and one `fold_run` over both
        /// runs concatenated (where a run is cut cannot matter), each
        /// against the oracle.
        #[test]
        fn run_fold_matches_row_major(seed in any::<u64>(), include_main in any::<bool>()) {
            let mut rng = SplitMix64::new(seed);
            let spec = spec(&mut rng);
            let ks = kinds();
            let mut kernel = ReplicatedStates::new(&ks, spec.trials);
            let mut per_tuple = ReplicatedStates::new(&ks, spec.trials);
            let mut whole = ReplicatedStates::new(&ks, spec.trials);
            let mut oracle = Reference::new(&ks, spec.trials);
            let mut scratch = FoldScratch::default();
            let mut both = Run {
                lanes: vec![Vec::new(); ks.len()],
                weights: Vec::new(),
            };
            for _ in 0..2 {
                let run = run(&mut rng, &spec, ks.len());
                fold_run(&mut kernel, &run, include_main, &mut scratch);
                for (t, row) in run.weights.iter().enumerate() {
                    let values: Vec<Value> = run.lanes.iter().map(|l| l[t].clone()).collect();
                    if include_main {
                        per_tuple.update_main(&values);
                    }
                    for (b, &w) in (0..).zip(row).filter(|(_, &w)| w != 0) {
                        per_tuple.update_replica(b, &values, f64::from(w));
                    }
                }
                oracle.fold(&run, include_main);
                for (all, lane) in both.lanes.iter_mut().zip(&run.lanes) {
                    all.extend_from_slice(lane);
                }
                both.weights.extend(run.weights);
            }
            fold_run(&mut whole, &both, include_main, &mut scratch);
            assert_states_match(&kernel, &oracle, "fold_run")?;
            assert_states_match(&per_tuple, &oracle, "update_main/update_replica")?;
            assert_states_match(&whole, &oracle, "fold_run over both runs")?;
        }

        /// Partitions folded apart, then combined the way a semi-join block
        /// combines them: the main states, and a random subset of replicas.
        /// A clone is a snapshot: folding into it leaves the original as it
        /// was, and it goes on like the oracle's clone.
        #[test]
        fn merge_and_clone_match_the_oracle(seed in any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            let spec = spec(&mut rng);
            let ks = mergeable_kinds();
            let mut scratch = FoldScratch::default();
            let mut part = |rng: &mut SplitMix64| {
                let mut states = ReplicatedStates::new(&ks, spec.trials);
                let mut oracle = Reference::new(&ks, spec.trials);
                for _ in 0..1 + rng.next_below(2) {
                    let run = run(rng, &spec, ks.len());
                    fold_run(&mut states, &run, true, &mut scratch);
                    oracle.fold(&run, true);
                }
                (states, oracle)
            };
            let (mut states, mut oracle) = part(&mut rng);
            let (other, other_oracle) = part(&mut rng);
            states.merge_main(&other);
            oracle.merge(0, &other_oracle);
            for b in (0..spec.trials).filter(|_| rng.next_below(2) == 0) {
                states.merge_replica(b, &other);
                oracle.merge(1 + b as usize, &other_oracle);
            }
            assert_states_match(&states, &oracle, "merge")?;

            let (mut copy, mut copy_oracle) = (states.clone(), oracle.clone());
            let include_main = rng.next_below(2) == 0;
            let run = run(&mut rng, &spec, ks.len());
            fold_run(&mut copy, &run, include_main, &mut scratch);
            copy_oracle.fold(&run, include_main);
            assert_states_match(&copy, &copy_oracle, "clone")?;
            assert_states_match(&states, &oracle, "original after its clone moved")?;
        }

        /// The uncertain set's delta re-merge: a contribution that took
        /// two runs and gave one back (`retract_run`, `retract_main`),
        /// merged into deterministic states, finalizes like those states
        /// with the kept run folded in — whenever every value retracts
        /// exactly and the states take an exact merge. Hostile values
        /// (non-finite, near overflow) are the ones the predicates refuse.
        #[test]
        fn retract_then_merge_matches_the_oracle(seed in any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            let spec = spec(&mut rng);
            let ks = retractable_kinds();
            let mut scratch = FoldScratch::default();
            let base = run(&mut rng, &spec, ks.len());
            let mut det = ReplicatedStates::new(&ks, spec.trials);
            fold_run(&mut det, &base, true, &mut scratch);
            let mut oracle = Reference::new(&ks, spec.trials);
            oracle.fold(&base, true);
            let (kept, taken) = (run(&mut rng, &spec, ks.len()), run(&mut rng, &spec, ks.len()));
            let (kept_main, taken_main) = (rng.next_below(2) == 0, rng.next_below(2) == 0);
            let mut contrib = ReplicatedStates::new(&ks, spec.trials);
            let exact = det.takes_exact_merge()
                && [&kept, &taken].iter().all(|r| {
                    (r.lanes.iter().enumerate())
                        .all(|(j, vs)| vs.iter().all(|v| contrib.retracts_exactly(j, v)))
                });
            let tuple = |r: &Run, t: usize| -> Vec<Value> {
                r.lanes.iter().map(|l| l[t].clone()).collect()
            };
            for (r, main) in [(&taken, taken_main), (&kept, kept_main)] {
                fold_run(&mut contrib, r, false, &mut scratch);
                for t in (0..r.weights.len()).filter(|_| main) {
                    contrib.update_main(&tuple(r, t));
                }
            }
            // The taken run's trials go back out as one run per lane, or
            // as signed cells (`move_cells`), as the re-merge does a
            // carried tuple's flipped trials.
            if rng.next_below(2) == 0 {
                let rows: Vec<&[u8]> = taken.weights.iter().map(Vec::as_slice).collect();
                for (j, values) in taken.lanes.iter().enumerate() {
                    contrib.retract_run(j, values, &rows, &mut scratch);
                }
            } else {
                let values: Vec<Value> = (0..taken.weights.len()).flat_map(|t| tuple(&taken, t)).collect();
                let cells: Vec<(u32, u32, i16)> = (taken.weights.iter().enumerate())
                    .flat_map(|(t, row)| {
                        let weighted = (0..).zip(row).filter(|(_, &w)| w != 0);
                        weighted.map(move |(b, &w)| (t as u32, b, -i16::from(w)))
                    })
                    .collect();
                contrib.move_cells(&values, &cells, &mut scratch);
            }
            for t in (0..taken.weights.len()).filter(|_| taken_main) {
                contrib.retract_main(&tuple(&taken, t));
            }
            det.merge(&contrib);
            oracle.fold(&kept, kept_main);
            if exact {
                assert_states_match(&det, &oracle, "retract then merge")?;
            }
        }
    }
}
