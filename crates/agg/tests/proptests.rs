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
        let mut merged = feed_replicated(&spec, 0, &xs[..split]);
        merged.merge(&feed_replicated(&spec, split as u64, &xs[split..]));
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

/// Equivalence of the run fold against the row-major reference path.
/// `ReplicatedStates::fold_run` is documented bit-identical, at every
/// finalize, to updating main + each replica in ascending trial order
/// through `AggState::update`, tuple after tuple; this holds it to that —
/// on every lane kind, run lengths from 1 to a full 1024-tuple chunk,
/// trial counts {0, 1, 100}, biased and masked and all-zero weight rows,
/// and values picked to break a pre-rounding kernel.
mod run_fold_equivalence {
    use std::sync::Arc;

    use gola_agg::udaf::GeometricMean;
    use gola_agg::{AggKind, FoldScratch, ReplicatedStates};
    use gola_bootstrap::BootstrapSpec;
    use gola_common::rng::SplitMix64;
    use gola_common::Value;
    use proptest::prelude::*;

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
        weights: Vec<Vec<u32>>,
    }

    fn run(rng: &mut SplitMix64, spec: &BootstrapSpec) -> Run {
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
                1 => row.iter_mut().for_each(|w| *w *= rng.next_below(2) as u32),
                _ => {}
            }
            weights.push(row.clone());
        }
        let family = rng.next_below(8);
        let lanes = (0..kinds().len())
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

    fn assert_states_match(
        kernel: &ReplicatedStates,
        reference: &ReplicatedStates,
        trials: u32,
        what: &str,
    ) -> Result<(), TestCaseError> {
        for scale in [1.0, 1.5] {
            for j in 0..kernel.num_aggs() {
                prop_assert!(
                    bits_eq(&kernel.value(j, scale), &reference.value(j, scale)),
                    "{what}: main lane {j} scale {scale}: {:?} vs {:?}",
                    kernel.value(j, scale),
                    reference.value(j, scale)
                );
                for b in 0..trials {
                    prop_assert!(
                        bits_eq(
                            &kernel.trial_value(j, b, scale),
                            &reference.trial_value(j, b, scale)
                        ),
                        "{what}: lane {j} trial {b} scale {scale}: {:?} vs {:?}",
                        kernel.trial_value(j, b, scale),
                        reference.trial_value(j, b, scale)
                    );
                }
                prop_assert_eq!(kernel.lower_bound(j), reference.lower_bound(j), "{}", what);
                prop_assert_eq!(
                    kernel.observations(j),
                    reference.observations(j),
                    "{}",
                    what
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Two runs in a row (the second lands on non-empty states), with
        /// and without the main state, against the row-major reference.
        #[test]
        fn run_fold_matches_row_major(seed in any::<u64>(), include_main in any::<bool>()) {
            let mut rng = SplitMix64::new(seed);
            let trials = [0, 1, 100][rng.next_below(3) as usize];
            let bias = [0, 0, 1, 3][rng.next_below(4) as usize];
            let spec = BootstrapSpec::new(trials, rng.next_u64()).with_weight_bias(bias);
            let ks = kinds();
            let mut kernel = ReplicatedStates::new(&ks, trials);
            let mut reference = ReplicatedStates::new(&ks, trials);
            let mut scratch = FoldScratch::default();
            for _ in 0..2 {
                let run = run(&mut rng, &spec);
                let rows: Vec<&[u32]> = run.weights.iter().map(Vec::as_slice).collect();
                for (j, values) in run.lanes.iter().enumerate() {
                    kernel.fold_run(j, values, &rows, include_main, &mut scratch);
                }
                for (t, row) in rows.iter().enumerate() {
                    let values: Vec<Value> = run.lanes.iter().map(|l| l[t].clone()).collect();
                    if include_main {
                        reference.update_main(&values);
                    }
                    for (b, &w) in row.iter().enumerate() {
                        if w != 0 {
                            reference.update_replica(b as u32, &values, f64::from(w));
                        }
                    }
                }
            }
            assert_states_match(&kernel, &reference, trials, "fold_run")?;
            prop_assert_eq!(kernel.is_empty(), reference.is_empty());
        }
    }
}
