//! Weighted aggregate accumulators.

use gola_common::fsum::{ExactSum, ExactVariance};
use gola_common::Value;

use crate::kind::AggKind;
use crate::quantile::P2Quantile;
use crate::udaf::UdafState;

/// A single aggregate accumulator. Updates are weighted (bootstrap Poisson
/// weights); multiset multiplicity is applied at [`AggState::finalize`].
///
/// SUM/AVG/VAR accumulate through [`ExactSum`], so every finalized value is
/// a function of the folded multiset alone — the online executor (which
/// folds in shuffled mini-batch order) and the batch engine (table order)
/// produce bit-identical answers. Weight sums stay plain `f64`: engine
/// weights are small integers, whose sums are exact anyway. QUANTILE (P²)
/// is inherently order-sensitive and is excluded from that contract.
#[derive(Debug, Clone)]
pub enum AggState {
    Count {
        weight_sum: f64,
    },
    Sum {
        sum: ExactSum,
        weight_sum: f64,
        saw_negative: bool,
    },
    Avg {
        sum: ExactSum,
        weight_sum: f64,
    },
    Min {
        best: Option<Value>,
    },
    Max {
        best: Option<Value>,
    },
    Var {
        acc: ExactVariance,
        stddev: bool,
    },
    Quantile(P2Quantile),
    Udaf(Box<dyn UdafState>),
}

impl AggState {
    pub fn new(kind: &AggKind) -> AggState {
        match kind {
            AggKind::Count => AggState::Count { weight_sum: 0.0 },
            AggKind::Sum => AggState::Sum {
                sum: ExactSum::new(),
                weight_sum: 0.0,
                saw_negative: false,
            },
            AggKind::Avg => AggState::Avg {
                sum: ExactSum::new(),
                weight_sum: 0.0,
            },
            AggKind::Min => AggState::Min { best: None },
            AggKind::Max => AggState::Max { best: None },
            AggKind::VarPop => AggState::Var {
                acc: ExactVariance::new(),
                stddev: false,
            },
            AggKind::StdDev => AggState::Var {
                acc: ExactVariance::new(),
                stddev: true,
            },
            AggKind::Quantile(q) => AggState::Quantile(P2Quantile::new(*q)),
            AggKind::Udaf(u) => AggState::Udaf(u.new_state()),
        }
    }

    /// Fold in one value. SQL semantics: nulls are skipped by every
    /// aggregate; zero/negative weights are no-ops.
    pub fn update(&mut self, value: &Value, weight: f64) {
        if value.is_null() || weight <= 0.0 {
            return;
        }
        match self {
            AggState::Count { weight_sum } => *weight_sum += weight,
            AggState::Sum {
                sum,
                weight_sum,
                saw_negative,
            } => {
                if let Some(x) = value.as_f64() {
                    // Uniform `add_product` for every weight: for finite x,
                    // `add_product(x, 1.0)` is bit-identical to `add(x)`
                    // (the product is exact and its fma error term is +0.0,
                    // which `ExactSum::add` drops), and skipping the
                    // data-dependent `weight == 1` branch keeps the
                    // per-replica fold pipeline predictable.
                    sum.add_product(x, weight);
                    *weight_sum += weight;
                    if x < 0.0 {
                        *saw_negative = true;
                    }
                }
            }
            AggState::Avg { sum, weight_sum } => {
                if let Some(x) = value.as_f64() {
                    sum.add_product(x, weight);
                    *weight_sum += weight;
                }
            }
            AggState::Min { best } => {
                let replace = match best {
                    None => true,
                    Some(b) => value.total_cmp(b) == std::cmp::Ordering::Less,
                };
                if replace {
                    *best = Some(value.clone());
                }
            }
            AggState::Max { best } => {
                let replace = match best {
                    None => true,
                    Some(b) => value.total_cmp(b) == std::cmp::Ordering::Greater,
                };
                if replace {
                    *best = Some(value.clone());
                }
            }
            AggState::Var { acc, .. } => {
                if let Some(x) = value.as_f64() {
                    acc.add_weighted(x, weight);
                }
            }
            AggState::Quantile(p2) => {
                if let Some(x) = value.as_f64() {
                    p2.add_weighted(x, weight);
                }
            }
            AggState::Udaf(state) => state.update(value, weight),
        }
    }

    /// The total-weight tally of a summing state (COUNT's count, SUM/AVG's
    /// `weight_sum`, VAR's `count`) — `None` for the kinds that look at
    /// every value themselves (MIN/MAX/QUANTILE/UDAF). Run folds bump it by
    /// a whole run's weight total at once.
    pub(crate) fn weight_total_mut(&mut self) -> Option<&mut f64> {
        match self {
            AggState::Count { weight_sum }
            | AggState::Sum { weight_sum, .. }
            | AggState::Avg { weight_sum, .. } => Some(weight_sum),
            AggState::Var { acc, .. } => Some(&mut acc.count),
            _ => None,
        }
    }

    /// The exact sum a summing state keeps of `w·x` (SUM/AVG/VAR) or, with
    /// `squares`, of `w·x²` (VAR).
    pub(crate) fn exact_sum_mut(&mut self, squares: bool) -> Option<&mut ExactSum> {
        match self {
            AggState::Sum { sum, .. } | AggState::Avg { sum, .. } if !squares => Some(sum),
            AggState::Var { acc, .. } => {
                let (sum, sumsq) = acc.sums_mut();
                Some(if squares { sumsq } else { sum })
            }
            _ => None,
        }
    }

    /// Record that a SUM took a negative contribution (no-op elsewhere).
    pub(crate) fn mark_negative(&mut self) {
        if let AggState::Sum { saw_negative, .. } = self {
            *saw_negative = true;
        }
    }

    /// Merge another state of the same kind (parallel partial aggregation;
    /// panics on kind mismatch — states are paired by construction).
    /// Quantile and UDAF states do not support merging and must be
    /// maintained sequentially.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            // Weight sums are small exact integers carried in f64: addition is
            // exact below 2^53, hence order-free (multiset-exact).
            (AggState::Count { weight_sum: a }, AggState::Count { weight_sum: b }) => *a += b,
            (
                AggState::Sum {
                    sum: s1,
                    weight_sum: w1,
                    saw_negative: n1,
                },
                AggState::Sum {
                    sum: s2,
                    weight_sum: w2,
                    saw_negative: n2,
                },
            ) => {
                s1.merge(s2);
                *w1 += w2;
                *n1 |= n2;
            }
            (
                AggState::Avg {
                    sum: s1,
                    weight_sum: w1,
                },
                AggState::Avg {
                    sum: s2,
                    weight_sum: w2,
                },
            ) => {
                s1.merge(s2);
                *w1 += w2;
            }
            (AggState::Min { best: a }, AggState::Min { best: b }) => {
                if let Some(bv) = b {
                    let replace = match a {
                        None => true,
                        Some(av) => bv.total_cmp(av) == std::cmp::Ordering::Less,
                    };
                    if replace {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Max { best: a }, AggState::Max { best: b }) => {
                if let Some(bv) = b {
                    let replace = match a {
                        None => true,
                        Some(av) => bv.total_cmp(av) == std::cmp::Ordering::Greater,
                    };
                    if replace {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Var { acc: a, .. }, AggState::Var { acc: b, .. }) => a.merge(b),
            (a, b) => panic!(
                "cannot merge aggregate states of different or unmergeable kinds: {a:?} / {b:?}"
            ),
        }
    }

    /// Current aggregate value under multiplicity `scale` (`m = k/i`).
    pub fn finalize(&self, scale: f64) -> Value {
        match self {
            AggState::Count { weight_sum } => Value::Float(weight_sum * scale),
            AggState::Sum {
                sum, weight_sum, ..
            } => {
                if *weight_sum == 0.0 {
                    Value::Null
                } else {
                    Value::Float(sum.value() * scale)
                }
            }
            AggState::Avg { sum, weight_sum } => {
                if *weight_sum == 0.0 {
                    Value::Null
                } else {
                    Value::Float(sum.value() / weight_sum)
                }
            }
            AggState::Min { best } | AggState::Max { best } => best.clone().unwrap_or(Value::Null),
            AggState::Var { acc, stddev } => match acc.variance_pop() {
                Some(v) => Value::Float(if *stddev { v.sqrt() } else { v }),
                None => Value::Null,
            },
            AggState::Quantile(p2) => match p2.estimate() {
                Some(v) => Value::Float(v),
                None => Value::Null,
            },
            AggState::Udaf(state) => state.finalize(scale),
        }
    }

    /// Numeric finalize without constructing a [`Value`] — `None` when the
    /// result is null or non-numeric (MIN/MAX over strings, UDAFs).
    #[inline]
    pub fn finalize_f64(&self, scale: f64) -> Option<f64> {
        match self {
            AggState::Count { weight_sum } => Some(weight_sum * scale),
            AggState::Sum {
                sum, weight_sum, ..
            } => {
                if *weight_sum == 0.0 {
                    None
                } else {
                    Some(sum.value() * scale)
                }
            }
            AggState::Avg { sum, weight_sum } => {
                if *weight_sum == 0.0 {
                    None
                } else {
                    Some(sum.value() / weight_sum)
                }
            }
            AggState::Var { acc, stddev } => {
                acc.variance_pop()
                    .map(|v| if *stddev { v.sqrt() } else { v })
            }
            AggState::Quantile(p2) => p2.estimate(),
            AggState::Min { best } | AggState::Max { best } => {
                best.as_ref().and_then(Value::as_f64)
            }
            AggState::Udaf(state) => state.finalize(scale).as_f64(),
        }
    }

    /// A lower bound on the aggregate's *final* (full-data) value that holds
    /// regardless of the tuples still to arrive: the raw running total for
    /// COUNT and for SUM over non-negative contributions (both can only
    /// grow). `None` when no monotone bound exists.
    pub fn monotone_lower_bound(&self) -> Option<f64> {
        match self {
            AggState::Count { weight_sum } => Some(*weight_sum),
            AggState::Sum {
                sum,
                weight_sum,
                saw_negative,
            } => {
                if *saw_negative || *weight_sum == 0.0 {
                    None
                } else {
                    Some(sum.value())
                }
            }
            _ => None,
        }
    }

    /// Number of (weighted) observations folded in, where the state tracks
    /// it. Used by the executor's small-sample guards: bootstrap variation
    /// ranges over a handful of observations are not trustworthy.
    pub fn observations(&self) -> Option<f64> {
        match self {
            AggState::Count { weight_sum }
            | AggState::Sum { weight_sum, .. }
            | AggState::Avg { weight_sum, .. } => Some(*weight_sum),
            AggState::Var { acc, .. } => Some(acc.count),
            AggState::Quantile(p2) => Some(p2.count() as f64),
            AggState::Min { .. } | AggState::Max { .. } | AggState::Udaf(_) => None,
        }
    }

    /// `true` if no (positive-weight, non-null) value has been folded in.
    pub fn is_empty(&self) -> bool {
        match self {
            AggState::Count { weight_sum } => *weight_sum == 0.0,
            AggState::Sum { weight_sum, .. } | AggState::Avg { weight_sum, .. } => {
                *weight_sum == 0.0
            }
            AggState::Min { best } | AggState::Max { best } => best.is_none(),
            AggState::Var { acc, .. } => acc.count == 0.0,
            AggState::Quantile(p2) => p2.count() == 0,
            AggState::Udaf(state) => state.finalize(1.0).is_null(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(kind: &AggKind, values: &[(f64, f64)]) -> AggState {
        let mut s = kind.new_state();
        for &(v, w) in values {
            s.update(&Value::Float(v), w);
        }
        s
    }

    #[test]
    fn count_scales() {
        let s = feed(&AggKind::Count, &[(1.0, 1.0), (2.0, 1.0), (3.0, 2.0)]);
        assert_eq!(s.finalize(1.0), Value::Float(4.0));
        assert_eq!(s.finalize(2.5), Value::Float(10.0));
    }

    #[test]
    fn count_skips_nulls() {
        let mut s = AggKind::Count.new_state();
        s.update(&Value::Null, 1.0);
        s.update(&Value::Int(1), 1.0);
        assert_eq!(s.finalize(1.0), Value::Float(1.0));
    }

    #[test]
    fn sum_scales_avg_does_not() {
        let sum = feed(&AggKind::Sum, &[(10.0, 1.0), (20.0, 3.0)]);
        assert_eq!(sum.finalize(2.0), Value::Float(140.0));
        let avg = feed(&AggKind::Avg, &[(10.0, 1.0), (20.0, 3.0)]);
        assert_eq!(avg.finalize(1.0), Value::Float(17.5));
        assert_eq!(avg.finalize(99.0), Value::Float(17.5));
    }

    #[test]
    fn empty_aggregates_are_null_except_count() {
        assert_eq!(AggKind::Count.new_state().finalize(1.0), Value::Float(0.0));
        assert!(AggKind::Sum.new_state().finalize(1.0).is_null());
        assert!(AggKind::Avg.new_state().finalize(1.0).is_null());
        assert!(AggKind::Min.new_state().finalize(1.0).is_null());
        assert!(AggKind::StdDev.new_state().finalize(1.0).is_null());
        assert!(AggKind::Quantile(0.5).new_state().finalize(1.0).is_null());
    }

    #[test]
    fn min_max_over_strings() {
        let mut min = AggKind::Min.new_state();
        let mut max = AggKind::Max.new_state();
        for s in ["pear", "apple", "mango"] {
            min.update(&Value::str(s), 1.0);
            max.update(&Value::str(s), 1.0);
        }
        assert_eq!(min.finalize(1.0), Value::str("apple"));
        assert_eq!(max.finalize(1.0), Value::str("pear"));
    }

    #[test]
    fn variance_and_stddev() {
        let var = feed(&AggKind::VarPop, &[(2.0, 1.0), (4.0, 1.0), (6.0, 1.0)]);
        let v = var.finalize(1.0).as_f64().unwrap();
        assert!((v - 8.0 / 3.0).abs() < 1e-12);
        let sd = feed(&AggKind::StdDev, &[(2.0, 1.0), (4.0, 1.0), (6.0, 1.0)]);
        assert!((sd.finalize(1.0).as_f64().unwrap() - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weighted_equals_repetition() {
        let weighted = feed(&AggKind::Avg, &[(3.0, 4.0), (9.0, 2.0)]);
        let repeated = feed(
            &AggKind::Avg,
            &[
                (3.0, 1.0),
                (3.0, 1.0),
                (3.0, 1.0),
                (3.0, 1.0),
                (9.0, 1.0),
                (9.0, 1.0),
            ],
        );
        assert_eq!(weighted.finalize(1.0), repeated.finalize(1.0));
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut s = AggKind::Sum.new_state();
        s.update(&Value::Float(100.0), 0.0);
        assert!(s.finalize(1.0).is_null());
        assert!(s.is_empty());
    }

    #[test]
    fn merge_partials() {
        let mut a = feed(&AggKind::Sum, &[(1.0, 1.0), (2.0, 1.0)]);
        let b = feed(&AggKind::Sum, &[(3.0, 2.0)]);
        a.merge(&b);
        assert_eq!(a.finalize(1.0), Value::Float(9.0));

        let mut v1 = feed(&AggKind::VarPop, &[(1.0, 1.0), (2.0, 1.0)]);
        let v2 = feed(&AggKind::VarPop, &[(3.0, 1.0), (4.0, 1.0)]);
        v1.merge(&v2);
        let direct = feed(
            &AggKind::VarPop,
            &[(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)],
        );
        assert!(
            (v1.finalize(1.0).as_f64().unwrap() - direct.finalize(1.0).as_f64().unwrap()).abs()
                < 1e-12
        );

        let mut m1 = AggKind::Min.new_state();
        m1.update(&Value::Int(5), 1.0);
        let mut m2 = AggKind::Min.new_state();
        m2.update(&Value::Int(3), 1.0);
        m1.merge(&m2);
        assert_eq!(m1.finalize(1.0), Value::Int(3));
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_kind_mismatch_panics() {
        let mut a = AggKind::Count.new_state();
        let b = AggKind::Sum.new_state();
        a.merge(&b);
    }
}
