//! Variation ranges and interval arithmetic.
//!
//! The paper defines the variation range `R(u)` of an uncertain value `u`
//! as the set of values it may take during online execution, approximated
//! from bootstrap outputs as `[min(û) − ε, max(û) + ε]` (§3.2). Predicates
//! compare a deterministic value's point range against `R(u)` — but real
//! queries compare *expressions over* `u` (e.g. TPC-H Q17's
//! `quantity < 0.2 * AVG(quantity)`), so ranges must propagate through
//! arithmetic. [`RangeVal`] implements that propagation.

use gola_common::Value;

use crate::tri::Tri;

/// The possible values an expression may take across future mini-batches.
#[derive(Debug, Clone)]
pub enum RangeVal {
    /// Exactly this value (deterministic operand, e.g. a base-table column).
    Exact(Value),
    /// A numeric interval `[lo, hi]` (uncertain aggregate or arithmetic
    /// over one).
    Num { lo: f64, hi: f64 },
    /// No usable bound — classification must fall back to `Maybe`.
    Unknown,
}

/// Total-order equality: `Num` bounds compare via `total_cmp`, so two
/// ranges are equal iff they are bitwise the same interval. The derived
/// impl used IEEE `==`, under which a NaN bound made a range unequal to
/// itself — the `eq_tri` bug class from the vectorized-kernel PR.
impl PartialEq for RangeVal {
    fn eq(&self, other: &RangeVal) -> bool {
        match (self, other) {
            (RangeVal::Exact(a), RangeVal::Exact(b)) => a == b,
            (RangeVal::Num { lo: a, hi: b }, RangeVal::Num { lo: c, hi: d }) => {
                a.total_cmp(c).is_eq() && b.total_cmp(d).is_eq()
            }
            (RangeVal::Unknown, RangeVal::Unknown) => true,
            _ => false,
        }
    }
}

impl RangeVal {
    /// Construct a numeric interval, normalizing order.
    pub fn num(a: f64, b: f64) -> RangeVal {
        if a.is_nan() || b.is_nan() {
            return RangeVal::Unknown;
        }
        if a <= b {
            RangeVal::Num { lo: a, hi: b }
        } else {
            RangeVal::Num { lo: b, hi: a }
        }
    }

    /// A degenerate interval holding one number. Routed through [`num`]
    /// so a NaN collapses to `Unknown` instead of forging a `Num` range
    /// that violates the NaN-free bounds invariant.
    ///
    /// [`num`]: RangeVal::num
    pub fn point(x: f64) -> RangeVal {
        RangeVal::num(x, x)
    }

    /// Numeric bounds of this range, if it has them.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        match self {
            RangeVal::Exact(v) => v.as_f64().map(|x| (x, x)),
            RangeVal::Num { lo, hi } => Some((*lo, *hi)),
            RangeVal::Unknown => None,
        }
    }

    /// Does `x` lie inside the range? (`Unknown` contains everything.)
    pub fn contains(&self, x: f64) -> bool {
        match self.bounds() {
            Some((lo, hi)) => lo <= x && x <= hi,
            None => true,
        }
    }

    /// Intersect with another range (used for the committed envelope `E`,
    /// which only ever narrows). Returns `None` if the intersection is
    /// empty.
    pub fn intersect(&self, other: &RangeVal) -> Option<RangeVal> {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => {
                let lo = a.max(c);
                let hi = b.min(d);
                if lo <= hi {
                    Some(RangeVal::Num { lo, hi })
                } else {
                    None
                }
            }
            (None, _) => Some(other.clone()),
            (_, None) => Some(self.clone()),
        }
    }

    /// Interval width (0 for exact, ∞ for unknown).
    pub fn width(&self) -> f64 {
        match self.bounds() {
            Some((lo, hi)) => hi - lo,
            None => f64::INFINITY,
        }
    }

    pub fn add(&self, other: &RangeVal) -> RangeVal {
        self.combine(other, |a, b, c, d| (a + c, b + d))
    }

    pub fn sub(&self, other: &RangeVal) -> RangeVal {
        self.combine(other, |a, b, c, d| (a - d, b - c))
    }

    pub fn mul(&self, other: &RangeVal) -> RangeVal {
        self.combine(other, |a, b, c, d| {
            let products = [a * c, a * d, b * c, b * d];
            (
                products.iter().copied().fold(f64::INFINITY, f64::min),
                products.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        })
    }

    /// Interval division. If the divisor interval contains 0 the result is
    /// unbounded → `Unknown`.
    pub fn div(&self, other: &RangeVal) -> RangeVal {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => {
                if c <= 0.0 && d >= 0.0 {
                    RangeVal::Unknown
                } else {
                    let quotients = [a / c, a / d, b / c, b / d];
                    RangeVal::num(
                        quotients.iter().copied().fold(f64::INFINITY, f64::min),
                        quotients.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    )
                }
            }
            _ => RangeVal::Unknown,
        }
    }

    pub fn neg(&self) -> RangeVal {
        match self.bounds() {
            Some((lo, hi)) => RangeVal::num(-hi, -lo),
            None => RangeVal::Unknown,
        }
    }

    fn combine(&self, other: &RangeVal, f: impl Fn(f64, f64, f64, f64) -> (f64, f64)) -> RangeVal {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => {
                let (lo, hi) = f(a, b, c, d);
                RangeVal::num(lo, hi)
            }
            _ => RangeVal::Unknown,
        }
    }

    /// Classify `self < other` over the ranges (paper §3.2: deterministic
    /// iff the ranges do not overlap in the relevant direction).
    pub fn lt(&self, other: &RangeVal) -> Tri {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => {
                if b < c {
                    Tri::True
                } else if a >= d {
                    Tri::False
                } else {
                    Tri::Maybe
                }
            }
            _ => self.cmp_non_numeric(other, false),
        }
    }

    /// Classify `self <= other`.
    pub fn le(&self, other: &RangeVal) -> Tri {
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => {
                if b <= c {
                    Tri::True
                } else if a > d {
                    Tri::False
                } else {
                    Tri::Maybe
                }
            }
            _ => self.cmp_non_numeric(other, true),
        }
    }

    /// Classify `self > other`.
    pub fn gt(&self, other: &RangeVal) -> Tri {
        other.lt(self)
    }

    /// Classify `self >= other`.
    pub fn ge(&self, other: &RangeVal) -> Tri {
        other.le(self)
    }

    /// Classify `self == other`. Equality is deterministic-true only when
    /// both sides are the same exact point; deterministic-false when the
    /// ranges are disjoint.
    pub fn eq_tri(&self, other: &RangeVal) -> Tri {
        // Exact values compare under the same total order point evaluation
        // uses (`Value::total_cmp`) so the two paths agree on every input —
        // `Value`'s derived `==` would disagree on NaN, which total order
        // treats as equal to itself.
        if let (RangeVal::Exact(a), RangeVal::Exact(b)) = (self, other) {
            if !a.is_null() && !b.is_null() {
                return Tri::from(a.total_cmp(b) == std::cmp::Ordering::Equal);
            }
            return Tri::Maybe;
        }
        match (self.bounds(), other.bounds()) {
            (Some((a, b)), Some((c, d))) => {
                if b < c || d < a {
                    Tri::False
                } else if a == b && c == d && a == c {
                    Tri::True
                } else {
                    Tri::Maybe
                }
            }
            _ => Tri::Maybe,
        }
    }

    /// Non-numeric fallback for ordered comparison: only exact, same-typed
    /// values classify deterministically. `allow_eq` distinguishes `<=`
    /// from `<` — without it boundary-equal values (e.g. `'b' <= 'b'`)
    /// would classify as certain-false and be dropped from the result.
    fn cmp_non_numeric(&self, other: &RangeVal, allow_eq: bool) -> Tri {
        if let (RangeVal::Exact(a), RangeVal::Exact(b)) = (self, other) {
            if !a.is_null() && !b.is_null() {
                let ord = a.total_cmp(b);
                return Tri::from(
                    ord == std::cmp::Ordering::Less
                        || (allow_eq && ord == std::cmp::Ordering::Equal),
                );
            }
        }
        Tri::Maybe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_soundness_examples() {
        let a = RangeVal::num(1.0, 2.0);
        let b = RangeVal::num(-3.0, 4.0);
        assert_eq!(a.add(&b), RangeVal::num(-2.0, 6.0));
        assert_eq!(a.sub(&b), RangeVal::num(-3.0, 5.0));
        assert_eq!(a.mul(&b), RangeVal::num(-6.0, 8.0));
        assert_eq!(a.neg(), RangeVal::num(-2.0, -1.0));
    }

    #[test]
    fn division_by_zero_spanning_interval_is_unknown() {
        let a = RangeVal::num(1.0, 2.0);
        assert_eq!(a.div(&RangeVal::num(-1.0, 1.0)), RangeVal::Unknown);
        assert_eq!(a.div(&RangeVal::num(2.0, 4.0)), RangeVal::num(0.25, 1.0));
        assert_eq!(
            a.div(&RangeVal::num(-4.0, -2.0)),
            RangeVal::num(-1.0, -0.25)
        );
    }

    #[test]
    fn comparison_classification() {
        let x = RangeVal::point(5.0);
        let u = RangeVal::num(6.0, 8.0);
        assert_eq!(x.lt(&u), Tri::True);
        assert_eq!(x.gt(&u), Tri::False);
        let v = RangeVal::num(4.0, 6.0);
        assert_eq!(x.lt(&v), Tri::Maybe);
        // Boundary: x >= hi of other ⇒ x < other is False.
        assert_eq!(RangeVal::point(7.0).lt(&u), Tri::Maybe);
        assert_eq!(RangeVal::point(8.0).lt(&u), Tri::False);
        assert_eq!(RangeVal::point(9.0).lt(&u), Tri::False);
        assert_eq!(RangeVal::point(6.0).le(&u), Tri::True);
    }

    #[test]
    fn equality_classification() {
        assert_eq!(
            RangeVal::point(3.0).eq_tri(&RangeVal::point(3.0)),
            Tri::True
        );
        assert_eq!(
            RangeVal::point(3.0).eq_tri(&RangeVal::num(4.0, 5.0)),
            Tri::False
        );
        assert_eq!(
            RangeVal::point(4.5).eq_tri(&RangeVal::num(4.0, 5.0)),
            Tri::Maybe
        );
        assert_eq!(
            RangeVal::Exact(Value::str("a")).eq_tri(&RangeVal::Exact(Value::str("a"))),
            Tri::True
        );
        assert_eq!(
            RangeVal::Exact(Value::str("a")).eq_tri(&RangeVal::Exact(Value::str("b"))),
            Tri::False
        );
    }

    #[test]
    fn unknown_poisons() {
        let a = RangeVal::num(1.0, 2.0);
        assert_eq!(a.add(&RangeVal::Unknown), RangeVal::Unknown);
        assert_eq!(a.lt(&RangeVal::Unknown), Tri::Maybe);
        assert!(RangeVal::Unknown.contains(1e300));
    }

    #[test]
    fn intersect_narrows() {
        let a = RangeVal::num(0.0, 10.0);
        let b = RangeVal::num(5.0, 15.0);
        assert_eq!(a.intersect(&b), Some(RangeVal::num(5.0, 10.0)));
        let c = RangeVal::num(11.0, 12.0);
        assert_eq!(a.intersect(&c), None);
        assert_eq!(RangeVal::Unknown.intersect(&a), Some(a.clone()));
    }

    #[test]
    fn exact_value_bounds() {
        assert_eq!(RangeVal::Exact(Value::Int(3)).bounds(), Some((3.0, 3.0)));
        assert_eq!(RangeVal::Exact(Value::str("x")).bounds(), None);
    }

    #[test]
    fn nan_inputs_become_unknown() {
        assert_eq!(RangeVal::num(f64::NAN, 1.0), RangeVal::Unknown);
    }

    #[test]
    fn string_ordering_exact() {
        let a = RangeVal::Exact(Value::str("apple"));
        let b = RangeVal::Exact(Value::str("banana"));
        assert_eq!(a.lt(&b), Tri::True);
        assert_eq!(b.lt(&a), Tri::False);
    }
}
