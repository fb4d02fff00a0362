//! Variation-range approximation (paper §3.2).
//!
//! The true variation range `R(u)` — all values an inner aggregate `u` may
//! take during online execution — is unknowable until the query finishes.
//! G-OLA approximates it from the bootstrap outputs `û` as
//! `R̂(u) = [min(û) − ε, max(û) + ε]` with a slack `ε` the user controls.
//! Small `ε` shrinks the uncertain sets but raises the probability that a
//! future running value escapes the range (a *failure*, detected by the
//! query controller and repaired by recomputation). The paper reports that
//! `ε = stddev(û)` balances the two. The online executor's default is
//! `3 × stddev(û)` (`OnlineConfig::epsilon`): a committed envelope must
//! cover a running value's whole remaining trajectory, not one batch's
//! spread.

use gola_common::stats::{stddev_pop, stddev_pop_around};

/// How to derive the slack `ε` from the bootstrap replica values.
#[derive(Debug, Clone, Copy)]
pub enum EpsilonPolicy {
    /// `ε = scale × stddev(replicas)`. The paper's recommendation is
    /// `scale = 1`.
    StdDevScaled(f64),
    /// A fixed absolute slack.
    Fixed(f64),
}

impl EpsilonPolicy {
    /// Compute `ε` given the replica values.
    pub fn epsilon(&self, replicas: &[f64]) -> f64 {
        match *self {
            EpsilonPolicy::StdDevScaled(scale) => scale * stddev_pop(replicas).unwrap_or(0.0),
            EpsilonPolicy::Fixed(eps) => eps,
        }
    }
}

/// A concrete approximated variation range `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
pub struct VariationRange {
    pub lo: f64,
    pub hi: f64,
}

impl VariationRange {
    /// Build `R̂(u)` from the current estimate and its bootstrap replicas.
    /// The current value is always included so the range is non-empty even
    /// with zero replicas (then it degenerates to a point ± ε).
    pub fn from_replicas(current: f64, replicas: &[f64], policy: EpsilonPolicy) -> Self {
        // One pass for the extremes and for the sum behind the mean: three
        // independent chains, each in replica order, so every figure is
        // the one `EpsilonPolicy::epsilon` and a separate min/max pass
        // compute.
        let mut sum: f64 = std::iter::empty::<f64>().sum();
        let (mut lo, mut hi) = (current, current);
        for &r in replicas {
            sum += r;
            lo = lo.min(r);
            hi = hi.max(r);
        }
        let eps = match policy {
            EpsilonPolicy::StdDevScaled(scale) if !replicas.is_empty() => {
                scale * stddev_pop_around(replicas, sum / replicas.len() as f64)
            }
            policy => policy.epsilon(replicas),
        };
        VariationRange {
            lo: lo - eps,
            hi: hi + eps,
        }
    }

    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Intersection (used for the committed envelope, which only narrows).
    pub fn intersect(&self, other: &VariationRange) -> Option<VariationRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(VariationRange { lo, hi })
        } else {
            None
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact float results")]
mod tests {
    use super::*;

    #[test]
    fn stddev_policy_matches_paper_default() {
        let replicas = [36.0, 37.0, 38.0, 36.5, 37.5];
        let r = VariationRange::from_replicas(37.0, &replicas, EpsilonPolicy::StdDevScaled(1.0));
        let sd = stddev_pop(&replicas).unwrap();
        assert!((r.lo - (36.0 - sd)).abs() < 1e-12);
        assert!((r.hi - (38.0 + sd)).abs() < 1e-12);
        assert!(r.contains(37.0));
    }

    /// The one-pass range is the two-pass one bit for bit: `ε` from
    /// `EpsilonPolicy::epsilon`, the extremes from a separate min/max
    /// pass — signed zeros, NaN, infinities and huge values included.
    #[test]
    fn one_pass_range_equals_the_two_pass_one() {
        let reference = |current: f64, replicas: &[f64], policy: EpsilonPolicy| {
            let eps = policy.epsilon(replicas);
            let lo = replicas.iter().fold(current, |lo, &r| lo.min(r));
            let hi = replicas.iter().fold(current, |hi, &r| hi.max(r));
            (lo - eps, hi + eps)
        };
        let cases: [&[f64]; 6] = [
            &[],
            &[-0.0],
            &[-0.0, -0.0, 0.0],
            &[1e308, 1e308, -3.5, 0.25],
            &[f64::NAN, 2.0, -1.0],
            &[f64::INFINITY, 1.0, f64::NEG_INFINITY],
        ];
        for replicas in cases {
            for current in [0.0, -0.0, 7.5, f64::NAN] {
                for policy in [EpsilonPolicy::StdDevScaled(3.0), EpsilonPolicy::Fixed(0.5)] {
                    let got = VariationRange::from_replicas(current, replicas, policy);
                    let (lo, hi) = reference(current, replicas, policy);
                    let bits = |x: f64| x.to_bits();
                    assert_eq!(
                        (bits(got.lo), bits(got.hi)),
                        (bits(lo), bits(hi)),
                        "{replicas:?} at {current} under {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_policy() {
        let r = VariationRange::from_replicas(10.0, &[9.0, 11.0], EpsilonPolicy::Fixed(0.5));
        assert_eq!(r.lo, 8.5);
        assert_eq!(r.hi, 11.5);
    }

    #[test]
    fn current_value_always_inside() {
        // Even if every replica sits above the current value.
        let r = VariationRange::from_replicas(5.0, &[8.0, 9.0], EpsilonPolicy::Fixed(0.0));
        assert!(r.contains(5.0));
        assert!(r.contains(9.0));
    }

    #[test]
    fn zero_replicas_degenerate_range() {
        let r = VariationRange::from_replicas(3.0, &[], EpsilonPolicy::StdDevScaled(1.0));
        assert_eq!(r.lo, 3.0);
        assert_eq!(r.hi, 3.0);
        assert!(r.contains(3.0));
        assert!(!r.contains(3.1));
    }

    #[test]
    fn larger_epsilon_widens_range() {
        let replicas = [1.0, 2.0, 3.0];
        let small = VariationRange::from_replicas(2.0, &replicas, EpsilonPolicy::StdDevScaled(0.5));
        let big = VariationRange::from_replicas(2.0, &replicas, EpsilonPolicy::StdDevScaled(2.0));
        assert!(big.width() > small.width());
    }

    #[test]
    fn intersect() {
        let a = VariationRange { lo: 0.0, hi: 10.0 };
        let b = VariationRange { lo: 5.0, hi: 15.0 };
        let i = a.intersect(&b).expect("overlapping ranges intersect");
        assert_eq!((i.lo, i.hi), (5.0, 10.0));
        let c = VariationRange { lo: 20.0, hi: 25.0 };
        assert!(a.intersect(&c).is_none());
    }
}
