//! Variation-range approximation (paper §3.2).
//!
//! The true variation range `R(u)` — all values an inner aggregate `u` may
//! take during online execution — is unknowable until the query finishes.
//! G-OLA approximates it from the bootstrap outputs `û` as
//! `R̂(u) = [min(û) − ε, max(û) + ε]` with a slack `ε` the user controls.
//! Small `ε` shrinks the uncertain sets but raises the probability that a
//! future running value escapes the range (a *failure*, detected by the
//! query controller and repaired by recomputation). The paper reports that
//! `ε = stddev(û)` balances the two; that is [`EpsilonPolicy::default`].

use gola_common::stats::stddev_pop;

/// How to derive the slack `ε` from the bootstrap replica values.
#[derive(Debug, Clone, Copy)]
pub enum EpsilonPolicy {
    /// `ε = scale × stddev(replicas)`. The paper's recommendation is
    /// `scale = 1`.
    StdDevScaled(f64),
    /// A fixed absolute slack.
    Fixed(f64),
    /// `ε = scale × |current estimate|` (relative slack).
    Relative(f64),
}

impl Default for EpsilonPolicy {
    fn default() -> Self {
        EpsilonPolicy::StdDevScaled(1.0)
    }
}

impl EpsilonPolicy {
    /// Compute `ε` given the replica values and the current estimate.
    pub fn epsilon(&self, replicas: &[f64], current: f64) -> f64 {
        match *self {
            EpsilonPolicy::StdDevScaled(scale) => scale * stddev_pop(replicas).unwrap_or(0.0),
            EpsilonPolicy::Fixed(eps) => eps,
            EpsilonPolicy::Relative(scale) => scale * current.abs(),
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
        let eps = policy.epsilon(replicas, current);
        let mut lo = current;
        let mut hi = current;
        for &r in replicas {
            lo = lo.min(r);
            hi = hi.max(r);
        }
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
        let r = VariationRange::from_replicas(37.0, &replicas, EpsilonPolicy::default());
        let sd = stddev_pop(&replicas).unwrap();
        assert!((r.lo - (36.0 - sd)).abs() < 1e-12);
        assert!((r.hi - (38.0 + sd)).abs() < 1e-12);
        assert!(r.contains(37.0));
    }

    #[test]
    fn fixed_policy() {
        let r = VariationRange::from_replicas(10.0, &[9.0, 11.0], EpsilonPolicy::Fixed(0.5));
        assert_eq!(r.lo, 8.5);
        assert_eq!(r.hi, 11.5);
    }

    #[test]
    fn relative_policy() {
        let r = VariationRange::from_replicas(-20.0, &[], EpsilonPolicy::Relative(0.1));
        assert_eq!(r.lo, -22.0);
        assert_eq!(r.hi, -18.0);
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
