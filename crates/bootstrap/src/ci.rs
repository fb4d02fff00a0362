//! Estimates with bootstrap-derived error bars.
//!
//! # Finite-population correction
//!
//! Online aggregation samples *without replacement* from a population of
//! known, finite size: after seeing `n` of `N` rows, only `N - n` rows of
//! uncertainty remain, and at `n = N` the answer is exact. The plain
//! bootstrap doesn't know this — its replica spread models sampling *with*
//! replacement from an infinite population, which inflates CI width by
//! ≈ `1 / √(1 − n/N)` as a run approaches full data (and leaves a non-zero
//! interval even at `n = N`). Classic closed-form online aggregation
//! applies the standard correction `fpc = √(1 − n/N)` to its standard
//! errors; [`Estimate`] carries the same factor, set by the executor via
//! [`Estimate::with_fpc`] from the batch schedule's sampling fraction.
//! [`Estimate::std_error`] scales by it directly, and
//! [`Estimate::ci_percentile`] contracts the replica interval around the
//! point estimate by it — so widths shrink by exactly `fpc` and collapse to
//! zero at the final batch.
//!
//! The correction applies only to *reported* uncertainty. Variation ranges
//! (`range_policy`) deliberately keep the uncorrected replica spread: they
//! drive tuple classification, where a conservative envelope is the safe
//! direction, and correcting them would change executor decisions rather
//! than just tightening the error bars.

use std::fmt;

use gola_common::stats::{percentile, stddev_pop};

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy)]
pub struct ConfidenceInterval {
    pub lo: f64,
    pub hi: f64,
    /// Nominal coverage level, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Half-width (the "±" a UI would display).
    pub fn half_width(&self) -> f64 {
        self.width() / 2.0
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.4}, {:.4}] @{:.0}%",
            self.lo,
            self.hi,
            self.level * 100.0
        )
    }
}

/// A running estimate together with its bootstrap replica values.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The point estimate (computed with the true multiplicity weights).
    pub value: f64,
    /// One value per bootstrap replica. Empty when error estimation is
    /// disabled (`trials = 0`) or the value is non-numeric.
    pub replicas: Vec<f64>,
    /// Finite-population correction factor `√(1 − n/N)` (see the module
    /// docs). `1.0` — no correction — when the sampling fraction is
    /// unknown; `0.0` once the full population has been seen.
    pub fpc: f64,
}

impl Estimate {
    pub fn new(value: f64, replicas: Vec<f64>) -> Self {
        Estimate {
            value,
            replicas,
            fpc: 1.0,
        }
    }

    /// An estimate with no error information.
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            replicas: Vec::new(),
            fpc: 1.0,
        }
    }

    /// Attach the finite-population correction factor (clamped to
    /// `[0, 1]`): `√(1 − n/N)` for `n` of `N` rows seen.
    pub fn with_fpc(mut self, fpc: f64) -> Self {
        self.fpc = fpc.clamp(0.0, 1.0);
        self
    }

    /// Bootstrap standard error: the standard deviation of the replica
    /// distribution, scaled by the finite-population correction. `None`
    /// without replicas.
    pub fn std_error(&self) -> Option<f64> {
        stddev_pop(&self.replicas).map(|s| s * self.fpc)
    }

    /// Relative standard deviation `σ̂ / |estimate|` — the y-axis of the
    /// paper's Figure 3(a). `None` without replicas or for a zero estimate.
    pub fn rel_stddev(&self) -> Option<f64> {
        let se = self.std_error()?;
        if self.value == 0.0 {
            return None;
        }
        Some(se / self.value.abs())
    }

    /// Percentile-method bootstrap CI at `level` (e.g. 0.95), contracted
    /// around the point estimate by the finite-population correction so the
    /// width scales by exactly `fpc` (zero once the full population has
    /// been seen). `None` without replicas.
    pub fn ci_percentile(&self, level: f64) -> Option<ConfidenceInterval> {
        if self.replicas.is_empty() {
            return None;
        }
        let alpha = (1.0 - level) / 2.0;
        let lo = percentile(&self.replicas, alpha)?;
        let hi = percentile(&self.replicas, 1.0 - alpha)?;
        // `fpc = 1` must be a bit-exact no-op (uncorrected bootstrap), not
        // a round trip through `value - (value - lo)`.
        if self.fpc >= 1.0 {
            return Some(ConfidenceInterval { lo, hi, level });
        }
        Some(ConfidenceInterval {
            lo: self.value - (self.value - lo) * self.fpc,
            hi: self.value + (hi - self.value) * self.fpc,
            level,
        })
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ci_percentile(0.95) {
            Some(ci) => write!(f, "{:.4} ± {:.4}", self.value, ci.half_width()),
            None => write!(f, "{:.4}", self.value),
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact float results")]
mod tests {
    use super::*;

    fn est() -> Estimate {
        Estimate::new(10.0, (0..101).map(|i| 9.0 + i as f64 * 0.02).collect())
    }

    #[test]
    fn std_error_and_rel_stddev() {
        let e = est();
        let se = e.std_error().unwrap();
        assert!(se > 0.5 && se < 0.65, "se {se}");
        assert!((e.rel_stddev().unwrap() - se / 10.0).abs() < 1e-12);
        assert_eq!(Estimate::exact(5.0).std_error(), None);
        assert_eq!(Estimate::new(0.0, vec![1.0, 2.0]).rel_stddev(), None);
    }

    #[test]
    fn percentile_ci_covers_bulk() {
        let e = est();
        let ci = e.ci_percentile(0.95).unwrap();
        assert!(ci.lo > 9.0 && ci.lo < 9.1, "lo {}", ci.lo);
        assert!(ci.hi > 10.9 && ci.hi < 11.0, "hi {}", ci.hi);
        assert!(ci.contains(10.0));
        assert!(!ci.contains(20.0));
    }

    #[test]
    fn fpc_scales_widths_and_collapses() {
        let plain = est().ci_percentile(0.95).unwrap();
        let half = est().with_fpc(0.5);
        let ci = half.ci_percentile(0.95).unwrap();
        assert!(
            (ci.width() - plain.width() * 0.5).abs() < 1e-12,
            "width {} vs uncorrected {}",
            ci.width(),
            plain.width()
        );
        assert!(ci.contains(10.0), "correction keeps the point estimate");
        assert!((half.std_error().unwrap() - est().std_error().unwrap() * 0.5).abs() < 1e-12);
        // Full population seen: the interval collapses onto the point
        // estimate, exactly like a closed-form interval.
        let done = est().with_fpc(0.0);
        let ci0 = done.ci_percentile(0.95).unwrap();
        assert_eq!((ci0.lo, ci0.hi), (10.0, 10.0));
        assert_eq!(ci0.width(), 0.0);
        assert_eq!(done.std_error(), Some(0.0));
        // The factor is clamped to [0, 1].
        assert_eq!(est().with_fpc(1.5).fpc, 1.0);
        assert_eq!(est().with_fpc(-0.1).fpc, 0.0);
    }

    #[test]
    fn fpc_one_is_bit_exact_noop() {
        let a = est().ci_percentile(0.95).unwrap();
        let b = est().with_fpc(1.0).ci_percentile(0.95).unwrap();
        assert_eq!(a.lo.to_bits(), b.lo.to_bits());
        assert_eq!(a.hi.to_bits(), b.hi.to_bits());
    }

    #[test]
    fn ci_at_replica_count_boundaries() {
        // n = 1: every percentile is the single replica (interpolation has
        // nothing to interpolate between).
        let one = Estimate::new(5.0, vec![4.0]);
        let ci = one.ci_percentile(0.95).unwrap();
        assert_eq!((ci.lo, ci.hi), (4.0, 4.0));
        // n = 2, alpha = 0.025: linear interpolation between the two order
        // statistics at positions 0.025 and 0.975 of [4, 6].
        let two = Estimate::new(5.0, vec![6.0, 4.0]);
        let ci = two.ci_percentile(0.95).unwrap();
        assert!((ci.lo - 4.05).abs() < 1e-12, "lo {}", ci.lo);
        assert!((ci.hi - 5.95).abs() < 1e-12, "hi {}", ci.hi);
    }

    #[test]
    fn display_shows_error_bar() {
        let s = est().to_string();
        assert!(s.starts_with("10.0000 ±"), "{s}");
        assert_eq!(Estimate::exact(1.5).to_string(), "1.5000");
    }
}
