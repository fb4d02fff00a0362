//! Constant-space streaming quantile estimation (the P² algorithm).
//!
//! Quantile aggregates must be maintainable incrementally across hundreds of
//! bootstrap replicas, so storing all observations is out of the question.
//! P² (Jain & Chlamtac, 1985) tracks five markers whose positions follow a
//! piecewise-parabolic interpolation of the empirical CDF — O(1) space,
//! O(1) update, typically within a fraction of a percent of the exact
//! quantile for unimodal data.
//!
//! Weighted updates repeat the observation `weight` times (bootstrap
//! weights are small non-negative integers; multiplicity scaling never
//! touches quantiles because they are scale-free).

/// P² estimator of a single quantile `q`.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated quantile values).
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Observations seen so far (before the 5 needed to initialize, they
    /// are buffered in `heights[..count]`).
    count: usize,
}

impl P2Quantile {
    pub fn new(q: f64) -> Self {
        let q = q.clamp(0.0, 1.0);
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The quantile this estimator tracks.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations (counting weight repetitions).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(|a, b| a.total_cmp(b));
            }
            return;
        }

        // Locate the cell containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }
        self.count += 1;

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    self.heights[i] = parabolic;
                } else {
                    self.heights[i] = self.linear(i, d);
                }
                self.positions[i] += d;
            }
        }
    }

    /// Add an observation with an integer weight (repeat semantics).
    pub fn add_weighted(&mut self, x: f64, weight: f64) {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "rounded and clamped at zero; a saturating float-to-int cast"
        )]
        let w = weight.round().max(0.0) as u32;
        for _ in 0..w {
            self.add(x);
        }
    }

    /// Current estimate of the quantile. `None` before any observation.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                // Small-sample: exact interpolated quantile over the buffer.
                let mut v = self.heights[..n].to_vec();
                v.sort_by(|a, b| a.total_cmp(b));
                Some(gola_common::stats::percentile_sorted(&v, self.q))
            }
            _ => Some(self.heights[2]),
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "d is ±1, so this is the neighbouring marker index i ± 1"
        )]
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::rng::SplitMix64;

    fn exact_quantile(xs: &mut [f64], q: f64) -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        gola_common::stats::percentile_sorted(xs, q)
    }

    #[test]
    fn empty_and_small_samples() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.add(3.0);
        assert_eq!(p.estimate(), Some(3.0));
        p.add(1.0);
        assert_eq!(p.estimate(), Some(2.0));
        p.add(2.0);
        assert_eq!(p.estimate(), Some(2.0));
    }

    #[test]
    fn uniform_median_accuracy() {
        let mut p = P2Quantile::new(0.5);
        let mut rng = SplitMix64::new(1);
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            let x = rng.next_f64() * 100.0;
            p.add(x);
            xs.push(x);
        }
        let exact = exact_quantile(&mut xs, 0.5);
        let est = p.estimate().unwrap();
        assert!((est - exact).abs() < 1.0, "est {est} exact {exact}");
    }

    #[test]
    fn skewed_p95_accuracy() {
        let mut p = P2Quantile::new(0.95);
        let mut rng = SplitMix64::new(2);
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            // Exponential-ish skew.
            let x = -(1.0 - rng.next_f64()).ln() * 10.0;
            p.add(x);
            xs.push(x);
        }
        let exact = exact_quantile(&mut xs, 0.95);
        let est = p.estimate().unwrap();
        assert!(
            (est - exact).abs() / exact < 0.05,
            "est {est} exact {exact}"
        );
    }

    #[test]
    fn extreme_quantiles_track_min_max() {
        let mut p0 = P2Quantile::new(0.0);
        let mut p1 = P2Quantile::new(1.0);
        let mut rng = SplitMix64::new(3);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let x = rng.next_f64() * 50.0 - 25.0;
            p0.add(x);
            p1.add(x);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        // The extreme markers track the exact min/max.
        assert!((p0.estimate().unwrap() - lo).abs() < 1.0);
        assert!((p1.estimate().unwrap() - hi).abs() < 1.0);
    }

    #[test]
    fn weighted_updates_repeat() {
        let mut a = P2Quantile::new(0.5);
        let mut b = P2Quantile::new(0.5);
        for i in 0..100 {
            let x = i as f64;
            a.add_weighted(x, 3.0);
            for _ in 0..3 {
                b.add(x);
            }
        }
        assert_eq!(a.estimate(), b.estimate());
        assert_eq!(a.count(), 300);
        // Zero weight is a no-op.
        let (est, n) = (a.estimate(), a.count());
        a.add_weighted(1e9, 0.0);
        assert_eq!(a.estimate(), est);
        assert_eq!(a.count(), n);
    }

    #[test]
    fn constant_stream() {
        let mut p = P2Quantile::new(0.5);
        for _ in 0..1000 {
            p.add(7.0);
        }
        assert_eq!(p.estimate(), Some(7.0));
    }
}
