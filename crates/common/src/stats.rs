//! Small statistics helpers shared by the bootstrap and benchmark crates.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    // Left to right over the caller's slice; every caller passes
    // deterministically ordered trial vectors.
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn stddev_pop(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    Some(var.sqrt())
}

/// Sample standard deviation (n−1 denominator). Returns `None` when n < 2.
pub fn stddev_sample(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Percentile with linear interpolation (`q` in `[0, 1]`), like numpy's
/// default. Returns `None` for an empty slice. Sorts a copy.
///
/// The pinned convention (exercised by the unit tests below, relied on by
/// `gola_bootstrap::Estimate::ci_percentile`):
///
/// * **linear interpolation** between order statistics — `pos = q·(n−1)`,
///   result `= x[⌊pos⌋]·(1−frac) + x[⌈pos⌉]·frac` — *not* nearest-rank;
/// * `n = 1` returns the single element for every `q`;
/// * when `pos` lands exactly on an index (including the `q = 0` / `q = 1`
///   endpoints) the element is returned as-is, with no arithmetic applied;
/// * `q` outside `[0, 1]` clamps to the endpoints.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_sorted(&v, q))
}

/// Percentile over an already-sorted slice. Panics on empty input.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "q is clamped to [0, 1], so floor and ceil of the position are valid indices"
)]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Online mean/variance accumulator (Welford), with merge support so it can
/// be maintained per mini-batch and combined.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    pub count: f64,
    pub mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation with a (possibly fractional) weight.
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        let new_count = self.count + w;
        let delta = x - self.mean;
        self.mean += delta * w / new_count;
        self.m2 += w * delta * (x - self.mean);
        self.count = new_count;
    }

    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Merge another accumulator (parallel variance formula).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0.0 {
            return;
        }
        if self.count == 0.0 {
            *self = *other;
            return;
        }
        // The parallel-variance formula rounds, so this merge is not
        // order-free. Welford is a baseline/diagnostic accumulator; the
        // engine's result path merges through `ExactSum` (fsum).
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count / total;
        self.m2 += other.m2 + delta * delta * self.count * other.count / total;
        self.count = total;
    }

    /// Population variance; `None` if no weight observed.
    pub fn variance_pop(&self) -> Option<f64> {
        if self.count > 0.0 {
            Some((self.m2 / self.count).max(0.0))
        } else {
            None
        }
    }

    /// Sample variance; `None` if weight ≤ 1.
    pub fn variance_sample(&self) -> Option<f64> {
        if self.count > 1.0 {
            Some((self.m2 / (self.count - 1.0)).max(0.0))
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
    fn mean_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert!((stddev_pop(&xs).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), None);
        assert_eq!(stddev_pop(&[]), None);
        assert_eq!(stddev_sample(&[1.0]), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
    }

    #[test]
    fn percentile_single_element_for_any_q() {
        for q in [-1.0, 0.0, 0.025, 0.31, 0.5, 0.975, 1.0, 2.0] {
            assert_eq!(percentile(&[7.25], q), Some(7.25), "q = {q}");
        }
    }

    #[test]
    fn percentile_two_elements_interpolates_linearly() {
        // n = 2: pos = q, so the result is the straight line between the
        // two order statistics — the convention ci_percentile leans on at
        // the smallest replica counts.
        let xs = [10.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(4.0));
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
        let lo = percentile(&xs, 0.025).unwrap();
        assert!((lo - (4.0 * 0.975 + 10.0 * 0.025)).abs() < 1e-12, "lo {lo}");
        let hi = percentile(&xs, 0.975).unwrap();
        assert!((hi - (4.0 * 0.025 + 10.0 * 0.975)).abs() < 1e-12, "hi {hi}");
    }

    #[test]
    fn percentile_exact_index_hits_skip_interpolation() {
        // pos = q·(n−1) landing on an integer returns that element with no
        // floating-point arithmetic applied — bit-exact.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        for (q, want) in [
            (0.0, 1.0f64),
            (0.25, 2.0),
            (0.5, 3.0),
            (0.75, 4.0),
            (1.0, 5.0),
        ] {
            let got = percentile(&xs, q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "q = {q}");
        }
        // Endpoints are exact hits even when (n−1)·q would round badly.
        let odd = [0.1, 0.2, 0.3];
        assert_eq!(percentile(&odd, 1.0).unwrap().to_bits(), 0.3f64.to_bits());
    }

    #[test]
    fn percentile_out_of_range_q_clamps() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, -0.5), Some(1.0));
        assert_eq!(percentile(&xs, 1.5), Some(3.0));
    }

    #[test]
    fn welford_matches_direct() {
        let xs = [1.5, -2.0, 3.25, 8.0, 0.0, 4.5];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert!((w.mean - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((w.variance_pop().unwrap().sqrt() - stddev_pop(&xs).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert!((a.mean - whole.mean).abs() < 1e-9);
        assert!((a.variance_pop().unwrap() - whole.variance_pop().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn welford_weighted_equals_repetition() {
        let mut w1 = Welford::new();
        w1.add_weighted(3.0, 4.0);
        w1.add_weighted(7.0, 2.0);
        let mut w2 = Welford::new();
        for _ in 0..4 {
            w2.add(3.0);
        }
        for _ in 0..2 {
            w2.add(7.0);
        }
        assert!((w1.mean - w2.mean).abs() < 1e-12);
        assert!((w1.variance_pop().unwrap() - w2.variance_pop().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn welford_zero_weight_ignored() {
        let mut w = Welford::new();
        w.add_weighted(5.0, 0.0);
        assert_eq!(w.count, 0.0);
        assert_eq!(w.variance_pop(), None);
    }
}
