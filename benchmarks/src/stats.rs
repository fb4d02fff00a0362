//! Order statistics the harness reports: medians, the supportable tail
//! percentile, and the run-to-run spread the repeatability check gates on.

use gola_common::stats::percentile;

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(f64::NAN)
}

pub fn mean(xs: &[f64]) -> f64 {
    gola_common::stats::mean(xs).unwrap_or(f64::NAN)
}

/// The central value of a set of repetitions: the mean of its middle half
/// (the lowest and highest quarter dropped). As robust to a stalled
/// repetition as the median, but smooth where the median is not: the batch
/// at which a CI target is met takes a few discrete values, and a median
/// hops between them from run to run.
pub fn midmean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let trim = v.len() / 4;
    mean(&v[trim..v.len() - trim])
}

/// The highest whole percentile with at least ten samples beyond it
/// (choosing-metrics §1): p80 at 60 samples, p95 at 200, none below 11.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n <= 10 {
        return None;
    }
    // `beyond = n·(100−p)/100 ≥ 10`, in integers to stay exact at the edges.
    let p = 100 - 1000usize.div_ceil(n);
    Some((p as u32).min(99))
}

/// `(percentile, value)` of the supportable tail, `None` under 11 samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(xs.len())?;
    Some((p, percentile(xs, f64::from(p) / 100.0)?))
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` (the default
/// "exclusive" method) computes them — the rule the acceptance driver uses.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Run-to-run spread of one metric: with ten or more values the
/// interquartile distance over the median (the driver's rule), with fewer
/// the full range over the median (the `--sets N` self-check).
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    if xs.len() >= 10 {
        let (q1, _, q3) = quartiles(xs).expect("ten values");
        (q3 - q1) / med
    } else {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(60), Some(83));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        for n in 11..2000usize {
            let p = tail_percentile(n).unwrap() as usize;
            assert!(n * (100 - p) >= 1000, "n={n} p={p}: fewer than 10 beyond");
            if p < 99 {
                assert!(n * (100 - p - 1) < 1000, "n={n} p={p}: not the highest");
            }
        }
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        assert!(midmean(&[]).is_nan());
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            midmean(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]),
            5.0
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
