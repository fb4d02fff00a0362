//! Statistical calibration of the bootstrap confidence intervals.
//!
//! A 95% CI is only worth reporting if, across many independent datasets,
//! it actually contains the true answer about 95% of the time. For each
//! aggregate kind this module runs one fixed query shape over many freshly
//! seeded datasets, reads the CI of a *late* (but not final) batch report —
//! where the answer is still approximate and the finite-population
//! correction carries real weight — and counts how often the exact
//! full-data answer falls inside. The hit count must land in an exact
//! binomial acceptance band around the nominal level — computed from the
//! binomial pmf, not a normal approximation, so the band is honest at the
//! tails.
//!
//! The planted [`Fault::WeightBias`] bug (off-by-one bootstrap weights)
//! roughly doubles every replica of SUM/COUNT-like aggregates while leaving
//! the point estimate alone — coverage collapses to ≈0 and the band check
//! fails loudly. AVG is a ratio whose numerator and denominator are skewed
//! together, so it largely survives the fault; per-kind reporting is what
//! makes the diagnosis readable.

use std::sync::Arc;

use gola_bootstrap::BootstrapSpec;
use gola_core::{OnlineConfig, OnlineSession};
use gola_storage::Catalog;

use crate::gen::SchemaClass;
use crate::oracle::Fault;

/// One calibration query class: a fixed SQL shape whose scalar answer's CI
/// is checked for coverage.
#[derive(Debug, Clone)]
pub struct CalibClass {
    /// Aggregate kind label (`count`, `sum`, `avg`, ...).
    pub kind: &'static str,
    pub schema: SchemaClass,
    pub sql: &'static str,
}

/// The default calibration suite: one scalar query per aggregate kind, per
/// schema family. Filters keep the queries representative of real OLA use
/// (estimating a filtered population, not a full scan).
pub fn default_classes() -> Vec<CalibClass> {
    vec![
        CalibClass {
            kind: "count",
            schema: SchemaClass::Conviva,
            sql: "SELECT COUNT(*) FROM sessions WHERE buffer_time > 8.0",
        },
        CalibClass {
            kind: "sum",
            schema: SchemaClass::Conviva,
            sql: "SELECT SUM(buffer_time) FROM sessions WHERE play_time > 100.0",
        },
        CalibClass {
            kind: "avg",
            schema: SchemaClass::Tpch,
            sql: "SELECT AVG(extendedprice) FROM lineitem_denorm WHERE quantity < 30.0",
        },
        CalibClass {
            kind: "sum-product",
            schema: SchemaClass::Tpch,
            sql: "SELECT SUM(extendedprice * discount) FROM lineitem_denorm",
        },
    ]
}

/// Calibration run parameters.
#[derive(Debug, Clone)]
pub struct CalibConfig {
    /// Independent datasets (seeds) per class. ISSUE floor: ≥ 200.
    pub seeds: usize,
    /// Rows per dataset.
    pub rows: usize,
    /// Mini-batches per run.
    pub num_batches: usize,
    /// Bootstrap replicas.
    pub trials: u32,
    /// Which batch's report to read the CI from (0-based). Must be before
    /// the final batch (whose CI collapses to zero width by construction).
    pub report_batch: usize,
    /// Nominal CI level.
    pub level: f64,
    /// Two-sided acceptance probability mass *excluded* by the band (the
    /// chance a perfectly calibrated estimator still fails, per class).
    pub band_alpha: f64,
}

impl Default for CalibConfig {
    fn default() -> Self {
        CalibConfig {
            seeds: 200,
            rows: 400,
            num_batches: 8,
            trials: 64,
            // Batch 5 of 8: three quarters of the data seen, where the
            // finite-population correction (√(1 − n/N) = 0.5) does real
            // work. Before the fpc landed in `gola_bootstrap::ci`, late
            // batches drifted to 100% coverage for the wrong reason
            // (uncorrected intervals are ≈ 2× too wide at n/N = 3/4) and
            // calibration had to hide at batch 0 to stay honest. With the
            // correction, a late batch is the sharper check: it verifies
            // both the resampling machinery and the correction itself.
            report_batch: 5,
            level: 0.95,
            // With four classes and many CI runs, 1e-4 per class keeps the
            // whole-suite false-failure rate well under 1/1000 while still
            // rejecting coverage below ~88% at n = 200.
            band_alpha: 1e-4,
        }
    }
}

/// Coverage result for one class.
#[derive(Debug, Clone)]
pub struct CalibReport {
    pub kind: &'static str,
    pub schema: SchemaClass,
    pub hits: usize,
    pub runs: usize,
    pub band: (usize, usize),
    pub pass: bool,
}

impl CalibReport {
    pub fn coverage(&self) -> f64 {
        self.hits as f64 / self.runs as f64
    }
}

impl std::fmt::Display for CalibReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:12} {:8} coverage {:3}/{} = {:.1}% (band [{}, {}]) {}",
            self.kind,
            self.schema.to_string(),
            self.hits,
            self.runs,
            self.coverage() * 100.0,
            self.band.0,
            self.band.1,
            if self.pass { "ok" } else { "FAIL" }
        )
    }
}

/// Run calibration for one class under `fault`.
pub fn calibrate(class: &CalibClass, cfg: &CalibConfig, fault: Fault) -> CalibReport {
    let config = OnlineConfig {
        num_batches: cfg.num_batches,
        bootstrap: BootstrapSpec::new(cfg.trials, 0x60_1A)
            .with_weight_bias(u8::from(fault == Fault::WeightBias)),
        ci_level: cfg.level,
        ..OnlineConfig::default()
    };
    let mut hits = 0;
    over_seeds(
        class.schema,
        class.sql,
        cfg.rows,
        cfg.seeds,
        &config,
        |session, truth| {
            let report = session
                .execute_online(class.sql)
                .expect("online run")
                .nth(cfg.report_batch)
                .expect("report batch within k")
                .expect("batch succeeds");
            hits += usize::from(report.ci().expect("primary CI").contains(truth));
        },
    );
    let band = binomial_band(cfg.seeds, cfg.level, cfg.band_alpha);
    CalibReport {
        kind: class.kind,
        schema: class.schema,
        hits,
        runs: cfg.seeds,
        band,
        pass: band.0 <= hits && hits <= band.1,
    }
}

/// The seeded experiment loop shared with the contract oracle: for each of
/// `seeds` datasets, a fresh `rows`-row table and a session on `config`
/// whose partition order varies with the dataset (so coverage averages
/// over both sources of randomness). `trial` gets the session and the
/// exact full-data answer of the scalar query `exact_sql`.
pub(crate) fn over_seeds(
    schema: SchemaClass,
    exact_sql: &str,
    rows: usize,
    seeds: usize,
    config: &OnlineConfig,
    mut trial: impl FnMut(&OnlineSession, f64),
) {
    for seed in 0..seeds as u64 {
        let data = Arc::new(schema.generate(rows, 0xCA11B + seed * 7919));
        let mut catalog = Catalog::new();
        catalog
            .register(schema.table_name(), data)
            .expect("register experiment table");
        let session = OnlineSession::new(
            catalog,
            OnlineConfig {
                partition_seed: 0x9A_27 ^ seed,
                ..config.clone()
            },
        );
        let truth = session
            .execute_exact(exact_sql)
            .expect("experiment query compiles")
            .rows()[0]
            .get(0)
            .as_f64()
            .expect("scalar numeric answer");
        trial(&session, truth);
    }
}

/// Central acceptance band for `Binomial(n, p)`: the smallest `[lo, hi]`
/// with at most `alpha / 2` probability mass strictly below `lo` and
/// strictly above `hi`.
///
/// The pmf is built iteratively from the *upper* end — `pmf(n) = p^n` is
/// ≈ 3.5e-5 for `p = 0.95, n = 200`, comfortably representable, whereas
/// starting from `pmf(0) = (1-p)^n` ≈ 1e-260 flirts with underflow — via
/// the ratio `pmf(k-1) / pmf(k) = (k / (n-k+1)) · ((1-p) / p)`.
pub fn binomial_band(n: usize, p: f64, alpha: f64) -> (usize, usize) {
    assert!(n > 0 && (0.0..1.0).contains(&p) && p > 0.0);
    let mut pmf = vec![0.0f64; n + 1];
    pmf[n] = p.powi(n as i32);
    for k in (1..=n).rev() {
        pmf[k - 1] = pmf[k] * (k as f64 / (n - k + 1) as f64) * ((1.0 - p) / p);
    }
    let half = alpha / 2.0;
    let mut lo = 0;
    let mut mass = 0.0;
    while lo < n && mass + pmf[lo] <= half {
        mass += pmf[lo];
        lo += 1;
    }
    let mut hi = n;
    let mut mass = 0.0;
    while hi > 0 && mass + pmf[hi] <= half {
        mass += pmf[hi];
        hi -= 1;
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_brackets_the_mean() {
        let (lo, hi) = binomial_band(200, 0.95, 1e-4);
        assert!(lo < 190 && 190 < hi, "band [{lo}, {hi}]");
        // The band must reject gross miscalibration in both directions.
        assert!(lo > 170, "lower edge {lo} too permissive");
        assert!(hi <= 200, "upper edge {hi}");
    }

    #[test]
    fn band_tightens_with_alpha() {
        let wide = binomial_band(200, 0.95, 1e-6);
        let tight = binomial_band(200, 0.95, 0.05);
        assert!(
            wide.0 <= tight.0 && tight.1 <= wide.1,
            "{wide:?} vs {tight:?}"
        );
    }

    #[test]
    fn band_pmf_normalizes() {
        // Rebuild the pmf the same way and check it sums to ~1 (guards the
        // iterative recurrence against transcription errors).
        let (n, p) = (200usize, 0.95f64);
        let mut pmf = vec![0.0f64; n + 1];
        pmf[n] = p.powi(n as i32);
        for k in (1..=n).rev() {
            pmf[k - 1] = pmf[k] * (k as f64 / (n - k + 1) as f64) * ((1.0 - p) / p);
        }
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-10, "pmf sums to {total}");
    }

    #[test]
    fn degenerate_small_n() {
        let (lo, hi) = binomial_band(1, 0.95, 0.2);
        assert!(lo <= 1 && hi == 1);
    }
}
