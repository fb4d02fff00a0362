//! Contract-conformance oracle: do `ERROR p% CONFIDENCE c%` queries keep
//! their promise?
//!
//! For each query class the oracle runs the contracted query over many
//! freshly seeded datasets (calibration's seeded loop) and checks two
//! things at the *stopping* report:
//!
//! 1. **Promise** (deterministic, per run) — if the run stopped with
//!    [`ContractStop::ErrorTargetMet`], the achieved relative error must
//!    actually be ≤ the contract's target. This is trivially true for the
//!    engine's relative stopping rule and is exactly what the planted
//!    [`Fault::AbsoluteStop`] rule breaks: stopping on the *absolute*
//!    half-width fires far too early on any aggregate whose magnitude is
//!    far from 1 (e.g. a ≈0.05 failure *rate*), and the honestly computed
//!    achieved relative error exposes it.
//! 2. **Coverage** (statistical, per class) — the exact full-data answer
//!    must fall inside the stopping report's CI at the contract's
//!    confidence, about `c` of the time; the hit count must land in the
//!    exact binomial band of [`crate::calib::binomial_band`]. A run that
//!    exhausts all batches reports the exact answer and counts as a hit.
//!    Stopping is data-dependent (optional stopping), so the band uses the
//!    same generous per-class `alpha` as calibration rather than
//!    pretending the stopped CI is a fixed-batch CI.

use std::fmt;

use gola_bootstrap::BootstrapSpec;
use gola_core::{BatchReport, ContractStop, OnlineConfig, OnlineSession};

use crate::calib::{binomial_band, over_seeds};
use crate::gen::SchemaClass;
use crate::oracle::Fault;

/// One contract query class: a fixed aggregate SQL shape plus the contract
/// bolted onto it.
#[derive(Debug, Clone)]
pub struct ContractClass {
    /// Label for reports (`count`, `sum`, `avg`, `rate`, ...).
    pub kind: &'static str,
    pub schema: SchemaClass,
    /// The aggregate query *without* the contract clause (also used to
    /// compute the exact answer).
    pub base_sql: &'static str,
    /// Relative error target, as a fraction in (0, 1).
    pub target: f64,
    /// Confidence level, as a fraction in (0, 1).
    pub confidence: f64,
}

impl ContractClass {
    /// The contracted SQL actually executed online.
    pub fn sql(&self) -> String {
        format!(
            "{} ERROR {:?}% CONFIDENCE {:?}%",
            self.base_sql,
            self.target * 100.0,
            self.confidence * 100.0
        )
    }
}

/// The default contract suite. Targets are picked so the honest rule stops
/// *mid-trajectory* for most seeds (a suite that always exhausts would test
/// nothing), except `rate`: its tiny magnitude (≈0.04) makes the relative
/// target unreachable at this scale — the honest rule exhausts (exact
/// answer, promise vacuously kept) while the planted absolute rule stops
/// almost immediately, which is precisely what makes it the
/// [`Fault::AbsoluteStop`] discriminator.
pub fn default_contract_classes() -> Vec<ContractClass> {
    vec![
        ContractClass {
            kind: "count",
            schema: SchemaClass::Conviva,
            base_sql: "SELECT COUNT(*) FROM sessions WHERE buffer_time > 8.0",
            target: 0.05,
            confidence: 0.95,
        },
        ContractClass {
            kind: "sum",
            schema: SchemaClass::Conviva,
            base_sql: "SELECT SUM(buffer_time) FROM sessions WHERE play_time > 100.0",
            target: 0.10,
            confidence: 0.95,
        },
        ContractClass {
            kind: "avg",
            schema: SchemaClass::Tpch,
            base_sql: "SELECT AVG(extendedprice) FROM lineitem_denorm WHERE quantity < 30.0",
            target: 0.05,
            confidence: 0.95,
        },
        ContractClass {
            kind: "rate",
            schema: SchemaClass::Conviva,
            base_sql: "SELECT AVG(join_failed) FROM sessions",
            target: 0.05,
            confidence: 0.95,
        },
    ]
}

/// Contract-oracle run parameters.
#[derive(Debug, Clone)]
pub struct ContractConfig {
    /// Independent datasets (seeds) per class. ISSUE floor: ≥ 200.
    pub seeds: usize,
    /// Rows per dataset.
    pub rows: usize,
    /// Mini-batches per run.
    pub num_batches: usize,
    /// Bootstrap replicas.
    pub trials: u32,
    /// Per-class probability mass excluded by the acceptance band.
    pub band_alpha: f64,
}

impl Default for ContractConfig {
    fn default() -> Self {
        ContractConfig {
            seeds: 200,
            rows: 400,
            num_batches: 8,
            trials: 64,
            // Same rationale as calibration, with extra slack because the
            // stopping batch is chosen by the data (optional stopping
            // conditions the CI on being narrow).
            band_alpha: 1e-4,
        }
    }
}

/// Outcome of one class's contract-oracle run.
#[derive(Debug, Clone)]
pub struct ContractReport {
    pub kind: &'static str,
    pub schema: SchemaClass,
    pub runs: usize,
    /// Runs whose stopping answer was within contract (truth in the
    /// stopping CI, or exact by exhaustion).
    pub hits: usize,
    pub band: (usize, usize),
    /// Runs that stopped with `ErrorTargetMet` yet reported an achieved
    /// relative error above the target — must be zero.
    pub violations: usize,
    /// Runs that stopped before exhausting every batch.
    pub stopped_early: usize,
    /// Mean 1-based stopping batch.
    pub mean_stop_batch: f64,
    pub pass: bool,
}

impl ContractReport {
    pub fn coverage(&self) -> f64 {
        self.hits as f64 / self.runs as f64
    }
}

impl fmt::Display for ContractReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:6} {:8} within-contract {:3}/{} = {:.1}% (band [{}, {}]) \
             violations {} early {}/{} mean stop batch {:.1} {}",
            self.kind,
            self.schema.to_string(),
            self.hits,
            self.runs,
            self.coverage() * 100.0,
            self.band.0,
            self.band.1,
            self.violations,
            self.stopped_early,
            self.runs,
            self.mean_stop_batch,
            if self.pass { "ok" } else { "FAIL" }
        )
    }
}

/// Run the contract oracle for one class under `fault`.
pub fn check_contract(class: &ContractClass, cfg: &ContractConfig, fault: Fault) -> ContractReport {
    let config = OnlineConfig {
        num_batches: cfg.num_batches,
        bootstrap: BootstrapSpec::new(cfg.trials, 0x60_1A),
        ci_level: class.confidence,
        ..OnlineConfig::default()
    };
    let mut hits = 0;
    let mut violations = 0;
    let mut stopped_early = 0;
    let mut stop_batches = 0usize;
    over_seeds(
        class.schema,
        class.base_sql,
        cfg.rows,
        cfg.seeds,
        &config,
        |session, truth| {
            let stop = match fault {
                Fault::AbsoluteStop => absolute_stop(session, class),
                _ => contract_stop(session, class),
            };
            stop_batches += stop.batch_index + 1;
            if stop.is_final() {
                // Exhausted every batch: the answer is exact — within
                // contract by construction.
                hits += 1;
                return;
            }
            stopped_early += 1;
            if stop
                .achieved_rel_error(class.confidence)
                .is_none_or(|a| a > class.target)
            {
                violations += 1;
            }
            hits += usize::from(stop.ci().is_some_and(|ci| ci.contains(truth)));
        },
    );
    let band = binomial_band(cfg.seeds, class.confidence, cfg.band_alpha);
    let hits_ok = band.0 <= hits && hits <= band.1;
    ContractReport {
        kind: class.kind,
        schema: class.schema,
        runs: cfg.seeds,
        hits,
        band,
        violations,
        stopped_early,
        mean_stop_batch: stop_batches as f64 / cfg.seeds as f64,
        pass: violations == 0 && hits_ok,
    }
}

/// The engine's stopping rule: the contracted SQL's last report, which
/// must be flagged `ErrorTargetMet`, or `Exhausted` if it is final.
fn contract_stop(session: &OnlineSession, class: &ContractClass) -> BatchReport {
    let last = session
        .execute_online(&class.sql())
        .expect("online run")
        .last()
        .expect("at least one report")
        .expect("batches succeed");
    let stop = last.contract.as_ref().expect("contracted run").stop;
    let want = if last.is_final() {
        ContractStop::Exhausted
    } else {
        ContractStop::ErrorTargetMet
    };
    assert_eq!(stop, Some(want), "error contract stopped with {stop:?}");
    last
}

/// The planted [`Fault::AbsoluteStop`] rule: the uncontracted base query's
/// first report whose worst *absolute* CI half-width is ≤ the target.
fn absolute_stop(session: &OnlineSession, class: &ContractClass) -> BatchReport {
    let mut exec = session.execute_online(class.base_sql).expect("online run");
    loop {
        let report = exec
            .next()
            .expect("runs until the final report")
            .expect("batch succeeds");
        let worst = report.estimates.iter().try_fold(0.0f64, |worst, cell| {
            let ci = cell.estimate.ci_percentile(class.confidence)?;
            Some(worst.max(ci.half_width()))
        });
        if report.is_final() || worst.is_some_and(|h| h <= class.target) {
            return report;
        }
    }
}
