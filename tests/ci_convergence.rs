//! Convergence of the reported confidence intervals under the
//! finite-population correction.
//!
//! As batches accumulate, the sampling fraction n/N grows, the fpc factor
//! √(1 − n/N) falls, and the reported CI must tighten: non-increasing
//! width batch over batch, and **exactly zero** at the final batch — once
//! every tuple has been seen there is no sampling error left.
//!
//! Bootstrap replica spread is itself a random quantity that can tick up
//! slightly between batches, so strict per-step monotonicity is checked
//! with a small multiplicative slack; the fpc guarantees the trend.

use std::sync::Arc;

use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::storage::Catalog;
use g_ola::workloads::ConvivaGenerator;

/// Per-step slack on non-increase: replica spread is a noisy estimate of a
/// shrinking quantity, so allow a step to regress by at most 10% before
/// calling it a violation. The final-batch check has NO slack (exact 0.0).
const STEP_SLACK: f64 = 1.10;

fn ci_widths(sql: &str) -> Vec<f64> {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(8000)),
        )
        .unwrap();
    let config = OnlineConfig::for_tests(8).with_trials(64);
    let session = OnlineSession::new(catalog, config);
    let exec = session.execute_online(sql).expect("query compiles");
    exec.map(|r| {
        let r = r.expect("batch succeeds");
        let ci = r.ci().expect("primary CI present");
        assert!(
            ci.width() >= 0.0 && ci.width().is_finite(),
            "CI width must be finite and non-negative, got {}",
            ci.width()
        );
        ci.width()
    })
    .collect()
}

fn assert_converges(kind: &str, widths: &[f64]) {
    assert_eq!(widths.len(), 8, "{kind}: one report per batch");
    for (i, pair) in widths.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0] * STEP_SLACK,
            "{kind}: CI width grew from {} (batch {i}) to {} (batch {}); \
             all widths: {widths:?}",
            pair[0],
            pair[1],
            i + 1
        );
    }
    let last = *widths.last().unwrap();
    assert_eq!(
        last, 0.0,
        "{kind}: final batch saw every tuple, its CI must collapse to \
         exactly zero; all widths: {widths:?}"
    );
    assert!(
        widths[0] > 0.0,
        "{kind}: first batch must report genuine uncertainty"
    );
}

#[test]
fn count_ci_width_converges_to_zero() {
    let widths = ci_widths("SELECT COUNT(*) FROM sessions WHERE buffer_time > 8.0");
    assert_converges("COUNT", &widths);
}

#[test]
fn sum_ci_width_converges_to_zero() {
    let widths = ci_widths("SELECT SUM(buffer_time) FROM sessions WHERE play_time > 100.0");
    assert_converges("SUM", &widths);
}

#[test]
fn avg_ci_width_converges_to_zero() {
    let widths = ci_widths("SELECT AVG(play_time) FROM sessions");
    assert_converges("AVG", &widths);
}
