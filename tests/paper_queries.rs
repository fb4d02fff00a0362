//! End-to-end reproduction check: every query from the paper's evaluation
//! (§5 — SBI, C1–C3, Q11, Q17, Q18, Q20) runs online and converges to the
//! exact batch-engine answer, with sensible intermediate behaviour.

use std::sync::Arc;

use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};

fn conviva_session(n: usize, k: usize) -> OnlineSession {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(n)),
        )
        .unwrap();
    OnlineSession::new(catalog, OnlineConfig::for_tests(k))
}

fn tpch_session(n: usize, k: usize) -> OnlineSession {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "lineitem_denorm",
            Arc::new(TpchGenerator::default().generate(n)),
        )
        .unwrap();
    OnlineSession::new(catalog, OnlineConfig::for_tests(k))
}

fn check(session: &OnlineSession, name: &str, sql: &str) {
    let exact = session.execute_exact(sql).unwrap();
    let exec = session.execute_online(sql).unwrap();
    let last = exec.run_to_completion().unwrap();
    assert!(last.is_final(), "{name}");
    // SUM/AVG/VAR fold through exact expansions, so the final-batch online
    // answer is the batch engine's, bit for bit, whatever the batch order.
    if let Err(e) = gola_conformance::tables_bit_equal(&last.table, &exact) {
        panic!("{name}: {e}");
    }
}

#[test]
fn conviva_suite_online_matches_exact() {
    let s = conviva_session(4000, 10);
    for (name, sql) in conviva::queries() {
        check(&s, name, sql);
    }
}

#[test]
fn tpch_suite_online_matches_exact() {
    let s = tpch_session(4000, 10);
    for (name, sql) in tpch::queries() {
        check(&s, name, sql);
    }
}

#[test]
fn sbi_progressive_refinement_behaves() {
    let s = conviva_session(12_000, 24);
    let exec = s.execute_online(conviva::SBI).unwrap();
    let reports: Vec<_> = exec.map(|r| r.unwrap()).collect();
    let truth = reports.last().unwrap().primary().unwrap().value;
    // All estimates near truth; errors trend downward; uncertain sets are
    // small relative to the data (paper §3.2: "uncertain sets are very
    // small in practice").
    let mut rsds = Vec::new();
    for r in &reports {
        let est = r.primary().unwrap().value;
        assert!((est - truth).abs() / truth.abs() < 0.25);
        if let Some(rsd) = r.primary_rel_stddev() {
            rsds.push(rsd);
        }
        assert!(
            r.uncertain_tuples < 12_000 / 4,
            "|U| = {}",
            r.uncertain_tuples
        );
    }
    let early: f64 = rsds[..4].iter().sum::<f64>() / 4.0;
    let late: f64 = rsds[rsds.len() - 4..].iter().sum::<f64>() / 4.0;
    assert!(late < early, "rel-stddev did not shrink: {early} -> {late}");
}

#[test]
fn q17_early_stopping_is_accurate() {
    let s = tpch_session(8000, 20);
    let exact = s.execute_exact(tpch::Q17).unwrap();
    let truth = exact.rows()[0].get(0).as_f64().unwrap();
    let report = s
        .execute_online(tpch::Q17)
        .unwrap()
        .map(Result::unwrap)
        .find(|r| r.is_final() || r.primary_rel_stddev().is_some_and(|rsd| rsd <= 0.05))
        .unwrap();
    let est = report.primary().unwrap().value;
    assert!(
        (est - truth).abs() / truth.abs() < 0.2,
        "early estimate {est} vs truth {truth}"
    );
}

#[test]
fn q11_uncertain_rows_get_flagged_then_settle() {
    let s = tpch_session(6000, 12);
    let reports: Vec<_> = s
        .execute_online(tpch::Q11)
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    // Early batches should contain at least one row whose membership is
    // still uncertain (groups near the threshold).
    let early_uncertain = reports[..4]
        .iter()
        .any(|r| r.row_certain.iter().any(|&c| !c));
    assert!(early_uncertain, "expected borderline groups early on");
    // Final batch: everything certain.
    assert!(reports.last().unwrap().row_certain.iter().all(|&c| c));
}

#[test]
fn multiplicity_scaled_estimates_are_unbiased_early() {
    // COUNT with multiplicity m = k/i should estimate the full-table count
    // from the first batch.
    let s = conviva_session(5000, 10);
    let mut exec = s
        .execute_online("SELECT COUNT(*) FROM sessions WHERE join_failed = 0")
        .unwrap();
    let first = exec.next().unwrap().unwrap();
    let exact = s
        .execute_exact("SELECT COUNT(*) FROM sessions WHERE join_failed = 0")
        .unwrap();
    let truth = exact.rows()[0].get(0).as_f64().unwrap();
    let est = first.primary().unwrap().value;
    assert!(
        (est - truth).abs() / truth < 0.15,
        "first-batch scaled count {est} vs {truth}"
    );
    assert!((first.multiplicity - 10.0).abs() < 1e-9);
}
