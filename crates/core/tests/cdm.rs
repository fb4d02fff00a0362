//! Classical delta maintenance (paper §3.1, the Fig. 3(b) baseline) as
//! [`OnlineExecution::step_recomputing`]: every block that reads an inner
//! aggregate is rebuilt from all the data seen so far, every batch. Its
//! reports must equal G-OLA's `next` bit for bit — both report
//! `Q(Dᵢ, k/i)` from the same bootstrap weights — while its work grows
//! quadratically in the batch index.

use gola_bootstrap::EpsilonPolicy;
use gola_common::Value;
use gola_core::{BatchReport, OnlineConfig, OnlineExecution, OnlineSession, PreparedQuery};
use gola_storage::Catalog;
use gola_workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};

/// Two executions of one prepared query: a schedule is a function of
/// (table, k, seed), so both see the same batches.
fn executions(
    catalog: &Catalog,
    sql: &str,
    config: &OnlineConfig,
) -> (PreparedQuery, OnlineExecution, OnlineExecution) {
    let session = OnlineSession::new(catalog.clone(), config.clone());
    let prepared = session.prepare(sql).unwrap();
    let execute = || session.execute_prepared(&prepared).unwrap();
    let (a, b) = (execute(), execute());
    (prepared, a, b)
}

fn value_bits_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Float(_), _) | (_, Value::Float(_)) => false,
        _ => a == b,
    }
}

/// The answer of two reports, bit for bit: the table in row order, and
/// every estimate's cell, value and replicas.
fn assert_same_answer(what: &str, a: &BatchReport, b: &BatchReport) {
    assert_eq!(a.table.num_rows(), b.table.num_rows(), "{what}: row count");
    for (r, (x, y)) in a.table.rows().iter().zip(b.table.rows()).enumerate() {
        let same =
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(u, v)| value_bits_equal(u, v));
        assert!(same, "{what}: row {r}: {x:?} vs {y:?}");
    }
    assert_eq!(
        a.estimates.len(),
        b.estimates.len(),
        "{what}: estimate count"
    );
    for (x, y) in a.estimates.iter().zip(&b.estimates) {
        let cell = format!("{what}: cell ({}, {})", x.row, x.col);
        assert_eq!((x.row, x.col), (y.row, y.col), "{cell}");
        let (ex, ey) = (&x.estimate, &y.estimate);
        assert_eq!(ex.value.to_bits(), ey.value.to_bits(), "{cell}: estimate");
        assert_eq!(ex.fpc.to_bits(), ey.fpc.to_bits(), "{cell}: fpc");
        let bits = |reps: &[f64]| reps.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ex.replicas), bits(&ey.replicas), "{cell}: replicas");
    }
}

#[test]
fn recomputing_steps_match_step_bit_for_bit() {
    let conviva_cat = ConvivaGenerator::default().catalog(2_000);
    let tpch_cat = TpchGenerator::default().catalog(2_000);
    let mut suites: Vec<(&str, &str, &Catalog)> = vec![
        ("SBI", conviva::SBI, &conviva_cat),
        ("C1", conviva::C1, &conviva_cat),
        ("C2", conviva::C2, &conviva_cat),
        ("C3", conviva::C3, &conviva_cat),
    ];
    suites.extend(tpch::queries().into_iter().map(|(n, q)| (n, q, &tpch_cat)));
    // The default slack, and a 0.5σ one on two threads under which G-OLA
    // recovers on most of these queries: its replays must land where the
    // rebuilds do.
    let configs = [
        OnlineConfig::for_tests(6),
        OnlineConfig::for_tests(6)
            .with_epsilon(EpsilonPolicy::StdDevScaled(0.5))
            .with_threads(2),
    ];
    for (name, sql, catalog) in suites {
        for (config, seed) in configs.iter().flat_map(|c| (1..=3).map(move |s| (c, s))) {
            let config = config.clone().with_seed(seed);
            let (_, gola, mut cdm) = executions(catalog, sql, &config);
            let run = format!("{name}, ε {:?}, seed {seed}", config.epsilon);
            for a in gola {
                let a = a.unwrap();
                let (b, _) = cdm.step_recomputing().unwrap().unwrap();
                assert_same_answer(&format!("{run}, batch {}", a.batch_index), &a, &b);
            }
            assert!(cdm.step_recomputing().is_none(), "{run}");
        }
    }
}

#[test]
fn cdm_work_grows_quadratically() {
    let catalog = ConvivaGenerator::default().catalog(1200);
    let (_, _, mut cdm) = executions(&catalog, conviva::SBI, &OnlineConfig::for_tests(6));
    let mut reread = 0;
    let mut reprocessed = Vec::new();
    while let Some(step) = cdm.step_recomputing() {
        reread += step.unwrap().1;
        reprocessed.push(reread);
    }
    // After batch i the outer block has re-read 200·(1+2+…+i) tuples.
    let expect: Vec<usize> = (1..=6).map(|i| 200 * i * (i + 1) / 2).collect();
    assert_eq!(reprocessed, expect);
}

#[test]
fn cdm_final_matches_exact() {
    let catalog = ConvivaGenerator::default().catalog(1500);
    for sql in [
        conviva::SBI,
        "SELECT SUM(play_time) FROM sessions s \
         WHERE buffer_time > 1.1 * (SELECT AVG(buffer_time) FROM sessions t \
                                    WHERE t.ad_id = s.ad_id)",
        "SELECT COUNT(*) FROM sessions WHERE ad_id IN \
         (SELECT ad_id FROM sessions GROUP BY ad_id HAVING AVG(buffer_time) > 14)",
    ] {
        let (prepared, _, mut cdm) = executions(&catalog, sql, &OnlineConfig::for_tests(6));
        let exact = gola_engine::BatchEngine::new(&catalog)
            .execute(&prepared.graph)
            .unwrap();
        let mut last = None;
        while let Some(step) = cdm.step_recomputing() {
            last = Some(step.unwrap().0);
        }
        let last = last.unwrap();
        assert_eq!(last.table.num_rows(), exact.num_rows(), "{sql}");
        for (x, y) in last.table.rows().iter().zip(exact.rows()) {
            for (u, v) in x.iter().zip(y.iter()) {
                let (fu, fv) = (u.as_f64().unwrap(), v.as_f64().unwrap());
                assert!(
                    (fu - fv).abs() / fv.abs().max(1.0) < 1e-6,
                    "{sql}: {fu} vs {fv}"
                );
            }
        }
    }
}
