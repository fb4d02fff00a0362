//! Baseline correctness: CDM and naive must agree with the exact engine
//! (and, per batch, with G-OLA — both report `Q(Dᵢ, k/i)`), and classic OLA
//! must work for monotonic queries while rejecting nested aggregates.

use std::sync::Arc;

use gola_baselines::{CdmExecutor, ClassicOlaExecutor, NaiveExecutor};
use gola_common::rng::SplitMix64;
use gola_common::{DataType, Row, Schema, Value};
use gola_core::{OnlineConfig, OnlineExecutor, OnlineSession};
use gola_storage::{Catalog, Partitioner, Table};

fn sessions_table(n: usize, seed: u64) -> Table {
    let schema = Arc::new(Schema::from_pairs(&[
        ("session_id", DataType::Int),
        ("ad_id", DataType::Int),
        ("buffer_time", DataType::Float),
        ("play_time", DataType::Float),
    ]));
    let mut rng = SplitMix64::new(seed);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let ad = (rng.next_below(6) + 1) as i64;
            let buffer = 5.0 + 40.0 * rng.next_f64() * rng.next_f64();
            let play = 30.0 + 400.0 * rng.next_f64() + ad as f64 * 10.0;
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int(ad),
                Value::Float(buffer),
                Value::Float(play),
            ])
        })
        .collect();
    Table::new_unchecked(schema, rows)
}

fn catalog(n: usize) -> Catalog {
    let mut c = Catalog::new();
    c.register("sessions", Arc::new(sessions_table(n, 7)))
        .unwrap();
    c
}

fn approx_eq_tables(a: &Table, b: &Table, tol: f64) {
    assert_eq!(a.num_rows(), b.num_rows());
    for (ra, rb) in a.rows().iter().zip(b.rows()) {
        for (x, y) in ra.iter().zip(rb.iter()) {
            match (x.as_f64(), y.as_f64()) {
                (Some(fx), Some(fy)) => {
                    let scale = fy.abs().max(1.0);
                    assert!((fx - fy).abs() / scale < tol, "{fx} vs {fy}");
                }
                _ => assert_eq!(x, y),
            }
        }
    }
}

const SBI: &str = "SELECT AVG(play_time) FROM sessions \
                   WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";

fn setup(
    sql: &str,
    n: usize,
    k: usize,
) -> (
    Catalog,
    gola_core::PreparedQuery,
    Arc<Partitioner>,
    OnlineConfig,
) {
    let cat = catalog(n);
    let config = OnlineConfig::for_tests(k);
    let session = OnlineSession::new(cat.clone(), config.clone());
    let prepared = session.prepare(sql).unwrap();
    let table = cat.get("sessions").unwrap();
    let partitioner = Arc::new(Partitioner::new(table, k, config.partition_seed).unwrap());
    (cat, prepared, partitioner, config)
}

#[test]
fn cdm_final_matches_exact() {
    for sql in [
        SBI,
        "SELECT SUM(play_time) FROM sessions s \
         WHERE buffer_time > 1.1 * (SELECT AVG(buffer_time) FROM sessions t \
                                    WHERE t.ad_id = s.ad_id)",
        "SELECT COUNT(*) FROM sessions WHERE ad_id IN \
         (SELECT ad_id FROM sessions GROUP BY ad_id HAVING AVG(buffer_time) > 14)",
    ] {
        let (cat, prepared, partitioner, config) = setup(sql, 1500, 6);
        let exact = gola_engine::BatchEngine::new(&cat)
            .execute(&prepared.graph)
            .unwrap();
        let mut cdm = CdmExecutor::new(&cat, prepared.meta.clone(), partitioner, config).unwrap();
        let mut last = None;
        while !cdm.is_finished() {
            last = Some(cdm.step().unwrap());
        }
        approx_eq_tables(&last.unwrap().table, &exact, 1e-6);
    }
}

#[test]
fn cdm_and_gola_agree_every_batch() {
    // Both strategies report Q(Dᵢ, k/i): their point estimates must agree
    // at every batch, not just the last.
    let (cat, prepared, partitioner, config) = setup(SBI, 1200, 6);
    let mut cdm = CdmExecutor::new(
        &cat,
        prepared.meta.clone(),
        Arc::clone(&partitioner),
        config.clone(),
    )
    .unwrap();
    let mut gola = OnlineExecutor::new(&cat, prepared.meta.clone(), partitioner, config).unwrap();
    for _ in 0..6 {
        let a = cdm.step().unwrap();
        let b = gola.step().unwrap();
        approx_eq_tables(&a.table, &b.table, 1e-6);
        // Bootstrap replicas must agree too — same weights, same semantics.
        let ra = &a.estimates[0].estimate;
        let rb = &b.estimates[0].estimate;
        assert_eq!(ra.replicas.len(), rb.replicas.len());
        for (x, y) in ra.replicas.iter().zip(&rb.replicas) {
            assert!((x - y).abs() / y.abs().max(1.0) < 1e-6, "{x} vs {y}");
        }
    }
}

#[test]
fn cdm_work_grows_quadratically() {
    let (cat, prepared, partitioner, config) = setup(SBI, 1200, 6);
    let mut cdm = CdmExecutor::new(&cat, prepared.meta, partitioner, config).unwrap();
    let mut reprocessed = Vec::new();
    while !cdm.is_finished() {
        cdm.step().unwrap();
        reprocessed.push(cdm.reprocessed_tuples);
    }
    // After batch i the outer block has re-read 200·(1+2+…+i) tuples.
    let per = 1200 / 6;
    let expect: Vec<u64> = (1..=6u64).map(|i| per as u64 * i * (i + 1) / 2).collect();
    assert_eq!(reprocessed, expect);
}

#[test]
fn naive_final_matches_exact() {
    let (cat, prepared, partitioner, _config) = setup(SBI, 900, 4);
    let exact = gola_engine::BatchEngine::new(&cat)
        .execute(&prepared.graph)
        .unwrap();
    let mut naive =
        NaiveExecutor::new(&cat, prepared.graph.clone(), "sessions", partitioner).unwrap();
    let mut last = None;
    while !naive.is_finished() {
        last = Some(naive.step().unwrap());
    }
    approx_eq_tables(&last.unwrap().table, &exact, 1e-9);
}

#[test]
fn classic_ola_simple_avg() {
    let sql = "SELECT AVG(play_time) FROM sessions";
    let (cat, prepared, partitioner, config) = setup(sql, 4000, 10);
    let exact = gola_engine::BatchEngine::new(&cat)
        .execute(&prepared.graph)
        .unwrap();
    let truth = exact.rows()[0].get(0).as_f64().unwrap();
    let mut ola =
        ClassicOlaExecutor::new(&cat, &prepared.meta, partitioner, config.ci_level).unwrap();
    let mut widths = Vec::new();
    let mut last = None;
    while !ola.is_finished() {
        let r = ola.step().unwrap();
        let cell = r.cells[0].clone();
        widths.push(cell.ci.width());
        last = Some(r);
    }
    let last = last.unwrap();
    assert!((last.cells[0].estimate - truth).abs() < 1e-9);
    // Final interval collapses (fpc = 0); early intervals cover the truth.
    assert!(widths.last().unwrap() < &1e-9);
    assert!(widths[0] > widths[5]);
    // Early (batch 1) 95% intervals should cover the truth for most
    // partition seeds — a single seed can legitimately miss.
    let mut covered = 0;
    for seed in 0..10u64 {
        let part = Arc::new(Partitioner::new(cat.get("sessions").unwrap(), 10, seed).unwrap());
        let mut early = ClassicOlaExecutor::new(&cat, &prepared.meta, part, 0.95).unwrap();
        let r = early.step().unwrap();
        if r.cells[0].ci.contains(truth) {
            covered += 1;
        }
    }
    assert!(
        covered >= 7,
        "early CI covered truth only {covered}/10 times"
    );
}

#[test]
fn classic_ola_grouped_sum_and_count() {
    let sql = "SELECT ad_id, SUM(play_time), COUNT(*) FROM sessions GROUP BY ad_id";
    let (cat, prepared, partitioner, config) = setup(sql, 3000, 6);
    let exact = gola_engine::BatchEngine::new(&cat)
        .execute(&prepared.graph)
        .unwrap();
    let mut ola =
        ClassicOlaExecutor::new(&cat, &prepared.meta, partitioner, config.ci_level).unwrap();
    let mut last = None;
    while !ola.is_finished() {
        last = Some(ola.step().unwrap());
    }
    approx_eq_tables(&last.unwrap().table, &exact, 1e-9);
}

#[test]
fn classic_ola_rejects_nested_aggregates() {
    let (cat, prepared, partitioner, config) = setup(SBI, 600, 3);
    let err = match ClassicOlaExecutor::new(&cat, &prepared.meta, partitioner, config.ci_level) {
        Err(e) => e,
        Ok(_) => panic!("nested aggregates should be rejected"),
    };
    assert!(err.to_string().contains("nested"), "{err}");
}

#[test]
fn classic_ola_rejects_unsupported_aggregates() {
    let sql = "SELECT MEDIAN(play_time) FROM sessions";
    let (cat, prepared, partitioner, config) = setup(sql, 600, 3);
    let err = match ClassicOlaExecutor::new(&cat, &prepared.meta, partitioner, config.ci_level) {
        Err(e) => e,
        Ok(_) => panic!("MEDIAN should be rejected"),
    };
    assert!(err.to_string().contains("closed-form"), "{err}");
}
