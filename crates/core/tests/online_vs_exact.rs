//! Differential tests: after the final mini-batch, the G-OLA online
//! executor must produce exactly the batch engine's answer — for every
//! supported query family. Intermediate behaviour (error decay, uncertain
//! sets, failure recovery) is checked along the way.

use std::sync::Arc;

use gola_bootstrap::EpsilonPolicy;
use gola_common::rng::SplitMix64;
use gola_common::{DataType, Error, Row, Schema, Value};
use gola_conformance::{assert_reports_identical, tables_bit_equal};
use gola_core::{ContractStop, OnlineConfig, OnlineSession};
use gola_storage::{Catalog, Table};
use gola_workloads::ConvivaGenerator;

/// Seeded synthetic Sessions log: session_id, ad_id, buffer_time,
/// play_time, join_failed.
fn sessions_table(n: usize, seed: u64) -> Table {
    let schema = Arc::new(Schema::from_pairs(&[
        ("session_id", DataType::Int),
        ("ad_id", DataType::Int),
        ("buffer_time", DataType::Float),
        ("play_time", DataType::Float),
        ("join_failed", DataType::Int),
    ]));
    let mut rng = SplitMix64::new(seed);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let ad = (rng.next_below(8) + 1) as i64;
            // Skewed positive buffer times, ad-dependent play times.
            let buffer = 5.0 + 40.0 * rng.next_f64() * rng.next_f64();
            let play = 30.0 + 400.0 * rng.next_f64() + ad as f64 * 10.0;
            let failed = (rng.next_f64() < 0.05) as i64;
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int(ad),
                Value::Float(buffer),
                Value::Float(play),
                Value::Int(failed),
            ])
        })
        .collect();
    Table::new_unchecked(schema, rows)
}

fn ads_table() -> Table {
    let schema = Arc::new(Schema::from_pairs(&[
        ("ad_id", DataType::Int),
        ("ad_name", DataType::Str),
        ("cpm", DataType::Float),
    ]));
    let rows: Vec<Row> = (1..=8)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::str(format!("ad-{i}")),
                Value::Float(1.0 + i as f64 * 0.5),
            ])
        })
        .collect();
    Table::new_unchecked(schema, rows)
}

fn session(n: usize, config: OnlineConfig) -> OnlineSession {
    let mut catalog = Catalog::new();
    catalog
        .register("sessions", Arc::new(sessions_table(n, 42)))
        .unwrap();
    catalog.register("ads", Arc::new(ads_table())).unwrap();
    OnlineSession::new(catalog, config)
}

/// The online table equals the exact engine's bit for bit, rows in any
/// order (ORDER BY ties may come out either way).
fn assert_tables_match(online: &Table, exact: &Table) {
    assert_eq!(online.schema().len(), exact.schema().len());
    if let Err(e) = tables_bit_equal(online, exact) {
        panic!("online vs exact: {e}");
    }
}

/// Run a query online to completion and compare with the exact engine.
fn check_final_matches(sql: &str, n: usize, batches: usize) -> gola_core::BatchReport {
    let s = session(n, OnlineConfig::for_tests(batches));
    let exact = s.execute_exact(sql).unwrap();
    let exec = s.execute_online(sql).unwrap();
    let last = exec.run_to_completion().unwrap();
    assert!(last.is_final());
    assert_tables_match(&last.table, &exact);
    last
}

#[test]
fn simple_avg_matches_exact() {
    let r = check_final_matches("SELECT AVG(play_time) FROM sessions", 2000, 10);
    assert_eq!(r.rows_seen, 2000);
    assert!((r.multiplicity - 1.0).abs() < 1e-12);
}

#[test]
fn multi_aggregate_matches_exact() {
    check_final_matches(
        "SELECT COUNT(*), SUM(play_time), AVG(buffer_time), MIN(play_time), \
         MAX(play_time), STDDEV(play_time) FROM sessions",
        2000,
        8,
    );
}

#[test]
fn sbi_nested_aggregate_matches_exact() {
    // The paper's Example 1 (Slow Buffering Impact).
    check_final_matches(
        "SELECT AVG(play_time) FROM sessions \
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        3000,
        12,
    );
}

#[test]
fn correlated_subquery_matches_exact() {
    // TPC-H Q17-shaped: per-group inner average.
    check_final_matches(
        "SELECT SUM(play_time) FROM sessions s \
         WHERE buffer_time > 1.1 * (SELECT AVG(buffer_time) FROM sessions t \
                                    WHERE t.ad_id = s.ad_id)",
        3000,
        12,
    );
}

#[test]
fn group_by_having_scalar_subquery_matches_exact() {
    // TPC-H Q11-shaped: group rows filtered against a global fraction.
    check_final_matches(
        "SELECT ad_id, SUM(play_time) AS total FROM sessions GROUP BY ad_id \
         HAVING SUM(play_time) > 0.12 * (SELECT SUM(play_time) FROM sessions) \
         ORDER BY total DESC",
        2500,
        10,
    );
}

#[test]
fn membership_subquery_matches_exact() {
    // TPC-H Q18-shaped: semi-join against a HAVING-filtered group set.
    check_final_matches(
        "SELECT COUNT(*), AVG(play_time) FROM sessions WHERE ad_id IN \
         (SELECT ad_id FROM sessions GROUP BY ad_id HAVING AVG(buffer_time) > \
          (SELECT AVG(buffer_time) FROM sessions))",
        2500,
        10,
    );
}

#[test]
fn two_level_nesting_matches_exact() {
    check_final_matches(
        "SELECT AVG(play_time) FROM sessions WHERE buffer_time > \
         (SELECT AVG(buffer_time) FROM sessions WHERE play_time > \
          (SELECT AVG(play_time) FROM sessions))",
        2500,
        10,
    );
}

#[test]
fn dimension_join_matches_exact() {
    check_final_matches(
        "SELECT a.ad_name, SUM(s.play_time * a.cpm) AS revenue FROM sessions s \
         JOIN ads a ON s.ad_id = a.ad_id GROUP BY a.ad_name ORDER BY revenue DESC LIMIT 5",
        2000,
        8,
    );
}

#[test]
fn join_plus_nested_aggregate_matches_exact() {
    check_final_matches(
        "SELECT a.ad_name, COUNT(*) FROM sessions s JOIN ads a ON s.ad_id = a.ad_id \
         WHERE s.buffer_time > (SELECT AVG(buffer_time) FROM sessions) \
         GROUP BY a.ad_name ORDER BY a.ad_name",
        2000,
        8,
    );
}

/// A scalar subquery's HAVING is refused online with a typed plan error:
/// scalar publication cannot honour it, and a group it rejects would be
/// read as a value instead of NULL. Exact execution still answers it, and
/// the HAVING moves the answer, so the refusal guards a real difference.
#[test]
fn scalar_subquery_having_is_refused_online_and_answered_exactly() {
    let mut catalog = Catalog::new();
    let sessions = ConvivaGenerator::default().generate(4000);
    catalog.register("sessions", Arc::new(sessions)).unwrap();
    let s = OnlineSession::new(catalog, OnlineConfig::for_tests(6));
    let sql = |having: &str| {
        format!(
            "SELECT COUNT(*) FROM sessions s WHERE play_time < \
             (SELECT AVG(play_time) FROM sessions t WHERE t.ad_id = s.ad_id{having})"
        )
    };
    let count = |t: &Table| t.rows()[0].get(0).as_f64().unwrap();
    let plain = s.execute_online(&sql("")).unwrap().run_to_completion();
    let all = count(&plain.unwrap().table);
    assert_eq!(all, count(&s.execute_exact(&sql("")).unwrap()));
    for (having, exact) in [
        (" HAVING COUNT(*) > 160", 1481.0),
        (" HAVING AVG(play_time) > 300", 1849.0),
    ] {
        let refused = s.execute_online(&sql(having)).err();
        assert!(
            matches!(refused, Some(Error::Plan(_))),
            "{having}: online gave {refused:?}"
        );
        let answer = count(&s.execute_exact(&sql(having)).unwrap());
        assert_eq!(answer, exact, "{having}");
        assert!(answer < all, "{having}: HAVING drops no group");
    }
}

/// Static producers over the small `ads` table feed each other: a
/// scalar whose filter reads a membership producer, both published once,
/// exactly, in dependency order, before the stream starts.
#[test]
fn static_producers_reading_static_producers_match_exact() {
    check_final_matches(
        "SELECT COUNT(*), AVG(play_time) FROM sessions WHERE play_time > 50.0 * \
         (SELECT AVG(cpm) FROM ads WHERE ad_id IN \
          (SELECT ad_id FROM ads GROUP BY ad_id HAVING MAX(cpm) > 3.0))",
        2000,
        8,
    );
}

#[test]
fn quantile_close_to_exact() {
    // P² is approximate: compare against the exact engine's own P² result
    // loosely (both stream, different orders).
    let sql = "SELECT QUANTILE(play_time, 0.9) FROM sessions";
    let s = session(5000, OnlineConfig::for_tests(10));
    let exact = s.execute_exact(sql).unwrap();
    let last = s.execute_online(sql).unwrap().run_to_completion().unwrap();
    let a = last.table.rows()[0].get(0).as_f64().unwrap();
    let b = exact.rows()[0].get(0).as_f64().unwrap();
    assert!((a - b).abs() / b < 0.05, "online {a} vs exact {b}");
}

#[test]
fn udaf_matches_exact() {
    check_final_matches("SELECT GEO_MEAN(play_time) FROM sessions", 1500, 6);
}

#[test]
fn case_expression_aggregates_match_exact() {
    check_final_matches(
        "SELECT AVG(CASE WHEN join_failed = 1 THEN 0 ELSE play_time END), \
                SUM(CASE WHEN buffer_time > 20 THEN 1 ELSE 0 END) FROM sessions",
        2000,
        8,
    );
}

#[test]
fn error_decreases_over_batches() {
    let s = session(8000, OnlineConfig::for_tests(16).with_trials(64));
    let exec = s
        .execute_online("SELECT AVG(play_time) FROM sessions")
        .unwrap();
    let reports: Vec<_> = exec.map(|r| r.unwrap()).collect();
    assert_eq!(reports.len(), 16);
    let early = reports[0].primary_rel_stddev().unwrap();
    let late = reports[14].primary_rel_stddev().unwrap();
    assert!(
        late < early,
        "rel stddev should shrink: early {early} late {late}"
    );
    // Every intermediate estimate should be in the right ballpark.
    let truth = reports.last().unwrap().primary().unwrap().value;
    for r in &reports {
        let v = r.primary().unwrap().value;
        assert!(
            (v - truth).abs() / truth < 0.2,
            "estimate {v} vs truth {truth}"
        );
    }
}

#[test]
fn ci_covers_truth_most_of_the_time() {
    // At batch 3 of 10, the 95% CI should usually contain the final value.
    let mut covered = 0;
    let total = 20;
    for seed in 0..total {
        let mut catalog = Catalog::new();
        catalog
            .register("sessions", Arc::new(sessions_table(2000, 1000 + seed)))
            .unwrap();
        let s = OnlineSession::new(
            catalog,
            OnlineConfig::for_tests(10).with_trials(80).with_seed(seed),
        );
        let sql = "SELECT AVG(play_time) FROM sessions";
        let truth = s.execute_exact(sql).unwrap().rows()[0]
            .get(0)
            .as_f64()
            .unwrap();
        let mut exec = s.execute_online(sql).unwrap();
        let mut report = None;
        for _ in 0..3 {
            report = Some(exec.next().unwrap().unwrap());
        }
        let ci = report.unwrap().ci().unwrap();
        if ci.contains(truth) {
            covered += 1;
        }
    }
    assert!(
        covered >= 16,
        "95% CI covered truth only {covered}/{total} times"
    );
}

#[test]
fn uncertain_set_shrinks_for_sbi() {
    let s = session(6000, OnlineConfig::for_tests(12));
    let exec = s
        .execute_online(
            "SELECT AVG(play_time) FROM sessions \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        )
        .unwrap();
    let mut sizes = Vec::new();
    for r in exec {
        let r = r.unwrap();
        sizes.push(r.uncertain_tuples);
    }
    // The uncertain set must stay far below the data seen so far, and late
    // batches should carry fewer uncertain tuples than the max.
    let max = *sizes.iter().max().unwrap();
    assert!(max < 6000 / 2, "uncertain set too large: {sizes:?}");
    assert!(
        sizes[10] <= max,
        "uncertain set should not keep growing: {sizes:?}"
    );
}

#[test]
fn forced_failures_recompute_and_stay_correct() {
    // ε = 0 makes variation ranges hug the bootstrap spread; failures and
    // recomputations become likely, but answers must stay correct.
    let sql = "SELECT AVG(play_time) FROM sessions \
               WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";
    let s = session(
        2000,
        OnlineConfig::for_tests(10)
            .with_trials(8)
            .with_epsilon(EpsilonPolicy::Fixed(0.0)),
    );
    let exact = s.execute_exact(sql).unwrap();
    let last = s.execute_online(sql).unwrap().run_to_completion().unwrap();
    assert_tables_match(&last.table, &exact);
}

#[test]
fn deterministic_under_seed() {
    let run = || {
        let s = session(1500, OnlineConfig::for_tests(6));
        let exec = s
            .execute_online(
                "SELECT AVG(play_time) FROM sessions \
                 WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
            )
            .unwrap();
        exec.map(|r| {
            let r = r.unwrap();
            (
                r.primary().unwrap().value,
                r.primary().unwrap().replicas.clone(),
                r.uncertain_tuples,
            )
        })
        .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn early_stop_by_target_accuracy() {
    let s = session(8000, OnlineConfig::for_tests(40).with_trials(64));
    let report = s
        .execute_online("SELECT AVG(play_time) FROM sessions")
        .unwrap()
        .map(Result::unwrap)
        .find(|r| r.is_final() || r.primary_rel_stddev().is_some_and(|rsd| rsd <= 0.01))
        .unwrap();
    assert!(!report.is_final(), "should stop before the last batch");
    assert!(report.primary_rel_stddev().unwrap() <= 0.01);
}

#[test]
fn row_certainty_flags_converge() {
    let sql = "SELECT ad_id, SUM(play_time) AS total FROM sessions GROUP BY ad_id \
               HAVING SUM(play_time) > 0.12 * (SELECT SUM(play_time) FROM sessions)";
    let s = session(3000, OnlineConfig::for_tests(10));
    let reports: Vec<_> = s.execute_online(sql).unwrap().map(|r| r.unwrap()).collect();
    // Final batch: every surviving row is certain.
    let last = reports.last().unwrap();
    assert!(last.row_certain.iter().all(|&c| c));
}

#[test]
fn stream_table_is_the_largest_scanned_table() {
    let s = session(2000, OnlineConfig::for_tests(5));
    let p = s.prepare("SELECT COUNT(*) FROM sessions").unwrap();
    assert_eq!(p.stream_table, "sessions");
    let joined = "SELECT COUNT(*) FROM sessions s JOIN ads a ON s.ad_id = a.ad_id";
    assert_eq!(s.prepare(joined).unwrap().stream_table, "sessions");
    let p = s.prepare("SELECT COUNT(*) FROM ads").unwrap();
    assert_eq!(p.stream_table, "ads");
}

#[test]
fn more_batches_than_rows_is_clamped() {
    let s = session(50, OnlineConfig::for_tests(500));
    let reports: Vec<_> = s
        .execute_online("SELECT AVG(play_time) FROM sessions")
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(reports.len(), 50);
    assert!(reports.last().unwrap().is_final());
}

#[test]
fn zero_trials_still_correct() {
    let sql = "SELECT AVG(play_time) FROM sessions \
               WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";
    let s = session(1500, OnlineConfig::for_tests(6).with_trials(0));
    let exact = s.execute_exact(sql).unwrap();
    let last = s.execute_online(sql).unwrap().run_to_completion().unwrap();
    assert_tables_match(&last.table, &exact);
    assert!(last.primary().is_none() || last.primary().unwrap().replicas.is_empty());
}

#[test]
fn empty_filter_result_matches_exact() {
    check_final_matches(
        "SELECT AVG(play_time), COUNT(*) FROM sessions WHERE play_time > 1e12",
        500,
        5,
    );
}

#[test]
fn threaded_execution_matches_sequential() {
    // Fold has one path at every thread count and weights are per tuple
    // id, so 4 threads report what 1 does, bit for bit, batch by batch.
    for sql in [
        "SELECT AVG(play_time), SUM(buffer_time), COUNT(*) FROM sessions",
        "SELECT AVG(play_time) FROM sessions \
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        "SELECT ad_id, SUM(play_time) FROM sessions GROUP BY ad_id ORDER BY ad_id",
        "SELECT COUNT(*) FROM sessions WHERE ad_id IN \
         (SELECT ad_id FROM sessions GROUP BY ad_id HAVING AVG(buffer_time) > 14)",
    ] {
        let run = |threads: usize| {
            let s = session(6000, OnlineConfig::for_tests(4).with_threads(threads));
            let reports = s.execute_online(sql).unwrap().map(Result::unwrap);
            reports.collect::<Vec<_>>()
        };
        assert_reports_identical(sql, &run(1), &run(4));
    }
}

#[test]
fn threaded_quantile_falls_back_to_sequential() {
    // Quantile states are not mergeable; the executor must still produce
    // correct answers with threads requested.
    let sql = "SELECT MEDIAN(play_time) FROM sessions";
    let s = session(3000, OnlineConfig::for_tests(4).with_threads(8));
    let exact = s.execute_exact(sql).unwrap();
    let last = s.execute_online(sql).unwrap().run_to_completion().unwrap();
    let a = last.table.rows()[0].get(0).as_f64().unwrap();
    let b = exact.rows()[0].get(0).as_f64().unwrap();
    assert!((a - b).abs() / b < 0.05, "{a} vs {b}");
}

/// An `ERROR` contract over a mean-zero column (values ±1): the estimate
/// sits near 0 with a non-zero spread, so its relative error is undefined
/// whenever the estimate is exactly 0 and large otherwise. The run must
/// never claim the target; it stops only when the data runs out
/// (`ContractStop::Exhausted`), on the exact answer.
#[test]
fn error_contract_near_zero_runs_to_exhaustion() {
    let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
    let rows: Vec<Row> = (0..400)
        .map(|i| Row::new(vec![Value::Int(if i % 2 == 0 { 1 } else { -1 })]))
        .collect();
    let mut catalog = Catalog::new();
    catalog
        .register("t", Arc::new(Table::new_unchecked(schema, rows)))
        .unwrap();
    let sql = "SELECT SUM(x) FROM t ERROR 5%";
    let mut exact_zeros = 0;
    for seed in 0..8 {
        let config = OnlineConfig::for_tests(20).with_seed(seed);
        let session = OnlineSession::new(catalog.clone(), config);
        let reports: Vec<_> = session
            .execute_online(sql)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(reports.len(), 20, "seed {seed}: stopped early");
        for r in &reports {
            let progress = r.contract.as_ref().unwrap();
            let est = &r.estimates[0].estimate;
            let spread = est
                .ci_percentile(0.95)
                .is_some_and(|ci| ci.half_width() > 0.0);
            if est.value == 0.0 && spread {
                exact_zeros += 1;
                assert_eq!(progress.achieved_rel_error, None, "seed {seed}");
            }
            let want = r.is_final().then_some(ContractStop::Exhausted);
            assert_eq!(progress.stop, want, "seed {seed} batch {}", r.batch_index);
        }
        let last = reports.last().unwrap();
        assert_eq!(last.table.rows()[0].get(0), &Value::Int(0), "seed {seed}");
    }
    assert!(exact_zeros > 0, "no report had an exact-zero estimate");
}
