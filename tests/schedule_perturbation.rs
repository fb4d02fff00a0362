//! Seeded schedule-perturbation stress for the parallel runtime — the
//! dynamic complement to the static `disallowed-methods` entries in
//! `clippy.toml` (wall clock, thread identity, hash iteration order).
//!
//! `parallel_equivalence` shows threads=1 ≡ threads=N under the pool's
//! *natural* dispatch order. That order is still fairly tame: jobs are
//! queued in submission order and workers drain front-to-back. Here the
//! `WorkerPool` is put in perturbation mode (`schedule_perturbation` in
//! [`OnlineConfig`]), which Fisher–Yates-shuffles every run's job queue
//! under a per-run seeded RNG — chunk classify/fold jobs, block ingest
//! jobs, and publish chunks all start (and therefore complete) in
//! adversarial orders. Every perturbed run must still produce the exact
//! bit-identical `BatchReport` stream as the unperturbed sequential
//! reference; any divergence means some accumulator or output ordering
//! silently depends on the physical schedule.

use std::sync::Arc;

use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};

fn run(catalog: &Catalog, sql: &str, threads: usize, perturb: Option<u64>) -> Vec<BatchReport> {
    let mut config = OnlineConfig::for_tests(8)
        .with_trials(32)
        .with_threads(threads);
    config.schedule_perturbation = perturb;
    let session = OnlineSession::new(catalog.clone(), config);
    let exec = session.execute_online(sql).expect("query compiles");
    exec.map(|r| r.expect("batch succeeds")).collect()
}

/// Compare two runs batch by batch, bit-for-bit on every float.
fn assert_identical(name: &str, a: &[BatchReport], b: &[BatchReport]) {
    assert_eq!(a.len(), b.len(), "{name}: batch count");
    for (ra, rb) in a.iter().zip(b) {
        let i = ra.batch_index;
        assert_eq!(
            ra.uncertain_tuples, rb.uncertain_tuples,
            "{name} batch {i}: uncertain-set size"
        );
        assert_eq!(
            ra.recomputations, rb.recomputations,
            "{name} batch {i}: recompute count"
        );
        assert_eq!(
            ra.row_certain, rb.row_certain,
            "{name} batch {i}: row certainty"
        );
        assert_eq!(
            ra.table.num_rows(),
            rb.table.num_rows(),
            "{name} batch {i}: result rows"
        );
        for (x, y) in ra.table.rows().iter().zip(rb.table.rows()) {
            for (u, v) in x.iter().zip(y.iter()) {
                match (u.as_f64(), v.as_f64()) {
                    (Some(fu), Some(fv)) => assert_eq!(
                        fu.to_bits(),
                        fv.to_bits(),
                        "{name} batch {i}: cell {fu} vs {fv}"
                    ),
                    _ => assert_eq!(u, v, "{name} batch {i}: cell"),
                }
            }
        }
        assert_eq!(
            ra.estimates.len(),
            rb.estimates.len(),
            "{name} batch {i}: estimates"
        );
        for (ea, eb) in ra.estimates.iter().zip(&rb.estimates) {
            assert_eq!(
                (ea.row, ea.col),
                (eb.row, eb.col),
                "{name} batch {i}: cell id"
            );
            assert_eq!(
                ea.estimate.value.to_bits(),
                eb.estimate.value.to_bits(),
                "{name} batch {i}: estimate value"
            );
            for (x, y) in ea.estimate.replicas.iter().zip(&eb.estimate.replicas) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} batch {i}: replica");
            }
        }
    }
}

/// Unperturbed sequential reference vs. shuffled parallel runs across
/// several thread counts and shuffle seeds.
fn check(catalog: &Catalog, name: &str, sql: &str) {
    let reference = run(catalog, sql, 1, None);
    for threads in [2, 4] {
        for seed in [0x5EED_0001u64, 0xDECADE, 0xFEED_BEEF] {
            let perturbed = run(catalog, sql, threads, Some(seed));
            assert_identical(
                &format!("{name} (threads={threads}, seed={seed:#x})"),
                &reference,
                &perturbed,
            );
        }
    }
}

#[test]
fn conviva_queries_survive_shuffled_schedules() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(6000)),
        )
        .unwrap();
    check(&catalog, "SBI", conviva::SBI);
    check(&catalog, "C2", conviva::C2);
    check(&catalog, "C3", conviva::C3);
}

#[test]
fn tpch_queries_survive_shuffled_schedules() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "lineitem_denorm",
            Arc::new(TpchGenerator::default().generate(6000)),
        )
        .unwrap();
    check(&catalog, "Q11", tpch::Q11);
    check(&catalog, "Q17", tpch::Q17);
    check(&catalog, "Q18", tpch::Q18);
    check(&catalog, "Q20", tpch::Q20);
}

/// The shuffle must also leave pool-level panic semantics untouched: the
/// first panic by *submission* index propagates, regardless of the order
/// jobs physically ran in.
#[test]
fn perturbed_pool_keeps_panic_order() {
    use g_ola::core::WorkerPool;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let job = |i: usize| {
        if i == 5 || i == 11 {
            panic!("job {i} exploded");
        }
    };
    for seed in [1u64, 2, 3, 4, 5] {
        let pool = WorkerPool::with_perturbation(4, seed);
        let via_run = || {
            let jobs = (0..16).map(|i| Box::new(move || job(i)) as Box<dyn FnOnce() + Send + '_>);
            pool.run(jobs.collect())
        };
        let via_map = || drop(pool.map(0..16, job));
        for (name, drive) in [("run", &via_run as &dyn Fn()), ("map", &via_map)] {
            let err = catch_unwind(AssertUnwindSafe(drive)).unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert_eq!(msg, "job 5 exploded", "{name}, seed {seed}");
        }
    }
}
