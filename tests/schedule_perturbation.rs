//! Seeded schedule-perturbation stress for the parallel runtime — the
//! dynamic complement to the static `disallowed-methods` entries in
//! `clippy.toml` (wall clock, thread identity, hash iteration order).
//!
//! `parallel_equivalence` shows threads=1 ≡ threads=N under the pool's
//! *natural* dispatch order. That order is still fairly tame: jobs are
//! queued in submission order and workers drain front-to-back. Here each
//! run gets a pool built by [`WorkerPool::with_perturbation`], which
//! Fisher–Yates-shuffles every `map`'s jobs under a per-`map` seeded
//! RNG — weight chunk jobs and block ingest jobs start (and therefore
//! complete) in adversarial orders, beside the next batch's prefetch
//! jobs wherever a query takes the prefetch. The
//! query runs on that pool through the public
//! `OnlineSession::execute_prepared_with_pool`, filling a fresh
//! `WeightStore` whose blocks the shuffled jobs generate. Every perturbed run must
//! still produce the exact bit-identical `BatchReport` stream as the
//! unperturbed sequential reference; any divergence means some
//! accumulator or output ordering silently depends on the physical
//! schedule.

use std::sync::Arc;

use g_ola::core::{BatchReport, OnlineConfig, OnlineSession, WeightStore, WorkerPool};
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};
use gola_conformance::assert_reports_identical;

fn run(catalog: &Catalog, sql: &str, threads: usize, perturb: Option<u64>) -> Vec<BatchReport> {
    let config = OnlineConfig::for_tests(8)
        .with_trials(32)
        .with_threads(threads);
    let pool = match perturb {
        Some(seed) => WorkerPool::with_perturbation(threads, seed),
        None => WorkerPool::new(threads),
    };
    let spec = config.bootstrap;
    let session = OnlineSession::new(catalog.clone(), config);
    let prepared = session.prepare(sql).expect("query compiles");
    // Perturbed runs fill a fresh weight store from shuffled jobs; the
    // reference reads every weight from the kernel.
    let store = match perturb {
        Some(_) => {
            let rows = catalog
                .get(&prepared.stream_table)
                .expect("table")
                .num_rows();
            Arc::new(WeightStore::new(spec, rows))
        }
        None => Arc::default(),
    };
    let exec = session
        .execute_prepared_with_pool(&prepared, Arc::new(pool), store)
        .expect("query starts");
    exec.map(|r| r.expect("batch succeeds")).collect()
}

/// Unperturbed sequential reference vs. shuffled parallel runs across
/// several thread counts and shuffle seeds.
fn check(catalog: &Catalog, name: &str, sql: &str) {
    let reference = run(catalog, sql, 1, None);
    for threads in [2, 4] {
        for seed in [0x5EED_0001u64, 0xDECADE, 0xFEED_BEEF] {
            let perturbed = run(catalog, sql, threads, Some(seed));
            assert_reports_identical(
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
            drop(pool.map(jobs, |job| job()))
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
