//! The one-batch-ahead prefetch ends cleanly wherever a query ends.
//!
//! On a pool with a worker, a step submits the next batch's gather and
//! bootstrap weights to the pool and the next step adopts them. Every
//! case here streams the same reports as a threads-1 run, and every case
//! runs under a two-minute guard, so a prefetch job that never finishes
//! or a worker that is never joined fails the test instead of hanging it:
//!
//! * an execution dropped mid-stream with a prefetch in flight drops its
//!   pool, and the pool's drop joins every worker;
//! * an `ERROR` contract stops early at threads 2 with the next batch
//!   already submitted;
//! * a growing stream whose next segment seals after a step has started
//!   takes that segment on the on-demand path;
//! * `schedule_perturbation`'s shuffled pools run with the prefetch on.
//!
//! The prefetch counters show each case took the path it names. One test
//! function: the metrics registry is process-global.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Weak};
use std::time::Duration;

use g_ola::core::{BatchReport, OnlineConfig, OnlineExecution, OnlineSession, WorkerPool};
use g_ola::obs;
use g_ola::storage::{Catalog, StreamTable};
use g_ola::workloads::{conviva, ConvivaGenerator};
use gola_conformance::assert_reports_identical;

const ROWS: usize = 15_000;
const BATCHES: usize = 6;

fn config(threads: usize) -> OnlineConfig {
    OnlineConfig::for_tests(BATCHES)
        .with_trials(16)
        .with_threads(threads)
}

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let table = ConvivaGenerator::default().generate(ROWS);
    catalog.register("sessions", Arc::new(table)).unwrap();
    catalog
}

/// Run `f` on its own thread, failing instead of hanging if it has not
/// returned within two minutes; a panic in `f` re-raises here.
fn in_time<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} hung for two minutes"),
    }
}

/// Start `sql` on `pool`; also returns a weak handle that dies with the
/// pool.
fn start(
    catalog: &Catalog,
    sql: &str,
    threads: usize,
    pool: WorkerPool,
) -> (OnlineExecution, Weak<WorkerPool>) {
    let session = OnlineSession::new(catalog.clone(), config(threads));
    let prepared = session.prepare(sql).expect("query compiles");
    let pool = Arc::new(pool);
    let weak = Arc::downgrade(&pool);
    let exec = session
        .execute_prepared_with_pool(&prepared, pool, Arc::default())
        .expect("query starts");
    (exec, weak)
}

fn solo(catalog: &Catalog, sql: &str) -> Vec<BatchReport> {
    let (exec, _) = start(catalog, sql, 1, WorkerPool::new(1));
    exec.map(|r| r.expect("batch succeeds")).collect()
}

/// Batches adopted from a prefetch so far.
fn prefetched() -> u64 {
    obs::counter("core.prefetch.batches").get()
}

#[test]
fn the_prefetch_ends_cleanly_wherever_the_query_ends() {
    let catalog = catalog();
    obs::set_enabled(true);
    dropped_mid_stream(&catalog);
    error_contract_stops_early(&catalog);
    late_segment(&catalog);
    shuffled_pools(&catalog);
    obs::set_enabled(false);
}

/// Three reports, then the execution drops with batch 3's prefetch in
/// flight. The execution held the last handle to its pool, so the drop
/// joins the worker.
fn dropped_mid_stream(catalog: &Catalog) {
    let reference = solo(catalog, conviva::C2);
    let before = prefetched();
    let catalog = catalog.clone();
    let (head, pool) = in_time("dropping a prefetching execution", move || {
        let (mut exec, pool) = start(&catalog, conviva::C2, 2, WorkerPool::new(2));
        let head: Vec<BatchReport> = (&mut exec).take(3).map(|r| r.unwrap()).collect();
        drop(exec);
        (head, pool)
    });
    assert_reports_identical("C2 dropped after 3 reports", &reference[..3], &head);
    assert!(pool.upgrade().is_none(), "the pool outlived its execution");
    assert_eq!(prefetched() - before, 2, "batches 1 and 2 are prefetched");
}

/// The contract stops the query at a batch before the last; the batch
/// after it was already submitted and is dropped unread.
fn error_contract_stops_early(catalog: &Catalog) {
    let sql = "SELECT geo, AVG(play_time) FROM sessions GROUP BY geo ERROR 5% CONFIDENCE 95%";
    let reference = solo(catalog, sql);
    assert!(
        reference.len() < BATCHES,
        "the contract never stopped early"
    );
    let before = prefetched();
    let catalog = catalog.clone();
    let (reports, pool) = in_time("an ERROR contract at threads 2", move || {
        let (exec, pool) = start(&catalog, sql, 2, WorkerPool::new(2));
        let reports: Vec<BatchReport> = exec.map(|r| r.unwrap()).collect();
        (reports, pool)
    });
    assert_reports_identical("ERROR contract", &reference, &reports);
    assert!(pool.upgrade().is_none(), "the pool outlived its execution");
    let stopped = reports.len() as u64;
    assert_eq!(prefetched() - before, stopped - 1, "every batch after 0");
}

/// Four batches of the stream's snapshot, then a segment sealed after the
/// last of them has started (so it is not yet visible when that step
/// submits its prefetch), then a buffered tail sealed by `close`.
fn late_segment(catalog: &Catalog) {
    let run = |threads: usize| {
        let catalog = catalog.clone();
        in_time("a growing stream", move || {
            let rows = catalog.get("sessions").unwrap().rows();
            let (base, grown) = (ROWS / 2, ROWS / 4);
            let stream = StreamTable::new(Arc::clone(catalog.get("sessions").unwrap().schema()));
            stream.append_rows(&rows[..base]).unwrap();
            stream.seal().unwrap();
            let mut streamed = Catalog::new();
            streamed
                .register_stream("sessions", Arc::clone(&stream))
                .unwrap();
            let config = config(threads).with_batches(4);
            let session = OnlineSession::new(streamed, config);
            let mut exec = session.execute_online(conviva::C2).unwrap();
            let mut reports = Vec::new();
            for step in 0.. {
                match step {
                    4 => {
                        stream.append_rows(&rows[base..][..grown]).unwrap();
                        stream.seal().unwrap();
                        stream.append_rows(&rows[base + grown..]).unwrap();
                    }
                    5 => stream.close().unwrap(),
                    _ => {}
                }
                match exec.next() {
                    Some(report) => reports.push(report.unwrap()),
                    None => break,
                }
            }
            reports
        })
    };
    let reference = run(1);
    assert_eq!(reference.len(), 6, "four base batches, a segment, the tail");
    let before = prefetched();
    let two = run(2);
    assert_reports_identical("growing C2", &reference, &two);
    // Base batches 1–3 are prefetched; the segment and the tail each
    // become visible only after the step before them started.
    assert_eq!(prefetched() - before, 3, "late segments fill on demand");
}

/// Every perturbed pool streams the threads-1 reports, every batch after
/// the first adopted from a prefetch.
fn shuffled_pools(catalog: &Catalog) {
    let reference = solo(catalog, conviva::C2);
    for threads in [2, 4] {
        for seed in [0x5EED_0001u64, 0xDECADE] {
            let before = prefetched();
            let catalog = catalog.clone();
            let (reports, pool) = in_time("a shuffled pool", move || {
                let pool = WorkerPool::with_perturbation(threads, seed);
                let (exec, pool) = start(&catalog, conviva::C2, threads, pool);
                let reports: Vec<BatchReport> = exec.map(|r| r.unwrap()).collect();
                (reports, pool)
            });
            let what = format!("C2 (threads={threads}, seed={seed:#x})");
            assert_reports_identical(&what, &reference, &reports);
            assert!(
                pool.upgrade().is_none(),
                "{what}: the pool outlived its run"
            );
            assert_eq!(prefetched() - before, BATCHES as u64 - 1, "{what}");
        }
    }
}
