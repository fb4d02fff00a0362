//! A session caught up with an open stream parks and holds no runner.
//!
//! One growing session per runner reads a silent open stream, and a static
//! C2 session is admitted beside them (`max_active` = runners + 1). Every
//! growing session parks once it has drained the sealed batches, so C2
//! must run to its end with no append, bit-identical to a solo run. Each
//! growing session then resumes on the next seal, and after the close ends
//! with a final report that is the exact answer, bit for bit.
//!
//! A parked session must not hold its service either: dropping a service
//! with a parked session returns promptly, and a handle dropped while its
//! session is parked frees the slot for the queued session. The
//! `service.parked` gauge tells when a session has parked.
//!
//! Every wait fails after a minute instead of hanging; a wait that fails
//! closes the stream first, so the failing test can still shut its service
//! down. One test function: the metrics registry is process-global.

use std::sync::Arc;
use std::time::Duration;

use g_ola::common::timing::Stopwatch;
use g_ola::common::Row;
use g_ola::core::sched::{QueryHandle, QueryService, ServiceConfig};
use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::obs;
use g_ola::storage::{Catalog, StreamTable, Table};
use g_ola::workloads::{conviva, ConvivaGenerator};
use gola_conformance::{assert_reports_identical, tables_bit_equal};

const GROWING: &str = "SELECT device, AVG(play_time) AS a0, SUM(buffer_time) AS a1 FROM live \
     GROUP BY device ORDER BY a0 DESC";
const BATCHES: usize = 4;
/// Rows of `live` sealed before its queries start; 60 more are sealed
/// later, and 60 more at the close.
const SEALED: usize = 240;
const LIMIT: Duration = Duration::from_secs(60);

fn config() -> OnlineConfig {
    OnlineConfig::for_tests(BATCHES).with_trials(16)
}

/// The static `sessions` table and the 360 rows of `live`.
fn data() -> (Table, Table) {
    let live = ConvivaGenerator {
        seed: 0x9A_4C,
        ..ConvivaGenerator::default()
    };
    (
        ConvivaGenerator::default().generate(2_000),
        live.generate(360),
    )
}

/// A catalog of `sessions` and a fresh open stream `live` holding the
/// first [`SEALED`] rows of `rows`.
fn catalog(sessions: &Table, rows: &[Row]) -> (Catalog, Arc<StreamTable>) {
    let live = StreamTable::new(Arc::clone(sessions.schema()));
    live.append_rows(&rows[..SEALED]).expect("seed rows");
    live.seal().expect("seed segment");
    let mut catalog = Catalog::new();
    catalog
        .register("sessions", Arc::new(sessions.clone()))
        .expect("register table");
    catalog
        .register_stream("live", Arc::clone(&live))
        .expect("register stream");
    (catalog, live)
}

fn service(catalog: &Catalog, max_active: usize, queue_capacity: usize) -> QueryService {
    QueryService::new(
        catalog.clone(),
        ServiceConfig {
            max_active,
            queue_capacity,
            threads: 1,
            base: config(),
        },
    )
}

/// Poll until `done` holds, closing `live` and failing past [`LIMIT`].
fn wait_until(live: &StreamTable, what: &str, mut done: impl FnMut() -> bool) {
    let started = Stopwatch::start();
    while !done() {
        if started.elapsed() > LIMIT {
            let _ = live.close();
            panic!("{what}: not within {LIMIT:?}");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The next item of `handle`'s stream (`None` once it ended), or a failure
/// past [`LIMIT`].
fn next(live: &StreamTable, handle: &QueryHandle, what: &str) -> Option<BatchReport> {
    use std::sync::mpsc::TryRecvError;
    let mut item = None;
    wait_until(live, what, || match handle.try_recv() {
        Ok(report) => {
            item = Some(Some(report.expect("batch succeeds")));
            true
        }
        Err(TryRecvError::Disconnected) => {
            item = Some(None);
            true
        }
        Err(TryRecvError::Empty) => false,
    });
    item.flatten()
}

/// Read the sealed batches' reports of a growing session.
fn drain_sealed(live: &StreamTable, handle: &QueryHandle) {
    for _ in 0..BATCHES {
        let report = next(live, handle, "a sealed batch").expect("a report");
        assert!(!report.is_final(), "an open stream has no last batch");
    }
}

fn parked() -> f64 {
    obs::gauge("service.parked").get()
}

/// Drop `service`, failing instead of hanging if its runners are not all
/// joined within two minutes.
fn drop_in_time(service: QueryService) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(service);
        let _ = done_tx.send(());
    });
    let joined = done_rx.recv_timeout(Duration::from_secs(120));
    assert!(joined.is_ok(), "dropping the service hung or panicked");
}

#[test]
fn parked_sessions_hold_no_runner() {
    let (sessions, live) = data();
    let rows = live.rows();
    obs::set_enabled(true);
    parked_sessions_leave_the_runners_to_others(&sessions, &rows);
    dropping_a_service_with_a_parked_session_returns(&sessions, &rows);
    a_dropped_parked_handle_frees_its_slot(&sessions, &rows);
    obs::set_enabled(false);
}

fn parked_sessions_leave_the_runners_to_others(sessions: &Table, rows: &[Row]) {
    let (catalog, live) = catalog(sessions, rows);
    let solo = |catalog: Catalog, sql: &str| -> Vec<BatchReport> {
        (OnlineSession::new(catalog, config()).execute_online(sql))
            .expect("compiles")
            .map(|r| r.expect("batch succeeds"))
            .collect()
    };
    let c2_solo = solo(catalog.clone(), conviva::C2);
    #[expect(
        clippy::disallowed_methods,
        reason = "one growing session per runner of the service"
    )]
    let runners = std::thread::available_parallelism().map_or(1, usize::from);
    let service = service(&catalog, runners + 1, 0);
    let growing: Vec<QueryHandle> = (0..runners)
        .map(|_| service.submit(GROWING).expect("admits"))
        .collect();
    for handle in &growing {
        drain_sealed(&live, handle);
    }
    let every_runner = runners as f64;
    wait_until(&live, "every growing session parks", || {
        parked() == every_runner
    });

    // No append: C2 runs to its end beside the parked sessions.
    let c2 = service.submit(conviva::C2).expect("C2 admits");
    let c2_stream: Vec<BatchReport> =
        std::iter::from_fn(|| next(&live, &c2, "C2 beside parked sessions")).collect();
    assert_reports_identical("C2 beside parked sessions", &c2_solo, &c2_stream);

    // A seal wakes every growing session for one more batch.
    live.append_rows(&rows[SEALED..SEALED + 60])
        .expect("append");
    live.seal().expect("seal");
    for handle in &growing {
        let report = next(&live, handle, "a resumed session").expect("a report");
        assert_eq!(report.batch_index, BATCHES, "the sealed segment's batch");
        assert!(!report.is_final());
    }

    // The close seals the rest; each last report is the exact answer.
    live.append_rows(&rows[SEALED + 60..]).expect("append");
    live.close().expect("close");
    let mut whole = Catalog::new();
    whole
        .register(
            "live",
            Arc::new(Table::new_unchecked(
                Arc::clone(sessions.schema()),
                rows.to_vec(),
            )),
        )
        .expect("register table");
    let exact = OnlineSession::new(whole, config())
        .execute_exact(GROWING)
        .expect("exact run");
    for handle in &growing {
        let last = next(&live, handle, "the final batch").expect("a report");
        assert!(last.is_final(), "closed and drained");
        assert_eq!(last.rows_seen, rows.len());
        tables_bit_equal(&last.table, &exact).expect("the final report is exact");
        assert!(next(&live, handle, "the end").is_none(), "the stream ends");
    }
    drop_in_time(service);
}

fn dropping_a_service_with_a_parked_session_returns(sessions: &Table, rows: &[Row]) {
    let (catalog, live) = catalog(sessions, rows);
    let service = service(&catalog, 1, 0);
    let handle = service.submit(GROWING).expect("admits");
    drain_sealed(&live, &handle);
    wait_until(&live, "the session parks", || parked() == 1.0);
    drop_in_time(service);
    assert!(
        next(&live, &handle, "the end").is_none(),
        "the session went with the service"
    );
}

fn a_dropped_parked_handle_frees_its_slot(sessions: &Table, rows: &[Row]) {
    let (catalog, live) = catalog(sessions, rows);
    let sbi_solo: Vec<BatchReport> = (OnlineSession::new(catalog.clone(), config()))
        .execute_online(conviva::SBI)
        .expect("SBI compiles")
        .map(|r| r.expect("batch succeeds"))
        .collect();
    let service = service(&catalog, 1, 1);
    let handle = service.submit(GROWING).expect("admits");
    drain_sealed(&live, &handle);
    wait_until(&live, "the session parks", || parked() == 1.0);
    let sbi = service.submit(conviva::SBI).expect("SBI queues");
    drop(handle);
    let streamed: Vec<BatchReport> =
        std::iter::from_fn(|| next(&live, &sbi, "SBI in the freed slot")).collect();
    assert_reports_identical("SBI in the freed slot", &sbi_solo, &streamed);
    assert_eq!(parked(), 0.0, "the canceled session left no parked entry");
    drop_in_time(service);
}
