//! A session ends exactly once, and its slot goes to the queued one.
//!
//! Dropping a handle cancels its session: the service ends it as canceled
//! (a held one at its runner's charge) and activates the next queued one.
//! With one active slot and one queue place, C2 runs, its client reads one
//! report and hangs up, and SBI, queued behind it, must then run to its
//! final report with a stream bit-identical to a solo run. With obs on, the service counts one
//! cancel and one completion.
//!
//! A `QueryService::cancel` from another thread while the session's
//! quantum runs only marks the session; the runner ends it when it charges
//! that quantum. The counters must again move by exactly one cancel (not
//! two) and one completion (the promoted session's, not the canceled
//! one's). And dropping a service with two sessions mid-run must join
//! every runner and end both streams.
//!
//! One test function: the metrics registry is process-global and test
//! functions in one binary run concurrently.

use std::sync::Arc;
use std::time::Duration;

use g_ola::core::sched::{QueryService, ServiceConfig};
use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, ConvivaGenerator};
use gola_conformance::assert_reports_identical;

/// Enough rows and batches that C2 is still running when its client hangs
/// up: the rest of its run takes about a quarter of a second in a debug
/// build, against the microseconds between the read and the drop.
const ROWS: usize = 20_000;
const BATCHES: usize = 100;

fn base_config() -> OnlineConfig {
    OnlineConfig::for_tests(BATCHES).with_trials(16)
}

/// The service's end counters: `(canceled, completed)`.
fn ends() -> (u64, u64) {
    let read = |name| obs::counter(name).get();
    (read("service.canceled"), read("service.completed"))
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

fn service(catalog: &Catalog, max_active: usize, queue_capacity: usize) -> QueryService {
    QueryService::new(
        catalog.clone(),
        ServiceConfig {
            max_active,
            queue_capacity,
            threads: 1,
            base: base_config(),
        },
    )
}

#[test]
fn every_session_ends_once_and_frees_its_slot() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(ROWS)),
        )
        .expect("register table");
    let solo: Vec<BatchReport> = OnlineSession::new(catalog.clone(), base_config())
        .execute_online(conviva::SBI)
        .expect("SBI compiles")
        .map(|r| r.expect("batch succeeds"))
        .collect();

    obs::set_enabled(true);
    dropped_handle_frees_its_slot(&catalog, &solo);
    cancel_during_a_quantum_ends_the_session_once(&catalog, &solo);
    obs::set_enabled(false);
    dropping_the_service_mid_run_joins_every_runner(&catalog);
}

fn dropped_handle_frees_its_slot(catalog: &Catalog, solo: &[BatchReport]) {
    let before = ends();
    let service = service(catalog, 1, 1);
    let c2 = service.submit(conviva::C2).expect("C2 admits");
    assert!(c2.recv().expect("C2 reports").is_ok(), "C2 batch");
    drop(c2);
    let sbi = service.submit(conviva::SBI).expect("SBI admits");
    let streamed: Vec<BatchReport> = sbi.map(|r| r.expect("SBI batch")).collect();
    drop_in_time(service);
    let (canceled, completed) = ends();

    assert_reports_identical("SBI after a dropped C2", solo, &streamed);
    assert_eq!(canceled - before.0, 1, "one cancel");
    assert_eq!(completed - before.1, 1, "one completion");
}

fn cancel_during_a_quantum_ends_the_session_once(catalog: &Catalog, solo: &[BatchReport]) {
    let before = ends();
    let service = service(catalog, 1, 1);
    let c2 = service.submit(conviva::C2).expect("C2 admits");
    let sbi = service.submit(conviva::SBI).expect("SBI queues");
    // C2 is the only active session: a runner runs its quanta back to
    // back, so after its first report it is almost always mid-quantum.
    assert!(c2.recv().expect("C2 reports").is_ok(), "C2 batch");
    let id = c2.id();
    std::thread::scope(|s| {
        s.spawn(|| service.cancel(id));
    });
    // The stream ends once the runner charges the canceled quantum.
    let rest = c2.count();
    assert!(
        rest < BATCHES - 1,
        "C2 ran to its end ({rest} more reports)"
    );
    let streamed: Vec<BatchReport> = sbi.map(|r| r.expect("SBI batch")).collect();
    drop_in_time(service);
    let (canceled, completed) = ends();
    let active = obs::gauge("service.active").get();

    assert_reports_identical("SBI after a canceled C2", solo, &streamed);
    assert_eq!(canceled - before.0, 1, "C2 counts one cancel");
    assert_eq!(completed - before.1, 1, "only SBI completes");
    assert_eq!(active, 0.0, "no session is left active");
}

fn dropping_the_service_mid_run_joins_every_runner(catalog: &Catalog) {
    let service = service(catalog, 2, 0);
    let handles = [conviva::C2, conviva::SBI].map(|sql| service.submit(sql).expect("admits"));
    for handle in &handles {
        assert!(handle.recv().expect("reports").is_ok(), "batch");
    }
    drop_in_time(service);
    // Both streams end: their sessions went with the service.
    for handle in handles {
        handle.for_each(drop);
    }
}
