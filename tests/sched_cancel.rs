//! A dropped `QueryHandle` frees its slot.
//!
//! Dropping a handle cancels its session lazily: the scheduler notices the
//! closed report channel when it next delivers a report, ends the session
//! as canceled and activates the next queued one. With one active slot
//! and one queue place, C2 runs, its client reads one report and hangs
//! up, and SBI, queued behind it, must then run to its final report with a
//! stream bit-identical to a solo run. With obs on, the service counts one
//! cancel and one completion.
//!
//! One test function: the metrics registry is process-global and test
//! functions in one binary run concurrently.

use std::sync::Arc;

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

#[test]
fn dropped_handle_frees_its_slot_for_the_queued_session() {
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
    let service = QueryService::new(
        catalog,
        ServiceConfig {
            max_active: 1,
            queue_capacity: 1,
            threads: 1,
            base: base_config(),
        },
    );
    let c2 = service.submit(conviva::C2).expect("C2 admits");
    assert!(c2.recv().expect("C2 reports").is_ok(), "C2 batch");
    drop(c2);
    let sbi = service.submit(conviva::SBI).expect("SBI admits");
    let streamed: Vec<BatchReport> = sbi.map(|r| r.expect("SBI batch")).collect();
    drop(service);
    let snap = obs::snapshot_json(false);
    obs::set_enabled(false);

    assert_reports_identical("SBI after a dropped C2", &solo, &streamed);
    assert!(snap.contains("\"service.canceled\": 1"), "snapshot: {snap}");
    assert!(
        snap.contains("\"service.completed\": 1"),
        "snapshot: {snap}"
    );
}
