//! Per-session observability under the multi-tenant scheduler.
//!
//! The registry was built single-session: every executor resolved the
//! same global `report.*` cells, so two concurrent sessions would
//! interleave writes through one gauge — last writer wins, values from
//! *some* session. Under the `QueryService` each session's executor
//! resolves `session="s<id>"`-labeled series instead; this test pins:
//!
//! 1. **Isolation** — concurrent sessions write disjoint labeled cells;
//!    each session's counters land exactly its own batch count, and no
//!    unlabeled `report.*` cell exists at all.
//! 2. **Determinism** — two identical service runs export byte-identical
//!    snapshots (labels included), in both JSON and Prometheus form.
//! 3. **Service telemetry** — admission/completion counters and the
//!    active/queued gauges settle to their exact expected values.
//!
//! One test function, same reason as `tests/obs_inert.rs`: the registry
//! is process-global and test functions in one binary run concurrently.

use std::sync::Arc;

use g_ola::core::sched::{QueryService, ServiceConfig};
use g_ola::core::OnlineConfig;
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, ConvivaGenerator};

/// Run two concurrent sessions (different queries) to completion through
/// one service and return the registry's exports.
fn run_service(catalog: &Catalog) -> (String, String) {
    let service = QueryService::new(
        catalog.clone(),
        ServiceConfig {
            max_active: 2,
            queue_capacity: 2,
            threads: 1,
            base: OnlineConfig::for_tests(8).with_trials(16),
        },
    );
    let a = service.submit(conviva::SBI).expect("SBI admits");
    let b = service.submit(conviva::C1).expect("C1 admits");
    let reports_a = a.inspect(|r| assert!(r.is_ok(), "SBI batch")).count();
    let reports_b = b.inspect(|r| assert!(r.is_ok(), "C1 batch")).count();
    assert_eq!(reports_a, 8, "SBI runs all batches");
    assert_eq!(reports_b, 8, "C1 runs all batches");
    drop(service);
    (obs::snapshot_json(false), obs::prometheus(false))
}

#[test]
fn concurrent_sessions_have_isolated_deterministic_metrics() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(4000)),
        )
        .expect("register table");

    obs::set_enabled(true);
    let (snap, prom) = run_service(&catalog);
    obs::reset();
    let (snap_again, prom_again) = run_service(&catalog);
    obs::set_enabled(false);

    // 1. Isolation: each session owns its labeled cells; the sessions ran
    //    8 batches each and neither overwrote the other's count.
    for session in ["s0", "s1"] {
        assert!(
            snap.contains(&format!(
                "\"report.batches{{session=\\\"{session}\\\"}}\": 8"
            )),
            "per-session batch counter missing for {session}: {snap}"
        );
        assert!(
            snap.contains(&format!("report.ci_width{{session=\\\"{session}\\\"}}")),
            "per-session gauge missing for {session}: {snap}"
        );
        // The bytes of the session's seen indexes, at `/metrics` too
        // (neither query keeps one).
        let seen_index = format!("gola_core_mem_seen_index{{session=\"{session}\"}} 0");
        assert!(prom.contains(&seen_index), "{seen_index} missing: {prom}");
    }
    // No unlabeled report.* series may exist in a service run — an
    // unlabeled cell is exactly the cross-session corruption vector.
    assert!(
        !snap.contains("\"report.batches\":"),
        "unlabeled series leaked: {snap}"
    );
    // Prometheus splits the label back out into real label syntax, one
    // family header shared by both series.
    assert!(
        prom.contains("gola_report_batches_total{session=\"s0\"} 8"),
        "prometheus labels: {prom}"
    );
    assert!(
        prom.contains("gola_report_batches_total{session=\"s1\"} 8"),
        "prometheus labels: {prom}"
    );
    assert_eq!(
        prom.matches("# TYPE gola_report_batches_total counter")
            .count(),
        1,
        "labeled series must share one family header: {prom}"
    );

    // 2. Determinism: identical runs, byte-identical exports.
    assert_eq!(snap, snap_again, "JSON snapshot must be deterministic");
    assert_eq!(prom, prom_again, "Prometheus export must be deterministic");

    // 3. Service telemetry.
    assert!(
        snap.contains("\"service.submitted\": 2"),
        "snapshot: {snap}"
    );
    assert!(
        snap.contains("\"service.completed\": 2"),
        "snapshot: {snap}"
    );
    assert!(snap.contains("\"service.active\": 0"), "snapshot: {snap}");
    assert!(snap.contains("\"service.queued\": 0"), "snapshot: {snap}");
}
