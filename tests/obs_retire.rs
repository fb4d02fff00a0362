//! A long-running query service's metric export stays bounded: the series
//! of the newest `SESSION_SERIES_KEPT` ended sessions stay, an older
//! session's are retired — its counters fold into the unlabelled totals,
//! its gauges go. The series count after 2,000 sequential sessions equals
//! the count after 200.
//!
//! One test function: the registry is process-global.

use std::sync::Arc;

use g_ola::core::sched::{QueryService, ServiceConfig, SESSION_SERIES_KEPT};
use g_ola::core::OnlineConfig;
use g_ola::obs;
use g_ola::storage::Catalog;
use g_ola::workloads::{conviva, ConvivaGenerator};

/// Sample lines of the Prometheus export: one per series (and histogram
/// bucket).
fn series(prom: &str) -> usize {
    prom.lines().filter(|l| !l.starts_with('#')).count()
}

#[test]
fn ended_sessions_retire_their_series() {
    const BATCHES: u64 = 2;
    let mut catalog = Catalog::new();
    let table = ConvivaGenerator::default().generate(200);
    catalog.register("sessions", Arc::new(table)).unwrap();
    obs::set_enabled(true);
    obs::reset();
    let service = QueryService::new(
        catalog,
        ServiceConfig {
            max_active: 1,
            queue_capacity: 1,
            threads: 1,
            base: OnlineConfig::for_tests(BATCHES as usize).with_trials(4),
        },
    );
    let active = obs::gauge("service.active");
    let run = |sessions: u64| {
        for _ in 0..sessions {
            let handle = service.submit(conviva::SBI).expect("SBI admits");
            let reports = handle.inspect(|r| assert!(r.is_ok(), "batch fails: {r:?}"));
            assert_eq!(reports.count() as u64, BATCHES);
        }
        // A stream ends just before the scheduler marks its session ended
        // and publishes the active count; wait for that.
        while active.get() > 0.0 {
            std::thread::yield_now();
        }
    };
    run(200);
    let at_200 = series(&obs::prometheus(false));
    run(1_800);
    let prom = obs::prometheus(false);
    let snap = obs::snapshot_json(false);
    drop(service);
    obs::set_enabled(false);

    assert_eq!(series(&prom), at_200, "{prom}");
    let kept = SESSION_SERIES_KEPT as u64;
    let labelled = prom.matches("gola_report_batches_total{session=").count();
    assert_eq!(labelled as u64, kept, "{prom}");
    // Every retired session's batches moved into the unlabelled total.
    let retired = (2_000 - kept) * BATCHES;
    assert!(
        snap.contains(&format!("\"report.batches\": {retired}")),
        "{snap}"
    );
    assert!(
        !snap.contains("report.ci_width{session=\\\"s0\\\"}"),
        "a retired session's gauge stays: {snap}"
    );
}
