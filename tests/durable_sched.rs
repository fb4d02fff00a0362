//! Durable replay × scheduler × threads = 2.
//!
//! A Conviva stream is sealed to segment files, closed, and reopened from
//! its manifest with `StreamTable::open_dir`. Two queries then run
//! concurrently through one `QueryService` on a two-thread pool, one of
//! them recovering, and each must stream bit for bit what a solo
//! single-threaded `OnlineSession` streams over the same reopened catalog.

use std::path::Path;
use std::sync::Arc;

use g_ola::bootstrap::EpsilonPolicy;
use g_ola::core::sched::{QueryService, ServiceConfig};
use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::storage::{Catalog, StreamTable};
use g_ola::workloads::{conviva, ConvivaGenerator};
use gola_conformance::assert_reports_identical;

const ROWS: usize = 3000;
const SEGMENT_ROWS: usize = 500;

/// C3's correlated inner block recovers under the tight slack below; C2
/// runs beside it on the same pool.
const QUERIES: [(&str, &str); 2] = [("C3", conviva::C3), ("C2", conviva::C2)];

/// Seal `ROWS` Conviva rows into `dir` one segment at a time, close the
/// stream, and register its reopened copy as `sessions`.
fn reopened_catalog(dir: &Path) -> Catalog {
    let table = ConvivaGenerator::default().generate(ROWS);
    let stream = StreamTable::create_dir(Arc::clone(table.schema()), dir).unwrap();
    for segment in table.rows().chunks(SEGMENT_ROWS) {
        stream.append_rows(segment).unwrap();
        stream.seal().unwrap();
    }
    stream.close().unwrap();
    drop(stream);
    let reopened = StreamTable::open_dir(dir).expect("reopen from manifest");
    assert!(reopened.is_closed());
    assert_eq!(reopened.watermark(), ROWS as u64);
    let mut catalog = Catalog::new();
    catalog.register_stream("sessions", reopened).unwrap();
    catalog
}

fn config() -> OnlineConfig {
    OnlineConfig::for_tests(6)
        .with_trials(16)
        .with_epsilon(EpsilonPolicy::StdDevScaled(0.5))
}

fn solo_stream(catalog: &Catalog, sql: &str) -> Vec<BatchReport> {
    OnlineSession::new(catalog.clone(), config().with_threads(1))
        .execute_online(sql)
        .unwrap()
        .map(|r| r.unwrap())
        .collect()
}

#[test]
fn reopened_durable_stream_serves_concurrent_sessions_bit_identically() {
    let dir = std::env::temp_dir().join(format!("gola-durable-sched-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = reopened_catalog(&dir);

    let service = QueryService::new(
        catalog.clone(),
        ServiceConfig {
            max_active: 2,
            queue_capacity: QUERIES.len(),
            threads: 2,
            base: config(),
        },
    );
    let handles: Vec<_> = QUERIES
        .iter()
        .map(|(name, sql)| {
            service
                .submit(sql)
                .unwrap_or_else(|e| panic!("{name} admits: {e}"))
        })
        .collect();
    for (handle, (name, sql)) in handles.into_iter().zip(QUERIES) {
        let stream: Vec<BatchReport> = handle.map(|r| r.unwrap()).collect();
        let solo = solo_stream(&catalog, sql);
        assert!(stream.len() > 1, "{name}: {} report(s)", stream.len());
        assert!(stream.last().is_some_and(|r| r.is_final()), "{name}");
        assert_reports_identical(name, &solo, &stream);
        if name == "C3" {
            assert!(
                stream.last().unwrap().recomputations > 0,
                "C3 must recover under ε = 0.5σ"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
