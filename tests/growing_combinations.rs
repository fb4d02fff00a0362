//! Growing streams combined with recovery and with an `ERROR` contract.
//!
//! Both runs read a stream that grows while the query runs: rows sealed up
//! front, two segments sealed mid-run (each an extra mini-batch), and a
//! buffered tail sealed by `close`. Appends happen between iterator steps,
//! so the schedule — and the report stream — is deterministic.
//!
//! * A query that recovers (C3 at the tight slack `ε = 0.5σ`) streams the
//!   same bits at threads 1 and 2 and on a rerun.
//! * An `ERROR` contract ends in a typed stop (`ErrorTargetMet` or
//!   `Exhausted`), at the same batch and with the same reports at threads 1
//!   and 2.

use std::sync::Arc;

use g_ola::bootstrap::{BootstrapSpec, EpsilonPolicy};
use g_ola::common::Row;
use g_ola::core::{BatchReport, ContractStop, OnlineConfig, OnlineSession};
use g_ola::storage::{Catalog, StreamTable};
use g_ola::workloads::{conviva, ConvivaGenerator};
use gola_conformance::assert_reports_identical;

const BASE_BATCHES: usize = 4;
/// Rows sealed before the query starts; three more blocks of `GROWTH`
/// rows arrive while it runs.
const BASE_ROWS: usize = 3000;
const GROWTH: usize = 600;

fn rows() -> (Arc<g_ola::common::Schema>, Vec<Row>) {
    let table = ConvivaGenerator::default().generate(BASE_ROWS + 3 * GROWTH);
    (Arc::clone(table.schema()), table.rows())
}

fn config(threads: usize) -> OnlineConfig {
    OnlineConfig {
        num_batches: BASE_BATCHES,
        bootstrap: BootstrapSpec::new(16, 0x6A0),
        partition_seed: 0x5EED,
        ..OnlineConfig::default()
    }
    .with_threads(threads)
}

/// Every report of `sql` under `config` over the growing schedule: the
/// first mid-run segment seals after batch 1, the second after batch 3,
/// and the tail is buffered then and sealed by `close` after batch 4.
fn run_growing(sql: &str, config: OnlineConfig) -> Vec<BatchReport> {
    let (schema, rows) = rows();
    let stream = StreamTable::new(schema);
    stream.append_rows(&rows[..BASE_ROWS]).expect("seed rows");
    stream.seal().expect("seed segment");
    let mut catalog = Catalog::new();
    catalog
        .register_stream("sessions", Arc::clone(&stream))
        .expect("register stream");
    let session = OnlineSession::new(catalog, config);
    let mut exec = session.execute_online(sql).expect("query compiles");
    let segment = |k: usize| &rows[BASE_ROWS + k * GROWTH..][..GROWTH];
    let mut reports = Vec::new();
    for step in 0.. {
        match step {
            2 => {
                stream.append_rows(segment(0)).expect("append");
                stream.seal().expect("seal");
            }
            4 => {
                stream.append_rows(segment(1)).expect("append");
                stream.seal().expect("seal");
                stream.append_rows(segment(2)).expect("append tail");
            }
            5 => stream.close().expect("close"),
            _ => {}
        }
        match exec.next() {
            Some(report) => reports.push(report.expect("batch succeeds")),
            None => break,
        }
    }
    if !stream.is_closed() {
        stream.close().expect("close");
    }
    reports
}

#[test]
fn growing_recovering_query_is_bit_identical_across_threads_and_reruns() {
    let tight = |threads| config(threads).with_epsilon(EpsilonPolicy::StdDevScaled(0.5));
    let solo = run_growing(conviva::C3, tight(1));
    // The base batches, both mid-run segments, and the sealed tail.
    assert_eq!(solo.len(), BASE_BATCHES + 3);
    let last = solo.last().expect("reports");
    assert!(last.is_final(), "the drained stream's last report is final");
    assert!(last.recomputations > 0, "no recovery: vacuous run");
    assert_reports_identical("rerun", &solo, &run_growing(conviva::C3, tight(1)));
    assert_reports_identical("threads", &solo, &run_growing(conviva::C3, tight(2)));
}

#[test]
fn error_contract_over_a_growing_stream_stops_typed_at_the_same_batch() {
    let sql = "SELECT geo, AVG(play_time) AS a FROM sessions GROUP BY geo \
               ERROR 2.5% CONFIDENCE 95%";
    let solo = run_growing(sql, config(1));
    let stop = |reports: &[BatchReport]| {
        let last = reports.last().expect("reports");
        let contract = last.contract.as_ref().expect("contracted run");
        (last.batch_index, contract.stop)
    };
    let (batch, how) = stop(&solo);
    // The target is met on a batch that did not exist when the query
    // started, with the tail still to come.
    assert!(batch >= BASE_BATCHES, "stopped at base batch {batch}");
    assert!(
        matches!(
            how,
            Some(ContractStop::ErrorTargetMet | ContractStop::Exhausted)
        ),
        "stopped with {how:?} at batch {batch}"
    );
    // Only the last report carries a stop.
    for r in &solo[..solo.len() - 1] {
        assert_eq!(r.contract.as_ref().and_then(|c| c.stop), None);
    }
    let two = run_growing(sql, config(2));
    assert_eq!(stop(&two), (batch, how), "threads 2 stopped elsewhere");
    assert_reports_identical("threads", &solo, &two);
}
