//! Growing streams combined with recovery, with an `ERROR` contract, and
//! with dimension joins and a static producer.
//!
//! Every run reads a stream that grows while the query runs: rows sealed
//! up front, two segments sealed mid-run (each an extra mini-batch), and a
//! buffered tail sealed by `close`. Appends happen between iterator steps,
//! so the schedule — and the report stream — is deterministic.
//!
//! * A query that recovers (C3 at the tight slack `ε = 0.5σ`) streams the
//!   same bits at threads 1 and 2 and on a rerun.
//! * An `ERROR` contract ends in a typed stop (`ErrorTargetMet` or
//!   `Exhausted`), at the same batch and with the same reports at threads 1
//!   and 2.
//! * A MyTube query joining the stream to `ads`, under a correlated static
//!   scalar whose block joins `ads` to `ad_tiers`, streams the same bits at
//!   threads 1 and 2 and on a rerun, and ends bit-equal to the exact
//!   engine over the closed stream.

use std::sync::Arc;

use g_ola::bootstrap::{BootstrapSpec, EpsilonPolicy};
use g_ola::common::{DataType, Row, Schema, Value};
use g_ola::core::{BatchReport, ContractStop, OnlineConfig, OnlineSession};
use g_ola::storage::{Catalog, StreamTable, Table};
use g_ola::workloads::{conviva, ConvivaGenerator, MyTubeGenerator};
use gola_conformance::{assert_reports_identical, tables_bit_equal};

const BASE_BATCHES: usize = 4;
/// Rows sealed before the query starts; three more blocks of `GROWTH`
/// rows arrive while it runs.
const BASE_ROWS: usize = 3000;
const GROWTH: usize = 600;

/// A stream's rows and the static tables registered beside it.
struct Data {
    stream: &'static str,
    table: Table,
    statics: Vec<(&'static str, Table)>,
}

fn conviva_data() -> Data {
    Data {
        stream: "sessions",
        table: ConvivaGenerator::default().generate(BASE_ROWS + 3 * GROWTH),
        statics: Vec::new(),
    }
}

/// MyTube sessions streamed, `ads` and a small `ad_tiers` static. One
/// category has two tiers, so its rows join twice.
fn mytube_data() -> Data {
    let generator = MyTubeGenerator::default();
    let schema = Arc::new(Schema::from_pairs(&[
        ("category", DataType::Str),
        ("tier", DataType::Int),
    ]));
    let tiers = [
        ("retail", 1),
        ("auto", 2),
        ("games", 1),
        ("travel", 3),
        ("finance", 2),
        ("games", 3),
    ];
    let tiers = tiers.map(|(c, t)| Row::new(vec![Value::str(c), Value::Int(t)]));
    Data {
        stream: "mytube_sessions",
        table: generator.sessions(BASE_ROWS + 3 * GROWTH),
        statics: vec![
            ("ads", generator.ads()),
            (
                "ad_tiers",
                Table::try_new(schema, tiers.to_vec()).expect("tiers"),
            ),
        ],
    }
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

/// Every report of `sql` under `config` over the growing schedule, and the
/// catalog it ran on, its stream closed: the first mid-run segment seals
/// after batch 1, the second after batch 3, and the tail is buffered then
/// and sealed by `close` after batch 4.
fn run_growing(data: &Data, sql: &str, config: OnlineConfig) -> (Vec<BatchReport>, Catalog) {
    let rows = data.table.rows();
    let stream = StreamTable::new(Arc::clone(data.table.schema()));
    stream.append_rows(&rows[..BASE_ROWS]).expect("seed rows");
    stream.seal().expect("seed segment");
    let mut catalog = Catalog::new();
    catalog
        .register_stream(data.stream, Arc::clone(&stream))
        .expect("register stream");
    for (name, table) in &data.statics {
        let table = Arc::new(table.clone());
        catalog.register(*name, table).expect("register static");
    }
    let session = OnlineSession::new(catalog.clone(), config);
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
    (reports, catalog)
}

#[test]
fn growing_recovering_query_is_bit_identical_across_threads_and_reruns() {
    let tight = |threads| config(threads).with_epsilon(EpsilonPolicy::StdDevScaled(0.5));
    let data = conviva_data();
    let (solo, _) = run_growing(&data, conviva::C3, tight(1));
    // The base batches, both mid-run segments, and the sealed tail.
    assert_eq!(solo.len(), BASE_BATCHES + 3);
    let last = solo.last().expect("reports");
    assert!(last.is_final(), "the drained stream's last report is final");
    assert!(last.recomputations > 0, "no recovery: vacuous run");
    let (rerun, _) = run_growing(&data, conviva::C3, tight(1));
    assert_reports_identical("rerun", &solo, &rerun);
    let (two, _) = run_growing(&data, conviva::C3, tight(2));
    assert_reports_identical("threads", &solo, &two);
}

#[test]
fn error_contract_over_a_growing_stream_stops_typed_at_the_same_batch() {
    let sql = "SELECT geo, AVG(play_time) AS a FROM sessions GROUP BY geo \
               ERROR 2.5% CONFIDENCE 95%";
    let data = conviva_data();
    let (solo, _) = run_growing(&data, sql, config(1));
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
    let (two, _) = run_growing(&data, sql, config(2));
    assert_eq!(stop(&two), (batch, how), "threads 2 stopped elsewhere");
    assert_reports_identical("threads", &solo, &two);
}

#[test]
fn growing_dimension_join_under_a_static_producer_ends_exact() {
    let sql = "SELECT a.category, COUNT(*) AS n, AVG(s.play_time) AS p \
               FROM mytube_sessions s JOIN ads a ON s.ad_id = a.ad_id \
               WHERE s.buffer_time < (SELECT AVG(d.cpm * t.tier) FROM ads d \
               JOIN ad_tiers t ON d.category = t.category WHERE d.ad_id = s.ad_id) \
               GROUP BY a.category ORDER BY a.category";
    let data = mytube_data();
    let (solo, catalog) = run_growing(&data, sql, config(1));
    assert_eq!(solo.len(), BASE_BATCHES + 3);
    let last = solo.last().expect("reports");
    assert!(last.is_final(), "the drained stream's last report is final");
    assert_eq!(last.total_rows, BASE_ROWS + 3 * GROWTH);
    assert_eq!(last.table.num_rows(), 5, "every category keeps rows");
    let exact = OnlineSession::new(catalog, config(1))
        .execute_exact(sql)
        .expect("exact run");
    tables_bit_equal(&last.table, &exact).expect("final answer is exact");
    let (rerun, _) = run_growing(&data, sql, config(1));
    assert_reports_identical("rerun", &solo, &rerun);
    let (two, _) = run_growing(&data, sql, config(2));
    assert_reports_identical("threads", &solo, &two);
}
