//! Crash-replay contract: if an online run dies mid-stream, a fresh
//! executor that replays the same batch sequence must publish **the same
//! reports, bit for bit** — including runs whose history contains
//! failure-triggered recomputations, so the `recover` replay path itself
//! is covered, not just the happy path.
//!
//! The "crash" is simulated by dropping the execution after consuming a
//! prefix of its reports (all executor state is lost); the "restart" is a
//! brand-new session over the same catalog and config. Nothing is
//! checkpointed — determinism of ingest order, bootstrap weights, and
//! recovery is what makes replay exact.

use std::sync::Arc;

use g_ola::bootstrap::BootstrapSpec;
use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::storage::Catalog;
use g_ola::workloads::ConvivaGenerator;
use gola_conformance::assert_reports_identical;

const NUM_BATCHES: usize = 5;
const CRASH_AFTER: usize = 3; // reports consumed before the "crash"

/// A query whose run (under this exact data/config) triggers multiple
/// failure-triggered recomputations, and a scalar one with a single
/// recomputation — found by the conformance harness's generator.
const GROUPED_SQL: &str = "SELECT device, MAX(ad_revenue) AS a0 FROM sessions a \
     WHERE join_time > 1.5 * (SELECT AVG(join_time) FROM sessions t WHERE t.geo = a.geo) \
     OR content_id = 189 GROUP BY device ORDER BY a0 DESC";
/// The grouped query without its `OR`: a correlated comparison under a
/// GROUP BY with mergeable aggregates, so each of its recoveries replays
/// only the groups the violated `geo` keys reach (scoped recovery).
const SCOPED_SQL: &str = "SELECT device, MAX(ad_revenue) AS a0, COUNT(*) AS n FROM sessions a \
     WHERE join_time > 1.5 * (SELECT AVG(join_time) FROM sessions t WHERE t.geo = a.geo) \
     GROUP BY device ORDER BY device";
const SCALAR_SQL: &str = "SELECT SUM(play_time) AS a0, AVG(buffer_time) AS a1, \
     AVG(buffer_time * 2.4) AS a2 FROM sessions a \
     WHERE buffer_time <= 0.8 * (SELECT AVG(play_time) FROM sessions t WHERE t.ad_id = a.ad_id) \
     ORDER BY a1";

fn catalog() -> Catalog {
    let gen = ConvivaGenerator {
        seed: 0x5EED_DA7A,
        ..ConvivaGenerator::default()
    };
    let mut c = Catalog::new();
    c.register("sessions", Arc::new(gen.generate(360))).unwrap();
    c
}

fn config(threads: usize) -> OnlineConfig {
    OnlineConfig {
        num_batches: NUM_BATCHES,
        bootstrap: BootstrapSpec::new(24, 0x60_1A),
        partition_seed: 0xF1_00_DB,
        threads,
        ..OnlineConfig::default()
    }
}

/// Run `sql` on `threads` worker threads and collect at most `upto`
/// reports, then drop the execution.
fn run_prefix(catalog: &Catalog, sql: &str, upto: usize, threads: usize) -> Vec<BatchReport> {
    let session = OnlineSession::new(catalog.clone(), config(threads));
    let exec = session.execute_online(sql).expect("query compiles");
    exec.take(upto)
        .map(|r| r.expect("batch succeeds"))
        .collect()
}

/// The contract at `threads` worker threads; returns the uninterrupted run.
fn check_crash_replay(
    name: &str,
    sql: &str,
    min_recomputes: usize,
    threads: usize,
) -> Vec<BatchReport> {
    let catalog = catalog();

    // The uninterrupted run — the reports the user actually saw.
    let full = run_prefix(&catalog, sql, NUM_BATCHES, threads);
    assert_eq!(full.len(), NUM_BATCHES, "{name}: full run length");
    let recomputes = full.last().unwrap().recomputations;
    assert!(
        recomputes >= min_recomputes,
        "{name}: expected ≥ {min_recomputes} recomputations so replay covers \
         the recover path, got {recomputes} — query/data drifted, repin it"
    );

    // Crash: consume a prefix, then lose the executor entirely.
    let crashed = run_prefix(&catalog, sql, CRASH_AFTER, threads);
    assert_eq!(crashed.len(), CRASH_AFTER, "{name}: crashed run length");

    // Restart from scratch: the replay must walk through the identical
    // report sequence — matching the crashed prefix AND the uninterrupted
    // run's published reports, through to the exact final answer.
    let replay = run_prefix(&catalog, sql, NUM_BATCHES, threads);
    assert_reports_identical(name, &crashed, &replay[..CRASH_AFTER]);
    assert_reports_identical(name, &full, &replay);
    full
}

#[test]
fn crash_replay_reproduces_reports_grouped() {
    check_crash_replay("grouped", GROUPED_SQL, 2, 1);
}

/// Scoped recovery is in the contract too, at either thread count — and
/// the two thread counts agree.
#[test]
fn crash_replay_reproduces_reports_scoped() {
    let t1 = check_crash_replay("scoped t1", SCOPED_SQL, 3, 1);
    let t2 = check_crash_replay("scoped t2", SCOPED_SQL, 3, 2);
    assert_reports_identical("scoped t1 vs t2", &t1, &t2);
}

/// The durable path: the same crash-replay contract, but the restart
/// rebuilds the catalog **from segment files on disk** instead of from a
/// live object. Seal the workload into a durable stream in several
/// segments, close it, run to completion; then drop every in-memory
/// handle, reopen the catalog from the manifest, and replay. The replayed
/// stream must be bit-identical to the pre-crash run — and to a plain
/// in-memory run over the same rows, pinning that the segment round-trip
/// (validity bitmaps, float bits, dictionary codes) loses nothing.
#[test]
fn crash_replay_survives_restart_from_durable_segments() {
    use g_ola::storage::StreamTable;

    let dir = std::env::temp_dir().join(format!("gola-crash-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let rows = {
        let gen = ConvivaGenerator {
            seed: 0x5EED_DA7A,
            ..ConvivaGenerator::default()
        };
        gen.generate(360)
    };

    // Ingest: three sealed segments, in deterministic append order.
    let stream = StreamTable::create_dir(Arc::clone(rows.schema()), &dir).expect("create stream");
    for third in rows.rows().chunks(120) {
        stream.append_rows(third).expect("append");
        stream.seal().expect("seal");
    }
    stream.close().expect("close");
    assert_eq!(stream.num_segments(), 3);
    assert_eq!(stream.watermark(), 360);

    let durable_catalog = |stream: Arc<StreamTable>| {
        let mut c = Catalog::new();
        c.register_stream("sessions", stream).unwrap();
        c
    };

    // The run the user saw before the crash.
    let before = run_prefix(&durable_catalog(stream), GROUPED_SQL, NUM_BATCHES, 1);
    assert_eq!(before.len(), NUM_BATCHES);

    // "Crash": every in-memory handle is gone; only the files remain.
    let reopened = StreamTable::open_dir(&dir).expect("reopen from manifest");
    assert_eq!(reopened.num_segments(), 3);
    assert_eq!(reopened.watermark(), 360);
    assert!(reopened.is_closed(), "closed state must persist");

    let after = run_prefix(&durable_catalog(reopened), GROUPED_SQL, NUM_BATCHES, 1);
    assert_eq!(after.len(), NUM_BATCHES);
    assert_reports_identical("durable-replay", &before, &after);

    // And the whole durable pipeline must agree with a plain in-memory
    // table holding the same rows — segment files are a lossless detour.
    let in_memory = run_prefix(&catalog(), GROUPED_SQL, NUM_BATCHES, 1);
    assert_reports_identical("durable-vs-memory", &in_memory, &after);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_replay_reproduces_reports_scalar() {
    check_crash_replay("scalar", SCALAR_SQL, 1, 1);
}
