//! Moving-N contracts for growing streams (DESIGN.md §3.12).
//!
//! A query over a [`StreamTable`] sees a population that can still grow:
//! `N` in the finite-population correction and the multiplicity is the
//! stream's **live** total (sealed + buffered), not a query-start
//! snapshot. These tests pin the two halves of that contract:
//!
//! * **FPC regression** — an append after batch `k` strictly widens (or
//!   holds) later CIs relative to a run without the append; under the old
//!   static-N assumption `n` could reach the stale `N` and collapse the CI
//!   to zero while data was still arriving.
//! * **Bit-identity** — with a deterministic append/seal/close schedule
//!   (driven between iterator steps), the full report stream is identical
//!   bit for bit at `threads = 1` vs `threads = N`, across same-seed
//!   reruns, and between an in-memory and a durable stream, extra
//!   segment-batches included; the drained stream's last report is the
//!   exact answer.
//! * **Clean end** — a stream closed while its query has caught up ends
//!   the query, solo and through a service, with no error item.

use std::path::Path;
use std::sync::Arc;

use g_ola::bootstrap::BootstrapSpec;
use g_ola::common::Row;
use g_ola::core::sched::{QueryService, ServiceConfig};
use g_ola::core::{BatchReport, OnlineConfig, OnlineSession};
use g_ola::storage::{Catalog, StreamTable, Table};
use g_ola::workloads::ConvivaGenerator;
use gola_conformance::{assert_reports_identical, tables_bit_equal};

const SQL: &str = "SELECT device, AVG(play_time) AS a0, SUM(buffer_time) AS a1 FROM sessions \
     GROUP BY device ORDER BY a0 DESC";
const BASE_BATCHES: usize = 4;

/// The full 360-row workload; the first 240 are sealed before the query
/// starts, the rest arrive while it runs.
fn all_rows() -> (Arc<g_ola::common::Schema>, Vec<Row>) {
    let gen = ConvivaGenerator {
        seed: 0x16_E57,
        ..ConvivaGenerator::default()
    };
    let table = gen.generate(360);
    (Arc::clone(table.schema()), table.rows())
}

fn config(threads: usize) -> OnlineConfig {
    OnlineConfig {
        num_batches: BASE_BATCHES,
        bootstrap: BootstrapSpec::new(24, 0xB0_075),
        partition_seed: 0x5EED,
        ..OnlineConfig::default()
    }
    .with_threads(threads)
}

fn session_over(stream: &Arc<StreamTable>, threads: usize) -> OnlineSession {
    let mut catalog = Catalog::new();
    catalog
        .register_stream("sessions", Arc::clone(stream))
        .expect("register stream");
    OnlineSession::new(catalog, config(threads))
}

/// Drive the canonical growing schedule: 240 rows sealed up front, one
/// segment sealed mid-run, one more appended + sealed at close. Appends
/// happen between iterator steps, so the schedule — and therefore the
/// report stream — is deterministic. With `dir` the stream persists every
/// segment there.
fn run_growing_schedule(threads: usize, dir: Option<&Path>) -> Vec<BatchReport> {
    let (schema, rows) = all_rows();
    let stream = match dir {
        Some(dir) => StreamTable::create_dir(schema, dir).expect("create durable stream"),
        None => StreamTable::new(schema),
    };
    stream.append_rows(&rows[..240]).expect("seed rows");
    stream.seal().expect("seed segment");
    let session = session_over(&stream, threads);
    let mut exec = session.execute_online(SQL).expect("query compiles");
    let mut reports = Vec::new();
    for _ in 0..2 {
        reports.push(exec.next().expect("base batch").expect("succeeds"));
    }
    // Mid-run growth: one segment becomes a future mini-batch, and 60 more
    // rows sit in the write buffer — visible to N, not yet queryable.
    stream.append_rows(&rows[240..300]).expect("append");
    stream.seal().expect("seal mid-run segment");
    stream.append_rows(&rows[300..]).expect("append tail");
    for _ in 2..BASE_BATCHES {
        reports.push(exec.next().expect("base batch").expect("succeeds"));
    }
    // The mid-run segment surfaces as an extra batch.
    reports.push(exec.next().expect("extra batch").expect("succeeds"));
    // Close: the tail seals, the stream ends, the final batch is exact.
    stream.close().expect("close");
    reports.push(exec.next().expect("final batch").expect("succeeds"));
    assert!(exec.next().is_none(), "stream drained ⇒ iterator ends");
    reports
}

#[test]
fn growing_schedule_is_bit_identical_across_threads_and_reruns() {
    let solo = run_growing_schedule(1, None);
    assert_eq!(solo.len(), BASE_BATCHES + 2);

    // Same-seed rerun: bit-exact.
    assert_reports_identical("rerun", &solo, &run_growing_schedule(1, None));
    // threads = N: bit-exact (the paper-repo's core contract, extended to
    // batches that did not exist when the query started).
    assert_reports_identical("threads", &solo, &run_growing_schedule(4, None));

    // Durable: the same schedule through segment files streams the same
    // bits, and the directory reopens closed, at the full watermark, with
    // every source row intact.
    let dir = std::env::temp_dir().join(format!("gola-ingest-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = run_growing_schedule(1, Some(&dir));
    assert_reports_identical("durable", &solo, &durable);
    let reopened = StreamTable::open_dir(&dir).expect("reopen from manifest");
    assert!(reopened.is_closed(), "closed state must persist");
    assert_eq!(reopened.watermark(), 360);
    let (schema, rows) = all_rows();
    let snapshot = reopened.snapshot().expect("snapshot");
    tables_bit_equal(&snapshot, &Table::new_unchecked(schema, rows)).expect("lossless segments");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn final_report_of_a_drained_stream_is_exact() {
    let reports = run_growing_schedule(1, None);
    let last = reports.last().expect("reports");
    assert!(last.is_final(), "drained + closed ⇒ final");
    assert_eq!(last.rows_seen, 360);
    assert_eq!(last.total_rows, 360);
    assert_eq!(last.multiplicity, 1.0, "final multiplicity is exactly 1");
    for cell in &last.estimates {
        assert_eq!(cell.estimate.fpc, 0.0, "final FPC is exactly 0");
    }
    // ... and the answer is the batch engine's over all 360 rows.
    let (schema, rows) = all_rows();
    let mut catalog = Catalog::new();
    catalog
        .register("sessions", Arc::new(Table::new_unchecked(schema, rows)))
        .expect("register table");
    let exact = OnlineSession::new(catalog, config(1))
        .execute_exact(SQL)
        .expect("exact run");
    tables_bit_equal(&last.table, &exact).expect("drained answer is exact");
    // No earlier report may claim finality: while the stream was open the
    // schedule could still grow.
    for r in &reports[..reports.len() - 1] {
        assert!(
            !r.is_final(),
            "batch {} claimed finality early",
            r.batch_index
        );
    }
}

#[test]
fn append_after_batch_k_widens_or_holds_the_ci() {
    let (schema, rows) = all_rows();

    // Control: same 240-row snapshot, nothing ever appended mid-run.
    let control_stream = StreamTable::new(Arc::clone(&schema));
    control_stream.append_rows(&rows[..240]).expect("seed");
    control_stream.seal().expect("seal");
    let session = session_over(&control_stream, 1);
    let mut exec = session.execute_online(SQL).expect("compiles");
    let control: Vec<BatchReport> = (0..BASE_BATCHES)
        .map(|_| exec.next().expect("batch").expect("succeeds"))
        .collect();

    // Grown: identical snapshot and seeds, but 120 rows arrive after
    // batch 1 (60 sealed + 60 buffered — both count toward the live N).
    let grown_stream = StreamTable::new(schema);
    grown_stream.append_rows(&rows[..240]).expect("seed");
    grown_stream.seal().expect("seal");
    let session = session_over(&grown_stream, 1);
    let mut exec = session.execute_online(SQL).expect("compiles");
    let mut grown: Vec<BatchReport> = Vec::new();
    for k in 0..BASE_BATCHES {
        if k == 2 {
            grown_stream.append_rows(&rows[240..300]).expect("append");
            grown_stream.seal().expect("seal");
            grown_stream.append_rows(&rows[300..]).expect("append tail");
        }
        grown.push(exec.next().expect("batch").expect("succeeds"));
    }

    // Before the append the two runs are the same run.
    assert_reports_identical("pre-append", &control[..2], &grown[..2]);
    // After it, the same processed rows are extrapolated to the larger
    // live N: SUM-like estimates scale by exactly the multiplicity ratio,
    // AVG-like ones are unchanged, and every CI is computed against the
    // live N — wider, never narrower. With the old static N the control's
    // batch 3 hits n == N and its correction collapses; the grown run's
    // must not.
    for k in 2..BASE_BATCHES {
        let (c, g) = (&control[k], &grown[k]);
        assert_eq!(g.total_rows, 360, "live N counts sealed + buffered rows");
        assert_eq!(c.total_rows, 240);
        assert_eq!(g.rows_seen, c.rows_seen, "same base schedule");
        let scale = g.multiplicity / c.multiplicity;
        assert!(
            (scale - 360.0 / 240.0).abs() < 1e-12,
            "batch {k}: multiplicity must track the live N"
        );
        let mut widened = 0usize;
        for (cc, gc) in c.estimates.iter().zip(&g.estimates) {
            // Output columns: 0 = device (key), 1 = AVG(play_time),
            // 2 = SUM(buffer_time).
            let (cv, gv) = (cc.estimate.value, gc.estimate.value);
            if cc.col == 1 {
                assert!(
                    (gv - cv).abs() <= 1e-9 * cv.abs(),
                    "batch {k}: AVG is population-size free ({cv} vs {gv})"
                );
            } else {
                assert!(
                    (gv - cv * scale).abs() <= 1e-9 * (cv * scale).abs(),
                    "batch {k}: SUM must scale by the multiplicity ratio \
                     ({cv} * {scale} vs {gv})"
                );
            }
            assert!(
                gc.estimate.fpc >= cc.estimate.fpc,
                "batch {k}: FPC must widen or hold ({} < {})",
                gc.estimate.fpc,
                cc.estimate.fpc
            );
            let (Some(ci_c), Some(ci_g)) = (
                cc.estimate.ci_percentile(c.ci_level),
                gc.estimate.ci_percentile(g.ci_level),
            ) else {
                continue;
            };
            assert!(
                ci_g.half_width() >= ci_c.half_width(),
                "batch {k}: CI narrowed after an append ({} < {})",
                ci_g.half_width(),
                ci_c.half_width()
            );
            if ci_g.half_width() > ci_c.half_width() {
                widened += 1;
            }
        }
        assert!(widened > 0, "batch {k}: the append widened no CI at all");
    }
    // The control's last batch sees n == N on a still-open stream: the
    // correction legitimately reaches zero against the *current*
    // population, but the report must not claim finality — N can move.
    assert!(!control.last().unwrap().is_final());
}

/// A query that has caught up with an open stream, over a stream then
/// closed with nothing new (an empty write buffer): it ends, solo and
/// through a service, with no error item. No batch is left to report, so
/// its last report, sent while the stream was open, is not flagged final.
#[test]
fn closing_a_caught_up_stream_ends_the_query_cleanly() {
    let (schema, rows) = all_rows();
    let seeded = || {
        let stream = StreamTable::new(Arc::clone(&schema));
        stream.append_rows(&rows[..240]).expect("seed rows");
        stream.seal().expect("seed segment");
        stream
    };
    let caught_up = |reports: &[BatchReport]| {
        assert_eq!(reports.len(), BASE_BATCHES, "every sealed batch");
        assert!(reports.iter().all(|r| !r.is_final()), "an open stream");
    };

    // Solo, closed between two calls, then closed while `next` waits.
    for wait in [false, true] {
        let stream = seeded();
        let session = session_over(&stream, 1);
        let mut exec = session.execute_online(SQL).expect("query compiles");
        let reports: Vec<BatchReport> = (0..BASE_BATCHES)
            .map(|_| exec.next().expect("base batch").expect("succeeds"))
            .collect();
        caught_up(&reports);
        let rest = if wait {
            let waiting = std::thread::spawn(move || exec.next().map(|r| r.map(|_| ())));
            stream.close().expect("close");
            waiting.join().expect("iterator thread")
        } else {
            stream.close().expect("close");
            exec.next().map(|r| r.map(|_| ()))
        };
        assert!(rest.is_none(), "wait {wait}: the iterator ends: {rest:?}");
    }

    // Through a service: the session parks once caught up, and the close
    // ends its stream.
    let stream = seeded();
    let mut catalog = Catalog::new();
    catalog
        .register_stream("sessions", Arc::clone(&stream))
        .expect("register stream");
    let service = QueryService::new(
        catalog,
        ServiceConfig {
            max_active: 1,
            queue_capacity: 0,
            threads: 1,
            base: config(1),
        },
    );
    let handle = service.submit(SQL).expect("admits");
    let reports: Vec<BatchReport> = (0..BASE_BATCHES)
        .map(|_| handle.recv().expect("base batch").expect("succeeds"))
        .collect();
    caught_up(&reports);
    stream.close().expect("close");
    let rest: Vec<_> = handle.collect();
    assert!(
        rest.is_empty(),
        "the stream ends: {} more items",
        rest.len()
    );
}
