//! `ingest_durable`: a durable `StreamTable` sealed segment by segment on
//! one thread, a growing query started halfway and fed one segment per
//! report, then a drop, `open_dir`, and an exact rerun on the reopened
//! table. Writes sit beside reads on `storage`, so a change that speeds
//! one at the other's cost moves two metrics in opposite directions.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gola_common::{Row, Value};
use gola_core::OnlineConfig;
use gola_storage::{Catalog, StreamTable, Table};

use crate::online::{matches_exact, run_exact, run_query, Query, QueryRun};
use crate::spec::{Workload, INGEST_SEGMENTS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{config, generate, peak_rss_mb, setup_due, Outcome};

/// A directory inside the checkout for this process's files: beside the
/// running binary, which lives in the (ignored) build directory.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join("spine-tmp")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Raw bytes of the user's rows: 8 per number, 1 per bool, a string's
/// length. An exact count, the denominator of `bytes_per_user_byte`.
pub fn raw_bytes(rows: &[Row]) -> u64 {
    let value = |v: &Value| match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64,
    };
    rows.iter().map(|r| r.iter().map(value).sum::<u64>()).sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// What one pass over the stream observed.
pub struct Pass {
    pub run: QueryRun,
    /// Rows sealed durably per second of `append_rows` + `seal` + `close`.
    pub rows_per_s: f64,
    pub reopen_ms: f64,
    pub exact_ms: f64,
    /// Bytes on disk over [`raw_bytes`] of the rows.
    pub bytes_per_user_byte: f64,
}

/// Seal `table`'s rows as `segments` durable segments under `dir`, start
/// `query` once half of them are sealed and alternate one report with one
/// append+seal, close, drain; then reopen and answer exactly.
pub fn pass(
    table: &Table,
    segments: usize,
    dir: &Path,
    query: &Query,
    cfg: &OnlineConfig,
    id: u64,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let rows = table.rows();
    let stream =
        StreamTable::create_dir(Arc::clone(table.schema()), dir).map_err(|e| e.to_string())?;
    let seg_rows = rows.len().div_ceil(segments);
    let mut chunks = rows.chunks(seg_rows);
    let mut ingest = Duration::ZERO;
    let mut failed: Option<String> = None;
    // Append and seal the next segment; close the stream after the last.
    let mut feed = |tracer: &mut Tracer| {
        let Some(chunk) = chunks.next() else { return };
        let t0 = Instant::now();
        let span = tracer.open("storage.stream.append", None, id);
        let appended = stream.append_rows(chunk);
        tracer.close_with(span, vec![("rows", chunk.len() as f64)]);
        let sealed = tracer.call("storage.stream.seal", None, id, || stream.seal());
        let closed = if chunks.len() == 0 {
            tracer.call("storage.stream.close", None, id, || stream.close())
        } else {
            Ok(())
        };
        ingest += t0.elapsed();
        if let Err(e) = appended.and(sealed.map(|_| ())).and(closed) {
            failed.get_or_insert(format!("ingest: {e}"));
        }
    };
    for _ in 0..segments / 2 {
        feed(tracer);
    }
    let mut catalog = Catalog::new();
    catalog
        .register_stream("sessions", Arc::clone(&stream))
        .map_err(|e| e.to_string())?;
    let done = run_query(&catalog, cfg, query, id, tracer, false, |t| feed(t))?;
    if let Some(e) = failed {
        return Err(e);
    }
    let disk_bytes = dir_bytes(dir);
    drop(catalog);
    drop(stream);

    let span = tracer.open("storage.stream.open_dir", None, id);
    let t0 = Instant::now();
    let reopened = StreamTable::open_dir(dir).map_err(|e| format!("open_dir: {e}"))?;
    let snapshot = reopened.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);

    let back = snapshot.rows();
    let identical = back.len() == rows.len()
        && back.iter().zip(&rows).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| same_bits(x, y))
        });
    if !identical {
        return Err("reopened snapshot is not bit-identical to the appended rows".into());
    }
    let mut reopened_catalog = Catalog::new();
    reopened_catalog
        .register("sessions", Arc::new(snapshot))
        .map_err(|e| e.to_string())?;
    let (exact_ms, exact) = run_exact(&reopened_catalog, &query.sql, tracer)?;
    matches_exact(&done.last, &exact)
        .map_err(|e| format!("drained report != exact engine: {e}"))?;
    Ok(Pass {
        run: done.run,
        rows_per_s: rows.len() as f64 / ingest.as_secs_f64(),
        reopen_ms,
        exact_ms,
        bytes_per_user_byte: disk_bytes as f64 / raw_bytes(&rows) as f64,
    })
}

pub fn run_ingest(
    w: &Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let query = &w.queries[0];
    let root = match scratch_dir(w.name) {
        Ok(d) => d,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let segments = INGEST_SEGMENTS.min(w.rows / 20).max(2);
    // Set-up: generate the table, and one small warm-up pass through
    // every code path.
    let set_up = |out: &mut Outcome| {
        let t0 = Instant::now();
        let warm = config(w, seed, u64::MAX);
        let dir = root.join(format!("warm-{}", out.setup_s.len()));
        // A full-size table, as every repetition builds before its clock
        // starts, then what the measured passes do at a tenth of the size.
        std::hint::black_box(generate(w.data, w.rows, seed));
        let small = generate(w.data, w.rows / 10, seed);
        if let Err(e) = pass(
            &small,
            segments / 10 + 2,
            &dir,
            query,
            &warm,
            0,
            &mut Tracer::new(false),
        ) {
            out.fail(format!("warm-up: {e}"));
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
    };
    set_up(&mut out);

    out.exact_ms.push(Vec::new());
    let (mut rows_per_s, mut reopen_ms, mut bytes_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let window = Instant::now();
    let mut rep = 0u64;
    while rep < 2 || window.elapsed().as_secs_f64() < seconds {
        if setup_due(
            out.setup_s.len(),
            setups,
            window.elapsed().as_secs_f64(),
            seconds,
        ) {
            set_up(&mut out);
        }
        out.attempted += 1;
        let cfg = config(w, seed, rep);
        let table = generate(w.data, w.rows, cfg.partition_seed);
        let dir = root.join(format!("rep-{rep}"));
        match pass(&table, segments, &dir, query, &cfg, rep, tracer) {
            Ok(p) => {
                out.runs.push(p.run);
                // The plain path from stored bytes to the exact answer.
                out.exact_ms[0].push(p.reopen_ms + p.exact_ms);
                rows_per_s.push(p.rows_per_s);
                reopen_ms.push(p.reopen_ms);
                bytes_ratio.push(p.bytes_per_user_byte);
            }
            Err(e) => out.fail(format!("{} rep {rep}: {e}", w.name)),
        }
        let _ = std::fs::remove_dir_all(&dir);
        rep += 1;
    }
    out.window_s = out.runs.iter().map(|r| r.tt_exact_ms).sum::<f64>() / 1e3;
    let _ = std::fs::remove_dir_all(&root);

    out.info("ingest_rows_per_s", median(&rows_per_s), "1/s");
    out.info("reopen_ms", median(&reopen_ms), "ms");
    out.info("bytes_per_user_byte", median(&bytes_ratio), "x");
    out.peak_rss_mb = peak_rss_mb(std::process::id());
    out
}
