//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one experiment from the paper's
//! evaluation (see `DESIGN.md` §4 for the per-experiment index, and
//! `EXPERIMENTS.md` for recorded results). The binaries print both a
//! human-readable table and machine-readable CSV lines (prefixed `csv,`)
//! so results can be scraped into plots.

use std::sync::Arc;
use std::time::Duration;

use gola_common::timing::Stopwatch;
use gola_core::{BatchReport, OnlineConfig, OnlineExecutor, OnlineSession, PreparedQuery};
use gola_storage::{Catalog, Partitioner};
use gola_workloads::{ConvivaGenerator, TpchGenerator};

/// Global scale factor from `GOLA_SCALE` (default 1.0). Use e.g.
/// `GOLA_SCALE=0.1` for a quick smoke run of every figure.
pub fn scale() -> f64 {
    std::env::var("GOLA_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .max(0.01)
}

/// Scaled row count.
pub fn rows(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(1000)
}

/// Worker-thread count shared by all bench binaries: `--threads N` (or
/// `--threads=N`) on the command line, else `GOLA_THREADS`, else 1.
pub fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--threads" {
            if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                return v;
            }
        }
        if let Some(v) = a.strip_prefix("--threads=").and_then(|v| v.parse().ok()) {
            return v;
        }
    }
    std::env::var("GOLA_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Apply the bench-wide worker-thread count to a config.
pub fn with_bench_threads(config: OnlineConfig) -> OnlineConfig {
    config.with_threads(threads_arg())
}

/// Catalog with the Conviva-like sessions fact table.
pub fn conviva_catalog(n: usize) -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "sessions",
        Arc::new(ConvivaGenerator::default().generate(n)),
    )
    .expect("fresh catalog");
    c
}

/// Catalog with the denormalized TPC-H-like fact table.
pub fn tpch_catalog(n: usize) -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "lineitem_denorm",
        Arc::new(TpchGenerator::default().generate(n)),
    )
    .expect("fresh catalog");
    c
}

/// Run a query online to completion, returning every report.
pub fn run_online(catalog: &Catalog, sql: &str, config: &OnlineConfig) -> Vec<BatchReport> {
    let session = OnlineSession::new(catalog.clone(), config.clone());
    let exec = session.execute_online(sql).expect("query must compile");
    exec.map(|r| r.expect("batch must succeed")).collect()
}

/// Build the pieces for driving executors manually (shared partitioner so
/// different strategies see identical batches).
pub fn prepare(
    catalog: &Catalog,
    sql: &str,
    config: &OnlineConfig,
) -> (PreparedQuery, Arc<Partitioner>) {
    let session = OnlineSession::new(catalog.clone(), config.clone());
    let prepared = session.prepare(sql).expect("query must compile");
    let table = catalog.get(&prepared.stream_table).expect("stream table");
    let k = config.num_batches.min(table.num_rows()).max(1);
    let partitioner =
        Arc::new(Partitioner::new(table, k, config.partition_seed).expect("partitioner"));
    (prepared, partitioner)
}

/// Construct a G-OLA executor over a shared partitioner.
pub fn gola_executor(
    catalog: &Catalog,
    prepared: &PreparedQuery,
    partitioner: Arc<Partitioner>,
    config: &OnlineConfig,
) -> OnlineExecutor {
    OnlineExecutor::new(catalog, prepared.meta.clone(), partitioner, config.clone())
        .expect("executor")
}

/// Time the exact batch engine on a query.
pub fn time_exact(catalog: &Catalog, sql: &str) -> (Duration, gola_storage::Table) {
    let graph = gola_sql::compile(sql, catalog).expect("compile");
    let engine = gola_engine::BatchEngine::new(catalog);
    let t0 = Stopwatch::start();
    let out = engine.execute(&graph).expect("exact execution");
    (t0.elapsed(), out)
}

/// Render an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(&widths) {
            s.push_str(&format!("{c:>w$}  "));
        }
        println!("{s}");
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        line(row);
    }
}

/// Emit one machine-readable CSV line (prefixed so it survives mixed with
/// human output).
pub fn csv_line(fields: &[String]) {
    println!("csv,{}", fields.join(","));
}

/// Format a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_clamped_positive() {
        assert!(scale() >= 0.01);
        assert!(rows(10) >= 1000);
    }

    #[test]
    fn harness_round_trip_smoke() {
        let catalog = conviva_catalog(2000);
        let config = OnlineConfig::for_tests(4);
        let reports = run_online(&catalog, "SELECT AVG(play_time) FROM sessions", &config);
        assert_eq!(reports.len(), 4);
        let (elapsed, table) = time_exact(&catalog, "SELECT AVG(play_time) FROM sessions");
        assert!(elapsed.as_nanos() > 0);
        assert_eq!(table.num_rows(), 1);
    }

    #[test]
    fn prepare_and_manual_executor() {
        let catalog = tpch_catalog(2000);
        let config = OnlineConfig::for_tests(4);
        let (prepared, partitioner) = prepare(&catalog, gola_workloads::tpch::Q17, &config);
        let mut exec = gola_executor(&catalog, &prepared, partitioner, &config);
        let r = exec.step().unwrap();
        assert_eq!(r.batch_index, 0);
    }
}
