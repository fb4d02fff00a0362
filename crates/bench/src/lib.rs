//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one experiment from the paper's
//! evaluation (see `DESIGN.md` §4 for the per-experiment index, and
//! `EXPERIMENTS.md` for recorded results). The binaries print both a
//! human-readable table and machine-readable CSV lines (prefixed `csv,`)
//! so results can be scraped into plots.

use std::time::Duration;

use gola_common::timing::Stopwatch;
use gola_core::{BatchReport, OnlineConfig, OnlineSession};
use gola_storage::Catalog;

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
/// `--threads=N`) on the command line, else `GOLA_THREADS`, else 1. A
/// value that is not a number is fatal (exit 2), never the default.
pub fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = args.iter().enumerate().find_map(|(i, a)| match a.as_str() {
        // A trailing `--threads` has an empty value, which does not parse.
        "--threads" => Some(args.get(i + 1).cloned().unwrap_or_default()),
        _ => a.strip_prefix("--threads=").map(str::to_string),
    });
    let (name, value) = match (flag, std::env::var("GOLA_THREADS")) {
        (Some(v), _) => ("--threads", v),
        (None, Ok(v)) => ("GOLA_THREADS", v),
        (None, Err(_)) => return 1,
    };
    match value.parse::<usize>() {
        Ok(n) => n.max(1),
        Err(_) => {
            eprintln!("bad {name} '{value}'");
            std::process::exit(2);
        }
    }
}

/// Apply the bench-wide worker-thread count to a config.
pub fn with_bench_threads(config: OnlineConfig) -> OnlineConfig {
    config.with_threads(threads_arg())
}

/// Run a query online to completion, returning every report.
pub fn run_online(catalog: &Catalog, sql: &str, config: &OnlineConfig) -> Vec<BatchReport> {
    let session = OnlineSession::new(catalog.clone(), config.clone());
    let exec = session.execute_online(sql).expect("query must compile");
    exec.map(|r| r.expect("batch must succeed")).collect()
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
        let catalog = gola_workloads::ConvivaGenerator::default().catalog(2000);
        let config = OnlineConfig::for_tests(4);
        let reports = run_online(&catalog, "SELECT AVG(play_time) FROM sessions", &config);
        assert_eq!(reports.len(), 4);
        let (elapsed, table) = time_exact(&catalog, "SELECT AVG(play_time) FROM sessions");
        assert!(elapsed.as_nanos() > 0);
        assert_eq!(table.num_rows(), 1);
    }
}
