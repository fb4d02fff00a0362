//! **§2.1 knob**: mini-batch granularity. "The batch granularity is
//! determined by how frequently the user wants the query result to be
//! updated."
//!
//! Sweeps the number of batches `k` on the SBI query, reporting the update
//! cadence (mean per-batch latency), time-to-2%-rel-stddev and total time —
//! the trade-off between smooth feedback and amortized overhead.
//!
//! Run: `cargo run --release -p gola-bench --bin ablation_batch`

use gola_bench::*;
use gola_core::OnlineConfig;
use gola_workloads::{conviva, ConvivaGenerator};

fn main() {
    let n = rows(200_000);
    println!("== batch-granularity ablation, SBI query, {n} rows ==\n");
    let catalog = ConvivaGenerator::default().catalog(n);
    let (batch_time, _) = time_exact(&catalog, conviva::SBI);
    println!("batch engine: {}s\n", secs(batch_time));

    csv_line(&[
        "figure".into(),
        "k".into(),
        "mean_batch_ms".into(),
        "t_2pct_s".into(),
        "total_s".into(),
    ]);
    let mut table_rows = Vec::new();
    for k in [10usize, 25, 50, 100, 200] {
        let config = with_bench_threads(OnlineConfig::default().with_batches(k).with_trials(100));
        let reports = run_online(&catalog, conviva::SBI, &config);
        let total = reports.last().unwrap().cumulative_time;
        let mean_batch_ms = total.as_secs_f64() * 1000.0 / reports.len() as f64;
        let t_2pct = reports
            .iter()
            .find(|r| r.primary_rel_stddev().is_some_and(|x| x <= 0.02))
            .map(|r| secs(r.cumulative_time))
            .unwrap_or_else(|| "-".into());
        table_rows.push(vec![
            format!("{k}"),
            format!("{mean_batch_ms:.1}"),
            t_2pct.clone(),
            secs(total),
        ]);
        csv_line(&[
            "batchsize".into(),
            format!("{k}"),
            format!("{mean_batch_ms:.2}"),
            t_2pct,
            secs(total),
        ]);
    }
    print_table(
        &["k batches", "mean_batch_ms", "time_to_2%_s", "total_s"],
        &table_rows,
    );
    println!("\nexpected shape: more batches → faster first feedback and smoother");
    println!("refinement, at a modest amortized-overhead cost per tuple.");
}
