//! **Figure 3(a)**: relative standard deviation vs. query time for TPC-H
//! Q17 under G-OLA, with the traditional batch engine's latency as the
//! vertical bar.
//!
//! Paper's observed shape (100 GB, 100-node cluster): first approximate
//! answer after ~1.6% of the batch time; smooth refinement roughly every
//! 2.5 s; ~10× speedup at 2% relative stddev; ~60% end-to-end overhead over
//! batch execution. This binary reports the same series and summary numbers
//! at laptop scale.
//!
//! Run: `cargo run --release -p gola-bench --bin fig3a`

use gola_bench::*;
use gola_core::OnlineConfig;
use gola_workloads::{tpch, TpchGenerator};

fn main() {
    let n = rows(400_000);
    println!("== Figure 3(a): rel-stddev vs time, TPC-H Q17, {n} rows ==\n");
    let catalog = TpchGenerator::default().catalog(n);

    let (batch_time, _) = time_exact(&catalog, tpch::Q17);
    println!(
        "traditional batch engine latency (vertical bar): {}s\n",
        secs(batch_time)
    );

    let config = with_bench_threads(OnlineConfig::default().with_batches(100).with_trials(100));
    let reports = run_online(&catalog, tpch::Q17, &config);

    let mut table_rows = Vec::new();
    csv_line(&[
        "figure".into(),
        "batch".into(),
        "time_s".into(),
        "rel_stddev_pct".into(),
    ]);
    let mut first_answer = None;
    let mut time_at_2pct = None;
    for r in &reports {
        let rsd = r.primary_rel_stddev();
        let t = r.cumulative_time;
        if first_answer.is_none() {
            first_answer = Some(t);
        }
        if time_at_2pct.is_none() && rsd.is_some_and(|x| x <= 0.02) {
            time_at_2pct = Some(t);
        }
        // Plot the first 10 batches, then every 10th (as the paper does).
        if r.batch_index < 10 || (r.batch_index + 1) % 10 == 0 {
            table_rows.push(vec![
                format!("{}", r.batch_index + 1),
                secs(t),
                rsd.map(|x| format!("{:.3}", x * 100.0))
                    .unwrap_or_else(|| "-".into()),
                format!("{}", r.uncertain_tuples),
            ]);
        }
        csv_line(&[
            "3a".into(),
            format!("{}", r.batch_index + 1),
            secs(t),
            rsd.map(|x| format!("{:.4}", x * 100.0)).unwrap_or_default(),
        ]);
    }
    print_table(&["batch", "time_s", "rel_stddev_%", "|U|"], &table_rows);

    let total = reports.last().unwrap().cumulative_time;
    let first = first_answer.unwrap();
    println!("\nsummary (paper's in-text claims → measured):");
    println!(
        "  first answer:        {}s = {:.1}% of batch time   (paper: ~1.6%)",
        secs(first),
        first.as_secs_f64() / batch_time.as_secs_f64() * 100.0
    );
    match time_at_2pct {
        Some(t) => println!(
            "  2% rel-stddev at:    {}s → {:.1}x faster than batch (paper: ~10x)",
            secs(t),
            batch_time.as_secs_f64() / t.as_secs_f64()
        ),
        None => println!("  2% rel-stddev never reached (increase rows)"),
    }
    println!(
        "  full-run overhead:   {:.0}% over batch               (paper: ~60%)",
        (total.as_secs_f64() / batch_time.as_secs_f64() - 1.0) * 100.0
    );
}
