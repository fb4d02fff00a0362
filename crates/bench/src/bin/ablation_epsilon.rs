//! **§3.2 claim**: the slack `ε` trades the probability of failure-driven
//! recomputation against uncertain-set size, and `ε = stddev(û)` is a good
//! balance.
//!
//! Sweeps the epsilon policy on SBI and Q17, reporting recomputations,
//! mean/max uncertain-set size and total time. Each label is the slack the
//! run classified with: the paper's `1·σ`, and the executor's default
//! `3·σ`.
//!
//! Run: `cargo run --release -p gola-bench --bin ablation_epsilon`

use gola_bench::*;
use gola_bootstrap::EpsilonPolicy;
use gola_core::OnlineConfig;
use gola_workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};

fn main() {
    let n = rows(150_000);
    println!("== ε ablation: recompute probability vs uncertain-set size ({n} rows) ==\n");
    let suites = [
        ("SBI", conviva::SBI, ConvivaGenerator::default().catalog(n)),
        ("Q17", tpch::Q17, TpchGenerator::default().catalog(n)),
    ];
    let policies: [(&str, EpsilonPolicy); 6] = [
        ("0", EpsilonPolicy::Fixed(0.0)),
        ("1·σ (paper)", EpsilonPolicy::StdDevScaled(1.0)),
        ("1.5·σ", EpsilonPolicy::StdDevScaled(1.5)),
        ("3·σ (default)", EpsilonPolicy::StdDevScaled(3.0)),
        ("6·σ", EpsilonPolicy::StdDevScaled(6.0)),
        ("12·σ", EpsilonPolicy::StdDevScaled(12.0)),
    ];
    csv_line(&[
        "figure".into(),
        "query".into(),
        "epsilon".into(),
        "recomputes".into(),
        "mean_U".into(),
        "max_U".into(),
        "total_s".into(),
    ]);
    for (name, sql, catalog) in &suites {
        println!("{name}:");
        let mut table_rows = Vec::new();
        for (label, policy) in &policies {
            let config = with_bench_threads(
                OnlineConfig::default()
                    .with_batches(40)
                    .with_trials(50)
                    .with_epsilon(*policy),
            );
            let reports = run_online(catalog, sql, &config);
            let recomputes = reports.last().unwrap().recomputations;
            let mean_u = reports.iter().map(|r| r.uncertain_tuples).sum::<usize>() as f64
                / reports.len() as f64;
            let max_u = reports.iter().map(|r| r.uncertain_tuples).max().unwrap();
            let total = reports.last().unwrap().cumulative_time;
            table_rows.push(vec![
                label.to_string(),
                format!("{recomputes}"),
                format!("{mean_u:.0}"),
                format!("{max_u}"),
                secs(total),
            ]);
            csv_line(&[
                "epsilon".into(),
                name.to_string(),
                label.to_string(),
                format!("{recomputes}"),
                format!("{mean_u:.1}"),
                format!("{max_u}"),
                secs(total),
            ]);
        }
        print_table(
            &["epsilon", "recomputes", "mean |U|", "max |U|", "total_s"],
            &table_rows,
        );
        println!();
    }
    println!("expected shape: small ε → more recomputations, small |U|;");
    println!("large ε → no recomputations but |U| grows; the total-time minimum balances both.");
}
