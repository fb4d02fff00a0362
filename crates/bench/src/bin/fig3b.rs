//! **Figure 3(b)**: per-batch query-time ratio of classical delta
//! maintenance (CDM) to G-OLA for the first 10 mini-batches, over the
//! evaluation queries C1–C3 (Conviva) and Q11/Q17/Q18/Q20 (TPC-H).
//!
//! Paper's observed shape: the ratio grows roughly linearly with the batch
//! index — CDM re-reads all previously-seen data every batch while G-OLA's
//! per-batch cost stays near-constant (bounded by |ΔDᵢ| + |Uᵢ|). Both are
//! executions of one prepared query, so they see the same batches: G-OLA
//! through `next`, CDM through `step_recomputing`, which rebuilds every
//! block that reads an inner aggregate from all the data seen so far.
//!
//! Run: `cargo run --release -p gola-bench --bin fig3b`

use gola_bench::*;
use gola_core::{OnlineConfig, OnlineSession};
use gola_workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};

const BATCHES: usize = 10;

fn main() {
    let conviva_rows = rows(150_000);
    let tpch_rows = rows(150_000);
    println!(
        "== Figure 3(b): CDM / G-OLA per-batch time ratio, first {BATCHES} batches ==\n\
         (conviva {conviva_rows} rows, tpch {tpch_rows} rows)\n"
    );
    let conviva_cat = ConvivaGenerator::default().catalog(conviva_rows);
    let tpch_cat = TpchGenerator::default().catalog(tpch_rows);

    let mut suites: Vec<(&str, &str, &gola_storage::Catalog)> = Vec::new();
    for (name, sql) in [
        ("C1", conviva::C1),
        ("C2", conviva::C2),
        ("C3", conviva::C3),
    ] {
        suites.push((name, sql, &conviva_cat));
    }
    for (name, sql) in tpch::queries() {
        suites.push((name, sql, &tpch_cat));
    }

    let config = with_bench_threads(
        OnlineConfig::default()
            .with_batches(BATCHES)
            .with_trials(50),
    );
    let mut ratios: Vec<(String, Vec<f64>)> = Vec::new();
    for (name, sql, catalog) in suites {
        let session = OnlineSession::new(catalog.clone(), config.clone());
        let prepared = session.prepare(sql).expect("query must compile");
        let execute = || session.execute_prepared(&prepared).expect("execution");

        let gola = execute().map(|report| report.expect("gola batch").batch_time);
        let gola_times: Vec<_> = gola.collect();

        let mut cdm = execute();
        let mut cdm_times = Vec::with_capacity(BATCHES);
        while let Some(step) = cdm.step_recomputing() {
            cdm_times.push(step.expect("cdm batch").0.batch_time);
        }

        let series: Vec<f64> = cdm_times
            .iter()
            .zip(&gola_times)
            .map(|(c, g)| c.as_secs_f64() / g.as_secs_f64().max(1e-9))
            .collect();
        eprintln!("  {name}: done");
        ratios.push((name.to_string(), series));
    }

    let mut headers: Vec<&str> = vec!["batch"];
    let names: Vec<String> = ratios.iter().map(|(n, _)| n.clone()).collect();
    for n in &names {
        headers.push(n);
    }
    let mut table_rows = Vec::new();
    csv_line(
        &std::iter::once("figure".to_string())
            .chain(std::iter::once("batch".to_string()))
            .chain(names.iter().cloned())
            .collect::<Vec<_>>(),
    );
    for i in 0..BATCHES {
        let mut row = vec![format!("{}", i + 1)];
        let mut csv = vec!["3b".to_string(), format!("{}", i + 1)];
        for (_, series) in &ratios {
            row.push(format!("{:.2}", series[i]));
            csv.push(format!("{:.3}", series[i]));
        }
        table_rows.push(row);
        csv_line(&csv[..]);
    }
    println!();
    print_table(&headers, &table_rows);

    // Shape check: the ratio at batch 10 should exceed the ratio at batch 2
    // for every query (linear growth), and substantially so on average.
    println!("\nshape summary (ratio growth batch 2 → batch {BATCHES}):");
    for (name, series) in &ratios {
        println!(
            "  {name:>4}: {:.2}x → {:.2}x ({})",
            series[1],
            series[BATCHES - 1],
            if series[BATCHES - 1] > series[1] {
                "grows ✓"
            } else {
                "FLAT ✗"
            }
        );
    }
}
