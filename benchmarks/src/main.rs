//! `spine` — the repo's benchmark driver.
//!
//! ```text
//! spine --workload W --seed N --seconds S --trace 0|1      one run (the BENCHMARK.json contract)
//! spine --all [--seed N] [--seconds S] [--traced] [--sets N] [--baseline] [--quick] [--out DIR]
//! spine serve --workload W --seed N [--quick]              the server child of svc_mix_2c
//! ```
//!
//! One run measures one workload in this process (so `peak_rss_mb` is the
//! workload's own) and prints its metrics, then one JSON object as the
//! last line of stdout. `--all` runs every workload, each in a fresh child
//! process, and prints the whole table with host metadata.

mod ingest;
mod layers;
mod online;
mod service;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use spec::{Shape, Workload, END_TO_END};
use trace::Tracer;
use workloads::Outcome;

/// `--name value` anywhere in `args`.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1)?.parse().ok()
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn find_workload(args: &[String]) -> Result<Workload, String> {
    let name: String = flag(args, "--workload").ok_or("missing --workload")?;
    spec::workloads(has(args, "--quick"))
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))
}

fn run_shape(
    w: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    setups: usize,
    t: &mut Tracer,
) -> Outcome {
    match w.shape {
        Shape::Online => workloads::run_online(w, seed, seconds, setups, t),
        Shape::Service => service::run_service(w, seed, seconds, quick, setups, t),
        Shape::Ingest => ingest::run_ingest(w, seed, seconds, setups, t),
    }
}

/// `{"name":{"value":v,"unit":"u"},…}` with every digit of each value.
fn metrics_json<'a>(rows: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = rows
        .into_iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One run under the BENCHMARK.json contract.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let w = find_workload(args)?;
    let seed: u64 = flag(args, "--seed").ok_or("missing --seed")?;
    let seconds: f64 = flag(args, "--seconds").ok_or("missing --seconds")?;
    let traced = flag::<u8>(args, "--trace").ok_or("missing --trace")? != 0;
    let quick = has(args, "--quick");
    println!(
        "# spine {} seed={seed} seconds={seconds} trace={} rows={} k={} B={} threads={}",
        w.name,
        u8::from(traced),
        w.rows,
        w.batches,
        spec::TRIALS,
        w.threads
    );

    let mut tracer = Tracer::new(traced);
    let (mut out, rows): (Outcome, Vec<(&str, f64, &str)>) = if traced {
        // A short untraced window first, so the tracing overhead is the
        // difference of two figures from one process.
        let plain = run_shape(&w, seed, seconds / 4.0, quick, 1, &mut Tracer::new(false));
        let mut out = run_shape(&w, seed, seconds, quick, workloads::SETUPS, &mut tracer);
        let tt_exact = |o: &Outcome| o.end_to_end()[2];
        let layer_rows = layers::per_layer(&w, seed, &tracer, tt_exact(&out), tt_exact(&plain))?;
        let out_dir: String = flag(args, "--out").unwrap_or_else(|| "benchmarks/results".into());
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
        let path = format!("{out_dir}/trace_{}.json", w.name);
        std::fs::write(&path, trace::to_json(w.name, seed, &tracer.spans))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("# {} spans -> {path}", tracer.spans.len());
        // The stage rows are gated as shares; print the times they stand for.
        let next_ms = layer_rows
            .iter()
            .find(|(n, _)| *n == "core.executor.next_ms");
        for (name, share) in &layer_rows {
            if let (Some(stage), Some((_, next_ms))) = (name.strip_suffix("_share"), next_ms) {
                out.info(&format!("{stage}_ms"), share * next_ms / 100.0, "ms");
            }
        }
        let units = spec::PER_LAYER.iter().map(|(_, unit)| *unit);
        let rows = layer_rows
            .into_iter()
            .zip(units)
            .map(|((n, v), u)| (n, v, u))
            .collect();
        (out, rows)
    } else {
        let out = run_shape(&w, seed, seconds, quick, workloads::SETUPS, &mut tracer);
        let values = out.end_to_end();
        let rows = END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, v, *u))
            .collect();
        (out, rows)
    };

    out.note_ci_batch();
    for (name, value, unit) in &rows {
        println!("{name:<36} {value:>14.4} {unit}");
    }
    for (name, value, unit) in &out.info {
        println!("info {name} {value} {unit}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    if let Some((name, value, _)) = rows.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} could not be measured ({value})"));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len().min(out.attempted.max(1)),
        metrics_json(rows.iter().copied())
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        find_workload(&args).and_then(|w| {
            let seed = flag(&args, "--seed").ok_or("missing --seed")?;
            service::serve_child(&w, seed).map(|()| ExitCode::SUCCESS)
        })
    } else if has(&args, "--all") {
        suite::run_all(&args)
    } else {
        run_one(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("spine: {e}");
        ExitCode::from(2)
    })
}
