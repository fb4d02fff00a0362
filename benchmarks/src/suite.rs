//! `spine --all`: every workload, each in a fresh child process, printed
//! as one table with host metadata; `--sets N` repeats the whole set and
//! checks each end-to-end metric's spread against its bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use gola_obs::json::{self, Value};

use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::{flag, has, metrics_json};

/// metric name → (values over the sets, unit).
type Rows = BTreeMap<String, (Vec<f64>, String)>;

#[derive(Default)]
struct Collected {
    e2e: Rows,
    layers: Rows,
    info: Rows,
    attempted: u64,
    failed: u64,
}

fn stdout_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Run one workload once in a child and fold its rows into `into`.
fn child_run(
    args: &[String],
    workload: &str,
    trace: bool,
    c: &mut Collected,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    for name in ["--seed", "--seconds", "--out"] {
        let value: String = flag(args, name).expect("defaults were filled in");
        cmd.args([name, &value]);
    }
    if has(args, "--quick") {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload}: child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let push = |rows: &mut Rows, name: &str, value: f64, unit: &str| {
        let entry = rows
            .entry(name.to_string())
            .or_insert((Vec::new(), unit.to_string()));
        entry.0.push(value);
    };
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("info ") {
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some(value), Some(unit)) =
                (parts.next(), parts.next(), parts.next())
            {
                push(&mut c.info, name, value.parse().unwrap_or(f64::NAN), unit);
            }
        } else if line.starts_with("FAILED ") {
            println!("  {workload}: {line}");
        }
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let result = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let number = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    c.attempted += number("attempted");
    c.failed += number("failed");
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return Err(format!("{workload}: result has no metrics"));
    };
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        push(
            if trace { &mut c.layers } else { &mut c.e2e },
            name,
            value,
            unit,
        );
    }
    Ok(())
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect())
}

fn rows_json(rows: &Rows, order: &[(&str, &str)]) -> String {
    let present = order.iter().filter_map(|(name, _)| {
        let (values, unit) = rows.get(*name)?;
        Some((*name, median(values), unit.as_str()))
    });
    metrics_json(present)
}

/// Print every metric of every workload, by name and unit.
fn print_table(workloads: &[Workload], collected: &[Collected]) {
    for (w, c) in workloads.iter().zip(collected) {
        println!(
            "\n{} (rows={} k={} threads={}): attempted {} failed {}\n  why: {}",
            w.name, w.rows, w.batches, w.threads, c.attempted, c.failed, w.why
        );
        for (rows, order) in [(&c.e2e, END_TO_END), (&c.layers, PER_LAYER)] {
            for (name, unit) in order {
                if let Some((values, _)) = rows.get(*name) {
                    println!("  {name:<36} {:>14.4} {unit}", median(values));
                }
            }
        }
        for (name, (values, unit)) in &c.info {
            println!("  {name:<36} {:>14.4} {unit}  (not gated)", median(values));
        }
    }
}

/// Each end-to-end metric's spread over the sets against its bound;
/// returns the rows of `repeatability.json` and whether every bound held.
fn repeatability(
    workloads: &[Workload],
    collected: &[Collected],
) -> Result<(Vec<String>, bool), String> {
    let bounds = bounds()?;
    let mut rows = Vec::new();
    let mut all_held = true;
    for (w, c) in workloads.iter().zip(collected) {
        for (name, _) in END_TO_END {
            let (Some((values, _)), Some(bound)) = (c.e2e.get(*name), bounds.get(*name)) else {
                return Err(format!(
                    "{}: {name} is missing from the run or BENCHMARK.json",
                    w.name
                ));
            };
            let s = spread(values);
            let held = s <= *bound;
            all_held &= held;
            println!(
                "  {:<16} {name:<16} spread {:>6.2}%  bound {:>5.1}%  {}",
                w.name,
                s * 100.0,
                bound * 100.0,
                if held { "ok" } else { "EXCEEDED" }
            );
            rows.push(format!(
                "{{\"workload\":\"{}\",\"metric\":\"{name}\",\"median\":{},\"spread\":{s},\"bound\":{bound},\"held\":{held}}}",
                w.name,
                median(values)
            ));
        }
    }
    Ok((rows, all_held))
}

/// `baseline_e2e.json` (`layers: false`) or `baseline_layers.json`.
fn baseline_json(
    host: &str,
    workloads: &[Workload],
    collected: &[Collected],
    layers: bool,
) -> String {
    let mut text = format!("{{{host},\"claim\":null,\"workloads\":{{");
    for (i, (w, c)) in workloads.iter().zip(collected).enumerate() {
        let metrics = if layers {
            rows_json(&c.layers, PER_LAYER)
        } else {
            rows_json(&c.e2e, END_TO_END)
        };
        let _ = write!(
            text,
            "{}\n\"{}\":{{\"rows\":{},\"k\":{},\"threads\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}",
            if i > 0 { "," } else { "" },
            w.name,
            w.rows,
            w.batches,
            w.threads,
            c.attempted,
            c.failed
        );
        if !layers {
            let names: Vec<(&str, &str)> = c.info.keys().map(|k| (k.as_str(), "")).collect();
            let _ = write!(text, ",\"not_gated\":{}", rows_json(&c.info, &names));
        }
        text.push('}');
    }
    text.push_str("\n}}\n");
    text
}

pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let quick = has(args, "--quick");
    let sets: usize = flag(args, "--sets").unwrap_or(1).max(1);
    let traced = has(args, "--traced");
    // Fill in the defaults once, so children and files agree on them.
    let mut args = args.to_vec();
    for (name, default) in [
        ("--seed", "1"),
        ("--seconds", if quick { "0.05" } else { "10" }),
        ("--out", "benchmarks/results"),
    ] {
        if flag::<String>(&args, name).is_none() {
            args.extend([name.to_string(), default.to_string()]);
        }
    }
    let out_dir: String = flag(&args, "--out").expect("filled in");
    let seed: String = flag(&args, "--seed").expect("filled in");
    let seconds: String = flag(&args, "--seconds").expect("filled in");

    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let commit = stdout_of(Command::new("git").args(["rev-parse", "--short", "HEAD"]));
    let rustc = stdout_of(Command::new("rustc").arg("-V"));
    let trials = spec::TRIALS;
    println!(
        "spine: nproc={nproc} commit={commit} rustc=\"{rustc}\" seed={seed} seconds={seconds} sets={sets} B={trials}"
    );
    let host = format!(
        "\"nproc\":{nproc},\"commit\":\"{commit}\",\"rustc\":\"{rustc}\",\"seed\":{seed},\"seconds\":{seconds},\"sets\":{sets},\"B\":{trials}"
    );

    let workloads = spec::workloads(quick);
    let mut collected: Vec<Collected> = workloads.iter().map(|_| Collected::default()).collect();
    for set in 0..sets {
        for (w, c) in workloads.iter().zip(&mut collected) {
            eprintln!("spine: set {}/{sets} {}", set + 1, w.name);
            child_run(&args, w.name, false, c)?;
            if traced {
                child_run(&args, w.name, true, c)?;
            }
        }
    }

    // The derived rows: online over plain execution, and the thread twin.
    let tt_exact = |c: &Collected| c.e2e.get("tt_exact_ms").map(|(v, _)| median(v));
    for c in &mut collected {
        let exact = c.e2e.get("exact_ms").map(|(v, _)| median(v));
        if let (Some(online), Some(exact)) = (tt_exact(c), exact) {
            c.info
                .insert("overhead_x".into(), (vec![online / exact], "x".into()));
        }
    }
    let at = |name: &str| workloads.iter().position(|w| w.name == name);
    if let (Some(t1), Some(t2)) = (at("c2_fold_t1"), at("c2_fold_t2")) {
        if let (Some(a), Some(b)) = (tt_exact(&collected[t1]), tt_exact(&collected[t2])) {
            collected[t2]
                .info
                .insert("speedup_t2".into(), (vec![a / b], "x".into()));
        }
    }

    print_table(&workloads, &collected);
    let attempted: u64 = collected.iter().map(|c| c.attempted).sum();
    let failed: u64 = collected.iter().map(|c| c.failed).sum();
    println!("\ntotal: attempted {attempted} failed {failed}");

    let mut ok = failed == 0;
    let write = |file: &str, text: String| {
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
        let path = format!("{out_dir}/{file}");
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
        Ok::<(), String>(())
    };
    if sets > 1 {
        println!("\nrepeatability over {sets} sets: (max-min)/median against the bound");
        let (rows, held) = repeatability(&workloads, &collected)?;
        ok &= held;
        write(
            "repeatability.json",
            format!("{{{host},\"rows\":[\n{}\n]}}\n", rows.join(",\n")),
        )?;
    }
    if has(&args, "--baseline") {
        write(
            "baseline_e2e.json",
            baseline_json(&host, &workloads, &collected, false),
        )?;
        if traced {
            write(
                "baseline_layers.json",
                baseline_json(&host, &workloads, &collected, true),
            )?;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
