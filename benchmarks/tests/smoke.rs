//! `--quick` smoke: all six workloads at 2k rows — the child-process
//! server and an on-disk stream included — untraced and traced, through
//! the same `--all` path `benchmarks/run.sh` takes.

use std::process::Command;

#[test]
fn quick_suite_runs_every_workload_and_writes_span_files() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out_dir);
    let output = Command::new(env!("CARGO_BIN_EXE_spine"))
        .args(["--all", "--quick", "--traced", "--baseline", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spine runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stdout}\n{stderr}");
    for workload in [
        "c2_fold_t1",
        "c2_fold_t2",
        "q17_publish_t1",
        "q20_recover_t1",
        "svc_mix_2c",
        "ingest_durable",
    ] {
        assert!(
            stdout.contains(&format!("\n{workload} (rows=2000")),
            "{workload} missing:\n{stdout}"
        );
        let spans = std::fs::read_to_string(out_dir.join(format!("trace_{workload}.json")))
            .unwrap_or_else(|e| panic!("{workload}: span file: {e}"));
        assert!(
            spans.contains("\"core.executor.next\""),
            "{workload}: no executor spans"
        );
    }
    assert!(stdout.contains("failed 0"), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    for metric in [
        "ttfe_ms",
        "tt_exact_ms",
        "core.executor.fold_share",
        "overhead_x_b100",
    ] {
        assert_eq!(
            stdout.matches(&format!("  {metric} ")).count(),
            6,
            "{metric}:\n{stdout}"
        );
    }
    for file in ["baseline_e2e.json", "baseline_layers.json"] {
        let text = std::fs::read_to_string(out_dir.join(file)).expect(file);
        assert!(
            text.contains("\"claim\":null") && text.contains("\"ingest_durable\""),
            "{file}: {text}"
        );
    }
}

#[test]
fn a_single_run_ends_with_the_contract_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_spine"))
        .args([
            "--workload",
            "c2_fold_t1",
            "--seed",
            "7",
            "--seconds",
            "0.05",
            "--trace",
            "0",
            "--quick",
        ])
        .output()
        .expect("spine runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"metrics\":{\"ttfe_ms\":{\"value\":",
        "\"setup_s\"",
    ] {
        assert!(last.contains(key), "{key} missing from {last}");
    }
    // Unknown workloads and missing arguments fail without a result line.
    let bad = Command::new(env!("CARGO_BIN_EXE_spine"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spine runs");
    assert!(!bad.status.success() && bad.stdout.is_empty());
}
