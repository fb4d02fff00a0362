//! A command line that names an unknown flag, gives a valued flag no value
//! (given last, or followed by another flag) or gives a value that does
//! not parse stops `gola` with exit status 2 before it loads data, binds a
//! port or writes a file; it never runs on the flag's default.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Duration;

use gola_common::timing::Stopwatch;

/// Run `gola` with `args` and no stdin (the console reads EOF and quits)
/// in `cwd`, killing it if it has not exited within a minute.
fn gola(cwd: &Path, args: &[&str]) -> ExitStatus {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gola"))
        .current_dir(cwd)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let start = Stopwatch::start();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("gola {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn malformed_numeric_flags_exit_2() {
    let cases: [&[&str]; 17] = [
        &["--error", "5%", "--deadline", "10"],
        &["--deadline", "ten"],
        &["--confidence=high", "--error", "5"],
        &["--threads", "two"],
        &["serve", "--rows", "1e6", "--addr", "127.0.0.1:0"],
        &["serve", "--addr", "localhost"],
        &["ingest", "--dir", "unused", "--seed", "-1"],
        // A flag given last has no value: never its default, never off.
        &["serve", "--addr", "127.0.0.1:0", "--rows"],
        &["--metrics-out"],
        &["--append"],
        &["--threads"],
        // A value that starts with `--` is the next flag, not a value:
        // these once wrote files or a directory named `--threads`/`--rows`.
        &["--metrics-out", "--threads", "2"],
        &["--append", "--threads", "2"],
        &["serve", "--workload", "--rows", "5"],
        &["ingest", "--dir", "--rows", "5"],
        // A misspelt flag once ran on defaults; `--help` once served.
        &["--thread", "2"],
        &["serve", "--help"],
    ];
    // Each case runs in an empty working directory that must stay empty.
    let cwd = std::env::temp_dir().join(format!("gola-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    for args in cases {
        assert_eq!(gola(&cwd, args).code(), Some(2), "gola {args:?}");
        let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(written.is_empty(), "gola {args:?} wrote {written:?}");
    }
    std::fs::remove_dir(&cwd).unwrap();
}

#[test]
fn well_formed_flags_run() {
    let cwd = std::env::temp_dir();
    assert_eq!(
        gola(&cwd, &["--threads", "2", "--error", "5"]).code(),
        Some(0)
    );
}
