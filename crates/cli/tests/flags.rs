//! A numeric flag whose value does not parse, or any flag given last with
//! no value, stops `gola` with exit status 2 before it loads data, binds a
//! port or writes a file; it never runs on the flag's default.

use std::process::{Command, ExitStatus, Stdio};
use std::time::Duration;

use gola_common::timing::Stopwatch;

/// Run `gola` with `args` and no stdin (the console reads EOF and quits),
/// killing it if it has not exited within a minute.
fn gola(args: &[&str]) -> ExitStatus {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gola"))
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
    let cases: [&[&str]; 11] = [
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
    ];
    for args in cases {
        assert_eq!(gola(args).code(), Some(2), "gola {args:?}");
    }
}

#[test]
fn well_formed_flags_run() {
    assert_eq!(gola(&["--threads", "2", "--error", "5"]).code(), Some(0));
}
