//! A name resolves to one table: the console's startup `\load conviva`
//! does not put a generated `sessions` beside an attached `sessions`
//! stream, so `\tables` lists the name once and the online and exact
//! answers read the same rows.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn load_does_not_shadow_an_attached_stream() {
    let dir = std::env::temp_dir().join(format!("gola-cli-stream-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gola = env!("CARGO_BIN_EXE_gola");
    let stream = dir.join("sessions");
    let ingest = Command::new(gola)
        .args(["ingest", "--rows", "2000", "--dir"])
        .arg(&stream)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(ingest.success(), "gola ingest: {ingest}");

    let mut console = Command::new(gola)
        .arg("--append")
        .arg(format!("sessions={}", stream.display()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let script =
        "\\tables\nSELECT COUNT(*) FROM sessions;\n\\exact SELECT COUNT(*) FROM sessions\n\\q\n";
    console
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = console.wait_with_output().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();

    assert!(
        stdout.contains("'sessions' is an attached stream"),
        "{stdout}"
    );
    assert_eq!(stdout.matches(" sessions (").count(), 1, "{stdout}");
    assert!(stdout.contains(" sessions (2000 rows)"), "{stdout}");
    // The online final answer and the exact answer: both 2,000 rows.
    assert_eq!(stdout.matches("| 2000.0   |").count(), 2, "{stdout}");
    assert!(!stdout.contains("50000"), "{stdout}");
}
