//! Golden tests of the HTTP surface, over real loopback sockets.
//!
//! Report frames carry no wall-clock fields and the engine is
//! bit-deterministic, so whole streams are compared **byte for byte**
//! against expectations derived from a solo single-threaded run of the
//! same query — the strongest possible pin on the wire format.

use std::sync::Arc;
use std::time::Duration;

use gola_common::timing::Stopwatch;
use gola_core::sched::ServiceConfig;
use gola_core::{OnlineConfig, OnlineSession};
use gola_server::{json, raw_request, Server, ServerConfig};
use gola_storage::Catalog;
use gola_workloads::{conviva, ConvivaGenerator};

const ROWS: usize = 3000;
const BATCHES: usize = 5;

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "sessions",
            Arc::new(ConvivaGenerator::default().generate(ROWS)),
        )
        .expect("register table");
    catalog
}

fn base_config() -> OnlineConfig {
    OnlineConfig::for_tests(BATCHES).with_trials(8)
}

fn start_server(max_active: usize, queue: usize, threads: usize) -> Server {
    Server::start(
        catalog(),
        ServerConfig {
            service: ServiceConfig {
                max_active,
                queue_capacity: queue,
                threads,
                base: base_config(),
            },
            ..ServerConfig::default()
        },
    )
    .expect("server binds")
}

/// The solo reference frames for `sql`: one JSON line per report, from a
/// plain single-threaded session.
fn solo_frames(sql: &str) -> Vec<String> {
    let session = OnlineSession::new(catalog(), base_config().with_threads(1));
    session
        .execute_online(sql)
        .expect("query compiles")
        .map(|r| json::report_json(&r.expect("batch succeeds")))
        .collect()
}

/// Issue one request; returns `(status, headers, body)` with any chunked
/// transfer encoding decoded.
fn call(server: &Server, request: String) -> (u16, String, Vec<u8>) {
    let raw = raw_request(server.addr(), request.as_bytes()).expect("request round-trips");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = String::from_utf8(raw[..split].to_vec()).expect("head is UTF-8");
    let mut body = raw[split + 4..].to_vec();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        body = dechunk(&body);
    }
    (status, head, body)
}

fn dechunk(mut body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&body[..line_end]).expect("chunk size UTF-8"),
            16,
        )
        .expect("chunk size hex");
        body = &body[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}

fn post(path: &str, body: &str, accept: Option<&str>) -> String {
    let accept = accept.map_or(String::new(), |a| format!("accept: {a}\r\n"));
    format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\n{accept}content-length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nhost: localhost\r\n\r\n")
}

fn delete(path: &str) -> String {
    format!("DELETE {path} HTTP/1.1\r\nhost: localhost\r\n\r\n")
}

#[test]
fn query_streams_ndjson_identical_to_solo_run() {
    let server = start_server(2, 2, 2);
    let (status, head, body) = call(&server, post("/query", conviva::SBI, None));
    assert_eq!(status, 200, "head: {head}");
    assert!(
        head.to_ascii_lowercase().contains("application/x-ndjson"),
        "head: {head}"
    );
    let body = String::from_utf8(body).expect("NDJSON is UTF-8");
    let got: Vec<&str> = body.lines().collect();
    let want = solo_frames(conviva::SBI);
    assert_eq!(got.len(), want.len(), "stream length\n{body}");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(*g, w.as_str(), "frame must match solo run byte for byte");
    }
}

#[test]
fn query_streams_sse_pinned_byte_for_byte() {
    let server = start_server(2, 2, 1);
    let (status, head, body) = call(
        &server,
        post("/query", conviva::SBI, Some("text/event-stream")),
    );
    assert_eq!(status, 200, "head: {head}");
    assert!(
        head.to_ascii_lowercase().contains("text/event-stream"),
        "head: {head}"
    );
    // Reconstruct the exact expected SSE payload from the solo run.
    let mut want = String::new();
    let frames = solo_frames(conviva::SBI);
    for frame in &frames {
        want.push_str(&format!("event: report\ndata: {frame}\n\n"));
    }
    want.push_str(&format!("event: done\ndata: {{\"batches\":{BATCHES}}}\n\n"));
    assert_eq!(
        String::from_utf8(body).expect("SSE is UTF-8"),
        want,
        "SSE stream must be byte-identical to the solo-derived golden"
    );
    // And the first frame starts exactly as pinned.
    assert!(frames[0].starts_with("{\"batch\":0,\"num_batches\":5,"));
}

#[test]
fn malformed_sql_returns_diagnostic_payload() {
    let server = start_server(2, 2, 1);
    let (status, _, body) = call(&server, post("/query", "SELEKT wat FROM", None));
    assert_eq!(status, 400);
    let body = String::from_utf8(body).expect("diagnostic is UTF-8");
    assert!(body.starts_with("{\"error\":\""), "body: {body}");
    // The engine diagnostic must survive to the client.
    assert!(body.contains("expected SELECT"), "body: {body}");

    let (status, _, body) = call(&server, post("/query", "", None));
    assert_eq!(status, 400);
    assert!(String::from_utf8(body)
        .expect("UTF-8")
        .contains("empty query body"),);
}

#[test]
fn unknown_routes_and_methods_are_typed() {
    let server = start_server(2, 2, 1);
    let (status, _, _) = call(&server, get("/nope"));
    assert_eq!(status, 404);
    let (status, _, _) = call(&server, get("/query"));
    assert_eq!(status, 405);
    let (status, _, body) = call(&server, get("/healthz"));
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(body).expect("UTF-8"),
        "{\"status\":\"ok\",\"pool_threads\":1}"
    );
}

#[test]
fn job_submit_poll_cancel_lifecycle() {
    let server = start_server(2, 2, 1);
    // Submit: the job id is deterministic (first job on this server).
    let (status, _, body) = call(&server, post("/jobs", conviva::SBI, None));
    assert_eq!(status, 202);
    assert_eq!(String::from_utf8(body).expect("UTF-8"), "{\"job\":0}");

    // Poll until done; frames must equal the solo-run stream.
    let want = solo_frames(conviva::SBI);
    let (started, limit) = (Stopwatch::start(), Duration::from_secs(30));
    let final_body = loop {
        let (status, _, body) = call(&server, get("/jobs/0"));
        assert_eq!(status, 200);
        let body = String::from_utf8(body).expect("UTF-8");
        if body.contains("\"status\":\"done\"") {
            break body;
        }
        assert!(started.elapsed() < limit, "job did not finish: {body}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut expected = String::from("{\"job\":0,\"status\":\"done\",\"reports\":[");
    expected.push_str(&want.join(","));
    expected.push_str("]}");
    assert_eq!(final_body, expected, "poll payload is solo-derived golden");

    // Cancel a fresh job; the slot frees (a follow-up query still runs).
    let (status, _, body) = call(&server, post("/jobs", conviva::C1, None));
    assert_eq!(status, 202);
    assert_eq!(String::from_utf8(body).expect("UTF-8"), "{\"job\":1}");
    let (status, _, body) = call(&server, delete("/jobs/1"));
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(body).expect("UTF-8"),
        "{\"job\":1,\"status\":\"canceled\"}"
    );
    let (status, _, body) = call(&server, get("/jobs/1"));
    assert_eq!(status, 200);
    assert!(String::from_utf8(body)
        .expect("UTF-8")
        .contains("\"status\":\"canceled\""),);

    // Unknown job id.
    let (status, _, _) = call(&server, get("/jobs/999"));
    assert_eq!(status, 404);
}

#[test]
fn saturated_scheduler_returns_typed_429() {
    // Capacity: one active, zero queued. Burst-submit detached jobs; with
    // only one slot, at least one of the three must bounce with the exact
    // admission payload (the first is still streaming batches).
    let server = start_server(1, 0, 1);
    let mut saw_429 = None;
    for _ in 0..3 {
        let (status, _, body) = call(&server, post("/jobs", conviva::SBI, None));
        if status == 429 {
            saw_429 = Some(String::from_utf8(body).expect("UTF-8"));
            break;
        }
        assert_eq!(status, 202);
    }
    let body = saw_429.expect("burst must saturate a 1-slot scheduler");
    assert!(body.contains("\"error\":\"scheduler saturated"), "{body}");
    assert!(
        body.contains("\"active\":1,\"queued\":0,\"max_active\":1,\"queue_capacity\":0"),
        "{body}"
    );
}

#[test]
fn connection_cap_fails_closed_with_503_and_recovers() {
    // Two connection slots. Hold both open with idle sockets (their
    // handlers block reading a request that never arrives), then a real
    // request must bounce on the accept thread: 503 + Retry-After.
    let server = Server::start(
        catalog(),
        ServerConfig {
            service: ServiceConfig {
                max_active: 2,
                queue_capacity: 2,
                threads: 1,
                base: base_config(),
            },
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let holders: Vec<std::net::TcpStream> = (0..2)
        .map(|_| std::net::TcpStream::connect(server.addr()).expect("holder connects"))
        .collect();
    // The holders are accepted asynchronously; poll until the cap bites.
    let (started, limit) = (Stopwatch::start(), Duration::from_secs(10));
    let rejected = loop {
        let (status, head, body) = call(&server, get("/healthz"));
        if status == 503 {
            break (head, String::from_utf8(body).expect("UTF-8"));
        }
        assert_eq!(status, 200, "below the cap the server must still serve");
        assert!(
            started.elapsed() < limit,
            "cap never engaged with {} held connections",
            holders.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let (head, body) = rejected;
    assert!(
        head.to_ascii_lowercase().contains("retry-after: 1"),
        "503 must carry Retry-After, head: {head}"
    );
    assert!(
        body.contains("\"error\":\"connection limit reached\""),
        "{body}"
    );
    assert!(body.contains("\"max_connections\":2"), "{body}");
    // Release the slots; the server must recover without restart.
    drop(holders);
    let (started, limit) = (Stopwatch::start(), Duration::from_secs(10));
    loop {
        let (status, _, _) = call(&server, get("/healthz"));
        if status == 200 {
            break;
        }
        assert!(
            started.elapsed() < limit,
            "server did not recover after holders closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn append_route_feeds_stream_backed_tables() {
    use gola_common::{DataType, Schema};
    use gola_storage::StreamTable;

    let schema = Arc::new(Schema::from_pairs(&[
        ("city", DataType::Str),
        ("ms", DataType::Int),
    ]));
    let stream = StreamTable::new(Arc::clone(&schema));
    stream
        .append_rows(&[
            gola_common::row!["sfo", 10i64],
            gola_common::row!["nyc", 20i64],
        ])
        .expect("seed rows");
    stream.seal().expect("seed segment");

    let mut catalog = Catalog::new();
    catalog
        .register_stream("events", Arc::clone(&stream))
        .expect("register stream");
    let server = Server::start(
        catalog,
        ServerConfig {
            service: ServiceConfig {
                max_active: 2,
                queue_capacity: 2,
                threads: 1,
                base: base_config(),
            },
            ..ServerConfig::default()
        },
    )
    .expect("server binds");

    // A CSV append lands as one sealed segment; the response reports the
    // moved watermark, and the served stream (shared Arc) sees it too.
    let csv = "city,ms\nlhr,30\ncdg,40\nfra,\n";
    let (status, _, body) = call(&server, post("/append/events", csv, None));
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(body).expect("UTF-8"),
        "{\"table\":\"events\",\"appended\":3,\"watermark\":5,\"segments\":2}"
    );
    assert_eq!(stream.watermark(), 5);
    assert_eq!(stream.num_segments(), 2);

    // Unknown stream → 404; a static table is not appendable either.
    let (status, _, _) = call(&server, post("/append/nope", csv, None));
    assert_eq!(status, 404);

    // Schema-violating CSV → 400 and nothing is sealed.
    let (status, _, body) = call(
        &server,
        post("/append/events", "city\nonly-one-col\n", None),
    );
    assert_eq!(status, 400);
    assert!(
        String::from_utf8(body)
            .expect("UTF-8")
            .starts_with("{\"error\":"),
        "bad CSV must surface a typed diagnostic"
    );
    assert_eq!(
        stream.watermark(),
        5,
        "failed append must not move the watermark"
    );
}

#[test]
fn oversized_and_garbage_requests_fail_closed() {
    let server = start_server(1, 0, 1);
    // Body over MAX_BODY_BYTES → 413 before any execution.
    let huge = "x".repeat(300 * 1024);
    let (status, _, _) = call(&server, post("/query", &huge, None));
    assert_eq!(status, 413);
    // Not HTTP at all → 400, connection closed, server stays up.
    let raw = raw_request(server.addr(), b"\x00\x01\x02 garbage\r\n\r\n").expect("round-trips");
    let head = String::from_utf8_lossy(&raw);
    assert!(head.starts_with("HTTP/1.1 400"), "head: {head}");
    let (status, _, _) = call(&server, get("/healthz"));
    assert_eq!(status, 200, "server must survive hostile bytes");
}
