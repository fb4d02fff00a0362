//! The server's own metrics: connections accepted, connections refused
//! with `503` at `max_connections`, requests answered `408`, and requests
//! by route and status with their durations, all recorded only while the
//! `gola_obs` registry is on.
//!
//! One test function only: the registry is process-global.

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use gola_common::timing::Stopwatch;
use gola_server::{raw_request, Server, ServerConfig};
use gola_storage::Catalog;

/// The status code of one `GET /healthz`.
fn healthz(server: &Server) -> u16 {
    get(server, "/healthz")
}

/// The status code of one `GET path`.
fn get(server: &Server, path: &str) -> u16 {
    let request = format!("GET {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n");
    let response = raw_request(server.addr(), request.as_bytes()).expect("request completes");
    let head = String::from_utf8_lossy(&response);
    head.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn connections_and_timeouts_are_counted_only_while_enabled() {
    let accepted = gola_obs::counter("server.connections.accepted");
    let refused = gola_obs::counter("server.connections.refused");
    let timed_out = gola_obs::counter("server.requests.timed_out");
    let server = Server::start(
        Catalog::new(),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");

    // Off: a served request moves nothing and registers no series.
    assert_eq!(healthz(&server), 200);
    assert_eq!((accepted.get(), refused.get(), timed_out.get()), (0, 0, 0));
    let snapshot = gola_obs::snapshot_json(false);
    assert!(!snapshot.contains("server.requests{") && !snapshot.contains("server.request_seconds"));

    gola_obs::set_enabled(true);
    gola_obs::reset();
    let (mut served, mut bounced) = (0, 0);
    // One idle socket takes the only slot; it is accepted asynchronously,
    // so probe until the cap bites.
    let mut holder = TcpStream::connect(server.addr()).expect("holder connects");
    let (started, limit) = (Stopwatch::start(), Duration::from_secs(10));
    while bounced == 0 {
        match healthz(&server) {
            200 => served += 1,
            503 => bounced += 1,
            other => panic!("unexpected status {other}"),
        }
        assert!(started.elapsed() < limit, "the cap never engaged");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The holder never sends a byte: the request deadline answers it 408.
    holder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut response = Vec::new();
    holder.read_to_end(&mut response).expect("server closes");
    assert!(response.starts_with(b"HTTP/1.1 408 "));
    // Hanging up ends the server's drain, and the slot comes back.
    drop(holder);
    let (started, limit) = (Stopwatch::start(), Duration::from_secs(10));
    loop {
        match healthz(&server) {
            200 => {
                served += 1;
                break;
            }
            503 => bounced += 1,
            other => panic!("unexpected status {other}"),
        }
        assert!(started.elapsed() < limit, "the slot never came back");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The last probe's slot may not be free yet: a 503 is retried.
    let (started, limit) = (Stopwatch::start(), Duration::from_secs(10));
    loop {
        match get(&server, "/nope") {
            404 => break,
            503 => bounced += 1,
            other => panic!("unexpected status {other}"),
        }
        assert!(started.elapsed() < limit, "the 404 never got a slot");
        std::thread::sleep(Duration::from_millis(5));
    }
    gola_obs::set_enabled(false);

    assert_eq!(
        accepted.get(),
        served + 2,
        "every served probe, the holder and the 404"
    );
    assert_eq!(refused.get(), bounced, "one per 503");
    assert_eq!(timed_out.get(), 1, "the holder's 408");
    // Requests by route and status: a 503 at the cap never reaches one.
    let requests = |route, status| {
        gola_obs::counter_with("server.requests", &[("route", route), ("status", status)]).get()
    };
    assert_eq!(requests("healthz", "200"), served);
    assert_eq!(requests("other", "404"), 1);
    assert_eq!(requests("unread", "408"), 1);
    let seconds = |route| {
        let key = gola_obs::labeled("server.request_seconds", &[("route", route)]);
        gola_obs::duration_histogram(&key).count()
    };
    assert_eq!((seconds("healthz"), seconds("other")), (served, 1));
    let text = gola_obs::prometheus(false);
    assert!(text.contains("gola_server_requests_total{route=\"other\",status=\"404\"} 1"));
    assert!(text.contains("gola_server_request_seconds_count{route=\"unread\"} 1"));
}
