//! # gola-server — the multi-tenant online-aggregation query service
//!
//! SQL in, *progressive* answers out: every mini-batch report streams to
//! the client the moment the scheduler produces it, so interactive users
//! see an estimate within one batch and watch its CI tighten — the
//! paper's interaction model lifted onto a network surface. Many clients
//! share one process through `gola_core::sched::QueryService`: fair
//! stride scheduling at batch granularity over one shared worker pool,
//! bounded admission with typed 429s, and per-session obs labels.
//!
//! Zero dependencies: hand-rolled HTTP/1.1 over `std::net` (see
//! [`http`]), deterministic report JSON (see [`json`]).
//!
//! ## Surface
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /query` | body = SQL; streams one JSON report per line (NDJSON), or SSE frames with `Accept: text/event-stream` |
//! | `POST /jobs` | body = SQL; `202 {"job":n}`, runs detached |
//! | `GET /jobs/<n>` | poll: status + reports so far |
//! | `DELETE /jobs/<n>` | cancel |
//! | `GET /healthz` | liveness + pool/queue shape |
//! | `GET /metrics` | Prometheus export of the obs registry |
//!
//! Malformed SQL returns `400` with the engine diagnostic; a saturated
//! scheduler returns `429` with the exact admission numbers. Report
//! frames carry no wall-clock fields, so streams are byte-deterministic
//! (`tests/http_surface.rs` pins SSE byte for byte).

// The determinism contract, checked by clippy (DESIGN.md §3.6).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

pub mod http;
pub mod json;

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use gola_core::sched::{AdmissionError, QueryHandle, QueryService, ServiceConfig, SubmitError};
use gola_storage::Catalog;

use http::{read_request, HttpError, Request, Response};

/// Server configuration: the service sizing plus the listen address.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port (tests).
    pub addr: SocketAddr,
    pub service: ServiceConfig,
    /// Hard cap on concurrently open connections. The accept loop fails
    /// closed at the cap — `503` + `Retry-After` on the accepting thread,
    /// no handler spawned — so a socket flood can no longer exhaust OS
    /// threads before scheduler admission ever sees a request.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            service: ServiceConfig::default(),
            max_connections: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Running,
    Done,
    Failed,
    Canceled,
}

struct JobState {
    status: JobStatus,
    /// Rendered report frames, in order.
    frames: Vec<String>,
    error: Option<String>,
    handle: Option<QueryHandle>,
}

#[derive(Default)]
struct Jobs {
    next: AtomicU64,
    table: Mutex<BTreeMap<u64, JobState>>,
}

/// A running server. Dropping it stops the accept loop and shuts the
/// scheduler down.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

struct Shared {
    service: QueryService,
    jobs: Jobs,
    threads: usize,
    /// The served catalog (shares `Arc`s — including live streams — with
    /// the scheduler's copy), so `POST /append/<table>` feeds running
    /// growing queries.
    catalog: Catalog,
    /// Open connections, counted by the accept loop.
    active_connections: Arc<AtomicUsize>,
    max_connections: usize,
}

impl Server {
    /// Bind and start serving `catalog` in background threads.
    pub fn start(catalog: Catalog, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            threads: config.service.threads,
            service: QueryService::new(catalog.clone(), config.service),
            jobs: Jobs::default(),
            catalog,
            active_connections: Arc::new(AtomicUsize::new(0)),
            max_connections: config.max_connections.max(1),
        });
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("gola-accept".into())
            .spawn(move || accept_loop(listener, shared, accept_stop))
            .ok();
        Ok(Server { addr, stop, accept })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Decrements the live-connection count when a handler thread exits, on
/// every path (including panics inside a handler).
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        // Bounded acceptor: at the cap, fail closed on the accepting
        // thread itself — a 503 with Retry-After and no spawned handler —
        // so connection floods cost this process one write, not a thread.
        let active = Arc::clone(&shared.active_connections);
        if active.fetch_add(1, Ordering::SeqCst) >= shared.max_connections {
            active.fetch_sub(1, Ordering::SeqCst);
            let body = json::error_json(
                "connection limit reached",
                &[("max_connections", shared.max_connections as u64)],
            );
            let _ = Response::new(&mut stream).send_with_headers(
                503,
                "application/json",
                &[("retry-after", "1")],
                body.as_bytes(),
            );
            drain_then_close(&stream);
            continue;
        }
        let shared = Arc::clone(&shared);
        let guard = ConnGuard(active);
        // A refused spawn drops the closure — and with it the guard — so
        // the count comes back down on that path too.
        let _ = std::thread::Builder::new()
            .name("gola-conn".into())
            .spawn(move || {
                let _guard = guard;
                handle_connection(stream, &shared);
            });
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let status = match e {
                HttpError::TooLarge(_) => 413,
                _ => 400,
            };
            let body = json::error_json(&e.to_string(), &[]);
            let _ = Response::new(&mut stream).send(status, "application/json", body.as_bytes());
            drain_then_close(&stream);
            return;
        }
    };
    if let Err(e) = route(&request, &mut stream, shared) {
        // Best effort: the head may already be on the wire.
        let body = json::error_json(&format!("internal error: {e}"), &[]);
        let _ = Response::new(&mut stream).send(500, "application/json", body.as_bytes());
    }
}

/// Gracefully end a connection whose request was rejected before its body
/// was consumed: closing with unread input would RST the client and eat
/// the diagnostic we just sent. Half-close, then drain (bounded by a read
/// timeout) until the client hangs up.
fn drain_then_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let mut buf = [0u8; 8192];
    let mut reader = stream;
    while let Ok(n) = std::io::Read::read(&mut reader, &mut buf) {
        if n == 0 {
            return;
        }
    }
}

fn route(req: &Request, stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => query(req, stream, shared),
        ("POST", "/jobs") => submit_job(req, stream, shared),
        ("GET", "/healthz") => healthz(stream, shared),
        ("GET", "/metrics") => metrics(stream),
        ("GET", path) if path.starts_with("/jobs/") => poll_job(path, stream, shared),
        ("DELETE", path) if path.starts_with("/jobs/") => cancel_job(path, stream, shared),
        ("POST", path) if path.starts_with("/append/") => append_rows(req, path, stream, shared),
        (_, "/query" | "/jobs" | "/healthz" | "/metrics") => {
            let body = json::error_json("method not allowed", &[]);
            Response::new(stream).send(405, "application/json", body.as_bytes())
        }
        _ => {
            let body = json::error_json("no such route", &[]);
            Response::new(stream).send(404, "application/json", body.as_bytes())
        }
    }
}

/// Map a submit failure to its HTTP response.
fn submit_failure(e: SubmitError, stream: &mut TcpStream) -> std::io::Result<()> {
    match e {
        SubmitError::Compile(diag) => {
            let body = json::error_json(&diag.to_string(), &[]);
            Response::new(stream).send(400, "application/json", body.as_bytes())
        }
        SubmitError::Admission(a) => {
            let extra: Vec<(&str, u64)> = match &a {
                AdmissionError::Saturated {
                    active,
                    queued,
                    max_active,
                    queue_capacity,
                } => vec![
                    ("active", *active as u64),
                    ("queued", *queued as u64),
                    ("max_active", *max_active as u64),
                    ("queue_capacity", *queue_capacity as u64),
                ],
                AdmissionError::DuplicateSession { id } => vec![("session", *id)],
            };
            let body = json::error_json(&a.to_string(), &extra);
            Response::new(stream).send(429, "application/json", body.as_bytes())
        }
        SubmitError::Shutdown => {
            let body = json::error_json("service is shutting down", &[]);
            Response::new(stream).send(500, "application/json", body.as_bytes())
        }
    }
}

/// `POST /query` — submit and stream every report progressively.
fn query(req: &Request, stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let sql = match req.body_utf8() {
        Ok(s) if !s.trim().is_empty() => s.trim().to_string(),
        Ok(_) => {
            let body = json::error_json("empty query body", &[]);
            return Response::new(stream).send(400, "application/json", body.as_bytes());
        }
        Err(e) => {
            let body = json::error_json(&e.to_string(), &[]);
            return Response::new(stream).send(400, "application/json", body.as_bytes());
        }
    };
    let handle = match shared.service.submit(&sql) {
        Ok(h) => h,
        Err(e) => return submit_failure(e, stream),
    };
    let sse = req.wants_sse();
    let content_type = if sse {
        "text/event-stream"
    } else {
        "application/x-ndjson"
    };
    let mut body = Response::new(stream).stream(200, content_type)?;
    let mut batches = 0usize;
    for report in handle {
        let frame = match report {
            Ok(report) => {
                batches += 1;
                let line = json::report_json(&report);
                if sse {
                    format!("event: report\ndata: {line}\n\n")
                } else {
                    format!("{line}\n")
                }
            }
            Err(e) => {
                let line = json::error_json(&e.to_string(), &[]);
                if sse {
                    format!("event: error\ndata: {line}\n\n")
                } else {
                    format!("{line}\n")
                }
            }
        };
        if body.chunk(frame.as_bytes()).is_err() {
            // Client hung up; the dropped handle cancels the session.
            return Ok(());
        }
    }
    if sse {
        body.chunk(format!("event: done\ndata: {{\"batches\":{batches}}}\n\n").as_bytes())?;
    }
    body.finish()
}

/// `POST /jobs` — submit detached; a drainer thread accumulates frames.
fn submit_job(req: &Request, stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let sql = match req.body_utf8() {
        Ok(s) if !s.trim().is_empty() => s.trim().to_string(),
        _ => {
            let body = json::error_json("empty query body", &[]);
            return Response::new(stream).send(400, "application/json", body.as_bytes());
        }
    };
    let handle = match shared.service.submit(&sql) {
        Ok(h) => h,
        Err(e) => return submit_failure(e, stream),
    };
    let id = shared.jobs.next.fetch_add(1, Ordering::Relaxed);
    if let Ok(mut table) = shared.jobs.table.lock() {
        table.insert(
            id,
            JobState {
                status: JobStatus::Running,
                frames: Vec::new(),
                error: None,
                handle: Some(handle),
            },
        );
    }
    // No drainer thread: the scheduler pushes reports into the handle's
    // channel on its own; polls pull whatever is ready (`drain_ready`).
    let body = format!("{{\"job\":{id}}}");
    Response::new(stream).send(202, "application/json", body.as_bytes())
}

/// `POST /append/<table>` — append CSV rows (with header) to a
/// stream-backed table and seal them into a segment, so running growing
/// queries pick the new data up as extra mini-batches. Returns the
/// stream's new watermark.
fn append_rows(
    req: &Request,
    path: &str,
    stream: &mut TcpStream,
    shared: &Shared,
) -> std::io::Result<()> {
    let name = path.trim_start_matches("/append/").to_ascii_lowercase();
    let Some(live) = shared.catalog.stream(&name) else {
        let body = json::error_json("no stream-backed table with that name", &[]);
        return Response::new(stream).send(404, "application/json", body.as_bytes());
    };
    let parsed = req
        .body_utf8()
        .map_err(|e| e.to_string())
        .and_then(|text| {
            gola_storage::csv::read_csv(Arc::clone(live.schema()), text.as_bytes())
                .map_err(|e| e.to_string())
        })
        .and_then(|table| {
            live.append_rows(&table.rows())
                .and_then(|()| live.seal())
                .map_err(|e| e.to_string())
        });
    match parsed {
        Ok(sealed) => {
            let body = format!(
                "{{\"table\":{},\"appended\":{sealed},\"watermark\":{},\"segments\":{}}}",
                gola_common::json::str_lit(&name),
                live.watermark(),
                live.num_segments(),
            );
            Response::new(stream).send(200, "application/json", body.as_bytes())
        }
        Err(e) => {
            let body = json::error_json(&e, &[]);
            Response::new(stream).send(400, "application/json", body.as_bytes())
        }
    }
}

fn healthz(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let body = format!(
        "{{\"status\":\"ok\",\"pool_threads\":{}}}",
        shared.threads.max(1)
    );
    Response::new(stream).send(200, "application/json", body.as_bytes())
}

fn metrics(stream: &mut TcpStream) -> std::io::Result<()> {
    let body = if gola_obs::enabled() {
        gola_obs::prometheus(false)
    } else {
        "# metrics registry disabled (start with observability enabled)\n".to_string()
    };
    Response::new(stream).send(200, "text/plain; version=0.0.4", body.as_bytes())
}

fn job_id(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?.parse().ok()
}

fn poll_job(path: &str, stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let Some(id) = job_id(path) else {
        let body = json::error_json("bad job id", &[]);
        return Response::new(stream).send(400, "application/json", body.as_bytes());
    };
    let Ok(mut table) = shared.jobs.table.lock() else {
        let body = json::error_json("job table poisoned", &[]);
        return Response::new(stream).send(500, "application/json", body.as_bytes());
    };
    let Some(job) = table.get_mut(&id) else {
        let body = json::error_json("no such job", &[]);
        return Response::new(stream).send(404, "application/json", body.as_bytes());
    };
    drain_ready(job);
    let status = match job.status {
        JobStatus::Running => "running",
        JobStatus::Done => "done",
        JobStatus::Failed => "failed",
        JobStatus::Canceled => "canceled",
    };
    let mut body = format!("{{\"job\":{id},\"status\":\"{status}\",\"reports\":[");
    for (i, frame) in job.frames.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(frame);
    }
    body.push(']');
    if let Some(e) = &job.error {
        body.push_str(",\"error\":");
        gola_common::json::push_str_lit(&mut body, e);
    }
    body.push('}');
    Response::new(stream).send(200, "application/json", body.as_bytes())
}

/// Pull every report the scheduler has already produced (non-blocking) so
/// polls observe progressive refinement without a drainer thread.
fn drain_ready(job: &mut JobState) {
    let Some(handle) = &job.handle else { return };
    loop {
        match handle.try_recv() {
            Ok(Ok(report)) => job.frames.push(json::report_json(&report)),
            Ok(Err(e)) => {
                job.error = Some(e.to_string());
                job.status = JobStatus::Failed;
                job.handle = None;
                return;
            }
            Err(std::sync::mpsc::TryRecvError::Empty) => return,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                if job.status == JobStatus::Running {
                    job.status = JobStatus::Done;
                }
                job.handle = None;
                return;
            }
        }
    }
}

fn cancel_job(path: &str, stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let Some(id) = job_id(path) else {
        let body = json::error_json("bad job id", &[]);
        return Response::new(stream).send(400, "application/json", body.as_bytes());
    };
    let Ok(mut table) = shared.jobs.table.lock() else {
        let body = json::error_json("job table poisoned", &[]);
        return Response::new(stream).send(500, "application/json", body.as_bytes());
    };
    let Some(job) = table.get_mut(&id) else {
        let body = json::error_json("no such job", &[]);
        return Response::new(stream).send(404, "application/json", body.as_bytes());
    };
    drain_ready(job);
    if let Some(handle) = job.handle.take() {
        handle.cancel();
        job.status = JobStatus::Canceled;
    }
    let body = format!("{{\"job\":{id},\"status\":\"canceled\"}}");
    Response::new(stream).send(200, "application/json", body.as_bytes())
}

/// Blocking helper for clients/tests: POST `sql` to a running server and
/// collect the raw response (head + body) as bytes.
pub fn raw_request(addr: SocketAddr, request: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request)?;
    let mut out = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut out)?;
    Ok(out)
}
