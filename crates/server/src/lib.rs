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
//! | `GET /jobs/<n>` | poll: status + reports so far; `404` once evicted (the last [`FINISHED_JOBS_KEPT`] finished jobs are kept), `400` for an `<n>` that is not a number |
//! | `DELETE /jobs/<n>` | cancel; `404`/`400` as for a poll |
//! | `POST /append/<table>` | body = CSV with a header row; appends and seals a segment of a stream-backed table |
//! | `GET /healthz` | liveness + pool size |
//! | `GET /metrics` | Prometheus export of the obs registry |
//! | anything else | `404`, or `405` for a wrong method on a fixed route |
//!
//! Every failure takes one path: a handler returns it, and one responder
//! writes the status with a `{"error": …}` JSON body (plus numeric detail
//! fields where there are any). `/query` and `/jobs` submit through one
//! function, so both name the same diagnostic: malformed SQL returns `400`
//! with the engine diagnostic, a body that is not UTF-8 or is empty `400`,
//! and a saturated scheduler `429` with the exact admission numbers. A
//! client that has not sent its whole request 5 s after connecting gets
//! `408` and is closed, and a response write that blocks for 10 s fails.
//! Report frames carry no wall-clock fields, so streams are
//! byte-deterministic (`tests/http_surface.rs` pins SSE byte for byte).
//!
//! While the `gola_obs` registry is on, the server counts connections it
//! accepted (`server.connections.accepted`) and refused with `503` at the
//! cap (`server.connections.refused`), requests answered `408`
//! (`server.requests.timed_out`), and every request it answers by route
//! and status (`server.requests{route,status}`), with its duration from
//! the first read to the last byte of the answer
//! (`server.request_seconds{route}`). `route` is one of
//! `query`, `jobs`, `job`, `append`, `healthz`, `metrics`, `other`, or
//! `unread` for a request that could not be read, so the label sets stay
//! bounded.

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
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use gola_common::timing::Stopwatch;
use gola_obs::{handle, Counter};

use gola_core::sched::{AdmissionError, QueryHandle, QueryService, ServiceConfig, SubmitError};
use gola_storage::Catalog;

use http::{read_request, HttpError, Request, Response};

/// How long a client has to send its whole request, head and body. A
/// slower one is answered `408` and closed, so an idle or trickling socket
/// cannot hold a `max_connections` slot for longer than this.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
/// How long one response write may block on a client that stops reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a rejected connection is drained before it is closed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

handle!(accepted: Counter = gola_obs::counter("server.connections.accepted"));
handle!(refused: Counter = gola_obs::counter("server.connections.refused"));
handle!(timed_out: Counter = gola_obs::counter("server.requests.timed_out"));

/// Bump `counter` while the obs registry is on.
fn count(counter: fn() -> &'static Counter) {
    if gola_obs::enabled() {
        counter().inc();
    }
}

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

/// A job's lifecycle. Only a running job holds its handle; dropping the
/// handle cancels the session.
enum JobStatus {
    Running(QueryHandle),
    Done,
    Failed(String),
    Canceled,
}

struct JobState {
    status: JobStatus,
    /// Rendered report frames, in order.
    frames: Vec<String>,
}

/// Finished jobs (done, failed or canceled) the job table keeps, with
/// their report frames, for later polls; admitting a job past this evicts
/// the oldest finished ones. Running jobs are never evicted: admission
/// already bounds them.
pub const FINISHED_JOBS_KEPT: usize = 32;

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
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let active = Arc::clone(&shared.active_connections);
        if active.fetch_add(1, Ordering::SeqCst) >= shared.max_connections {
            active.fetch_sub(1, Ordering::SeqCst);
            count(refused);
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
        count(accepted);
        let shared = Arc::clone(&shared);
        let guard = ConnGuard(active);
        // A refused spawn drops the closure — and with it the guard — so
        // the count comes back down on that path too.
        let _ = std::thread::Builder::new()
            .name("gola-conn".into())
            .spawn(move || {
                let mut stream = stream;
                handle_connection(&mut stream, &shared);
                // Free the slot before the close reaches the client: one
                // that has read its whole answer finds the slot free.
                drop(guard);
            });
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let started = Stopwatch::start();
    let request = read_request(&mut Deadline::new(stream, REQUEST_DEADLINE));
    let (name, status) = match &request {
        Ok(request) => route(request, stream, shared),
        Err(e) => {
            let status = match e {
                HttpError::TooLarge(_) => 413,
                HttpError::Io(io) if Deadline::passed(io) => 408,
                _ => 400,
            };
            if status == 408 {
                count(timed_out);
            }
            let status = respond(stream, Fail::new(status, e.to_string()));
            ("unread", status)
        }
    };
    if gola_obs::enabled() {
        let status = status.to_string();
        gola_obs::counter_with("server.requests", &[("route", name), ("status", &status)]).inc();
        let seconds = gola_obs::labeled("server.request_seconds", &[("route", name)]);
        gola_obs::duration_histogram(&seconds).observe_duration(started.elapsed());
    }
    if request.is_err() {
        drain_then_close(stream);
    }
}

/// Reads from a socket until a total deadline: each read waits at most
/// the time left, and none starts once it has passed. A per-read timeout
/// alone would let a client that trickles a byte at a time read forever.
struct Deadline<'a> {
    stream: &'a TcpStream,
    started: Stopwatch,
    limit: Duration,
}

impl Deadline<'_> {
    fn new(stream: &TcpStream, limit: Duration) -> Deadline<'_> {
        Deadline {
            stream,
            started: Stopwatch::start(),
            limit,
        }
    }

    /// Did a read fail because the deadline passed? (A socket read timeout
    /// surfaces as `WouldBlock` on Unix and `TimedOut` on Windows.)
    fn passed(e: &std::io::Error) -> bool {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        matches!(e.kind(), WouldBlock | TimedOut)
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.limit.saturating_sub(self.started.elapsed());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Gracefully end a connection whose request was rejected before its body
/// was consumed: closing with unread input would RST the client and eat
/// the diagnostic we just sent. Half-close, then drain (for at most
/// [`DRAIN_DEADLINE`] in all) until the client hangs up.
fn drain_then_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reader = Deadline::new(stream, DRAIN_DEADLINE);
    let mut buf = [0u8; 8192];
    while let Ok(n) = reader.read(&mut buf) {
        if n == 0 {
            return;
        }
    }
}

/// Why a handler did not answer: an HTTP failure, rendered as
/// `{"error": message, ...detail}`, or a socket error.
enum Fail {
    Status(u16, String, Vec<(&'static str, u64)>),
    Io(std::io::Error),
}

impl Fail {
    fn new(status: u16, message: impl Into<String>) -> Fail {
        Fail::Status(status, message.into(), Vec::new())
    }
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        Fail::Io(e)
    }
}

/// A handler's outcome: the status it sent, or the failure to send.
type Answer = Result<u16, Fail>;

/// Send `body` as a JSON response with `status`.
fn send_json(stream: &mut TcpStream, status: u16, body: &str) -> Answer {
    Response::new(stream).send(status, "application/json", body.as_bytes())?;
    Ok(status)
}

/// The one failure responder; returns the status it sent.
fn respond(stream: &mut TcpStream, fail: Fail) -> u16 {
    let (status, message, detail) = match fail {
        Fail::Status(status, message, detail) => (status, message, detail),
        // Best effort: the head may already be on the wire.
        Fail::Io(e) => (500, format!("internal error: {e}"), Vec::new()),
    };
    let body = json::error_json(&message, &detail);
    let _ = Response::new(stream).send(status, "application/json", body.as_bytes());
    status
}

/// Answer one request; returns its route label (a fixed list, so metric
/// labels stay bounded) and the status sent.
fn route(req: &Request, stream: &mut TcpStream, shared: &Shared) -> (&'static str, u16) {
    let name = match req.path.as_str() {
        "/query" => "query",
        "/jobs" => "jobs",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        path if path.starts_with("/jobs/") => "job",
        path if path.starts_with("/append/") => "append",
        _ => "other",
    };
    let answer = match (name, req.method.as_str()) {
        ("query", "POST") => query(req, stream, shared),
        ("jobs", "POST") => submit_job(req, stream, shared),
        ("healthz", "GET") => healthz(stream, shared),
        ("metrics", "GET") => metrics(stream),
        ("job", "GET") => poll_job(req, stream, shared),
        ("job", "DELETE") => cancel_job(req, stream, shared),
        ("append", "POST") => append_rows(req, stream, shared),
        ("job" | "append" | "other", _) => Err(Fail::new(404, "no such route")),
        _ => Err(Fail::new(405, "method not allowed")),
    };
    (name, answer.unwrap_or_else(|fail| respond(stream, fail)))
}

/// Submit the request body's SQL: the one entry of `/query` and `/jobs`.
fn submit(req: &Request, shared: &Shared) -> Result<QueryHandle, Fail> {
    let sql = req.body_utf8().map_err(|e| Fail::new(400, e.to_string()))?;
    let sql = sql.trim();
    if sql.is_empty() {
        return Err(Fail::new(400, "empty query body"));
    }
    shared.service.submit(sql).map_err(|e| match e {
        SubmitError::Compile(diag) => Fail::new(400, diag.to_string()),
        SubmitError::Admission(a) => {
            let detail = match &a {
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
            Fail::Status(429, a.to_string(), detail)
        }
        SubmitError::Shutdown => Fail::new(500, "service is shutting down"),
    })
}

/// `POST /query` — submit and stream every report progressively.
fn query(req: &Request, stream: &mut TcpStream, shared: &Shared) -> Answer {
    let handle = submit(req, shared)?;
    let sse = req.wants_sse();
    let content_type = if sse {
        "text/event-stream"
    } else {
        "application/x-ndjson"
    };
    // One report, error or end frame: an SSE event, or an NDJSON line.
    let frame = |event: &str, line: &str| match sse {
        true => format!("event: {event}\ndata: {line}\n\n"),
        false => format!("{line}\n"),
    };
    let mut body = Response::new(stream).stream(200, content_type)?;
    let mut batches = 0usize;
    for report in handle {
        let frame = match report {
            Ok(report) => {
                batches += 1;
                frame("report", &json::report_json(&report))
            }
            Err(e) => frame("error", &json::error_json(&e.to_string(), &[])),
        };
        if body.chunk(frame.as_bytes()).is_err() {
            // Client hung up; the dropped handle cancels the session.
            return Ok(200);
        }
    }
    if sse {
        body.chunk(frame("done", &format!("{{\"batches\":{batches}}}")).as_bytes())?;
    }
    body.finish()?;
    Ok(200)
}

/// `POST /jobs` — submit detached; polls drain its frames. Admission evicts
/// finished jobs past [`FINISHED_JOBS_KEPT`].
fn submit_job(req: &Request, stream: &mut TcpStream, shared: &Shared) -> Answer {
    let handle = submit(req, shared)?;
    let id = shared.jobs.next.fetch_add(1, Ordering::Relaxed);
    let mut table = lock_jobs(shared)?;
    evict_finished(&mut table);
    let (status, frames) = (JobStatus::Running(handle), Vec::new());
    table.insert(id, JobState { status, frames });
    drop(table);
    // No drainer thread: the scheduler pushes reports into the handle's
    // channel on its own; polls pull whatever is ready (`drain_ready`).
    send_json(stream, 202, &format!("{{\"job\":{id}}}"))
}

/// `POST /append/<table>` — append CSV rows (with header) to a
/// stream-backed table and seal them into a segment, so running growing
/// queries pick the new data up as extra mini-batches. Returns the
/// stream's new watermark.
fn append_rows(req: &Request, stream: &mut TcpStream, shared: &Shared) -> Answer {
    let name = req.path.trim_start_matches("/append/").to_ascii_lowercase();
    let Some(live) = shared.catalog.stream(&name) else {
        return Err(Fail::new(404, "no stream-backed table with that name"));
    };
    let sealed = req
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
        })
        .map_err(|e| Fail::new(400, e))?;
    let body = format!(
        "{{\"table\":{},\"appended\":{sealed},\"watermark\":{},\"segments\":{}}}",
        gola_common::json::str_lit(&name),
        live.watermark(),
        live.num_segments(),
    );
    send_json(stream, 200, &body)
}

fn healthz(stream: &mut TcpStream, shared: &Shared) -> Answer {
    let threads = shared.service.threads();
    let body = format!("{{\"status\":\"ok\",\"pool_threads\":{threads}}}");
    send_json(stream, 200, &body)
}

fn metrics(stream: &mut TcpStream) -> Answer {
    let body = if gola_obs::enabled() {
        gola_obs::prometheus(false)
    } else {
        "# metrics registry disabled (start with observability enabled)\n".to_string()
    };
    Response::new(stream).send(200, "text/plain; version=0.0.4", body.as_bytes())?;
    Ok(200)
}

fn lock_jobs(shared: &Shared) -> Result<MutexGuard<'_, BTreeMap<u64, JobState>>, Fail> {
    (shared.jobs.table.lock()).map_err(|_| Fail::new(500, "job table poisoned"))
}

/// The job `/jobs/<id>` names, with its ready reports drained, handed to
/// `answer`; the table stays locked only while `answer` runs.
fn with_job(
    req: &Request,
    shared: &Shared,
    answer: impl FnOnce(u64, &mut JobState) -> String,
) -> Result<String, Fail> {
    let id = req.path.strip_prefix("/jobs/").unwrap_or_default().parse();
    let id = id.map_err(|_| Fail::new(400, "bad job id"))?;
    let mut table = lock_jobs(shared)?;
    let Some(job) = table.get_mut(&id) else {
        return Err(Fail::new(404, "no such job"));
    };
    drain_ready(job);
    Ok(answer(id, job))
}

fn poll_job(req: &Request, stream: &mut TcpStream, shared: &Shared) -> Answer {
    let body = with_job(req, shared, |id, job| {
        let (status, error) = match &job.status {
            JobStatus::Running(_) => ("running", None),
            JobStatus::Done => ("done", None),
            JobStatus::Failed(e) => ("failed", Some(e)),
            JobStatus::Canceled => ("canceled", None),
        };
        let mut body = format!("{{\"job\":{id},\"status\":\"{status}\",\"reports\":[");
        body.push_str(&job.frames.join(","));
        body.push(']');
        if let Some(e) = error {
            body.push_str(",\"error\":");
            gola_common::json::push_str_lit(&mut body, e);
        }
        body + "}"
    })?;
    send_json(stream, 200, &body)
}

fn cancel_job(req: &Request, stream: &mut TcpStream, shared: &Shared) -> Answer {
    let body = with_job(req, shared, |id, job| {
        if let JobStatus::Running(handle) = &job.status {
            handle.cancel();
            job.status = JobStatus::Canceled;
        }
        format!("{{\"job\":{id},\"status\":\"canceled\"}}")
    })?;
    send_json(stream, 200, &body)
}

/// Keep at most [`FINISHED_JOBS_KEPT`] finished jobs, evicting the oldest;
/// called as a job is admitted, before it joins the table. Every job
/// drains its ready reports first, so one that finished but was never
/// polled counts as finished.
fn evict_finished(table: &mut BTreeMap<u64, JobState>) {
    table.values_mut().for_each(drain_ready);
    let finished = table
        .iter()
        .filter(|(_, job)| !matches!(job.status, JobStatus::Running(_)));
    let finished: Vec<u64> = finished.map(|(&id, _)| id).collect();
    for id in &finished[..finished.len().saturating_sub(FINISHED_JOBS_KEPT)] {
        table.remove(id);
    }
}

/// Pull every report the scheduler has already produced (non-blocking) so
/// polls observe progressive refinement without a drainer thread.
fn drain_ready(job: &mut JobState) {
    use std::sync::mpsc::TryRecvError;
    while let JobStatus::Running(handle) = &job.status {
        match handle.try_recv() {
            Ok(Ok(report)) => job.frames.push(json::report_json(&report)),
            Ok(Err(e)) => job.status = JobStatus::Failed(e.to_string()),
            Err(TryRecvError::Empty) => return,
            Err(TryRecvError::Disconnected) => job.status = JobStatus::Done,
        }
    }
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
