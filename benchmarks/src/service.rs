//! `svc_mix_2c`: the query service as a child process, driven over real
//! sockets by closed-loop clients — an analyst waits for an answer before
//! asking again, so a slow server receives less load, not a growing queue.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use gola_common::rng::hash_combine;
use gola_core::sched::ServiceConfig;
use gola_core::OnlineConfig;
use gola_server::{Server, ServerConfig};

use crate::online::{run_exact, run_query, Progress, Query, QueryRun};
use crate::spec::{Workload, SVC_CLIENTS, TRIALS};
use crate::trace::Tracer;
use crate::workloads::{catalog_of, generate, peak_rss_mb, Outcome};

/// Execution defaults of the served sessions. The server has no
/// per-request seed, so every request of a run shares this schedule.
fn base_config(w: &Workload, seed: u64) -> OnlineConfig {
    OnlineConfig::default()
        .with_batches(w.batches)
        .with_trials(TRIALS)
        .with_seed(seed)
}

/// Body of the server child (`spine serve …`): the same
/// `gola_server::Server::start` call `gola serve` makes, on a free port,
/// serving until stdin closes.
pub fn serve_child(w: &Workload, seed: u64) -> Result<(), String> {
    let catalog = catalog_of(w.data, generate(w.data, w.rows, seed));
    let config = ServerConfig {
        service: ServiceConfig {
            max_active: SVC_CLIENTS,
            queue_capacity: 16,
            threads: w.threads,
            base: base_config(w, seed),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(catalog, config).map_err(|e| format!("bind: {e}"))?;
    println!("{}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    Ok(())
}

/// The running child; closing its stdin stops it. Dropped without
/// `stop`, it is killed — no path leaves a server behind.
struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ServerChild {
    fn spawn(w: &Workload, seed: u64, quick: bool) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--workload", w.name, "--seed", &seed.to_string()]);
        if quick {
            cmd.arg("--quick");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .map_err(|e| e.to_string())
            .and_then(|_| line.trim().parse::<SocketAddr>().map_err(|e| e.to_string()));
        match addr {
            Ok(addr) => Ok(ServerChild { child, stdin, addr }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server child gave no address ({line:?}): {e}"))
            }
        }
    }

    /// Peak RSS, then a clean stop: EOF on stdin, wait for exit.
    fn stop(mut self) -> Result<f64, String> {
        let rss = peak_rss_mb(self.child.id());
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(rss)
        } else {
            Err(format!("server child exited with {status}"))
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Worst relative CI half-width across a frame's estimates.
fn worst_rel_ci(frame: &str) -> Option<f64> {
    use gola_obs::json::Value;
    let value = gola_obs::json::parse(frame).ok()?;
    let Some(Value::Array(cells)) = value.get("estimates") else {
        return None;
    };
    let mut worst = 0.0f64;
    for cell in cells {
        let point = cell.get("value")?.as_f64()?;
        let ci = cell.get("ci")?;
        let half = (ci.get("hi")?.as_f64()? - ci.get("lo")?.as_f64()?) / 2.0;
        let rel = if half == 0.0 {
            0.0
        } else if point == 0.0 {
            return None;
        } else {
            half / point.abs()
        };
        worst = worst.max(rel);
    }
    (!cells.is_empty()).then_some(worst)
}

/// POST one query and stream its NDJSON frames. The clock starts at the
/// request write; chunked transfer is decoded inline so a frame counts
/// the moment its bytes arrive. Returns the run and the final frame.
fn request(
    addr: SocketAddr,
    query: &Query,
    kind: usize,
    id: u64,
    tracer: &mut Tracer,
) -> Result<(QueryRun, String), String> {
    let root = tracer.open("svc.request", None, id);
    let mut stream = tracer
        .call("svc.connect", Some(root), id, || TcpStream::connect(addr))
        .map_err(|e| format!("connect: {e}"))?;
    let sql = &query.sql;
    let head = format!(
        "POST /query HTTP/1.1\r\nhost: spine\r\ncontent-length: {}\r\n\r\n{sql}",
        sql.len()
    );
    let mut progress = Progress::start(kind, query.ci_target);
    let span = tracer.open("svc.head", Some(root), id);
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader
        .read_line(&mut status)
        .map_err(|e| format!("status: {e}"))?;
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("{}: refused: {}", query.name, status.trim()));
    }
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("head: {e}"))?;
        if n == 0 || line == "\r\n" {
            break;
        }
    }
    tracer.close(span);

    let mut pending = String::new();
    let mut last_frame = String::new();
    let mut span = tracer.open("svc.frame", Some(root), id);
    loop {
        let mut size_line = String::new();
        reader
            .read_line(&mut size_line)
            .map_err(|e| format!("chunk size: {e}"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2]; // data + trailing CRLF
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("chunk body: {e}"))?;
        chunk.truncate(size);
        pending.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(at) = pending.find('\n') {
            let frame: String = pending.drain(..=at).collect();
            let frame = frame.trim();
            if frame.is_empty() {
                continue;
            }
            if frame.starts_with("{\"error\"") {
                return Err(format!("{}: error frame: {frame}", query.name));
            }
            let arrived = Instant::now();
            progress.report_at(arrived, worst_rel_ci(frame));
            tracer.close(span);
            span = tracer.open("svc.frame", Some(root), id);
            last_frame = frame.to_string();
        }
    }
    tracer.discard(span);
    tracer.close(root);
    let run = progress.finish();
    if run.reports == 0 {
        return Err(format!("{}: stream ended with no frames", query.name));
    }
    Ok((run, last_frame))
}

/// One closed-loop client: the next request goes out when the previous
/// stream has ended. Client `c` starts `2c` kinds into the cycle so the
/// two clients are rarely on the same query.
fn client(
    addr: SocketAddr,
    queries: &[Query],
    c: usize,
    seconds: f64,
    mut tracer: Tracer,
) -> (Vec<(QueryRun, String)>, Vec<String>, Tracer) {
    let mut done = Vec::new();
    let mut errors = Vec::new();
    let window = Instant::now();
    let mut i = 0usize;
    while i < queries.len() || window.elapsed().as_secs_f64() < seconds {
        let kind = (i + 2 * c) % queries.len();
        let id = (c as u64) << 32 | i as u64;
        match request(addr, &queries[kind], kind, id, &mut tracer) {
            Ok(r) => done.push(r),
            Err(e) => errors.push(e),
        }
        i += 1;
    }
    (done, errors, tracer)
}

/// One server lifetime: start the child on its own table, stream a
/// warm-up query (both timed as set-up), drive it for `seconds`, stop it,
/// and check every stream's last frame against a solo in-process run.
fn lifetime(
    w: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let t0 = Instant::now();
    let server = ServerChild::spawn(w, seed, quick)?;
    request(server.addr, &w.queries[0], 0, 0, &mut Tracer::new(false))?;
    out.setup_s.push(t0.elapsed().as_secs_f64());

    let queries = Arc::new(w.queries.clone());
    let window = Instant::now();
    let addr = server.addr;
    let clients: Vec<_> = (0..SVC_CLIENTS)
        .map(|c| {
            let queries = Arc::clone(&queries);
            let spans = tracer.fork();
            std::thread::spawn(move || client(addr, &queries, c, seconds, spans))
        })
        .collect();
    let mut finals: Vec<(usize, String)> = Vec::new();
    for handle in clients {
        let (done, errors, spans) = handle.join().map_err(|_| "client thread panicked")?;
        out.attempted += done.len() + errors.len();
        out.failures.extend(errors);
        tracer.absorb(spans);
        for (run, frame) in done {
            finals.push((run.kind, frame));
            out.runs.push(run);
        }
    }
    out.window_s += window.elapsed().as_secs_f64();
    let rss = server.stop()?;
    out.peak_rss_mb = out.peak_rss_mb.max(rss);

    // The reference: each kind run solo in this process on the same table
    // and schedule. A socket stream's last frame must be its last report,
    // byte for byte.
    let catalog = catalog_of(w.data, generate(w.data, w.rows, seed));
    let solo_config = base_config(w, seed);
    out.exact_ms.resize(w.queries.len(), Vec::new());
    for (kind, query) in w.queries.iter().enumerate() {
        let solo = run_query(
            &catalog,
            &solo_config,
            query,
            kind as u64,
            tracer,
            false,
            |_| {},
        )?;
        let want = gola_server::json::report_json(&solo.last);
        let wrong = finals
            .iter()
            .filter(|(k, f)| *k == kind && *f != want)
            .count();
        if wrong > 0 {
            out.fail(format!(
                "{}: {wrong} socket stream(s) ended != solo run",
                query.name
            ));
        }
        out.exact_ms[kind].push(run_exact(&catalog, &query.sql, tracer)?.0);
    }
    Ok(())
}

/// `Shape::Service`: the window is split over as many server lifetimes as
/// the run sets up, each child on its own table, so `setup_s` is the
/// median of set-ups that were all used and the latencies average over
/// tables — the server has no per-request seed to do that with.
pub fn run_service(
    w: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    setups: usize,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let lifetimes = setups.max(1);
    for l in 0..lifetimes {
        let child_seed = hash_combine(seed, l as u64);
        if let Err(e) = lifetime(
            w,
            child_seed,
            seconds / lifetimes as f64,
            quick,
            tracer,
            &mut out,
        ) {
            out.attempted += 1;
            out.fail(e);
        }
    }
    tail_rows(&mut out);
    out
}

/// The service's tail rows: the highest percentile the sample supports.
fn tail_rows(out: &mut Outcome) {
    let ttfe: Vec<f64> = out.runs.iter().map(|r| r.ttfe_ms).collect();
    let total: Vec<f64> = out.runs.iter().map(|r| r.tt_exact_ms).collect();
    if let (Some((p, a)), Some((_, b))) = (crate::stats::tail(&ttfe), crate::stats::tail(&total)) {
        out.info("ttfe_tail_ms", a, "ms");
        out.info("tt_exact_tail_ms", b, "ms");
        out.info("tail_percentile", f64::from(p), "p");
        out.info("tail_samples", ttfe.len() as f64, "count");
    }
}
