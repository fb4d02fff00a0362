//! `gola` — an interactive online-SQL console (the demo's "web-based query
//! console", paper §6, as a terminal program).
//!
//! Start it, load a synthetic workload, and type SQL: answers stream in
//! with error bars, refining batch by batch. `\demo` runs the scripted
//! dashboard scenario (ad revenue, A/B retention, slowdown hotspots).
//!
//! ```text
//! $ cargo run --release -p gola-cli
//! gola> \load conviva 100000
//! gola> SELECT AVG(play_time) FROM sessions
//!       WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions);
//! ```
//!
//! Flags: `--threads N`, `--demo`, `--progress` (live single-line batch
//! status), `--metrics-out <path>` (enable the observability registry and
//! write a JSON snapshot plus `<path>.prom` Prometheus text after each
//! query), `--timings` (include wall-clock values in those exports),
//! `--error P [--confidence C]` (session-default `ERROR P% CONFIDENCE C%`
//! contract), `--deadline SECS` (session-default `WITHIN SECS SECONDS`
//! contract), `--stratify COLUMN` (stratified mini-batch partitioning),
//! `--append NAME=DIR` (open the durable stream at DIR and register it as
//! table NAME; repeatable). A contract clause written in the SQL statement
//! overrides the session-level flag for that query.
//!
//! Subcommands: `gola serve` (HTTP query service), `gola ingest` (write a
//! generated workload into a durable segment directory).

use std::io::{BufRead, Write};
use std::sync::Arc;

use gola_core::{OnlineConfig, OnlineSession};
use gola_plan::QueryContract;
use gola_storage::{Catalog, StreamTable};
use gola_workloads::{ConvivaGenerator, MyTubeGenerator, TpchGenerator};

struct Console {
    catalog: Catalog,
    config: OnlineConfig,
    /// `--progress`: redraw one live status line per batch instead of
    /// printing every report.
    progress: bool,
    /// `--timings`: include wall-clock-derived values in metric exports.
    timings: bool,
    /// `--metrics-out <path>`: after each query, write the registry
    /// snapshot as JSON to `<path>` and Prometheus text to `<path>.prom`.
    /// Metrics accumulate over the whole session.
    metrics_out: Option<std::path::PathBuf>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("ingest") {
        ingest(&args[1..]);
        return;
    }
    let mut console = Console {
        catalog: Catalog::new(),
        config: OnlineConfig::default().with_batches(40),
        progress: args.iter().any(|a| a == "--progress"),
        timings: args.iter().any(|a| a == "--timings"),
        metrics_out: flag_str(&args, "--metrics-out").map(std::path::PathBuf::from),
    };
    if let Some(threads) = flag_value(&args, "--threads") {
        console.config = console.config.clone().with_threads(threads);
    }
    let error_pct = flag_value::<f64>(&args, "--error");
    let deadline = flag_value::<f64>(&args, "--deadline");
    if error_pct.is_some() && deadline.is_some() {
        eprintln!("gola: --error and --deadline are mutually exclusive");
        std::process::exit(2);
    }
    if let Some(p) = error_pct {
        let c = flag_value::<f64>(&args, "--confidence").unwrap_or(95.0);
        if !p.is_finite() || p <= 0.0 || p >= 100.0 || !c.is_finite() || c <= 0.0 || c >= 100.0 {
            eprintln!("gola: --error/--confidence expect percentages in (0, 100)");
            std::process::exit(2);
        }
        console.config = console.config.clone().with_contract(QueryContract::Error {
            target: p / 100.0,
            confidence: c / 100.0,
        });
    }
    if let Some(seconds) = deadline {
        if !seconds.is_finite() || seconds <= 0.0 {
            eprintln!("gola: --deadline expects a positive number of seconds");
            std::process::exit(2);
        }
        console.config = console
            .config
            .clone()
            .with_contract(QueryContract::Within { seconds });
    }
    if let Some(column) = flag_str(&args, "--stratify") {
        console.config = console.config.clone().with_stratify_column(column);
    }
    if console.metrics_out.is_some() {
        gola_obs::set_enabled(true);
    }
    attach_streams(&mut console.catalog, &args);
    if args.iter().any(|a| a == "--demo") {
        console.load("mytube", 100_000);
        console.demo();
        return;
    }
    println!("G-OLA interactive console — type \\help for commands.");
    console.load("conviva", 50_000);
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("gola> ");
        } else {
            print!("  ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim_end();
        if buffer.is_empty() && line.starts_with('\\') {
            if !console.command(line) {
                break;
            }
            continue;
        }
        buffer.push_str(line);
        buffer.push(' ');
        // Execute once the statement ends with `;` or on a blank line.
        if line.trim_end().ends_with(';') || (line.trim().is_empty() && !buffer.trim().is_empty()) {
            let sql = buffer.trim().trim_end_matches(';').to_string();
            buffer.clear();
            if !sql.is_empty() {
                console.run_sql(&sql);
            }
        }
    }
}

/// `gola serve` — run the multi-tenant HTTP query service in the
/// foreground until killed.
///
/// Flags: `--addr HOST:PORT` (default 127.0.0.1:8642), `--workload
/// conviva|tpch` (default conviva), `--rows N` (default 100000),
/// `--threads N` (width of the intra-query worker pool every session's
/// batches share; how many sessions run at once is `min(max-active,
/// CPUs)`, not this flag), `--max-active N` / `--queue N` (admission
/// window), `--batches N`, `--metrics` (enable the
/// observability registry; scrape `GET /metrics`), `--max-connections N`
/// (fail-closed accept cap, default 64), `--append NAME=DIR` (serve the
/// durable stream at DIR as table NAME; `POST /append/NAME` then feeds
/// it, and appended segments persist across restarts).
fn serve(args: &[String]) {
    let workload = flag_str(args, "--workload").unwrap_or_else(|| "conviva".into());
    let rows = flag_value(args, "--rows").unwrap_or(100_000);
    let mut catalog = match workload.as_str() {
        "conviva" => ConvivaGenerator::default().catalog(rows),
        "tpch" => TpchGenerator::default().catalog(rows),
        other => {
            eprintln!("gola serve: unknown workload '{other}' (conviva | tpch)");
            std::process::exit(2);
        }
    };
    attach_streams(&mut catalog, args);
    if args.iter().any(|a| a == "--metrics") {
        gola_obs::set_enabled(true);
    }
    let addr = flag_value(args, "--addr").unwrap_or(([127, 0, 0, 1], 8642).into());
    let service = gola_core::sched::ServiceConfig {
        threads: flag_value(args, "--threads").unwrap_or(2),
        max_active: flag_value(args, "--max-active").unwrap_or(4),
        queue_capacity: flag_value(args, "--queue").unwrap_or(16),
        base: OnlineConfig::default().with_batches(flag_value(args, "--batches").unwrap_or(40)),
    };
    let config = gola_server::ServerConfig {
        addr,
        service,
        max_connections: flag_value(args, "--max-connections").unwrap_or(64).max(1),
    };
    let server = match gola_server::Server::start(catalog, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gola serve: bind {addr} failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "gola serve: '{workload}' ({rows} rows) on http://{}",
        server.addr()
    );
    println!(
        "  POST /query   SQL body -> NDJSON report stream (SSE with accept: text/event-stream)"
    );
    println!("  POST /jobs    SQL body -> job id; GET /jobs/<id> to poll, DELETE to cancel");
    println!("  POST /append/<table>  CSV body (with header) -> sealed segment on a stream");
    println!("  GET  /healthz, GET /metrics");
    // Serve until killed: the accept loop runs in background threads.
    loop {
        std::thread::park();
    }
}

/// `gola ingest` — write a generated workload into a durable stream
/// directory as write-once columnar segments (DESIGN.md §3.12).
///
/// Creates `--dir` if it has no manifest, otherwise reopens it and
/// appends. Rows are appended and sealed every `--seal-rows`, so the run
/// adds ⌈rows/seal-rows⌉ segments. The stream is closed afterwards —
/// queries over it drain to an exact final answer — unless `--keep-open`
/// leaves it appendable for `gola serve --append` or a later ingest.
///
/// Flags: `--dir PATH` (required), `--workload conviva|tpch` (default
/// conviva), `--rows N` (default 10000), `--seal-rows K` (default ⌈N/4⌉),
/// `--seed S` (decimal), `--keep-open`.
fn ingest(args: &[String]) {
    let Some(dir) = flag_str(args, "--dir") else {
        eprintln!("gola ingest: --dir is required");
        std::process::exit(2);
    };
    let workload = flag_str(args, "--workload").unwrap_or_else(|| "conviva".into());
    let rows = flag_value(args, "--rows").unwrap_or(10_000);
    let seed = flag_value::<u64>(args, "--seed");
    let data = match workload.as_str() {
        "conviva" => {
            let mut g = ConvivaGenerator::default();
            if let Some(s) = seed {
                g.seed = s;
            }
            g.generate(rows)
        }
        "tpch" => {
            let mut g = TpchGenerator::default();
            if let Some(s) = seed {
                g.seed = s;
            }
            g.generate(rows)
        }
        other => {
            eprintln!("gola ingest: unknown workload '{other}' (conviva | tpch)");
            std::process::exit(2);
        }
    };
    let seal_rows = flag_value(args, "--seal-rows")
        .unwrap_or_else(|| data.num_rows().div_ceil(4))
        .max(1);
    let path = std::path::Path::new(&dir);
    let result = (|| {
        let stream = if path.join(gola_storage::stream::MANIFEST_FILE).is_file() {
            StreamTable::open_dir(path)?
        } else {
            StreamTable::create_dir(Arc::clone(data.schema()), path)?
        };
        for chunk in data.rows().chunks(seal_rows) {
            stream.append_rows(chunk)?;
            stream.seal()?;
        }
        if !args.iter().any(|a| a == "--keep-open") {
            stream.close()?;
        }
        Ok::<_, gola_common::Error>(stream)
    })();
    match result {
        Ok(stream) => println!(
            "gola ingest: '{workload}' +{} rows -> {dir} ({} segments, watermark {}{})",
            data.num_rows(),
            stream.num_segments(),
            stream.watermark(),
            if stream.is_closed() { ", closed" } else { "" },
        ),
        Err(e) => {
            eprintln!("gola ingest: {e}");
            std::process::exit(1);
        }
    }
}

/// Open each `--append NAME=DIR` durable stream and register it in the
/// catalog. Failures are fatal up front — a missing manifest or a name
/// collision would otherwise surface later as a confusing query error.
fn attach_streams(catalog: &mut Catalog, args: &[String]) {
    for i in 0..args.len() {
        let Some(spec) = flag_at(args, i, "--append") else {
            continue;
        };
        let Some((name, dir)) = spec.split_once('=') else {
            eprintln!("gola: --append expects NAME=DIR, got '{spec}'");
            std::process::exit(2);
        };
        let stream = match StreamTable::open_dir(std::path::Path::new(dir)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("gola: --append {name}: cannot open '{dir}': {e}");
                std::process::exit(2);
            }
        };
        let (segments, watermark, closed) = (
            stream.num_segments(),
            stream.watermark(),
            stream.is_closed(),
        );
        if let Err(e) = catalog.register_stream(name, stream) {
            eprintln!("gola: --append: {e}");
            std::process::exit(2);
        }
        println!(
            "  attached stream '{name}' from {dir} ({segments} segments, watermark {watermark}{})",
            if closed { ", closed" } else { "" },
        );
    }
}

/// Parse `--flag V` or `--flag=V` from the argument list. A value that
/// does not parse is fatal (exit 2), never the default.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let v = flag_str(args, flag)?;
    match v.parse() {
        Ok(x) => Some(x),
        Err(_) => {
            eprintln!("gola: bad {flag} '{v}'");
            std::process::exit(2);
        }
    }
}

/// Parse `--flag VALUE` or `--flag=VALUE` from the argument list.
fn flag_str(args: &[String], flag: &str) -> Option<String> {
    (0..args.len()).find_map(|i| flag_at(args, i, flag))
}

/// The value of `flag` if argument `i` is `--flag VALUE` or
/// `--flag=VALUE`. A flag given last, with no value, is fatal (exit 2).
fn flag_at(args: &[String], i: usize, flag: &str) -> Option<String> {
    if args[i] == flag {
        let Some(v) = args.get(i + 1) else {
            eprintln!("gola: {flag} expects a value");
            std::process::exit(2);
        };
        return Some(v.clone());
    }
    let v = args[i].strip_prefix(flag)?.strip_prefix('=')?;
    Some(v.to_string())
}

impl Console {
    /// Handle a `\`-command; returns `false` to quit.
    fn command(&mut self, line: &str) -> bool {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            "\\q" | "\\quit" | "\\exit" => return false,
            "\\help" => {
                println!("  \\load <conviva|tpch|mytube> [rows]   generate + register tables");
                println!("  \\tables                              list tables");
                println!("  \\explain <sql>                       show lineage blocks");
                println!("  \\exact <sql>                         run on the batch engine");
                println!("  \\batches <k>                         set mini-batch count");
                println!("  \\trials <B>                          set bootstrap replicas");
                println!("  \\threads <n>                         set worker threads");
                println!("  \\demo                                scripted dashboard demo");
                println!("  \\q                                   quit");
                println!("  <sql>;                               run online (finish with ;)");
                println!();
                println!("  SQL contracts: append ERROR p% [CONFIDENCE c%] or WITHIN n SECONDS");
                println!("  to an aggregate query; flags --error/--confidence/--deadline set a");
                println!("  session default and --stratify <col> stratifies the mini-batches.");
            }
            "\\tables" => {
                for name in self.catalog.names() {
                    let t = self.catalog.get(&name).expect("listed table");
                    println!("  {name} ({} rows) {}", t.num_rows(), t.schema());
                }
            }
            "\\load" => {
                let kind = parts.get(1).copied().unwrap_or("conviva");
                let rows: usize = parts.get(2).and_then(|s| s.parse().ok()).unwrap_or(50_000);
                self.load(kind, rows);
            }
            "\\batches" => {
                if let Some(k) = parts.get(1).and_then(|s| s.parse().ok()) {
                    self.config.num_batches = k;
                    println!("  mini-batches = {k}");
                }
            }
            "\\trials" => {
                if let Some(b) = parts.get(1).and_then(|s| s.parse().ok()) {
                    self.config.bootstrap.trials = b;
                    println!("  bootstrap trials = {b}");
                }
            }
            "\\threads" => {
                if let Some(t) = parts.get(1).and_then(|s| s.parse::<usize>().ok()) {
                    self.config = self.config.clone().with_threads(t);
                    println!("  worker threads = {}", self.config.threads);
                }
            }
            "\\explain" => {
                let sql = line.trim_start_matches("\\explain").trim();
                let session = OnlineSession::new(self.catalog.clone(), self.config.clone());
                match session.prepare(sql) {
                    Ok(p) => {
                        println!("streamed table: {}", p.stream_table);
                        print!("{}", p.meta.explain());
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "\\exact" => {
                let sql = line.trim_start_matches("\\exact").trim();
                let session = OnlineSession::new(self.catalog.clone(), self.config.clone());
                let t0 = gola_common::timing::Stopwatch::start();
                match session.execute_exact(sql) {
                    Ok(table) => {
                        print!("{}", table.display_limit(20));
                        println!("({:?})", t0.elapsed());
                    }
                    Err(e) => println!("error: {e}"),
                }
                self.dump_metrics();
            }
            "\\demo" => self.demo(),
            other => println!("unknown command {other}; try \\help"),
        }
        true
    }

    fn load(&mut self, kind: &str, rows: usize) {
        let (loaded, hint) = match kind {
            "conviva" => (
                ConvivaGenerator::default().catalog(rows),
                "try:\n    SELECT AVG(play_time) FROM sessions WHERE buffer_time >\n      \
                 (SELECT AVG(buffer_time) FROM sessions);",
            ),
            "tpch" => (
                TpchGenerator::default().catalog(rows),
                "see Q11/Q17/Q18/Q20",
            ),
            "mytube" => (MyTubeGenerator::default().catalog(rows), ""),
            other => {
                println!("unknown workload '{other}' (conviva | tpch | mytube)");
                return;
            }
        };
        for name in loaded.names() {
            let table = loaded.get(&name).expect("listed table");
            println!("  registered '{name}' ({} rows)", table.num_rows());
            self.catalog.register_or_replace(name, table);
        }
        if !hint.is_empty() {
            println!("  {hint}");
        }
    }

    fn run_sql(&self, sql: &str) {
        let session = OnlineSession::new(self.catalog.clone(), self.config.clone());
        let exec = match session.execute_online(sql) {
            Ok(e) => e,
            Err(e) => {
                println!("error: {e}");
                return;
            }
        };
        let mut last = None;
        for report in exec {
            match report {
                Ok(r) => {
                    if self.progress {
                        print!("\r\x1b[2K  {r}");
                        std::io::stdout().flush().ok();
                    } else {
                        println!("  {r}");
                    }
                    last = Some(r);
                }
                Err(e) => {
                    if self.progress {
                        println!();
                    }
                    println!("execution error: {e}");
                    return;
                }
            }
        }
        if self.progress {
            println!();
        }
        if let Some(r) = last {
            println!("\nfinal answer ({} rows):", r.table.num_rows());
            print!("{}", r.table.display_limit(20));
        }
        self.dump_metrics();
    }

    /// Write the metric registry to `--metrics-out` (JSON) and its `.prom`
    /// sibling (Prometheus text). No-op unless the flag was given.
    fn dump_metrics(&self) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        if let Err(e) = std::fs::write(path, gola_obs::snapshot_json(self.timings)) {
            eprintln!("metrics-out: failed to write {}: {e}", path.display());
        }
        let mut prom = path.as_os_str().to_owned();
        prom.push(".prom");
        if let Err(e) = std::fs::write(&prom, gola_obs::prometheus(self.timings)) {
            eprintln!(
                "metrics-out: failed to write {}: {e}",
                prom.to_string_lossy()
            );
        }
    }

    /// Scripted dashboard: cycles the demo metrics like the paper's booth
    /// dashboard, printing refreshed estimates as they refine.
    fn demo(&mut self) {
        if !self.catalog.contains("mytube_sessions") {
            self.load("mytube", 100_000);
        }
        let metrics = [
            (
                "ad revenue by category (troubled sessions only)",
                "SELECT a.category, SUM(s.ad_revenue) AS revenue FROM mytube_sessions s \
                 JOIN ads a ON s.ad_id = a.ad_id \
                 WHERE s.buffer_time > (SELECT AVG(buffer_time) FROM mytube_sessions) \
                 GROUP BY a.category ORDER BY revenue DESC",
            ),
            (
                "A/B retention",
                "SELECT experiment, AVG(play_time) AS engagement, COUNT(*) AS n \
                 FROM mytube_sessions GROUP BY experiment ORDER BY experiment",
            ),
            (
                "evening slowdown",
                "SELECT hour_of_day, AVG(buffer_time) AS buffering \
                 FROM mytube_sessions GROUP BY hour_of_day ORDER BY buffering DESC LIMIT 5",
            ),
        ];
        for (title, sql) in metrics {
            println!("\n━━ {title} ━━");
            let session = OnlineSession::new(self.catalog.clone(), self.config.clone());
            let exec = match session.execute_online(sql) {
                Ok(e) => e,
                Err(e) => {
                    println!("error: {e}");
                    continue;
                }
            };
            for report in exec {
                let Ok(r) = report else { break };
                if r.batch_index % 10 == 0 || r.is_final() {
                    println!("  {r}");
                }
                if r.is_final() {
                    print!("{}", r.table.display_limit(8));
                }
            }
        }
    }
}
