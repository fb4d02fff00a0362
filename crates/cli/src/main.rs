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
//! overrides the session-level flag for that query. `\load` never
//! shadows an attached stream: a generated table whose name a stream holds
//! is refused, and the workload's other tables load.
//!
//! Subcommands: `gola serve` (HTTP query service), `gola ingest` (write a
//! generated workload into a durable segment directory).
//!
//! Every command reads its flags through [`gola_common::Flags`]: an
//! unknown flag or argument, a flag with no value, a value that starts
//! with `--` and a value that does not parse each print `gola: …` and exit
//! 2 before any data is loaded, any port is bound or any file is written.

use std::io::{BufRead, Write};
use std::sync::Arc;

use gola_common::{Error, Flags, Result};
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
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("ingest") => ingest(&args[1..]),
        _ => console(&args),
    };
    // Every usage error ends here, before any data is loaded, any port is
    // bound or any file is written.
    if let Err(e) = result {
        eprintln!("gola: {e}");
        std::process::exit(2);
    }
}

fn console(args: &[String]) -> Result<()> {
    let flags = Flags::parse(
        args,
        "--progress --timings --demo",
        "--threads --metrics-out --error --confidence --deadline --stratify --append",
    )?;
    let mut config = OnlineConfig::default().with_batches(40);
    if let Some(threads) = flags.value("--threads")? {
        config = config.with_threads(threads);
    }
    let error_pct = flags.value::<f64>("--error")?;
    let c = flags.value_or("--confidence", 95.0_f64)?;
    let deadline = flags.value::<f64>("--deadline")?;
    if error_pct.is_some() && deadline.is_some() {
        return Err(Error::config("--error and --deadline exclude each other"));
    }
    if let Some(p) = error_pct {
        if !p.is_finite() || p <= 0.0 || p >= 100.0 || !c.is_finite() || c <= 0.0 || c >= 100.0 {
            return Err(Error::config("--error/--confidence must be in (0, 100)"));
        }
        let (target, confidence) = (p / 100.0, c / 100.0);
        config = config.with_contract(QueryContract::Error { target, confidence });
    }
    if let Some(seconds) = deadline {
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err(Error::config("--deadline expects seconds > 0"));
        }
        config = config.with_contract(QueryContract::Within { seconds });
    }
    if let Some(column) = flags.value::<String>("--stratify")? {
        config = config.with_stratify_column(column);
    }
    let mut console = Console {
        catalog: Catalog::new(),
        config,
        progress: flags.on("--progress"),
        timings: flags.on("--timings"),
        metrics_out: flags.value("--metrics-out")?,
    };
    if console.metrics_out.is_some() {
        gola_obs::set_enabled(true);
    }
    attach_streams(&mut console.catalog, &flags)?;
    if flags.on("--demo") {
        console.load("mytube", 100_000);
        console.demo();
        return Ok(());
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
    Ok(())
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
fn serve(args: &[String]) -> Result<()> {
    let flags = Flags::parse(
        args,
        "--metrics",
        "--addr --workload --rows --threads --max-active --queue --batches --max-connections \
         --append",
    )?;
    let workload = flags.value_or("--workload", "conviva".to_string())?;
    let rows = flags.value_or("--rows", 100_000)?;
    let addr = flags.value_or("--addr", ([127, 0, 0, 1], 8642).into())?;
    let service = gola_core::sched::ServiceConfig {
        threads: flags.value_or("--threads", 2)?,
        max_active: flags.value_or("--max-active", 4)?,
        queue_capacity: flags.value_or("--queue", 16)?,
        base: OnlineConfig::default().with_batches(flags.value_or("--batches", 40)?),
    };
    let config = gola_server::ServerConfig {
        addr,
        service,
        max_connections: flags.value_or("--max-connections", 64)?.max(1),
    };
    let mut catalog = match workload.as_str() {
        "conviva" => ConvivaGenerator::default().catalog(rows),
        "tpch" => TpchGenerator::default().catalog(rows),
        other => {
            return Err(Error::config(format!(
                "serve: unknown workload '{other}' (conviva | tpch)"
            )))
        }
    };
    attach_streams(&mut catalog, &flags)?;
    if flags.on("--metrics") {
        gola_obs::set_enabled(true);
    }
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
fn ingest(args: &[String]) -> Result<()> {
    let flags = Flags::parse(
        args,
        "--keep-open",
        "--dir --workload --rows --seal-rows --seed",
    )?;
    let Some(dir) = flags.value::<String>("--dir")? else {
        return Err(Error::config("ingest: --dir is required"));
    };
    let workload = flags.value_or("--workload", "conviva".to_string())?;
    let rows = flags.value_or("--rows", 10_000)?;
    let seed = flags.value::<u64>("--seed")?;
    let data = match workload.as_str() {
        "conviva" => {
            let default = ConvivaGenerator::default();
            let seed = seed.unwrap_or(default.seed);
            ConvivaGenerator { seed, ..default }.generate(rows)
        }
        "tpch" => {
            let default = TpchGenerator::default();
            let seed = seed.unwrap_or(default.seed);
            TpchGenerator { seed, ..default }.generate(rows)
        }
        other => {
            return Err(Error::config(format!(
                "ingest: unknown workload '{other}' (conviva | tpch)"
            )))
        }
    };
    let seal_rows = flags
        .value_or("--seal-rows", data.num_rows().div_ceil(4))?
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
        if !flags.on("--keep-open") {
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
    Ok(())
}

/// Open each `--append NAME=DIR` durable stream and register it in the
/// catalog. Failures are usage errors up front — a missing manifest or a
/// name collision would otherwise surface later as a confusing query error.
fn attach_streams(catalog: &mut Catalog, flags: &Flags) -> Result<()> {
    for spec in flags.all("--append") {
        let Some((name, dir)) = spec.split_once('=') else {
            return Err(Error::config(format!(
                "--append expects NAME=DIR, got '{spec}'"
            )));
        };
        let stream = StreamTable::open_dir(std::path::Path::new(dir))
            .map_err(|e| Error::config(format!("--append {name}: cannot open '{dir}': {e}")))?;
        catalog.register_stream(name, Arc::clone(&stream))?;
        println!(
            "  attached stream '{name}' from {dir} ({} segments, watermark {}{})",
            stream.num_segments(),
            stream.watermark(),
            if stream.is_closed() { ", closed" } else { "" },
        );
    }
    Ok(())
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
                println!("  An unknown flag, or a flag whose value is missing, starts with --");
                println!("  or does not parse, exits 2. \\load leaves a stream attached with");
                println!("  --append NAME=DIR in place of a generated table of the same name.");
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
            let rows = table.num_rows();
            // An attached stream keeps its name; the other tables load.
            match self.catalog.register_or_replace(&name, table) {
                Ok(()) => println!("  registered '{name}' ({rows} rows)"),
                Err(e) => println!("  {e}"),
            }
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
        if self.catalog.entry("mytube_sessions").is_err() {
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
