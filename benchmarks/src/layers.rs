//! The per-layer numbers of a traced run. Two sources, both outside the
//! engine: the spans the workload's own queries left in the tracer, and
//! short probes that call one layer's public functions directly on the
//! workload's data (first 20k rows), so every layer has a row on every
//! workload — including the layers that workload's own path never enters.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use gola_agg::{AggKind, ReplicatedStates};
use gola_bootstrap::BootstrapSpec;
use gola_common::Value;
use gola_core::sched::{QueryService, ServiceConfig};
use gola_core::{BatchReport, OnlineConfig};
use gola_storage::segment::{read_segment, write_segment};
use gola_storage::{
    Catalog, GrowingPartitioner, MiniBatchPartitioner, StratifiedPartitioner, StreamTable, Table,
};
use gola_workloads::tpch;

use crate::ingest::scratch_dir;
use crate::online::{run_exact, run_query, Query};
use crate::spec::{Data, Workload, PER_LAYER, SVC_CLIENTS, TRIALS};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::{catalog_of, config, generate};

const PROBE_ROWS: usize = 20_000;

/// `(metric name, value)` rows, in whatever order they were measured.
type Rows = Vec<(&'static str, f64)>;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Every per-layer metric, as `(name, value)` in `spec::PER_LAYER` order.
/// `untraced_tt_exact_ms` is the same workload's untraced figure from this
/// process, for `trace_overhead_pct`.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    tracer: &Tracer,
    traced_tt_exact_ms: f64,
    untraced_tt_exact_ms: f64,
) -> Result<Rows, String> {
    let mut rows = Rows::new();
    from_spans(tracer, &mut rows);

    let table = Arc::new(generate(w.data, w.rows.min(PROBE_ROWS), seed));
    let catalog = catalog_of(w.data, (*table).clone());
    let cfg = config(w, seed, 0).with_batches(w.batches.min(20));
    partitioners(w, &table, &cfg, &mut rows)?;
    replicated_update(&mut rows);
    let mut quiet = Tracer::new(false);
    let probe = run_query(&catalog, &cfg, &w.queries[0], 0, &mut quiet, true, |_| {})?;
    bootstrap_ci(&probe.all, &mut rows);
    scheduler(&catalog, &cfg, &w.queries, &mut rows)?;
    http_parse(&w.queries[0], &mut rows)?;
    report_json(&probe.all, &mut rows);
    storage(w, &table, &cfg, &mut rows)?;
    overhead_sweep(w, seed, &mut rows)?;
    rows.push((
        "trace_overhead_pct",
        100.0 * (traced_tt_exact_ms - untraced_tt_exact_ms) / untraced_tt_exact_ms,
    ));

    // Report in the declared order, and only what was declared.
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            rows.iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

/// Rows read off the workload's own spans: front-end times, and the
/// executor's stage buckets as shares of the wall spent inside `next()`.
fn from_spans(tracer: &Tracer, rows: &mut Rows) {
    // `OnlineSession::prepare` = compile + stream-table choice + meta
    // plan, so `plan.prepare_us` contains one `sql.compile_us`.
    rows.push(("sql.compile_us", median(&tracer.durations("sql.compile"))));
    rows.push(("plan.prepare_us", median(&tracer.durations("plan.prepare"))));
    rows.push((
        "core.session.start_us",
        median(&tracer.durations("core.session.start")),
    ));
    rows.push((
        "engine.execute_ms",
        median(&tracer.durations("engine.execute")) / 1e3,
    ));

    let next_us: f64 = tracer.durations("core.executor.next").iter().sum();
    let queries = tracer.durations("query").len().max(1) as f64;
    rows.push(("core.executor.next_ms", next_us / queries / 1e3));
    let mut busy = 0.0;
    for (name, key) in [
        ("core.executor.join_share", "join_us"),
        ("core.executor.classify_share", "classify_us"),
        ("core.executor.fold_share", "fold_us"),
        ("core.executor.publish_share", "publish_us"),
        ("core.executor.recover_share", "recover_us"),
    ] {
        let us = tracer.count_sum(key);
        busy += us;
        rows.push((name, 100.0 * us / next_us));
    }
    // Batch materialization + report build. On more than one thread the
    // buckets are busy time summed over workers, so this can go negative.
    rows.push((
        "core.executor.other_share",
        100.0 * (next_us - busy) / next_us,
    ));
    rows.push(("core.pool.busy_over_wall", busy / next_us));
    rows.push((
        "core.executor.tuples_per_s",
        tracer.count_sum("batch_rows") / (next_us / 1e6),
    ));
}

fn partitioners(
    w: &Workload,
    table: &Arc<Table>,
    cfg: &OnlineConfig,
    rows: &mut Rows,
) -> Result<(), String> {
    let k = cfg.num_batches;
    let mut new_ms = Vec::new();
    let mut batch_us = Vec::new();
    for i in 0..5 {
        let t0 = Instant::now();
        let p = MiniBatchPartitioner::new(Arc::clone(table), k, cfg.partition_seed + i)
            .map_err(|e| e.to_string())?;
        new_ms.push(ms_since(t0));
        for b in 0..k {
            let t0 = Instant::now();
            std::hint::black_box(p.batch(b));
            batch_us.push(us_since(t0));
        }
    }
    rows.push(("storage.partition.new_ms", median(&new_ms)));
    rows.push(("storage.partition.batch_us", median(&batch_us)));

    let column = match w.data {
        Data::Conviva => "geo",
        Data::Tpch => "brand",
    };
    let p = StratifiedPartitioner::new(Arc::clone(table), column, k, cfg.partition_seed)
        .map_err(|e| e.to_string())?;
    let strat: Vec<f64> = (0..k)
        .map(|b| {
            let t0 = Instant::now();
            std::hint::black_box(p.batch(b));
            us_since(t0)
        })
        .collect();
    rows.push(("storage.partition.strat_batch_us", median(&strat)));
    Ok(())
}

/// One tuple folded into B replicas of (SUM, AVG) through
/// `ReplicatedStates::update`: the inner loop of the fold stage.
fn replicated_update(rows: &mut Rows) {
    const TUPLES: u64 = 20_000;
    let spec = BootstrapSpec::default();
    let mut states = ReplicatedStates::new(&[AggKind::Sum, AggKind::Avg], TRIALS);
    let t0 = Instant::now();
    for id in 0..TUPLES {
        let x = Value::Float(id as f64 * 0.37 + 1.0);
        states.update(&[x.clone(), x], id, &spec);
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / TUPLES as f64;
    std::hint::black_box(&states);
    rows.push(("agg.replicated.update_ns", ns));
}

/// One percentile interval over B replicas: the per-cell cost of publish
/// and of every report's error bars.
fn bootstrap_ci(reports: &[BatchReport], rows: &mut Rows) {
    let mid = &reports[reports.len() / 2];
    let cells = mid.estimates.len().max(1);
    let rounds = 5_000 / cells + 1;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for cell in &mid.estimates {
            std::hint::black_box(cell.estimate.ci_percentile(mid.ci_level));
        }
    }
    rows.push(("bootstrap.ci_us", us_since(t0) / (rounds * cells) as f64));
}

/// Two sessions time-slicing one `QueryService`: how long a report waits
/// for the scheduler beyond the batch's own wall, and the quanta run.
fn scheduler(
    catalog: &Catalog,
    cfg: &OnlineConfig,
    queries: &[Query],
    rows: &mut Rows,
) -> Result<(), String> {
    let service = QueryService::new(
        catalog.clone(),
        ServiceConfig {
            max_active: SVC_CLIENTS,
            queue_capacity: 4,
            threads: 1,
            base: cfg.clone(),
        },
    );
    let handles: Vec<_> = [&queries[0], &queries[queries.len() - 1]]
        .into_iter()
        .map(|q| {
            service
                .submit(&q.sql)
                .map_err(|e| format!("submit {}: {e}", q.name))
        })
        .collect::<Result<_, _>>()?;
    let drains: Vec<_> = handles
        .into_iter()
        .map(|handle| {
            std::thread::spawn(move || {
                let mut waits = Vec::new();
                let mut last = Instant::now();
                for report in handle {
                    let Ok(report) = report else { break };
                    let gap = last.elapsed();
                    last = Instant::now();
                    waits.push((gap.as_secs_f64() - report.batch_time.as_secs_f64()) * 1e3);
                }
                waits
            })
        })
        .collect();
    let mut waits = Vec::new();
    for d in drains {
        waits.extend(d.join().map_err(|_| "scheduler probe thread panicked")?);
    }
    rows.push(("core.sched.queue_wait_ms", mean(&waits)));
    rows.push(("core.sched.quanta", waits.len() as f64));
    Ok(())
}

/// `http::read_request` on a loopback pair, the request already written.
fn http_parse(query: &Query, rows: &mut Rows) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let sql = &query.sql;
    let request = format!(
        "POST /query HTTP/1.1\r\nhost: spine\r\naccept: application/x-ndjson\r\ncontent-length: {}\r\n\r\n{sql}",
        sql.len()
    );
    let mut parse_us = Vec::new();
    for _ in 0..50 {
        let mut client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        client
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        let (mut server_side, _) = listener.accept().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let parsed = gola_server::http::read_request(&mut server_side);
        parse_us.push(us_since(t0));
        if parsed.map_err(|e| e.to_string())?.body.len() != sql.len() {
            return Err("http probe: body length mismatch".into());
        }
    }
    rows.push(("server.http.parse_us", median(&parse_us)));
    Ok(())
}

fn report_json(reports: &[BatchReport], rows: &mut Rows) {
    let mut us = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..10 {
        for report in reports {
            let t0 = Instant::now();
            let frame = gola_server::json::report_json(report);
            us.push(us_since(t0));
            bytes.push(frame.len() as f64);
        }
    }
    rows.push(("server.json.report_us", median(&us)));
    rows.push(("server.json.bytes_per_report", mean(&bytes)));
}

/// The durable write and read paths on the workload's own rows: four
/// segments through a `StreamTable`, a growing partitioner picking them
/// up, `open_dir`, and one segment file written and read directly.
fn storage(
    w: &Workload,
    table: &Arc<Table>,
    cfg: &OnlineConfig,
    rows: &mut Rows,
) -> Result<(), String> {
    const SEGMENTS: usize = 4;
    let dir = scratch_dir(&format!("layers-{}", w.name))?;
    let err = |e: gola_common::Error| e.to_string();
    let all = table.rows();
    let stream =
        StreamTable::create_dir(Arc::clone(table.schema()), &dir.join("s")).map_err(err)?;
    let (mut append_us, mut seal_ms, mut refresh_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut growing = None;
    for chunk in all.chunks(all.len().div_ceil(SEGMENTS)) {
        let t0 = Instant::now();
        stream.append_rows(chunk).map_err(err)?;
        append_us.push(us_since(t0) / (chunk.len() as f64 / 1e3));
        let t0 = Instant::now();
        stream.seal().map_err(err)?;
        seal_ms.push(ms_since(t0));
        match &growing {
            None => {
                let p = GrowingPartitioner::new(
                    Arc::clone(&stream),
                    cfg.num_batches,
                    cfg.partition_seed,
                );
                growing = Some(p.map_err(err)?);
            }
            Some(p) => {
                let t0 = Instant::now();
                let grew = p.refresh();
                refresh_us.push(us_since(t0));
                if !grew {
                    return Err("growing partitioner missed a sealed segment".into());
                }
            }
        }
    }
    stream.close().map_err(err)?;
    drop(growing);
    drop(stream);
    let t0 = Instant::now();
    let reopened = StreamTable::open_dir(&dir.join("s")).map_err(err)?;
    let open_ms = ms_since(t0);
    if reopened.watermark() != all.len() as u64 {
        return Err("storage probe: reopened watermark != rows appended".into());
    }

    let chunk = &table.chunks()[0];
    let path = dir.join("probe.gseg");
    let (mut write_mb_s, mut read_mb_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        write_segment(&path, table.schema(), chunk).map_err(err)?;
        let wrote = t0.elapsed().as_secs_f64();
        let mb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
        write_mb_s.push(mb / wrote);
        let t0 = Instant::now();
        let (_, back) = read_segment(&path).map_err(err)?;
        read_mb_s.push(mb / t0.elapsed().as_secs_f64());
        if back.len() != chunk.len() {
            return Err("storage probe: segment read back short".into());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows.push(("storage.stream.append_us_per_krow", median(&append_us)));
    rows.push(("storage.stream.seal_ms", median(&seal_ms)));
    rows.push(("storage.growing.refresh_us", median(&refresh_us)));
    rows.push(("storage.stream.open_dir_ms", open_ms));
    rows.push(("storage.segment.write_mb_s", median(&write_mb_s)));
    rows.push(("storage.segment.read_mb_s", median(&read_mb_s)));
    Ok(())
}

/// PF-OLA's headline measurement: online execution over plain execution,
/// TPC-H Q17 (k=20, the quarter-scale table) at B = 0, 10 and 100 replicas.
fn overhead_sweep(w: &Workload, seed: u64, rows: &mut Rows) -> Result<(), String> {
    let catalog = catalog_of(Data::Tpch, generate(Data::Tpch, w.rows.min(25_000), seed));
    let query = Query {
        name: "Q17",
        sql: tpch::Q17.to_string(),
        ci_target: 0.01,
    };
    let mut quiet = Tracer::new(false);
    let exact: Vec<f64> = (0..3)
        .map(|_| run_exact(&catalog, &query.sql, &mut quiet).map(|(ms, _)| ms))
        .collect::<Result<_, _>>()?;
    for (name, trials) in [
        ("overhead_x_b0", 0),
        ("overhead_x_b10", 10),
        ("overhead_x_b100", 100),
    ] {
        let cfg = OnlineConfig::default()
            .with_batches(20)
            .with_trials(trials)
            .with_seed(seed);
        let online: Vec<f64> = (0..3)
            .map(|_| {
                run_query(&catalog, &cfg, &query, 0, &mut quiet, false, |_| {})
                    .map(|done| done.run.tt_exact_ms)
            })
            .collect::<Result<_, _>>()?;
        rows.push((name, median(&online) / median(&exact)));
    }
    Ok(())
}
