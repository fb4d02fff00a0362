//! The in-process workloads (`Shape::Online`) and what every workload
//! shares: data generation from the seed, the measurement window, and the
//! outcome the end-to-end metrics are computed from.

use std::sync::Arc;
use std::time::Instant;

use gola_common::rng::hash_combine;
use gola_core::OnlineConfig;
use gola_storage::{Catalog, Table};
use gola_workloads::{ConvivaGenerator, TpchGenerator};

use crate::online::{fingerprint, matches_exact, run_exact, run_query, Query, QueryRun};
use crate::spec::{Data, Workload, TPCH_PARTS, TRIALS};
use crate::stats::{mean, median, midmean};
use crate::trace::Tracer;

/// Everything one run of one workload observed.
#[derive(Default)]
pub struct Outcome {
    /// One entry per measured query execution.
    pub runs: Vec<QueryRun>,
    /// Exact-engine wall per query kind.
    pub exact_ms: Vec<Vec<f64>>,
    pub setup_s: Vec<f64>,
    /// Length of the window the runs completed in.
    pub window_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Derived and workload-specific rows: printed, never gated.
    pub info: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    /// Mean over the query kinds of each kind's central value: a mixed
    /// workload has one mode per kind, and a statistic of the pooled sample
    /// would hop between modes as the per-kind counts shift by one.
    fn across_kinds(&self, f: impl Fn(&QueryRun) -> f64) -> f64 {
        let kinds = self.runs.iter().map(|r| r.kind).max().map_or(0, |k| k + 1);
        let per_kind: Vec<f64> = (0..kinds)
            .map(|k| {
                let xs: Vec<f64> = self.runs.iter().filter(|r| r.kind == k).map(&f).collect();
                midmean(&xs)
            })
            .filter(|m| m.is_finite())
            .collect();
        mean(&per_kind)
    }

    /// The report index at which `tt_ci_ms` was taken, and the stream
    /// length: deterministic per seed, printed beside the timings.
    pub fn note_ci_batch(&mut self) {
        let batch = self.across_kinds(|r| r.ci_batch as f64);
        let reports = self.across_kinds(|r| r.reports as f64);
        self.info("ci_batch", batch, "count");
        self.info("reports", reports, "count");
    }

    /// The end-to-end metrics, in `spec::END_TO_END` order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let gaps: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|r| r.gaps_ms.iter().copied())
            .collect();
        let exact: Vec<f64> = self.exact_ms.iter().map(|xs| median(xs)).collect();
        vec![
            self.across_kinds(|r| r.ttfe_ms),
            self.across_kinds(|r| r.tt_ci_ms),
            self.across_kinds(|r| r.tt_exact_ms),
            gola_common::stats::percentile(&gaps, 0.95).unwrap_or(f64::NAN),
            mean(&exact),
            self.runs.len() as f64 / self.window_s,
            self.peak_rss_mb,
            median(&self.setup_s),
        ]
    }
}

/// The workload's table, generated from the run's seed.
pub fn generate(data: Data, rows: usize, seed: u64) -> Table {
    match data {
        Data::Conviva => ConvivaGenerator {
            seed,
            ..ConvivaGenerator::default()
        }
        .generate(rows),
        Data::Tpch => TpchGenerator {
            seed,
            num_parts: TPCH_PARTS,
            ..TpchGenerator::default()
        }
        .generate(rows),
    }
}

/// A catalog holding `table` under the name its query suite expects.
pub fn catalog_of(data: Data, table: Table) -> Catalog {
    let name = match data {
        Data::Conviva => "sessions",
        Data::Tpch => "lineitem_denorm",
    };
    let mut c = Catalog::new();
    c.register(name, Arc::new(table)).expect("fresh catalog");
    c
}

/// The executor configuration of repetition `rep`. Every repetition draws
/// its own seed from the run's — for its mini-batch schedule and, where
/// the workload can, its table — so a run's figures average over inputs
/// instead of measuring one of them repeatedly: the batch at which a CI
/// target is met moves more between tables than between timings.
pub fn config(w: &Workload, seed: u64, rep: u64) -> OnlineConfig {
    OnlineConfig::default()
        .with_batches(w.batches)
        .with_trials(TRIALS)
        .with_threads(w.threads)
        .with_seed(hash_combine(seed, rep))
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// How many times a measured run sets up, to report a median `setup_s`.
pub const SETUPS: usize = 3;

/// Whether the next of `setups` set-ups is due, `elapsed_s` into a window
/// of `seconds`: the first before the window opens, the rest spread evenly
/// through it between repetitions, so that one slow spell of the host
/// cannot sit under all of them.
pub fn setup_due(done: usize, setups: usize, elapsed_s: f64, seconds: f64) -> bool {
    let setups = setups.max(1);
    done < setups && elapsed_s >= seconds * done as f64 / setups as f64
}

/// `Shape::Online`: set up, then repeat the query until the window
/// closes — every repetition on its own table and mini-batch schedule,
/// every final report checked against the exact engine on that table.
pub fn run_online(
    w: &Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let query = &w.queries[0];

    // Set-up: data generation, catalog, and a warm-up that touches every
    // column and grows the allocator: the first reports of the query and
    // one exact execution.
    let set_up = |out: &mut Outcome| {
        let t0 = Instant::now();
        let c = catalog_of(w.data, generate(w.data, w.rows, seed));
        warm_up(&c, &config(w, seed, u64::MAX), query, out);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    };
    set_up(&mut out);

    out.exact_ms.push(Vec::new());
    let mut first_stream = None;
    let window = Instant::now();
    let mut rep = 0u64;
    while rep < 2 || window.elapsed().as_secs_f64() < seconds {
        if setup_due(
            out.setup_s.len(),
            setups,
            window.elapsed().as_secs_f64(),
            seconds,
        ) {
            set_up(&mut out);
        }
        out.attempted += 1;
        let cfg = config(w, seed, rep);
        let catalog = catalog_of(w.data, generate(w.data, w.rows, cfg.partition_seed));
        let measured = run_exact(&catalog, &query.sql, tracer).and_then(|(exact_ms, exact)| {
            let done = run_query(&catalog, &cfg, query, rep, tracer, rep == 0, |_| {})?;
            matches_exact(&done.last, &exact)
                .map_err(|e| format!("final report != exact engine: {e}"))?;
            Ok((exact_ms, done))
        });
        match measured {
            Ok((exact_ms, done)) => {
                out.exact_ms[0].push(exact_ms);
                out.runs.push(done.run);
                if rep == 0 {
                    first_stream = Some(fingerprint(&done.all));
                }
            }
            Err(e) => out.fail(format!("{} rep {rep}: {e}", w.name)),
        }
        rep += 1;
    }
    out.window_s = out.runs.iter().map(|r| r.tt_exact_ms).sum::<f64>() / 1e3;

    // Threads must never reach a report: repetition 0's stream is rerun
    // on one thread and compared bit for bit.
    if w.threads > 1 {
        out.attempted += 1;
        let solo = config(w, seed, 0).with_threads(1);
        let catalog = catalog_of(w.data, generate(w.data, w.rows, solo.partition_seed));
        let mut quiet = Tracer::new(false);
        match run_query(&catalog, &solo, query, u64::MAX, &mut quiet, true, |_| {}) {
            Ok(t1) if Some(fingerprint(&t1.all)) == first_stream => {}
            Ok(_) => out.fail(format!(
                "{}: threads={} stream is not bit-identical to threads=1",
                w.name, w.threads
            )),
            Err(e) => out.fail(e),
        }
    }
    out.peak_rss_mb = peak_rss_mb(std::process::id());
    out
}

/// First reports of `query` plus one exact execution.
pub fn warm_up(catalog: &Catalog, config: &OnlineConfig, query: &Query, out: &mut Outcome) {
    let session = gola_core::OnlineSession::new(catalog.clone(), config.clone());
    match session.execute_online(&query.sql) {
        Ok(exec) => {
            for report in exec.take(3) {
                if let Err(e) = report {
                    out.fail(format!("warm-up {}: {e}", query.name));
                }
            }
        }
        Err(e) => out.fail(format!("warm-up {}: {e}", query.name)),
    }
    if let Err(e) = session.execute_exact(&query.sql) {
        out.fail(format!("warm-up {}: {e}", query.name));
    }
}
