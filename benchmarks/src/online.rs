//! One online query, timed from outside: SQL text → `OnlineSession::prepare`
//! → `execute_prepared` → `OnlineExecution::next` until the final report.
//! Every in-process workload and the solo reference runs go through here.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gola_core::{BatchReport, OnlineConfig, OnlineExecution, OnlineSession};
use gola_storage::{Catalog, Table};

use crate::trace::Tracer;

/// A query and the accuracy its `tt_ci_ms` waits for.
#[derive(Debug, Clone)]
pub struct Query {
    pub name: &'static str,
    pub sql: String,
    /// Worst relative 95% CI half-width that counts as "tight".
    pub ci_target: f64,
}

/// What one execution looked like to its user.
#[derive(Debug, Clone, Default)]
pub struct QueryRun {
    /// Index into the workload's query list.
    pub kind: usize,
    pub ttfe_ms: f64,
    pub tt_ci_ms: f64,
    /// Index of the report that first met the CI target.
    pub ci_batch: usize,
    pub tt_exact_ms: f64,
    /// Gaps between consecutive reports.
    pub gaps_ms: Vec<f64>,
    pub reports: usize,
}

/// Tracks first-estimate / CI-target / final times over a report stream;
/// shared by the in-process runner and the socket client.
pub struct Progress {
    start: Instant,
    last: Option<Instant>,
    ci_target: f64,
    crossed: bool,
    pub run: QueryRun,
}

impl Progress {
    pub fn start(kind: usize, ci_target: f64) -> Progress {
        Progress {
            start: Instant::now(),
            last: None,
            ci_target,
            crossed: false,
            run: QueryRun {
                kind,
                ..QueryRun::default()
            },
        }
    }

    /// Note one report with its worst relative CI half-width (`None`:
    /// some cell has no usable interval yet).
    pub fn report(&mut self, worst_rel_ci: Option<f64>) {
        self.report_at(Instant::now(), worst_rel_ci);
    }

    /// [`Progress::report`] for a report that arrived at `now`, before the
    /// caller spent time working out its CI width.
    pub fn report_at(&mut self, now: Instant, worst_rel_ci: Option<f64>) {
        let at_ms = (now - self.start).as_secs_f64() * 1e3;
        match self.last {
            None => self.run.ttfe_ms = at_ms,
            Some(prev) => self.run.gaps_ms.push((now - prev).as_secs_f64() * 1e3),
        }
        self.last = Some(now);
        if !self.crossed && worst_rel_ci.is_some_and(|rel| rel <= self.ci_target) {
            self.crossed = true;
            self.run.tt_ci_ms = at_ms;
            self.run.ci_batch = self.run.reports;
        }
        self.run.reports += 1;
        self.run.tt_exact_ms = at_ms;
    }

    /// Close the stream. A stream that never met its target (a contract
    /// stop, or no reports at all) is charged its full length.
    pub fn finish(mut self) -> QueryRun {
        if !self.crossed {
            self.run.tt_ci_ms = self.run.tt_exact_ms;
            self.run.ci_batch = self.run.reports.saturating_sub(1);
        }
        self.run
    }
}

/// The outcome of [`run_query`]: latencies, and the reports kept for
/// verification. Stage buckets go to the tracer, on each `next` span.
pub struct Executed {
    pub run: QueryRun,
    pub last: BatchReport,
    /// Every report when `keep_all`, else empty.
    pub all: Vec<BatchReport>,
}

/// Run `query` online to its last report. `between` runs after every
/// report (the ingest workload appends there); spans go to `tracer`.
pub fn run_query(
    catalog: &Catalog,
    config: &OnlineConfig,
    query: &Query,
    query_id: u64,
    tracer: &mut Tracer,
    keep_all: bool,
    mut between: impl FnMut(&mut Tracer),
) -> Result<Executed, String> {
    let mut progress = Progress::start(0, query.ci_target);
    let root = tracer.open("query", None, query_id);
    let session = OnlineSession::new(catalog.clone(), config.clone());
    let prepared = tracer
        .call("plan.prepare", Some(root), query_id, || {
            session.prepare(&query.sql)
        })
        .map_err(|e| format!("{}: prepare: {e}", query.name))?;
    let mut exec: OnlineExecution = tracer
        .call("core.session.start", Some(root), query_id, || {
            session.execute_prepared(&prepared)
        })
        .map_err(|e| format!("{}: start: {e}", query.name))?;
    let mut all = Vec::new();
    let mut last = None;
    loop {
        let span = tracer.open("core.executor.next", Some(root), query_id);
        let Some(report) = exec.next() else {
            tracer.discard(span);
            break;
        };
        let report = report.map_err(|e| format!("{}: batch: {e}", query.name))?;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let t = &report.timing;
        tracer.close_with(
            span,
            vec![
                ("join_us", us(t.join)),
                ("classify_us", us(t.classify)),
                ("fold_us", us(t.fold)),
                ("publish_us", us(t.publish)),
                ("recover_us", us(t.recover)),
                ("batch_rows", t.batch_rows as f64),
            ],
        );
        progress.report(report.achieved_rel_error(report.ci_level));
        between(tracer);
        if keep_all {
            all.push(report.clone());
        }
        last = Some(report);
    }
    tracer.close(root);
    // `prepare` compiles internally, so a standalone compile is the only
    // way to see the SQL front end alone. It runs after the query's clock
    // has stopped: it neither stretches `ttfe_ms` nor warms `prepare`.
    tracer.call("sql.compile", None, query_id, || {
        let _ = gola_sql::compile(&query.sql, catalog);
    });
    Ok(Executed {
        run: progress.finish(),
        last: last.ok_or_else(|| format!("{}: no reports", query.name))?,
        all,
    })
}

/// Time `BatchEngine::execute` alone: the query is compiled before the
/// clock starts.
pub fn run_exact(
    catalog: &Catalog,
    sql: &str,
    tracer: &mut Tracer,
) -> Result<(f64, Table), String> {
    let graph = gola_sql::compile(sql, catalog).map_err(|e| format!("compile: {e}"))?;
    let engine = gola_engine::BatchEngine::new(catalog);
    let span = tracer.open("engine.execute", None, 0);
    let t0 = Instant::now();
    let out = engine.execute(&graph);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);
    Ok((ms, out.map_err(|e| format!("exact: {e}"))?))
}

/// The conformance oracle's differential rule: the final online answer
/// bit-matches the exact engine's, rows compared order-insensitively.
pub fn matches_exact(last: &BatchReport, exact: &Table) -> Result<(), String> {
    if !last.is_final() {
        return Err(format!(
            "last report is batch {}/{}",
            last.batch_index + 1,
            last.num_batches
        ));
    }
    gola_conformance::oracle::tables_bit_equal(&last.table, exact)
}

/// Exact fingerprint of a report stream: every float through `to_bits`, so
/// two streams fingerprint equal iff they are bit-identical.
pub fn fingerprint(reports: &[BatchReport]) -> String {
    let mut s = String::new();
    for r in reports {
        let _ = write!(
            s,
            "b{}/{} seen{}/{} m{:016x} u{} rc{};",
            r.batch_index,
            r.num_batches,
            r.rows_seen,
            r.total_rows,
            r.multiplicity.to_bits(),
            r.uncertain_tuples,
            r.recomputations,
        );
        for row in r.table.rows() {
            for v in row.iter() {
                match v.as_f64() {
                    Some(f) => {
                        let _ = write!(s, "{:016x},", f.to_bits());
                    }
                    None => {
                        let _ = write!(s, "{v},");
                    }
                }
            }
        }
        for c in &r.estimates {
            let _ = write!(
                s,
                "e{},{}:{:016x}[",
                c.row,
                c.col,
                c.estimate.value.to_bits()
            );
            for rep in &c.estimate.replicas {
                let _ = write!(s, "{:016x},", rep.to_bits());
            }
            s.push(']');
        }
        let _ = write!(s, "|{:?}|", r.row_certain);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic stream: relative CI widths 9%, none, 4%, 0.5%, 2%, 0%.
    #[test]
    fn ci_batch_is_the_first_report_at_or_under_target() {
        let stream = [
            Some(0.09),
            None,
            Some(0.04),
            Some(0.005),
            Some(0.02),
            Some(0.0),
        ];
        let crossing = |target: f64| {
            let mut p = Progress::start(0, target);
            for rel in stream {
                p.report(rel);
            }
            let run = p.finish();
            assert_eq!(run.reports, 6);
            assert_eq!(run.gaps_ms.len(), 5);
            assert!(run.ttfe_ms <= run.tt_ci_ms && run.tt_ci_ms <= run.tt_exact_ms);
            run.ci_batch
        };
        assert_eq!(crossing(0.10), 0);
        assert_eq!(crossing(0.04), 2);
        assert_eq!(crossing(0.01), 3); // not 5: later widening does not un-cross
        assert_eq!(crossing(0.001), 5);
    }

    #[test]
    fn a_stream_that_never_tightens_is_charged_its_full_length() {
        let mut p = Progress::start(2, 0.01);
        p.report(Some(0.5));
        p.report(None);
        let run = p.finish();
        assert_eq!((run.kind, run.ci_batch), (2, 1));
        assert_eq!(run.tt_ci_ms, run.tt_exact_ms);
    }
}
