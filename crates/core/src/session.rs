//! The user-facing online session API.

use std::sync::Arc;
use std::task::{ready, Poll, Waker};

use gola_common::{Error, Result};
use gola_plan::{MetaPlan, QueryContract, QueryGraph};
use gola_storage::{Catalog, Partitioner, Table};

use crate::config::OnlineConfig;
use crate::contract::ContractDriver;
use crate::join::WeightStore;
use crate::report::BatchReport;
use crate::step::{block_on, OnlineExecutor};

/// A catalog plus an online configuration; the entry point for running SQL
/// with progressively-refined answers.
pub struct OnlineSession {
    catalog: Catalog,
    config: OnlineConfig,
}

/// A compiled query: the resolved graph, its lineage-block meta plan, and
/// the chosen stream table.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub graph: QueryGraph,
    pub meta: MetaPlan,
    pub stream_table: String,
}

impl OnlineSession {
    pub fn new(catalog: Catalog, config: OnlineConfig) -> OnlineSession {
        OnlineSession { catalog, config }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Compile `sql` to a meta query plan. The streamed table is the
    /// largest scanned table — the paper's default of streaming the fact
    /// table while reading small dimension tables in entirety (§2).
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery> {
        let graph = gola_sql::compile(sql, &self.catalog)?;
        let mut tables = Vec::new();
        graph.root.scanned_tables(&mut tables);
        for sq in &graph.subqueries {
            sq.plan.scanned_tables(&mut tables);
        }
        let mut best: Option<(String, usize)> = None;
        for t in tables {
            let rows = self.catalog.get(&t)?.num_rows();
            if best.as_ref().is_none_or(|(_, n)| rows > *n) {
                best = Some((t, rows));
            }
        }
        let stream_table = best.ok_or_else(|| Error::plan("query scans no tables"))?.0;
        let meta = MetaPlan::compile(&graph, &stream_table)?;
        Ok(PreparedQuery {
            graph,
            meta,
            stream_table,
        })
    }

    /// Compile and start online execution; iterate the result for one
    /// [`BatchReport`] per mini-batch.
    pub fn execute_online(&self, sql: &str) -> Result<OnlineExecution> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared)
    }

    /// Start online execution of an already-prepared query on a worker
    /// pool of its own, sized by [`OnlineConfig::threads`], with an empty
    /// [`WeightStore`] (every weight from the kernel).
    pub fn execute_prepared(&self, prepared: &PreparedQuery) -> Result<OnlineExecution> {
        let pool = OnlineExecutor::own_pool(&self.config);
        self.execute_prepared_with_pool(prepared, pool, Arc::default())
    }

    /// Start online execution on a shared worker pool and weight store
    /// (the multi-tenant service's entry point: every admitted session
    /// time-slices one pool instead of spawning its own workers, and reads
    /// the weights an earlier session generated). Results are unaffected —
    /// the threads=1/N bit-identity contract means pool size never reaches
    /// a report, and the store memoizes a pure function.
    pub fn execute_prepared_with_pool(
        &self,
        prepared: &PreparedQuery,
        pool: Arc<crate::WorkerPool>,
        store: Arc<WeightStore>,
    ) -> Result<OnlineExecution> {
        // A stream-backed scan table makes this a *growing* query: the
        // base schedule covers the sealed snapshot at start, and segments
        // sealed afterwards surface as extra mini-batches (moving N).
        let live = self.catalog.stream(&prepared.stream_table);
        let table = self.catalog.get(&prepared.stream_table)?;
        // Never ask for more batches than rows.
        let k = self.config.num_batches.min(table.num_rows()).max(1);
        let seed = self.config.partition_seed;
        let partitioner = Arc::new(match (&self.config.stratify_column, live) {
            (Some(_), Some(_)) => {
                // Stratified allocation needs the whole population up
                // front; a growing stream contradicts that by definition.
                return Err(Error::config(
                    "stratified partitioning is not supported over a growing stream",
                ));
            }
            (None, Some(stream)) => Partitioner::growing(Arc::clone(stream), k, seed)?,
            (Some(col), None) => Partitioner::stratified(table, col, k, seed)?,
            (None, None) => Partitioner::new(table, k, seed)?,
        });
        let executor = OnlineExecutor::with_pool(
            &self.catalog,
            prepared.meta.clone(),
            partitioner,
            self.config.clone(),
            pool,
            store,
        )?;
        // A SQL-level contract wins over the config-level default.
        let contract = prepared.meta.contract.or(self.config.contract);
        Ok(OnlineExecution {
            executor,
            driver: contract.map(ContractDriver::new),
        })
    }

    /// Execute `sql` exactly with the batch engine (the baseline / ground
    /// truth).
    pub fn execute_exact(&self, sql: &str) -> Result<Table> {
        let graph = gola_sql::compile(sql, &self.catalog)?;
        gola_engine::BatchEngine::new(&self.catalog).execute(&graph)
    }
}

/// A running online query. Each `next()` processes one mini-batch (or, for
/// deadline-contracted runs, a coalesced round of them) and yields the
/// refined answer; drop it at any time to stop the query. `poll_next` is
/// the same without waiting for a stream to grow. When the query
/// carries an `ERROR`/`WITHIN` contract the iterator ends at the
/// contract's stopping report (flagged in [`BatchReport::contract`])
/// instead of running every batch.
pub struct OnlineExecution {
    executor: OnlineExecutor,
    driver: Option<ContractDriver>,
}

impl OnlineExecution {
    /// The underlying executor (telemetry: uncertain-set sizes, recompute
    /// counts, progress).
    pub fn executor(&self) -> &OnlineExecutor {
        &self.executor
    }

    /// The contract this execution honors, if any.
    pub fn contract(&self) -> Option<QueryContract> {
        self.driver.as_ref().map(ContractDriver::contract)
    }

    /// `true` once the execution will yield no further reports — the
    /// contract stopped it, or every mini-batch has been processed. The
    /// scheduler polls this between quanta.
    pub fn is_complete(&self) -> bool {
        self.driver.as_ref().is_some_and(ContractDriver::is_stopped) || self.executor.is_finished()
    }

    /// The next report without waiting: one executor step, or — under a
    /// deadline contract — a coalesced round of steps sized to the
    /// remaining budget, which ends early at a batch that is not visible
    /// yet. `Pending` when the query has caught up with a stream that is
    /// still open (`waker` is registered for the stream's next seal or its
    /// close); `Ready(None)` once the iterator has ended, which a stream
    /// that closes with nothing new also ends, with no error.
    pub fn poll_next(&mut self, waker: &Waker) -> Poll<Option<Result<BatchReport>>> {
        if self.is_complete() {
            return Poll::Ready(None);
        }
        let Some(driver) = &mut self.driver else {
            return self.executor.poll_step(waker);
        };
        driver.start_clock();
        let remaining = self.executor.num_batches() - self.executor.batches_done();
        let round = driver.batches_this_round(remaining);
        let mut report = match ready!(self.executor.poll_step(waker)) {
            Some(Ok(report)) => report,
            end => return Poll::Ready(end),
        };
        driver.note_batch(report.batch_time.as_secs_f64());
        for _ in 1..round {
            report = match self.executor.poll_step(waker) {
                Poll::Ready(Some(Ok(report))) => report,
                Poll::Ready(Some(Err(e))) => return Poll::Ready(Some(Err(e))),
                Poll::Ready(None) | Poll::Pending => break,
            };
            driver.note_batch(report.batch_time.as_secs_f64());
        }
        driver.observe(&mut report, self.executor.is_finished());
        Poll::Ready(Some(Ok(report)))
    }

    /// Run until the iterator ends — the final (exact) batch, or the
    /// contract's stopping report. Returns the last report.
    pub fn run_to_completion(mut self) -> Result<BatchReport> {
        let mut last = None;
        for report in &mut self {
            last = Some(report?);
        }
        last.ok_or_else(|| Error::exec("query had no batches"))
    }

    /// Run until the primary estimate's relative standard deviation drops
    /// below `target` (or data runs out). Returns the stopping report.
    pub fn run_until_rel_stddev(mut self, target: f64) -> Result<BatchReport> {
        let mut last: Option<BatchReport> = None;
        for report in &mut self {
            let report = report?;
            let done = report.primary_rel_stddev().is_some_and(|rsd| rsd <= target);
            last = Some(report);
            if done {
                break;
            }
        }
        last.ok_or_else(|| Error::exec("query had no batches"))
    }
}

impl Iterator for OnlineExecution {
    type Item = Result<BatchReport>;

    /// [`OnlineExecution::poll_next`], waiting on the calling thread while
    /// the query has caught up with an open stream.
    fn next(&mut self) -> Option<Self::Item> {
        block_on(|waker| self.poll_next(waker))
    }
}
