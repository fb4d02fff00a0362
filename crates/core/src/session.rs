//! The user-facing online session API: the one way to start an
//! [`OnlineExecution`].
//!
//! [`OnlineSession::prepare`] compiles SQL and
//! [`OnlineSession::prepare_graph`] takes a graph bound elsewhere (with
//! custom function or UDAF registries); either way the session picks the
//! stream table, and [`OnlineSession::execute_prepared`] builds the batch
//! schedule — uniform, stratified on
//! [`OnlineConfig::stratify_column`], or growing over a stream-backed
//! table — and the execution, which honors the query's contract.

use std::sync::Arc;

use gola_common::{Error, Result};
use gola_plan::{MetaPlan, QueryGraph};
use gola_storage::catalog::Entry;
use gola_storage::{Catalog, Partitioner, Table};

use crate::config::OnlineConfig;
use crate::join::WeightStore;
use crate::pool::WorkerPool;
use crate::step::OnlineExecution;

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

    /// Compile `sql` to a meta query plan (see
    /// [`OnlineSession::prepare_graph`]).
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery> {
        self.prepare_graph(gola_sql::compile(sql, &self.catalog)?)
    }

    /// Plan an already bound query graph — one bound with custom function
    /// or UDAF registries. The streamed table is the largest scanned table
    /// — the paper's default of streaming the fact table while reading
    /// small dimension tables in entirety (§2).
    pub fn prepare_graph(&self, graph: QueryGraph) -> Result<PreparedQuery> {
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
    /// [`BatchReport`](crate::BatchReport) per mini-batch.
    pub fn execute_online(&self, sql: &str) -> Result<OnlineExecution> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared)
    }

    /// Start online execution of an already-prepared query on a worker
    /// pool of its own, sized by [`OnlineConfig::threads`], with an empty
    /// [`WeightStore`] (every weight from the kernel).
    pub fn execute_prepared(&self, prepared: &PreparedQuery) -> Result<OnlineExecution> {
        let pool = Arc::new(WorkerPool::new(self.config.threads));
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
        pool: Arc<WorkerPool>,
        store: Arc<WeightStore>,
    ) -> Result<OnlineExecution> {
        // A stream-backed scan table makes this a *growing* query: the
        // base schedule covers the sealed snapshot at start, and segments
        // sealed afterwards surface as extra mini-batches (moving N).
        let entry = self.catalog.entry(&prepared.stream_table)?;
        let table = entry.table()?;
        let live = match entry {
            Entry::Stream(stream) => Some(stream),
            Entry::Static(_) => None,
        };
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
        OnlineExecution::with_pool(
            &self.catalog,
            prepared.meta.clone(),
            partitioner,
            self.config.clone(),
            pool,
            store,
        )
    }

    /// Execute `sql` exactly with the batch engine (the baseline / ground
    /// truth).
    pub fn execute_exact(&self, sql: &str) -> Result<Table> {
        let graph = gola_sql::compile(sql, &self.catalog)?;
        gola_engine::BatchEngine::new(&self.catalog).execute(&graph)
    }
}
