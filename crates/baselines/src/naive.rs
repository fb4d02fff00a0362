//! Naive per-batch recomputation.
//!
//! The simplest online strategy: after every mini-batch, run the whole
//! query from scratch on the data seen so far with the exact engine. No
//! incremental state, no error estimation — a pure latency baseline.

use std::sync::Arc;
use std::time::Duration;

use gola_common::timing::Stopwatch;

use gola_common::{Error, Result, Row};
use gola_engine::BatchEngine;
use gola_plan::QueryGraph;
use gola_storage::{Catalog, Partitioner, Table};

/// Re-runs the exact engine on the seen prefix after every batch.
pub struct NaiveExecutor {
    catalog: Catalog,
    graph: QueryGraph,
    stream_table: String,
    partitioner: Arc<Partitioner>,
    seen: Vec<Row>,
    batches_done: usize,
    cumulative: Duration,
}

/// A minimal per-batch result for the naive baseline.
#[derive(Debug, Clone)]
pub struct NaiveReport {
    pub batch_index: usize,
    pub num_batches: usize,
    pub rows_seen: usize,
    pub table: Table,
    pub batch_time: Duration,
    pub cumulative_time: Duration,
}

impl NaiveExecutor {
    pub fn new(
        catalog: &Catalog,
        graph: QueryGraph,
        stream_table: &str,
        partitioner: Arc<Partitioner>,
    ) -> Result<NaiveExecutor> {
        if !catalog.contains(stream_table) {
            return Err(Error::catalog(format!(
                "unknown stream table '{stream_table}'"
            )));
        }
        Ok(NaiveExecutor {
            catalog: catalog.clone(),
            graph,
            stream_table: stream_table.to_ascii_lowercase(),
            partitioner,
            seen: Vec::new(),
            batches_done: 0,
            cumulative: Duration::ZERO,
        })
    }

    pub fn is_finished(&self) -> bool {
        self.batches_done == self.partitioner.num_batches()
    }

    pub fn step(&mut self) -> Result<NaiveReport> {
        if self.is_finished() {
            return Err(Error::exec("all mini-batches already processed"));
        }
        let start = Stopwatch::start();
        let i = self.batches_done;
        let batch = self.partitioner.batch(i);
        self.seen.extend(batch.rows());

        // Swap in the seen prefix as the stream table and re-run exactly.
        let schema = Arc::clone(self.partitioner.table().schema());
        let prefix = Arc::new(Table::new_unchecked(schema, self.seen.clone()));
        let mut catalog = self.catalog.clone();
        catalog.register_or_replace(&self.stream_table, prefix);
        let table = BatchEngine::new(&catalog).execute(&self.graph)?;

        self.batches_done += 1;
        let elapsed = start.elapsed();
        self.cumulative += elapsed;
        Ok(NaiveReport {
            batch_index: i,
            num_batches: self.partitioner.num_batches(),
            rows_seen: self.seen.len(),
            table,
            batch_time: elapsed,
            cumulative_time: self.cumulative,
        })
    }
}
