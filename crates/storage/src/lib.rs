//! Storage substrate for G-OLA: an in-memory **columnar chunk store**, a
//! table catalog, random shuffling, the **mini-batch partitioner** at the
//! heart of the G-OLA execution model (paper §2.1–2.2) — one schedule
//! type, optionally stratified or growing — CSV import/export, and the
//! **streaming ingest** path: appendable [`StreamTable`]s sealing into
//! write-once columnar segment files, which a growing schedule exposes as
//! extra mini-batches (DESIGN.md §3.12).

// The determinism contract, checked by clippy (DESIGN.md §3.6).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp
)]

pub mod catalog;
pub mod chunk;
pub mod csv;
mod metrics;
pub mod partition;
pub mod segment;
pub mod shuffle;
pub mod stream;
pub mod table;

// Unit tests of the stratified and growing schedules, under the module
// paths (and so the test ids) they had before the partitioners merged.
#[cfg(test)]
#[path = "partition_growing_tests.rs"]
mod growing;
#[cfg(test)]
#[path = "partition_stratified_tests.rs"]
mod stratified;

pub use catalog::Catalog;
pub use chunk::ColumnChunk;
pub use partition::{
    GrowingPartitioner, MiniBatch, MiniBatchPartitioner, Partitioner, StratifiedPartitioner,
};
pub use stream::{SealedSegment, StreamTable};
pub use table::{Table, TableBuilder, TABLE_CHUNK_ROWS};
