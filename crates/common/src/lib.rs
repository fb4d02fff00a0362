//! Shared foundation types for the G-OLA engine.
//!
//! This crate defines the dynamically-typed [`Value`] model, [`Schema`]
//! metadata, [`Row`] storage, the crate-wide [`Error`] type, a fast
//! non-cryptographic hasher used throughout the engine, deterministic RNG
//! utilities (including the hash-derived Poisson sampler that powers
//! incremental poissonized bootstrap), and small statistics helpers.
//!
//! Everything here is dependency-free so the rest of the workspace can build
//! on a stable, minimal base.

pub mod column;
pub mod error;
pub mod fsum;
pub mod hash;
pub mod json;
pub mod rng;
pub mod row;
pub mod schema;
pub mod stats;
pub mod timing;
pub mod value;

pub use column::{Bitmap, Column, ColumnBuilder, ColumnData};

/// Chunk-relative row index as `u32`, checked. Silent `usize → u32`
/// truncation of a row count is exactly the bug class `lossy-cast-audit`
/// exists for; chunk framing keeps real indices far below `u32::MAX`, so
/// an overflow here is a framing bug and must fail loudly.
#[inline]
pub fn row_u32(n: usize) -> u32 {
    u32::try_from(n).expect("row index exceeds u32::MAX (chunk framing bug)")
}
pub use error::{Error, Result};
pub use fsum::{ExactSum, ExactVariance};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use row::Row;
pub use schema::{Field, Schema};
pub use timing::Stopwatch;
pub use value::{cmp_values, DataType, Value};
