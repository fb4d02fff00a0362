//! # G-OLA — Generalized On-Line Aggregation
//!
//! A from-scratch Rust reproduction of *G-OLA: Generalized On-Line
//! Aggregation for Interactive Analysis on Big Data* (SIGMOD 2015).
//!
//! This facade crate re-exports the whole workspace under one name. The
//! typical entry point is [`core::OnlineSession`]:
//!
//! ```no_run
//! use g_ola::prelude::*;
//!
//! # fn main() -> gola_common::Result<()> {
//! let sessions = gola_workloads::conviva::ConvivaGenerator::default().generate(100_000);
//! let mut catalog = Catalog::new();
//! catalog.register("sessions", std::sync::Arc::new(sessions))?;
//!
//! let session = OnlineSession::new(catalog, OnlineConfig::default());
//! let query = "SELECT AVG(play_time) FROM sessions \
//!              WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";
//! for report in session.execute_online(query)? {
//!     let report = report?;
//!     println!("{report}");
//!     if report.primary_rel_stddev().unwrap_or(f64::MAX) < 0.01 {
//!         break; // user is satisfied — stop the query (OLA contract)
//!     }
//! }
//! # Ok(())
//! # }
//! ```

pub use gola_agg as agg;
pub use gola_bootstrap as bootstrap;
pub use gola_common as common;
pub use gola_core as core;
pub use gola_engine as engine;
pub use gola_expr as expr;
pub use gola_obs as obs;
pub use gola_plan as plan;
pub use gola_sql as sql;
pub use gola_storage as storage;
pub use gola_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use gola_common::{DataType, Error, Result, Row, Schema, Value};
    pub use gola_core::{BatchReport, ContractStop, OnlineConfig, OnlineSession};
    pub use gola_engine::BatchEngine;
    pub use gola_plan::QueryContract;
    pub use gola_storage::{Catalog, Partitioner, Table};
}
