//! The G-OLA mini-batch online execution engine (the paper's contribution).
//!
//! # Execution model (paper §2)
//!
//! The streamed fact table is randomly partitioned into `k` mini-batches.
//! After batch `i` the engine reports `Q(Dᵢ, k/i)` — the query evaluated
//! over the data seen so far under multiset semantics with multiplicity
//! `m = k/i` — together with a poissonized-bootstrap confidence interval.
//! The user stops whenever the accuracy suffices.
//!
//! # Delta maintenance (paper §3)
//!
//! Each lineage block maintains, per group, bootstrap-replicated aggregate
//! states. At every predicate that references another block's (uncertain)
//! output, incoming tuples are classified by **variation-range overlap**:
//!
//! * deterministic-true → folded into the aggregate states forever,
//! * deterministic-false → dropped forever,
//! * uncertain → cached in the block's **uncertain set** `Uᵢ` with its
//!   lineage projection, and re-examined every batch.
//!
//! Per-batch work is `|ΔDᵢ| + |Uᵢ₋₁|` instead of `|Dᵢ|` — the paper's
//! near-constant per-batch cost.
//!
//! Classification uses **committed envelopes**: the intersection of every
//! variation range a decision was made against. The publish stage monitors
//! published values (and each bootstrap replica) against the envelopes that
//! consumers actually relied on; a violation triggers a counted,
//! failure-driven recomputation of the affected downstream blocks (paper
//! §3.2's recovery mechanism, scheduled by the Query Controller of §4).
//!
//! # Stages
//!
//! One module per stage of the per-batch loop, named as the obs spans and
//! [`BatchTiming`] name them: [`join`] → `classify` → `fold` → `publish` →
//! `recover` → [`report`], driven by [`step`]. DESIGN.md §3.9 tabulates
//! what each one reads, returns and may mutate.

// The determinism contract, checked by clippy (DESIGN.md §3.6).
#![deny(
    clippy::iter_over_hash_type,
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

pub(crate) mod classify;
pub mod compiled;
pub mod config;
pub(crate) mod contract;
pub(crate) mod fold;
pub(crate) mod groups;
pub mod join;
pub(crate) mod metrics;
pub mod pool;
pub(crate) mod publish;
pub(crate) mod recover;
pub mod report;
pub mod runtime;
pub mod sched;
pub mod session;
pub mod step;

pub use config::OnlineConfig;
pub use gola_plan::QueryContract;
pub use pool::WorkerPool;
pub use report::{BatchReport, BatchTiming, CellEstimate, ContractProgress, ContractStop};
pub use session::{OnlineExecution, OnlineSession, PreparedQuery};
pub use step::OnlineExecutor;
