//! Exact batch query execution.
//!
//! [`BatchEngine`] executes a [`gola_plan::QueryGraph`] over whole tables —
//! no sampling, no mini-batches, no error estimation. It plays two roles in
//! the reproduction:
//!
//! * the **"traditional query engine"** baseline of the paper's Figure 3(a)
//!   (the vertical bar G-OLA's online answers are compared against), and
//! * the **ground truth** for differential testing: after the last
//!   mini-batch G-OLA must produce exactly this engine's answer.
//!
//! It runs on the catalog's column chunks with the online path's kernels:
//! filters through `gola_expr::vector::predicate_mask`, aggregates through
//! `ReplicatedStates::fold_run` at zero replicas and the same `AggState`
//! finalize. So a fast baseline and the online answer share their
//! arithmetic.
//!
//! Its operators — [`HashIndex`] (a join's build and probe), [`filter`]
//! and [`aggregate`] — are also the online executor's for everything
//! exact: a static producer (a subquery over a table that is not streamed)
//! runs on them once, and every streaming block joins its batches against
//! its dimensions through a `HashIndex`. What stays *independent* is the
//! plan: the engine interprets the logical plan tree, not the meta-plan
//! blocks the online executor uses, so agreement between the two is still
//! meaningful evidence that the block decomposition is right.
//!
//! The row-at-a-time interpreter the operators replaced is kept, unchanged,
//! as the test-only `executor::row_oracle`; the in-crate tests hold the
//! columnar engine to it bit for bit.

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

pub mod executor;

pub use executor::{aggregate, filter, BatchEngine, HashIndex};
