//! Exact batch query execution.
//!
//! [`BatchEngine`] interprets a [`gola_plan::QueryGraph`] directly over fully
//! materialized tables — no sampling, no mini-batches, no error estimation.
//! It plays two roles in the reproduction:
//!
//! * the **"traditional query engine"** baseline of the paper's Figure 3(a)
//!   (the vertical bar G-OLA's online answers are compared against), and
//! * the **ground truth** for differential testing: after the last
//!   mini-batch G-OLA must produce exactly this engine's answer.
//!
//! It is deliberately an *independent* implementation: it executes the
//! logical plan tree, not the meta-plan blocks the online executor uses, so
//! agreement between the two is meaningful evidence of correctness.

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

pub use executor::BatchEngine;
