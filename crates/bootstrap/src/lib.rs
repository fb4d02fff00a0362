//! Poissonized bootstrap error estimation for online aggregation.
//!
//! G-OLA uses the bootstrap (paper §2.2) to attach confidence intervals to
//! every running result and — crucially — to approximate the **variation
//! range** `R(u)` of every inner aggregate `u` (paper §3.2), which drives
//! the uncertain/deterministic partitioning.
//!
//! Following BlinkDB (which FluoDB extends), resampling is *poissonized*:
//! instead of drawing `n` tuples with replacement per trial, every tuple
//! receives an independent `Poisson(1)` weight per trial. This makes the
//! bootstrap **incremental** — each mini-batch updates all `B` replica
//! states in one pass — and, because the weights are derived from
//! `hash(tuple_id, trial, seed)` ([`gola_common::rng::poisson_weight`]),
//! **replayable**: re-touching a tuple during uncertain-set re-evaluation or
//! failure-triggered recomputation reproduces the same weight.

// The determinism contract, checked by clippy (DESIGN.md §3.6).
#![deny(
    clippy::iter_over_hash_type,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp
)]

pub mod ci;
pub mod range_policy;
pub mod weights;

pub use ci::{ConfidenceInterval, Estimate};
pub use range_policy::{EpsilonPolicy, VariationRange};
pub use weights::BootstrapSpec;
