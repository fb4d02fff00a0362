//! Aggregate functions for G-OLA.
//!
//! Aggregates here are **weighted**: every update carries a weight so the
//! same state type serves
//!
//! * exact batch execution (weight 1),
//! * G-OLA's multiset semantics `Q(Dᵢ, k/i)` — tuples update with weight 1
//!   and scale-sensitive aggregates (SUM/COUNT) multiply by the multiplicity
//!   `m = k/i` at *finalize* time, and
//! * poissonized bootstrap replicas — tuple `t` updates replica `b` with its
//!   deterministic `Poisson(1)` weight.
//!
//! [`replicated::ReplicatedStates`] bundles one main state plus `B` replica
//! states per aggregate and is the unit of incremental maintenance inside
//! every lineage block.

pub mod kind;
pub mod quantile;
pub mod replicated;
pub mod state;
pub mod udaf;

pub use kind::AggKind;
pub use replicated::{FoldScratch, ReplicatedStates};
pub use state::AggState;
pub use udaf::{Udaf, UdafRegistry, UdafState};
