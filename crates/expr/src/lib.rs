//! Expression layer of the G-OLA engine.
//!
//! Three evaluation modes drive the G-OLA execution model (paper §3.2):
//!
//! * **Point evaluation** ([`eval::eval`]) — evaluate an expression against a
//!   row using the *current running estimates* of any inner-aggregate
//!   references. Used for the lazily-updated answers over uncertain tuples.
//! * **Interval evaluation** ([`interval`]) — propagate *variation ranges*
//!   `R(u)` through arithmetic so a predicate `x θ f(u)` can be classified.
//! * **Three-valued predicate evaluation** ([`tri`]) — classify each tuple at
//!   every predicate into deterministic-true / deterministic-false /
//!   uncertain by range overlap (`R(x) ∩ R(y) = ∅` ⇒ deterministic).
//!
//! Inner aggregates appear as [`Expr::ScalarRef`] (a scalar produced by
//! another lineage block, optionally keyed by correlation columns) and
//! [`Expr::InSubquery`] (membership in another block's filtered group set).
//! An [`EvalContext`] supplies the row; its [`Resolver`] supplies the
//! values behind those references — a scalar and a membership, plus a
//! variation range and a three-valued membership that default to the exact
//! ones. The batch engine's resolver reads final subquery values and the
//! online executor's reads the producers' publications in one mode (point,
//! one bootstrap trial, or classification), so the same expression tree
//! runs unchanged under both.

// The determinism contract, checked by clippy (DESIGN.md §3.6).
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp
)]

pub mod eval;
pub mod expr;
pub mod functions;
pub mod interval;
pub mod lanes;
pub mod tri;
pub mod types;
pub mod vector;

pub use eval::{
    eval, eval_predicate, eval_range, eval_tri, EvalContext, NoResolver, Resolver, RowContext,
};
pub use expr::{BinOp, Expr, SubqueryId, UnaryOp};
pub use functions::{FunctionRegistry, ScalarFn};
pub use interval::RangeVal;
pub use tri::Tri;
