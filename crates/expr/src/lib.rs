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
//! The concrete values/ranges behind those references are supplied by an
//! [`eval::EvalContext`], so the same expression tree runs unchanged under
//! the exact batch engine, classical delta maintenance, and G-OLA.

pub mod eval;
pub mod expr;
pub mod functions;
pub mod interval;
pub mod lanes;
pub mod tri;
pub mod types;
pub mod vector;

pub use eval::{eval, eval_predicate, eval_range, eval_tri, EvalContext, ExactContext};
pub use expr::{BinOp, Expr, SubqueryId, UnaryOp};
pub use functions::{FunctionRegistry, ScalarFn};
pub use interval::RangeVal;
pub use tri::Tri;
