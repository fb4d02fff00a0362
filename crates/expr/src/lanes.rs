//! Lane-wise evaluation of a subquery-dependent expression.
//!
//! The online executor re-evaluates the same expression under many
//! *modes* — at the producers' point estimates and at each bootstrap
//! trial's values. [`crate::eval::eval`] answers one mode per tree walk, and
//! every walk re-evaluates the reference keys, looks the same published
//! entry up again and clones a [`Value`] per node. [`eval_lanes`] walks the
//! tree **once** and carries one slot per mode — a *lane*; lane `0` is the
//! point estimate, lane `1 + b` is trial `b` — resolving each
//! [`Expr::ScalarRef`] with a single lookup.
//!
//! The contract is bit-identity with `eval` run once per lane. Only what is
//! exact by construction is done lane by lane: arithmetic (and unary minus)
//! whose operands are `Float`/`NULL` in every lane, which is plain `f64`
//! arithmetic through the very function `eval` uses. Any other node — an
//! `Int` operand (integer arithmetic wraps and divides differently), a
//! function, `CASE`, a cast, a predicate — is evaluated by `eval` itself,
//! once per lane, and rejoins the lane walk if it came out `Float`/`NULL`.
//! Property-tested in `tests/proptests.rs::lane_equivalence`.

use gola_common::{Result, Value};

use crate::eval::{eval_binary_values, float_arith};
use crate::expr::{BinOp, Expr, SubqueryId, UnaryOp};
use crate::vector::num_total_key;

/// A scalar subquery's value for one key, at every mode: lane `0` reads
/// `point`, lane `1 + b` reads `trials[b]` (`point` again where the
/// producer published fewer trials).
#[derive(Debug, Clone, Copy)]
pub struct ScalarLanes<'a> {
    pub point: &'a Value,
    pub trials: &'a [Value],
}

impl ScalarLanes<'_> {
    /// A group the producer has not published: NULL in every lane.
    pub const NULL: ScalarLanes<'static> = ScalarLanes {
        point: &Value::Null,
        trials: &[],
    };

    fn lane(&self, lane: usize) -> &Value {
        match lane.checked_sub(1) {
            Some(b) => self.trials.get(b).unwrap_or(self.point),
            None => self.point,
        }
    }
}

/// Supplies one row under every evaluation mode at once.
pub trait LaneContext {
    /// Number of lanes: the point estimate plus every trial.
    fn lanes(&self) -> usize;

    /// [`crate::eval::eval`] of `expr` under lane `lane`'s own context.
    /// Row-only expressions are evaluated at lane `0`.
    fn eval_at(&self, lane: usize, expr: &Expr) -> Result<Value>;

    /// Scalar subquery `id`'s published value for `key`, every lane of it.
    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<ScalarLanes<'_>>;
}

/// An expression's value in every lane.
#[derive(Debug, Clone)]
pub enum Lanes {
    /// The same value in every lane (literals, row columns and what is
    /// computed from them alone).
    Const(Value),
    /// `Float` (`Some`) or NULL (`None`) per lane.
    Float(Vec<Option<f64>>),
    /// Per lane, with at least one lane that is neither `Float` nor NULL.
    Values(Vec<Value>),
}

impl Lanes {
    /// Lane `lane`'s value, as `eval` would return it.
    pub fn value(&self, lane: usize) -> Value {
        match self {
            Lanes::Const(v) => v.clone(),
            Lanes::Float(xs) => xs[lane].map_or(Value::Null, Value::Float),
            Lanes::Values(vs) => vs[lane].clone(),
        }
    }

    /// Append every lane as a numeric comparison sees it: lane `l`'s
    /// [`num_total_key`] to `keys` and its validity to `valid` (`1`, or `0`
    /// for NULL, whose key is `0`). That is all a comparison needs, since
    /// [`Value::total_cmp`] orders `Int`, `Float` and `Bool` through their
    /// [`Value::as_f64`] view in [`crate::vector::num_total_cmp`]'s order.
    /// Returns `false`, appending nothing, when some lane holds a string,
    /// which compares by other rules.
    pub fn total_order_keys(
        &self,
        lanes: usize,
        keys: &mut Vec<i64>,
        valid: &mut Vec<u32>,
    ) -> bool {
        let key = |x: Option<f64>| x.map_or((0, 0), |x| (num_total_key(x), 1));
        let start = keys.len();
        match self {
            Lanes::Const(v) => {
                let Some(x) = numeric_view(v) else {
                    return false;
                };
                let (k, ok) = key(x);
                keys.resize(start + lanes, k);
                valid.resize(start + lanes, ok);
            }
            Lanes::Float(xs) => {
                keys.extend(xs.iter().map(|x| x.map_or(0, num_total_key)));
                valid.extend(xs.iter().map(|x| u32::from(x.is_some())));
            }
            Lanes::Values(vs) => {
                for v in vs {
                    let Some(x) = numeric_view(v) else {
                        keys.truncate(start);
                        valid.truncate(start);
                        return false;
                    };
                    let (k, ok) = key(x);
                    keys.push(k);
                    valid.push(ok);
                }
            }
        }
        true
    }
}

/// Evaluate `expr` in every lane of `cx` with one tree walk; equal, lane
/// for lane and bit for bit, to [`crate::eval::eval`] under each lane's
/// context. Fails if `eval` fails in some lane.
pub fn eval_lanes(expr: &Expr, cx: &dyn LaneContext) -> Result<Lanes> {
    match expr {
        Expr::Literal(v) => Ok(Lanes::Const(v.clone())),
        Expr::Column(_) => Ok(Lanes::Const(cx.eval_at(0, expr)?)),
        Expr::ScalarRef { id, key } => {
            let mut at = Vec::with_capacity(key.len());
            for k in key {
                match eval_lanes(k, cx)? {
                    Lanes::Const(v) => at.push(v),
                    // A key that itself moves with the mode picks a
                    // different group per lane.
                    _ => return per_lane(expr, cx),
                }
            }
            let scalar = cx.scalar(*id, &at)?;
            let lanes = cx.lanes();
            let mut xs = Vec::with_capacity(lanes);
            for l in 0..lanes {
                match float_or_null(scalar.lane(l)) {
                    Some(x) => xs.push(x),
                    None => {
                        let values = (0..lanes).map(|l| scalar.lane(l).clone());
                        return Ok(Lanes::Values(values.collect()));
                    }
                }
            }
            Ok(Lanes::Float(xs))
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr: inner,
        } => match eval_lanes(inner, cx)? {
            Lanes::Float(mut xs) => {
                xs.iter_mut().for_each(|x| *x = x.map(|x| -x));
                Ok(Lanes::Float(xs))
            }
            _ => per_lane(expr, cx),
        },
        Expr::Binary { op, left, right } if op.is_arithmetic() => {
            let (l, r) = (eval_lanes(left, cx)?, eval_lanes(right, cx)?);
            match arith(*op, l, r)? {
                Some(out) => Ok(out),
                None => per_lane(expr, cx),
            }
        }
        _ => per_lane(expr, cx),
    }
}

/// `l (op) r` lane by lane where that is plain float arithmetic: `None`
/// when an operand is not `Float`/NULL lanes or a numeric constant.
fn arith(op: BinOp, l: Lanes, r: Lanes) -> Result<Option<Lanes>> {
    let lane = |a: Option<f64>, b: Option<f64>| float_arith(op, a?, b?);
    Ok(match (l, r) {
        (Lanes::Const(a), Lanes::Const(b)) => Some(Lanes::Const(eval_binary_values(op, &a, &b)?)),
        (Lanes::Float(mut xs), Lanes::Float(ys)) => {
            xs.iter_mut().zip(ys).for_each(|(x, y)| *x = lane(*x, y));
            Some(Lanes::Float(xs))
        }
        // A constant operand meets `Float` lanes as `eval` would coerce it:
        // NULL poisons every lane, `Int`/`Bool` widen to `f64`.
        (Lanes::Float(mut xs), Lanes::Const(c)) => numeric_view(&c).map(|c| {
            xs.iter_mut().for_each(|x| *x = lane(*x, c));
            Lanes::Float(xs)
        }),
        (Lanes::Const(c), Lanes::Float(mut ys)) => numeric_view(&c).map(|c| {
            ys.iter_mut().for_each(|y| *y = lane(c, *y));
            Lanes::Float(ys)
        }),
        _ => None,
    })
}

/// The fallback: `eval` the node itself, once per lane — or once in all
/// when nothing under it depends on the mode.
fn per_lane(expr: &Expr, cx: &dyn LaneContext) -> Result<Lanes> {
    if !expr.has_subquery_ref() {
        return Ok(Lanes::Const(cx.eval_at(0, expr)?));
    }
    let lanes = (0..cx.lanes()).map(|l| cx.eval_at(l, expr));
    let values: Vec<Value> = lanes.collect::<Result<_>>()?;
    Ok(match values.iter().map(float_or_null).collect() {
        Some(xs) => Lanes::Float(xs),
        None => Lanes::Values(values),
    })
}

/// A value's [`Value::as_f64`] view (inner `None` = NULL); `None` for a
/// string, which neither computes nor compares through `f64`.
pub fn numeric_view(v: &Value) -> Option<Option<f64>> {
    match v {
        Value::Str(_) => None,
        v => Some(v.as_f64()),
    }
}

/// A value as a `Float` lane holds it; `None` for any other type.
fn float_or_null(v: &Value) -> Option<Option<f64>> {
    match v {
        Value::Float(x) => Some(Some(*x)),
        Value::Null => Some(None),
        _ => None,
    }
}
