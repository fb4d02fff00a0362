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
//!
//! A producer publishes its trials as [`Trials`]: bare `f64` lanes when
//! every trial is `Float` or NULL, which a reference copies straight into
//! its lanes, and [`Value`]s otherwise. A context may also hold columns
//! that move with the lane — a group's aggregates, whose replicas are the
//! trials ([`LaneContext::column`]).

use gola_common::{Result, Value};

use crate::eval::{eval_binary_values, float_arith};
use crate::expr::{BinOp, Expr, SubqueryId, UnaryOp};
use crate::vector::num_total_key;

/// A scalar producer's value in each bootstrap trial.
#[derive(Debug, Clone)]
pub enum Trials {
    /// Every trial `Float` (`Some`) or NULL (`None`): no [`Value`] per
    /// trial, and a reference copies them straight into its lanes.
    Float(Vec<Option<f64>>),
    /// Trials holding some other type (`Int`, `Bool`, `Str`).
    Values(Vec<Value>),
}

/// No trials at all: every trial of a reference reads the point.
static NO_TRIALS: Trials = Trials::Values(Vec::new());

impl Trials {
    /// `values` as `Float` lanes when each is `Float` or NULL, else as
    /// they are.
    pub fn from_values(values: Vec<Value>) -> Trials {
        match values.iter().map(float_or_null).collect() {
            Some(xs) => Trials::Float(xs),
            None => Trials::Values(values),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Trials::Float(xs) => xs.len(),
            Trials::Values(vs) => vs.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trial `b`'s value, as `eval` reads it; `None` past the last trial.
    pub fn get(&self, b: usize) -> Option<Value> {
        match self {
            Trials::Float(xs) => xs.get(b).map(|x| x.map_or(Value::Null, Value::Float)),
            Trials::Values(vs) => vs.get(b).cloned(),
        }
    }
}

/// A scalar subquery's value for one key, at every mode: lane `0` reads
/// `point`, lane `1 + b` reads trial `b` (`point` again where the
/// producer published fewer trials).
#[derive(Debug, Clone, Copy)]
pub struct ScalarLanes<'a> {
    pub point: &'a Value,
    pub trials: &'a Trials,
}

impl ScalarLanes<'_> {
    /// A group the producer has not published: NULL in every lane.
    pub const NULL: ScalarLanes<'static> = ScalarLanes {
        point: &Value::Null,
        trials: &NO_TRIALS,
    };

    fn lane(&self, lane: usize) -> Value {
        let trial = lane.checked_sub(1).and_then(|b| self.trials.get(b));
        trial.unwrap_or_else(|| self.point.clone())
    }

    /// Every lane as `Float` lanes, copied straight from `Float` trials;
    /// `None` when the point or a trial is of another type.
    fn floats(&self, lanes: usize) -> Option<Vec<Option<f64>>> {
        let (Some(point), Trials::Float(ts)) = (float_or_null(self.point), self.trials) else {
            return None;
        };
        let mut xs = Vec::with_capacity(lanes);
        xs.push(point);
        xs.extend(ts.iter().take(lanes.saturating_sub(1)));
        xs.resize(lanes, point);
        Some(xs)
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

    /// Column `idx` in every lane when it moves with the lane (a group's
    /// aggregate, whose trials are its replicas); `None` for a column that
    /// is the same in every lane, which is read at lane `0`.
    fn column(&self, _idx: usize) -> Option<Lanes> {
        None
    }

    /// Can `expr`'s value differ between lanes? Every subquery reference
    /// can; so can a column [`column`](Self::column) moves.
    fn moves(&self, expr: &Expr) -> bool {
        expr.has_subquery_ref()
    }
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
        Expr::Column(idx) => match cx.column(*idx) {
            Some(lanes) => Ok(lanes),
            None => Ok(Lanes::Const(cx.eval_at(0, expr)?)),
        },
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
            if let Some(xs) = scalar.floats(lanes) {
                return Ok(Lanes::Float(xs));
            }
            let values: Vec<Value> = (0..lanes).map(|l| scalar.lane(l)).collect();
            Ok(match values.iter().map(float_or_null).collect() {
                Some(xs) => Lanes::Float(xs),
                None => Lanes::Values(values),
            })
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
            if !c.is_some_and(|c| const_arith(op, &mut xs, c, false)) {
                xs.iter_mut().for_each(|x| *x = lane(*x, c));
            }
            Lanes::Float(xs)
        }),
        (Lanes::Const(c), Lanes::Float(mut ys)) => numeric_view(&c).map(|c| {
            if !c.is_some_and(|c| const_arith(op, &mut ys, c, true)) {
                ys.iter_mut().for_each(|y| *y = lane(c, *y));
            }
            Lanes::Float(ys)
        }),
        _ => None,
    })
}

/// `x (op) c` in every lane `x` of `xs` — `c (op) x` with `c_left` — for
/// `+ − × ÷` and a constant `c` that is not NaN, computed in line. Equal
/// to [`float_arith`] bit for bit: IEEE arithmetic is exact up to operand
/// order only in which NaN payload a result carries when both operands
/// are NaN, and `c` is not. NULL lanes stay NULL. Returns `false`,
/// touching nothing, for `%` or a NaN `c`.
fn const_arith(op: BinOp, xs: &mut [Option<f64>], c: f64, c_left: bool) -> bool {
    if c.is_nan() {
        return false;
    }
    let each = |f: &dyn Fn(f64) -> Option<f64>, xs: &mut [Option<f64>]| {
        xs.iter_mut().for_each(|x| *x = x.and_then(f));
    };
    match (op, c_left) {
        (BinOp::Add, _) => xs.iter_mut().flatten().for_each(|x| *x += c),
        (BinOp::Mul, _) => xs.iter_mut().flatten().for_each(|x| *x *= c),
        (BinOp::Sub, false) => xs.iter_mut().flatten().for_each(|x| *x -= c),
        (BinOp::Sub, true) => xs.iter_mut().flatten().for_each(|x| *x = c - *x),
        (BinOp::Div, false) => each(&|x| (c != 0.0).then(|| x / c), xs),
        (BinOp::Div, true) => each(&|x| (x != 0.0).then(|| c / x), xs),
        _ => return false,
    }
    true
}

/// The fallback: `eval` the node itself, once per lane — or once in all
/// when nothing under it depends on the mode.
fn per_lane(expr: &Expr, cx: &dyn LaneContext) -> Result<Lanes> {
    if !cx.moves(expr) {
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
