//! Expression evaluation: point, interval, and three-valued.
//!
//! The same [`Expr`] tree is evaluated in three ways:
//!
//! * [`eval`] — point evaluation with SQL null semantics, using the *current
//!   running estimates* for subquery references.
//! * [`eval_range`] — abstract evaluation over variation ranges
//!   ([`RangeVal`]), propagating uncertainty through arithmetic.
//! * [`eval_tri`] — predicate classification. Internally this is a sound
//!   abstract interpretation over the *set of possible SQL 3VL outcomes*
//!   (`{TRUE}`, `{FALSE, NULL}`, ...), collapsed to [`Tri`] under filter
//!   semantics: a tuple passes a filter iff the predicate is SQL `TRUE`.
//!
//! The values behind subquery references come from the context's
//! [`Resolver`], so the batch engine (exact values) and the G-OLA online
//! executor (estimates + ranges) share this code.

use gola_common::{Error, Result, Value};

use crate::expr::{BinOp, Expr, SubqueryId, UnaryOp};
use crate::interval::RangeVal;
use crate::tri::Tri;

/// Supplies one row during evaluation, and through [`EvalContext::resolver`]
/// the values behind its subquery references.
pub trait EvalContext {
    /// Current row's value for column `idx`.
    fn column(&self, idx: usize) -> &Value;

    /// Variation range of column `idx`. Defaults to the exact current value;
    /// the online executor overrides this for group rows whose aggregate
    /// outputs carry bootstrap ranges (HAVING classification).
    fn column_range(&self, idx: usize) -> RangeVal {
        RangeVal::Exact(self.column(idx).clone())
    }

    /// How the row's subquery references read their producers.
    fn resolver(&self) -> &dyn Resolver;
}

/// Reads subquery producers for an evaluation: exact final values for the
/// batch engine, a published estimate in one mode for the online executor.
pub trait Resolver {
    /// Scalar subquery `id`'s value for `key` (empty for an uncorrelated
    /// subquery). `Null` when the group has no rows.
    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<Value>;

    /// Is `key` in membership subquery `id`'s result set?
    fn member(&self, id: SubqueryId, key: &[Value]) -> Result<bool>;

    /// Variation range of a scalar subquery for `key`; the exact value by
    /// default.
    fn scalar_range(&self, id: SubqueryId, key: &[Value]) -> Result<RangeVal> {
        Ok(RangeVal::Exact(self.scalar(id, key)?))
    }

    /// Three-valued membership of `key` (deterministic in/out, or may
    /// flip); the exact membership by default.
    fn member_tri(&self, id: SubqueryId, key: &[Value]) -> Result<Tri> {
        Ok(Tri::from(self.member(id, key)?))
    }
}

/// Resolves nothing: any subquery reference is an error. For expressions
/// that must not read a subquery, such as join keys.
pub struct NoResolver;

impl Resolver for NoResolver {
    fn scalar(&self, id: SubqueryId, _key: &[Value]) -> Result<Value> {
        Err(Error::exec(format!("no resolver for subquery {id}")))
    }

    fn member(&self, id: SubqueryId, _key: &[Value]) -> Result<bool> {
        Err(Error::exec(format!("no resolver for subquery {id}")))
    }
}

/// A row's values (a caller-owned buffer, reused across rows by columnar
/// executors) with the resolver its subquery references read.
pub struct RowContext<'a> {
    pub row: &'a [Value],
    pub resolver: &'a dyn Resolver,
}

impl<'a> RowContext<'a> {
    pub fn new(row: &'a [Value], resolver: &'a dyn Resolver) -> Self {
        RowContext { row, resolver }
    }
}

impl EvalContext for RowContext<'_> {
    fn column(&self, idx: usize) -> &Value {
        &self.row[idx]
    }

    fn resolver(&self) -> &dyn Resolver {
        self.resolver
    }
}

// ---------------------------------------------------------------------------
// Point evaluation
// ---------------------------------------------------------------------------

/// Evaluate `expr` to a [`Value`] with SQL null semantics.
pub fn eval(expr: &Expr, ctx: &dyn EvalContext) -> Result<Value> {
    match expr {
        Expr::Column(i) => Ok(ctx.column(*i).clone()),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(Error::exec(format!("cannot negate {}", other.data_type()))),
                },
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(Error::exec(format!(
                        "NOT expects BOOL, got {}",
                        other.data_type()
                    ))),
                },
            }
        }
        Expr::Binary { op, left, right } => {
            if op.is_logical() {
                return eval_logical(*op, left, right, ctx);
            }
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            eval_binary_values(*op, &l, &r)
        }
        Expr::Func { name, func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, ctx)?);
            }
            if func.null_strict() && vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            func.call(&vals)
                .map_err(|e| Error::exec(format!("in {name}(): {e}")))
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                if eval(cond, ctx)?.as_bool() == Some(true) {
                    return eval(result, ctx);
                }
            }
            match else_expr {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, to } => eval(expr, ctx)?.cast(*to),
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::ScalarRef { id, key } => {
            let keys = eval_keys(key, ctx)?;
            ctx.resolver().scalar(*id, &keys)
        }
        Expr::InSubquery { id, key, negated } => {
            let keys = eval_keys(key, ctx)?;
            if keys.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let m = ctx.resolver().member(*id, &keys)?;
            Ok(Value::Bool(m != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, ctx)?;
                match v.sql_eq(&w) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
    }
}

/// Evaluate a predicate to a pass/fail bool: SQL `TRUE` passes, `FALSE` and
/// `NULL` fail.
pub fn eval_predicate(expr: &Expr, ctx: &dyn EvalContext) -> Result<bool> {
    Ok(eval(expr, ctx)?.as_bool().unwrap_or(false))
}

fn eval_keys(keys: &[Expr], ctx: &dyn EvalContext) -> Result<Vec<Value>> {
    keys.iter().map(|k| eval(k, ctx)).collect()
}

fn eval_logical(op: BinOp, left: &Expr, right: &Expr, ctx: &dyn EvalContext) -> Result<Value> {
    let l = eval(left, ctx)?;
    match (op, l.as_bool()) {
        // Short-circuit.
        (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = eval(right, ctx)?;
    let (lb, rb) = (l.as_bool(), r.as_bool());
    if !l.is_null() && lb.is_none() {
        return Err(Error::exec("AND/OR expects BOOL operands"));
    }
    if !r.is_null() && rb.is_none() {
        return Err(Error::exec("AND/OR expects BOOL operands"));
    }
    // SQL three-valued logic with NULL.
    let out = match op {
        BinOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!(),
    };
    Ok(out.map(Value::Bool).unwrap_or(Value::Null))
}

/// Apply a non-logical binary operator to two values (shared by point and
/// exact-range evaluation).
pub fn eval_binary_values(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.total_cmp(r);
        let b = match op {
            BinOp::Eq => ord == std::cmp::Ordering::Equal,
            BinOp::NotEq => ord != std::cmp::Ordering::Equal,
            BinOp::Lt => ord == std::cmp::Ordering::Less,
            BinOp::LtEq => ord != std::cmp::Ordering::Greater,
            BinOp::Gt => ord == std::cmp::Ordering::Greater,
            BinOp::GtEq => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    // Arithmetic. Integer arithmetic stays integral except division.
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let out = match op {
                BinOp::Add => Value::Int(a.wrapping_add(*b)),
                BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
                BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
                BinOp::Div => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Float(*a as f64 / *b as f64)
                    }
                }
                BinOp::Mod => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_rem_euclid(*b)) // i64::MIN % -1 is 0
                    }
                }
                _ => unreachable!(),
            };
            Ok(out)
        }
        _ => {
            let a = l.expect_f64("arithmetic")?;
            let b = r.expect_f64("arithmetic")?;
            Ok(float_arith(op, a, b).map_or(Value::Null, Value::Float))
        }
    }
}

/// Float arithmetic on two non-NULL numerics; `None` is SQL NULL (division
/// or modulo by zero). The one definition behind [`eval_binary_values`] and
/// the lane evaluator ([`crate::lanes`]) — and one body of machine code:
/// which operand's payload a NaN result carries depends on the operand
/// order the compiler picks at each inlined copy, and comparisons read a
/// NaN's sign ([`gola_common::Value::total_cmp`]), so the two callers must
/// not get copies of their own.
#[inline(never)]
pub(crate) fn float_arith(op: BinOp, a: f64, b: f64) -> Option<f64> {
    match op {
        BinOp::Add => Some(a + b),
        BinOp::Sub => Some(a - b),
        BinOp::Mul => Some(a * b),
        BinOp::Div => (b != 0.0).then(|| a / b),
        BinOp::Mod => (b != 0.0).then(|| a.rem_euclid(b)),
        _ => unreachable!("float_arith on non-arithmetic operator"),
    }
}

// ---------------------------------------------------------------------------
// Interval evaluation
// ---------------------------------------------------------------------------

/// Evaluate `expr` to a variation range.
pub fn eval_range(expr: &Expr, ctx: &dyn EvalContext) -> Result<RangeVal> {
    match expr {
        Expr::Column(i) => Ok(ctx.column_range(*i)),
        Expr::Literal(v) => Ok(RangeVal::Exact(v.clone())),
        Expr::Unary { op, expr } => {
            let r = eval_range(expr, ctx)?;
            match op {
                UnaryOp::Neg => match r {
                    RangeVal::Exact(v) => Ok(RangeVal::Exact(eval_binary_values(
                        BinOp::Sub,
                        &Value::Int(0),
                        &v,
                    )?)),
                    other => Ok(other.neg()),
                },
                // Boolean NOT as a *value*: deterministic only on exact input.
                UnaryOp::Not => match r {
                    RangeVal::Exact(v) => match v {
                        Value::Null => Ok(RangeVal::Exact(Value::Null)),
                        Value::Bool(b) => Ok(RangeVal::Exact(Value::Bool(!b))),
                        _ => Err(Error::exec("NOT expects BOOL")),
                    },
                    _ => Ok(RangeVal::Unknown),
                },
            }
        }
        Expr::Binary { op, left, right } => {
            if op.is_comparison() || op.is_logical() {
                // A predicate used as a value: exact only when classification
                // is deterministic.
                return Ok(match eval_tri_set(expr, ctx)? {
                    TriSet::TRUE => RangeVal::Exact(Value::Bool(true)),
                    s if s == TriSet::FALSE => RangeVal::Exact(Value::Bool(false)),
                    s if s == TriSet::NULL => RangeVal::Exact(Value::Null),
                    _ => RangeVal::Unknown,
                });
            }
            let l = eval_range(left, ctx)?;
            let r = eval_range(right, ctx)?;
            if let (RangeVal::Exact(a), RangeVal::Exact(b)) = (&l, &r) {
                return Ok(RangeVal::Exact(eval_binary_values(*op, a, b)?));
            }
            // Null in an exact operand poisons arithmetic to NULL.
            if matches!(&l, RangeVal::Exact(v) if v.is_null())
                || matches!(&r, RangeVal::Exact(v) if v.is_null())
            {
                return Ok(RangeVal::Exact(Value::Null));
            }
            Ok(match op {
                BinOp::Add => l.add(&r),
                BinOp::Sub => l.sub(&r),
                BinOp::Mul => l.mul(&r),
                BinOp::Div => l.div(&r),
                BinOp::Mod => RangeVal::Unknown,
                _ => unreachable!(),
            })
        }
        Expr::Func { func, args, name } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                match eval_range(a, ctx)? {
                    RangeVal::Exact(v) => vals.push(v),
                    _ => return Ok(RangeVal::Unknown),
                }
            }
            if func.null_strict() && vals.iter().any(Value::is_null) {
                return Ok(RangeVal::Exact(Value::Null));
            }
            Ok(RangeVal::Exact(
                func.call(&vals)
                    .map_err(|e| Error::exec(format!("in {name}(): {e}")))?,
            ))
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            // Follow the branch chain while conditions classify
            // deterministically; otherwise give up.
            for (cond, result) in branches {
                match eval_tri(cond, ctx)? {
                    Tri::True => return eval_range(result, ctx),
                    Tri::False => continue,
                    Tri::Maybe => return Ok(RangeVal::Unknown),
                }
            }
            match else_expr {
                Some(e) => eval_range(e, ctx),
                None => Ok(RangeVal::Exact(Value::Null)),
            }
        }
        Expr::Cast { expr, to } => match eval_range(expr, ctx)? {
            RangeVal::Exact(v) => Ok(RangeVal::Exact(v.cast(*to)?)),
            RangeVal::Num { lo, hi } => {
                if to.is_numeric() {
                    // Int truncation can only shrink magnitude; the float
                    // interval stays a sound over-approximation.
                    Ok(RangeVal::Num {
                        lo: lo.floor(),
                        hi: hi.ceil(),
                    })
                } else {
                    Ok(RangeVal::Unknown)
                }
            }
            RangeVal::Unknown => Ok(RangeVal::Unknown),
        },
        Expr::IsNull { .. } | Expr::InSubquery { .. } | Expr::InList { .. } => {
            Ok(match eval_tri_set(expr, ctx)? {
                TriSet::TRUE => RangeVal::Exact(Value::Bool(true)),
                s if s == TriSet::FALSE => RangeVal::Exact(Value::Bool(false)),
                s if s == TriSet::NULL => RangeVal::Exact(Value::Null),
                _ => RangeVal::Unknown,
            })
        }
        Expr::ScalarRef { id, key } => {
            let mut keys = Vec::with_capacity(key.len());
            for k in key {
                match eval_range(k, ctx)? {
                    RangeVal::Exact(v) => keys.push(v),
                    // Uncertain correlation key: cannot even pick the group.
                    _ => return Ok(RangeVal::Unknown),
                }
            }
            ctx.resolver().scalar_range(*id, &keys)
        }
    }
}

// ---------------------------------------------------------------------------
// Three-valued classification
// ---------------------------------------------------------------------------

/// The set of SQL 3VL outcomes a predicate may still take — a sound abstract
/// domain for classification under both null semantics and uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriSet(u8);

impl TriSet {
    pub const TRUE: TriSet = TriSet(0b001);
    pub const FALSE: TriSet = TriSet(0b010);
    pub const NULL: TriSet = TriSet(0b100);
    pub const ANY: TriSet = TriSet(0b111);

    fn union(self, other: TriSet) -> TriSet {
        TriSet(self.0 | other.0)
    }

    fn may_true(self) -> bool {
        self.0 & 0b001 != 0
    }

    fn may_false(self) -> bool {
        self.0 & 0b010 != 0
    }

    fn may_null(self) -> bool {
        self.0 & 0b100 != 0
    }

    fn members(self) -> impl Iterator<Item = Option<bool>> {
        let mut v = Vec::with_capacity(3);
        if self.may_true() {
            v.push(Some(true));
        }
        if self.may_false() {
            v.push(Some(false));
        }
        if self.may_null() {
            v.push(None);
        }
        v.into_iter()
    }

    fn lift2(
        a: TriSet,
        b: TriSet,
        f: impl Fn(Option<bool>, Option<bool>) -> Option<bool>,
    ) -> TriSet {
        let mut out = TriSet(0);
        for x in a.members() {
            for y in b.members() {
                out = out.union(Self::from_opt(f(x, y)));
            }
        }
        out
    }

    fn from_opt(v: Option<bool>) -> TriSet {
        match v {
            Some(true) => TriSet::TRUE,
            Some(false) => TriSet::FALSE,
            None => TriSet::NULL,
        }
    }

    fn from_tri_nonnull(t: Tri) -> TriSet {
        match t {
            Tri::True => TriSet::TRUE,
            Tri::False => TriSet::FALSE,
            Tri::Maybe => TriSet::TRUE.union(TriSet::FALSE),
        }
    }

    fn not(self) -> TriSet {
        let mut out = TriSet(0);
        for x in self.members() {
            out = out.union(Self::from_opt(x.map(|b| !b)));
        }
        out
    }

    /// Collapse to filter semantics: a tuple passes iff SQL `TRUE`.
    pub fn to_filter_tri(self) -> Tri {
        let may_pass = self.may_true();
        let may_fail = self.may_false() || self.may_null();
        match (may_pass, may_fail) {
            (true, false) => Tri::True,
            (false, true) => Tri::False,
            (true, true) => Tri::Maybe,
            (false, false) => Tri::Maybe, // unreachable: sets are non-empty
        }
    }
}

fn sql_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn sql_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Classify a predicate against the variation ranges provided by `ctx`:
/// [`Tri::True`]/[`Tri::False`] mean the pass/fail decision can never flip
/// as ranges refine; [`Tri::Maybe`] sends the tuple to the uncertain set.
pub fn eval_tri(expr: &Expr, ctx: &dyn EvalContext) -> Result<Tri> {
    Ok(eval_tri_set(expr, ctx)?.to_filter_tri())
}

/// The full outcome-set classification (exposed for tests and the planner).
pub fn eval_tri_set(expr: &Expr, ctx: &dyn EvalContext) -> Result<TriSet> {
    match expr {
        Expr::Literal(Value::Bool(b)) => Ok(TriSet::from_opt(Some(*b))),
        Expr::Literal(Value::Null) => Ok(TriSet::NULL),
        Expr::Column(_) => {
            // Boolean column: exact value or unknowable.
            match eval_range(expr, ctx)? {
                RangeVal::Exact(Value::Bool(b)) => Ok(TriSet::from_opt(Some(b))),
                RangeVal::Exact(Value::Null) => Ok(TriSet::NULL),
                RangeVal::Exact(v) => Err(Error::exec(format!(
                    "predicate column must be BOOL, got {}",
                    v.data_type()
                ))),
                _ => Ok(TriSet::ANY),
            }
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Ok(eval_tri_set(expr, ctx)?.not()),
        Expr::Unary { .. } => Err(Error::exec("numeric expression used as predicate")),
        Expr::Binary { op, left, right } if op.is_logical() => {
            let l = eval_tri_set(left, ctx)?;
            let r = eval_tri_set(right, ctx)?;
            Ok(match op {
                BinOp::And => TriSet::lift2(l, r, sql_and),
                BinOp::Or => TriSet::lift2(l, r, sql_or),
                _ => unreachable!(),
            })
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let l = eval_range(left, ctx)?;
            let r = eval_range(right, ctx)?;
            // NULL operands make the comparison NULL regardless of ranges.
            if matches!(&l, RangeVal::Exact(v) if v.is_null())
                || matches!(&r, RangeVal::Exact(v) if v.is_null())
            {
                return Ok(TriSet::NULL);
            }
            let t = match op {
                BinOp::Lt => l.lt(&r),
                BinOp::LtEq => l.le(&r),
                BinOp::Gt => l.gt(&r),
                BinOp::GtEq => l.ge(&r),
                BinOp::Eq => l.eq_tri(&r),
                BinOp::NotEq => l.eq_tri(&r).not(),
                _ => unreachable!(),
            };
            Ok(TriSet::from_tri_nonnull(t))
        }
        Expr::Binary { .. } => Err(Error::exec("arithmetic expression used as predicate")),
        Expr::IsNull { expr, negated } => {
            let r = eval_range(expr, ctx)?;
            let t = match r {
                RangeVal::Exact(v) => TriSet::from_opt(Some(v.is_null())),
                // A numeric range asserts the value exists (non-null).
                RangeVal::Num { .. } => TriSet::from_opt(Some(false)),
                RangeVal::Unknown => TriSet::TRUE.union(TriSet::FALSE),
            };
            Ok(if *negated { t.not() } else { t })
        }
        Expr::InSubquery { id, key, negated } => {
            let mut keys = Vec::with_capacity(key.len());
            for k in key {
                match eval_range(k, ctx)? {
                    RangeVal::Exact(v) => {
                        if v.is_null() {
                            return Ok(TriSet::NULL);
                        }
                        keys.push(v);
                    }
                    _ => return Ok(TriSet::ANY),
                }
            }
            let t = ctx.resolver().member_tri(*id, &keys)?;
            let s = TriSet::from_tri_nonnull(t);
            Ok(if *negated { s.not() } else { s })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_range(expr, ctx)?;
            if matches!(&v, RangeVal::Exact(x) if x.is_null()) {
                return Ok(TriSet::NULL);
            }
            let mut any_true = Tri::False;
            let mut saw_null = false;
            for item in list {
                let w = eval_range(item, ctx)?;
                if matches!(&w, RangeVal::Exact(x) if x.is_null()) {
                    saw_null = true;
                    continue;
                }
                any_true = any_true.or(v.eq_tri(&w));
            }
            let mut s = TriSet::from_tri_nonnull(any_true);
            if saw_null && s.may_false() {
                // Non-matching rows become NULL when the list contains NULL.
                s = TriSet(s.0 & !TriSet::FALSE.0).union(TriSet::NULL);
            }
            Ok(if *negated { s.not() } else { s })
        }
        // Anything else used as a predicate: deterministic only when it
        // evaluates exactly.
        other => match eval_range(other, ctx)? {
            RangeVal::Exact(Value::Bool(b)) => Ok(TriSet::from_opt(Some(b))),
            RangeVal::Exact(Value::Null) => Ok(TriSet::NULL),
            RangeVal::Exact(v) => Err(Error::exec(format!(
                "predicate must be BOOL, got {}",
                v.data_type()
            ))),
            _ => Ok(TriSet::ANY),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, Row};

    struct TestCtx {
        row: Row,
        scalar: Value,
        range: RangeVal,
        member: Tri,
    }

    impl TestCtx {
        fn new(row: Row) -> Self {
            TestCtx {
                row,
                scalar: Value::Null,
                range: RangeVal::Unknown,
                member: Tri::Maybe,
            }
        }
    }

    impl EvalContext for TestCtx {
        fn column(&self, idx: usize) -> &Value {
            self.row.get(idx)
        }
        fn resolver(&self) -> &dyn Resolver {
            self
        }
    }

    impl Resolver for TestCtx {
        fn scalar(&self, _: SubqueryId, _: &[Value]) -> Result<Value> {
            Ok(self.scalar.clone())
        }
        fn scalar_range(&self, _: SubqueryId, _: &[Value]) -> Result<RangeVal> {
            Ok(self.range.clone())
        }
        fn member(&self, _: SubqueryId, _: &[Value]) -> Result<bool> {
            Ok(self.member == Tri::True)
        }
        fn member_tri(&self, _: SubqueryId, _: &[Value]) -> Result<Tri> {
            Ok(self.member)
        }
    }

    fn sref() -> Expr {
        Expr::ScalarRef {
            id: SubqueryId(0),
            key: vec![],
        }
    }

    #[test]
    fn point_arithmetic() {
        let ctx = TestCtx::new(row![10i64, 4.0f64]);
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Float(14.0));
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(4i64));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Float(2.5));
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(0i64));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Null);
        let e = Expr::binary(BinOp::Mod, Expr::lit(-7i64), Expr::lit(3i64));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(2));
    }

    #[test]
    fn point_null_propagation() {
        let ctx = TestCtx::new(Row::new(vec![Value::Null, Value::Int(1)]));
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Null);
        let e = Expr::gt(Expr::col(0), Expr::col(1));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Null);
        assert!(!eval_predicate(&e, &ctx).unwrap());
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(0)),
            negated: false,
        };
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn sql_three_valued_and_or() {
        let ctx = TestCtx::new(Row::new(vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
        ]));
        // NULL AND FALSE = FALSE
        let e = Expr::and(Expr::col(0), Expr::col(1));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(false));
        // NULL AND TRUE = NULL
        let e = Expr::and(Expr::col(0), Expr::col(2));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Null);
        // NULL OR TRUE = TRUE
        let e = Expr::binary(BinOp::Or, Expr::col(0), Expr::col(2));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn scalar_ref_point_and_range() {
        let mut ctx = TestCtx::new(row![35.0f64]);
        ctx.scalar = Value::Float(37.0);
        ctx.range = RangeVal::num(28.9, 45.1);
        // buffer_time > AVG(buffer_time): point says 35 > 37 = false.
        let pred = Expr::gt(Expr::col(0), sref());
        assert!(!eval_predicate(&pred, &ctx).unwrap());
        // Range says 35 ∈ [28.9, 45.1] → uncertain (the paper's t1).
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::Maybe);
        // t2 with buffer_time 58 is deterministically selected...
        let ctx2 = TestCtx {
            row: row![58.0f64],
            ..ctx
        };
        assert_eq!(eval_tri(&pred, &ctx2).unwrap(), Tri::True);
        // ...and tn with 17 deterministically dropped.
        let ctx3 = TestCtx {
            row: row![17.0f64],
            ..ctx2
        };
        assert_eq!(eval_tri(&pred, &ctx3).unwrap(), Tri::False);
    }

    #[test]
    fn range_arithmetic_propagates() {
        let mut ctx = TestCtx::new(row![10.0f64]);
        ctx.range = RangeVal::num(10.0, 20.0);
        // 0.2 * $sq ∈ [2, 4]; col 10 > that → deterministic true.
        let pred = Expr::gt(
            Expr::col(0),
            Expr::binary(BinOp::Mul, Expr::lit(0.2), sref()),
        );
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::True);
        // 2 * $sq ∈ [20, 40]; 10 > that → deterministic false.
        let pred = Expr::gt(
            Expr::col(0),
            Expr::binary(BinOp::Mul, Expr::lit(2.0), sref()),
        );
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::False);
        // $sq - 5 ∈ [5, 15]; 10 > that → uncertain.
        let pred = Expr::gt(
            Expr::col(0),
            Expr::binary(BinOp::Sub, sref(), Expr::lit(5.0)),
        );
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::Maybe);
    }

    #[test]
    fn tri_logical_combinations() {
        let mut ctx = TestCtx::new(row![10.0f64]);
        ctx.range = RangeVal::num(5.0, 15.0);
        let uncertain = Expr::gt(Expr::col(0), sref());
        let certain_false = Expr::gt(Expr::lit(0.0), Expr::lit(1.0));
        // uncertain AND false = deterministic false.
        let e = Expr::and(uncertain.clone(), certain_false.clone());
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::False);
        // NOT uncertain = uncertain.
        let e = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(uncertain.clone()),
        };
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::Maybe);
        // uncertain OR true = deterministic true.
        let e = Expr::binary(BinOp::Or, uncertain, Expr::lit(true));
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::True);
    }

    #[test]
    fn not_over_null_filter_semantics() {
        // x = NULL: (x > 1) is NULL → fails; NOT(x > 1) is also NULL → fails.
        let ctx = TestCtx::new(Row::new(vec![Value::Null]));
        let inner = Expr::gt(Expr::col(0), Expr::lit(1i64));
        assert_eq!(eval_tri(&inner, &ctx).unwrap(), Tri::False);
        let outer = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(inner),
        };
        // Deterministically fails despite the NOT — the 4-valued domain
        // keeps NULL distinct from FALSE.
        assert_eq!(eval_tri(&outer, &ctx).unwrap(), Tri::False);
    }

    #[test]
    fn membership_tri() {
        let mut ctx = TestCtx::new(row![7i64]);
        ctx.member = Tri::Maybe;
        let e = Expr::InSubquery {
            id: SubqueryId(1),
            key: vec![Expr::col(0)],
            negated: false,
        };
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::Maybe);
        ctx.member = Tri::True;
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::True);
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(true));
        let neg = Expr::InSubquery {
            id: SubqueryId(1),
            key: vec![Expr::col(0)],
            negated: true,
        };
        assert_eq!(eval_tri(&neg, &ctx).unwrap(), Tri::False);
    }

    #[test]
    fn in_list_null_semantics() {
        let ctx = TestCtx::new(row![3i64]);
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Expr::lit(1i64), Expr::lit(3i64)],
            negated: false,
        };
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(true));
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::True);
        // 3 IN (1, NULL) = NULL → filter-fails deterministically.
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Expr::lit(1i64), Expr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Null);
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::False);
    }

    #[test]
    fn case_evaluation() {
        let ctx = TestCtx::new(row![5i64]);
        let e = Expr::Case {
            branches: vec![
                (Expr::gt(Expr::col(0), Expr::lit(10i64)), Expr::lit("big")),
                (Expr::gt(Expr::col(0), Expr::lit(1i64)), Expr::lit("mid")),
            ],
            else_expr: Some(Box::new(Expr::lit("small"))),
        };
        assert_eq!(eval(&e, &ctx).unwrap(), Value::str("mid"));
        // Range evaluation follows deterministic branches.
        assert_eq!(
            eval_range(&e, &ctx).unwrap(),
            RangeVal::Exact(Value::str("mid"))
        );
    }

    #[test]
    fn exact_context_errors_without_resolver() {
        let r = row![1i64];
        let ctx = RowContext::new(r.values(), &NoResolver);
        assert!(eval(&sref(), &ctx).is_err());
    }

    #[test]
    fn interval_soundness_sample_points() {
        // For many sample values v in the range, the point evaluation of the
        // predicate must agree with a deterministic classification.
        let mut ctx = TestCtx::new(row![10.0f64]);
        ctx.range = RangeVal::num(3.0, 7.0);
        let pred = Expr::gt(
            Expr::col(0),
            Expr::binary(BinOp::Add, sref(), Expr::lit(1.0)),
        );
        // $sq + 1 ∈ [4, 8]; 10 > that always → True.
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::True);
        for v in [3.0, 4.2, 5.5, 7.0] {
            ctx.scalar = Value::Float(v);
            assert!(eval_predicate(&pred, &ctx).unwrap());
        }
    }
}
