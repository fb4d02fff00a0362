//! Vectorized predicate kernels over typed column vectors.
//!
//! The row-at-a-time evaluator ([`crate::eval`]) walks the expression tree
//! once per tuple; on the classify hot path that interpretation overhead
//! dwarfs the comparisons themselves. This module compiles the common
//! predicate shapes — comparisons between columns and literals, `IS NULL`,
//! and `AND`/`OR`/`NOT` combinations thereof — into whole-column passes that
//! produce selection [`Bitmap`]s.
//!
//! The contract is strict bit-identity with the scalar point evaluator: for
//! every supported expression `p` and every row `i`,
//! [`TriMask::pass`]`[i]` ⇔ `eval_predicate(p, row_i)` and
//! [`TriMask::fail`]`[i]` ⇔ `eval_predicate(NOT p, row_i)` under SQL 3VL (a
//! row with neither bit is a NULL outcome, which filters treat as fail).
//! That is deliberately stated against `eval_predicate`, not `eval_tri`:
//! the interval-based `eval_tri` may conservatively answer `Maybe` where
//! the point answer is definite, so it bounds the mask but does not define
//! it. Unsupported shapes return `None` and the caller falls back to the
//! scalar path — the kernel never guesses. Property-tested in
//! `tests/proptests.rs::kernel_equivalence`.

use std::cmp::Ordering;
use std::sync::Arc;

use gola_common::{Bitmap, Column, ColumnData, Value};

use crate::expr::{BinOp, Expr, UnaryOp};

/// 3VL outcome bitmaps for one predicate over a chunk: a row is SQL `TRUE`
/// iff its `pass` bit is set, SQL `FALSE` iff its `fail` bit is set, and a
/// NULL outcome iff neither. (`pass ∧ fail` never holds.)
#[derive(Debug, Clone)]
pub struct TriMask {
    pub pass: Bitmap,
    pub fail: Bitmap,
}

impl TriMask {
    fn constant(len: usize, v: Option<bool>) -> TriMask {
        match v {
            Some(true) => TriMask {
                pass: Bitmap::new_set(len),
                fail: Bitmap::new_clear(len),
            },
            Some(false) => TriMask {
                pass: Bitmap::new_clear(len),
                fail: Bitmap::new_set(len),
            },
            None => TriMask {
                pass: Bitmap::new_clear(len),
                fail: Bitmap::new_clear(len),
            },
        }
    }
}

/// One side of a comparison: a chunk column or a per-chunk constant.
enum Operand<'a> {
    Col(&'a Column),
    Lit(&'a Value),
}

impl<'a> Operand<'a> {
    fn resolve(e: &'a Expr, cols: &'a [Arc<Column>]) -> Option<Operand<'a>> {
        match e {
            Expr::Column(i) => cols.get(*i).map(|c| Operand::Col(c)),
            Expr::Literal(v) => Some(Operand::Lit(v)),
            _ => None,
        }
    }

    /// `true` when every slot is numeric-or-NULL, so [`Value::total_cmp`]
    /// is guaranteed to take its numeric arm against another such operand.
    fn numeric_only(&self) -> bool {
        match self {
            Operand::Col(c) => matches!(
                c.data(),
                ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Bool(_)
            ),
            Operand::Lit(v) => matches!(
                v,
                Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Null
            ),
        }
    }

    #[inline]
    fn num_at(&self, i: usize) -> Option<f64> {
        match self {
            Operand::Col(c) => c.as_f64(i),
            Operand::Lit(v) => v.as_f64(),
        }
    }

    #[inline]
    fn value_at(&self, i: usize) -> Value {
        match self {
            Operand::Col(c) => c.value(i),
            Operand::Lit(v) => (*v).clone(),
        }
    }
}

/// Does comparison `op` hold for operands ordered `ord`?
#[inline]
pub fn op_holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        // Callers guard on `op.is_comparison()`.
        _ => unreachable!("op_holds on non-comparison"),
    }
}

/// Match [`Value::total_cmp`]'s numeric arm exactly: normalize `-0.0` then
/// compare under IEEE total order.
#[inline]
pub fn num_total_cmp(x: f64, y: f64) -> Ordering {
    let x = if x == 0.0 { 0.0 } else { x };
    let y = if y == 0.0 { 0.0 } else { y };
    x.total_cmp(&y)
}

/// `x` as an `i64` whose signed order is [`num_total_cmp`]'s: `-0.0`
/// folded into `0.0`, then `f64::total_cmp`'s own bit transform (flip the
/// magnitude bits of a negative), so `num_total_cmp(x, y)` is
/// `num_total_key(x).cmp(&num_total_key(y))` for every pair of bit
/// patterns — NaNs of either sign and any payload, infinities and
/// subnormals included. A sweep over many comparisons keys each operand
/// once and compares integers.
#[inline]
pub fn num_total_key(x: f64) -> i64 {
    let x = if x == 0.0 { 0.0 } else { x };
    let bits = x.to_bits() as i64;
    bits ^ ((bits >> 63) & i64::MAX)
}

/// `x (op) y` on non-NULL numerics, as the scalar evaluator decides it.
/// `op` must be a comparison.
#[inline]
pub fn num_cmp_holds(op: BinOp, x: f64, y: f64) -> bool {
    op_holds(op, num_total_cmp(x, y))
}

/// Fill `out` from a per-row three-valued comparison outcome.
fn masks_from<F: FnMut(usize) -> Option<bool>>(len: usize, mut holds: F) -> TriMask {
    let mut pass = Bitmap::new_clear(len);
    let mut fail = Bitmap::new_clear(len);
    for i in 0..len {
        match holds(i) {
            Some(true) => pass.set(i, true),
            Some(false) => fail.set(i, true),
            None => {}
        }
    }
    TriMask { pass, fail }
}

fn cmp_masks(l: &Operand<'_>, op: BinOp, r: &Operand<'_>, len: usize) -> TriMask {
    // Numeric fast path: both sides are typed numeric vectors (or numeric
    // constants), so Value::total_cmp reduces to a normalized f64 total
    // order. (Bool-vs-Bool agrees: false < true in both orders.)
    if l.numeric_only() && r.numeric_only() {
        if let Operand::Lit(v) = r {
            // Column-vs-constant: hoist the constant out of the loop.
            let y = v.as_f64();
            return masks_from(len, |i| {
                let x = l.num_at(i)?;
                Some(op_holds(op, num_total_cmp(x, y?)))
            });
        }
        return masks_from(len, |i| {
            let x = l.num_at(i)?;
            let y = r.num_at(i)?;
            Some(op_holds(op, num_total_cmp(x, y)))
        });
    }
    // Dictionary fast path: compare each distinct string once, then the
    // per-row loop is a code-indexed table lookup.
    match (l, r) {
        (Operand::Col(c), Operand::Lit(Value::Str(s)))
        | (Operand::Lit(Value::Str(s)), Operand::Col(c)) => {
            if let ColumnData::Str { dict, codes } = c.data() {
                let flip = matches!(l, Operand::Lit(_));
                let by_code: Vec<bool> = dict
                    .iter()
                    .map(|d| {
                        let ord = d.as_ref().cmp(s.as_ref());
                        op_holds(op, if flip { ord.reverse() } else { ord })
                    })
                    .collect();
                return masks_from(len, |i| {
                    if c.is_valid(i) {
                        Some(by_code[codes[i] as usize])
                    } else {
                        None
                    }
                });
            }
        }
        _ => {}
    }
    // Generic reference path: materialize both sides as values. Still one
    // comparison per row with no expression-tree walk.
    masks_from(len, |i| {
        let x = l.value_at(i);
        let y = r.value_at(i);
        if x.is_null() || y.is_null() {
            return None;
        }
        Some(op_holds(op, x.total_cmp(&y)))
    })
}

/// Classify a predicate over a chunk of `len` rows whose columns are `cols`,
/// producing 3VL outcome bitmaps. Returns `None` when the expression shape
/// is outside the vectorized subset (function calls, arithmetic, CASE,
/// subquery references, …) — callers must then take the row-at-a-time path.
pub fn classify_mask(expr: &Expr, cols: &[Arc<Column>], len: usize) -> Option<TriMask> {
    match expr {
        Expr::Literal(Value::Bool(b)) => Some(TriMask::constant(len, Some(*b))),
        Expr::Literal(Value::Null) => Some(TriMask::constant(len, None)),
        Expr::Column(i) => {
            // A bare boolean column used as a predicate.
            let c = cols.get(*i)?;
            if let ColumnData::Bool(xs) = c.data() {
                Some(masks_from(len, |i| {
                    if c.is_valid(i) {
                        Some(xs[i])
                    } else {
                        None
                    }
                }))
            } else {
                None
            }
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            let m = classify_mask(expr, cols, len)?;
            // SQL NOT: swaps TRUE and FALSE, fixes NULL.
            Some(TriMask {
                pass: m.fail,
                fail: m.pass,
            })
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let l = Operand::resolve(left, cols)?;
            let r = Operand::resolve(right, cols)?;
            Some(cmp_masks(&l, *op, &r, len))
        }
        Expr::Binary { op, left, right } if op.is_logical() => {
            let l = classify_mask(left, cols, len)?;
            let mut r = classify_mask(right, cols, len)?;
            match op {
                BinOp::And => {
                    // TRUE iff both true; FALSE iff either false.
                    let mut pass = l.pass;
                    pass.and_with(&r.pass);
                    r.fail.or_with(&l.fail);
                    Some(TriMask { pass, fail: r.fail })
                }
                BinOp::Or => {
                    // TRUE iff either true; FALSE iff both false.
                    let mut pass = l.pass;
                    pass.or_with(&r.pass);
                    r.fail.and_with(&l.fail);
                    Some(TriMask { pass, fail: r.fail })
                }
                _ => None,
            }
        }
        Expr::IsNull { expr, negated } => {
            let m = match Operand::resolve(expr, cols)? {
                Operand::Col(c) => masks_from(len, |i| Some(!c.is_valid(i))),
                Operand::Lit(v) => TriMask::constant(len, Some(v.is_null())),
            };
            Some(if *negated {
                TriMask {
                    pass: m.fail,
                    fail: m.pass,
                }
            } else {
                m
            })
        }
        _ => None,
    }
}

/// 2VL filter mask: bit `i` set iff the predicate is SQL `TRUE` on row `i`
/// (`FALSE` and NULL both filter the row out), matching
/// [`crate::eval_predicate`] on exact rows. `None` ⇒ unsupported shape.
pub fn predicate_mask(expr: &Expr, cols: &[Arc<Column>], len: usize) -> Option<Bitmap> {
    classify_mask(expr, cols, len).map(|m| m.pass)
}
