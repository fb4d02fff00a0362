//! Property tests for the expression layer.
//!
//! The load-bearing invariant of G-OLA's classification is **interval
//! soundness**: if `eval_tri` declares a predicate deterministic against a
//! variation range, then point evaluation must agree for *every* value in
//! that range. These tests sample ranges, predicates, and in-range values
//! and verify agreement.

use gola_common::{Result, Row, Value};
use gola_expr::eval::{eval, eval_predicate, eval_range, eval_tri};
use gola_expr::{BinOp, EvalContext, Expr, RangeVal, Resolver, SubqueryId, Tri};
use proptest::prelude::*;

/// Context with one uncertain scalar (`sq0`) whose current value can be
/// repositioned inside a fixed range.
struct Ctx {
    row: Row,
    value: f64,
    range: (f64, f64),
    member: Tri,
    member_point: bool,
}

impl EvalContext for Ctx {
    fn column(&self, idx: usize) -> &Value {
        self.row.get(idx)
    }
    fn resolver(&self) -> &dyn Resolver {
        self
    }
}

impl Resolver for Ctx {
    fn scalar(&self, _: SubqueryId, _: &[Value]) -> Result<Value> {
        Ok(Value::Float(self.value))
    }
    fn scalar_range(&self, _: SubqueryId, _: &[Value]) -> Result<RangeVal> {
        Ok(RangeVal::num(self.range.0, self.range.1))
    }
    fn member(&self, _: SubqueryId, _: &[Value]) -> Result<bool> {
        Ok(self.member_point)
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

fn cmp_ops() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Lt),
        Just(BinOp::LtEq),
        Just(BinOp::Gt),
        Just(BinOp::GtEq),
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
    ]
}

/// A predicate comparing a column against an affine function of the
/// uncertain scalar — the shape of every nested-aggregate filter in the
/// paper's queries.
fn affine_predicate(op: BinOp, a: f64, b: f64) -> Expr {
    Expr::binary(
        op,
        Expr::col(0),
        Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::lit(a), sref()),
            Expr::lit(b),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Deterministic classification must agree with point evaluation at
    /// every sampled value of the uncertain scalar within its range.
    #[test]
    fn tri_soundness_for_affine_predicates(
        x in -100.0f64..100.0,
        lo in -50.0f64..50.0,
        width in 0.0f64..40.0,
        a in -3.0f64..3.0,
        b in -20.0f64..20.0,
        op in cmp_ops(),
        samples in prop::collection::vec(0.0f64..=1.0, 8),
    ) {
        let hi = lo + width;
        let pred = affine_predicate(op, a, b);
        let ctx = Ctx {
            row: Row::new(vec![Value::Float(x)]),
            value: lo,
            range: (lo, hi),
            member: Tri::Maybe,
            member_point: false,
        };
        let tri = eval_tri(&pred, &ctx).unwrap();
        if tri.is_deterministic() {
            for s in samples {
                let u = lo + s * width;
                let ctx = Ctx { value: u, ..ctx_clone(&ctx) };
                let point = eval_predicate(&pred, &ctx).unwrap();
                prop_assert_eq!(
                    point,
                    tri == Tri::True,
                    "tri {:?} but point {} at u = {} in [{}, {}] (pred {})",
                    tri, point, u, lo, hi, pred
                );
            }
        }
    }

    /// `eval_range` must contain the point evaluation for every position of
    /// the uncertain scalar inside its range.
    #[test]
    fn range_evaluation_contains_point_evaluation(
        x in -100.0f64..100.0,
        lo in -50.0f64..50.0,
        width in 0.0f64..40.0,
        a in -3.0f64..3.0,
        b in -20.0f64..20.0,
        s in 0.0f64..=1.0,
    ) {
        let hi = lo + width;
        let expr = Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::lit(a), sref()),
            Expr::binary(BinOp::Sub, Expr::col(0), Expr::lit(b)),
        );
        let ctx = Ctx {
            row: Row::new(vec![Value::Float(x)]),
            value: lo + s * width,
            range: (lo, hi),
            member: Tri::Maybe,
            member_point: false,
        };
        let r = eval_range(&expr, &ctx).unwrap();
        let point = eval(&expr, &ctx).unwrap().as_f64().unwrap();
        // An Unknown range (no bounds) is trivially sound.
        if let Some((rlo, rhi)) = r.bounds() {
            prop_assert!(
                rlo - 1e-9 <= point && point <= rhi + 1e-9,
                "point {} outside range [{}, {}]",
                point,
                rlo,
                rhi
            );
        }
    }

    /// Kleene conjunction of classifications is itself sound: combining a
    /// deterministic filter with an uncertain one never produces a wrong
    /// deterministic verdict.
    #[test]
    fn conjunction_classification_soundness(
        x in -100.0f64..100.0,
        threshold in -100.0f64..100.0,
        lo in -50.0f64..50.0,
        width in 0.0f64..40.0,
        s in 0.0f64..=1.0,
    ) {
        let hi = lo + width;
        let pred = Expr::and(
            Expr::gt(Expr::col(0), Expr::lit(threshold)),
            Expr::lt(Expr::col(0), sref()),
        );
        let u = lo + s * width;
        let ctx = Ctx {
            row: Row::new(vec![Value::Float(x)]),
            value: u,
            range: (lo, hi),
            member: Tri::Maybe,
            member_point: false,
        };
        let tri = eval_tri(&pred, &ctx).unwrap();
        if tri.is_deterministic() {
            let point = eval_predicate(&pred, &ctx).unwrap();
            prop_assert_eq!(point, tri == Tri::True);
        }
    }

    /// Membership classification: a deterministic tri must match the point
    /// membership it was derived from.
    #[test]
    fn membership_tri_consistency(member in any::<bool>(), negated in any::<bool>()) {
        let pred = Expr::InSubquery {
            id: SubqueryId(0),
            key: vec![Expr::col(0)],
            negated,
        };
        let ctx = Ctx {
            row: Row::new(vec![Value::Int(1)]),
            value: 0.0,
            range: (0.0, 0.0),
            member: Tri::from(member),
            member_point: member,
        };
        let tri = eval_tri(&pred, &ctx).unwrap();
        prop_assert!(tri.is_deterministic());
        prop_assert_eq!(tri == Tri::True, eval_predicate(&pred, &ctx).unwrap());
    }

    /// Interval arithmetic is sound under composition: sampling both
    /// endpoints and the midpoint of sub-ranges stays inside the computed
    /// interval for +, -, ×.
    #[test]
    fn interval_arithmetic_soundness(
        alo in -100.0f64..100.0,
        aw in 0.0f64..50.0,
        blo in -100.0f64..100.0,
        bw in 0.0f64..50.0,
        sa in 0.0f64..=1.0,
        sb in 0.0f64..=1.0,
    ) {
        let a = RangeVal::num(alo, alo + aw);
        let b = RangeVal::num(blo, blo + bw);
        let pa = alo + sa * aw;
        let pb = blo + sb * bw;
        for (r, v) in [
            (a.add(&b), pa + pb),
            (a.sub(&b), pa - pb),
            (a.mul(&b), pa * pb),
        ] {
            let (lo, hi) = r.bounds().unwrap();
            prop_assert!(lo - 1e-6 <= v && v <= hi + 1e-6, "{v} outside [{lo}, {hi}]");
        }
    }
}

fn ctx_clone(c: &Ctx) -> Ctx {
    Ctx {
        row: c.row.clone(),
        value: c.value,
        range: c.range,
        member: c.member,
        member_point: c.member_point,
    }
}

// ---------------------------------------------------------------------------
// Vectorized kernel equivalence: `classify_mask` / `predicate_mask` vs the
// row-at-a-time `eval_tri` / `eval_predicate` reference.
//
// The columnar classify path promises strict bit-identity with the scalar
// evaluator on exact rows: `pass[i]` ⇔ `Tri::True`, `fail[i]` ⇔
// `Tri::False`, neither ⇔ a NULL outcome. These tests sample chunks with
// NULL validity holes, ±0.0, NaN, dictionary strings and boolean columns,
// plus every supported predicate shape (comparisons, IS [NOT] NULL, NOT,
// AND/OR), and check every row of the bitmaps against the reference.
// ---------------------------------------------------------------------------

mod kernel_equivalence {
    use std::sync::Arc;

    use gola_common::{Column, DataType, Row, Value};
    use gola_expr::eval::{eval_predicate, eval_tri};
    use gola_expr::vector::{classify_mask, predicate_mask};
    use gola_expr::{BinOp, Expr, Tri, UnaryOp};
    use proptest::prelude::*;

    use super::Ctx;

    /// Float slots: a small lattice (for Eq collisions) plus the signed-zero,
    /// NaN and ±∞ edges the total-order comparison must normalize, plus
    /// NULLs.
    fn float_val() -> BoxedStrategy<Value> {
        prop_oneof![
            (-16i32..16).prop_map(|i| Value::Float(i as f64 * 0.5)),
            (-16i32..16).prop_map(|i| Value::Float(i as f64 * 0.5)),
            (-16i32..16).prop_map(|i| Value::Float(i as f64 * 0.5)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(f64::NEG_INFINITY)),
            Just(Value::Null),
        ]
        .boxed()
    }

    /// Int slots: a small lattice plus the i64 extremes and ±(2^53 + 1),
    /// the first integers a cross-type comparison rounds through `f64`.
    fn int_val() -> BoxedStrategy<Value> {
        prop_oneof![
            (-8i64..8).prop_map(Value::Int),
            (-8i64..8).prop_map(Value::Int),
            (-8i64..8).prop_map(Value::Int),
            (0usize..4).prop_map(|i| {
                Value::Int([i64::MIN, i64::MAX, (1 << 53) + 1, -(1 << 53) - 1][i])
            }),
            Just(Value::Null),
        ]
        .boxed()
    }

    fn some_str() -> BoxedStrategy<Value> {
        prop_oneof![
            Just(Value::Str(Arc::from(""))),
            Just(Value::Str(Arc::from("aa"))),
            Just(Value::Str(Arc::from("ab"))),
            Just(Value::Str(Arc::from("b"))),
        ]
        .boxed()
    }

    fn str_val() -> BoxedStrategy<Value> {
        prop_oneof![some_str(), some_str(), some_str(), Just(Value::Null)].boxed()
    }

    fn bool_val() -> BoxedStrategy<Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            any::<bool>().prop_map(Value::Bool),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Null),
        ]
        .boxed()
    }

    /// Chunk rows: col 0 float, col 1 int, col 2 dictionary string,
    /// col 3 bool. Lengths cross the 64-bit bitmap word boundary.
    fn chunk() -> BoxedStrategy<Vec<(Value, Value, Value, Value)>> {
        prop::collection::vec((float_val(), int_val(), str_val(), bool_val()), 1..70).boxed()
    }

    fn cmp_op() -> BoxedStrategy<BinOp> {
        prop_oneof![
            Just(BinOp::Lt),
            Just(BinOp::LtEq),
            Just(BinOp::Gt),
            Just(BinOp::GtEq),
            Just(BinOp::Eq),
            Just(BinOp::NotEq),
        ]
        .boxed()
    }

    /// Every expression shape the vectorized classifier supports.
    fn leaf() -> BoxedStrategy<Expr> {
        prop_oneof![
            // numeric column vs literal (both orders), incl. NULL literals
            (cmp_op(), 0usize..2, float_val()).prop_map(|(op, c, v)| Expr::binary(
                op,
                Expr::col(c),
                Expr::lit(v)
            )),
            (cmp_op(), 0usize..2, int_val()).prop_map(|(op, c, v)| Expr::binary(
                op,
                Expr::lit(v),
                Expr::col(c)
            )),
            // numeric column vs numeric column (mixed int/float dtypes)
            cmp_op().prop_map(|op| Expr::binary(op, Expr::col(0), Expr::col(1))),
            // dictionary string vs string literal, both orders
            (cmp_op(), some_str()).prop_map(|(op, v)| Expr::binary(op, Expr::col(2), Expr::lit(v))),
            (cmp_op(), some_str()).prop_map(|(op, v)| Expr::binary(op, Expr::lit(v), Expr::col(2))),
            // IS [NOT] NULL on every column
            (0usize..4, any::<bool>()).prop_map(|(c, negated)| Expr::IsNull {
                expr: Box::new(Expr::col(c)),
                negated,
            }),
            // bare boolean column as a predicate
            Just(Expr::col(3)),
            // constant predicates
            any::<bool>().prop_map(|b| Expr::lit(Value::Bool(b))),
            Just(Expr::lit(Value::Null)),
        ]
        .boxed()
    }

    fn predicate() -> BoxedStrategy<Expr> {
        prop_oneof![
            leaf(),
            leaf(),
            leaf().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            }),
            (leaf(), leaf()).prop_map(|(a, b)| Expr::binary(BinOp::And, a, b)),
            (leaf(), leaf()).prop_map(|(a, b)| Expr::binary(BinOp::Or, a, b)),
        ]
        .boxed()
    }

    fn columns(rows: &[(Value, Value, Value, Value)]) -> Vec<Arc<Column>> {
        let col = |dt, vals: Vec<Value>| Arc::new(Column::from_values(dt, &vals));
        vec![
            col(DataType::Float, rows.iter().map(|r| r.0.clone()).collect()),
            col(DataType::Int, rows.iter().map(|r| r.1.clone()).collect()),
            col(DataType::Str, rows.iter().map(|r| r.2.clone()).collect()),
            col(DataType::Bool, rows.iter().map(|r| r.3.clone()).collect()),
        ]
    }

    fn row_ctx(rows: &[(Value, Value, Value, Value)], i: usize) -> Ctx {
        let r = &rows[i];
        Ctx {
            row: Row::new(vec![r.0.clone(), r.1.clone(), r.2.clone(), r.3.clone()]),
            value: 0.0,
            range: (0.0, 0.0),
            member: Tri::True,
            member_point: false,
        }
    }

    proptest! {
        /// 3VL bitmap classify vs the scalar evaluator, bit for bit. The
        /// references: `pass[i]` ⇔ the predicate is SQL `TRUE` on row `i`
        /// (`eval_predicate(p)`, and equivalently `eval_tri(p) == True`),
        /// and `fail[i]` ⇔ it is SQL `FALSE` (`eval_predicate(NOT p)` —
        /// `NOT p` is `TRUE` exactly when `p` is `FALSE`, so this captures
        /// the FALSE-vs-NULL distinction `eval_tri`'s filter mapping
        /// collapses).
        #[test]
        fn classify_mask_matches_scalar_eval(rows in chunk(), pred in predicate()) {
            let cols = columns(&rows);
            let len = rows.len();
            let Some(mask) = classify_mask(&pred, &cols, len) else {
                // Every shape `predicate()` generates is in the vectorized
                // subset; a bail-out here would be a silent perf regression.
                return Err(TestCaseError::fail("classify_mask refused a supported shape"));
            };
            let not_pred = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(pred.clone()),
            };
            for i in 0..len {
                let ctx = row_ctx(&rows, i);
                let is_true = eval_predicate(&pred, &ctx).unwrap();
                let is_false = eval_predicate(&not_pred, &ctx).unwrap();
                prop_assert_eq!(
                    mask.pass.get(i),
                    is_true,
                    "pass bit, row {} of {:?}",
                    i,
                    &pred
                );
                prop_assert_eq!(
                    mask.fail.get(i),
                    is_false,
                    "fail bit, row {} of {:?}",
                    i,
                    &pred
                );
                // `eval_tri` may be conservatively Maybe (e.g. NaN range
                // bounds defeat the interval tests), but a definite verdict
                // must agree with point evaluation.
                match eval_tri(&pred, &ctx).unwrap() {
                    Tri::True => prop_assert!(
                        is_true,
                        "eval_tri True but row fails: row {} ({:?}) of {:?}",
                        i,
                        &rows[i],
                        &pred
                    ),
                    Tri::False => prop_assert!(
                        !is_true,
                        "eval_tri False but row passes: row {} ({:?}) of {:?}",
                        i,
                        &rows[i],
                        &pred
                    ),
                    Tri::Maybe => {}
                }
                prop_assert!(!(mask.pass.get(i) && mask.fail.get(i)));
            }
        }

        /// 2VL filter bitmap vs per-row `eval_predicate` (NULL ⇒ filtered).
        #[test]
        fn predicate_mask_matches_eval_predicate(rows in chunk(), pred in predicate()) {
            let cols = columns(&rows);
            let len = rows.len();
            let Some(mask) = predicate_mask(&pred, &cols, len) else {
                return Err(TestCaseError::fail("predicate_mask refused a supported shape"));
            };
            for i in 0..len {
                let pass = eval_predicate(&pred, &row_ctx(&rows, i)).unwrap();
                prop_assert_eq!(mask.get(i), pass, "row {} of {:?}", i, &pred);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Numerics at the edges: every integer, cast and numeric-function path
// returns a value or a typed error at the i64 extremes and the IEEE
// specials, and never panics.
// ---------------------------------------------------------------------------

mod edge_numerics {
    use gola_common::{DataType, Value};
    use gola_expr::eval::eval_binary_values;
    use gola_expr::{BinOp, FunctionRegistry, NoResolver, RowContext};
    use proptest::prelude::*;

    fn edge() -> BoxedStrategy<Value> {
        let ints = [i64::MIN, i64::MAX, -1, 0].map(Value::Int);
        let floats = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0].map(Value::Float);
        (0usize..8)
            .prop_map(move |i| {
                ints.iter()
                    .chain(&floats)
                    .nth(i)
                    .cloned()
                    .unwrap_or(Value::Null)
            })
            .boxed()
    }

    /// Arithmetic, unary minus, every cast and every numeric built-in on
    /// `(l, r)` (one- and two-argument forms).
    fn exercise(l: &Value, r: &Value) {
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod] {
            let _ = eval_binary_values(op, l, r);
        }
        let neg = gola_expr::Expr::Unary {
            op: gola_expr::UnaryOp::Neg,
            expr: Box::new(gola_expr::Expr::Literal(l.clone())),
        };
        let _ = gola_expr::eval(&neg, &RowContext::new(&[], &NoResolver));
        for to in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
        ] {
            let _ = l.cast(to);
        }
        let registry = FunctionRegistry::with_builtins();
        let unary = [
            "abs", "sqrt", "ln", "exp", "floor", "ceil", "sign", "log10", "log2",
        ];
        for name in unary.into_iter().chain(["trunc", "round"]) {
            let _ = registry.get(name).unwrap().call(std::slice::from_ref(l));
        }
        for name in ["round", "pow", "least", "greatest"] {
            let _ = registry.get(name).unwrap().call(&[l.clone(), r.clone()]);
        }
    }

    proptest! {
        #[test]
        fn numeric_paths_never_panic_at_the_edges(l in edge(), r in edge()) {
            exercise(&l, &r);
        }
    }

    /// Found by the proptest above: `i64::MIN % -1` overflowed
    /// `rem_euclid` and panicked. The remainder is 0.
    #[test]
    fn int_min_mod_minus_one_is_zero() {
        let m = eval_binary_values(BinOp::Mod, &Value::Int(i64::MIN), &Value::Int(-1));
        assert_eq!(m.unwrap(), Value::Int(0));
    }
}

// ---------------------------------------------------------------------------
// Lane evaluator equivalence: `eval_lanes` vs `eval` run once per lane.
//
// One walk of a subquery-dependent expression must yield, in every lane,
// the very value (same type, same float bits, NULL for NULL) the scalar
// evaluator returns under that lane's context, and must fail exactly when
// the scalar evaluator fails in some lane. The trees mix the lane-wise
// subset (`+ − × ÷ %`, unary minus over `Float`/NULL lanes) with everything
// that forces the per-lane fallback: `Int` and string values, functions,
// `CASE`, mode-dependent keys, missing groups, short trial vectors. A
// producer publishes its trials either as `Value`s or, where every trial is
// `Float`/NULL, as bare `f64` lanes (`Trials::Float`); both must read alike.
// ---------------------------------------------------------------------------

mod lane_equivalence {
    use std::cmp::Ordering;
    use std::sync::Arc;

    use gola_common::{cmp_values, Result, Row, Value};
    use gola_expr::eval::eval;
    use gola_expr::lanes::{eval_lanes, LaneContext, Lanes, ScalarLanes, Trials};
    use gola_expr::vector::num_total_key;
    use gola_expr::{BinOp, EvalContext, Expr, FunctionRegistry, Resolver, SubqueryId, UnaryOp};
    use proptest::prelude::*;

    /// Point plus four trials.
    const LANES: usize = 5;

    /// One published group: its point value and (possibly fewer than
    /// `LANES − 1`) trial values.
    type Entry = (Value, Vec<Value>);

    /// A row and the scalar subqueries' publications, keyed `(id, key)`,
    /// each beside its trials as the lane evaluator reads them.
    #[derive(Debug)]
    struct Modes {
        row: Row,
        entries: Vec<((usize, Vec<Value>), Entry, Trials)>,
    }

    type Slot = (usize, Vec<Value>);

    impl Modes {
        /// `entries` published with `Float`/NULL trials as `f64` lanes
        /// (`floats`) or every trial as a `Value`.
        fn new(row: Row, entries: Vec<(Slot, Entry)>, floats: bool) -> Modes {
            let publish = |trials: &Vec<Value>| match floats {
                true => Trials::from_values(trials.clone()),
                false => Trials::Values(trials.clone()),
            };
            let entries = (entries.into_iter())
                .map(|(at, e)| {
                    let trials = publish(&e.1);
                    (at, e, trials)
                })
                .collect();
            Modes { row, entries }
        }

        fn published(&self, id: SubqueryId, key: &[Value]) -> Option<(&Entry, &Trials)> {
            let hit = |at: &&(Slot, Entry, Trials)| {
                at.0 .0 == id.0 && cmp_values(&at.0 .1, key) == Ordering::Equal
            };
            self.entries.iter().find(hit).map(|(_, e, t)| (e, t))
        }

        fn entry(&self, id: SubqueryId, key: &[Value]) -> Option<&Entry> {
            self.published(id, key).map(|(e, _)| e)
        }
    }

    /// The reference: the ordinary context of one lane.
    struct Mode<'a> {
        modes: &'a Modes,
        lane: usize,
    }

    impl EvalContext for Mode<'_> {
        fn column(&self, idx: usize) -> &Value {
            self.modes.row.get(idx)
        }
        fn resolver(&self) -> &dyn Resolver {
            self
        }
    }

    impl Resolver for Mode<'_> {
        fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<Value> {
            Ok(match self.modes.entry(id, key) {
                Some((point, trials)) => {
                    let trial = self.lane.checked_sub(1).and_then(|b| trials.get(b));
                    trial.unwrap_or(point).clone()
                }
                None => Value::Null,
            })
        }
        fn member(&self, _: SubqueryId, _: &[Value]) -> Result<bool> {
            Ok(false)
        }
    }

    impl LaneContext for Modes {
        fn lanes(&self) -> usize {
            LANES
        }
        fn eval_at(&self, lane: usize, expr: &Expr) -> Result<Value> {
            eval(expr, &Mode { modes: self, lane })
        }
        fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<ScalarLanes<'_>> {
            Ok(match self.published(id, key) {
                Some(((point, _), trials)) => ScalarLanes { point, trials },
                None => ScalarLanes::NULL,
            })
        }
    }

    fn float_val() -> BoxedStrategy<Value> {
        prop_oneof![
            (-12i32..12).prop_map(|i| Value::Float(i as f64 * 0.75)),
            (-12i32..12).prop_map(|i| Value::Float(i as f64 * 0.75)),
            (-1e3f64..1e3).prop_map(Value::Float),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(f64::NEG_INFINITY)),
            Just(Value::Null),
        ]
        .boxed()
    }

    fn any_val() -> BoxedStrategy<Value> {
        prop_oneof![
            float_val(),
            (-3i64..4).prop_map(Value::Int),
            Just(Value::Int(i64::MAX)),
            Just(Value::Str(Arc::from("s"))),
        ]
        .boxed()
    }

    /// Mostly all-`Float`/NULL groups (the lane-wise path), some mixed.
    fn entry() -> BoxedStrategy<Entry> {
        prop_oneof![
            (float_val(), prop::collection::vec(float_val(), 0..LANES)),
            (float_val(), prop::collection::vec(float_val(), LANES - 1)),
            (any_val(), prop::collection::vec(any_val(), 0..LANES)),
        ]
        .boxed()
    }

    /// Subqueries 0..3, each with an uncorrelated group and groups at keys
    /// 0 and 1 — any of them possibly missing; key 2 always is. Trials are
    /// published as `f64` lanes where they can be, or all as values.
    fn modes() -> BoxedStrategy<Modes> {
        let groups = prop::collection::vec(prop::option::of(entry()), 9);
        (float_val(), 0i64..3, groups, any::<bool>())
            .prop_map(|(x, k, groups, floats)| {
                let keys = [vec![], vec![Value::Int(0)], vec![Value::Int(1)]];
                let slots = (0..3).flat_map(|id| keys.iter().map(move |key| (id, key.clone())));
                let entries = slots.zip(groups).filter_map(|(at, e)| Some((at, e?)));
                Modes::new(Row::new(vec![x, Value::Int(k)]), entries.collect(), floats)
            })
            .boxed()
    }

    fn sref(id: usize, key: Vec<Expr>) -> Expr {
        Expr::ScalarRef {
            id: SubqueryId(id),
            key,
        }
    }

    fn leaf() -> BoxedStrategy<Expr> {
        prop_oneof![
            float_val().prop_map(Expr::lit),
            (-2i64..3).prop_map(Expr::lit),
            Just(Expr::col(0)),
            Just(Expr::col(1)),
            (0usize..3).prop_map(|id| sref(id, vec![])),
            (0usize..3).prop_map(|id| sref(id, vec![])),
            (0usize..3).prop_map(|id| sref(id, vec![Expr::col(1)])),
            (0usize..3, 0i64..3).prop_map(|(id, k)| sref(id, vec![Expr::lit(k)])),
            // A key that moves with the mode.
            (0usize..3, 0usize..3).prop_map(|(id, of)| sref(id, vec![sref(of, vec![])])),
        ]
        .boxed()
    }

    fn arith_op() -> BoxedStrategy<BinOp> {
        prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Mod),
        ]
        .boxed()
    }

    fn tree() -> BoxedStrategy<Expr> {
        let registry = FunctionRegistry::with_builtins();
        let func = move |name: &str, args: Vec<Expr>| Expr::Func {
            name: name.to_string(),
            func: registry.get(name).unwrap(),
            args,
        };
        leaf().prop_recursive(4, 24, 2, move |inner| {
            let func = func.clone();
            let func2 = func.clone();
            prop_oneof![
                (arith_op(), inner.clone(), inner.clone())
                    .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                (arith_op(), inner.clone(), inner.clone())
                    .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                (arith_op(), inner.clone(), inner.clone())
                    .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                inner.clone().prop_map(|e| Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(e),
                }),
                // Nodes outside the lane-wise subset: the fallback.
                inner.clone().prop_map(move |e| func("abs", vec![e])),
                (inner.clone(), inner.clone())
                    .prop_map(move |(a, b)| func2("coalesce", vec![a, b])),
                (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::Case {
                    branches: vec![(Expr::gt(c, Expr::lit(0.0)), t)],
                    else_expr: Some(Box::new(e)),
                }),
            ]
        })
    }

    /// Same type, same float bits, NULL for NULL.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Null, Value::Null) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        }
    }

    /// How `got` differs from `eval` run once per lane, if it does.
    fn mismatch(expr: &Expr, modes: &Modes, got: &Result<Lanes>) -> Option<String> {
        let want: Vec<Result<Value>> = (0..LANES).map(|l| modes.eval_at(l, expr)).collect();
        let lanes = match got {
            Ok(lanes) => lanes,
            Err(_) if want.iter().any(|w| w.is_err()) => return None,
            Err(e) => return Some(format!("failed ({e}) where every lane evaluates")),
        };
        for (l, w) in want.iter().enumerate() {
            match w {
                Ok(w) if same(w, &lanes.value(l)) => {}
                Ok(w) => return Some(format!("lane {l}: {:?}, eval gives {w:?}", lanes.value(l))),
                Err(e) => return Some(format!("lane {l}: eval fails ({e}), lanes did not")),
            }
        }
        // The comparison view: every lane's `as_f64` as a total-order key
        // and a validity bit, unless a lane is a string.
        let want: Vec<&Value> = want.iter().flatten().collect();
        let (mut keys, mut valid) = (Vec::new(), Vec::new());
        let numeric = lanes.total_order_keys(LANES, &mut keys, &mut valid);
        if want.iter().any(|w| matches!(w, Value::Str(_))) {
            return (numeric || !keys.is_empty())
                .then(|| format!("comparison keys {keys:?} of a string lane"));
        }
        let key = |w: &Value| w.as_f64().map_or((0, 0), |x| (num_total_key(x), 1));
        let expect: Vec<(i64, u32)> = want.iter().map(|w| key(w)).collect();
        let got: Vec<(i64, u32)> = keys.into_iter().zip(valid).collect();
        (!numeric || got != expect).then(|| format!("comparison keys {got:?} of {want:?}"))
    }

    /// The planted bug: the first NULL lane read as `0.0`.
    fn null_as_zero(lanes: &Lanes) -> Option<Lanes> {
        let Lanes::Float(xs) = lanes else {
            return None;
        };
        let mut xs = xs.clone();
        *xs.iter_mut().find(|x| x.is_none())? = Some(0.0);
        Some(Lanes::Float(xs))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn lanes_equal_eval_per_lane(expr in tree(), modes in modes()) {
            let got = eval_lanes(&expr, &modes);
            if let Some(diff) = mismatch(&expr, &modes, &got) {
                return Err(TestCaseError::fail(format!("{expr} over {modes:?}: {diff}")));
            }
        }

        /// The check above has teeth: whenever a lane is NULL, reading it as
        /// `0.0` is reported.
        #[test]
        fn planted_null_as_zero_is_caught(expr in tree(), modes in modes()) {
            if let Some(bugged) = eval_lanes(&expr, &modes).ok().as_ref().and_then(null_as_zero) {
                prop_assert!(
                    mismatch(&expr, &modes, &Ok(bugged)).is_some(),
                    "NULL read as 0.0 went unnoticed in {}", expr
                );
            }
        }
    }

    /// The planted-bug property is not vacuous, and the lane-wise path is
    /// what the paper-shaped RHS takes, from either trial representation.
    #[test]
    fn q17_rhs_is_lane_wise_and_its_null_lane_is_guarded() {
        let entry = (
            Value::Float(8.0),
            vec![Value::Float(7.0), Value::Null, Value::Float(-0.0)],
        );
        for floats in [false, true] {
            let row = Row::new(vec![Value::Float(1.0), Value::Int(1)]);
            let modes = Modes::new(row, vec![((0, vec![Value::Int(1)]), entry.clone())], floats);
            let rhs = Expr::binary(BinOp::Mul, Expr::lit(0.5), sref(0, vec![Expr::col(1)]));
            let got = eval_lanes(&rhs, &modes).unwrap();
            // Trial 3 is unpublished: it reads the point value.
            let want = vec![Some(4.0), Some(3.5), None, Some(-0.0), Some(4.0)];
            let Lanes::Float(xs) = &got else {
                panic!("not lane-wise: {got:?}");
            };
            let bits =
                |xs: &[Option<f64>]| -> Vec<_> { xs.iter().map(|x| x.map(f64::to_bits)).collect() };
            assert_eq!(bits(xs), bits(&want), "floats: {floats}");
            assert!(mismatch(&rhs, &modes, &Ok(got.clone())).is_none());
            let bugged = null_as_zero(&got).expect("a NULL lane to plant the bug in");
            assert!(mismatch(&rhs, &modes, &Ok(bugged)).is_some());
        }
    }

    /// A reference to `Float` lanes copies them bit for bit — NULL, NaN,
    /// ±∞ and −0.0 included — and pads a short trial vector with the point;
    /// the same trials published as values read the same, and an `Int`
    /// point keeps the per-lane path.
    #[test]
    fn float_trials_copy_into_the_lanes() {
        let trials = vec![
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
        ];
        let exprs = [
            sref(0, vec![]),
            Expr::binary(BinOp::Sub, sref(0, vec![]), Expr::lit(1.0)),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(sref(0, vec![])),
            },
        ];
        for point in [
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::Null,
            Value::Int(3),
        ] {
            let entry = (point.clone(), trials.clone());
            for floats in [false, true] {
                let row = Row::new(vec![Value::Float(1.0), Value::Int(0)]);
                let modes = Modes::new(row, vec![((0, vec![]), entry.clone())], floats);
                let published = &modes.entries[0].2;
                assert_eq!(matches!(published, Trials::Float(_)), floats);
                for expr in &exprs {
                    let got = eval_lanes(expr, &modes);
                    if let Some(diff) = mismatch(expr, &modes, &got) {
                        panic!("{expr} at point {point:?}, floats {floats}: {diff}");
                    }
                }
            }
        }
    }
}
