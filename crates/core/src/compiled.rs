//! Per-block compilation for online execution.
//!
//! [`CompiledBlock`] augments a [`Block`] with everything the executor
//! precomputes once per query:
//!
//! * the split of WHERE conjuncts into *certain* (no subquery references —
//!   evaluated once per tuple, decisions never flip) and *uncertain* ones;
//! * the **lineage projection**: the minimal set of source columns that
//!   uncertain tuples must cache (paper §3.3), and every downstream
//!   expression rewritten into lineage-row coordinates.

use gola_agg::AggKind;
use gola_expr::Expr;
use gola_plan::Block;

/// A lineage block plus its precomputed online-execution artifacts.
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    pub block: Block,
    /// WHERE conjuncts with no subquery references, over the source schema.
    pub certain_filters: Vec<Expr>,
    /// Source-schema columns cached for uncertain tuples (sorted).
    pub lineage_cols: Vec<usize>,
    /// WHERE conjuncts referencing other blocks, in lineage-row coordinates.
    pub lin_filters: Vec<Expr>,
    /// A candidate's fold slot key, its group label, in lineage-row
    /// coordinates: the membership key then the group-by key for a
    /// [`CompiledBlock::semi_join`] block, the group-by key otherwise.
    pub lin_slot_key: Vec<Expr>,
    /// Aggregate argument expressions in lineage-row coordinates.
    pub lin_agg_args: Vec<Expr>,
    /// Aggregate kinds (for state construction).
    pub agg_kinds: Vec<AggKind>,
    /// Semi-join aggregation strategy (paper §3.2 applied at the *group*
    /// level): when the only uncertain predicate is a single membership
    /// test and every aggregate is mergeable, tuples are folded
    /// unconditionally into partial aggregates keyed by the membership key;
    /// the answer selects the partitions whose keys are (per trial)
    /// members. No tuples are cached and membership flips are absorbed by
    /// re-selection instead of recomputation. `(subquery, lineage-remapped
    /// key exprs, negated)`.
    pub semi_join: Option<(gola_expr::SubqueryId, Vec<Expr>, bool)>,
    /// Fast HAVING evaluation: when every HAVING conjunct is
    /// `agg-row-column θ constant`, the per-(group × trial) membership test
    /// reduces to direct comparisons. `(column, op, constant)` triples.
    pub fast_having: Option<Vec<(usize, gola_expr::BinOp, gola_common::Value)>>,
    /// Fast scalar-comparison filters: every uncertain predicate has the
    /// shape `row-expr θ f(scalar-refs)` where `f`'s only row dependence is
    /// the references' correlation keys — one entry per conjunct of
    /// `lin_filters`, in order. Classification and per-trial re-evaluation
    /// of the uncertain set then evaluate `f` once per correlation key
    /// instead of once per tuple (and trial).
    pub fast_scalar_cmp: Option<Vec<FastScalarCmp>>,
}

/// Precompiled `lhs θ rhs(scalar-refs)` uncertain filter (lineage coords).
#[derive(Debug, Clone)]
pub struct FastScalarCmp {
    pub op: gola_expr::BinOp,
    /// Row-only side (no subquery references).
    pub lhs: Expr,
    /// Side containing one or more scalar references; row columns appear
    /// only inside the references' key expressions.
    pub rhs: Expr,
    /// Every reference's key expressions, in reference order (lineage
    /// coords): `rhs` is a function of these values alone.
    pub key: Vec<Expr>,
    /// The references in that order.
    pub refs: Vec<RhsRef>,
}

/// One scalar reference of a [`FastScalarCmp::rhs`]: its producer and how
/// many of [`FastScalarCmp::key`]'s expressions are its own.
pub type RhsRef = (gola_expr::SubqueryId, usize);

/// `e` qualifies as a cacheable RHS: at least one `ScalarRef`, no
/// membership references, and every row column sits inside a ref's keys
/// (which themselves hold no reference). Returns [`FastScalarCmp::key`]
/// and [`FastScalarCmp::refs`].
fn cacheable_rhs(e: &Expr) -> Option<(Vec<Expr>, Vec<RhsRef>)> {
    fn walk(e: &Expr, keys: &mut Vec<Expr>, refs: &mut Vec<RhsRef>) -> bool {
        match e {
            Expr::ScalarRef { id, key } => {
                refs.push((*id, key.len()));
                keys.extend(key.iter().cloned());
                !key.iter().any(Expr::has_subquery_ref)
            }
            // Membership or a bare row column inside the RHS disables the
            // fast path.
            Expr::InSubquery { .. } | Expr::Column(_) => false,
            _ => e.children().into_iter().all(|c| walk(c, keys, refs)),
        }
    }
    let (mut keys, mut refs) = (Vec::new(), Vec::new());
    (walk(e, &mut keys, &mut refs) && !refs.is_empty()).then_some((keys, refs))
}

/// `a θ b` ⇔ `b θ' a`.
fn flip(op: gola_expr::BinOp) -> gola_expr::BinOp {
    use gola_expr::BinOp::*;
    match op {
        Lt => Gt,
        LtEq => GtEq,
        Gt => Lt,
        GtEq => LtEq,
        other => other,
    }
}

fn compile_fast_scalar_cmp(lin_filters: &[Expr]) -> Option<Vec<FastScalarCmp>> {
    let conjunct = |f: &Expr| {
        let Expr::Binary { op, left, right } = f else {
            return None;
        };
        if !op.is_comparison() {
            return None;
        }
        let (op, lhs, rhs) = if !left.has_subquery_ref() {
            (*op, left, right)
        } else if !right.has_subquery_ref() {
            (flip(*op), right, left)
        } else {
            return None;
        };
        let (key, refs) = cacheable_rhs(rhs)?;
        Some(FastScalarCmp {
            op,
            lhs: (**lhs).clone(),
            rhs: (**rhs).clone(),
            key,
            refs,
        })
    };
    if lin_filters.is_empty() {
        return None;
    }
    lin_filters.iter().map(conjunct).collect()
}

impl CompiledBlock {
    pub fn new(block: Block) -> CompiledBlock {
        let mut certain_filters = Vec::new();
        let mut uncertain_filters = Vec::new();
        for f in &block.filters {
            if f.has_subquery_ref() {
                uncertain_filters.push(f.clone());
            } else {
                certain_filters.push(f.clone());
            }
        }
        // Lineage: only what uncertain re-evaluation and aggregation need.
        let mut lineage_cols = Vec::new();
        for e in uncertain_filters
            .iter()
            .chain(block.group_by.iter())
            .chain(block.aggs.iter().map(|a| &a.arg))
        {
            e.collect_columns(&mut lineage_cols);
        }
        lineage_cols.sort_unstable();
        #[expect(clippy::expect_used, reason = "collected from these expressions")]
        let remap = |src: usize| -> usize {
            lineage_cols
                .binary_search(&src)
                .expect("lineage projection covers all referenced columns")
        };
        let lin_filters: Vec<Expr> = uncertain_filters
            .iter()
            .map(|e| e.remap_columns(&remap))
            .collect();
        let lin_group_by: Vec<Expr> = block
            .group_by
            .iter()
            .map(|e| e.remap_columns(&remap))
            .collect();
        let lin_agg_args: Vec<Expr> = block
            .aggs
            .iter()
            .map(|a| a.arg.remap_columns(&remap))
            .collect();
        let agg_kinds: Vec<AggKind> = block.aggs.iter().map(|a| a.kind.clone()).collect();
        let semi_join = match &lin_filters[..] {
            [Expr::InSubquery { id, key, negated }]
                if agg_kinds.iter().all(AggKind::is_mergeable) =>
            {
                Some((*id, key.clone(), *negated))
            }
            _ => None,
        };
        let member_key = semi_join.iter().flat_map(|(_, key, _)| key);
        let lin_slot_key = member_key.cloned().chain(lin_group_by).collect();
        let fast_having = compile_fast_having(&block.having);
        let fast_scalar_cmp = compile_fast_scalar_cmp(&lin_filters);
        CompiledBlock {
            block,
            certain_filters,
            lineage_cols,
            lin_filters,
            lin_slot_key,
            lin_agg_args,
            agg_kinds,
            semi_join,
            fast_having,
            fast_scalar_cmp,
        }
    }

    /// Number of group-key columns.
    pub fn num_keys(&self) -> usize {
        self.block.group_by.len()
    }

    /// Number of [`FastScalarCmp`] conjuncts: the width of an uncertain
    /// tuple's row of correlation-key ids.
    pub fn cmp_conjuncts(&self) -> usize {
        self.fast_scalar_cmp.as_ref().map_or(0, Vec::len)
    }
}

/// Recognize `Column θ constant` / `constant θ Column` HAVING conjuncts and
/// pre-evaluate the constant side. Any non-matching conjunct disables the
/// fast path.
fn compile_fast_having(
    having: &[Expr],
) -> Option<Vec<(usize, gola_expr::BinOp, gola_common::Value)>> {
    use gola_expr::eval::{eval, NoResolver, RowContext};
    if having.is_empty() {
        return None;
    }
    let mut out = Vec::with_capacity(having.len());
    for h in having {
        let Expr::Binary { op, left, right } = h else {
            return None;
        };
        if !op.is_comparison() {
            return None;
        }
        let constant = |e: &Expr| -> Option<gola_common::Value> {
            let mut cols = Vec::new();
            e.collect_columns(&mut cols);
            if !cols.is_empty() || e.has_subquery_ref() {
                return None;
            }
            eval(e, &RowContext::new(&[], &NoResolver)).ok()
        };
        match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), rhs) => {
                out.push((*c, *op, constant(rhs)?));
            }
            (lhs, Expr::Column(c)) => {
                // `const θ col` is `col θ' const`.
                out.push((*c, flip(*op), constant(lhs)?));
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{DataType, Schema};
    use gola_expr::{BinOp, SubqueryId};
    use gola_plan::{AggCall, BlockRole};
    use std::sync::Arc;

    fn block() -> Block {
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Float),
            ("d", DataType::Float),
        ]));
        Block {
            id: 1,
            role: BlockRole::Root,
            source_table: "t".into(),
            is_streaming: true,
            dims: vec![],
            source_schema: Arc::clone(&schema),
            filters: vec![
                // certain: a > 0 (source col 0, not in lineage need? it is
                // referenced only here → excluded from lineage)
                Expr::gt(Expr::col(0), Expr::lit(0i64)),
                // uncertain: c > $sq0
                Expr::gt(
                    Expr::col(2),
                    Expr::ScalarRef {
                        id: SubqueryId(0),
                        key: vec![],
                    },
                ),
            ],
            group_by: vec![Expr::col(3)],
            aggs: vec![AggCall {
                kind: AggKind::Avg,
                arg: Expr::binary(BinOp::Add, Expr::col(1), Expr::col(3)),
                name: "x".into(),
            }],
            agg_row_schema: Arc::new(Schema::from_pairs(&[
                ("d", DataType::Float),
                ("x", DataType::Float),
            ])),
            having: vec![],
            post_project: None,
            output_schema: Arc::new(Schema::from_pairs(&[
                ("d", DataType::Float),
                ("x", DataType::Float),
            ])),
            order_by: vec![],
            limit: None,
            deps: vec![SubqueryId(0)],
        }
    }

    #[test]
    fn filters_split_by_uncertainty() {
        let c = CompiledBlock::new(block());
        assert_eq!(c.certain_filters.len(), 1);
        assert_eq!(c.lin_filters.len(), 1);
    }

    #[test]
    fn lineage_excludes_certain_only_columns() {
        let c = CompiledBlock::new(block());
        // Columns needed downstream: 1 (agg), 2 (uncertain filter), 3
        // (group + agg). Column 0 is only in a certain filter.
        assert_eq!(c.lineage_cols, vec![1, 2, 3]);
    }

    #[test]
    fn expressions_remapped_to_lineage_coordinates() {
        let c = CompiledBlock::new(block());
        // Source col 2 → lineage idx 1.
        assert_eq!(c.lin_filters[0].to_string(), "(#1 > $sq0)");
        // group col 3 → lineage idx 2.
        assert_eq!(c.lin_slot_key[0].to_string(), "#2");
        // agg arg (#1 + #3) → (#0 + #2).
        assert_eq!(c.lin_agg_args[0].to_string(), "(#0 + #2)");
        assert_eq!(c.num_keys(), 1);
        assert_eq!(c.agg_kinds.len(), 1);
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use gola_common::{DataType, Schema, Value};
    use gola_expr::{BinOp, SubqueryId};
    use gola_plan::{AggCall, BlockRole};
    use std::sync::Arc;

    fn base_block(filters: Vec<Expr>, having: Vec<Expr>, kinds: Vec<AggKind>) -> Block {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("x", DataType::Float),
        ]));
        let aggs: Vec<AggCall> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| AggCall {
                kind,
                arg: Expr::col(1),
                name: format!("a{i}"),
            })
            .collect();
        Block {
            id: 0,
            role: BlockRole::Root,
            source_table: "t".into(),
            is_streaming: true,
            dims: vec![],
            source_schema: Arc::clone(&schema),
            filters,
            group_by: vec![Expr::col(0)],
            aggs,
            agg_row_schema: Arc::new(Schema::from_pairs(&[
                ("k", DataType::Int),
                ("a0", DataType::Float),
            ])),
            having,
            post_project: None,
            output_schema: Arc::new(Schema::from_pairs(&[
                ("k", DataType::Int),
                ("a0", DataType::Float),
            ])),
            order_by: vec![],
            limit: None,
            deps: vec![],
        }
    }

    fn member_filter() -> Expr {
        Expr::InSubquery {
            id: SubqueryId(0),
            key: vec![Expr::col(0)],
            negated: false,
        }
    }

    #[test]
    fn semi_join_detected_for_single_membership_with_mergeable_aggs() {
        let cb = CompiledBlock::new(base_block(
            vec![member_filter()],
            vec![],
            vec![AggKind::Sum, AggKind::Avg],
        ));
        assert!(cb.semi_join.is_some());
        // A quantile aggregate disables it (states are unmergeable).
        let cb = CompiledBlock::new(base_block(
            vec![member_filter()],
            vec![],
            vec![AggKind::Quantile(0.5)],
        ));
        assert!(cb.semi_join.is_none());
        // A second uncertain filter disables it too.
        let scalar = Expr::gt(
            Expr::col(1),
            Expr::ScalarRef {
                id: SubqueryId(1),
                key: vec![],
            },
        );
        let cb = CompiledBlock::new(base_block(
            vec![member_filter(), scalar],
            vec![],
            vec![AggKind::Sum],
        ));
        assert!(cb.semi_join.is_none());
    }

    #[test]
    fn fast_having_detected_for_constant_thresholds() {
        // agg column > constant (also flipped), constant side pre-evaluated.
        let h1 = Expr::gt(
            Expr::col(1),
            Expr::binary(BinOp::Mul, Expr::lit(3.0), Expr::lit(100.0)),
        );
        let cb = CompiledBlock::new(base_block(vec![], vec![h1], vec![AggKind::Sum]));
        let fh = cb.fast_having.as_ref().unwrap();
        assert_eq!(fh.len(), 1);
        assert_eq!(fh[0].0, 1);
        assert_eq!(fh[0].1, BinOp::Gt);
        assert_eq!(fh[0].2, Value::Float(300.0));
        // Flipped: const < column normalizes to column > const.
        let h2 = Expr::lt(Expr::lit(300.0), Expr::col(1));
        let cb = CompiledBlock::new(base_block(vec![], vec![h2], vec![AggKind::Sum]));
        assert_eq!(cb.fast_having.as_ref().unwrap()[0].1, BinOp::Gt);
        // A scalar-ref threshold disables the fast path.
        let h3 = Expr::gt(
            Expr::col(1),
            Expr::ScalarRef {
                id: SubqueryId(0),
                key: vec![],
            },
        );
        let cb = CompiledBlock::new(base_block(vec![], vec![h3], vec![AggKind::Sum]));
        assert!(cb.fast_having.is_none());
    }

    fn sref(id: usize, key: Vec<Expr>) -> Expr {
        Expr::ScalarRef {
            id: SubqueryId(id),
            key,
        }
    }

    fn fast_cmp(filters: Vec<Expr>) -> Option<Vec<FastScalarCmp>> {
        CompiledBlock::new(base_block(filters, vec![], vec![AggKind::Sum])).fast_scalar_cmp
    }

    fn key_of(fsc: &FastScalarCmp) -> String {
        let key: Vec<String> = fsc.key.iter().map(Expr::to_string).collect();
        key.join(" ")
    }

    #[test]
    fn fast_scalar_cmp_detected_and_flipped() {
        // x < 0.5 * $sq0[k] — cacheable by the correlation key.
        let q17 = Expr::lt(
            Expr::col(1),
            Expr::binary(BinOp::Mul, Expr::lit(0.5), sref(0, vec![Expr::col(0)])),
        );
        let fscs = fast_cmp(vec![q17.clone()]).unwrap();
        assert_eq!(fscs.len(), 1);
        assert_eq!(fscs[0].op, BinOp::Lt);
        assert_eq!(key_of(&fscs[0]), "#0");
        // Flipped orientation normalizes the operator.
        let flipped = Expr::gt(sref(0, vec![]), Expr::col(1));
        let fscs = fast_cmp(vec![flipped]).unwrap();
        assert_eq!(fscs[0].op, BinOp::Lt);
        assert_eq!(fscs[0].lhs.to_string(), "#1");
        assert!(fscs[0].key.is_empty());
        // Several refs (C2: AVG + STDDEV, here one of them correlated on
        // two columns like Q20): the key is every ref's key, in ref order.
        let two_refs = Expr::gt(
            Expr::col(1),
            Expr::binary(
                BinOp::Add,
                sref(0, vec![Expr::col(0), Expr::col(1)]),
                sref(1, vec![]),
            ),
        );
        let fscs = fast_cmp(vec![two_refs.clone()]).unwrap();
        assert_eq!(key_of(&fscs[0]), "#0 #1");
        assert_eq!(fscs[0].refs, [(SubqueryId(0), 2), (SubqueryId(1), 0)]);
        // A conjunction of such comparisons compiles conjunct by conjunct.
        let fscs = fast_cmp(vec![q17.clone(), two_refs]).unwrap();
        assert_eq!(fscs.len(), 2);
        assert_eq!((fscs[0].op, fscs[1].op), (BinOp::Lt, BinOp::Gt));
    }

    #[test]
    fn fast_scalar_cmp_rejects_what_a_key_cannot_cache() {
        let q17 = Expr::lt(Expr::col(1), sref(0, vec![Expr::col(0)]));
        assert!(fast_cmp(vec![q17.clone()]).is_some());
        // A row column outside the refs' keys: the RHS varies per tuple.
        let outside = Expr::lt(
            Expr::col(1),
            Expr::binary(BinOp::Add, Expr::col(1), sref(0, vec![])),
        );
        assert!(fast_cmp(vec![outside]).is_none());
        // A key that itself reads a subquery moves with the trial.
        let nested = Expr::lt(Expr::col(1), sref(0, vec![sref(1, vec![])]));
        assert!(fast_cmp(vec![nested]).is_none());
        // References on both sides leave no row-only LHS.
        let both = Expr::lt(sref(0, vec![]), sref(1, vec![]));
        assert!(fast_cmp(vec![both]).is_none());
        // Not a comparison at the top, or a membership among the
        // conjuncts: the whole filter list stays generic.
        let disjunction = Expr::binary(BinOp::Or, q17.clone(), q17.clone());
        assert!(fast_cmp(vec![disjunction]).is_none());
        assert!(fast_cmp(vec![q17, member_filter()]).is_none());
        assert!(fast_cmp(vec![]).is_none());
    }
}
