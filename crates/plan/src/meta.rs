//! The meta query plan: lineage-block decomposition (paper §3.3, §4).
//!
//! The online query compiler turns a [`QueryGraph`] into a [`MetaPlan`]: a
//! topologically-ordered list of **lineage blocks**. A lineage block is a
//! maximal SPJA unit — scans (one streamed fact table plus broadcast
//! dimension joins), conjunctive filters, one hash aggregation, HAVING
//! conjuncts, and a post-projection. Within a block the executor propagates
//! lineage (the projection of source columns the block needs) with every
//! cached uncertain tuple; across blocks only finalized aggregate values
//! and their variation ranges are broadcast — exactly the paper's bound on
//! lineage-propagation cost.

use std::sync::Arc;

use gola_common::{Error, Result, Schema};
use gola_expr::{Expr, SubqueryId};

use crate::logical::{AggCall, LogicalPlan, QueryContract, QueryGraph, SubqueryKind};

/// A broadcast join against a small, fully-materialized dimension table.
#[derive(Debug, Clone)]
pub struct DimJoin {
    pub table: String,
    pub dim_schema: Arc<Schema>,
    /// Join-key expressions over the *accumulated* left schema (fact ++
    /// previously joined dims).
    pub fact_keys: Vec<Expr>,
    /// Join-key expressions over the dimension schema.
    pub dim_keys: Vec<Expr>,
}

/// What a block's output feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// Scalar subquery: consumers look up one output value per group key.
    Scalar,
    /// Membership subquery: consumers test whether a key survives the
    /// block's HAVING filter.
    Membership,
    /// The root query: output rows go to the user.
    Root,
}

/// One lineage block — a streaming SPJA unit.
#[derive(Debug, Clone)]
pub struct Block {
    /// Index of this block in [`MetaPlan::blocks`]. Subquery `SubqueryId(i)`
    /// is block `i`; the root is the last block.
    pub id: usize,
    pub role: BlockRole,
    /// The base table this block scans.
    pub source_table: String,
    /// `true` if `source_table` is the streamed fact table; static blocks
    /// are computed exactly, once, before streaming starts.
    pub is_streaming: bool,
    /// Broadcast dimension joins, applied left-to-right.
    pub dims: Vec<DimJoin>,
    /// Schema of the joined source row (fact ++ dims).
    pub source_schema: Arc<Schema>,
    /// WHERE conjuncts over `source_schema` (may reference subqueries).
    pub filters: Vec<Expr>,
    /// Group-key expressions over `source_schema` (deterministic only).
    pub group_by: Vec<Expr>,
    /// Aggregates over `source_schema` (deterministic arguments only).
    pub aggs: Vec<AggCall>,
    /// Schema of a group row: group columns then aggregate columns.
    pub agg_row_schema: Arc<Schema>,
    /// HAVING conjuncts over `agg_row_schema` (may reference subqueries).
    pub having: Vec<Expr>,
    /// Final projection over `agg_row_schema`; `None` keeps group rows.
    pub post_project: Option<Vec<Expr>>,
    /// Output schema (after `post_project`).
    pub output_schema: Arc<Schema>,
    /// Sort keys over `output_schema` (root only).
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<usize>,
    /// Subqueries this block's expressions reference.
    pub deps: Vec<SubqueryId>,
}

impl Block {
    /// `true` if any filter or having conjunct references a subquery — i.e.
    /// this block needs uncertain/deterministic partitioning at all.
    pub fn has_uncertain_predicates(&self) -> bool {
        self.filters.iter().any(Expr::has_subquery_ref)
            || self.having.iter().any(Expr::has_subquery_ref)
    }
}

/// The compiled meta plan: blocks in a valid execution (topological) order.
#[derive(Debug, Clone)]
pub struct MetaPlan {
    pub blocks: Vec<Block>,
    /// Index of the root block in `blocks`.
    pub root: usize,
    /// Topological execution order (dependencies first).
    pub order: Vec<usize>,
    /// The streamed fact table.
    pub stream_table: String,
    /// Precision/deadline contract carried down from the query graph.
    pub contract: Option<QueryContract>,
}

impl MetaPlan {
    /// Compile a query graph into lineage blocks, streaming `stream_table`.
    pub fn compile(graph: &QueryGraph, stream_table: &str) -> Result<MetaPlan> {
        let mut blocks = Vec::with_capacity(graph.subqueries.len() + 1);
        for (i, sq) in graph.subqueries.iter().enumerate() {
            let role = match sq.kind {
                SubqueryKind::Scalar => BlockRole::Scalar,
                SubqueryKind::Membership => BlockRole::Membership,
            };
            let block = blockify(&sq.plan, i, role, stream_table)?;
            // Scalar publication has no HAVING step: a group HAVING rejects
            // would be read as its value instead of NULL.
            if role == BlockRole::Scalar && !block.having.is_empty() {
                return Err(Error::plan(format!(
                    "scalar subquery {i} has a HAVING clause, which online execution \
                     does not support; run the query exactly"
                )));
            }
            blocks.push(block);
        }
        let root_id = blocks.len();
        blocks.push(blockify(
            &graph.root,
            root_id,
            BlockRole::Root,
            stream_table,
        )?);

        // Static blocks must not depend on streaming blocks: their output is
        // computed once, before any mini-batch.
        for b in &blocks {
            if !b.is_streaming {
                for dep in &b.deps {
                    if blocks[dep.0].is_streaming {
                        return Err(Error::plan(format!(
                            "static block {} (over '{}') depends on streaming subquery {dep}; \
                             mark '{}' as the streamed table or denormalize",
                            b.id, b.source_table, b.source_table
                        )));
                    }
                }
            }
        }

        let order = topo_order(&blocks)?;
        Ok(MetaPlan {
            blocks,
            root: root_id,
            order,
            stream_table: stream_table.to_string(),
            contract: graph.contract,
        })
    }

    #[cfg(test)]
    pub fn root_block(&self) -> &Block {
        &self.blocks[self.root]
    }

    /// Group blocks into dependency-ordered **wavefronts**: wave `w` holds
    /// every block whose longest dependency chain has length `w`. All blocks
    /// in one wave are mutually independent, so the executor may ingest them
    /// in parallel; waves execute in order. Block ids ascend within a wave,
    /// so the flattened wavefront order is deterministic and is itself a
    /// valid topological order.
    pub fn wavefronts(&self) -> Vec<Vec<usize>> {
        let n = self.blocks.len();
        let mut depth = vec![0usize; n];
        // `self.order` is topological, so every dependency's depth is final
        // by the time its consumer is visited.
        for &i in &self.order {
            for d in &self.blocks[i].deps {
                depth[i] = depth[i].max(depth[d.0] + 1);
            }
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let mut waves = vec![Vec::new(); max_depth + 1];
        for (i, &w) in depth.iter().enumerate() {
            waves[w].push(i);
        }
        waves
    }

    /// Human-readable rendering of the block structure.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for &i in &self.order {
            let b = &self.blocks[i];
            out.push_str(&format!(
                "block {} [{:?}{}] scan={} dims={:?}\n",
                b.id,
                b.role,
                if b.is_streaming {
                    ", streaming"
                } else {
                    ", static"
                },
                b.source_table,
                b.dims.iter().map(|d| d.table.as_str()).collect::<Vec<_>>(),
            ));
            for f in &b.filters {
                out.push_str(&format!("  where {f}\n"));
            }
            if !b.group_by.is_empty() {
                let g: Vec<String> = b.group_by.iter().map(|e| e.to_string()).collect();
                out.push_str(&format!("  group by {}\n", g.join(", ")));
            }
            for a in &b.aggs {
                out.push_str(&format!("  agg {a}\n"));
            }
            for h in &b.having {
                out.push_str(&format!("  having {h}\n"));
            }
            if let Some(p) = &b.post_project {
                let items: Vec<String> = p.iter().map(|e| e.to_string()).collect();
                out.push_str(&format!("  project {}\n", items.join(", ")));
            }
            if !b.deps.is_empty() {
                let d: Vec<String> = b.deps.iter().map(|d| d.to_string()).collect();
                out.push_str(&format!("  depends on {}\n", d.join(", ")));
            }
        }
        out
    }
}

/// Pattern-match one logical plan into an SPJA lineage block.
fn blockify(plan: &LogicalPlan, id: usize, role: BlockRole, stream_table: &str) -> Result<Block> {
    let mut node = plan;
    let mut limit = None;
    let mut order_by: Vec<(usize, bool)> = Vec::new();
    if let LogicalPlan::Limit { input, n } = node {
        limit = Some(*n);
        node = input;
    }
    if let LogicalPlan::Sort { input, keys } = node {
        order_by = keys.clone();
        node = input;
    }
    let (post_project, output_schema_from_project) = match node {
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            node = input;
            (Some(exprs.clone()), Some(Arc::clone(schema)))
        }
        _ => (None, None),
    };
    let mut having = Vec::new();
    while let LogicalPlan::Filter { input, predicate } = node {
        if matches!(peel_filters(input), LogicalPlan::Aggregate { .. }) {
            split_conjuncts(predicate, &mut having);
            node = input;
        } else {
            break;
        }
    }
    let (group_by, aggs, agg_row_schema, mut node) = match node {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => (
            group_by.clone(),
            aggs.clone(),
            Arc::clone(schema),
            input.as_ref(),
        ),
        _ => {
            return Err(Error::plan(
                "online execution requires an aggregate query (SPJA block)".to_string(),
            ))
        }
    };
    let mut filters = Vec::new();
    while let LogicalPlan::Filter { input, predicate } = node {
        split_conjuncts(predicate, &mut filters);
        node = input;
    }
    // Flatten the join spine: Join(Join(Scan(fact), Scan(d1)), Scan(d2)).
    let mut dims_rev: Vec<DimJoin> = Vec::new();
    let (source_table, fact_schema) = loop {
        match node {
            LogicalPlan::Scan { table, schema } => break (table.clone(), Arc::clone(schema)),
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                let (dim_table, dim_schema) = match right.as_ref() {
                    LogicalPlan::Scan { table, schema } => (table.clone(), Arc::clone(schema)),
                    _ => {
                        return Err(Error::plan(
                            "join right side must be a base dimension table scan; \
                             list the fact table first in FROM"
                                .to_string(),
                        ))
                    }
                };
                if dim_table.eq_ignore_ascii_case(stream_table) {
                    return Err(Error::plan(format!(
                        "streamed table '{stream_table}' must be the first table in FROM"
                    )));
                }
                if on.is_empty() {
                    return Err(Error::plan(format!(
                        "join with '{dim_table}' needs at least one equi-join condition"
                    )));
                }
                dims_rev.push(DimJoin {
                    table: dim_table,
                    dim_schema,
                    fact_keys: on.iter().map(|(l, _)| l.clone()).collect(),
                    dim_keys: on.iter().map(|(_, r)| r.clone()).collect(),
                });
                node = left;
            }
            other => {
                return Err(Error::plan(format!(
                    "unsupported operator inside an SPJA block: {}",
                    other.explain().lines().next().unwrap_or("?")
                )))
            }
        }
    };
    dims_rev.reverse();
    let dims = dims_rev;

    // Source schema accumulates fact ++ each dim.
    let mut source_schema = (*fact_schema).clone();
    for d in &dims {
        source_schema = source_schema.join(&d.dim_schema);
    }
    let source_schema = Arc::new(source_schema);

    // Validate: group keys and aggregate args must be deterministic.
    for g in &group_by {
        if g.has_subquery_ref() {
            return Err(Error::plan(format!(
                "GROUP BY expression {g} may not reference a subquery"
            )));
        }
    }
    for a in &aggs {
        if a.arg.has_subquery_ref() {
            return Err(Error::plan(format!(
                "aggregate argument {} may not reference a subquery \
                 (delta maintenance would be unbounded)",
                a.arg
            )));
        }
    }
    if role == BlockRole::Scalar {
        let out_cols = output_schema_from_project
            .as_ref()
            .map(|s| s.len())
            .unwrap_or(agg_row_schema.len() - group_by.len());
        if out_cols != 1 {
            return Err(Error::plan(format!(
                "scalar subquery must produce exactly one column, got {out_cols}"
            )));
        }
    }
    if role == BlockRole::Membership && group_by.is_empty() {
        return Err(Error::plan(
            "membership (IN) subquery must have a GROUP BY key".to_string(),
        ));
    }

    // Dependencies: every subquery referenced from filters/having/project.
    let mut deps = Vec::new();
    for e in filters.iter().chain(having.iter()) {
        e.collect_subquery_refs(&mut deps);
    }
    if let Some(p) = &post_project {
        for e in p {
            e.collect_subquery_refs(&mut deps);
        }
    }
    deps.sort_unstable();
    deps.dedup();
    if deps.contains(&SubqueryId(id)) {
        return Err(Error::plan(format!("block {id} references itself")));
    }

    let output_schema = match (&post_project, output_schema_from_project) {
        (Some(_), Some(s)) => s,
        _ => Arc::clone(&agg_row_schema),
    };
    let is_streaming = source_table.eq_ignore_ascii_case(stream_table);

    Ok(Block {
        id,
        role,
        source_table,
        is_streaming,
        dims,
        source_schema,
        filters,
        group_by,
        aggs,
        agg_row_schema,
        having,
        post_project,
        output_schema,
        order_by,
        limit,
        deps,
    })
}

/// Skip over stacked filters to find the underlying node.
fn peel_filters(mut plan: &LogicalPlan) -> &LogicalPlan {
    while let LogicalPlan::Filter { input, .. } = plan {
        plan = input;
    }
    plan
}

/// Split a predicate into top-level AND conjuncts.
fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            op: gola_expr::BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Kahn topological sort over block dependencies.
fn topo_order(blocks: &[Block]) -> Result<Vec<usize>> {
    let n = blocks.len();
    let mut indegree = vec![0usize; n];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for b in blocks {
        for d in &b.deps {
            if d.0 >= n {
                return Err(Error::plan(format!(
                    "block {} references unknown {d}",
                    b.id
                )));
            }
            indegree[b.id] += 1;
            consumers[d.0].push(b.id);
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &c in &consumers[i] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if order.len() != n {
        return Err(Error::plan("cyclic subquery dependencies".to_string()));
    }
    // Stable-ish: prefer ascending ids among independents for determinism.
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::SubqueryPlan;
    use gola_agg::AggKind;
    use gola_common::DataType;

    fn sessions_schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[
            ("session_id", DataType::Int),
            ("buffer_time", DataType::Float),
            ("play_time", DataType::Float),
        ]))
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "sessions".into(),
            schema: sessions_schema(),
        }
    }

    fn agg(input: LogicalPlan, col: usize, name: &str) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![],
            aggs: vec![AggCall {
                kind: AggKind::Avg,
                arg: Expr::col(col),
                name: name.into(),
            }],
            schema: Arc::new(Schema::from_pairs(&[(name, DataType::Float)])),
        }
    }

    fn sbi() -> QueryGraph {
        let inner = agg(scan(), 1, "avg_buffer");
        let outer = agg(
            LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Expr::gt(
                    Expr::col(1),
                    Expr::ScalarRef {
                        id: SubqueryId(0),
                        key: vec![],
                    },
                ),
            },
            2,
            "avg_play",
        );
        QueryGraph {
            subqueries: vec![SubqueryPlan {
                plan: inner,
                kind: SubqueryKind::Scalar,
            }],
            root: outer,
            contract: None,
        }
    }

    #[test]
    fn sbi_compiles_to_two_blocks() {
        let mp = MetaPlan::compile(&sbi(), "sessions").unwrap();
        assert_eq!(mp.blocks.len(), 2);
        assert_eq!(mp.root, 1);
        // Inner block first in topo order.
        assert_eq!(mp.order, vec![0, 1]);
        let inner = &mp.blocks[0];
        assert!(inner.is_streaming);
        assert!(inner.deps.is_empty());
        assert!(!inner.has_uncertain_predicates());
        let root = &mp.blocks[1];
        assert_eq!(root.deps, vec![SubqueryId(0)]);
        assert!(root.has_uncertain_predicates());
    }

    #[test]
    fn wavefronts_respect_dependency_depth() {
        let mp = MetaPlan::compile(&sbi(), "sessions").unwrap();
        // Inner block (no deps) in wave 0; root (depends on it) in wave 1.
        assert_eq!(mp.wavefronts(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn wavefront_flattening_is_topological() {
        let mp = MetaPlan::compile(&sbi(), "sessions").unwrap();
        let flat: Vec<usize> = mp.wavefronts().into_iter().flatten().collect();
        let pos = |b: usize| flat.iter().position(|&x| x == b).unwrap();
        for blk in &mp.blocks {
            for d in &blk.deps {
                assert!(pos(d.0) < pos(blk.id));
            }
        }
        assert_eq!(flat.len(), mp.blocks.len());
    }

    #[test]
    fn non_aggregate_root_rejected() {
        let g = QueryGraph::simple(scan());
        let err = MetaPlan::compile(&g, "sessions").unwrap_err();
        assert!(err.to_string().contains("aggregate"));
    }

    #[test]
    fn group_by_with_subquery_rejected() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![Expr::ScalarRef {
                id: SubqueryId(0),
                key: vec![],
            }],
            aggs: vec![AggCall {
                kind: AggKind::Count,
                arg: Expr::lit(1i64),
                name: "c".into(),
            }],
            schema: Arc::new(Schema::from_pairs(&[
                ("g", DataType::Float),
                ("c", DataType::Float),
            ])),
        };
        let g = QueryGraph {
            subqueries: vec![SubqueryPlan {
                plan: agg(scan(), 1, "x"),
                kind: SubqueryKind::Scalar,
            }],
            root: plan,
            contract: None,
        };
        assert!(MetaPlan::compile(&g, "sessions").is_err());
    }

    #[test]
    fn having_split_into_conjuncts() {
        let aggregate = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![Expr::col(0)],
            aggs: vec![AggCall {
                kind: AggKind::Sum,
                arg: Expr::col(2),
                name: "s".into(),
            }],
            schema: Arc::new(Schema::from_pairs(&[
                ("session_id", DataType::Int),
                ("s", DataType::Float),
            ])),
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(aggregate),
            predicate: Expr::and(
                Expr::gt(Expr::col(1), Expr::lit(300.0)),
                Expr::lt(Expr::col(1), Expr::lit(900.0)),
            ),
        };
        let g = QueryGraph::simple(filtered);
        let mp = MetaPlan::compile(&g, "sessions").unwrap();
        let b = mp.root_block();
        assert_eq!(b.having.len(), 2);
        assert!(b.filters.is_empty());
        assert_eq!(b.group_by.len(), 1);
    }

    #[test]
    fn dim_join_flattening() {
        let dim_schema = Arc::new(Schema::from_pairs(&[
            ("ad_id", DataType::Int),
            ("ad_name", DataType::Str),
        ]));
        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(LogicalPlan::Scan {
                table: "ads".into(),
                schema: Arc::clone(&dim_schema),
            }),
            on: vec![(Expr::col(0), Expr::col(0))],
            schema: Arc::new(sessions_schema().join(&dim_schema)),
        };
        let g = QueryGraph::simple(agg(join, 2, "avg_play"));
        let mp = MetaPlan::compile(&g, "sessions").unwrap();
        let b = mp.root_block();
        assert_eq!(b.dims.len(), 1);
        assert_eq!(b.dims[0].table, "ads");
        assert_eq!(b.source_schema.len(), 5);
        assert!(b.is_streaming);
    }

    #[test]
    fn fact_table_must_lead_joins() {
        let join = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan {
                table: "ads".into(),
                schema: Arc::new(Schema::from_pairs(&[("ad_id", DataType::Int)])),
            }),
            right: Box::new(scan()),
            on: vec![(Expr::col(0), Expr::col(0))],
            schema: sessions_schema(),
        };
        let g = QueryGraph::simple(agg(join, 1, "x"));
        let err = MetaPlan::compile(&g, "sessions").unwrap_err();
        assert!(err.to_string().contains("first table in FROM"), "{err}");
    }

    #[test]
    fn static_block_depending_on_streaming_rejected() {
        // Inner streams `sessions`; outer scans a different (static) table
        // and references the inner → unsupported.
        let inner = agg(scan(), 1, "avg_buffer");
        let other = LogicalPlan::Scan {
            table: "ads".into(),
            schema: Arc::new(Schema::from_pairs(&[("x", DataType::Float)])),
        };
        let outer = agg(
            LogicalPlan::Filter {
                input: Box::new(other),
                predicate: Expr::gt(
                    Expr::col(0),
                    Expr::ScalarRef {
                        id: SubqueryId(0),
                        key: vec![],
                    },
                ),
            },
            0,
            "a",
        );
        let g = QueryGraph {
            subqueries: vec![SubqueryPlan {
                plan: inner,
                kind: SubqueryKind::Scalar,
            }],
            root: outer,
            contract: None,
        };
        let err = MetaPlan::compile(&g, "sessions").unwrap_err();
        assert!(err.to_string().contains("static block"), "{err}");
    }

    #[test]
    fn membership_requires_group_key() {
        let inner = agg(scan(), 1, "avg_buffer"); // no GROUP BY
        let outer = agg(
            LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Expr::InSubquery {
                    id: SubqueryId(0),
                    key: vec![Expr::col(0)],
                    negated: false,
                },
            },
            2,
            "avg_play",
        );
        let g = QueryGraph {
            subqueries: vec![SubqueryPlan {
                plan: inner,
                kind: SubqueryKind::Membership,
            }],
            root: outer,
            contract: None,
        };
        assert!(MetaPlan::compile(&g, "sessions").is_err());
    }

    #[test]
    fn explain_lists_blocks() {
        let mp = MetaPlan::compile(&sbi(), "sessions").unwrap();
        let s = mp.explain();
        assert!(s.contains("block 0 [Scalar, streaming]"));
        assert!(s.contains("block 1 [Root, streaming]"));
        assert!(s.contains("depends on sq0"));
    }
}
