//! Resolved logical plans and the query graph.

use std::fmt;
use std::sync::Arc;

use gola_agg::AggKind;
use gola_common::Schema;
use gola_expr::{Expr, SubqueryId};

/// One aggregate call in an `Aggregate` node.
#[derive(Debug, Clone)]
pub struct AggCall {
    pub kind: AggKind,
    /// Argument expression over the input schema. `COUNT(*)` lowers to
    /// `COUNT(1)`.
    pub arg: Expr,
    /// Output column name.
    pub name: String,
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) AS {}", self.kind, self.arg, self.name)
    }
}

/// A resolved relational-algebra tree. Every node carries its output
/// schema (computed by the binder).
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Base-table scan.
    Scan {
        table: String,
        schema: Arc<Schema>,
    },
    /// `WHERE`/`HAVING` filter. Predicates may reference subqueries.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// Projection: compute `exprs` over the input row.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        schema: Arc<Schema>,
    },
    /// Inner equi-join. `on` pairs are (left-schema expr, right-schema
    /// expr); output rows are `left ++ right`.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: Vec<(Expr, Expr)>,
        schema: Arc<Schema>,
    },
    /// Hash aggregation. Output schema: group columns then aggregate
    /// columns.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggCall>,
        schema: Arc<Schema>,
    },
    /// Sort by output column indices (`desc` per key).
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(usize, bool)>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: usize,
    },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// All table names scanned anywhere under this node.
    pub fn scanned_tables(&self, out: &mut Vec<String>) {
        match self {
            LogicalPlan::Scan { table, .. } => {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.scanned_tables(out),
            LogicalPlan::Join { left, right, .. } => {
                left.scanned_tables(out);
                right.scanned_tables(out);
            }
        }
    }

    /// All subquery ids referenced by expressions anywhere in this tree.
    pub fn subquery_refs(&self, out: &mut Vec<SubqueryId>) {
        let visit_expr = |e: &Expr, out: &mut Vec<SubqueryId>| {
            let mut refs = Vec::new();
            e.collect_subquery_refs(&mut refs);
            for r in refs {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        };
        match self {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Filter { input, predicate } => {
                visit_expr(predicate, out);
                input.subquery_refs(out);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                for e in exprs {
                    visit_expr(e, out);
                }
                input.subquery_refs(out);
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                for (l, r) in on {
                    visit_expr(l, out);
                    visit_expr(r, out);
                }
                left.subquery_refs(out);
                right.subquery_refs(out);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                for e in group_by {
                    visit_expr(e, out);
                }
                for a in aggs {
                    visit_expr(&a.arg, out);
                }
                input.subquery_refs(out);
            }
            LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => {
                input.subquery_refs(out)
            }
        }
    }

    /// Multi-line indented explain string.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { table, schema } => {
                out.push_str(&format!("{pad}Scan {table} {schema}\n"));
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate}\n"));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let items: Vec<String> = exprs
                    .iter()
                    .zip(schema.fields())
                    .map(|(e, f)| format!("{e} AS {}", f.name))
                    .collect();
                out.push_str(&format!("{pad}Project {}\n", items.join(", ")));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                out.push_str(&format!("{pad}Join on {}\n", conds.join(" AND ")));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let g: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggs.iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "{pad}Aggregate group=[{}] aggs=[{}]\n",
                    g.join(", "),
                    a.join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|(i, desc)| format!("#{i}{}", if *desc { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort {}\n", k.join(", ")));
                input.explain_into(out, depth + 1);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// What a subquery's output means to its consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubqueryKind {
    /// A (possibly grouped, after decorrelation) scalar: consumers look up
    /// one value by correlation key.
    Scalar,
    /// A filtered group set: consumers test key membership.
    Membership,
}

/// One aggregate subquery in the graph.
#[derive(Debug, Clone)]
pub struct SubqueryPlan {
    pub plan: LogicalPlan,
    pub kind: SubqueryKind,
}

/// A precision or deadline contract attached to a query (BlinkDB-style).
///
/// `Error` stops at the first mini-batch where every selected aggregate's
/// FPC-corrected confidence interval (at `confidence`) has a half-width of
/// at most `target` times the estimate's magnitude. `Within` adapts the
/// number of mini-batches folded per report so the query finishes before
/// the wall-clock deadline; its stopping batch index is explicitly
/// nondeterministic (everything else stays deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryContract {
    /// `ERROR <p>% CONFIDENCE <c>%`: both stored as fractions in (0, 1).
    Error { target: f64, confidence: f64 },
    /// `WITHIN <n> SECONDS`: a positive wall-clock budget.
    Within { seconds: f64 },
}

/// The root plan plus all aggregate subqueries it (transitively)
/// references. `subqueries[i]` is referenced as `SubqueryId(i)`.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    pub subqueries: Vec<SubqueryPlan>,
    pub root: LogicalPlan,
    /// Precision/deadline contract on the root query, if any.
    pub contract: Option<QueryContract>,
}

impl QueryGraph {
    /// A graph with no subqueries.
    #[cfg(test)]
    pub fn simple(root: LogicalPlan) -> Self {
        QueryGraph {
            subqueries: Vec::new(),
            root,
            contract: None,
        }
    }

    /// Explain the whole graph: subqueries first, then the root.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, sq) in self.subqueries.iter().enumerate() {
            out.push_str(&format!("-- subquery sq{i} ({:?}) --\n", sq.kind));
            out.push_str(&sq.plan.explain());
        }
        out.push_str("-- root --\n");
        out.push_str(&self.root.explain());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::DataType;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "sessions".into(),
            schema: Arc::new(Schema::from_pairs(&[
                ("session_id", DataType::Int),
                ("buffer_time", DataType::Float),
                ("play_time", DataType::Float),
            ])),
        }
    }

    fn sbi_graph() -> QueryGraph {
        // Inner: SELECT AVG(buffer_time) FROM sessions
        let inner = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![],
            aggs: vec![AggCall {
                kind: AggKind::Avg,
                arg: Expr::col(1),
                name: "avg_buffer".into(),
            }],
            schema: Arc::new(Schema::from_pairs(&[("avg_buffer", DataType::Float)])),
        };
        // Outer: SELECT AVG(play_time) WHERE buffer_time > $sq0
        let filter = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::gt(
                Expr::col(1),
                Expr::ScalarRef {
                    id: SubqueryId(0),
                    key: vec![],
                },
            ),
        };
        let root = LogicalPlan::Aggregate {
            input: Box::new(filter),
            group_by: vec![],
            aggs: vec![AggCall {
                kind: AggKind::Avg,
                arg: Expr::col(2),
                name: "avg_play".into(),
            }],
            schema: Arc::new(Schema::from_pairs(&[("avg_play", DataType::Float)])),
        };
        QueryGraph {
            subqueries: vec![SubqueryPlan {
                plan: inner,
                kind: SubqueryKind::Scalar,
            }],
            root,
            contract: None,
        }
    }

    #[test]
    fn schema_propagation() {
        let g = sbi_graph();
        assert_eq!(g.root.schema().field(0).name, "avg_play");
        let filter = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::lit(true),
        };
        assert_eq!(filter.schema().len(), 3);
    }

    #[test]
    fn subquery_refs_collected() {
        let g = sbi_graph();
        let mut refs = Vec::new();
        g.root.subquery_refs(&mut refs);
        assert_eq!(refs, vec![SubqueryId(0)]);
        let mut refs = Vec::new();
        g.subqueries[0].plan.subquery_refs(&mut refs);
        assert!(refs.is_empty());
    }

    #[test]
    fn scanned_tables() {
        let mut tables = Vec::new();
        sbi_graph().root.scanned_tables(&mut tables);
        assert_eq!(tables, vec!["sessions".to_string()]);
    }

    #[test]
    fn explain_renders() {
        let s = sbi_graph().explain();
        assert!(s.contains("subquery sq0"));
        assert!(s.contains("Aggregate group=[] aggs=[AVG(#2) AS avg_play]"));
        assert!(s.contains("Filter (#1 > $sq0)"));
        assert!(s.contains("Scan sessions"));
    }
}
