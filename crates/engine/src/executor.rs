//! The columnar logical-plan executor.
//!
//! Plan nodes pass [`Table`]s — runs of [`ColumnChunk`]s — between them. A
//! scan hands out the catalog table's own chunks (`Arc` columns, nothing
//! copied), a filter gathers the rows a selection bitmap keeps, and a bare
//! column reference passes its `Arc<Column>` through a projection. Rows are
//! materialized one at a time, into a reused buffer, only where an
//! expression falls outside the vector kernels.

use std::cmp::Ordering;
use std::sync::Arc;

use gola_agg::{AggKind, FoldScratch, ReplicatedStates};
use gola_common::{
    cmp_values, row_u32, Column, ColumnBuilder, DataType, Error, FxHashMap, FxHashSet, Result,
    Schema, Value,
};
use gola_expr::eval::{eval, eval_predicate, Resolver, RowContext};
use gola_expr::vector::predicate_mask;
use gola_expr::{Expr, SubqueryId};
use gola_plan::{AggCall, LogicalPlan, QueryGraph, SubqueryKind};
use gola_storage::{Catalog, ColumnChunk, Table};

/// Exact, single-threaded executor over a catalog.
pub struct BatchEngine<'a> {
    catalog: &'a Catalog,
}

/// Rows pulled from base tables by `Scan` nodes (cached handle — see
/// `gola-core`'s metrics module for the pattern and the inertness
/// contract).
fn exact_rows_scanned() -> &'static gola_obs::Counter {
    static C: std::sync::OnceLock<gola_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| gola_obs::counter("exact.rows_scanned"))
}

/// Materialized subquery results used to resolve `ScalarRef`/`InSubquery`
/// expressions during exact evaluation.
#[derive(Debug, Default)]
struct Resolved {
    scalars: Vec<Option<FxHashMap<Vec<Value>, Value>>>,
    members: Vec<Option<FxHashSet<Vec<Value>>>>,
}

impl Resolver for Resolved {
    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<Value> {
        let map = self
            .scalars
            .get(id.0)
            .and_then(|m| m.as_ref())
            .ok_or_else(|| Error::exec(format!("unresolved scalar subquery {id}")))?;
        // A missing group behaves like an empty subquery: NULL.
        Ok(map.get(key).cloned().unwrap_or(Value::Null))
    }

    fn member(&self, id: SubqueryId, key: &[Value]) -> Result<bool> {
        let set = self
            .members
            .get(id.0)
            .and_then(|m| m.as_ref())
            .ok_or_else(|| Error::exec(format!("unresolved membership subquery {id}")))?;
        Ok(set.contains(key))
    }
}

impl<'a> BatchEngine<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        BatchEngine { catalog }
    }

    /// Execute a full query graph: subqueries in dependency order, then the
    /// root.
    pub fn execute(&self, graph: &QueryGraph) -> Result<Table> {
        let _span = gola_obs::span!("exact.query", subqueries = graph.subqueries.len());
        let n = graph.subqueries.len();
        let mut resolved = Resolved {
            scalars: vec![None; n],
            members: vec![None; n],
        };
        for idx in subquery_topo_order(graph)? {
            let sq = &graph.subqueries[idx];
            match sq.kind {
                SubqueryKind::Scalar => {
                    let map = self.execute_scalar_subquery(&sq.plan, &resolved)?;
                    resolved.scalars[idx] = Some(map);
                }
                SubqueryKind::Membership => {
                    let mut set = FxHashSet::default();
                    let t = self.execute_plan(&sq.plan, &resolved)?;
                    for_each_row(&t, |row| {
                        set.insert(row.to_vec());
                        Ok(())
                    })?;
                    resolved.members[idx] = Some(set);
                }
            }
        }
        self.execute_plan(&graph.root, &resolved)
    }

    /// Execute a scalar subquery plan into a `group key → value` map. The
    /// plan shape is `Project[expr]` over (filters over) an `Aggregate`; the
    /// group key is the first `n_group` columns of each aggregate row.
    fn execute_scalar_subquery(
        &self,
        plan: &LogicalPlan,
        resolved: &Resolved,
    ) -> Result<FxHashMap<Vec<Value>, Value>> {
        let (project_exprs, input) = match plan {
            LogicalPlan::Project { input, exprs, .. } => (exprs, input.as_ref()),
            other => {
                return Err(Error::exec(format!(
                    "scalar subquery plan must end in a projection, got {}",
                    other.explain().lines().next().unwrap_or("?")
                )))
            }
        };
        let n_group = aggregate_group_arity(input)
            .ok_or_else(|| Error::exec("scalar subquery plan has no aggregate node".to_string()))?;
        let mut map = FxHashMap::default();
        for_each_row(&self.execute_plan(input, resolved)?, |row| {
            let value = eval(&project_exprs[0], &RowContext::new(row, resolved))?;
            map.insert(row[..n_group].to_vec(), value);
            Ok(())
        })?;
        Ok(map)
    }

    /// Generic plan executor. Each node runs its input first and then opens
    /// its own `exact.<node>` span, so a span times one layer's work alone;
    /// its `rows` field is the node's output row count.
    fn execute_plan(&self, plan: &LogicalPlan, resolved: &Resolved) -> Result<Table> {
        let schema = Arc::clone(plan.schema());
        match plan {
            LogicalPlan::Scan { table, .. } => {
                let span = gola_obs::span!("exact.scan");
                let t = self.catalog.get(table)?;
                if gola_obs::enabled() {
                    exact_rows_scanned().add(t.num_rows() as u64);
                }
                traced(span, Table::from_chunks(schema, t.chunks().to_vec()))
            }
            LogicalPlan::Filter { input, predicate } => {
                let t = self.execute_plan(input, resolved)?;
                let span = gola_obs::span!("exact.filter");
                traced(span, filter(&t, predicate, resolved))
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let t = self.execute_plan(input, resolved)?;
                let span = gola_obs::span!("exact.project");
                traced(span, project(schema, &t, exprs, resolved))
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                let l = self.execute_plan(left, resolved)?;
                let r = self.execute_plan(right, resolved)?;
                let span = gola_obs::span!("exact.join");
                traced(span, hash_join(schema, &l, &r, on, resolved))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let t = self.execute_plan(input, resolved)?;
                let span = gola_obs::span!("exact.aggregate");
                traced(span, aggregate(schema, &t, group_by, aggs, resolved))
            }
            LogicalPlan::Sort { input, keys } => {
                let t = self.execute_plan(input, resolved)?;
                let span = gola_obs::span!("exact.sort");
                let sorted = t.gather(&sort_order(&t, keys));
                traced(span, Table::from_chunks(schema, vec![sorted]))
            }
            LogicalPlan::Limit { input, n } => {
                let t = self.execute_plan(input, resolved)?;
                let head: Vec<usize> = (0..t.num_rows().min(*n)).collect();
                Table::from_chunks(schema, vec![t.gather(&head)])
            }
        }
    }
}

/// Record a node's output row count on its span.
fn traced(span: gola_obs::span::SpanGuard, out: Result<Table>) -> Result<Table> {
    if let Ok(t) = &out {
        span.field("rows", t.num_rows() as f64);
    }
    out
}

/// Replace every subtree whose leaves are literals or uncorrelated scalar
/// subquery references — one value per query — by that value, evaluated
/// once with the row evaluator itself, so its bits are the bits every row
/// would have computed. A subtree that fails to evaluate stays, and the
/// rows report its error as before. (Scalar functions are pure.)
fn fold_constants(expr: &Expr, resolved: &dyn Resolver) -> Expr {
    expr.transform(&|e| {
        let constant = match e {
            Expr::Column(_) | Expr::Literal(_) | Expr::InSubquery { .. } => false,
            Expr::ScalarRef { key, .. } => key.is_empty(),
            _ => e.children().iter().all(|c| matches!(c, Expr::Literal(_))),
        };
        let ctx = RowContext::new(&[], resolved);
        constant
            .then(|| eval(e, &ctx).ok())
            .flatten()
            .map(Expr::Literal)
    })
}

/// Run `f` on each row of `table`, in order, through one reused buffer.
fn for_each_row(table: &Table, mut f: impl FnMut(&[Value]) -> Result<()>) -> Result<()> {
    let mut buf = Vec::new();
    for c in table.chunks() {
        for i in 0..c.len() {
            c.row_values_into(i, &mut buf);
            f(&buf)?;
        }
    }
    Ok(())
}

/// Run `f` on an exact row context for each row of `chunk`. The context's
/// reused buffer holds only the columns `expr` reads (NULL elsewhere).
fn each_row_ctx(
    chunk: &ColumnChunk,
    expr: &Expr,
    resolved: &dyn Resolver,
    mut f: impl FnMut(usize, &RowContext<'_>) -> Result<()>,
) -> Result<()> {
    let mut cols = Vec::new();
    expr.collect_columns(&mut cols);
    let mut buf = vec![Value::Null; chunk.num_columns()];
    for i in 0..chunk.len() {
        for &c in &cols {
            buf[c] = chunk.column(c).value(i);
        }
        f(i, &RowContext::new(&buf, resolved))?;
    }
    Ok(())
}

/// Evaluate `expr` on every row of `chunk`: a bare column is shared,
/// anything else runs the row evaluator.
fn eval_chunk(expr: &Expr, chunk: &ColumnChunk, resolved: &dyn Resolver) -> Result<Arc<Column>> {
    if let Expr::Column(i) = expr {
        return Ok(Arc::clone(chunk.column(*i)));
    }
    let mut b = ColumnBuilder::new(DataType::Null, chunk.len());
    each_row_ctx(chunk, expr, resolved, |_, ctx| {
        b.push(&eval(expr, ctx)?);
        Ok(())
    })?;
    Ok(Arc::new(b.finish()))
}

/// Keep the rows on which `predicate` is SQL `TRUE`: through the vector
/// kernel where it takes the shape, else row by row.
pub fn filter(t: &Table, predicate: &Expr, resolved: &dyn Resolver) -> Result<Table> {
    let predicate = fold_constants(predicate, resolved);
    let mut chunks = Vec::with_capacity(t.chunks().len());
    for c in t.chunks() {
        let keep: Vec<usize> = match predicate_mask(&predicate, c.columns(), c.len()) {
            Some(mask) => mask.iter_set().collect(),
            None => {
                let mut keep = Vec::new();
                each_row_ctx(c, &predicate, resolved, |i, ctx| {
                    if eval_predicate(&predicate, ctx)? {
                        keep.push(i);
                    }
                    Ok(())
                })?;
                keep
            }
        };
        if keep.len() == c.len() {
            chunks.push(c.clone());
        } else if !keep.is_empty() {
            chunks.push(c.gather(&keep));
        }
    }
    Table::from_chunks(Arc::clone(t.schema()), chunks)
}

/// Evaluate `exprs` chunk by chunk; a bare column passes its `Arc` through.
fn project(schema: Arc<Schema>, t: &Table, exprs: &[Expr], resolved: &Resolved) -> Result<Table> {
    let exprs: Vec<Expr> = exprs.iter().map(|e| fold_constants(e, resolved)).collect();
    let mut chunks = Vec::with_capacity(t.chunks().len());
    for c in t.chunks() {
        let cols = exprs.iter().map(|e| eval_chunk(e, c, resolved));
        chunks.push(ColumnChunk::new(cols.collect::<Result<_>>()?, c.len()));
    }
    Table::from_chunks(schema, chunks)
}

/// A hash index over a table's join keys, built once and probed by any
/// number of chunks: the dimension side of an inner equi-join. NULL keys
/// never match.
pub struct HashIndex {
    table: Table,
    rows: FxHashMap<Vec<Value>, Vec<usize>>,
}

impl HashIndex {
    /// Index `table`'s rows on `keys`, expressions over its schema.
    pub fn build(table: &Table, keys: &[Expr], resolved: &dyn Resolver) -> Result<HashIndex> {
        let mut rows: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
        let mut base = 0;
        for c in table.chunks() {
            let cols = keys.iter().map(|k| eval_chunk(k, c, resolved));
            let cols = cols.collect::<Result<Vec<_>>>()?;
            for i in 0..c.len() {
                let key: Vec<Value> = cols.iter().map(|k| k.value(i)).collect();
                if !key.iter().any(Value::is_null) {
                    rows.entry(key).or_default().push(base + i);
                }
            }
            base += c.len();
        }
        Ok(HashIndex {
            table: table.clone(),
            rows,
        })
    }

    /// Join `chunk` on `keys`, expressions over its columns: the chunk row
    /// of each output row, and the joined rows — `chunk`'s columns, then
    /// the indexed table's. Output is left-major, each chunk row's matches
    /// in table order.
    pub fn probe(
        &self,
        chunk: &ColumnChunk,
        keys: &[Expr],
        resolved: &dyn Resolver,
    ) -> Result<(Vec<usize>, ColumnChunk)> {
        let cols = keys.iter().map(|k| eval_chunk(k, chunk, resolved));
        let cols = cols.collect::<Result<Vec<_>>>()?;
        let (mut li, mut ri) = (Vec::new(), Vec::new());
        let mut key = Vec::new();
        for i in 0..chunk.len() {
            key.clear();
            key.extend(cols.iter().map(|k| k.value(i)));
            if key.iter().any(Value::is_null) {
                continue;
            }
            for &r in self.rows.get(key.as_slice()).map_or(&[][..], Vec::as_slice) {
                li.push(i);
                ri.push(r);
            }
        }
        let mut joined = chunk.gather(&li).columns().to_vec();
        joined.extend_from_slice(self.table.gather(&ri).columns());
        let len = li.len();
        Ok((li, ColumnChunk::new(joined, len)))
    }
}

/// Inner equi-join: a [`HashIndex`] built on the right (dimension) side,
/// probed by each left chunk.
fn hash_join(
    schema: Arc<Schema>,
    left: &Table,
    right: &Table,
    on: &[(Expr, Expr)],
    resolved: &dyn Resolver,
) -> Result<Table> {
    let (left_keys, right_keys): (Vec<Expr>, Vec<Expr>) = on.iter().cloned().unzip();
    let index = HashIndex::build(right, &right_keys, resolved)?;
    let mut chunks = Vec::with_capacity(left.chunks().len());
    for c in left.chunks() {
        chunks.push(index.probe(c, &left_keys, resolved)?.1);
    }
    Table::from_chunks(schema, chunks)
}

/// Hash aggregation through the online path's fold kernel. Rows are
/// bucketed by group with a stable sort, so each (group, aggregate) folds
/// as one run in table-row order — the order P² quantiles, UDAFs and
/// MIN/MAX ties see — via `fold_run` at zero replicas, and finalizes
/// through the same `AggState`. Output is sorted by group key; a global
/// aggregation has its one row even over zero input rows.
pub fn aggregate(
    schema: Arc<Schema>,
    t: &Table,
    group_by: &[Expr],
    aggs: &[AggCall],
    resolved: &dyn Resolver,
) -> Result<Table> {
    let kinds: Vec<AggKind> = aggs.iter().map(|a| a.kind.clone()).collect();
    let mut slots: FxHashMap<Vec<Value>, u32> = FxHashMap::default();
    let mut keys: Vec<Vec<Value>> = Vec::new();
    // (slot, chunk, row) per input row, and each chunk's argument columns.
    let mut members: Vec<(u32, u32, u32)> = Vec::with_capacity(t.num_rows());
    let mut args: Vec<Vec<Arc<Column>>> = Vec::with_capacity(t.chunks().len());
    // A global aggregation has its one group even over zero rows.
    if group_by.is_empty() {
        keys.push(Vec::new());
    }
    let mut key = Vec::new();
    for (ci, c) in t.chunks().iter().enumerate() {
        let by = group_by.iter().map(|g| eval_chunk(g, c, resolved));
        let by = by.collect::<Result<Vec<_>>>()?;
        let arg = aggs.iter().map(|a| eval_chunk(&a.arg, c, resolved));
        args.push(arg.collect::<Result<_>>()?);
        for i in 0..c.len() {
            key.clear();
            key.extend(by.iter().map(|k| k.value(i)));
            let slot = match slots.get(key.as_slice()) {
                Some(&s) => s,
                None if by.is_empty() => 0,
                None => {
                    let s = row_u32(keys.len());
                    slots.insert(key.clone(), s);
                    keys.push(key.clone());
                    s
                }
            };
            members.push((slot, row_u32(ci), row_u32(i)));
        }
    }
    // Stable: a group's run keeps table-row order.
    members.sort_by_key(|m| m.0);
    let mut states = vec![ReplicatedStates::new(&kinds, 0); keys.len()];
    let no_weights: Vec<&[u8]> = vec![&[]; members.len()];
    let (mut scratch, mut values) = (FoldScratch::default(), Vec::new());
    for run in members.chunk_by(|a, b| a.0 == b.0) {
        let st = &mut states[run[0].0 as usize];
        for (j, _) in kinds.iter().enumerate() {
            values.clear();
            let arg = |&(_, c, i): &(u32, u32, u32)| args[c as usize][j].value(i as usize);
            values.extend(run.iter().map(arg));
            st.fold_run(j, &values, &no_weights[..run.len()], true, &mut scratch);
        }
    }
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| cmp_values(&keys[a], &keys[b]));
    let mut cols: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.data_type, order.len()))
        .collect();
    for &g in &order {
        let (by, out) = cols.split_at_mut(group_by.len());
        by.iter_mut().zip(&keys[g]).for_each(|(b, v)| b.push(v));
        for (j, b) in out.iter_mut().enumerate() {
            b.push(&states[g].value(j, 1.0));
        }
    }
    let cols = cols.into_iter().map(|b| Arc::new(b.finish())).collect();
    Table::from_chunks(schema, vec![ColumnChunk::new(cols, order.len())])
}

/// The stable multi-key order of `t`'s rows (per-key descending flags,
/// `Value::total_cmp` within a key).
fn sort_order(t: &Table, keys: &[(usize, bool)]) -> Vec<usize> {
    let column = |k| {
        t.chunks()
            .iter()
            .flat_map(move |c| (0..c.len()).map(move |i| c.column(k).value(i)))
    };
    let cols: Vec<Vec<Value>> = keys.iter().map(|&(k, _)| column(k).collect()).collect();
    let mut order: Vec<usize> = (0..t.num_rows()).collect();
    order.sort_by(|&a, &b| {
        for (col, &(_, desc)) in cols.iter().zip(keys) {
            let ord = col[a].total_cmp(&col[b]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    order
}

/// If `plan` is (filters over) an `Aggregate`, return its group arity.
fn aggregate_group_arity(mut plan: &LogicalPlan) -> Option<usize> {
    loop {
        match plan {
            LogicalPlan::Aggregate { group_by, .. } => return Some(group_by.len()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => plan = input,
            _ => return None,
        }
    }
}

/// Topological order of subqueries by their cross-references.
fn subquery_topo_order(graph: &QueryGraph) -> Result<Vec<usize>> {
    let n = graph.subqueries.len();
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
    for sq in &graph.subqueries {
        let mut refs = Vec::new();
        sq.plan.subquery_refs(&mut refs);
        deps.push(refs.into_iter().map(|r| r.0).collect());
    }
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = new, 1 = visiting, 2 = done
    fn visit(
        i: usize,
        deps: &[Vec<usize>],
        state: &mut [u8],
        order: &mut Vec<usize>,
    ) -> Result<()> {
        match state[i] {
            2 => return Ok(()),
            1 => return Err(Error::plan("cyclic subquery dependencies".to_string())),
            _ => {}
        }
        state[i] = 1;
        for &d in &deps[i] {
            visit(d, deps, state, order)?;
        }
        state[i] = 2;
        order.push(i);
        Ok(())
    }
    for i in 0..n {
        visit(i, &deps, &mut state, &mut order)?;
    }
    Ok(order)
}

#[cfg(test)]
pub(crate) mod row_oracle {
    //! The row-at-a-time interpreter the columnar executor replaced, kept
    //! verbatim as the oracle it must match bit for bit: every table becomes
    //! a `Vec<Row>` and every plan node walks it one row at a time.

    use std::sync::Arc;

    use gola_common::{Error, FxHashMap, FxHashSet, Result, Row, Value};
    use gola_expr::eval::{eval, eval_predicate, RowContext};
    use gola_expr::Expr;
    use gola_plan::{AggCall, LogicalPlan, QueryGraph, SubqueryKind};
    use gola_storage::{Catalog, Table};

    use super::{aggregate_group_arity, subquery_topo_order, Resolved};

    /// Exact, single-threaded row interpreter over a catalog.
    pub(crate) struct RowEngine<'a> {
        catalog: &'a Catalog,
    }

    impl<'a> RowEngine<'a> {
        pub fn new(catalog: &'a Catalog) -> Self {
            RowEngine { catalog }
        }

        /// Execute a full query graph: subqueries in dependency order, then the
        /// root.
        pub fn execute(&self, graph: &QueryGraph) -> Result<Table> {
            let n = graph.subqueries.len();
            let mut resolved = Resolved {
                scalars: vec![None; n],
                members: vec![None; n],
            };
            for idx in subquery_topo_order(graph)? {
                let sq = &graph.subqueries[idx];
                match sq.kind {
                    SubqueryKind::Scalar => {
                        let map = self.execute_scalar_subquery(&sq.plan, &resolved)?;
                        resolved.scalars[idx] = Some(map);
                    }
                    SubqueryKind::Membership => {
                        let rows = self.execute_plan(&sq.plan, &resolved)?;
                        let set: FxHashSet<Vec<Value>> =
                            rows.into_iter().map(|r| r.values().to_vec()).collect();
                        resolved.members[idx] = Some(set);
                    }
                }
            }
            let rows = self.execute_plan(&graph.root, &resolved)?;
            Ok(Table::new_unchecked(Arc::clone(graph.root.schema()), rows))
        }

        /// Execute a scalar subquery plan into a `group key → value` map. The
        /// plan shape is `Project[expr]` over (filters over) an `Aggregate`; the
        /// group key is the first `n_group` columns of each aggregate row.
        fn execute_scalar_subquery(
            &self,
            plan: &LogicalPlan,
            resolved: &Resolved,
        ) -> Result<FxHashMap<Vec<Value>, Value>> {
            let (project_exprs, input) = match plan {
                LogicalPlan::Project { input, exprs, .. } => (exprs, input.as_ref()),
                other => {
                    return Err(Error::exec(format!(
                        "scalar subquery plan must end in a projection, got {}",
                        other.explain().lines().next().unwrap_or("?")
                    )))
                }
            };
            let n_group = aggregate_group_arity(input).ok_or_else(|| {
                Error::exec("scalar subquery plan has no aggregate node".to_string())
            })?;
            let rows = self.execute_plan(input, resolved)?;
            let mut map = FxHashMap::default();
            for row in rows {
                let ctx = RowContext::new(row.values(), resolved);
                let value = eval(&project_exprs[0], &ctx)?;
                map.insert(row.values()[..n_group].to_vec(), value);
            }
            Ok(map)
        }

        /// Generic plan interpreter.
        fn execute_plan(&self, plan: &LogicalPlan, resolved: &Resolved) -> Result<Vec<Row>> {
            match plan {
                LogicalPlan::Scan { table, .. } => Ok(self.catalog.get(table)?.rows()),
                LogicalPlan::Filter { input, predicate } => {
                    let rows = self.execute_plan(input, resolved)?;
                    let mut out = Vec::new();
                    for row in rows {
                        let ctx = RowContext::new(row.values(), resolved);
                        if eval_predicate(predicate, &ctx)? {
                            out.push(row);
                        }
                    }
                    Ok(out)
                }
                LogicalPlan::Project { input, exprs, .. } => {
                    let rows = self.execute_plan(input, resolved)?;
                    let mut out = Vec::with_capacity(rows.len());
                    for row in rows {
                        let ctx = RowContext::new(row.values(), resolved);
                        let values: Result<Vec<Value>> =
                            exprs.iter().map(|e| eval(e, &ctx)).collect();
                        out.push(Row::new(values?));
                    }
                    Ok(out)
                }
                LogicalPlan::Join {
                    left, right, on, ..
                } => {
                    let left_rows = self.execute_plan(left, resolved)?;
                    let right_rows = self.execute_plan(right, resolved)?;
                    hash_join(&left_rows, &right_rows, on, resolved)
                }
                LogicalPlan::Aggregate {
                    input,
                    group_by,
                    aggs,
                    ..
                } => {
                    let rows = self.execute_plan(input, resolved)?;
                    hash_aggregate(&rows, group_by, aggs, resolved)
                }
                LogicalPlan::Sort { input, keys } => {
                    let mut rows = self.execute_plan(input, resolved)?;
                    sort_rows(&mut rows, keys);
                    Ok(rows)
                }
                LogicalPlan::Limit { input, n } => {
                    let mut rows = self.execute_plan(input, resolved)?;
                    rows.truncate(*n);
                    Ok(rows)
                }
            }
        }
    }

    /// Stable multi-key sort honoring per-key descending flags.
    pub fn sort_rows(rows: &mut [Row], keys: &[(usize, bool)]) {
        rows.sort_by(|a, b| {
            for &(idx, desc) in keys {
                let ord = a.get(idx).total_cmp(b.get(idx));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    fn hash_join(
        left_rows: &[Row],
        right_rows: &[Row],
        on: &[(Expr, Expr)],
        resolved: &Resolved,
    ) -> Result<Vec<Row>> {
        // Build on the right side (dimension side by construction).
        let mut table: FxHashMap<Vec<Value>, Vec<&Row>> = FxHashMap::default();
        for row in right_rows {
            let ctx = RowContext::new(row.values(), resolved);
            let key: Result<Vec<Value>> = on.iter().map(|(_, r)| eval(r, &ctx)).collect();
            let key = key?;
            if key.iter().any(Value::is_null) {
                continue; // NULL join keys never match
            }
            table.entry(key).or_default().push(row);
        }
        let mut out = Vec::new();
        for row in left_rows {
            let ctx = RowContext::new(row.values(), resolved);
            let key: Result<Vec<Value>> = on.iter().map(|(l, _)| eval(l, &ctx)).collect();
            let key = key?;
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(matches) = table.get(&key) {
                for m in matches {
                    out.push(row.concat(m));
                }
            }
        }
        Ok(out)
    }

    fn hash_aggregate(
        rows: &[Row],
        group_by: &[Expr],
        aggs: &[AggCall],
        resolved: &Resolved,
    ) -> Result<Vec<Row>> {
        let mut groups: FxHashMap<Vec<Value>, Vec<gola_agg::AggState>> = FxHashMap::default();
        for row in rows {
            let ctx = RowContext::new(row.values(), resolved);
            let key: Result<Vec<Value>> = group_by.iter().map(|g| eval(g, &ctx)).collect();
            let key = key?;
            let states = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| a.kind.new_state()).collect());
            for (state, call) in states.iter_mut().zip(aggs) {
                let v = eval(&call.arg, &ctx)?;
                state.update(&v, 1.0);
            }
        }
        // A global aggregation over zero rows still yields one (empty) group.
        if groups.is_empty() && group_by.is_empty() {
            groups.insert(
                Vec::new(),
                aggs.iter().map(|a| a.kind.new_state()).collect(),
            );
        }
        // Rows are sorted by group key via sort_rows immediately below, erasing
        // the hash iteration order.
        let mut out: Vec<Row> = groups
            .into_iter()
            .map(|(key, states)| {
                let mut values = key;
                values.extend(states.iter().map(|s| s.finalize(1.0)));
                Row::new(values)
            })
            .collect();
        // Deterministic output order: sort by group key.
        let n_keys = group_by.len();
        let keys: Vec<(usize, bool)> = (0..n_keys).map(|i| (i, false)).collect();
        sort_rows(&mut out, &keys);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Arc::new(Schema::from_pairs(&[
            ("session_id", DataType::Int),
            ("ad_id", DataType::Int),
            ("buffer_time", DataType::Float),
            ("play_time", DataType::Float),
        ]));
        // The paper's Figure 1(b)-style tiny Sessions table.
        let rows = vec![
            row![1i64, 1i64, 36.0f64, 238.0f64],
            row![2i64, 1i64, 58.0f64, 135.0f64],
            row![3i64, 2i64, 17.0f64, 617.0f64],
            row![4i64, 2i64, 56.0f64, 194.0f64],
            row![5i64, 3i64, 19.0f64, 308.0f64],
            row![6i64, 3i64, 26.0f64, 319.0f64],
        ];
        c.register("sessions", Arc::new(Table::try_new(schema, rows).unwrap()))
            .unwrap();
        let ads = Arc::new(Schema::from_pairs(&[
            ("ad_id", DataType::Int),
            ("ad_name", DataType::Str),
        ]));
        c.register(
            "ads",
            Arc::new(Table::try_new(ads, vec![row![1i64, "alpha"], row![2i64, "beta"]]).unwrap()),
        )
        .unwrap();
        c
    }

    fn run(sql: &str) -> Table {
        let cat = catalog();
        let graph = gola_sql::compile(sql, &cat).unwrap();
        BatchEngine::new(&cat).execute(&graph).unwrap()
    }

    #[test]
    fn simple_aggregate() {
        let t = run("SELECT AVG(buffer_time), COUNT(*), SUM(play_time) FROM sessions");
        let r = t.rows()[0].clone();
        assert!((r.get(0).as_f64().unwrap() - 212.0 / 6.0).abs() < 1e-9);
        assert_eq!(r.get(1), &Value::Float(6.0));
        assert_eq!(r.get(2), &Value::Float(1811.0));
    }

    #[test]
    fn sbi_query_exact() {
        // AVG(buffer_time) = 35.333…; sessions above it: 36, 58, 56 →
        // AVG(play_time) over {238, 135, 194}.
        let t = run("SELECT AVG(play_time) FROM sessions \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)");
        let expected = (238.0 + 135.0 + 194.0) / 3.0;
        assert!((t.rows()[0].get(0).as_f64().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn correlated_subquery_exact() {
        // Per-ad average buffer_time: ad1 = 47, ad2 = 36.5, ad3 = 22.5.
        // Rows above their own ad average: s2 (58>47), s4 (56>36.5),
        // s6 (26>22.5) → AVG(play_time) over {135, 194, 319}.
        let t = run("SELECT AVG(play_time) FROM sessions s \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions t \
                                  WHERE t.ad_id = s.ad_id)");
        let expected = (135.0 + 194.0 + 319.0) / 3.0;
        assert!((t.rows()[0].get(0).as_f64().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn group_by_with_having_and_order() {
        let t = run("SELECT ad_id, SUM(play_time) AS total FROM sessions \
             GROUP BY ad_id HAVING SUM(play_time) > 400 ORDER BY total DESC");
        // ad1: 373, ad2: 811, ad3: 627 → having > 400 keeps ad2, ad3.
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows()[0].get(0), &Value::Int(2));
        assert_eq!(t.rows()[0].get(1), &Value::Float(811.0));
        assert_eq!(t.rows()[1].get(0), &Value::Int(3));
    }

    #[test]
    fn membership_subquery() {
        let t = run("SELECT AVG(play_time) FROM sessions WHERE ad_id IN \
             (SELECT ad_id FROM sessions GROUP BY ad_id HAVING SUM(play_time) > 400)");
        // ads 2 and 3 qualify → rows 3..6 → AVG(617, 194, 308, 319).
        let expected = (617.0 + 194.0 + 308.0 + 319.0) / 4.0;
        assert!((t.rows()[0].get(0).as_f64().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn join_with_dimension() {
        let t = run("SELECT a.ad_name, COUNT(*) AS n FROM sessions s \
             JOIN ads a ON s.ad_id = a.ad_id GROUP BY a.ad_name ORDER BY a.ad_name");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows()[0].get(0), &Value::str("alpha"));
        assert_eq!(t.rows()[0].get(1), &Value::Float(2.0));
        assert_eq!(t.rows()[1].get(0), &Value::str("beta"));
    }

    #[test]
    fn plain_select_with_limit() {
        let t = run("SELECT session_id FROM sessions WHERE play_time > 200 \
             ORDER BY session_id DESC LIMIT 2");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows()[0].get(0), &Value::Int(6));
        assert_eq!(t.rows()[1].get(0), &Value::Int(5));
    }

    #[test]
    fn empty_result_aggregates() {
        let t = run("SELECT AVG(play_time), COUNT(*) FROM sessions WHERE play_time > 1e9");
        assert!(t.rows()[0].get(0).is_null());
        assert_eq!(t.rows()[0].get(1), &Value::Float(0.0));
    }

    #[test]
    fn two_level_nesting_executes() {
        let t = run("SELECT COUNT(*) FROM sessions WHERE buffer_time > \
             (SELECT AVG(buffer_time) FROM sessions WHERE play_time < \
              (SELECT AVG(play_time) FROM sessions))");
        // Inner: AVG(play_time) = 301.83; middle: AVG(buffer) over rows with
        // play < 301.83 → {36, 58, 56} avg = 50; outer: buffer > 50 → 2 rows.
        assert_eq!(t.rows()[0].get(0), &Value::Float(2.0));
    }

    #[test]
    fn quantile_and_stddev() {
        let t = run("SELECT MEDIAN(play_time), STDDEV(play_time) FROM sessions");
        let med = t.rows()[0].get(0).as_f64().unwrap();
        assert!(med > 194.0 && med < 319.0, "median {med}");
        assert!(t.rows()[0].get(1).as_f64().unwrap() > 0.0);
    }

    #[test]
    fn group_over_expression() {
        let t = run(
            "SELECT floor(buffer_time / 20) AS bucket, COUNT(*) FROM sessions \
             GROUP BY bucket ORDER BY bucket",
        );
        // Buckets: 36→1, 58→2, 17→0, 56→2, 19→0, 26→1.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.rows()[0].get(1), &Value::Float(2.0));
    }
}

/// The columnar executor against [`row_oracle`], bit for bit and in row
/// order, over the workload suites and over edge-value tables.
#[cfg(test)]
mod oracle_equivalence {
    use super::row_oracle::RowEngine;
    use super::*;
    use gola_common::{rng::SplitMix64, Row};
    use gola_workloads::{conviva, tpch, ConvivaGenerator, MyTubeGenerator, TpchGenerator};

    /// Same schema, same rows in the same order, same value types, and
    /// every float through `to_bits`.
    fn assert_bit_identical(new: &Table, old: &Table, sql: &str) {
        assert_eq!(new.schema(), old.schema(), "{sql}");
        assert_eq!(new.num_rows(), old.num_rows(), "{sql}");
        for i in 0..new.num_rows() {
            for j in 0..new.schema().len() {
                let (a, b) = (new.value(i, j), old.value(i, j));
                let same = match (&a, &b) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => a.data_type() == b.data_type() && a == b,
                };
                assert!(same, "{sql}: row {i} column {j}: {a:?} vs {b:?}");
            }
        }
    }

    /// Run `sql` through both engines; they must agree bit for bit.
    fn check(cat: &Catalog, sql: &str) {
        let graph = gola_sql::compile(sql, cat).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let new = BatchEngine::new(cat).execute(&graph);
        let old = RowEngine::new(cat).execute(&graph);
        assert_bit_identical(&new.unwrap(), &old.unwrap(), sql);
    }

    /// The same rows split into uneven chunks, one of them empty — the
    /// shape stream snapshots hand the engine.
    fn rechunked(t: &Table) -> Table {
        let n = t.num_rows();
        let cuts = [0, n / 7, n / 7, n / 2 + 3, n];
        let chunks = cuts.windows(2).map(|w| {
            let idx: Vec<usize> = (w[0].min(n)..w[1].min(n)).collect();
            t.gather(&idx)
        });
        Table::from_chunks(Arc::clone(t.schema()), chunks.collect()).unwrap()
    }

    /// Check every query against `cat` and against a copy of `cat` whose
    /// tables are re-chunked unevenly.
    fn check_suite(cat: &Catalog, queries: &[&str]) {
        let mut uneven = Catalog::new();
        for name in cat.names() {
            let t = rechunked(&cat.get(&name).unwrap());
            assert!(t.chunks().iter().any(ColumnChunk::is_empty));
            uneven.register(&name, Arc::new(t)).unwrap();
        }
        for sql in queries {
            check(cat, sql);
            check(&uneven, sql);
        }
    }

    #[test]
    fn workload_suites_match_the_row_oracle() {
        let mut cat = Catalog::new();
        let sessions = ConvivaGenerator::default().generate(6000);
        cat.register("sessions", Arc::new(sessions)).unwrap();
        let lineitems = TpchGenerator::default().generate(6000);
        cat.register("lineitem_denorm", Arc::new(lineitems))
            .unwrap();
        let queries = conviva::queries().into_iter().chain(tpch::queries());
        let queries: Vec<&str> = queries.map(|(_, sql)| sql).collect();
        check_suite(&cat, &queries);
        check_suite(
            &MyTubeGenerator::default().catalog(3000),
            &[
                "SELECT a.category, SUM(s.ad_revenue) AS revenue \
                 FROM mytube_sessions s JOIN ads a ON s.ad_id = a.ad_id \
                 GROUP BY a.category ORDER BY revenue DESC",
                "SELECT experiment, AVG(play_time), MEDIAN(play_time), STDDEV(buffer_time) \
                 FROM mytube_sessions WHERE buffer_time > \
                 (SELECT AVG(buffer_time) FROM mytube_sessions) GROUP BY experiment",
                "SELECT hour_of_day, COUNT(*) FROM mytube_sessions s WHERE play_time > \
                 (SELECT AVG(play_time) FROM mytube_sessions t \
                  WHERE t.hour_of_day = s.hour_of_day) \
                 GROUP BY hour_of_day ORDER BY hour_of_day LIMIT 5",
            ],
        );
    }

    /// A seeded table whose columns mix NULL, NaN, ±0.0, ±∞ and the i64
    /// extremes into ordinary values, plus a dimension table with NULL
    /// join keys.
    fn edge_catalog() -> Catalog {
        let floats = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -2.5,
            7.25,
            f64::MIN_POSITIVE,
        ];
        let ints = [i64::MIN, i64::MAX, -1, 0, 1, 1 << 53, (1 << 53) + 1, 42];
        let schema = Arc::new(gola_common::Schema::from_pairs(&[
            ("session_id", DataType::Int),
            ("ad_id", DataType::Int),
            ("buffer_time", DataType::Float),
            ("play_time", DataType::Float),
            ("big", DataType::Int),
            ("tag", DataType::Str),
        ]));
        let mut rng = SplitMix64::new(17);
        let mut pick = |n: usize| usize::try_from(rng.next_below(n as u64)).unwrap();
        let rows: Vec<Row> = (0..400i64)
            .map(|i| {
                let null = |v: Value, p: usize| if p == 0 { Value::Null } else { v };
                let ad = null(Value::Int(i % 5), pick(9));
                let buffer = if pick(3) == 0 {
                    floats[pick(floats.len())]
                } else {
                    f64::from(u32::try_from(pick(100)).unwrap()) / 4.0
                };
                let play = null(
                    Value::Float(if pick(6) == 0 {
                        floats[pick(floats.len())]
                    } else {
                        150.0 + buffer
                    }),
                    pick(11),
                );
                let big = null(Value::Int(ints[pick(ints.len())]), pick(7));
                let tag = null(Value::str(["x", "y", "z"][pick(3)]), pick(8));
                Row::new(vec![
                    Value::Int(i),
                    ad,
                    null(Value::Float(buffer), pick(10)),
                    play,
                    big,
                    tag,
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.register("sessions", Arc::new(Table::try_new(schema, rows).unwrap()))
            .unwrap();
        let ads = Arc::new(gola_common::Schema::from_pairs(&[
            ("ad_id", DataType::Int),
            ("ad_name", DataType::Str),
        ]));
        let ad_rows = vec![
            Row::new(vec![Value::Int(1), Value::str("alpha")]),
            Row::new(vec![Value::Null, Value::str("ghost")]),
            Row::new(vec![Value::Int(2), Value::str("beta")]),
            Row::new(vec![Value::Int(1), Value::str("alpha-2")]),
            Row::new(vec![Value::Float(3.0), Value::Null]),
        ];
        cat.register("ads", Arc::new(Table::new_unchecked(ads, ad_rows)))
            .unwrap();
        cat
    }

    #[test]
    fn edge_values_match_the_row_oracle() {
        check_suite(
            &edge_catalog(),
            &[
                // The unit tests' SQL.
                "SELECT AVG(buffer_time), COUNT(*), SUM(play_time) FROM sessions",
                "SELECT AVG(play_time) FROM sessions \
                 WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
                "SELECT AVG(play_time) FROM sessions s WHERE buffer_time > \
                 (SELECT AVG(buffer_time) FROM sessions t WHERE t.ad_id = s.ad_id)",
                "SELECT ad_id, SUM(play_time) AS total FROM sessions \
                 GROUP BY ad_id HAVING SUM(play_time) > 400 ORDER BY total DESC",
                "SELECT AVG(play_time) FROM sessions WHERE ad_id IN \
                 (SELECT ad_id FROM sessions GROUP BY ad_id HAVING SUM(play_time) > 400)",
                "SELECT a.ad_name, COUNT(*) AS n FROM sessions s \
                 JOIN ads a ON s.ad_id = a.ad_id GROUP BY a.ad_name ORDER BY a.ad_name",
                "SELECT session_id FROM sessions WHERE play_time > 200 \
                 ORDER BY session_id DESC LIMIT 2",
                "SELECT AVG(play_time), COUNT(*) FROM sessions WHERE play_time > 1e9",
                "SELECT COUNT(*) FROM sessions WHERE buffer_time > \
                 (SELECT AVG(buffer_time) FROM sessions WHERE play_time < \
                  (SELECT AVG(play_time) FROM sessions))",
                "SELECT MEDIAN(play_time), STDDEV(play_time) FROM sessions",
                "SELECT floor(buffer_time / 20) AS bucket, COUNT(*) FROM sessions \
                 GROUP BY bucket ORDER BY bucket",
                // Every aggregate kind over every edge column, grouped by a
                // key that holds NULL.
                "SELECT tag, COUNT(big), SUM(big), AVG(big), MIN(big), MAX(big), \
                 VAR_POP(big), STDDEV(big), MEDIAN(big), QUANTILE(big, 0.9) \
                 FROM sessions GROUP BY tag ORDER BY tag",
                "SELECT ad_id, COUNT(buffer_time), SUM(buffer_time), AVG(buffer_time), \
                 MIN(buffer_time), MAX(buffer_time), VAR_POP(buffer_time), \
                 STDDEV(buffer_time), QUANTILE(buffer_time, 0.25), GEO_MEAN(play_time), \
                 MIN(tag), MAX(tag), COUNT(tag) FROM sessions GROUP BY ad_id",
                "SELECT buffer_time, COUNT(*) FROM sessions GROUP BY buffer_time \
                 ORDER BY buffer_time DESC",
                "SELECT big, tag, MIN(play_time) FROM sessions GROUP BY big, tag",
                // Filters off the vector kernels: arithmetic, functions,
                // CASE, IN lists, correlated and membership references.
                "SELECT session_id, big * 2, -big, abs(play_time) FROM sessions \
                 WHERE big + 1 > 0 OR play_time / 0 IS NULL ORDER BY session_id",
                "SELECT COUNT(*) FROM sessions WHERE CASE WHEN tag = 'x' THEN buffer_time \
                 ELSE play_time END > 10 AND ad_id IN (1, 3)",
                "SELECT COUNT(*), SUM(play_time) FROM sessions s WHERE ad_id NOT IN \
                 (SELECT ad_id FROM sessions GROUP BY ad_id HAVING COUNT(*) > 79) \
                 AND play_time <= (SELECT MAX(play_time) FROM sessions t \
                                   WHERE t.tag = s.tag)",
                "SELECT tag, COUNT(*) FROM sessions WHERE buffer_time = -0.0 \
                 OR buffer_time IS NULL OR NOT tag = 'y' GROUP BY tag",
                "SELECT a.ad_name, s.big, s.play_time FROM sessions s JOIN ads a \
                 ON s.ad_id = a.ad_id WHERE s.buffer_time < 5 ORDER BY s.play_time, a.ad_name",
                "SELECT ad_id, MAX(play_time) AS m FROM sessions GROUP BY ad_id \
                 HAVING MAX(play_time) > (SELECT AVG(buffer_time) FROM sessions) \
                 ORDER BY m LIMIT 3",
                "SELECT session_id, tag, big FROM sessions WHERE big > 0 LIMIT 7",
            ],
        );
    }
}
