//! The recursive logical-plan interpreter.

use std::sync::Arc;

use gola_common::{Error, FxHashMap, FxHashSet, Result, Row, Value};
use gola_expr::eval::{eval, eval_predicate, ExactContext, ExactResolver};
use gola_expr::{Expr, SubqueryId};
use gola_plan::{AggCall, LogicalPlan, QueryGraph, SubqueryKind};
use gola_storage::{Catalog, Table};

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

impl ExactResolver for Resolved {
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
        let n_group = aggregate_group_arity(input)
            .ok_or_else(|| Error::exec("scalar subquery plan has no aggregate node".to_string()))?;
        let rows = self.execute_plan(input, resolved)?;
        let mut map = FxHashMap::default();
        for row in rows {
            let ctx = ExactContext::with_resolver(&row, resolved);
            let value = eval(&project_exprs[0], &ctx)?;
            map.insert(row.values()[..n_group].to_vec(), value);
        }
        Ok(map)
    }

    /// Generic plan interpreter.
    fn execute_plan(&self, plan: &LogicalPlan, resolved: &Resolved) -> Result<Vec<Row>> {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                let rows = self.catalog.get(table)?.rows();
                if gola_obs::enabled() {
                    exact_rows_scanned().add(rows.len() as u64);
                }
                Ok(rows)
            }
            LogicalPlan::Filter { input, predicate } => {
                let rows = self.execute_plan(input, resolved)?;
                let mut out = Vec::new();
                for row in rows {
                    let ctx = ExactContext::with_resolver(&row, resolved);
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
                    let ctx = ExactContext::with_resolver(&row, resolved);
                    let values: Result<Vec<Value>> = exprs.iter().map(|e| eval(e, &ctx)).collect();
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
        let ctx = ExactContext::with_resolver(row, resolved);
        let key: Result<Vec<Value>> = on.iter().map(|(_, r)| eval(r, &ctx)).collect();
        let key = key?;
        if key.iter().any(Value::is_null) {
            continue; // NULL join keys never match
        }
        table.entry(key).or_default().push(row);
    }
    let mut out = Vec::new();
    for row in left_rows {
        let ctx = ExactContext::with_resolver(row, resolved);
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
        let ctx = ExactContext::with_resolver(row, resolved);
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
