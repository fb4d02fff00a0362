//! Name resolution and planning: AST → [`QueryGraph`].
//!
//! The binder resolves identifiers against the catalog, extracts aggregate
//! calls, validates GROUP BY / HAVING shape, performs type checking, and
//! lowers nested subqueries:
//!
//! * `(SELECT agg FROM t)` → a [`SubqueryKind::Scalar`] plan referenced as
//!   [`Expr::ScalarRef`];
//! * `(SELECT agg FROM t WHERE t.k = outer.k)` → **decorrelated** into a
//!   grouped scalar plan (`GROUP BY t.k`) whose consumers look up the group
//!   with `key = [outer.k]` — the transformation that turns TPC-H Q17/Q20
//!   style correlated subqueries into streamable lineage blocks;
//! * `x IN (SELECT k FROM t ... [GROUP BY k HAVING ...])` → a
//!   [`SubqueryKind::Membership`] plan referenced as [`Expr::InSubquery`].
//!
//! Every clause lowers its expressions through one recursive function,
//! `Binder::lower`. SELECT, HAVING and ORDER BY of an aggregate query add
//! one rule on top, over the aggregate row (group columns, then aggregate
//! columns): an aggregate call becomes its agg-row column, a subtree equal
//! to a GROUP BY expression becomes that group's column, a source column
//! outside every group is an error, and a scalar subquery's correlation
//! keys must each be a group.

use std::sync::Arc;

use gola_agg::{AggKind, UdafRegistry};
use gola_common::{DataType, Error, Field, Result, Schema, Value};
use gola_expr::types::{infer_type, TypeEnv};
use gola_expr::{BinOp, Expr, FunctionRegistry, SubqueryId, UnaryOp};
use gola_plan::{AggCall, LogicalPlan, QueryGraph, SubqueryKind, SubqueryPlan};
use gola_storage::Catalog;

use crate::ast::*;

/// Binds parsed statements against a catalog and function registries.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    functions: FunctionRegistry,
    udafs: UdafRegistry,
}

impl<'a> Binder<'a> {
    /// Binder with the default built-in registries.
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder {
            catalog,
            functions: FunctionRegistry::with_builtins(),
            udafs: UdafRegistry::with_builtins(),
        }
    }

    /// Binder with custom function/UDAF registries.
    pub fn with_registries(
        catalog: &'a Catalog,
        functions: FunctionRegistry,
        udafs: UdafRegistry,
    ) -> Self {
        Binder {
            catalog,
            functions,
            udafs,
        }
    }

    /// Bind a parsed statement into a resolved query graph.
    pub fn bind(&self, stmt: &SelectStmt) -> Result<QueryGraph> {
        if stmt.contract.is_some() && !self.is_aggregate(stmt) {
            return Err(Error::bind(
                "ERROR/WITHIN contracts require an aggregate query",
            ));
        }
        let mut ctx = BindCtx::default();
        let root = self.bind_select(stmt, None, &mut ctx, &[])?;
        Ok(QueryGraph {
            subqueries: ctx.subqueries,
            root,
            contract: stmt.contract,
        })
    }

    /// `true` if the statement aggregates: a GROUP BY, or an aggregate call
    /// in the select list or HAVING.
    fn is_aggregate(&self, stmt: &SelectStmt) -> bool {
        !stmt.group_by.is_empty()
            || stmt
                .items
                .iter()
                .any(|i| contains_agg(&i.expr, &self.udafs))
            || stmt
                .having
                .as_ref()
                .is_some_and(|h| contains_agg(h, &self.udafs))
    }

    // -----------------------------------------------------------------
    // SELECT binding
    // -----------------------------------------------------------------

    /// Bind one SELECT. `outer` is the enclosing scope for correlated
    /// subqueries; `extra_group` prepends synthetic (decorrelation) group
    /// keys already bound over this statement's own scope.
    fn bind_select(
        &self,
        stmt: &SelectStmt,
        outer: Option<&Scope>,
        ctx: &mut BindCtx,
        extra_group: &[(Expr, String)],
    ) -> Result<LogicalPlan> {
        let scope = self.scope_of(stmt)?;
        let (mut plan, join_residue) = self.bind_from(stmt, &scope, outer, ctx)?;

        // WHERE — aggregates are not allowed here.
        let mut where_parts: Vec<Expr> = join_residue;
        if let Some(w) = &stmt.where_clause {
            for c in w.conjuncts() {
                if contains_agg(c, &self.udafs) {
                    return Err(Error::bind("aggregate functions are not allowed in WHERE"));
                }
                where_parts.push(self.lower(c, &scope, outer, ctx, None)?);
            }
        }
        let source_env = scope.type_env(ctx);
        for p in &where_parts {
            let t = infer_type(p, &source_env)?;
            if t != DataType::Bool && t != DataType::Null {
                return Err(Error::bind(format!(
                    "WHERE predicate must be BOOL, got {t}"
                )));
            }
        }
        if let Some(pred) = Expr::conjunction(where_parts) {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }

        // GROUP BY (with select-alias resolution).
        let mut groups: Vec<(Expr, String)> = extra_group.to_vec();
        for g in &stmt.group_by {
            let (expr, name) = self.resolve_group_expr(g, stmt, &scope, outer, ctx)?;
            groups.push((expr, name));
        }

        if groups.is_empty() && !self.is_aggregate(stmt) {
            if stmt.having.is_some() {
                return Err(Error::bind("HAVING requires GROUP BY or aggregates"));
            }
            return self.finish_plain_select(stmt, plan, &scope, outer, ctx);
        }

        // Aggregate query: SELECT and HAVING read the aggregate row.
        let mut row = AggRow {
            groups: &groups,
            aggs: Vec::new(),
        };
        let mut select_exprs = Vec::with_capacity(stmt.items.len());
        let mut select_names = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            select_exprs.push(self.lower(&item.expr, &scope, outer, ctx, Some(&mut row))?);
            select_names.push(
                item.alias
                    .clone()
                    .unwrap_or_else(|| ast_display(&item.expr)),
            );
        }
        let having_expr = stmt
            .having
            .as_ref()
            .map(|h| self.lower(h, &scope, outer, ctx, Some(&mut row)))
            .transpose()?;

        // Aggregate-row schema: group columns then aggregate columns.
        let mut agg_row_fields: Vec<Field> = Vec::with_capacity(groups.len() + row.aggs.len());
        for (g, name) in &groups {
            agg_row_fields.push(Field::new(name.clone(), infer_type(g, &source_env)?));
        }
        for a in &row.aggs {
            let arg_t = infer_type(&a.arg, &source_env)?;
            agg_row_fields.push(Field::new(a.name.clone(), a.kind.return_type(arg_t)?));
        }
        let agg_row_schema = Arc::new(Schema::new(agg_row_fields));

        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: groups.iter().map(|(g, _)| g.clone()).collect(),
            aggs: row.aggs.clone(),
            schema: Arc::clone(&agg_row_schema),
        };

        // Type-check and attach HAVING.
        let agg_env = type_env_for_schema(&agg_row_schema, ctx);
        if let Some(h) = having_expr {
            let t = infer_type(&h, &agg_env)?;
            if t != DataType::Bool && t != DataType::Null {
                return Err(Error::bind(format!(
                    "HAVING predicate must be BOOL, got {t}"
                )));
            }
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: h,
            };
        }

        // Final projection over the aggregate row.
        let mut out_fields = Vec::with_capacity(select_exprs.len());
        for (e, name) in select_exprs.iter().zip(&select_names) {
            out_fields.push(Field::new(name.clone(), infer_type(e, &agg_env)?));
        }
        let out_schema = Arc::new(Schema::new(out_fields));
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: select_exprs.clone(),
            schema: Arc::clone(&out_schema),
        };

        // ORDER BY / LIMIT. An ORDER BY expression binds over a copy of the
        // aggregate row, for display matching against the select list.
        if !stmt.order_by.is_empty() {
            let keys = self.resolve_order_keys(stmt, &select_exprs, &out_schema, |ast| {
                self.lower(ast, &scope, outer, ctx, Some(&mut row.clone()))
            })?;
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    /// The name scope of one SELECT: its FROM table, then each JOIN's.
    fn scope_of(&self, stmt: &SelectStmt) -> Result<Scope> {
        let mut scope = Scope::default();
        for t in std::iter::once(&stmt.from).chain(stmt.joins.iter().map(|j| &j.table)) {
            scope.push(t, self.catalog.entry(&t.table)?.schema());
        }
        Ok(scope)
    }

    /// Bind FROM + JOIN clauses over the statement's `scope`: returns the
    /// join plan and any non-equi join conjuncts to apply as filters.
    fn bind_from(
        &self,
        stmt: &SelectStmt,
        scope: &Scope,
        outer: Option<&Scope>,
        ctx: &mut BindCtx,
    ) -> Result<(LogicalPlan, Vec<Expr>)> {
        let scan = |i: usize| {
            let (_, table, schema, _) = &scope.entries[i];
            LogicalPlan::Scan {
                table: table.clone(),
                schema: Arc::clone(schema),
            }
        };
        let mut plan = scan(0);
        let mut residue = Vec::new();
        for (i, join) in stmt.joins.iter().enumerate() {
            // Bind the ON condition over the tables joined so far plus this
            // one, then split each equality conjunct into (left-expr,
            // right-expr-in-dim-coords).
            let on_scope = scope.prefix(i + 2);
            let left_width = scope.entries[i + 1].3; // this table's column offset
            let mut on_pairs = Vec::new();
            for c in join.on.conjuncts() {
                let bound = self.lower(c, &on_scope, outer, ctx, None)?;
                match &bound {
                    Expr::Binary {
                        op: BinOp::Eq,
                        left,
                        right,
                    } => {
                        let (l_side, r_side) = split_join_sides(left, right, left_width)
                            .ok_or_else(|| {
                                Error::bind(format!(
                                    "join condition {bound} must compare left-side and \
                                     right-side columns"
                                ))
                            })?;
                        on_pairs.push((l_side, r_side));
                    }
                    _ => {
                        // Non-equi conjunct: keep as a post-join filter.
                        residue.push(bound);
                        continue;
                    }
                }
            }
            if on_pairs.is_empty() {
                return Err(Error::bind(format!(
                    "join with '{}' needs at least one equality condition",
                    join.table.table
                )));
            }
            let right = scan(i + 1);
            let joined_schema = Arc::new(plan.schema().join(right.schema()));
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(right),
                on: on_pairs,
                schema: joined_schema,
            };
        }
        Ok((plan, residue))
    }

    fn finish_plain_select(
        &self,
        stmt: &SelectStmt,
        mut plan: LogicalPlan,
        scope: &Scope,
        outer: Option<&Scope>,
        ctx: &mut BindCtx,
    ) -> Result<LogicalPlan> {
        let env = scope.type_env(ctx);
        let mut exprs = Vec::with_capacity(stmt.items.len());
        let mut fields = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            let e = self.lower(&item.expr, scope, outer, ctx, None)?;
            let name = item
                .alias
                .clone()
                .unwrap_or_else(|| ast_display(&item.expr));
            fields.push(Field::new(name, infer_type(&e, &env)?));
            exprs.push(e);
        }
        let out_schema = Arc::new(Schema::new(fields));
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: exprs.clone(),
            schema: Arc::clone(&out_schema),
        };
        if !stmt.order_by.is_empty() {
            let keys = self.resolve_order_keys(stmt, &exprs, &out_schema, |ast| {
                self.lower(ast, scope, outer, ctx, None)
            })?;
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    /// Resolve ORDER BY keys to output column indices: ordinal, alias, or
    /// display-matching a select expression.
    fn resolve_order_keys(
        &self,
        stmt: &SelectStmt,
        select_exprs: &[Expr],
        out_schema: &Schema,
        mut bind_key: impl FnMut(&AstExpr) -> Result<Expr>,
    ) -> Result<Vec<(usize, bool)>> {
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for k in &stmt.order_by {
            let idx = match &k.expr {
                AstExpr::IntLit(n) => {
                    let n = *n;
                    if n < 1 || n as usize > select_exprs.len() {
                        return Err(Error::bind(format!(
                            "ORDER BY ordinal {n} out of range 1..={}",
                            select_exprs.len()
                        )));
                    }
                    (n - 1) as usize
                }
                AstExpr::Ident(parts) if parts.len() == 1 => match out_schema.index_of(&parts[0]) {
                    Some(i) => i,
                    None => self.match_order_expr(&k.expr, select_exprs, &mut bind_key)?,
                },
                other => self.match_order_expr(other, select_exprs, &mut bind_key)?,
            };
            keys.push((idx, k.desc));
        }
        Ok(keys)
    }

    fn match_order_expr(
        &self,
        ast: &AstExpr,
        select_exprs: &[Expr],
        bind_key: &mut impl FnMut(&AstExpr) -> Result<Expr>,
    ) -> Result<usize> {
        let bound = bind_key(ast)?;
        let key = bound.to_string();
        select_exprs
            .iter()
            .position(|e| e.to_string() == key)
            .ok_or_else(|| {
                Error::bind(format!(
                    "ORDER BY expression {} must appear in the select list",
                    ast_display(ast)
                ))
            })
    }

    /// Resolve one GROUP BY expression, supporting select-alias references.
    fn resolve_group_expr(
        &self,
        g: &AstExpr,
        stmt: &SelectStmt,
        scope: &Scope,
        outer: Option<&Scope>,
        ctx: &mut BindCtx,
    ) -> Result<(Expr, String)> {
        if let AstExpr::Ident(parts) = g {
            if parts.len() == 1 && scope.resolve(parts).is_err() {
                // Not a source column: try a select alias.
                if let Some(item) = stmt.items.iter().find(|i| {
                    i.alias
                        .as_deref()
                        .is_some_and(|a| a.eq_ignore_ascii_case(&parts[0]))
                }) {
                    if contains_agg(&item.expr, &self.udafs) {
                        return Err(Error::bind(format!(
                            "GROUP BY alias '{}' refers to an aggregate expression",
                            parts[0]
                        )));
                    }
                    let e = self.lower(&item.expr, scope, outer, ctx, None)?;
                    return Ok((e, parts[0].clone()));
                }
            }
        }
        if contains_agg(g, &self.udafs) {
            return Err(Error::bind(
                "GROUP BY expressions may not contain aggregates",
            ));
        }
        let e = self.lower(g, scope, outer, ctx, None)?;
        Ok((e, ast_display(g)))
    }

    // -----------------------------------------------------------------
    // Expression lowering
    // -----------------------------------------------------------------

    /// Lower an expression over `scope`; subqueries are planned into `ctx`.
    ///
    /// Without `row` the result reads the source row and an aggregate call
    /// is an error. With `row` (SELECT, HAVING and ORDER BY of an aggregate
    /// query) it reads the aggregate row: an aggregate call becomes its
    /// agg-row column, and every aggregate-free subtree is lowered over the
    /// source and then moved onto the aggregate row by [`AggRow::regroup`].
    fn lower(
        &self,
        e: &AstExpr,
        scope: &Scope,
        outer: Option<&Scope>,
        ctx: &mut BindCtx,
        mut row: Option<&mut AggRow>,
    ) -> Result<Expr> {
        if let Some(r) = row.as_deref_mut() {
            if !contains_agg(e, &self.udafs) {
                let bound = self.lower(e, scope, outer, ctx, None)?;
                return r.regroup(&bound, e);
            }
        }
        if let AstExpr::Call { name, args, star } = e {
            if *star || is_aggregate_name(name, &self.udafs) {
                let Some(r) = row else {
                    return Err(Error::bind(format!(
                        "aggregate '{name}' is not allowed in this context"
                    )));
                };
                let call = self.bind_agg_call(name, args, *star, scope, outer, ctx)?;
                return Ok(r.column(call));
            }
        }
        let mut sub =
            |x: &AstExpr, ctx: &mut BindCtx| self.lower(x, scope, outer, ctx, row.as_deref_mut());
        Ok(match e {
            AstExpr::Ident(parts) => match scope.resolve(parts) {
                Ok((idx, _)) => Expr::Column(idx),
                // A name that resolves in the enclosing query is a
                // correlated reference used outside the supported
                // equality-in-WHERE position.
                Err(_) if outer.is_some_and(|o| o.resolve(parts).is_ok()) => {
                    return Err(Error::bind(format!(
                        "correlated reference '{}' is only supported as an \
                         equality predicate in the subquery's WHERE clause",
                        parts.join(".")
                    )))
                }
                Err(err) => return Err(err),
            },
            AstExpr::IntLit(v) => Expr::Literal(Value::Int(*v)),
            AstExpr::FloatLit(v) => Expr::Literal(Value::Float(*v)),
            AstExpr::StringLit(s) => Expr::Literal(Value::str(s)),
            AstExpr::BoolLit(b) => Expr::Literal(Value::Bool(*b)),
            AstExpr::NullLit => Expr::Literal(Value::Null),
            AstExpr::Binary { op, left, right } => {
                Expr::binary(lower_binop(*op), sub(left, ctx)?, sub(right, ctx)?)
            }
            AstExpr::Neg(inner) => Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(sub(inner, ctx)?),
            },
            AstExpr::Not(inner) => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(sub(inner, ctx)?),
            },
            AstExpr::Call { name, args, .. } => Expr::Func {
                func: self.functions.get(name)?,
                name: name.to_ascii_lowercase(),
                args: args.iter().map(|a| sub(a, ctx)).collect::<Result<_>>()?,
            },
            AstExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let mut bound_branches = Vec::with_capacity(branches.len());
                for (cond, result) in branches {
                    let cond_ast = match operand {
                        // Simple form: CASE x WHEN v THEN r → x = v.
                        Some(op) => AstExpr::binary(AstBinOp::Eq, (**op).clone(), cond.clone()),
                        None => cond.clone(),
                    };
                    bound_branches.push((sub(&cond_ast, ctx)?, sub(result, ctx)?));
                }
                Expr::Case {
                    branches: bound_branches,
                    else_expr: else_expr
                        .as_deref()
                        .map(|x| sub(x, ctx).map(Box::new))
                        .transpose()?,
                }
            }
            AstExpr::Cast { expr, ty } => Expr::Cast {
                expr: Box::new(sub(expr, ctx)?),
                to: parse_type_name(ty)?,
            },
            AstExpr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(sub(expr, ctx)?),
                negated: *negated,
            },
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = sub(expr, ctx)?;
                let lo = sub(low, ctx)?;
                let hi = sub(high, ctx)?;
                let between = Expr::and(
                    Expr::binary(BinOp::GtEq, e.clone(), lo),
                    Expr::binary(BinOp::LtEq, e, hi),
                );
                if *negated {
                    Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(between),
                    }
                } else {
                    between
                }
            }
            AstExpr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(sub(expr, ctx)?),
                list: list.iter().map(|i| sub(i, ctx)).collect::<Result<_>>()?,
                negated: *negated,
            },
            AstExpr::InSubquery {
                expr,
                subquery,
                negated,
            } => Expr::InSubquery {
                key: vec![sub(expr, ctx)?],
                id: self.bind_membership_subquery(subquery, ctx)?,
                negated: *negated,
            },
            AstExpr::ScalarSubquery(sq) => self.bind_scalar_subquery(sq, scope, ctx)?,
        })
    }

    /// Bind one aggregate call (built-in or UDAF).
    fn bind_agg_call(
        &self,
        name: &str,
        args: &[AstExpr],
        star: bool,
        scope: &Scope,
        outer: Option<&Scope>,
        ctx: &mut BindCtx,
    ) -> Result<AggCall> {
        let display = if star {
            format!("{}(*)", name.to_lowercase())
        } else {
            format!(
                "{}({})",
                name.to_lowercase(),
                args.iter().map(ast_display).collect::<Vec<_>>().join(", ")
            )
        };
        if star {
            if !name.eq_ignore_ascii_case("count") {
                return Err(Error::bind(format!(
                    "{name}(*) is not supported; only COUNT(*)"
                )));
            }
            return Ok(AggCall {
                kind: AggKind::Count,
                arg: Expr::lit(1i64),
                name: display,
            });
        }
        // QUANTILE's second argument must be a numeric literal.
        let quantile_arg = if args.len() == 2 {
            match &args[1] {
                AstExpr::FloatLit(q) => Some(*q),
                AstExpr::IntLit(q) => Some(*q as f64),
                _ => None,
            }
        } else {
            None
        };
        let kind = match AggKind::from_name(name, quantile_arg)? {
            Some(k) => k,
            None => match self.udafs.get(name) {
                Some(u) => AggKind::Udaf(u),
                None => return Err(Error::bind(format!("unknown aggregate '{name}'"))),
            },
        };
        // QUANTILE/PERCENTILE take (expr, q); MEDIAN and the rest take one.
        let expected_args = match name.to_ascii_lowercase().as_str() {
            "quantile" | "percentile" => 2,
            _ => 1,
        };
        if args.len() != expected_args {
            return Err(Error::bind(format!(
                "{} expects {expected_args} argument(s), got {}",
                kind.name(),
                args.len()
            )));
        }
        if contains_agg(&args[0], &self.udafs) {
            return Err(Error::bind("nested aggregate calls are not allowed"));
        }
        let arg = self.lower(&args[0], scope, outer, ctx, None)?;
        if arg.has_subquery_ref() {
            return Err(Error::bind(format!(
                "aggregate argument {} may not reference a subquery",
                ast_display(&args[0])
            )));
        }
        Ok(AggCall {
            kind,
            arg,
            name: display,
        })
    }

    // -----------------------------------------------------------------
    // Subquery lowering
    // -----------------------------------------------------------------

    /// Bind `(SELECT …)` used as a scalar, decorrelating equality
    /// correlation predicates into group keys.
    fn bind_scalar_subquery(
        &self,
        sub: &SelectStmt,
        outer_scope: &Scope,
        ctx: &mut BindCtx,
    ) -> Result<Expr> {
        if sub.contract.is_some() {
            return Err(Error::bind(
                "ERROR/WITHIN contracts are not allowed in subqueries",
            ));
        }
        if sub.items.len() != 1 {
            return Err(Error::bind(
                "scalar subquery must select exactly one expression",
            ));
        }
        if !contains_agg(&sub.items[0].expr, &self.udafs) {
            return Err(Error::bind(
                "scalar subquery must be an aggregate (G-OLA streams aggregates)",
            ));
        }
        // The inner scope classifies correlation predicates.
        let inner_scope = self.scope_of(sub)?;

        let mut kept_conjuncts: Vec<AstExpr> = Vec::new();
        let mut corr_inner: Vec<(Expr, String)> = Vec::new();
        let mut corr_outer: Vec<Expr> = Vec::new();
        if let Some(w) = &sub.where_clause {
            for c in w.conjuncts() {
                if let Some((inner_col, outer_col)) =
                    self.classify_correlation(c, &inner_scope, outer_scope)?
                {
                    corr_inner.push(inner_col);
                    corr_outer.push(outer_col);
                } else {
                    kept_conjuncts.push(c.clone());
                }
            }
        }
        if !corr_inner.is_empty() && !sub.group_by.is_empty() {
            return Err(Error::bind(
                "correlated scalar subquery may not also have GROUP BY",
            ));
        }
        let mut decorrelated = sub.clone();
        decorrelated.where_clause = AstExpr::conjunction(kept_conjuncts);
        let plan = self.bind_select(&decorrelated, Some(outer_scope), ctx, &corr_inner)?;
        let out_ty = plan.schema().field(plan.schema().len() - 1).data_type;
        let id = ctx.push(
            SubqueryPlan {
                plan,
                kind: SubqueryKind::Scalar,
            },
            out_ty,
        );
        Ok(Expr::ScalarRef {
            id,
            key: corr_outer,
        })
    }

    /// If `c` is an equality between one inner and one outer column, return
    /// `((inner_col_expr, inner_name), outer_col_expr)`.
    fn classify_correlation(
        &self,
        c: &AstExpr,
        inner: &Scope,
        outer: &Scope,
    ) -> Result<Option<((Expr, String), Expr)>> {
        let AstExpr::Binary {
            op: AstBinOp::Eq,
            left,
            right,
        } = c
        else {
            return Ok(None);
        };
        let (AstExpr::Ident(lp), AstExpr::Ident(rp)) = (left.as_ref(), right.as_ref()) else {
            return Ok(None);
        };
        let l_inner = inner.resolve(lp).ok();
        let r_inner = inner.resolve(rp).ok();
        match (l_inner, r_inner) {
            (Some(_), Some(_)) => Ok(None), // plain inner predicate
            (Some((li, _)), None) => {
                let (ro, _) = outer.resolve(rp).map_err(|_| correlation_err(rp))?;
                Ok(Some((
                    (Expr::Column(li), lp.last().unwrap().clone()),
                    Expr::Column(ro),
                )))
            }
            (None, Some((ri, _))) => {
                let (lo, _) = outer.resolve(lp).map_err(|_| correlation_err(lp))?;
                Ok(Some((
                    (Expr::Column(ri), rp.last().unwrap().clone()),
                    Expr::Column(lo),
                )))
            }
            (None, None) => Err(Error::bind(format!(
                "cannot resolve columns in subquery predicate {}",
                ast_display(c)
            ))),
        }
    }

    /// Bind `expr IN (SELECT …)` as a membership subquery.
    fn bind_membership_subquery(&self, sub: &SelectStmt, ctx: &mut BindCtx) -> Result<SubqueryId> {
        if sub.contract.is_some() {
            return Err(Error::bind(
                "ERROR/WITHIN contracts are not allowed in subqueries",
            ));
        }
        if sub.items.len() != 1 {
            return Err(Error::bind("IN subquery must select exactly one column"));
        }
        if contains_agg(&sub.items[0].expr, &self.udafs) {
            return Err(Error::bind(
                "IN subquery must select a grouping key, not an aggregate",
            ));
        }
        let mut rewritten = sub.clone();
        if rewritten.group_by.is_empty() {
            // `IN (SELECT k FROM …)` ≡ group by k (DISTINCT semantics).
            rewritten.group_by = vec![rewritten.items[0].expr.clone()];
        } else {
            // The selected column must be one of the group keys.
            let sel = ast_display(&rewritten.items[0].expr);
            if !rewritten.group_by.iter().any(|g| ast_display(g) == sel) {
                return Err(Error::bind(format!(
                    "IN subquery select item {sel} must be a GROUP BY key"
                )));
            }
        }
        let plan = self.bind_select(&rewritten, None, ctx, &[])?;
        let id = ctx.push(
            SubqueryPlan {
                plan,
                kind: SubqueryKind::Membership,
            },
            DataType::Bool,
        );
        Ok(id)
    }
}

fn correlation_err(parts: &[String]) -> Error {
    Error::bind(format!(
        "cannot resolve '{}' in the subquery or its immediate outer query \
         (only single-level equality correlation is supported)",
        parts.join(".")
    ))
}

/// The row an aggregate query's SELECT, HAVING and ORDER BY read: one
/// column per GROUP BY expression, then one per distinct aggregate call.
#[derive(Clone)]
struct AggRow<'g> {
    groups: &'g [(Expr, String)],
    aggs: Vec<AggCall>,
}

impl AggRow<'_> {
    /// The agg-row column of `call`, appending it unless an equal call is
    /// already there.
    fn column(&mut self, call: AggCall) -> Expr {
        let key = |a: &AggCall| format!("{}({})", a.kind.name(), a.arg);
        let k = key(&call);
        let idx = match self.aggs.iter().position(|a| key(a) == k) {
            Some(i) => i,
            None => {
                self.aggs.push(call);
                self.aggs.len() - 1
            }
        };
        Expr::Column(self.groups.len() + idx)
    }

    /// The group whose expression equals `e`.
    fn group_of(&self, e: &Expr) -> Option<usize> {
        let key = e.to_string();
        self.groups.iter().position(|(g, _)| g.to_string() == key)
    }

    /// Move `e`, an aggregate-free subtree bound over the source row, onto
    /// the aggregate row, top down: a subtree equal to a GROUP BY
    /// expression becomes that group's column, a subtree without source
    /// columns stays as it is, a source column left outside every group is
    /// an error, and a scalar subquery's correlation keys must each be a
    /// group. `ast` is the subtree as written, for the error message.
    fn regroup(&self, e: &Expr, ast: &AstExpr) -> Result<Expr> {
        if let Some(i) = self.group_of(e) {
            return Ok(Expr::Column(i));
        }
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        if cols.is_empty() {
            return Ok(e.clone());
        }
        let sub = |x: &Expr| self.regroup(x, ast);
        let boxed = |x: &Expr| sub(x).map(Box::new);
        let all = |xs: &[Expr]| xs.iter().map(sub).collect::<Result<Vec<_>>>();
        Ok(match e {
            Expr::Column(_) | Expr::Literal(_) => {
                return Err(Error::bind(format!(
                    "expression {} must appear in GROUP BY or inside an aggregate",
                    ast_display(ast)
                )))
            }
            Expr::ScalarRef { id, key } => Expr::ScalarRef {
                id: *id,
                key: key
                    .iter()
                    .map(|k| {
                        self.group_of(k).map(Expr::Column).ok_or_else(|| {
                            Error::bind(format!(
                                "correlated key {k} in HAVING/SELECT must be a GROUP BY expression"
                            ))
                        })
                    })
                    .collect::<Result<_>>()?,
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: boxed(expr)?,
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: boxed(left)?,
                right: boxed(right)?,
            },
            Expr::Func { name, func, args } => Expr::Func {
                name: name.clone(),
                func: Arc::clone(func),
                args: all(args)?,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| Ok((sub(c)?, sub(r)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr.as_deref().map(boxed).transpose()?,
            },
            Expr::Cast { expr, to } => Expr::Cast {
                expr: boxed(expr)?,
                to: *to,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: boxed(expr)?,
                negated: *negated,
            },
            Expr::InSubquery { id, key, negated } => Expr::InSubquery {
                id: *id,
                key: all(key)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: boxed(expr)?,
                list: all(list)?,
                negated: *negated,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------

/// Name-resolution scope: the tables visible to one SELECT.
#[derive(Debug, Default, Clone)]
struct Scope {
    /// (alias-or-table-name lowercase, table-name lowercase, schema, column offset)
    entries: Vec<(String, String, Arc<Schema>, usize)>,
    width: usize,
}

impl Scope {
    fn push(&mut self, table_ref: &TableRef, schema: &Arc<Schema>) {
        let alias = table_ref
            .alias
            .clone()
            .unwrap_or_else(|| table_ref.table.clone())
            .to_ascii_lowercase();
        self.entries.push((
            alias,
            table_ref.table.to_ascii_lowercase(),
            Arc::clone(schema),
            self.width,
        ));
        self.width += schema.len();
    }

    /// The scope of the first `n` tables only.
    fn prefix(&self, n: usize) -> Scope {
        let entries = self.entries[..n].to_vec();
        let width = entries
            .last()
            .map_or(0, |(_, _, schema, offset)| offset + schema.len());
        Scope { entries, width }
    }

    /// Resolve a possibly-qualified column reference to a global index.
    fn resolve(&self, parts: &[String]) -> Result<(usize, DataType)> {
        match parts {
            [col] => {
                let mut found: Option<(usize, DataType)> = None;
                for (_, _, schema, offset) in &self.entries {
                    if let Some(i) = schema.index_of(col) {
                        if found.is_some() {
                            return Err(Error::bind(format!("ambiguous column '{col}'")));
                        }
                        found = Some((offset + i, schema.field(i).data_type));
                    }
                }
                found.ok_or_else(|| Error::bind(format!("unknown column '{col}'")))
            }
            [qual, col] => {
                let q = qual.to_ascii_lowercase();
                for (alias, table, schema, offset) in &self.entries {
                    if *alias == q || *table == q {
                        let i = schema.index_of_or_err(col)?;
                        return Ok((offset + i, schema.field(i).data_type));
                    }
                }
                Err(Error::bind(format!("unknown table or alias '{qual}'")))
            }
            other => Err(Error::bind(format!(
                "unsupported qualified name '{}'",
                other.join(".")
            ))),
        }
    }

    /// Column types of the whole scope plus subquery types bound so far.
    fn type_env(&self, ctx: &BindCtx) -> TypeEnv {
        let mut cols = vec![DataType::Null; self.width];
        for (_, _, schema, offset) in &self.entries {
            for (i, f) in schema.fields().iter().enumerate() {
                cols[offset + i] = f.data_type;
            }
        }
        let mut env = TypeEnv::new(cols);
        for (i, t) in ctx.scalar_types.iter().enumerate() {
            env.set_scalar(SubqueryId(i), *t);
        }
        env
    }
}

fn type_env_for_schema(schema: &Schema, ctx: &BindCtx) -> TypeEnv {
    let mut env = TypeEnv::new(schema.fields().iter().map(|f| f.data_type).collect());
    for (i, t) in ctx.scalar_types.iter().enumerate() {
        env.set_scalar(SubqueryId(i), *t);
    }
    env
}

// ---------------------------------------------------------------------
// Bind context & helpers
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct BindCtx {
    subqueries: Vec<SubqueryPlan>,
    scalar_types: Vec<DataType>,
}

impl BindCtx {
    fn push(&mut self, sq: SubqueryPlan, ty: DataType) -> SubqueryId {
        self.subqueries.push(sq);
        self.scalar_types.push(ty);
        SubqueryId(self.subqueries.len() - 1)
    }
}

fn lower_binop(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Mod => BinOp::Mod,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::NotEq => BinOp::NotEq,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::LtEq => BinOp::LtEq,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::GtEq => BinOp::GtEq,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
    }
}

fn parse_type_name(ty: &str) -> Result<DataType> {
    match ty.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "BIGINT" | "LONG" => Ok(DataType::Int),
        "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" => Ok(DataType::Float),
        "STRING" | "VARCHAR" | "TEXT" | "CHAR" => Ok(DataType::Str),
        "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
        other => Err(Error::bind(format!("unknown type '{other}' in CAST"))),
    }
}

/// Does the expression contain an aggregate call (not descending into
/// subquery bodies, which have their own aggregation scope)?
fn contains_agg(e: &AstExpr, udafs: &UdafRegistry) -> bool {
    match e {
        AstExpr::Call { name, args, star } => {
            if *star || is_aggregate_name(name, udafs) {
                return true;
            }
            args.iter().any(|a| contains_agg(a, udafs))
        }
        AstExpr::Binary { left, right, .. } => {
            contains_agg(left, udafs) || contains_agg(right, udafs)
        }
        AstExpr::Neg(x) | AstExpr::Not(x) => contains_agg(x, udafs),
        AstExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            operand.as_ref().is_some_and(|o| contains_agg(o, udafs))
                || branches
                    .iter()
                    .any(|(c, r)| contains_agg(c, udafs) || contains_agg(r, udafs))
                || else_expr.as_ref().is_some_and(|x| contains_agg(x, udafs))
        }
        AstExpr::Cast { expr, .. } | AstExpr::IsNull { expr, .. } => contains_agg(expr, udafs),
        AstExpr::Between {
            expr, low, high, ..
        } => contains_agg(expr, udafs) || contains_agg(low, udafs) || contains_agg(high, udafs),
        AstExpr::InList { expr, list, .. } => {
            contains_agg(expr, udafs) || list.iter().any(|i| contains_agg(i, udafs))
        }
        AstExpr::InSubquery { expr, .. } => contains_agg(expr, udafs),
        _ => false,
    }
}

fn is_aggregate_name(name: &str, udafs: &UdafRegistry) -> bool {
    AggKind::from_name(name, Some(0.5)).ok().flatten().is_some() || udafs.contains(name)
}

/// Split an equi-join conjunct into (left-side expr, right-side expr in
/// dimension-local column coordinates). Returns `None` when either side
/// mixes columns from both inputs or references no columns.
fn split_join_sides(l: &Expr, r: &Expr, left_width: usize) -> Option<(Expr, Expr)> {
    // true = all columns on the left input, false = all on the right.
    let side = |e: &Expr| -> Option<bool> {
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        if cols.is_empty() {
            None
        } else if cols.iter().all(|&c| c < left_width) {
            Some(true)
        } else if cols.iter().all(|&c| c >= left_width) {
            Some(false)
        } else {
            None
        }
    };
    match (side(l), side(r)) {
        (Some(true), Some(false)) => Some((l.clone(), r.remap_columns(&|c| c - left_width))),
        (Some(false), Some(true)) => Some((r.clone(), l.remap_columns(&|c| c - left_width))),
        _ => None,
    }
}

/// Compact source-like rendering of an AST expression, used for implicit
/// column names and GROUP BY matching.
pub fn ast_display(e: &AstExpr) -> String {
    match e {
        AstExpr::Ident(parts) => parts.join(".").to_ascii_lowercase(),
        AstExpr::IntLit(v) => v.to_string(),
        AstExpr::FloatLit(v) => v.to_string(),
        AstExpr::StringLit(s) => format!("'{s}'"),
        AstExpr::BoolLit(b) => b.to_string(),
        AstExpr::NullLit => "null".into(),
        AstExpr::Binary { op, left, right } => {
            let sym = match op {
                AstBinOp::Add => "+",
                AstBinOp::Sub => "-",
                AstBinOp::Mul => "*",
                AstBinOp::Div => "/",
                AstBinOp::Mod => "%",
                AstBinOp::Eq => "=",
                AstBinOp::NotEq => "<>",
                AstBinOp::Lt => "<",
                AstBinOp::LtEq => "<=",
                AstBinOp::Gt => ">",
                AstBinOp::GtEq => ">=",
                AstBinOp::And => "and",
                AstBinOp::Or => "or",
            };
            format!("({} {} {})", ast_display(left), sym, ast_display(right))
        }
        AstExpr::Neg(x) => format!("(-{})", ast_display(x)),
        AstExpr::Not(x) => format!("(not {})", ast_display(x)),
        AstExpr::Call { name, args, star } => {
            if *star {
                format!("{}(*)", name.to_lowercase())
            } else {
                format!(
                    "{}({})",
                    name.to_lowercase(),
                    args.iter().map(ast_display).collect::<Vec<_>>().join(", ")
                )
            }
        }
        AstExpr::Case { .. } => "case".into(),
        AstExpr::Cast { expr, ty } => {
            format!("cast({} as {})", ast_display(expr), ty.to_lowercase())
        }
        AstExpr::IsNull { expr, negated } => format!(
            "({} is {}null)",
            ast_display(expr),
            if *negated { "not " } else { "" }
        ),
        AstExpr::Between { expr, .. } => format!("({} between ...)", ast_display(expr)),
        AstExpr::InList { expr, .. } => format!("({} in (...))", ast_display(expr)),
        AstExpr::InSubquery { expr, .. } => format!("({} in (select ...))", ast_display(expr)),
        AstExpr::ScalarSubquery(_) => "(select ...)".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use gola_common::row;
    use gola_storage::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let sessions = Arc::new(Schema::from_pairs(&[
            ("session_id", DataType::Int),
            ("ad_id", DataType::Int),
            ("buffer_time", DataType::Float),
            ("play_time", DataType::Float),
        ]));
        c.register(
            "sessions",
            Arc::new(Table::try_new(sessions, vec![row![1i64, 10i64, 3.0f64, 100.0f64]]).unwrap()),
        )
        .unwrap();
        let ads = Arc::new(Schema::from_pairs(&[
            ("ad_id", DataType::Int),
            ("ad_name", DataType::Str),
        ]));
        c.register(
            "ads",
            Arc::new(Table::try_new(ads, vec![row![10i64, "promo"]]).unwrap()),
        )
        .unwrap();
        c
    }

    fn bind_sql(sql: &str) -> Result<QueryGraph> {
        let cat = catalog();
        let stmt = parse_select(sql)?;
        Binder::new(&cat).bind(&stmt)
    }

    #[test]
    fn binds_sbi_query() {
        let g = bind_sql(
            "SELECT AVG(play_time) FROM sessions \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        )
        .unwrap();
        assert_eq!(g.subqueries.len(), 1);
        assert_eq!(g.subqueries[0].kind, SubqueryKind::Scalar);
        let s = g.explain();
        assert!(s.contains("$sq0"), "{s}");
        assert_eq!(g.root.schema().field(0).name, "avg(play_time)");
    }

    #[test]
    fn decorrelates_equality_subquery() {
        let g = bind_sql(
            "SELECT AVG(play_time) FROM sessions s \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions t \
                                  WHERE t.ad_id = s.ad_id)",
        )
        .unwrap();
        assert_eq!(g.subqueries.len(), 1);
        // The inner plan must be grouped by ad_id...
        match &g.subqueries[0].plan {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Aggregate { group_by, .. } => assert_eq!(group_by.len(), 1),
                other => panic!("unexpected inner {other:?}"),
            },
            other => panic!("unexpected inner {other:?}"),
        }
        // ...and the outer reference keyed by the outer ad_id column.
        let s = g.root.explain();
        assert!(s.contains("$sq0[#1]"), "{s}");
    }

    #[test]
    fn unsupported_correlation_reports_error() {
        let err = bind_sql(
            "SELECT AVG(play_time) FROM sessions s \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions t \
                                  WHERE t.ad_id > s.ad_id)",
        )
        .unwrap_err();
        assert!(err.to_string().contains("correlated reference"), "{err}");
    }

    #[test]
    fn binds_membership_subquery() {
        let g = bind_sql(
            "SELECT AVG(play_time) FROM sessions WHERE ad_id IN \
             (SELECT ad_id FROM sessions GROUP BY ad_id HAVING SUM(play_time) > 300)",
        )
        .unwrap();
        assert_eq!(g.subqueries.len(), 1);
        assert_eq!(g.subqueries[0].kind, SubqueryKind::Membership);
        // Membership plan: Filter(having) over Aggregate.
        match &g.subqueries[0].plan {
            LogicalPlan::Project { input, .. } => {
                assert!(matches!(input.as_ref(), LogicalPlan::Filter { .. }))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_subquery_without_group_by_gets_distinct_grouping() {
        let g = bind_sql(
            "SELECT COUNT(*) FROM sessions WHERE ad_id IN \
             (SELECT ad_id FROM sessions WHERE play_time > 50)",
        )
        .unwrap();
        match &g.subqueries[0].plan {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Aggregate { group_by, aggs, .. } => {
                    assert_eq!(group_by.len(), 1);
                    assert!(aggs.is_empty());
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_validation() {
        let err = bind_sql("SELECT play_time, AVG(buffer_time) FROM sessions GROUP BY ad_id")
            .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
        // Valid: select the group key and aggregates.
        let g =
            bind_sql("SELECT ad_id, AVG(buffer_time) AS ab FROM sessions GROUP BY ad_id").unwrap();
        assert_eq!(g.root.schema().field(0).name, "ad_id");
        assert_eq!(g.root.schema().field(1).name, "ab");
    }

    #[test]
    fn group_by_alias_and_expression() {
        let g =
            bind_sql("SELECT play_time * 2 AS dbl, COUNT(*) FROM sessions GROUP BY dbl").unwrap();
        assert_eq!(g.root.schema().field(0).name, "dbl");
        let g2 = bind_sql("SELECT play_time * 2, COUNT(*) FROM sessions GROUP BY play_time * 2")
            .unwrap();
        assert_eq!(g2.root.schema().len(), 2);
    }

    #[test]
    fn aggregates_deduplicated() {
        let g = bind_sql("SELECT SUM(play_time), SUM(play_time) / COUNT(*) FROM sessions").unwrap();
        match &g.root {
            LogicalPlan::Project { input, exprs, .. } => {
                match input.as_ref() {
                    LogicalPlan::Aggregate { aggs, .. } => assert_eq!(aggs.len(), 2),
                    other => panic!("unexpected {other:?}"),
                }
                assert_eq!(exprs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let err = bind_sql("SELECT COUNT(*) FROM sessions WHERE AVG(play_time) > 1").unwrap_err();
        assert!(err.to_string().contains("WHERE"), "{err}");
    }

    #[test]
    fn nested_aggregate_rejected() {
        let err = bind_sql("SELECT AVG(SUM(play_time)) FROM sessions").unwrap_err();
        assert!(err.to_string().contains("nested aggregate"), "{err}");
    }

    #[test]
    fn joins_bind_with_aliases() {
        let g = bind_sql(
            "SELECT a.ad_name, AVG(s.play_time) FROM sessions s \
             JOIN ads a ON s.ad_id = a.ad_id GROUP BY a.ad_name",
        )
        .unwrap();
        let s = g.root.explain();
        assert!(s.contains("Join on #1 = #0"), "{s}");
    }

    #[test]
    fn join_swapped_equality_normalized() {
        let g =
            bind_sql("SELECT COUNT(*) FROM sessions s JOIN ads a ON a.ad_id = s.ad_id").unwrap();
        let s = g.root.explain();
        assert!(s.contains("Join on #1 = #0"), "{s}");
    }

    #[test]
    fn order_by_resolution() {
        let g = bind_sql(
            "SELECT ad_id, SUM(play_time) AS total FROM sessions \
             GROUP BY ad_id ORDER BY total DESC, 1",
        )
        .unwrap();
        match &g.root {
            LogicalPlan::Sort { keys, .. } => {
                assert_eq!(keys[0], (1, true));
                assert_eq!(keys[1], (0, false));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(bind_sql("SELECT ad_id FROM sessions GROUP BY ad_id ORDER BY 5").is_err());
    }

    #[test]
    fn type_errors_caught() {
        let err = bind_sql("SELECT SUM(ad_name) FROM ads").unwrap_err();
        assert!(err.to_string().contains("numeric"), "{err}");
        let err = bind_sql("SELECT COUNT(*) FROM sessions WHERE play_time + 1").unwrap_err();
        assert!(err.to_string().contains("BOOL"), "{err}");
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(bind_sql("SELECT COUNT(*) FROM missing").is_err());
        assert!(bind_sql("SELECT nope FROM sessions").is_err());
        assert!(bind_sql("SELECT z.play_time FROM sessions s").is_err());
    }

    #[test]
    fn quantile_binding() {
        let g = bind_sql("SELECT QUANTILE(play_time, 0.95) FROM sessions").unwrap();
        match &g.root {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Aggregate { aggs, .. } => {
                    assert!(matches!(aggs[0].kind, AggKind::Quantile(q) if q == 0.95));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert!(bind_sql("SELECT QUANTILE(play_time, play_time) FROM sessions").is_err());
    }

    #[test]
    fn udaf_binding() {
        let g = bind_sql("SELECT GEO_MEAN(play_time) FROM sessions").unwrap();
        match &g.root {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Aggregate { aggs, .. } => {
                    assert!(matches!(aggs[0].kind, AggKind::Udaf(_)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_select_without_aggregates() {
        let g = bind_sql(
            "SELECT session_id, play_time FROM sessions WHERE play_time > 10 \
             ORDER BY play_time DESC LIMIT 5",
        )
        .unwrap();
        match &g.root {
            LogicalPlan::Limit { input, n } => {
                assert_eq!(*n, 5);
                assert!(matches!(input.as_ref(), LogicalPlan::Sort { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scalar_subquery_must_be_single_aggregate() {
        assert!(bind_sql(
            "SELECT COUNT(*) FROM sessions WHERE play_time > (SELECT buffer_time FROM sessions)"
        )
        .is_err());
        assert!(bind_sql(
            "SELECT COUNT(*) FROM sessions \
             WHERE play_time > (SELECT AVG(play_time), AVG(buffer_time) FROM sessions)"
        )
        .is_err());
    }

    #[test]
    fn two_level_nesting() {
        let g = bind_sql(
            "SELECT AVG(play_time) FROM sessions WHERE buffer_time > \
             (SELECT AVG(buffer_time) FROM sessions WHERE play_time > \
              (SELECT AVG(play_time) FROM sessions))",
        )
        .unwrap();
        assert_eq!(g.subqueries.len(), 2);
        // The middle subquery references the innermost.
        let mut refs = Vec::new();
        g.subqueries[1].plan.subquery_refs(&mut refs);
        assert_eq!(refs, vec![SubqueryId(0)]);
    }

    #[test]
    fn having_with_scalar_subquery() {
        let g = bind_sql(
            "SELECT ad_id, SUM(play_time) FROM sessions GROUP BY ad_id \
             HAVING SUM(play_time) > 0.1 * (SELECT SUM(play_time) FROM sessions)",
        )
        .unwrap();
        assert_eq!(g.subqueries.len(), 1);
        let s = g.root.explain();
        assert!(s.contains("Filter"), "{s}");
    }

    #[test]
    fn count_star_lowering() {
        let g = bind_sql("SELECT COUNT(*) FROM sessions").unwrap();
        match &g.root {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Aggregate { aggs, .. } => {
                    assert!(matches!(aggs[0].kind, AggKind::Count));
                    assert_eq!(aggs[0].arg.to_string(), "1");
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_and_scalar_functions() {
        let g = bind_sql(
            "SELECT AVG(CASE WHEN buffer_time > 10 THEN play_time ELSE 0 END), \
                    SUM(abs(play_time - 50)) FROM sessions",
        )
        .unwrap();
        assert!(g.root.schema().len() == 2);
    }
}
