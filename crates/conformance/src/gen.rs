//! Seeded query generator over the workload schemas.
//!
//! Queries are held as a small AST ([`Query`]) rather than raw SQL so
//! tests can count the shapes they exercise; [`Query::sql`] renders the
//! dialect the `gola-sql` front end accepts. Thresholds are drawn from the
//! actual column distributions (quantiles of the generated data), so
//! predicates land in the selectivity band where classification is
//! interesting instead of trivially-all or trivially-none.
//!
//! The grammar (see DESIGN.md §3.7) covers: 1–3 aggregates over column or
//! product arguments; conjunctive/disjunctive filters mixing constant
//! comparisons, uncorrelated and correlated scalar-aggregate subqueries,
//! grouped `IN` membership subqueries, and predicates whose inner subquery
//! can be *empty* (a NULL threshold — the three-valued-logic path); GROUP
//! BY on keys or `floor` buckets, each selected beside an arithmetic
//! expression over the group key (so aggregate-mode expressions are under
//! the differential oracle too); HAVING against constants or a fraction of
//! a grand total (Q11-style); ORDER BY on output aliases. QUANTILE/MEDIAN
//! aggregates are deliberately excluded: the P² sketch is order-sensitive,
//! so they sit outside the bit-match contract (DESIGN.md §3.7).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use gola_common::rng::SplitMix64;
use gola_common::Value;
use gola_storage::Table;
use gola_workloads::{ConvivaGenerator, TpchGenerator};

/// Which workload schema a case runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaClass {
    Conviva,
    Tpch,
}

impl SchemaClass {
    pub fn table_name(&self) -> &'static str {
        match self {
            SchemaClass::Conviva => "sessions",
            SchemaClass::Tpch => "lineitem_denorm",
        }
    }

    /// Generate the schema's fact table with `n` rows under `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Table {
        match self {
            SchemaClass::Conviva => ConvivaGenerator {
                seed,
                ..Default::default()
            }
            .generate(n),
            SchemaClass::Tpch => TpchGenerator {
                seed,
                ..Default::default()
            }
            .generate(n),
        }
    }

    /// Static column metadata the generator draws from.
    pub fn info(&self) -> SchemaInfo {
        match self {
            SchemaClass::Conviva => SchemaInfo {
                numeric: vec!["buffer_time", "play_time", "join_time", "ad_revenue"],
                int_keys: vec![("ad_id", 24), ("content_id", 200), ("join_failed", 2)],
                str_keys: vec![("geo", 12), ("device", 5)],
                corr_keys: vec!["ad_id", "geo"],
            },
            SchemaClass::Tpch => SchemaInfo {
                numeric: vec!["quantity", "extendedprice", "discount", "tax", "availqty"],
                int_keys: vec![("suppkey", 50), ("nationkey", 25), ("partkey", 400)],
                str_keys: vec![("brand", 5), ("container", 4)],
                corr_keys: vec!["suppkey", "nationkey"],
            },
        }
    }
}

impl std::fmt::Display for SchemaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaClass::Conviva => write!(f, "conviva"),
            SchemaClass::Tpch => write!(f, "tpch"),
        }
    }
}

/// Column metadata for one schema: numeric columns for aggregation and
/// thresholds, low-cardinality keys for grouping and correlation.
#[derive(Debug, Clone)]
pub struct SchemaInfo {
    pub numeric: Vec<&'static str>,
    /// `(column, approximate cardinality)`.
    pub int_keys: Vec<(&'static str, u64)>,
    pub str_keys: Vec<(&'static str, u64)>,
    /// Keys dense enough for correlated-subquery equality.
    pub corr_keys: Vec<&'static str>,
}

/// Aggregate call in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// SQL function name (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`, `STDDEV`,
    /// `VAR_POP`).
    pub func: &'static str,
    pub arg: ArgExpr,
}

/// Aggregate argument expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgExpr {
    Star,
    Col(String),
    /// `col1 * col2` (Q11-style revenue products).
    Mul(String, String),
    /// `col * c` with a small constant.
    Scaled(String, f64),
}

impl ArgExpr {
    fn render(&self) -> String {
        match self {
            ArgExpr::Star => "*".into(),
            ArgExpr::Col(c) => c.clone(),
            ArgExpr::Mul(a, b) => format!("{a} * {b}"),
            ArgExpr::Scaled(c, k) => format!("{c} * {k:?}"),
        }
    }
}

/// One WHERE atom.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `col op const`.
    Cmp {
        col: String,
        op: &'static str,
        rhs: f64,
    },
    /// `key = literal` (int or quoted string).
    KeyEq { col: String, lit: String },
    /// `col op factor * (SELECT agg(inner) FROM t [WHERE guard > g])`.
    /// With a high `guard` threshold the inner set can be empty, making the
    /// subquery NULL and the predicate UNKNOWN — the 3VL path.
    ScalarSub {
        col: String,
        op: &'static str,
        factor: f64,
        agg: &'static str,
        inner: String,
        guard: Option<(String, f64)>,
    },
    /// `col op factor * (SELECT agg(inner) FROM t t WHERE t.key = a.key)`.
    CorrSub {
        col: String,
        op: &'static str,
        factor: f64,
        agg: &'static str,
        inner: String,
        key: String,
    },
    /// `key IN (SELECT key FROM t GROUP BY key HAVING agg(inner) op rhs)`.
    Membership {
        key: String,
        agg: &'static str,
        inner: String,
        op: &'static str,
        rhs: f64,
    },
}

impl Filter {
    fn render(&self, table: &str) -> String {
        match self {
            Filter::Cmp { col, op, rhs } => format!("{col} {op} {rhs:?}"),
            Filter::KeyEq { col, lit } => format!("{col} = {lit}"),
            Filter::ScalarSub {
                col,
                op,
                factor,
                agg,
                inner,
                guard,
            } => {
                let guard = match guard {
                    Some((g, c)) => format!(" WHERE {g} > {c:?}"),
                    None => String::new(),
                };
                format!("{col} {op} {factor:?} * (SELECT {agg}({inner}) FROM {table}{guard})")
            }
            Filter::CorrSub {
                col,
                op,
                factor,
                agg,
                inner,
                key,
            } => format!(
                "{col} {op} {factor:?} * (SELECT {agg}({inner}) FROM {table} t WHERE t.{key} = a.{key})"
            ),
            Filter::Membership {
                key,
                agg,
                inner,
                op,
                rhs,
            } => format!(
                "{key} IN (SELECT {key} FROM {table} GROUP BY {key} HAVING {agg}({inner}) {op} {rhs:?})"
            ),
        }
    }
}

/// GROUP BY clause.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupBy {
    /// Group on a key column (selected verbatim); `text` marks a string key.
    Key { col: String, text: bool },
    /// `floor(col / width) AS g` (C1-style histogram buckets).
    Bucket { col: String, width: f64 },
}

impl GroupBy {
    /// The alias the key appears under in the output.
    pub fn alias(&self) -> String {
        match self {
            GroupBy::Key { col, .. } => col.clone(),
            GroupBy::Bucket { .. } => "g".into(),
        }
    }
}

/// HAVING right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum HavingRhs {
    Const(f64),
    /// `frac * (SELECT agg(col) FROM t)` — Q11's fraction-of-total shape.
    FracOfTotal {
        frac: f64,
        agg: &'static str,
        col: String,
    },
}

/// HAVING clause: `agg(arg) op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Having {
    pub agg: &'static str,
    pub arg: String,
    pub op: &'static str,
    pub rhs: HavingRhs,
}

/// ORDER BY on an output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    pub alias: String,
    pub desc: bool,
}

/// A generated query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub aggs: Vec<AggSpec>,
    pub filters: Vec<Filter>,
    /// When true and two filters are present, join them with OR instead of
    /// AND (disjunctive 3VL).
    pub filters_or: bool,
    pub group_by: Option<GroupBy>,
    pub having: Option<Having>,
    pub order_by: Option<OrderBy>,
}

impl Query {
    /// Number of leading output columns that are group keys: the key and
    /// the expression over it.
    pub fn key_cols(&self) -> usize {
        2 * usize::from(self.group_by.is_some())
    }

    /// Render to the SQL dialect `gola-sql` accepts.
    pub fn sql(&self, table: &str) -> String {
        let mut s = String::from("SELECT ");
        match &self.group_by {
            Some(GroupBy::Key { col, text: false }) => {
                let _ = write!(s, "{col}, {col} + 1 AS k1, ");
            }
            Some(GroupBy::Key { col, text: true }) => {
                let _ = write!(s, "{col}, length({col}) + 1 AS k1, ");
            }
            Some(GroupBy::Bucket { col, width }) => {
                let _ = write!(
                    s,
                    "floor({col} / {width:?}) AS g, floor({col} / {width:?}) * {width:?} AS g_lo, "
                );
            }
            None => {}
        }
        for (i, a) in self.aggs.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}({}) AS a{i}", a.func, a.arg.render());
        }
        let _ = write!(s, " FROM {table} a");
        if !self.filters.is_empty() {
            let joiner = if self.filters_or && self.filters.len() > 1 {
                " OR "
            } else {
                " AND "
            };
            let atoms: Vec<String> = self.filters.iter().map(|f| f.render(table)).collect();
            let _ = write!(s, " WHERE {}", atoms.join(joiner));
        }
        if let Some(g) = &self.group_by {
            let _ = write!(s, " GROUP BY {}", g.alias());
        }
        if let Some(h) = &self.having {
            let rhs = match &h.rhs {
                HavingRhs::Const(c) => format!("{c:?}"),
                HavingRhs::FracOfTotal { frac, agg, col } => {
                    format!("{frac:?} * (SELECT {agg}({col}) FROM {table})")
                }
            };
            let _ = write!(s, " HAVING {}({}) {} {}", h.agg, h.arg, h.op, rhs);
        }
        if let Some(o) = &self.order_by {
            let _ = write!(
                s,
                " ORDER BY {}{}",
                o.alias,
                if o.desc { " DESC" } else { "" }
            );
        }
        s
    }
}

const AGG_FUNCS: [&str; 7] = ["COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VAR_POP"];
const CMP_OPS: [&str; 4] = ["<", "<=", ">", ">="];

/// Seeded query generator for one schema over one concrete table.
pub struct QueryGen {
    info: SchemaInfo,
    table: &'static str,
    /// Sorted values per numeric column, for quantile thresholds.
    stats: BTreeMap<&'static str, Vec<f64>>,
    /// Sample string-key literals, per column.
    str_samples: BTreeMap<&'static str, Vec<String>>,
    /// Sample int-key literals, per column.
    int_samples: BTreeMap<&'static str, Vec<i64>>,
    rng: SplitMix64,
}

impl QueryGen {
    pub fn new(class: SchemaClass, data: &Arc<Table>, seed: u64) -> Self {
        let info = class.info();
        let mut stats = BTreeMap::new();
        for &c in &info.numeric {
            let mut xs: Vec<f64> = data
                .column(c)
                .expect("schema column")
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            xs.sort_by(|a, b| a.total_cmp(b));
            stats.insert(c, xs);
        }
        let mut str_samples = BTreeMap::new();
        for &(c, _) in &info.str_keys {
            let mut seen = Vec::new();
            for v in data.column(c).expect("schema column") {
                if let Value::Str(s) = &v {
                    if !seen.iter().any(|x: &String| x.as_str() == s.as_ref()) {
                        seen.push(s.to_string());
                    }
                }
                if seen.len() >= 8 {
                    break;
                }
            }
            str_samples.insert(c, seen);
        }
        let mut int_samples = BTreeMap::new();
        for &(c, _) in &info.int_keys {
            let mut seen = Vec::new();
            for v in data.column(c).expect("schema column") {
                if let Some(i) = v.as_i64() {
                    if !seen.contains(&i) {
                        seen.push(i);
                    }
                }
                if seen.len() >= 8 {
                    break;
                }
            }
            int_samples.insert(c, seen);
        }
        QueryGen {
            info,
            table: class.table_name(),
            stats,
            str_samples,
            int_samples,
            rng: SplitMix64::new(seed),
        }
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.rng.next_below(xs.len() as u64) as usize]
    }

    fn numeric_col(&mut self) -> String {
        let cols = self.info.numeric.clone();
        (*self.pick(&cols)).to_string()
    }

    /// Threshold at a uniformly-drawn quantile of `col`, rounded to keep
    /// the rendered SQL short (both executors parse the same literal, so
    /// rounding costs nothing).
    fn quantile(&mut self, col: &str, lo: f64, hi: f64) -> f64 {
        let xs = &self.stats[col as &str];
        if xs.is_empty() {
            return 0.0;
        }
        let q = lo + self.rng.next_f64() * (hi - lo);
        let idx = ((xs.len() - 1) as f64 * q).round() as usize;
        let v = xs[idx.min(xs.len() - 1)];
        (v * 1e4).round() / 1e4
    }

    fn cmp_op(&mut self) -> &'static str {
        CMP_OPS[self.rng.next_below(CMP_OPS.len() as u64) as usize]
    }

    fn agg_spec(&mut self) -> AggSpec {
        // COUNT(*) and SUM/AVG dominate real OLA workloads; keep the long
        // tail (MIN/MAX/variance) present but rarer.
        let func = match self.rng.next_below(10) {
            0 | 1 => "COUNT",
            2..=4 => "SUM",
            5 | 6 => "AVG",
            7 => "MIN",
            8 => "MAX",
            _ => *self.pick(&AGG_FUNCS[5..]),
        };
        let arg = if func == "COUNT" && self.rng.next_below(2) == 0 {
            ArgExpr::Star
        } else {
            match self.rng.next_below(6) {
                0 => {
                    let a = self.numeric_col();
                    let b = self.numeric_col();
                    ArgExpr::Mul(a, b)
                }
                1 => {
                    let c = self.numeric_col();
                    let k = (1 + self.rng.next_below(40)) as f64 / 10.0;
                    ArgExpr::Scaled(c, k)
                }
                _ => ArgExpr::Col(self.numeric_col()),
            }
        };
        AggSpec { func, arg }
    }

    fn filter(&mut self) -> Filter {
        match self.rng.next_below(10) {
            // Plain threshold comparisons are the most common shape.
            0..=3 => {
                let col = self.numeric_col();
                let op = self.cmp_op();
                let rhs = self.quantile(&col, 0.1, 0.9);
                Filter::Cmp { col, op, rhs }
            }
            4 => {
                // Key equality (int or string literal).
                if self.rng.next_below(2) == 0 && !self.info.str_keys.is_empty() {
                    let keys = self.info.str_keys.clone();
                    let (col, _) = *self.pick(&keys);
                    let lits = self.str_samples[col].clone();
                    let lit = self.pick(&lits).clone();
                    Filter::KeyEq {
                        col: col.into(),
                        lit: format!("'{lit}'"),
                    }
                } else {
                    let keys = self.info.int_keys.clone();
                    let (col, _) = *self.pick(&keys);
                    let lits = self.int_samples[col].clone();
                    let lit = *self.pick(&lits);
                    Filter::KeyEq {
                        col: col.into(),
                        lit: lit.to_string(),
                    }
                }
            }
            5 | 6 => {
                // Uncorrelated scalar subquery, sometimes with a guard that
                // can empty the inner set (SBI / C2 shape, plus 3VL).
                let col = self.numeric_col();
                let inner = self.numeric_col();
                let guard = match self.rng.next_below(4) {
                    0 => {
                        // Near-max guard: inner set small; occasionally
                        // empty, which makes the subquery NULL.
                        let g = self.numeric_col();
                        let c = self.quantile(&g, 0.95, 1.0);
                        let c = if self.rng.next_below(3) == 0 {
                            c.abs() * 2.0 + 1.0 // above the max: empty inner
                        } else {
                            c
                        };
                        Some((g, c))
                    }
                    _ => None,
                };
                Filter::ScalarSub {
                    col,
                    op: self.cmp_op(),
                    factor: (5 + self.rng.next_below(16)) as f64 / 10.0,
                    agg: if self.rng.next_below(4) == 0 {
                        "STDDEV"
                    } else {
                        "AVG"
                    },
                    inner,
                    guard,
                }
            }
            7 | 8 => {
                // Correlated scalar subquery (C3 / Q17 / Q20 shape).
                let col = self.numeric_col();
                let inner = self.numeric_col();
                let keys = self.info.corr_keys.clone();
                let key = (*self.pick(&keys)).to_string();
                Filter::CorrSub {
                    col,
                    op: self.cmp_op(),
                    factor: (5 + self.rng.next_below(11)) as f64 / 10.0,
                    agg: "AVG",
                    inner,
                    key,
                }
            }
            _ => {
                // Grouped IN membership (Q18 shape).
                let keys = self.info.int_keys.clone();
                let (key, _) = *self.pick(&keys);
                let inner = self.numeric_col();
                let rhs = self.quantile(&inner, 0.3, 0.7);
                Filter::Membership {
                    key: key.into(),
                    agg: "AVG",
                    inner,
                    op: self.cmp_op(),
                    rhs,
                }
            }
        }
    }

    fn group_by(&mut self) -> GroupBy {
        if self.rng.next_below(3) == 0 {
            let col = self.numeric_col();
            let xs = &self.stats[col.as_str()];
            let (lo, hi) = (xs[0], xs[xs.len() - 1]);
            let width = ((hi - lo) / 8.0).max(1e-3);
            let width = (width * 100.0).round().max(1.0) / 100.0;
            GroupBy::Bucket { col, width }
        } else if self.rng.next_below(2) == 0 && !self.info.str_keys.is_empty() {
            let keys = self.info.str_keys.clone();
            GroupBy::Key {
                col: self.pick(&keys).0.into(),
                text: true,
            }
        } else {
            // Favor denser int keys (small cardinality) so per-group
            // estimation has observations to work with.
            let mut keys = self.info.int_keys.clone();
            keys.sort_by_key(|&(_, card)| card);
            let dense = &keys[..keys.len().min(2)].to_vec();
            GroupBy::Key {
                col: self.pick(dense).0.into(),
                text: false,
            }
        }
    }

    /// Generate the next query.
    pub fn next_query(&mut self) -> Query {
        let n_aggs = 1 + self.rng.next_below(3) as usize;
        let aggs: Vec<AggSpec> = (0..n_aggs).map(|_| self.agg_spec()).collect();
        let n_filters = self.rng.next_below(3) as usize;
        let filters: Vec<Filter> = (0..n_filters).map(|_| self.filter()).collect();
        let filters_or = filters.len() > 1 && self.rng.next_below(5) == 0;
        let group_by = if self.rng.next_below(2) == 0 {
            Some(self.group_by())
        } else {
            None
        };
        let having = if group_by.is_some() && self.rng.next_below(3) == 0 {
            let arg = self.numeric_col();
            let rhs = if self.rng.next_below(3) == 0 {
                HavingRhs::FracOfTotal {
                    frac: (2 + self.rng.next_below(6)) as f64 / 100.0,
                    agg: "SUM",
                    col: arg.clone(),
                }
            } else {
                HavingRhs::Const(self.quantile(&arg, 0.3, 0.7))
            };
            Some(Having {
                agg: if matches!(rhs, HavingRhs::FracOfTotal { .. }) {
                    "SUM"
                } else {
                    "AVG"
                },
                arg,
                op: self.cmp_op(),
                rhs,
            })
        } else {
            None
        };
        let order_by = if self.rng.next_below(2) == 0 {
            let alias = match &group_by {
                Some(g) if self.rng.next_below(2) == 0 => g.alias(),
                _ => format!("a{}", self.rng.next_below(aggs.len() as u64)),
            };
            Some(OrderBy {
                alias,
                desc: self.rng.next_below(2) == 0,
            })
        } else {
            None
        };
        Query {
            aggs,
            filters,
            filters_or,
            group_by,
            having,
            order_by,
        }
    }

    /// The table name queries render against.
    pub fn table(&self) -> &'static str {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(class: SchemaClass) -> QueryGen {
        let data = Arc::new(class.generate(300, 1));
        QueryGen::new(class, &data, 7)
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = generator(SchemaClass::Conviva);
        let mut b = generator(SchemaClass::Conviva);
        for _ in 0..50 {
            assert_eq!(
                a.next_query().sql("sessions"),
                b.next_query().sql("sessions")
            );
        }
    }

    #[test]
    fn queries_are_diverse() {
        for class in [SchemaClass::Conviva, SchemaClass::Tpch] {
            let mut g = generator(class);
            let mut distinct = std::collections::BTreeSet::new();
            let (mut subq, mut grouped, mut having) = (0, 0, 0);
            for _ in 0..300 {
                let q = g.next_query();
                subq += usize::from(q.filters.iter().any(|f| {
                    matches!(
                        f,
                        Filter::ScalarSub { .. }
                            | Filter::CorrSub { .. }
                            | Filter::Membership { .. }
                    )
                }));
                grouped += usize::from(q.group_by.is_some());
                having += usize::from(q.having.is_some());
                distinct.insert(q.sql(g.table()));
            }
            assert!(
                distinct.len() >= 250,
                "{class}: {} distinct",
                distinct.len()
            );
            assert!(subq >= 30, "{class}: {subq} subquery filters");
            assert!(grouped >= 80, "{class}: {grouped} grouped");
            assert!(having >= 15, "{class}: {having} having");
        }
    }

    #[test]
    fn rendered_sql_shapes() {
        let q = Query {
            aggs: vec![AggSpec {
                func: "SUM",
                arg: ArgExpr::Mul("extendedprice".into(), "quantity".into()),
            }],
            filters: vec![Filter::Cmp {
                col: "quantity".into(),
                op: "<",
                rhs: 25.0,
            }],
            filters_or: false,
            group_by: Some(GroupBy::Key {
                col: "suppkey".into(),
                text: false,
            }),
            having: Some(Having {
                agg: "AVG",
                arg: "discount".into(),
                op: ">",
                rhs: HavingRhs::Const(0.03),
            }),
            order_by: Some(OrderBy {
                alias: "a0".into(),
                desc: true,
            }),
        };
        assert_eq!(
            q.sql("lineitem_denorm"),
            "SELECT suppkey, suppkey + 1 AS k1, SUM(extendedprice * quantity) AS a0 \
             FROM lineitem_denorm a \
             WHERE quantity < 25.0 GROUP BY suppkey HAVING AVG(discount) > 0.03 \
             ORDER BY a0 DESC"
        );
        assert_eq!(q.key_cols(), 2);
    }
}
