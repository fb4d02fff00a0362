//! Denormalized TPC-H-like fact table and the adapted query suite.
//!
//! The paper denormalizes TPC-H into a single fact table "to simplify
//! random partitioning during mini-batch execution" (§5) and evaluates
//! nested-aggregate forms of Q11, Q17, Q18 and Q20, with overly selective
//! WHERE/GROUP BY constants relaxed (footnote 12). This module reproduces
//! that setup: one `lineitem_denorm` table carrying the lineitem columns
//! plus the order / part / supplier attributes those queries touch.

use std::sync::Arc;

use gola_common::rng::SplitMix64;
use gola_common::{DataType, Row, Schema, Value};
use gola_storage::Table;

/// Seeded generator for the `lineitem_denorm` fact table.
#[derive(Debug, Clone)]
pub struct TpchGenerator {
    pub seed: u64,
    pub num_parts: u64,
    pub num_suppliers: u64,
    /// Average lineitems per order (orders are sized 1..=2·avg).
    pub lineitems_per_order: u64,
}

impl Default for TpchGenerator {
    fn default() -> Self {
        TpchGenerator {
            seed: 0x79_C4,
            num_parts: 400,
            num_suppliers: 50,
            lineitems_per_order: 4,
        }
    }
}

const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
const CONTAINERS: [&str; 4] = ["SM BOX", "MED BAG", "LG CASE", "JUMBO DRUM"];

impl TpchGenerator {
    /// Schema of the denormalized fact table.
    pub fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[
            ("orderkey", DataType::Int),
            ("partkey", DataType::Int),
            ("suppkey", DataType::Int),
            ("quantity", DataType::Float),
            ("extendedprice", DataType::Float),
            ("discount", DataType::Float),
            ("tax", DataType::Float),
            ("shipdate", DataType::Int),
            ("nationkey", DataType::Int),
            ("brand", DataType::Str),
            ("container", DataType::Str),
            ("availqty", DataType::Float),
        ]))
    }

    /// A ready-to-use catalog with roughly `n` rows of `lineitem_denorm` registered.
    pub fn catalog(&self, n: usize) -> gola_storage::Catalog {
        let mut c = gola_storage::Catalog::new();
        c.register("lineitem_denorm", Arc::new(self.generate(n)))
            .expect("fresh catalog");
        c
    }

    /// Generate roughly `n` lineitem rows (whole orders, so the exact count
    /// may exceed `n` by at most one order).
    pub fn generate(&self, n: usize) -> Table {
        let mut rng = SplitMix64::new(self.seed);
        let mut rows = Vec::with_capacity(n + self.lineitems_per_order as usize);
        // Stable per-part base price and per-(part, supp) availability.
        let part_price = |p: u64| 900.0 + ((p * 37) % 1000) as f64;
        // TPC-H ps_availqty is uniform 1..9999 — wide relative to the Q20
        // threshold, so most (part, supplier) pairs classify early and only
        // a thin borderline band stays uncertain.
        let avail =
            |p: u64, s: u64| 1.0 + ((p.wrapping_mul(7919).wrapping_add(s * 104_729)) % 9999) as f64;
        let mut orderkey = 0i64;
        while rows.len() < n {
            orderkey += 1;
            let order_size = 1 + rng.next_below(2 * self.lineitems_per_order) as usize;
            // Orders cluster around a nation and a supplier.
            let nation = rng.next_below(25) as i64;
            for _ in 0..order_size {
                let part = rng.next_below(self.num_parts);
                // TPC-H partsupp: each part is stocked by 4 suppliers, so
                // (partkey, suppkey) groups are dense enough for online
                // estimation (the paper's footnote 12 relaxes sparse
                // clauses for the same reason).
                let supp = (part * 7 + rng.next_below(4) * 13) % self.num_suppliers;
                // Quantity 1..=50, mildly part-dependent so per-part inner
                // averages differ (Q17 needs real variation).
                let q_base = 1.0 + rng.next_f64() * 49.0;
                let quantity = (q_base * (0.6 + ((part % 9) as f64) / 10.0)).clamp(1.0, 50.0);
                let price = part_price(part) * quantity / 10.0;
                rows.push(Row::new(vec![
                    Value::Int(orderkey),
                    Value::Int(part as i64),
                    Value::Int(supp as i64),
                    Value::Float(quantity.floor()),
                    Value::Float((price * 100.0).round() / 100.0),
                    Value::Float((rng.next_below(11) as f64) / 100.0),
                    Value::Float((rng.next_below(9) as f64) / 100.0),
                    Value::Int(rng.next_below(2557) as i64), // ~7 years of days
                    Value::Int(nation),
                    Value::str(BRANDS[(part % BRANDS.len() as u64) as usize]),
                    Value::str(CONTAINERS[(part % CONTAINERS.len() as u64) as usize]),
                    Value::Float(avail(part, supp)),
                ]));
            }
        }
        Table::new_unchecked(Self::schema(), rows)
    }
}

/// Q17 (small-quantity-order revenue), denormalized and decorrelated by
/// the engine: average yearly revenue lost if small orders go unfilled.
pub const Q17: &str = "SELECT SUM(extendedprice) / 7.0 AS avg_yearly FROM lineitem_denorm l \
     WHERE quantity < 0.5 * (SELECT AVG(quantity) FROM lineitem_denorm t \
                             WHERE t.partkey = l.partkey)";

/// Q11 (important stock identification): part values above a fraction of
/// the total.
pub const Q11: &str = "SELECT partkey, SUM(extendedprice * quantity) AS value \
     FROM lineitem_denorm GROUP BY partkey \
     HAVING SUM(extendedprice * quantity) > \
            2.0 / 400.0 * (SELECT SUM(extendedprice * quantity) FROM lineitem_denorm) \
     ORDER BY value DESC";

/// Q18 (large-volume customers): statistics over lineitems of big orders.
pub const Q18: &str = "SELECT COUNT(*) AS big_items, AVG(extendedprice) AS avg_price \
     FROM lineitem_denorm WHERE orderkey IN \
     (SELECT orderkey FROM lineitem_denorm GROUP BY orderkey \
      HAVING SUM(quantity) > 300)";

/// Q20 (excess availability): per supplier, lineitems whose availability
/// exceeds a fraction of the part+supplier demand (two correlation keys).
/// The original query's "half a year's shipments" fraction is rescaled to
/// this data's 7-year span and group sizes (the paper's footnote 12
/// likewise adjusts overly selective constants).
pub const Q20: &str = "SELECT suppkey, COUNT(*) AS excess_items FROM lineitem_denorm l \
     WHERE availqty > 0.25 * (SELECT SUM(quantity) FROM lineitem_denorm t \
                              WHERE t.partkey = l.partkey AND t.suppkey = l.suppkey) \
     GROUP BY suppkey ORDER BY suppkey";

/// All adapted TPC-H queries as `(name, sql)`.
pub fn queries() -> Vec<(&'static str, &'static str)> {
    vec![("Q11", Q11), ("Q17", Q17), ("Q18", Q18), ("Q20", Q20)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_deterministic_and_sized() {
        let a = TpchGenerator::default().generate(1000);
        let b = TpchGenerator::default().generate(1000);
        assert_eq!(a.rows(), b.rows());
        assert!(a.num_rows() >= 1000);
        assert!(a.num_rows() < 1000 + 10);
    }

    #[test]
    fn orders_have_multiple_lineitems() {
        let t = TpchGenerator::default().generate(2000);
        let orders: std::collections::HashSet<i64> = t
            .column("orderkey")
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        let avg_size = t.num_rows() as f64 / orders.len() as f64;
        assert!(
            avg_size > 2.0 && avg_size < 8.0,
            "avg order size {avg_size}"
        );
    }

    #[test]
    fn quantities_in_range() {
        let t = TpchGenerator::default().generate(2000);
        for v in t.column("quantity").unwrap() {
            let q = v.as_f64().unwrap();
            assert!((1.0..=50.0).contains(&q));
        }
    }

    #[test]
    fn all_queries_compile_run_and_select_nontrivially() {
        let cat = TpchGenerator::default().catalog(4000);
        let total = 4000.0;
        for (name, sql) in queries() {
            let graph = gola_sql::compile(sql, &cat)
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
            let out = gola_engine::BatchEngine::new(&cat)
                .execute(&graph)
                .unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
            assert!(out.num_rows() > 0, "{name} returned no rows");
            // The nested predicates must be selective but not degenerate.
            if name == "Q17" {
                let v = out.rows()[0].get(0).as_f64().unwrap();
                assert!(v > 0.0, "Q17 selected nothing");
            }
            if name == "Q18" {
                let items = out.rows()[0].get(0).as_f64().unwrap();
                assert!(items > 0.0 && items < total, "Q18 selected {items}");
            }
        }
    }

    #[test]
    fn q11_keeps_a_strict_subset_of_parts() {
        let cat = TpchGenerator::default().catalog(4000);
        let out = gola_engine::BatchEngine::new(&cat)
            .execute(&gola_sql::compile(Q11, &cat).unwrap())
            .unwrap();
        assert!(out.num_rows() > 5);
        assert!(out.num_rows() < 400);
        // Sorted descending by value.
        let values: Vec<f64> = out
            .column("value")
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert!(values.windows(2).all(|w| w[0] >= w[1]));
    }
}
