//! Criterion microbenchmarks for the engine's hot paths: expression
//! evaluation, three-valued classification, weighted/replicated aggregate
//! updates, bootstrap weight derivation, mini-batch partitioning and
//! hash-join probing.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use gola_agg::{AggKind, FoldScratch, ReplicatedStates};
use gola_bootstrap::BootstrapSpec;
use gola_common::rng::poisson_weight;
use gola_common::{row, DataType, Schema, Value};
use gola_expr::eval::{eval, eval_predicate, eval_tri};
use gola_expr::{BinOp, Expr, NoResolver, Resolver, RowContext, SubqueryId};
use gola_storage::{Partitioner, Table};

fn bench_expr_eval(c: &mut Criterion) {
    let r = row![42i64, 3.5f64, 17.0f64];
    let e = Expr::binary(
        BinOp::Add,
        Expr::binary(BinOp::Mul, Expr::col(1), Expr::lit(2.0)),
        Expr::binary(BinOp::Div, Expr::col(2), Expr::col(0)),
    );
    let mut g = c.benchmark_group("expr");
    g.throughput(Throughput::Elements(1));
    g.bench_function("eval_arithmetic", |b| {
        b.iter(|| {
            let ctx = RowContext::new(black_box(r.values()), &NoResolver);
            eval(black_box(&e), &ctx).unwrap()
        })
    });
    let pred = Expr::and(
        Expr::gt(Expr::col(1), Expr::lit(2.0)),
        Expr::lt(Expr::col(2), Expr::lit(100.0)),
    );
    g.bench_function("eval_predicate", |b| {
        b.iter(|| {
            let ctx = RowContext::new(black_box(r.values()), &NoResolver);
            eval_predicate(black_box(&pred), &ctx).unwrap()
        })
    });
    g.finish();
}

struct RangeCtx {
    row: gola_common::Row,
    range: gola_expr::RangeVal,
}

impl gola_expr::EvalContext for RangeCtx {
    fn column(&self, idx: usize) -> &Value {
        self.row.get(idx)
    }
    fn resolver(&self) -> &dyn Resolver {
        self
    }
}

impl Resolver for RangeCtx {
    fn scalar(&self, _: SubqueryId, _: &[Value]) -> gola_common::Result<Value> {
        Ok(Value::Float(37.0))
    }
    fn scalar_range(&self, _: SubqueryId, _: &[Value]) -> gola_common::Result<gola_expr::RangeVal> {
        Ok(self.range.clone())
    }
    fn member(&self, _: SubqueryId, _: &[Value]) -> gola_common::Result<bool> {
        Ok(false)
    }
    fn member_tri(&self, _: SubqueryId, _: &[Value]) -> gola_common::Result<gola_expr::Tri> {
        Ok(gola_expr::Tri::Maybe)
    }
}

fn bench_classification(c: &mut Criterion) {
    // The inner loop of uncertain/deterministic partitioning: classify a
    // tuple against a variation range (paper §3.2).
    let ctx = RangeCtx {
        row: row![35.0f64],
        range: gola_expr::RangeVal::num(28.9, 45.1),
    };
    let pred = Expr::gt(
        Expr::col(0),
        Expr::binary(
            BinOp::Mul,
            Expr::lit(1.1),
            Expr::ScalarRef {
                id: SubqueryId(0),
                key: vec![],
            },
        ),
    );
    let mut g = c.benchmark_group("classify");
    g.throughput(Throughput::Elements(1));
    g.bench_function("eval_tri_uncertain", |b| {
        b.iter(|| eval_tri(black_box(&pred), black_box(&ctx)).unwrap())
    });
    g.finish();
}

fn bench_agg_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("agg");
    let spec = BootstrapSpec::new(100, 42);
    let kinds = [AggKind::Sum, AggKind::Avg];
    let values = [Value::Float(12.5), Value::Float(12.5)];

    g.throughput(Throughput::Elements(1));
    g.bench_function("replicated_update_100_trials", |b| {
        let mut rs = ReplicatedStates::new(&kinds, 100);
        let mut t = 0u64;
        b.iter(|| {
            rs.update(black_box(&values), t, &spec);
            t = t.wrapping_add(1);
        })
    });
    g.bench_function("replicated_update_0_trials", |b| {
        let mut rs = ReplicatedStates::new(&kinds, 0);
        let mut t = 0u64;
        b.iter(|| {
            rs.update(black_box(&values), t, &BootstrapSpec::new(0, 42));
            t = t.wrapping_add(1);
        })
    });
    // The executor's fold: (SUM, AVG) tuples as one group's runs, weights
    // generated up front as the step does. One iteration folds one run;
    // the elements/s column compares with `replicated_update_100_trials`.
    let ids: Vec<u64> = (0..1024).collect();
    let mut matrix = Vec::new();
    spec.weights_batch(&ids, &mut matrix);
    let rows: Vec<&[u32]> = matrix.chunks(100).collect();
    let xs: Vec<Value> = (ids.iter())
        .map(|&t| Value::Float(12.5 + t as f64 * 0.37))
        .collect();
    for len in [1usize, 8, 1024] {
        g.throughput(Throughput::Elements(len as u64));
        g.bench_function(&format!("fold_run_100_trials/{len}"), |b| {
            let mut rs = ReplicatedStates::new(&kinds, 100);
            let mut scratch = FoldScratch::default();
            let mut start = 0;
            b.iter(|| {
                let (xs, rows) = (&xs[start..start + len], &rows[start..start + len]);
                for j in 0..kinds.len() {
                    rs.fold_run(j, black_box(xs), black_box(rows), true, &mut scratch);
                }
                start = (start + len) % (1024 - len + 1);
            })
        });
    }
    g.finish();
}

/// One `effective_states` call over a fixed uncertain set at B = 100 —
/// what every step's publish/report pays for the tuples classification
/// left open; the elements/s column is per uncertain tuple. Q17 sweeps
/// ~2.3k tuples over ~400 correlation keys; C2 has one RHS of two scalar
/// references and, at this size, never more than ~300 uncertain tuples
/// (its set after the last batch).
fn bench_uncertain_reeval(c: &mut Criterion) {
    use gola_core::{OnlineConfig, OnlineSession};
    use gola_workloads::{conviva, tpch, ConvivaGenerator, TpchGenerator};

    let mut g = c.benchmark_group("core");
    let cases = [
        (
            "q17",
            tpch::Q17,
            "lineitem_denorm",
            TpchGenerator::default().generate(60_000),
        ),
        (
            "c2",
            conviva::C2,
            "sessions",
            ConvivaGenerator::default().generate(60_000),
        ),
    ];
    for (name, sql, table, data) in cases {
        let mut catalog = gola_storage::Catalog::new();
        catalog.register(table, Arc::new(data)).unwrap();
        let config = OnlineConfig::default().with_batches(20).with_trials(100);
        let session = OnlineSession::new(catalog, config.with_threads(1));
        let mut run = session.execute_online(sql).unwrap();
        // Stop at the first batch that leaves 2k tuples uncertain, or at
        // the end of the data.
        let big =
            |run: &gola_core::OnlineExecution| run.executor().reevaluate_root().unwrap().0 >= 2000;
        while !big(&run) && run.next().is_some() {}
        let (tuples, _) = run.executor().reevaluate_root().unwrap();
        g.throughput(Throughput::Elements(tuples as u64));
        g.bench_function(&format!("uncertain_reeval/{name}"), |b| {
            b.iter(|| black_box(run.executor().reevaluate_root().unwrap()))
        });
    }
    g.finish();
}

fn bench_bootstrap_weights(c: &mut Criterion) {
    let mut g = c.benchmark_group("bootstrap");
    g.throughput(Throughput::Elements(1));
    g.bench_function("poisson_weight", |b| {
        let mut t = 0u64;
        b.iter(|| {
            let w = poisson_weight(black_box(t), 7, 42);
            t = t.wrapping_add(1);
            w
        })
    });
    g.finish();
}

fn make_table(n: usize) -> Arc<Table> {
    let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
    Arc::new(Table::new_unchecked(
        schema,
        (0..n).map(|i| row![i as i64]).collect(),
    ))
}

fn bench_partitioner(c: &mut Criterion) {
    let table = make_table(100_000);
    let mut g = c.benchmark_group("partition");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("partition_100k_rows_100_batches", |b| {
        b.iter(|| Partitioner::new(Arc::clone(&table), 100, 7).unwrap())
    });
    let p = Partitioner::new(Arc::clone(&table), 100, 7).unwrap();
    g.throughput(Throughput::Elements(1000));
    g.bench_function("materialize_one_batch", |b| {
        b.iter(|| p.batch(black_box(50)))
    });
    g.finish();
}

fn bench_hash_probe(c: &mut Criterion) {
    // Group lookup by Vec<Value> key — the hash-aggregate hot path.
    let mut map: gola_common::FxHashMap<Vec<Value>, u64> = gola_common::FxHashMap::default();
    for i in 0..10_000i64 {
        map.insert(vec![Value::Int(i)], i as u64);
    }
    let mut g = c.benchmark_group("hash");
    g.throughput(Throughput::Elements(1));
    g.bench_function("group_key_probe", |b| {
        let mut i = 0i64;
        b.iter(|| {
            let key = vec![Value::Int(black_box(i % 10_000))];
            i = i.wrapping_add(1);
            *map.get(&key).unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_expr_eval,
    bench_classification,
    bench_agg_updates,
    bench_uncertain_reeval,
    bench_bootstrap_weights,
    bench_partitioner,
    bench_hash_probe
);
criterion_main!(benches);
