//! The benchmark's declarations: the six workloads with their parameters,
//! and the metric lists. `BENCHMARK.json` carries the same names; the
//! `declarations_match_benchmark_json` test holds the two together.

use gola_workloads::{conviva, tpch};

use crate::online::Query;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Conviva,
    Tpch,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One query, run in-process over a static table.
    Online,
    /// A server child process and closed-loop socket clients.
    Service,
    /// Durable ingest interleaved with a growing query, then a reopen.
    Ingest,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub data: Data,
    pub rows: usize,
    /// Mini-batches `k`.
    pub batches: usize,
    pub threads: usize,
    pub queries: Vec<Query>,
}

/// Bootstrap replicas `B`, the same on every workload.
pub const TRIALS: u32 = 100;
/// Closed-loop clients of `svc_mix_2c`.
pub const SVC_CLIENTS: usize = 2;
/// Segments sealed by `ingest_durable`; the query starts at the half.
pub const INGEST_SEGMENTS: usize = 100;
/// Parts in the TPC-H tables. The tables are the repo's default shape
/// (100k rows, 400 parts) at quarter scale, 250 rows per part either way:
/// publish work per batch scales with the parts and fold work with the
/// rows, so the stage shares stay put while a repetition takes 0.5 s
/// instead of 2–3 s and a 10 s run fits ~18 of them.
pub const TPCH_PARTS: u64 = 100;

const GEO_CONTRACT: &str =
    "SELECT geo, AVG(play_time) AS avg_play FROM sessions GROUP BY geo ERROR 5% CONFIDENCE 95%";

fn q(name: &'static str, sql: &str, ci_target: f64) -> Query {
    Query {
        name,
        sql: sql.to_string(),
        ci_target,
    }
}

/// The workload table. `quick` shrinks every table to 2k rows for the
/// smoke test; names, shapes and queries stay the same.
pub fn workloads(quick: bool) -> Vec<Workload> {
    let rows = |full: usize| if quick { 2_000 } else { full };
    vec![
        Workload {
            name: "c2_fold_t1",
            why: "Conviva C2, k=20, 1 thread: fold is ~90% of wall and publish ~5%, so replica-state work shows here and publish work must not",
            shape: Shape::Online,
            data: Data::Conviva,
            rows: rows(100_000),
            batches: 20,
            threads: 1,
            queries: vec![q("C2", conviva::C2, 0.12)],
        },
        Workload {
            name: "c2_fold_t2",
            why: "the same query on 2 worker threads: the parallel-scaling twin, checked bit-identical to the 1-thread stream",
            shape: Shape::Online,
            data: Data::Conviva,
            rows: rows(100_000),
            batches: 20,
            threads: 2,
            queries: vec![q("C2", conviva::C2, 0.12)],
        },
        Workload {
            name: "q17_publish_t1",
            why: "TPC-H Q17, k=100 small batches: publish is ~75% of wall and fold ~15%, so per-batch publish cost and refresh spikes show here only",
            shape: Shape::Online,
            data: Data::Tpch,
            rows: rows(25_000),
            batches: 100,
            threads: 1,
            queries: vec![q("Q17", tpch::Q17, 0.02)],
        },
        Workload {
            name: "q20_recover_t1",
            why: "TPC-H Q20, k=20: envelope violations and replay make recover ~65% of wall, so a shortcut that breaks or slows recomputation shows",
            shape: Shape::Online,
            data: Data::Tpch,
            rows: rows(25_000),
            batches: 20,
            threads: 1,
            queries: vec![q("Q20", tpch::Q20, 0.12)],
        },
        Workload {
            name: "svc_mix_2c",
            why: "server child process, 2 closed-loop socket clients cycling SBI, C1, C2, C3 and an ERROR 5% contract query: the only path through HTTP, JSON, admission and quanta",
            shape: Shape::Service,
            data: Data::Conviva,
            rows: rows(20_000),
            batches: 20,
            threads: 1,
            queries: vec![
                q("SBI", conviva::SBI, 0.02),
                q("C1", conviva::C1, 0.25),
                q("C2", conviva::C2, 0.30),
                q("C3", conviva::C3, 0.06),
                q("GEO5", GEO_CONTRACT, 0.05),
            ],
        },
        Workload {
            name: "ingest_durable",
            why: "100 durable segment seals interleaved with a growing SBI query, then open_dir and an exact rerun: writes beside reads on storage",
            shape: Shape::Ingest,
            data: Data::Conviva,
            rows: rows(200_000),
            batches: 20,
            threads: 1,
            queries: vec![q("SBI", conviva::SBI, 0.005)],
        },
    ]
}

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ttfe_ms", "ms"),
    ("tt_ci_ms", "ms"),
    ("tt_exact_ms", "ms"),
    ("refresh_p95_ms", "ms"),
    ("exact_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.compile_us", "us"),
    ("plan.prepare_us", "us"),
    ("core.session.start_us", "us"),
    ("storage.partition.new_ms", "ms"),
    ("storage.partition.batch_us", "us"),
    ("storage.partition.strat_batch_us", "us"),
    ("core.executor.next_ms", "ms"),
    ("core.executor.join_share", "%"),
    ("core.executor.classify_share", "%"),
    ("core.executor.fold_share", "%"),
    ("core.executor.publish_share", "%"),
    ("core.executor.recover_share", "%"),
    ("core.executor.other_share", "%"),
    ("core.executor.tuples_per_s", "1/s"),
    ("core.pool.busy_over_wall", "x"),
    ("agg.replicated.update_ns", "ns"),
    ("bootstrap.ci_us", "us"),
    ("engine.execute_ms", "ms"),
    ("core.sched.queue_wait_ms", "ms"),
    ("core.sched.quanta", "count"),
    ("server.http.parse_us", "us"),
    ("server.json.report_us", "us"),
    ("server.json.bytes_per_report", "B"),
    ("storage.stream.append_us_per_krow", "us"),
    ("storage.stream.seal_ms", "ms"),
    ("storage.segment.write_mb_s", "MB/s"),
    ("storage.segment.read_mb_s", "MB/s"),
    ("storage.stream.open_dir_ms", "ms"),
    ("storage.growing.refresh_us", "us"),
    ("overhead_x_b0", "x"),
    ("overhead_x_b10", "x"),
    ("overhead_x_b100", "x"),
    ("trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use gola_obs::json::{self, Value};

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json: no {key}");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (
                    field("name"),
                    if key == "workloads" {
                        field("why")
                    } else {
                        field("unit")
                    },
                )
            })
            .collect()
    }

    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(PER_LAYER));
        let declared: Vec<(String, String)> = workloads(false)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(names(&doc, "workloads"), declared);
        for (name, why) in &declared {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        assert_eq!(workloads(true).len(), declared.len());
    }
}
