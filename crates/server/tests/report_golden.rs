//! Report-stream golden: every report of the Conviva and TPC-H suites over
//! small seeded tables, plus MyTube runs with dimension joins and static
//! producers, pinned by digest to `report_golden.txt`.
//!
//! Each line is one report: the run's name, its batch index and the 64-bit
//! FNV-1a digest of its [`json::report_json`] line (the NDJSON frame the
//! server sends). The runs use one thread; two threads must give the same
//! lines. A refactor that must not move a report bit leaves this file
//! byte-identical. On a mismatch the test prints the first differing
//! report in full and then the whole new text, so a deliberate change can
//! be reviewed against the checked-in file and copied over it by hand.

use std::sync::Arc;

use gola_bootstrap::EpsilonPolicy;
use gola_common::{DataType, Row, Schema, Value};
use gola_core::{OnlineConfig, OnlineSession};
use gola_server::json;
use gola_storage::{Catalog, Table};
use gola_workloads::{conviva, tpch, ConvivaGenerator, MyTubeGenerator, TpchGenerator};

const GOLDEN: &str = include_str!("report_golden.txt");

const BATCHES: usize = 6;

/// A grouped semi-join with mergeable aggregates, so the root folds one
/// partial aggregate per (membership key, group) slot; and its negation.
const SEMI_IN: &str = "SELECT suppkey, COUNT(*) AS n, AVG(extendedprice) AS p \
     FROM lineitem_denorm WHERE orderkey IN \
     (SELECT orderkey FROM lineitem_denorm GROUP BY orderkey HAVING SUM(quantity) > 300) \
     GROUP BY suppkey ORDER BY suppkey";
const SEMI_NOT_IN: &str = "SELECT suppkey, COUNT(*) AS n, AVG(extendedprice) AS p \
     FROM lineitem_denorm WHERE orderkey NOT IN \
     (SELECT orderkey FROM lineitem_denorm GROUP BY orderkey HAVING SUM(quantity) > 300) \
     GROUP BY suppkey ORDER BY suppkey";

/// MyTube runs over `mytube_sessions` (streamed), `ads` and [`ad_tiers`]
/// (static): (a) a streaming block with two dimension joins and a
/// streaming scalar, (b) an uncorrelated static scalar whose filter reads
/// another static scalar, (c) a correlated static scalar whose block joins
/// `ads` to `ad_tiers` and filters the joined rows, and (d) a grouped
/// semi-join and its `NOT IN` twin against a static membership producer.
const MYTUBE: [(&str, &str); 5] = [
    (
        "MT_DIMS",
        "SELECT a.category, COUNT(*) AS n, SUM(t.tier * s.play_time) AS w, \
         AVG(s.play_time) AS p FROM mytube_sessions s JOIN ads a ON s.ad_id = a.ad_id \
         JOIN ad_tiers t ON a.category = t.category \
         WHERE s.buffer_time > (SELECT AVG(buffer_time) FROM mytube_sessions) \
         GROUP BY a.category ORDER BY a.category",
    ),
    (
        "MT_STATIC_SCALAR",
        "SELECT hour_of_day, COUNT(*) AS n, AVG(play_time) AS p FROM mytube_sessions \
         WHERE buffer_time > \
         (SELECT AVG(cpm) FROM ads WHERE cpm < (SELECT MAX(cpm) FROM ads)) \
         GROUP BY hour_of_day ORDER BY hour_of_day",
    ),
    (
        "MT_STATIC_CORR",
        "SELECT experiment, COUNT(*) AS n, AVG(play_time) AS p FROM mytube_sessions s \
         WHERE s.buffer_time < (SELECT AVG(a.cpm * t.tier) FROM ads a \
         JOIN ad_tiers t ON a.category = t.category WHERE a.ad_id = s.ad_id AND t.tier < 3) \
         GROUP BY experiment ORDER BY experiment",
    ),
    (
        "MT_SEMI_IN",
        "SELECT experiment, COUNT(*) AS n, SUM(play_time) AS p FROM mytube_sessions \
         WHERE ad_id IN (SELECT ad_id FROM ads GROUP BY ad_id HAVING MAX(cpm) > 4.0) \
         GROUP BY experiment ORDER BY experiment",
    ),
    (
        "MT_SEMI_NOT_IN",
        "SELECT experiment, COUNT(*) AS n, SUM(play_time) AS p FROM mytube_sessions \
         WHERE ad_id NOT IN (SELECT ad_id FROM ads GROUP BY ad_id HAVING MAX(cpm) > 4.0) \
         GROUP BY experiment ORDER BY experiment",
    ),
];

/// A static dimension over `ads.category`: one category matches twice
/// (its sessions join both rows, in table order), and a NULL key matches
/// nothing.
fn ad_tiers() -> Table {
    let schema = Arc::new(Schema::from_pairs(&[
        ("category", DataType::Str),
        ("tier", DataType::Int),
    ]));
    let tiers = [
        (Value::str("retail"), 1),
        (Value::str("auto"), 2),
        (Value::str("games"), 1),
        (Value::str("travel"), 3),
        (Value::Null, 4),
        (Value::str("finance"), 2),
        (Value::str("games"), 3),
    ];
    let rows = tiers
        .into_iter()
        .map(|(c, t)| Row::new(vec![c, Value::Int(t)]));
    Table::try_new(schema, rows.collect()).unwrap()
}

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let sessions = ConvivaGenerator::default().generate(4000);
    catalog.register("sessions", Arc::new(sessions)).unwrap();
    let generator = TpchGenerator {
        num_parts: 60,
        ..Default::default()
    };
    let lineitem = generator.generate(6000);
    catalog
        .register("lineitem_denorm", Arc::new(lineitem))
        .unwrap();
    let mytube = MyTubeGenerator::default().catalog(4000);
    for name in mytube.names() {
        catalog
            .register(name.as_str(), mytube.get(&name).unwrap())
            .unwrap();
    }
    catalog.register("ad_tiers", Arc::new(ad_tiers())).unwrap();
    catalog
}

/// Every run: its name, its SQL and whether it uses the tight slack
/// `ε = 0.5σ` (the default is 3σ), which makes it recover.
fn runs() -> Vec<(String, &'static str, bool)> {
    let suites = conviva::queries().into_iter().chain(tpch::queries());
    let mut runs: Vec<_> = suites
        .map(|(name, sql)| (name.to_string(), sql, false))
        .collect();
    runs.push(("C3@0.5sd".into(), conviva::C3, true));
    runs.push(("Q20@0.5sd".into(), tpch::Q20, true));
    runs.push(("SEMI_IN".into(), SEMI_IN, false));
    runs.push(("SEMI_NOT_IN".into(), SEMI_NOT_IN, false));
    runs.extend(MYTUBE.map(|(name, sql)| (name.to_string(), sql, false)));
    runs
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every report of every run at `threads`, as `(golden line, JSON line)`,
/// and the recomputations each tight run ended with.
fn reports(catalog: &Catalog, threads: usize) -> (Vec<(String, String)>, Vec<usize>) {
    let mut lines = Vec::new();
    let mut recomputations = Vec::new();
    for (name, sql, tight) in runs() {
        let mut config = OnlineConfig::for_tests(BATCHES)
            .with_trials(16)
            .with_threads(threads);
        if tight {
            config = config.with_epsilon(EpsilonPolicy::StdDevScaled(0.5));
        }
        let session = OnlineSession::new(catalog.clone(), config);
        let stream = session.execute_online(sql).expect("query compiles");
        let (mut last, mut rows) = (0, 0);
        for report in stream {
            let report = report.expect("batch succeeds");
            let line = json::report_json(&report);
            let digest = fnv1a(line.as_bytes());
            lines.push((format!("{name} {} {digest:016x}", report.batch_index), line));
            (last, rows) = (report.recomputations, report.table.num_rows());
        }
        assert!(rows > 0, "{name}: the exact answer has no rows");
        if tight {
            recomputations.push(last);
        }
    }
    (lines, recomputations)
}

#[test]
fn every_report_matches_its_golden_digest() {
    let catalog = catalog();
    let (lines, recomputations) = reports(&catalog, 1);
    assert!(
        recomputations.iter().all(|&n| n > 0),
        "a tight run did not recover: {recomputations:?}"
    );
    let text: String = lines.iter().map(|(l, _)| format!("{l}\n")).collect();
    if text != GOLDEN {
        let golden: Vec<&str> = GOLDEN.lines().collect();
        let first = lines
            .iter()
            .enumerate()
            .find(|(i, (l, _))| golden.get(*i) != Some(&l.as_str()));
        if let Some((i, (line, report))) = first {
            eprintln!(
                "first differing report (line {}): {line}, golden {:?}\n{report}",
                i + 1,
                golden.get(i)
            );
        }
        panic!("report golden mismatch; the new text is:\n{text}<<< end of new text");
    }
    let (two, _) = reports(&catalog, 2);
    for ((a, report), (b, _)) in lines.iter().zip(&two) {
        assert_eq!(a, b, "threads 2 differs:\n{report}");
    }
    assert_eq!(lines.len(), two.len());
}
