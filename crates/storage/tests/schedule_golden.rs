//! Golden schedules: every batch's tuple ids, `rows_seen_through`, the
//! bits of `multiplicity_after`, finality and — for stratified schedules —
//! every `stratum_rate(key, i)`, pinned as a digest of a text rendering
//! recorded before the three partitioners became one. A refactor of the
//! batch source must leave every digest unchanged; on a mismatch the test
//! prints the rendering so the two sides can be diffed.

use std::fmt::Write;
use std::sync::Arc;

use gola_common::{DataType, Row, Schema, Value};
use gola_storage::{Partitioner, StreamTable, Table};

// The only lines that name a constructor: everything below reads the
// accessor surface every partitioner shares.
fn uniform(t: Arc<Table>, k: usize, seed: u64) -> Partitioner {
    Partitioner::new(t, k, seed).unwrap()
}

fn stratified(t: Arc<Table>, column: &str, k: usize, seed: u64) -> Partitioner {
    Partitioner::stratified(t, column, k, seed).unwrap()
}

fn growing(s: Arc<StreamTable>, k: usize, seed: u64) -> Partitioner {
    Partitioner::growing(s, k, seed).unwrap()
}

fn int_rows(lo: i64, n: i64) -> Vec<Row> {
    (lo..lo + n)
        .map(|i| Row::new(vec![Value::Int(i)]))
        .collect()
}

fn int_table(n: i64) -> Arc<Table> {
    let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
    Arc::new(Table::new_unchecked(schema, int_rows(0, n)))
}

/// Every observable of the schedule as text; `strata` are the keys whose
/// per-stratum rates are rendered at every batch.
fn render(p: &Partitioner, strata: &[Value]) -> String {
    let mut out = String::new();
    let (total, fin, col) = (p.total_rows(), p.finalized(), p.stratify_column());
    writeln!(
        out,
        "batches={} total={total} finalized={fin} column={col:?}",
        p.num_batches()
    )
    .unwrap();
    for i in 0..p.num_batches() {
        let b = p.batch(i);
        writeln!(
            out,
            "{i}: index={} seen={} m={:#018x} last={} ids={:?}",
            b.index,
            p.rows_seen_through(i),
            p.multiplicity_after(i).to_bits(),
            p.is_final_batch(i),
            b.tuple_ids,
        )
        .unwrap();
        assert_eq!(b.len(), b.tuple_ids.len());
        for key in strata {
            writeln!(out, "  {key:?} {:?}", p.stratum_rate(key, i)).unwrap();
        }
    }
    out
}

/// FNV-1a, 64-bit.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn check(name: &str, rendering: &str, pinned: u64) {
    let got = digest(rendering);
    assert_eq!(
        got, pinned,
        "{name}: schedule digest {got:#018x} != pinned {pinned:#018x}; rendering:\n{rendering}"
    );
}

#[test]
fn uniform_with_ragged_batches() {
    // 103 % 10 = 3: the first three batches carry one extra row.
    let p = uniform(int_table(103), 10, 5);
    check(
        "uniform 103/10",
        &render(&p, &[Value::Int(0)]),
        0x30c4_6f9c_7988_6425,
    );
}

#[test]
fn uniform_with_one_row_per_batch() {
    let p = uniform(int_table(17), 17, 3);
    check("uniform 17/17", &render(&p, &[]), 0xf97c_ace5_2d67_3385);
}

#[test]
fn stratified_with_a_rare_stratum() {
    // 240 rows over three strata: 0 (common), 1 (every third row) and 2
    // (rare: every 60th row, 4 rows). The default floor max(1, 240/8²) = 3
    // oversamples the rare stratum and exhausts it by batch 1.
    let schema = Arc::new(Schema::from_pairs(&[
        ("g", DataType::Int),
        ("x", DataType::Int),
    ]));
    let rows = (0..240i64)
        .map(|i| {
            let g = if i % 60 == 0 {
                2
            } else {
                i64::from(i % 3 == 1)
            };
            Row::new(vec![Value::Int(g), Value::Int(i)])
        })
        .collect();
    let t = Arc::new(Table::new_unchecked(schema, rows));
    let p = stratified(t, "g", 8, 9);
    let keys = [0, 1, 2, 7].map(Value::Int);
    check(
        "stratified 240/8",
        &render(&p, &keys),
        0x7d30_b753_36fb_5cb2,
    );
}

#[test]
fn growing_with_two_late_segments_then_close() {
    let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
    let s = StreamTable::new(schema);
    s.append_rows(&int_rows(0, 40)).unwrap();
    s.seal().unwrap();
    let p = growing(Arc::clone(&s), 4, 7);
    let mut log = render(&p, &[]);

    s.append_rows(&int_rows(40, 10)).unwrap();
    s.seal().unwrap();
    assert!(p.refresh());
    log += &render(&p, &[]);

    // Buffered rows are population (moving N) before they are a batch.
    s.append_rows(&int_rows(50, 6)).unwrap();
    log += &render(&p, &[]);
    s.seal().unwrap();
    assert!(p.refresh());
    log += &render(&p, &[]);

    s.close().unwrap();
    assert!(!p.refresh(), "close adds no rows");
    log += &render(&p, &[]);
    check("growing 40+10+6", &log, 0x31ab_92c9_fe79_20b8);
}
