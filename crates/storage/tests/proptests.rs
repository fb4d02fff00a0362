//! Property tests for the storage substrate: the mini-batch partitioner
//! must be an exact random partition (every tuple exactly once, sizes
//! near-uniform, deterministic under seed), CSV must round-trip
//! arbitrary tables, the CSV reader must survive corrupted input, and a
//! gather across chunk boundaries must equal a row-by-row rebuild.

use std::sync::Arc;

use gola_common::rng::SplitMix64;
use gola_common::{Bitmap, Column, ColumnBuilder, ColumnData, DataType, Row, Schema, Value};
use gola_storage::csv::{read_csv, write_csv};
use gola_storage::shuffle::permutation;
use gola_storage::{ColumnChunk, MiniBatch, Partitioner, Table};
use proptest::prelude::*;

fn batches(p: &Partitioner) -> Vec<MiniBatch> {
    (0..p.num_batches()).map(|i| p.batch(i)).collect()
}

/// Table of `n` rows whose `g` column cycles over `groups` distinct keys,
/// so stratum sizes differ by at most one.
fn grouped_table(n: usize, groups: usize) -> Arc<Table> {
    let schema = Arc::new(Schema::from_pairs(&[
        ("g", DataType::Int),
        ("x", DataType::Int),
    ]));
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::new(vec![Value::Int((i % groups) as i64), Value::Int(i as i64)]))
        .collect();
    Arc::new(Table::new_unchecked(schema, rows))
}

proptest! {
    #[test]
    fn multi_chunk_gather_equals_a_row_by_row_rebuild(
        seed in any::<u64>(),
        filled in 1usize..5,
        rows in 0usize..120,
    ) {
        let mut rng = SplitMix64::new(seed);
        let table = uneven_table(&mut rng, filled, rows);
        let n = table.num_rows();
        let repeats: Vec<usize> = if n == 0 {
            Vec::new()
        } else {
            (0..below(&mut rng, 2 * n + 1)).map(|_| below(&mut rng, n)).collect()
        };
        for indices in [repeats, Vec::new(), (0..n).collect()] {
            let got = table.gather(&indices);
            prop_assert_eq!(got.len(), indices.len());
            for (j, field) in table.schema().fields().iter().enumerate() {
                let mut want = ColumnBuilder::new(field.data_type, indices.len());
                for &i in &indices {
                    want.push(&table.value(i, j));
                }
                same_column(got.column(j), &want.finish())
                    .map_err(|e| TestCaseError::fail(format!("column {}: {e}", field.name)))?;
            }
        }
    }

    #[test]
    fn partitioner_is_exact_partition(
        n in 1usize..400,
        k in 1usize..50,
        seed in any::<u64>(),
    ) {
        let k = k.min(n);
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let rows: Vec<Row> = (0..n).map(|i| Row::new(vec![Value::Int(i as i64)])).collect();
        let table = Arc::new(Table::new_unchecked(schema, rows));
        let p = Partitioner::new(table, k, seed).unwrap();
        prop_assert_eq!(p.num_batches(), k);
        let mut ids: Vec<u64> = batches(&p).into_iter().flat_map(|b| b.tuple_ids).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        // Near-uniform sizes.
        let sizes: Vec<usize> = batches(&p).iter().map(MiniBatch::len).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1);
        // Monotone row accounting.
        for i in 0..k {
            prop_assert_eq!(
                p.rows_seen_through(i),
                sizes[..=i].iter().sum::<usize>()
            );
        }
        prop_assert_eq!(p.rows_seen_through(k - 1), n);
    }

    #[test]
    fn partitioner_deterministic(n in 2usize..200, seed in any::<u64>()) {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let rows: Vec<Row> = (0..n).map(|i| Row::new(vec![Value::Int(i as i64)])).collect();
        let table = Arc::new(Table::new_unchecked(schema, rows));
        let k = (n / 2).max(1);
        let a = Partitioner::new(Arc::clone(&table), k, seed).unwrap();
        let b = Partitioner::new(table, k, seed).unwrap();
        for i in 0..k {
            prop_assert_eq!(a.batch(i).tuple_ids, b.batch(i).tuple_ids);
        }
    }

    #[test]
    fn stratified_is_exact_partition(
        n in 1usize..400,
        k in 1usize..50,
        groups in 1usize..12,
        seed in any::<u64>(),
    ) {
        let k = k.min(n);
        let groups = groups.min(n);
        let table = grouped_table(n, groups);
        let p = Partitioner::stratified(table, "g", k, seed).unwrap();
        prop_assert_eq!(p.num_batches(), k);
        // Exactly the `groups` keys are strata.
        prop_assert!(p.stratum_rate(&Value::Int(groups as i64), 0).is_none());
        // Multiset match: every tuple appears exactly once across batches.
        let mut ids: Vec<u64> = batches(&p).into_iter().flat_map(|b| b.tuple_ids).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        // Every batch nonempty, monotone row accounting.
        let sizes: Vec<usize> = batches(&p).iter().map(MiniBatch::len).collect();
        prop_assert!(sizes.iter().all(|&s| s > 0));
        for i in 0..k {
            prop_assert_eq!(p.rows_seen_through(i), sizes[..=i].iter().sum::<usize>());
        }
        prop_assert_eq!(p.rows_seen_through(k - 1), n);
        // Per-stratum rates are consistent: counts sum to the batch bound
        // and never exceed the stratum population.
        for i in 0..k {
            let mut sum = 0;
            for g in 0..groups {
                let (n_h, cap_h) = p.stratum_rate(&Value::Int(g as i64), i).unwrap();
                prop_assert!(n_h <= cap_h);
                sum += n_h;
            }
            prop_assert_eq!(sum, p.rows_seen_through(i));
        }
    }

    #[test]
    fn stratified_deterministic_under_seed(
        n in 2usize..200,
        groups in 1usize..8,
        seed in any::<u64>(),
    ) {
        let groups = groups.min(n);
        let table = grouped_table(n, groups);
        let k = (n / 2).max(1);
        let a = Partitioner::stratified(Arc::clone(&table), "g", k, seed).unwrap();
        let b = Partitioner::stratified(table, "g", k, seed).unwrap();
        // Same seed ⇒ bit-identical schedule, batch by batch.
        for i in 0..k {
            prop_assert_eq!(a.batch(i).tuple_ids, b.batch(i).tuple_ids);
        }
    }

    #[test]
    fn stratified_every_stratum_in_first_batch(
        n in 8usize..400,
        k in 1usize..16,
        groups in 1usize..8,
        seed in any::<u64>(),
    ) {
        let k = k.min(n);
        // Feasibility: batch 0 can hold every stratum only when the other
        // k-1 batches can each keep at least one row.
        let groups = groups.min(n.saturating_sub(k - 1).max(1));
        let table = grouped_table(n, groups);
        let p = Partitioner::stratified(table, "g", k, seed).unwrap();
        let first = p.batch(0);
        let mut seen = vec![false; groups];
        for &t in &first.tuple_ids {
            seen[t as usize % groups] = true;
        }
        prop_assert!(
            seen.iter().all(|&s| s),
            "batch 0 missing a stratum: {:?}", seen
        );
    }

    #[test]
    fn permutation_property(n in 0usize..1000, seed in any::<u64>()) {
        let p = permutation(n, seed);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn csv_round_trips_arbitrary_tables(
        rows in prop::collection::vec(
            (
                any::<Option<i64>>(),
                prop::option::of("[ -~]{0,20}"), // printable ASCII incl. commas/quotes
                any::<Option<bool>>(),
                prop::option::of(-1e12f64..1e12),
            ),
            0..40,
        )
    ) {
        let schema = Arc::new(Schema::from_pairs(&[
            ("i", DataType::Int),
            ("s", DataType::Str),
            ("b", DataType::Bool),
            ("f", DataType::Float),
        ]));
        let table_rows: Vec<Row> = rows
            .iter()
            .map(|(i, s, b, f)| {
                Row::new(vec![
                    i.map(Value::Int).unwrap_or(Value::Null),
                    s.as_deref().map(Value::str).unwrap_or(Value::Null),
                    b.map(Value::Bool).unwrap_or(Value::Null),
                    f.map(Value::Float).unwrap_or(Value::Null),
                ])
            })
            .collect();
        let table = Table::try_new(schema.clone(), table_rows).unwrap();
        let mut buf = Vec::new();
        write_csv(&table, &mut buf).unwrap();
        let back = read_csv(schema, &buf[..]).unwrap();
        prop_assert_eq!(back.num_rows(), table.num_rows());
        for (a, b) in back.rows().iter().zip(table.rows()) {
            for (x, y) in a.iter().zip(b.iter()) {
                match (x, y) {
                    // Bit for bit: a float is written in its shortest
                    // round-trip form.
                    (Value::Float(fx), Value::Float(fy)) => {
                        prop_assert_eq!(fx.to_bits(), fy.to_bits());
                    }
                    _ => prop_assert_eq!(x, y),
                }
            }
        }
    }
}

/// Uniform draw from `0..n` (`n > 0`).
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    usize::try_from(rng.next_below(n as u64)).unwrap()
}

/// Byte offsets of the starts of `text`'s lines.
fn line_starts(text: &[u8]) -> Vec<usize> {
    let breaks = text.iter().enumerate().filter(|(_, &b)| b == b'\n');
    std::iter::once(0)
        .chain(breaks.map(|(i, _)| i + 1))
        .collect()
}

/// One random corruption of `text`: truncate at a byte, flip a byte,
/// delete or duplicate a line, drop or add a separator, or insert bytes
/// that are not UTF-8.
fn mutate(rng: &mut SplitMix64, text: &mut Vec<u8>) {
    let at = below(rng, text.len() + 1);
    match below(rng, 7) {
        0 => text.truncate(at),
        1 if at < text.len() => text[at] ^= 1 << below(rng, 8),
        2 | 3 => {
            let starts = line_starts(text);
            let line = below(rng, starts.len());
            let end = starts.get(line + 1).copied().unwrap_or(text.len());
            let span = starts[line]..end;
            if below(rng, 2) == 0 {
                text.drain(span);
            } else {
                let copy = text[span.clone()].to_vec();
                text.splice(span.start..span.start, copy);
            }
        }
        4 => {
            let commas: Vec<usize> = (0..text.len()).filter(|&i| text[i] == b',').collect();
            if !commas.is_empty() {
                text.remove(commas[below(rng, commas.len())]);
            }
        }
        5 => text.insert(at, b','),
        _ => {
            let bad: &[u8] =
                [&[0xff][..], &[0xc3], &[0xe2, 0x82], &[0xed, 0xa0, 0x80]][below(rng, 4)];
            text.splice(at..at, bad.iter().copied());
        }
    }
}

/// 2,000 seeded corruptions of a Conviva table's CSV (with NULLs): the
/// reader returns a table or a typed error for each, and never panics.
#[test]
fn corrupted_csv_reads_to_a_table_or_an_error() {
    let base = gola_workloads::ConvivaGenerator::default().generate(60);
    let mut rng = SplitMix64::new(11);
    let rows: Vec<Row> = base
        .rows()
        .into_iter()
        .map(|r| {
            let mut values = r.values().to_vec();
            for v in &mut values {
                if below(&mut rng, 6) == 0 {
                    *v = Value::Null;
                }
            }
            Row::new(values)
        })
        .collect();
    let table = Table::new_unchecked(Arc::clone(base.schema()), rows);
    let mut csv = Vec::new();
    write_csv(&table, &mut csv).unwrap();
    assert_eq!(
        read_csv(Arc::clone(table.schema()), &csv[..]).unwrap(),
        table
    );
    let (mut tables, mut errors) = (0, 0);
    for _ in 0..2000 {
        let mut mutant = csv.clone();
        for _ in 0..=below(&mut rng, 3) {
            mutate(&mut rng, &mut mutant);
        }
        match read_csv(Arc::clone(table.schema()), &mutant[..]) {
            Ok(_) => tables += 1,
            Err(_) => errors += 1,
        }
    }
    // Both outcomes occur: the mutants are neither all fatal nor all benign.
    assert!(
        tables > 100 && errors > 100,
        "{tables} tables, {errors} errors"
    );
}

/// A table of `filled` non-empty chunks of uneven length plus one empty
/// chunk, `rows` rows in all (at least one per filled chunk). Every column
/// carries NULLs. Each chunk's `s` dictionary is its own permutation of a
/// shared pool, with unused entries and arbitrary codes under NULL slots;
/// `m` is declared `Int` but turns `Mixed` in chunks that draw a `Float` or
/// a string into it.
fn uneven_table(rng: &mut SplitMix64, filled: usize, rows: usize) -> Table {
    const POOL: [&str; 6] = ["us", "eu", "", "asia", "us ", "ü"];
    let schema = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("b", DataType::Bool),
        ("s", DataType::Str),
        ("m", DataType::Int),
    ]);
    let rows = rows.max(filled);
    let mut cuts: Vec<usize> = (1..filled).map(|_| 1 + below(rng, rows - 1)).collect();
    cuts.extend([0, rows]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut lens: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
    lens.insert(below(rng, lens.len() + 1), 0);
    let mut chunks = Vec::new();
    for len in lens {
        let null = |rng: &mut SplitMix64| below(rng, 5) == 0;
        let floats = [0.5, -0.0, f64::NAN, f64::INFINITY, 1e300];
        let rows: Vec<Row> = (0..len)
            .map(|_| {
                let i = if null(rng) {
                    Value::Null
                } else {
                    Value::Int(below(rng, 9) as i64 - 4)
                };
                let f = if null(rng) {
                    Value::Null
                } else {
                    Value::Float(floats[below(rng, 5)])
                };
                let b = if null(rng) {
                    Value::Null
                } else {
                    Value::Bool(below(rng, 2) == 0)
                };
                let m = match below(rng, 8) {
                    0 => Value::Null,
                    1 => Value::Float(2.5),
                    2 => Value::str("m"),
                    _ => Value::Int(below(rng, 3) as i64),
                };
                Row::new(vec![i, f, b, Value::Null, m])
            })
            .collect();
        let typed = ColumnChunk::from_rows(&schema, &rows);
        // The `s` column, built by hand: a permuted pool as the dictionary.
        let mut dict: Vec<Arc<str>> = POOL.iter().map(|&s| Arc::from(s)).collect();
        for k in (1..dict.len()).rev() {
            dict.swap(k, below(rng, k + 1));
        }
        dict.truncate(2 + below(rng, dict.len() - 1));
        let mut validity = Bitmap::new_clear(len);
        let codes: Vec<u32> = (0..len)
            .map(|k| {
                validity.set(k, !null(rng));
                below(rng, dict.len()) as u32
            })
            .collect();
        let s = Column::new(
            ColumnData::Str {
                dict: Arc::new(dict),
                codes,
            },
            Some(validity),
        );
        let mut columns = typed.columns().to_vec();
        columns[3] = Arc::new(s);
        chunks.push(ColumnChunk::new(columns, len));
    }
    Table::from_chunks(Arc::new(schema), chunks).unwrap()
}

/// Representation-level equality of two columns: variant, payload bits
/// (floats by `to_bits`, mixed values with their types), dictionary order,
/// codes and validity. `Column` has no `PartialEq`, and `Value` equality
/// is cross-type, so neither would do.
fn same_column(got: &Column, want: &Column) -> Result<(), String> {
    let same = match (got.data(), want.data()) {
        (ColumnData::Int(a), ColumnData::Int(b)) => a == b,
        (ColumnData::Float(a), ColumnData::Float(b)) => a
            .iter()
            .map(|x| x.to_bits())
            .eq(b.iter().map(|x| x.to_bits())),
        (ColumnData::Bool(a), ColumnData::Bool(b)) => a == b,
        (
            ColumnData::Str {
                dict: da,
                codes: ca,
            },
            ColumnData::Str {
                dict: db,
                codes: cb,
            },
        ) => da == db && ca == cb,
        (ColumnData::Mixed(a), ColumnData::Mixed(b)) => {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    x.data_type() == y.data_type()
                        && match (x, y) {
                            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                            _ => x == y,
                        }
                })
        }
        _ => false,
    };
    if !same {
        return Err(format!("data {:?} != {:?}", got.data(), want.data()));
    }
    if got.validity() != want.validity() {
        return Err(format!(
            "validity {:?} != {:?}",
            got.validity(),
            want.validity()
        ));
    }
    Ok(())
}
