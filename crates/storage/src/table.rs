//! The in-memory columnar [`Table`].
//!
//! Tables store tuples as a sequence of [`ColumnChunk`]s of up to
//! [`TABLE_CHUNK_ROWS`] rows each: one typed column vector per attribute
//! (i64 / f64 / bool / dictionary-encoded strings) with a validity bitmap
//! where NULLs occur. The online and the exact executor read the chunks
//! directly — the online executor's dimension joins and static producers
//! run on the exact engine's operators — and the row-oriented API (`rows`,
//! `row`) is a materializing view for tests, display and CSV export.

use std::fmt;
use std::sync::Arc;

use gola_common::hash::FxHashMap;
use gola_common::{
    Bitmap, Column, ColumnBuilder, ColumnData, DataType, Error, Result, Row, Schema, Value,
};

use crate::chunk::ColumnChunk;

/// Rows per storage chunk. Large enough to amortize per-chunk dictionaries,
/// small enough that a gather touches cache-resident column slices.
pub const TABLE_CHUNK_ROWS: usize = 65_536;

/// An immutable, schema-tagged collection of tuples stored column-major.
/// Tables are shared via `Arc` between the catalog, partitioner and
/// executors; chunks share their columns via `Arc` too, so cloning a table
/// copies no data.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    chunks: Vec<ColumnChunk>,
    /// Start row of each chunk. Row-built tables are *regular* (every chunk
    /// but the last holds exactly [`TABLE_CHUNK_ROWS`] rows) and resolve
    /// indices by division; [`Table::from_chunks`] may produce arbitrary
    /// chunk lengths, which resolve through this prefix instead.
    offsets: Vec<usize>,
    regular: bool,
    len: usize,
}

fn chunk_offsets(chunks: &[ColumnChunk]) -> (Vec<usize>, bool) {
    let mut offsets = Vec::with_capacity(chunks.len());
    let mut acc = 0usize;
    let mut regular = true;
    for (idx, c) in chunks.iter().enumerate() {
        offsets.push(acc);
        if idx + 1 < chunks.len() && c.len() != TABLE_CHUNK_ROWS {
            regular = false;
        }
        acc += c.len();
    }
    (offsets, regular)
}

impl Table {
    /// Build a table, validating row arity and (non-null) value types
    /// against the schema.
    pub fn try_new(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Table> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(Error::catalog(format!(
                    "row {i} has {} values, schema has {} columns",
                    row.len(),
                    schema.len()
                )));
            }
            for (j, v) in row.iter().enumerate() {
                let expected = schema.field(j).data_type;
                if !v.is_null() && v.data_type() != expected {
                    return Err(Error::catalog(format!(
                        "row {i} column '{}': expected {expected}, got {}",
                        schema.field(j).name,
                        v.data_type()
                    )));
                }
            }
        }
        Ok(Table::new_unchecked(schema, rows))
    }

    /// Build a table without validation (generators construct well-typed
    /// rows by design; validation there would just re-scan gigabytes).
    pub fn new_unchecked(schema: Arc<Schema>, rows: Vec<Row>) -> Table {
        let len = rows.len();
        let chunks: Vec<ColumnChunk> = rows
            .chunks(TABLE_CHUNK_ROWS)
            .map(|slice| ColumnChunk::from_rows(&schema, slice))
            .collect();
        let (offsets, regular) = chunk_offsets(&chunks);
        Table {
            schema,
            chunks,
            offsets,
            regular,
            len,
        }
    }

    /// Assemble a table directly from columnar chunks (shuffle, columnar
    /// loaders, stream snapshots). Every chunk must be as wide as the
    /// schema and internally consistent: a chunk whose columns disagree on
    /// length would otherwise surface much later as an out-of-bounds gather
    /// panic, far from the loader that produced it.
    pub fn from_chunks(schema: Arc<Schema>, chunks: Vec<ColumnChunk>) -> Result<Table> {
        for (idx, c) in chunks.iter().enumerate() {
            if c.num_columns() != schema.len() {
                return Err(Error::catalog(format!(
                    "chunk {idx} has {} columns, schema has {}",
                    c.num_columns(),
                    schema.len()
                )));
            }
            for j in 0..c.num_columns() {
                let col_len = c.column(j).len();
                if col_len != c.len() {
                    return Err(Error::catalog(format!(
                        "chunk {idx} column '{}' has {col_len} rows, chunk declares {}",
                        schema.field(j).name,
                        c.len()
                    )));
                }
            }
        }
        let len = chunks.iter().map(|c| c.len()).sum();
        let (offsets, regular) = chunk_offsets(&chunks);
        Ok(Table {
            schema,
            chunks,
            offsets,
            regular,
            len,
        })
    }

    /// Empty table with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Table {
        Table {
            schema,
            chunks: Vec::new(),
            offsets: Vec::new(),
            regular: true,
            len: 0,
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The columnar chunks backing this table.
    pub fn chunks(&self) -> &[ColumnChunk] {
        &self.chunks
    }

    /// Materialize every tuple as a [`Row`] (a view for tests, display and
    /// row-based callers; the executors read chunks).
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend((0..c.len()).map(|i| c.row(i)));
        }
        out
    }

    pub fn num_rows(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Locate global row index `i` as `(chunk, offset)`.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        if self.regular {
            // Every chunk but the last holds exactly TABLE_CHUNK_ROWS rows.
            return (i / TABLE_CHUNK_ROWS, i % TABLE_CHUNK_ROWS);
        }
        let c = self.offsets.partition_point(|&o| o <= i) - 1;
        (c, i - self.offsets[c])
    }

    /// Value at global row `i`, column `j`.
    pub fn value(&self, i: usize, j: usize) -> Value {
        let (c, o) = self.locate(i);
        self.chunks[c].column(j).value(o)
    }

    /// Materialize the tuple at global row `i`.
    pub fn row(&self, i: usize) -> Row {
        let (c, o) = self.locate(i);
        self.chunks[c].row(o)
    }

    /// Gather tuples by global row index into a single [`ColumnChunk`]
    /// (the partitioner's mini-batch materialization).
    ///
    /// Across chunk boundaries every index is resolved to its `(chunk,
    /// offset)` once, and each column then copies from its chunks' typed
    /// slices (see `gather_column`).
    pub fn gather(&self, indices: &[usize]) -> ColumnChunk {
        if self.chunks.len() == 1 {
            return self.chunks[0].gather(indices);
        }
        let locs: Vec<(usize, usize)> = indices.iter().map(|&i| self.locate(i)).collect();
        let columns = (0..self.schema.len())
            .map(|j| Arc::new(self.gather_column(j, &locs)))
            .collect();
        ColumnChunk::new(columns, indices.len())
    }

    /// Gather one column across chunk boundaries, from resolved `(chunk,
    /// offset)` locations. The output equals a [`ColumnBuilder`] fed the
    /// gathered values row by row — same representation, dictionary order,
    /// codes and validity — without paying a `Value` per cell:
    ///
    /// * when every chunk stores the same primitive variant, values copy
    ///   straight from the typed slices;
    /// * when every chunk stores dictionary strings under a `Str` schema
    ///   field, each chunk's codes are remapped into one dictionary in
    ///   first-appearance order, hashing a string once per distinct
    ///   `(chunk, code)` rather than once per row;
    /// * anything else (mixed representations) rebuilds through the
    ///   builder.
    fn gather_column(&self, j: usize, locs: &[(usize, usize)]) -> Column {
        let cols: Vec<&Column> = self.chunks.iter().map(|c| c.column(j).as_ref()).collect();
        let validity = || {
            cols.iter().any(|c| c.validity().is_some()).then(|| {
                let mut bm = Bitmap::new_clear(locs.len());
                for (k, &(c, o)) in locs.iter().enumerate() {
                    if cols[c].is_valid(o) {
                        bm.set(k, true);
                    }
                }
                bm
            })
        };
        macro_rules! primitive {
            ($variant:ident) => {
                if let Some(xs) = typed_slices(&cols, |d| match d {
                    ColumnData::$variant(xs) => Some(xs),
                    _ => None,
                }) {
                    return Column::new(ColumnData::$variant(pick(&xs, locs)), validity());
                }
            };
        }
        primitive!(Int);
        primitive!(Float);
        primitive!(Bool);
        let dtype = self.schema.field(j).data_type;
        if dtype == DataType::Str {
            if let Some(parts) = typed_slices(&cols, |d| match d {
                ColumnData::Str { dict, codes } => Some((dict.as_slice(), codes.as_slice())),
                _ => None,
            }) {
                return gather_str(&cols, &parts, locs);
            }
        }
        let mut b = ColumnBuilder::new(dtype, locs.len());
        for &(c, o) in locs {
            b.push(&cols[c].value(o));
        }
        b.finish()
    }

    /// Column values by name, for tests and quick inspection.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of_or_err(name)?;
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            let col = c.column(idx);
            out.extend((0..c.len()).map(|i| col.value(i)));
        }
        Ok(out)
    }

    /// Pretty-print at most `limit` rows as an aligned text table.
    pub fn display_limit(&self, limit: usize) -> String {
        let header: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        let shown: Vec<Vec<String>> = (0..self.len.min(limit))
            .map(|i| {
                self.row(i)
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
            })
            .collect();
        for row in &shown {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&header, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &shown {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        if self.len > limit {
            out.push_str(&format!("... {} more rows\n", self.len - limit));
        }
        out
    }
}

/// One typed view per chunk, or `None` unless `view` accepts every chunk's
/// payload.
fn typed_slices<'a, T>(
    cols: &[&'a Column],
    view: impl Fn(&'a ColumnData) -> Option<T>,
) -> Option<Vec<T>> {
    cols.iter().map(|c| view(c.data())).collect()
}

/// Copy the value at each `(chunk, offset)`.
fn pick<T: Copy>(slices: &[&Vec<T>], locs: &[(usize, usize)]) -> Vec<T> {
    locs.iter().map(|&(c, o)| slices[c][o]).collect()
}

/// The dictionary-string gather: remap each chunk's codes into one
/// dictionary in first-appearance order, exactly as [`ColumnBuilder`]
/// would build it from the gathered values (NULL slots carry code 0 and
/// add nothing to the dictionary). The chunk codes are copied first, in
/// one pass of independent loads like the primitive gathers; the remap
/// then runs over that cache-resident copy.
fn gather_str(
    cols: &[&Column],
    parts: &[(&[Arc<str>], &[u32])],
    locs: &[(usize, usize)],
) -> Column {
    const UNSEEN: u32 = u32::MAX;
    let mut codes: Vec<u32> = locs.iter().map(|&(c, o)| parts[c].1[o]).collect();
    // Per chunk, the output code of each of its dictionary codes; filled
    // on first use, so a string is hashed once per distinct (chunk, code).
    let mut remap: Vec<Vec<u32>> = parts.iter().map(|(d, _)| vec![UNSEEN; d.len()]).collect();
    let mut dict: Vec<Arc<str>> = Vec::new();
    let mut index: FxHashMap<Arc<str>, u32> = FxHashMap::default();
    let mut validity = cols
        .iter()
        .any(|c| c.validity().is_some())
        .then(|| Bitmap::new_clear(locs.len()));
    for (k, (&(c, o), code)) in locs.iter().zip(&mut codes).enumerate() {
        if let Some(bm) = validity.as_mut() {
            if !cols[c].is_valid(o) {
                *code = 0;
                continue;
            }
            bm.set(k, true);
        }
        let slot = &mut remap[c][*code as usize];
        if *slot == UNSEEN {
            let s = &parts[c].0[*code as usize];
            *slot = *index.entry(Arc::clone(s)).or_insert_with(|| {
                #[expect(
                    clippy::expect_used,
                    reason = "a dictionary past u32 code space must fail, not alias (as in the builder)"
                )]
                let next = u32::try_from(dict.len()).expect("dictionary exceeds u32 codes");
                dict.push(Arc::clone(s));
                next
            });
        }
        *code = *slot;
    }
    let data = ColumnData::Str {
        dict: Arc::new(dict),
        codes,
    };
    // An all-set map normalizes to `None`, as the builder's does.
    Column::new(data, validity)
}

impl PartialEq for Table {
    /// Semantic equality: same schema and the same values in the same
    /// order, regardless of chunking or encoding.
    fn eq(&self, other: &Table) -> bool {
        if self.schema != other.schema || self.len != other.len {
            return false;
        }
        (0..self.len).all(|i| (0..self.schema.len()).all(|j| self.value(i, j) == other.value(i, j)))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_limit(20))
    }
}

/// Incremental construction of a [`Table`]. Buffers rows and transposes
/// into columnar chunks on `finish`.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Arc<Schema>,
    rows: Vec<Row>,
}

impl TableBuilder {
    pub fn new(schema: Arc<Schema>) -> Self {
        TableBuilder {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn with_capacity(schema: Arc<Schema>, capacity: usize) -> Self {
        TableBuilder {
            schema,
            rows: Vec::with_capacity(capacity),
        }
    }

    /// Append a row, checking arity (type checks are deferred to
    /// [`TableBuilder::finish_checked`]).
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::catalog(format!(
                "row arity {} != schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Finish without per-value validation.
    pub fn finish(self) -> Table {
        Table::new_unchecked(self.schema, self.rows)
    }

    /// Finish with full validation.
    pub fn finish_checked(self) -> Result<Table> {
        Table::try_new(self.schema, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, DataType};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[
            ("id", DataType::Int),
            ("score", DataType::Float),
        ]))
    }

    #[test]
    fn irregular_chunks_index_correctly() {
        // `from_chunks` accepts arbitrary chunk lengths; global-row lookup
        // must resolve through the offset prefix, not division.
        let rows: Vec<Row> = (0..50).map(|i| row![i as i64, i as f64]).collect();
        let sch = schema();
        let chunks: Vec<ColumnChunk> = [0..7usize, 7..8, 8..31, 31..50]
            .into_iter()
            .map(|r| ColumnChunk::from_rows(&sch, &rows[r]))
            .collect();
        let t = Table::from_chunks(Arc::clone(&sch), chunks).unwrap();
        assert_eq!(t.num_rows(), 50);
        for (i, expect) in rows.iter().enumerate() {
            assert_eq!(&t.row(i), expect, "row {i}");
            assert_eq!(t.value(i, 0), Value::Int(i as i64));
        }
        let gathered = t.gather(&[49, 0, 8, 7, 30]);
        assert_eq!(gathered.row(0), rows[49]);
        assert_eq!(gathered.row(3), rows[7]);
        // Semantic equality ignores chunking.
        let regular = Table::new_unchecked(Arc::clone(&sch), rows);
        assert_eq!(t, regular);
    }

    #[test]
    fn from_chunks_rejects_inconsistent_chunks() {
        let sch = schema();
        // Width mismatch: one-column chunk against a two-column schema.
        let narrow = Schema::from_pairs(&[("id", DataType::Int)]);
        let thin = ColumnChunk::from_rows(&narrow, &[row![1i64]]);
        let err = Table::from_chunks(Arc::clone(&sch), vec![thin]).unwrap_err();
        assert!(err.to_string().contains("columns"), "{err}");
        // Internal disagreement: columns of different lengths inside one
        // chunk (previously a deferred index panic, now a typed error).
        let a = Arc::new(Column::from_values(
            DataType::Int,
            &[Value::Int(1), Value::Int(2)],
        ));
        let b = Arc::new(Column::from_values(DataType::Float, &[Value::Float(0.5)]));
        let ragged = ColumnChunk::from_columns_untrusted(vec![a, b], 2);
        let err = Table::from_chunks(Arc::clone(&sch), vec![ragged]).unwrap_err();
        assert!(err.to_string().contains("rows"), "{err}");
    }

    #[test]
    fn validates_arity_and_types() {
        let ok = Table::try_new(schema(), vec![row![1i64, 2.0f64]]);
        assert!(ok.is_ok());
        let bad_arity = Table::try_new(schema(), vec![row![1i64]]);
        assert!(bad_arity.is_err());
        let bad_type = Table::try_new(schema(), vec![row![1i64, "x"]]);
        assert!(bad_type.is_err());
    }

    #[test]
    fn nulls_pass_validation() {
        let t = Table::try_new(schema(), vec![Row::new(vec![Value::Null, Value::Null])]);
        assert!(t.is_ok());
    }

    #[test]
    fn column_extraction() {
        let t = Table::try_new(schema(), vec![row![1i64, 2.0f64], row![2i64, 4.0f64]]).unwrap();
        assert_eq!(
            t.column("score").unwrap(),
            vec![Value::Float(2.0), Value::Float(4.0)]
        );
        assert!(t.column("missing").is_err());
    }

    #[test]
    fn builder_checks_arity() {
        let mut b = TableBuilder::new(schema());
        assert!(b.push(row![1i64, 1.0f64]).is_ok());
        assert!(b.push(row![1i64]).is_err());
        assert_eq!(b.finish().num_rows(), 1);
    }

    #[test]
    fn display_truncates() {
        let rows: Vec<Row> = (0..30).map(|i| row![i as i64, i as f64]).collect();
        let t = Table::new_unchecked(schema(), rows);
        let s = t.display_limit(5);
        assert!(s.contains("... 25 more rows"));
        assert!(s.contains("| id | score |"));
    }

    #[test]
    fn rows_round_trip_and_equality() {
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                if i % 3 == 0 {
                    Row::new(vec![Value::Int(i), Value::Null])
                } else {
                    row![i, i as f64 / 2.0]
                }
            })
            .collect();
        let t = Table::new_unchecked(schema(), rows.clone());
        assert_eq!(t.rows(), rows);
        assert_eq!(t.row(4), rows[4]);
        assert_eq!(t.value(3, 1), Value::Null);
        let u = Table::new_unchecked(schema(), rows);
        assert_eq!(t, u);
    }

    #[test]
    fn gather_matches_row_view() {
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, i as f64]).collect();
        let t = Table::new_unchecked(schema(), rows);
        let g = t.gather(&[7, 3, 99]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.row(0), t.row(7));
        assert_eq!(g.row(2), t.row(99));
    }
}
