//! Struct-of-arrays chunks: the unit the partitioner, shuffler and executor
//! move around.
//!
//! A [`ColumnChunk`] is a run of tuples stored column-major: one
//! [`Column`] per attribute, all the same length, shared via `Arc` so
//! projections (lineage columns) and carried uncertain sets are reference
//! bumps instead of row copies. Row-at-a-time views are reconstructed on
//! demand (`row`, `to_rows`) for tests and display; the online and the
//! exact executor read the typed vectors.

use std::sync::Arc;

use gola_common::{Column, ColumnBuilder, Row, Schema, Value};

/// A column-major run of tuples.
#[derive(Debug, Clone)]
pub struct ColumnChunk {
    columns: Vec<Arc<Column>>,
    len: usize,
}

impl ColumnChunk {
    /// Assemble from columns (all must share `len`; `len` is explicit so
    /// zero-column chunks keep a row count).
    pub fn new(columns: Vec<Arc<Column>>, len: usize) -> ColumnChunk {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        ColumnChunk { columns, len }
    }

    /// Assemble from externally produced columns **without** the equal-
    /// length debug assertion. Loaders that cannot vouch for their input
    /// (file readers, network decoders) build chunks here and rely on
    /// [`crate::Table::from_chunks`] for the checked validation — that is
    /// where a ragged chunk becomes a typed error instead of a deferred
    /// index panic.
    pub fn from_columns_untrusted(columns: Vec<Arc<Column>>, len: usize) -> ColumnChunk {
        ColumnChunk { columns, len }
    }

    /// An empty chunk with `width` zero-length columns.
    pub fn empty(width: usize) -> ColumnChunk {
        ColumnChunk {
            columns: (0..width)
                .map(|_| Arc::new(Column::from_values(gola_common::DataType::Null, &[])))
                .collect(),
            len: 0,
        }
    }

    /// Transpose rows into columns, using `schema` for the declared types.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> ColumnChunk {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, rows.len()))
            .collect();
        for row in rows {
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push(v);
            }
        }
        ColumnChunk {
            columns: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            len: rows.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Select columns by index (cheap: `Arc` clones, no data copied).
    pub fn project(&self, indices: &[usize]) -> ColumnChunk {
        ColumnChunk {
            columns: indices
                .iter()
                .map(|&i| Arc::clone(&self.columns[i]))
                .collect(),
            len: self.len,
        }
    }

    /// Gather tuple slots by index into a new chunk.
    pub fn gather(&self, indices: &[usize]) -> ColumnChunk {
        ColumnChunk {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(indices)))
                .collect(),
            len: indices.len(),
        }
    }

    /// Concatenate two chunks of the same width (carried uncertain set ++
    /// new candidates).
    pub fn concat(&self, other: &ColumnChunk) -> ColumnChunk {
        if self.len == 0 {
            return other.clone();
        }
        if other.len == 0 {
            return self.clone();
        }
        debug_assert_eq!(self.num_columns(), other.num_columns());
        ColumnChunk {
            columns: self
                .columns
                .iter()
                .zip(&other.columns)
                .map(|(a, b)| Arc::new(a.concat(b)))
                .collect(),
            len: self.len + other.len,
        }
    }

    /// Materialize the values of tuple `i` into `buf` (reused across calls
    /// by row-at-a-time fallbacks).
    pub fn row_values_into(&self, i: usize, buf: &mut Vec<Value>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c.value(i)));
    }

    /// Materialize tuple `i` as a [`Row`].
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Materialize every tuple (a view for tests and display).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, DataType};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            row![1i64, "a", 1.5f64],
            Row::new(vec![Value::Int(2), Value::Null, Value::Float(2.5)]),
            row![3i64, "a", 3.5f64],
        ]
    }

    #[test]
    fn from_rows_round_trips() {
        let c = ColumnChunk::from_rows(&schema(), &rows());
        assert_eq!(c.len(), 3);
        assert_eq!(c.to_rows(), rows());
        let mut buf = Vec::new();
        c.row_values_into(1, &mut buf);
        assert_eq!(buf, rows()[1].values());
    }

    #[test]
    fn project_shares_columns() {
        let c = ColumnChunk::from_rows(&schema(), &rows());
        let p = c.project(&[2, 0]);
        assert_eq!(p.num_columns(), 2);
        assert!(Arc::ptr_eq(p.column(1), c.column(0)));
        assert_eq!(p.row(0), row![1.5f64, 1i64]);
    }

    #[test]
    fn gather_and_concat() {
        let c = ColumnChunk::from_rows(&schema(), &rows());
        let g = c.gather(&[2, 1]);
        assert_eq!(g.row(0), rows()[2]);
        let cc = g.concat(&c.gather(&[0]));
        assert_eq!(cc.len(), 3);
        assert_eq!(cc.row(2), rows()[0]);
        assert!(ColumnChunk::empty(3).concat(&g).len() == 2);
    }
}
