//! Row storage.
//!
//! The engine is a row store: a [`Row`] is a boxed slice of [`Value`]s.
//! Boxed slices shave a word off `Vec` and signal immutability — rows are
//! built once (by generators, scans, or projections) and then only read.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A single tuple.
// The derived impls delegate to `Value`, whose PartialEq/Eq/Hash are the
// manual total order (value.rs): NaN equals itself and hashes consistently,
// so the derive is total, not IEEE-partial.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: Arc::from(values),
        }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Project columns by index into a new row.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Row::new(v)
    }

    /// Iterate over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row::new(v)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Build a row from an array of things convertible into [`Value`].
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_and_access() {
        let r = row![1i64, 2.5f64, "x", true];
        assert_eq!(r.len(), 4);
        assert_eq!(r.get(0), &Value::Int(1));
        assert_eq!(r.get(2), &Value::str("x"));
    }

    #[test]
    fn project_and_concat() {
        let r = row![1i64, 2i64, 3i64];
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
        let c = p.concat(&row![9i64]);
        assert_eq!(c.values(), &[Value::Int(3), Value::Int(1), Value::Int(9)]);
    }

    #[test]
    fn clone_is_cheap_shared() {
        let r = row![1i64, 2i64];
        let c = r.clone();
        assert_eq!(r, c);
        // Arc-backed: same allocation.
        assert!(std::ptr::eq(r.values().as_ptr(), c.values().as_ptr()));
    }

    /// The derived `PartialEq`/`Hash` are total, because `Value`'s are:
    /// a NaN-bearing row equals and hashes like itself, and `-0.0` equals
    /// and hashes like `0.0`, as under `Value::total_cmp`.
    #[test]
    fn derived_equality_is_total_on_floats() {
        use crate::hash::FxHashSet;
        let nan = row![f64::NAN, 1i64];
        assert_eq!(nan, nan.clone());
        assert_eq!(row![0.0f64], row![-0.0f64]);
        let rows = [nan.clone(), nan, row![0.0f64], row![-0.0f64]];
        let set: FxHashSet<Row> = rows.into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(row![1i64, "a"].to_string(), "[1, a]");
    }
}
