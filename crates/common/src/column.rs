//! Columnar storage primitives: packed validity bitmaps and typed
//! struct-of-arrays column vectors.
//!
//! A [`Column`] stores one attribute of a chunk of tuples as a typed vector
//! (`i64` / `f64` / `bool` / dictionary-encoded strings) plus an optional
//! validity [`Bitmap`] marking non-NULL slots. Vectorized kernels (predicate
//! classification, the fused bootstrap-weight fold) read the typed vectors
//! directly instead of dispatching on per-tuple [`Value`] enums; `value(i)`
//! reconstructs the row-at-a-time view losslessly, so the columnar layout is
//! observationally identical to the row store it replaces.
//!
//! Heterogeneously-typed columns (possible because table construction is
//! unvalidated on trusted paths) degrade to a [`ColumnData::Mixed`] vector of
//! plain values; every consumer must treat that arm as the semantic ground
//! truth and the typed arms as its bit-exact acceleration.

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::value::{DataType, Value};

/// A packed bitset over tuple slots (one `u64` word per 64 slots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all clear.
    pub fn new_clear(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` bits, all set.
    pub fn new_set(len: usize) -> Bitmap {
        let mut bm = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Clear the unused bits of the last word so popcounts stay exact.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// In-place intersection with another bitmap of the same length.
    pub fn and_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union with another bitmap of the same length.
    pub fn or_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Indices of the set bits, in ascending order.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }
}

/// The typed payload of a column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Dictionary-encoded strings: `codes[i]` indexes `dict`. The dictionary
    /// is in first-appearance order, so encoding is deterministic under the
    /// input order. Invalid (NULL) slots carry code 0 and must not be
    /// dereferenced.
    Str {
        dict: Arc<Vec<Arc<str>>>,
        codes: Vec<u32>,
    },
    /// Heterogeneous fallback: plain values with NULLs inline.
    Mixed(Vec<Value>),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One attribute of a chunk: typed data plus validity. `validity: None`
/// means every slot is valid (the common all-non-NULL case costs nothing).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
}

impl Column {
    /// Construct from parts. An all-set validity map is normalized to
    /// `None`; a [`ColumnData::Mixed`] payload keeps NULLs inline and never
    /// carries a map.
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> Column {
        let validity = match (&data, validity) {
            (ColumnData::Mixed(_), _) => None,
            (_, Some(v)) if v.all_set() => None,
            (_, v) => v,
        };
        Column { data, validity }
    }

    /// Build a column of NULLs typed as `dtype`.
    pub fn nulls(dtype: DataType, len: usize) -> Column {
        let mut b = ColumnBuilder::new(dtype, len);
        for _ in 0..len {
            b.push(&Value::Null);
        }
        b.finish()
    }

    /// Build from a slice of values, choosing the tightest representation
    /// for `dtype` and degrading to `Mixed` on type mismatches.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Column {
        let mut b = ColumnBuilder::new(dtype, values.len());
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Validity bitmap; `None` means all slots are valid.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Is slot `i` non-NULL?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => !v[i].is_null(),
            _ => self.validity.as_ref().is_none_or(|bm| bm.get(i)),
        }
    }

    /// Reconstruct the row-store value of slot `i`.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if let ColumnData::Mixed(v) = &self.data {
            return v[i].clone();
        }
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str { dict, codes } => Value::Str(Arc::clone(&dict[codes[i] as usize])),
            ColumnData::Mixed(_) => unreachable!(),
        }
    }

    /// Numeric view of slot `i` (NULL and non-numeric slots are `None`),
    /// matching [`Value::as_f64`] bit-for-bit.
    #[inline]
    pub fn as_f64(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Bool(v) => Some(if v[i] { 1.0 } else { 0.0 }),
            ColumnData::Str { .. } => None,
            ColumnData::Mixed(v) => v[i].as_f64(),
        }
    }

    /// Gather `indices` into a new column (used by the shuffler, the
    /// partitioner and uncertain-set reclaim). Dictionary columns share the
    /// dictionary; only codes are copied.
    pub fn gather(&self, indices: &[usize]) -> Column {
        let validity = match &self.data {
            ColumnData::Mixed(_) => None,
            _ => self.validity.as_ref().map(|bm| {
                let mut out = Bitmap::new_clear(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    if bm.get(i) {
                        out.set(j, true);
                    }
                }
                out
            }),
        };
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: Arc::clone(dict),
                codes: indices.iter().map(|&i| codes[i]).collect(),
            },
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(indices.iter().map(|&i| v[i].clone()).collect())
            }
        };
        Column::new(data, validity)
    }

    /// Concatenate two columns (same attribute, consecutive tuple runs).
    pub fn concat(&self, other: &Column) -> Column {
        // The typed fast paths only apply when both sides share a
        // representation (and, for strings, the same dictionary — true for
        // slices of one table chunk); otherwise rebuild through a builder.
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => Column::new(
                ColumnData::Int(a.iter().chain(b).copied().collect()),
                concat_validity(self, other),
            ),
            (ColumnData::Float(a), ColumnData::Float(b)) => Column::new(
                ColumnData::Float(a.iter().chain(b).copied().collect()),
                concat_validity(self, other),
            ),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => Column::new(
                ColumnData::Bool(a.iter().chain(b).copied().collect()),
                concat_validity(self, other),
            ),
            (
                ColumnData::Str {
                    dict: da,
                    codes: ca,
                },
                ColumnData::Str {
                    dict: db,
                    codes: cb,
                },
            ) if Arc::ptr_eq(da, db) => Column::new(
                ColumnData::Str {
                    dict: Arc::clone(da),
                    codes: ca.iter().chain(cb).copied().collect(),
                },
                concat_validity(self, other),
            ),
            _ => {
                let mut b = ColumnBuilder::new(DataType::Null, self.len() + other.len());
                for i in 0..self.len() {
                    b.push(&self.value(i));
                }
                for i in 0..other.len() {
                    b.push(&other.value(i));
                }
                b.finish()
            }
        }
    }
}

fn concat_validity(a: &Column, b: &Column) -> Option<Bitmap> {
    if a.validity.is_none() && b.validity.is_none() {
        return None;
    }
    let mut out = Bitmap::new_clear(a.len() + b.len());
    for i in 0..a.len() {
        if a.is_valid(i) {
            out.set(i, true);
        }
    }
    for i in 0..b.len() {
        if b.is_valid(i) {
            out.set(a.len() + i, true);
        }
    }
    Some(out)
}

/// Incremental column construction with automatic representation choice:
/// starts with the typed vector for the declared type and degrades to
/// [`ColumnData::Mixed`] on the first mismatched non-NULL value.
#[derive(Debug)]
pub struct ColumnBuilder {
    state: BuilderState,
    validity: Bitmap,
    any_null: bool,
}

#[derive(Debug)]
enum BuilderState {
    /// No non-NULL value seen yet; type still undecided (used for
    /// `DataType::Null` schemas and empty prefixes).
    Pending {
        nulls: usize,
    },
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str {
        dict: Vec<Arc<str>>,
        index: FxHashMap<Arc<str>, u32>,
        codes: Vec<u32>,
    },
    Mixed(Vec<Value>),
}

impl ColumnBuilder {
    pub fn new(dtype: DataType, capacity: usize) -> ColumnBuilder {
        let state = match dtype {
            DataType::Int => BuilderState::Int(Vec::with_capacity(capacity)),
            DataType::Float => BuilderState::Float(Vec::with_capacity(capacity)),
            DataType::Bool => BuilderState::Bool(Vec::with_capacity(capacity)),
            DataType::Str => BuilderState::Str {
                dict: Vec::new(),
                index: FxHashMap::default(),
                codes: Vec::with_capacity(capacity),
            },
            DataType::Null => BuilderState::Pending { nulls: 0 },
        };
        ColumnBuilder {
            state,
            validity: Bitmap::new(),
            any_null: false,
        }
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Append one value.
    pub fn push(&mut self, v: &Value) {
        if v.is_null() {
            self.any_null = true;
            self.validity.push(false);
            match &mut self.state {
                BuilderState::Pending { nulls } => *nulls += 1,
                BuilderState::Int(xs) => xs.push(0),
                BuilderState::Float(xs) => xs.push(0.0),
                BuilderState::Bool(xs) => xs.push(false),
                BuilderState::Str { codes, .. } => codes.push(0),
                BuilderState::Mixed(xs) => xs.push(Value::Null),
            }
            return;
        }
        self.validity.push(true);
        // A Pending builder adopts the type of the first non-NULL value.
        if let BuilderState::Pending { nulls } = &self.state {
            let nulls = *nulls;
            let mut fresh = ColumnBuilder::new(v.data_type(), nulls + 1).state;
            match &mut fresh {
                BuilderState::Int(xs) => xs.resize(nulls, 0),
                BuilderState::Float(xs) => xs.resize(nulls, 0.0),
                BuilderState::Bool(xs) => xs.resize(nulls, false),
                BuilderState::Str { codes, .. } => codes.resize(nulls, 0),
                BuilderState::Mixed(xs) => xs.resize(nulls, Value::Null),
                BuilderState::Pending { .. } => unreachable!(),
            }
            self.state = fresh;
        }
        match (&mut self.state, v) {
            (BuilderState::Int(xs), Value::Int(i)) => xs.push(*i),
            (BuilderState::Float(xs), Value::Float(f)) => xs.push(*f),
            (BuilderState::Bool(xs), Value::Bool(b)) => xs.push(*b),
            (BuilderState::Str { dict, index, codes }, Value::Str(s)) => {
                let code = match index.get(s.as_ref()) {
                    Some(&c) => c,
                    None => {
                        // A dictionary past u32 code space must fail, not
                        // silently alias code 0.
                        let c = u32::try_from(dict.len()).expect("dictionary exceeds u32 codes");
                        dict.push(Arc::clone(s));
                        index.insert(Arc::clone(s), c);
                        c
                    }
                };
                codes.push(code);
            }
            (BuilderState::Mixed(xs), v) => xs.push(v.clone()),
            // Type mismatch: degrade to Mixed, replaying what we have.
            (state, v) => {
                let n = self.validity.len() - 1;
                let mut xs: Vec<Value> = Vec::with_capacity(n + 1);
                for i in 0..n {
                    xs.push(if self.validity.get(i) {
                        materialize(state, i)
                    } else {
                        Value::Null
                    });
                }
                xs.push(v.clone());
                *state = BuilderState::Mixed(xs);
            }
        }
    }

    pub fn finish(self) -> Column {
        let ColumnBuilder {
            state,
            validity,
            any_null,
        } = self;
        let data = match state {
            BuilderState::Pending { nulls } => {
                // All-NULL (or empty) column: keep an untyped Mixed vector.
                ColumnData::Mixed(vec![Value::Null; nulls])
            }
            BuilderState::Int(xs) => ColumnData::Int(xs),
            BuilderState::Float(xs) => ColumnData::Float(xs),
            BuilderState::Bool(xs) => ColumnData::Bool(xs),
            BuilderState::Str { dict, codes, .. } => ColumnData::Str {
                dict: Arc::new(dict),
                codes,
            },
            BuilderState::Mixed(xs) => ColumnData::Mixed(xs),
        };
        Column::new(data, any_null.then_some(validity))
    }
}

fn materialize(state: &BuilderState, i: usize) -> Value {
    match state {
        BuilderState::Int(xs) => Value::Int(xs[i]),
        BuilderState::Float(xs) => Value::Float(xs[i]),
        BuilderState::Bool(xs) => Value::Bool(xs[i]),
        BuilderState::Str { dict, codes, .. } => Value::Str(Arc::clone(&dict[codes[i] as usize])),
        BuilderState::Mixed(xs) => xs[i].clone(),
        BuilderState::Pending { .. } => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut bm = Bitmap::new_clear(70);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_set(), 0);
        bm.set(0, true);
        bm.set(69, true);
        assert!(bm.get(0) && bm.get(69) && !bm.get(35));
        assert_eq!(bm.count_set(), 2);
        assert_eq!(bm.iter_set().collect::<Vec<_>>(), vec![0, 69]);
        bm.set(69, false);
        assert_eq!(bm.count_set(), 1);
        let full = Bitmap::new_set(65);
        assert!(full.all_set());
        assert_eq!(full.count_set(), 65);
    }

    #[test]
    fn bitmap_push_and_and() {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        for i in 0..130 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        a.and_with(&b);
        for i in 0..130 {
            assert_eq!(a.get(i), i % 6 == 0, "bit {i}");
        }
    }

    #[test]
    fn typed_round_trip() {
        let vals = vec![Value::Int(3), Value::Null, Value::Int(-7)];
        let c = Column::from_values(DataType::Int, &vals);
        assert!(matches!(c.data(), ColumnData::Int(_)));
        assert_eq!(c.len(), 3);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v);
            assert_eq!(c.as_f64(i), v.as_f64());
        }
        assert!(!c.is_valid(1));
    }

    #[test]
    fn string_dictionary_round_trip() {
        let vals = vec![
            Value::str("a"),
            Value::str("b"),
            Value::str("a"),
            Value::Null,
            Value::str("c"),
        ];
        let c = Column::from_values(DataType::Str, &vals);
        match c.data() {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.len(), 3);
                assert_eq!(codes, &vec![0, 1, 0, 0, 2]);
            }
            other => panic!("expected dict column, got {other:?}"),
        }
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v);
        }
    }

    #[test]
    fn mixed_degrade_preserves_values() {
        let vals = vec![
            Value::Int(1),
            Value::Null,
            Value::Float(2.5),
            Value::str("x"),
        ];
        let c = Column::from_values(DataType::Int, &vals);
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        for (i, v) in vals.iter().enumerate() {
            // Representation (not just Value equality, which is cross-type).
            assert_eq!(c.value(i).data_type(), v.data_type());
            assert_eq!(&c.value(i), v);
        }
    }

    #[test]
    fn pending_adopts_first_type() {
        let vals = vec![Value::Null, Value::Null, Value::str("s"), Value::str("s")];
        let c = Column::from_values(DataType::Null, &vals);
        assert!(matches!(c.data(), ColumnData::Str { .. }));
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(3), Value::str("s"));
        let all_null = Column::from_values(DataType::Null, &[Value::Null, Value::Null]);
        assert!(matches!(all_null.data(), ColumnData::Mixed(_)));
        assert_eq!(all_null.value(1), Value::Null);
    }

    #[test]
    fn gather_and_concat() {
        let vals: Vec<Value> = (0..10)
            .map(|i| {
                if i % 4 == 3 {
                    Value::Null
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        let c = Column::from_values(DataType::Int, &vals);
        let g = c.gather(&[9, 3, 0]);
        assert_eq!(g.value(0), Value::Int(9));
        assert_eq!(g.value(1), Value::Null);
        assert_eq!(g.value(2), Value::Int(0));
        let cc = g.concat(&c.gather(&[5]));
        assert_eq!(cc.len(), 4);
        assert_eq!(cc.value(3), Value::Int(5));
    }

    #[test]
    fn concat_shares_dictionary() {
        let vals: Vec<Value> = ["x", "y", "x", "z"].iter().map(Value::str).collect();
        let c = Column::from_values(DataType::Str, &vals);
        let a = c.gather(&[0, 1]);
        let b = c.gather(&[2, 3]);
        let cc = a.concat(&b);
        match cc.data() {
            ColumnData::Str { dict, .. } => assert_eq!(dict.len(), 3),
            other => panic!("expected dict column, got {other:?}"),
        }
        assert_eq!(cc.value(3), Value::str("z"));
    }
}
