//! The dynamically-typed value model used by the engine.
//!
//! G-OLA queries run over heterogeneous log data, so rows are vectors of
//! [`Value`]s tagged with a [`DataType`] in the schema. Comparison follows
//! SQL-ish semantics: `Null` sorts first and compares equal only to itself
//! in *grouping* contexts, while predicate evaluation treats `Null` through
//! three-valued logic (handled in `gola-expr`).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};

/// Static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    /// The type of `NULL` literals before coercion.
    Null,
}

impl DataType {
    /// `true` if values of this type can participate in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// The common supertype of two types if one exists (used by the binder
    /// for implicit coercion: Int widens to Float; Null coerces to anything).
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, t) | (t, Null) => Some(t),
            (Int, Float) | (Float, Int) => Some(Float),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A single dynamically-typed value.
///
/// `Str` uses `Arc<str>` so cloning rows (pervasive in the mini-batch
/// executor's uncertain-set caching) is cheap.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// `true` iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Numeric view or an execution error naming `ctx`.
    pub fn expect_f64(&self, ctx: &str) -> Result<f64> {
        self.as_f64()
            .ok_or_else(|| Error::exec(format!("{ctx}: expected numeric value, got {self}")))
    }

    /// Integer view of the value, if exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Boolean view of the value, if it has one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value, if it has one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Cast to `ty` with SQL-like semantics. `Null` casts to `Null`.
    pub fn cast(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let out = match (self, ty) {
            (v, t) if v.data_type() == t => v.clone(),
            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SQL CAST semantics: truncate toward zero, saturate, NaN to 0"
            )]
            (Value::Float(f), DataType::Int) => Value::Int(*f as i64),
            (Value::Bool(b), DataType::Int) => Value::Int(*b as i64),
            (Value::Bool(b), DataType::Float) => Value::Float(*b as i64 as f64),
            (Value::Int(i), DataType::Str) => Value::str(i.to_string()),
            (Value::Float(f), DataType::Str) => Value::str(f.to_string()),
            (Value::Bool(b), DataType::Str) => Value::str(b.to_string()),
            (Value::Str(s), DataType::Int) => Value::Int(
                s.trim()
                    .parse::<i64>()
                    .map_err(|_| Error::exec(format!("cannot cast '{s}' to INT")))?,
            ),
            (Value::Str(s), DataType::Float) => Value::Float(
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| Error::exec(format!("cannot cast '{s}' to FLOAT")))?,
            ),
            (Value::Str(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Value::Bool(true),
                "false" | "f" | "0" => Value::Bool(false),
                _ => return Err(Error::exec(format!("cannot cast '{s}' to BOOL"))),
            },
            (v, t) => return Err(Error::exec(format!("cannot cast {} to {t}", v.data_type()))),
        };
        Ok(out)
    }

    /// Total ordering used for sorting and grouping. `Null` sorts first;
    /// numerics compare cross-type; `NaN` sorts after all other floats so the
    /// ordering is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                // Normalize -0.0 to 0.0: total_cmp would otherwise order
                // them, breaking Eq/Hash consistency for grouping keys.
                (Some(x), Some(y)) => {
                    let x = if x == 0.0 { 0.0 } else { x };
                    let y = if y == 0.0 { 0.0 } else { y };
                    x.total_cmp(&y)
                }
                // Heterogeneous non-numeric comparison: order by type tag so
                // sorting stays total and deterministic.
                _ => a.type_rank().cmp(&b.type_rank()),
            },
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// SQL equality for predicates: returns `None` when either side is null.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }
}

/// Lexicographic [`Value::total_cmp`] over value slices, shorter prefix
/// first. This is the canonical key order for sorting grouped state before
/// it can reach a `BatchReport` — hash-map iteration order must never be
/// observable downstream (see `clippy.toml`'s `disallowed-methods`).
pub fn cmp_values(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// Equality matches [`Value::total_cmp`] so `Value` can key hash maps for
/// grouping (`Null == Null`, `Int(1) == Float(1.0)`).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            // Int and Float must hash identically when numerically equal
            // because they compare equal; hash the canonical f64 bits.
            Value::Int(i) => {
                state.write_u8(2);
                state.write_u64((*i as f64).to_bits());
            }
            Value::Float(f) => {
                state.write_u8(2);
                // Normalize -0.0 to 0.0 so equal values hash equally.
                let f = if *f == 0.0 { 0.0 } else { *f };
                state.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn null_ordering_and_equality() {
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::str("42").cast(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::str("4.5").cast(DataType::Float).unwrap(),
            Value::Float(4.5)
        );
        assert_eq!(
            Value::Int(7).cast(DataType::Float).unwrap(),
            Value::Float(7.0)
        );
        assert_eq!(
            Value::Float(7.9).cast(DataType::Int).unwrap(),
            Value::Int(7)
        );
        assert_eq!(Value::Null.cast(DataType::Int).unwrap(), Value::Null);
        assert!(Value::str("abc").cast(DataType::Int).is_err());
        assert_eq!(
            Value::str("true").cast(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn unify_types() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Null.unify(DataType::Str), Some(DataType::Str));
        assert_eq!(DataType::Bool.unify(DataType::Int), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.25).to_string(), "2.25");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn nan_ordering_is_total() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1.0).total_cmp(&nan), Ordering::Less);
    }
}
