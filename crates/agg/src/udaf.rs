//! User-defined aggregate functions (UDAFs).
//!
//! G-OLA explicitly supports user-defined aggregates (paper §2). A UDAF
//! supplies a factory ([`Udaf`]) producing per-group states
//! ([`UdafState`]). States receive *weighted* updates so UDAFs participate
//! in multiset semantics and poissonized bootstrap exactly like built-ins —
//! a UDAF automatically gets confidence intervals and variation ranges.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use gola_common::{DataType, Error, ExactSum, Result, Value};

/// Factory for a user-defined aggregate.
pub trait Udaf: Send + Sync {
    /// SQL-visible name.
    fn name(&self) -> &str;

    /// Return type given the argument type; also validates the argument.
    fn return_type(&self, arg: DataType) -> Result<DataType>;

    /// Fresh accumulator state.
    fn new_state(&self) -> Box<dyn UdafState>;
}

/// Per-group accumulator of a UDAF.
///
/// `Sync` is required because the online executor shares read-only access
/// to runtime state across worker threads; mutation always happens through
/// `&mut self`.
pub trait UdafState: Send + Sync {
    /// Fold in one (non-null) value with a weight. Weights arise from
    /// bootstrap replicas (small integers) — multiset multiplicity is
    /// applied via `scale` at finalize time instead.
    fn update(&mut self, value: &Value, weight: f64);

    /// Current aggregate value. `scale` is the multiplicity `m = k/i`; a
    /// scale-sensitive UDAF (like a weighted total) multiplies by it, a
    /// scale-free one (like a mean) ignores it.
    fn finalize(&self, scale: f64) -> Value;

    /// Clone into a box (states are snapshotted when combining the
    /// deterministic state with uncertain-set contributions).
    fn clone_box(&self) -> Box<dyn UdafState>;
}

impl Clone for Box<dyn UdafState> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl fmt::Debug for dyn UdafState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<udaf-state>")
    }
}

impl fmt::Debug for dyn Udaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<udaf {}>", self.name())
    }
}

/// Name → UDAF registry (case-insensitive).
#[derive(Debug, Clone, Default)]
pub struct UdafRegistry {
    fns: BTreeMap<String, Arc<dyn Udaf>>,
}

impl UdafRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry with the bundled example UDAF ([`GeometricMean`]).
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(Arc::new(GeometricMean)).expect("fresh registry");
        r
    }

    pub fn register(&mut self, udaf: Arc<dyn Udaf>) -> Result<()> {
        let key = udaf.name().to_ascii_lowercase();
        if self.fns.contains_key(&key) {
            return Err(Error::bind(format!("UDAF '{key}' already registered")));
        }
        self.fns.insert(key, udaf);
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<Arc<dyn Udaf>> {
        self.fns.get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(&name.to_ascii_lowercase())
    }
}

/// Example UDAF: weighted geometric mean (scale-free).
pub struct GeometricMean;

/// The weighted log-sum is exact, so the answer does not depend on the
/// order the values came in.
#[derive(Clone, Default)]
struct GeoMeanState {
    log_sum: ExactSum,
    weight: f64,
}

impl Udaf for GeometricMean {
    fn name(&self) -> &str {
        "geo_mean"
    }

    fn return_type(&self, arg: DataType) -> Result<DataType> {
        if arg.is_numeric() || arg == DataType::Null {
            Ok(DataType::Float)
        } else {
            Err(Error::bind(format!(
                "geo_mean expects a numeric argument, got {arg}"
            )))
        }
    }

    fn new_state(&self) -> Box<dyn UdafState> {
        Box::new(GeoMeanState::default())
    }
}

impl UdafState for GeoMeanState {
    fn update(&mut self, value: &Value, weight: f64) {
        if let Some(x) = value.as_f64() {
            if x > 0.0 && weight > 0.0 {
                self.log_sum.add_product(x.ln(), weight);
                self.weight += weight;
            }
        }
    }

    fn finalize(&self, _scale: f64) -> Value {
        if self.weight == 0.0 {
            Value::Null
        } else {
            Value::Float((self.log_sum.value() / self.weight).exp())
        }
    }

    fn clone_box(&self) -> Box<dyn UdafState> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        let f = GeometricMean;
        let mut s = f.new_state();
        s.update(&Value::Float(2.0), 1.0);
        s.update(&Value::Float(8.0), 1.0);
        let v = s.finalize(1.0).as_f64().unwrap();
        assert!((v - 4.0).abs() < 1e-12);
        // Scale-free: multiplicity has no effect.
        assert_eq!(s.finalize(10.0), s.finalize(1.0));
    }

    #[test]
    fn geo_mean_weighted() {
        let f = GeometricMean;
        let mut s = f.new_state();
        s.update(&Value::Float(2.0), 3.0);
        s.update(&Value::Float(16.0), 1.0);
        // (2^3 * 16)^(1/4) = (128)^(1/4)
        let v = s.finalize(1.0).as_f64().unwrap();
        assert!((v - 128f64.powf(0.25)).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_empty_is_null() {
        let s = GeometricMean.new_state();
        assert!(s.finalize(1.0).is_null());
    }

    #[test]
    fn clone_box_snapshots() {
        let f = GeometricMean;
        let mut s = f.new_state();
        s.update(&Value::Float(3.0), 1.0);
        let snap = s.clone_box();
        s.update(&Value::Float(300.0), 1.0);
        assert_ne!(snap.finalize(1.0), s.finalize(1.0));
    }

    #[test]
    fn registry() {
        let r = UdafRegistry::with_builtins();
        assert!(r.contains("GEO_MEAN"));
        assert!(r.get("geo_mean").is_some());
        assert!(r.get("missing").is_none());
        let mut r2 = UdafRegistry::with_builtins();
        assert!(r2.register(Arc::new(GeometricMean)).is_err());
    }

    #[test]
    fn return_type_validation() {
        assert_eq!(
            GeometricMean.return_type(DataType::Int).unwrap(),
            DataType::Float
        );
        assert!(GeometricMean.return_type(DataType::Str).is_err());
    }
}
