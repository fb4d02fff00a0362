//! Aggregate function kinds.

use std::fmt;
use std::sync::Arc;

use gola_common::{DataType, Error, Result};

use crate::state::AggState;
use crate::udaf::Udaf;

/// The aggregate functions the engine supports (paper §2: COUNT, SUM, AVG,
/// STDEV, QUANTILES plus user-defined aggregates).
#[derive(Debug, Clone)]
pub enum AggKind {
    /// `COUNT(expr)` — counts non-null values. The binder lowers
    /// `COUNT(*)` to `COUNT(1)`.
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Population variance.
    VarPop,
    /// Population standard deviation.
    StdDev,
    /// `QUANTILE(expr, q)` with `q ∈ [0, 1]`, streaming (P²).
    Quantile(f64),
    /// A registered user-defined aggregate.
    Udaf(Arc<dyn Udaf>),
}

impl AggKind {
    /// SQL name of the aggregate.
    pub fn name(&self) -> String {
        match self {
            AggKind::Count => "COUNT".into(),
            AggKind::Sum => "SUM".into(),
            AggKind::Avg => "AVG".into(),
            AggKind::Min => "MIN".into(),
            AggKind::Max => "MAX".into(),
            AggKind::VarPop => "VAR_POP".into(),
            AggKind::StdDev => "STDDEV".into(),
            AggKind::Quantile(q) => format!("QUANTILE[{q}]"),
            AggKind::Udaf(u) => u.name().to_uppercase(),
        }
    }

    /// Result type given the argument type.
    pub fn return_type(&self, arg: DataType) -> Result<DataType> {
        match self {
            AggKind::Count => Ok(DataType::Float),
            AggKind::Min | AggKind::Max => Ok(arg),
            AggKind::Udaf(u) => u.return_type(arg),
            _ => {
                if arg.is_numeric() || arg == DataType::Null {
                    Ok(DataType::Float)
                } else {
                    Err(Error::bind(format!(
                        "{} expects a numeric argument, got {arg}",
                        self.name()
                    )))
                }
            }
        }
    }

    /// `true` if the estimate must be multiplied by the multiplicity
    /// `m = k/i` under multiset semantics (extensive aggregates).
    pub fn is_scale_sensitive(&self) -> bool {
        matches!(self, AggKind::Count | AggKind::Sum)
    }

    /// `true` if two partial states of this kind can be merged
    /// ([`AggState::merge`]); quantile sketches and UDAFs cannot.
    pub fn is_mergeable(&self) -> bool {
        !matches!(self, AggKind::Quantile(_) | AggKind::Udaf(_))
    }

    /// `true` if this kind's states are exact sums (COUNT, SUM, AVG,
    /// VAR_POP, STDDEV), so a contribution folded in can be taken back out
    /// ([`crate::ReplicatedStates::retract_run`]) without moving a bit.
    pub fn is_retractable(&self) -> bool {
        matches!(
            self,
            AggKind::Count | AggKind::Sum | AggKind::Avg | AggKind::VarPop | AggKind::StdDev
        )
    }

    /// Fresh accumulator.
    pub fn new_state(&self) -> AggState {
        AggState::new(self)
    }

    /// Resolve a built-in aggregate by SQL name. `quantile_arg` carries the
    /// second argument of `QUANTILE(expr, q)` when present. Returns `None`
    /// for names that are not built-in aggregates (the binder then tries
    /// scalar functions and UDAFs).
    pub fn from_name(name: &str, quantile_arg: Option<f64>) -> Result<Option<AggKind>> {
        let kind = match name.to_ascii_lowercase().as_str() {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "avg" | "mean" => AggKind::Avg,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "var_pop" | "variance" => AggKind::VarPop,
            "stddev" | "stdev" | "stddev_pop" => AggKind::StdDev,
            "median" => AggKind::Quantile(0.5),
            "quantile" | "percentile" => {
                let q = quantile_arg
                    .ok_or_else(|| Error::bind("QUANTILE requires a literal quantile argument"))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(Error::bind(format!("quantile {q} outside [0, 1]")));
                }
                AggKind::Quantile(q)
            }
            _ => return Ok(None),
        };
        Ok(Some(kind))
    }
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact float results")]
mod tests {
    use super::*;

    #[test]
    fn from_name_builtins() {
        assert!(matches!(
            AggKind::from_name("SUM", None).unwrap(),
            Some(AggKind::Sum)
        ));
        assert!(matches!(
            AggKind::from_name("stdev", None).unwrap(),
            Some(AggKind::StdDev)
        ));
        assert!(matches!(
            AggKind::from_name("median", None).unwrap(),
            Some(AggKind::Quantile(q)) if q == 0.5
        ));
        assert!(AggKind::from_name("quantile", Some(0.9)).unwrap().is_some());
        assert!(AggKind::from_name("quantile", None).is_err());
        assert!(AggKind::from_name("quantile", Some(1.5)).is_err());
        assert!(AggKind::from_name("not_an_agg", None).unwrap().is_none());
    }

    #[test]
    fn return_types() {
        assert_eq!(
            AggKind::Count.return_type(DataType::Str).unwrap(),
            DataType::Float
        );
        assert_eq!(
            AggKind::Min.return_type(DataType::Str).unwrap(),
            DataType::Str
        );
        assert_eq!(
            AggKind::Avg.return_type(DataType::Int).unwrap(),
            DataType::Float
        );
        assert!(AggKind::Sum.return_type(DataType::Str).is_err());
    }

    #[test]
    fn scale_sensitivity() {
        assert!(AggKind::Count.is_scale_sensitive());
        assert!(AggKind::Sum.is_scale_sensitive());
        assert!(!AggKind::Avg.is_scale_sensitive());
        assert!(!AggKind::Quantile(0.5).is_scale_sensitive());
        assert!(!AggKind::StdDev.is_scale_sensitive());
    }
}
