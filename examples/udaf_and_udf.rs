//! Extending G-OLA with user-defined functions and aggregates (paper §2:
//! "user-defined functions and aggregates").
//!
//! Registers a scalar UDF (`clamp01`) and a UDAF (`harmonic_mean`) and runs
//! them online — the UDAF automatically gets bootstrap confidence intervals
//! and participates in multiset semantics with zero extra work.
//!
//! Run with: `cargo run --release --example udaf_and_udf`

use std::sync::Arc;

use g_ola::agg::{Udaf, UdafRegistry, UdafState};
use g_ola::common::{DataType, Error, Result, Value};
use g_ola::core::{OnlineConfig, OnlineSession};
use g_ola::expr::{FunctionRegistry, ScalarFn};
use g_ola::sql::{parse_select, Binder};
use g_ola::workloads::ConvivaGenerator;

/// Scalar UDF: clamp a ratio into [0, 1].
struct Clamp01;

impl ScalarFn for Clamp01 {
    fn call(&self, args: &[Value]) -> Result<Value> {
        Ok(Value::Float(args[0].expect_f64("clamp01")?.clamp(0.0, 1.0)))
    }

    fn return_type(&self, arg_types: &[DataType]) -> Result<DataType> {
        if arg_types.len() != 1 {
            return Err(Error::bind("clamp01 expects 1 argument"));
        }
        Ok(DataType::Float)
    }
}

/// UDAF: weighted harmonic mean (sensitive to small values — a favourite
/// for availability/latency style metrics).
struct HarmonicMean;

#[derive(Clone, Default)]
struct HarmonicState {
    weight: f64,
    inv_sum: f64,
}

impl Udaf for HarmonicMean {
    fn name(&self) -> &str {
        "harmonic_mean"
    }

    fn return_type(&self, arg: DataType) -> Result<DataType> {
        if arg.is_numeric() || arg == DataType::Null {
            Ok(DataType::Float)
        } else {
            Err(Error::bind("harmonic_mean expects a numeric argument"))
        }
    }

    fn new_state(&self) -> Box<dyn UdafState> {
        Box::new(HarmonicState::default())
    }
}

impl UdafState for HarmonicState {
    fn update(&mut self, value: &Value, weight: f64) {
        if let Some(x) = value.as_f64() {
            if x > 0.0 && weight > 0.0 {
                self.weight += weight;
                self.inv_sum += weight / x;
            }
        }
    }

    fn finalize(&self, _scale: f64) -> Value {
        if self.inv_sum == 0.0 {
            Value::Null
        } else {
            Value::Float(self.weight / self.inv_sum)
        }
    }

    fn clone_box(&self) -> Box<dyn UdafState> {
        Box::new(self.clone())
    }
}

fn main() -> Result<()> {
    let catalog = ConvivaGenerator::default().catalog(80_000);

    // Register the extensions.
    let mut functions = FunctionRegistry::with_builtins();
    functions.register("clamp01", Arc::new(Clamp01))?;
    let mut udafs = UdafRegistry::with_builtins();
    udafs.register(Arc::new(HarmonicMean))?;

    let sql = "SELECT harmonic_mean(join_time) AS harmonic_join, \
                      AVG(clamp01(play_time / 600.0)) AS engagement_score \
               FROM sessions \
               WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";
    println!("query with UDF + UDAF over an uncertain filter:\n{sql}\n");

    // With custom registries we bind the query ourselves; the session
    // plans and runs the bound graph like any other query.
    let stmt = parse_select(sql)?;
    let graph = Binder::with_registries(&catalog, functions, udafs).bind(&stmt)?;
    let session = OnlineSession::new(catalog, OnlineConfig::default().with_batches(20));
    let prepared = session.prepare_graph(graph)?;
    for report in session.execute_prepared(&prepared)? {
        let report = report?;
        if report.batch_index % 4 == 0 || report.is_final() {
            let h = report.estimate_at(0, 0).expect("harmonic estimate");
            let s = report.estimate_at(0, 1).expect("score estimate");
            println!(
                "  batch {:>2}/{:>2}: harmonic_join = {h}   engagement = {s}",
                report.batch_index + 1,
                report.num_batches
            );
        }
    }
    println!("\nnote: the UDAF's ± error bars came from the shared poissonized");
    println!("bootstrap machinery — the UDAF itself knows nothing about sampling.");
    Ok(())
}
