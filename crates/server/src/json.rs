//! Deterministic JSON rendering of [`BatchReport`]s.
//!
//! The wire format deliberately carries **no wall-clock fields** — no
//! batch/cumulative times, no stage timings. Everything serialized here is
//! bit-deterministic under the engine's threads=1/N contract, so two runs
//! of the same query produce byte-identical frames: the HTTP golden tests
//! pin SSE streams byte for byte, and the conformance service leg can
//! diff whole streams textually. Clients that want timings read
//! `/metrics` (explicitly nondeterministic) instead.
//!
//! Floats use Rust's shortest-roundtrip `Display`; non-finite values
//! (possible in degenerate estimates) render as `null` to stay valid
//! JSON.

use gola_common::json::{push_f64, push_str_lit};
use gola_common::Value;
use gola_core::{BatchReport, ContractStop};

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => push_f64(out, *f, true),
        Value::Str(s) => push_str_lit(out, s),
    }
}

/// One report as a single-line JSON object (the NDJSON frame; SSE wraps
/// the same line in an event envelope).
pub fn report_json(report: &BatchReport) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"batch\":");
    out.push_str(&report.batch_index.to_string());
    out.push_str(",\"num_batches\":");
    out.push_str(&report.num_batches.to_string());
    out.push_str(",\"rows_seen\":");
    out.push_str(&report.rows_seen.to_string());
    out.push_str(",\"total_rows\":");
    out.push_str(&report.total_rows.to_string());
    out.push_str(",\"columns\":[");
    for (i, field) in report.table.schema().fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(&mut out, &field.name);
    }
    out.push_str("],\"rows\":[");
    for (i, row) in report.table.rows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, value) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_value(&mut out, value);
        }
        out.push(']');
    }
    out.push_str("],\"row_certain\":[");
    for (i, certain) in report.row_certain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if *certain { "true" } else { "false" });
    }
    out.push_str("],\"estimates\":[");
    for (i, cell) in report.estimates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"row\":");
        out.push_str(&cell.row.to_string());
        out.push_str(",\"col\":");
        out.push_str(&cell.col.to_string());
        out.push_str(",\"value\":");
        push_f64(&mut out, cell.estimate.value, true);
        match cell.estimate.ci_percentile(report.ci_level) {
            Some(ci) => {
                out.push_str(",\"ci\":{\"lo\":");
                push_f64(&mut out, ci.lo, true);
                out.push_str(",\"hi\":");
                push_f64(&mut out, ci.hi, true);
                out.push_str(",\"level\":");
                push_f64(&mut out, ci.level, true);
                out.push('}');
            }
            None => out.push_str(",\"ci\":null"),
        }
        out.push('}');
    }
    out.push_str("],\"uncertain_tuples\":");
    out.push_str(&report.uncertain_tuples.to_string());
    out.push_str(",\"recomputations\":");
    out.push_str(&report.recomputations.to_string());
    out.push_str(",\"contract\":");
    match &report.contract {
        None => out.push_str("null"),
        Some(progress) => {
            match progress.contract {
                gola_core::QueryContract::Error { target, confidence } => {
                    out.push_str("{\"type\":\"error\",\"target\":");
                    push_f64(&mut out, target, true);
                    out.push_str(",\"confidence\":");
                    push_f64(&mut out, confidence, true);
                }
                gola_core::QueryContract::Within { seconds } => {
                    out.push_str("{\"type\":\"within\",\"seconds\":");
                    push_f64(&mut out, seconds, true);
                }
            }
            out.push_str(",\"achieved_rel_error\":");
            match progress.achieved_rel_error {
                Some(a) => push_f64(&mut out, a, true),
                None => out.push_str("null"),
            }
            out.push_str(",\"stop\":");
            match progress.stop {
                None => out.push_str("null"),
                Some(ContractStop::ErrorTargetMet) => out.push_str("\"error_target_met\""),
                Some(ContractStop::DeadlineReached) => out.push_str("\"deadline_reached\""),
                Some(ContractStop::Exhausted) => out.push_str("\"exhausted\""),
            }
            out.push('}');
        }
    }
    out.push('}');
    out
}

/// A diagnostic payload: `{"error": "..."}` plus optional extra numeric
/// fields (admission telemetry).
pub fn error_json(message: &str, extra: &[(&str, u64)]) -> String {
    let mut out = String::from("{\"error\":");
    push_str_lit(&mut out, message);
    for (key, value) in extra {
        out.push(',');
        push_str_lit(&mut out, key);
        out.push(':');
        out.push_str(&value.to_string());
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_json_shape() {
        assert_eq!(
            error_json("nope", &[("active", 2)]),
            "{\"error\":\"nope\",\"active\":2}"
        );
    }
}
