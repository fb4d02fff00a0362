//! Exporters: a JSON snapshot and the Prometheus text format.
//!
//! Both walk the registry's `BTreeMap`, so output order is sorted by metric
//! name — independent of registration order and thread schedule. The
//! `timings` flag controls whether wall-clock-derived values (duration
//! histogram sums/buckets, span elapsed totals, the snapshot timestamp)
//! appear at all; with `timings = false` the output is a pure function of
//! the computation's deterministic event counts and gauge values.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use gola_common::json::{push_f64, str_lit};

use crate::registry::{global, Metric};

/// `v` as a JSON number, bare when integral (`null` for non-finite).
fn num(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v, false);
    out
}

/// Deterministic JSON snapshot of every registered metric.
pub fn snapshot_json(timings: bool) -> String {
    let map = global().metrics.lock().unwrap();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut hists = Vec::new();
    let mut spans = Vec::new();
    for (name, metric) in map.iter() {
        let name = str_lit(name);
        match metric {
            Metric::Counter(c) => {
                counters.push(format!("{name}: {}", c.load(Ordering::Relaxed)));
            }
            Metric::Gauge(g) => {
                gauges.push(format!(
                    "{name}: {}",
                    num(f64::from_bits(g.load(Ordering::Relaxed)))
                ));
            }
            Metric::Histogram(h) => {
                let count = h.count.load(Ordering::Relaxed);
                let mut entry = format!("{name}: {{\"count\": {count}");
                if !h.timing || timings {
                    let _ = write!(
                        entry,
                        ", \"sum\": {}",
                        num(f64::from_bits(h.sum_bits.load(Ordering::Relaxed)))
                    );
                    let bounds: Vec<String> = h.bounds.iter().map(|&b| num(b)).collect();
                    let counts: Vec<String> = h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed).to_string())
                        .collect();
                    let _ = write!(
                        entry,
                        ", \"bounds\": [{}], \"bucket_counts\": [{}]",
                        bounds.join(", "),
                        counts.join(", ")
                    );
                }
                entry.push('}');
                hists.push(entry);
            }
            Metric::Span(s) => {
                let count = s.count.load(Ordering::Relaxed);
                let mut entry = format!("{name}: {{\"count\": {count}");
                if timings {
                    let secs = s.total_ns.load(Ordering::Relaxed) as f64 / 1e9;
                    let _ = write!(entry, ", \"total_seconds\": {}", num(secs));
                }
                let parents = s.parents.lock().unwrap();
                let edges: Vec<String> = parents
                    .iter()
                    .map(|(p, n)| format!("{}: {n}", str_lit(p)))
                    .collect();
                let _ = write!(entry, ", \"parents\": {{{}}}}}", edges.join(", "));
                spans.push(entry);
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"timings\": {timings},");
    if timings {
        let _ = writeln!(
            out,
            "  \"generated_unix_ms\": {},",
            crate::clock::unix_millis()
        );
    }
    let _ = writeln!(out, "  \"counters\": {{{}}},", counters.join(", "));
    let _ = writeln!(out, "  \"gauges\": {{{}}},", gauges.join(", "));
    let _ = writeln!(out, "  \"histograms\": {{{}}},", hists.join(", "));
    let _ = writeln!(out, "  \"spans\": {{{}}}", spans.join(", "));
    out.push('}');
    out.push('\n');
    out
}

/// Sanitize a metric name into a Prometheus identifier with the `gola_`
/// namespace prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("gola_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Prometheus text-format export (one `# TYPE` header per family, sorted by
/// metric name).
pub fn prometheus(timings: bool) -> String {
    let map = global().metrics.lock().unwrap();
    let mut out = String::new();
    // Registry keys may carry a label block (`name{session="s3"}`, see
    // `registry::labeled`). Series of one family sort adjacently in the
    // BTreeMap ("f" < "f{...}" < "g"), so one `# TYPE` header per family
    // suffices: emit it only when the family name changes.
    let mut last_family = String::new();
    for (key, metric) in map.iter() {
        let (name, labels) = crate::registry::split_labels(key);
        // A histogram bucket's `le` joins the series' own labels.
        let le = labels.map(|l| format!("{l},")).unwrap_or_default();
        let labels = labels.map(|l| format!("{{{l}}}")).unwrap_or_default();
        let n = prom_name(name);
        let first = last_family != n;
        last_family.clone_from(&n);
        let mut typed = |series: &str, kind: &str| {
            if first {
                let _ = writeln!(out, "# TYPE {series} {kind}");
            }
        };
        match metric {
            Metric::Counter(c) => {
                typed(&format!("{n}_total"), "counter");
                let _ = writeln!(out, "{n}_total{labels} {}", c.load(Ordering::Relaxed));
            }
            Metric::Gauge(g) => {
                typed(&n, "gauge");
                let value = prom_f64(f64::from_bits(g.load(Ordering::Relaxed)));
                let _ = writeln!(out, "{n}{labels} {value}");
            }
            Metric::Histogram(h) => {
                let count = h.count.load(Ordering::Relaxed);
                if h.timing && !timings {
                    // Deterministic face of a wall-clock histogram: only
                    // the event count.
                    typed(&format!("{n}_count"), "counter");
                    let _ = writeln!(out, "{n}_count{labels} {count}");
                    continue;
                }
                typed(&n, "histogram");
                let mut cumulative = 0u64;
                let bounds = h.bounds.iter().copied().chain([f64::INFINITY]);
                for (bound, bucket) in bounds.zip(&h.buckets) {
                    cumulative += bucket.load(Ordering::Relaxed);
                    let bound = prom_f64(bound);
                    let _ = writeln!(out, "{n}_bucket{{{le}le=\"{bound}\"}} {cumulative}");
                }
                let sum = prom_f64(f64::from_bits(h.sum_bits.load(Ordering::Relaxed)));
                let _ = writeln!(out, "{n}_sum{labels} {sum}");
                let _ = writeln!(out, "{n}_count{labels} {count}");
            }
            Metric::Span(s) => {
                let n = prom_name(&format!("span_{name}"));
                let _ = writeln!(out, "# TYPE {n}_total counter");
                let _ = writeln!(out, "{n}_total {}", s.count.load(Ordering::Relaxed));
                if timings {
                    let secs = s.total_ns.load(Ordering::Relaxed) as f64 / 1e9;
                    let _ = writeln!(out, "# TYPE {n}_seconds_total counter");
                    let _ = writeln!(out, "{n}_seconds_total {}", prom_f64(secs));
                }
                let parents = s.parents.lock().unwrap();
                if !parents.is_empty() {
                    let _ = writeln!(out, "# TYPE {n}_parent_total counter");
                    for (p, cnt) in parents.iter() {
                        let _ = writeln!(out, "{n}_parent_total{{parent={}}} {cnt}", str_lit(p));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::json::{parse, Value};
    use crate::registry;

    // The registry is process-global and unit tests share it, so these
    // tests assert containment / parseability with unique names rather than
    // whole-snapshot equality (the integration tests own a clean process
    // and check full determinism there).

    #[test]
    fn json_snapshot_parses_and_contains_metrics() {
        registry::counter("test.export.counter").add(7);
        registry::gauge("test.export.gauge").set(2.5);
        registry::histogram("test.export.hist", &[1.0]).observe(0.5);
        registry::duration_histogram("test.export.timing").observe(0.01);
        let snap = snapshot_json(false);
        let v = parse(&snap).expect("snapshot is valid JSON");
        let Value::Object(top) = &v else {
            panic!("object")
        };
        assert_eq!(top.get("version"), Some(&Value::Number(1.0)));
        assert_eq!(top.get("timings"), Some(&Value::Bool(false)));
        assert!(
            top.get("generated_unix_ms").is_none(),
            "no clock w/o timings"
        );
        let Some(Value::Object(counters)) = top.get("counters") else {
            panic!("counters object")
        };
        assert_eq!(
            counters.get("test.export.counter"),
            Some(&Value::Number(7.0))
        );
        let Some(Value::Object(hists)) = top.get("histograms") else {
            panic!("histograms object")
        };
        let Some(Value::Object(timing)) = hists.get("test.export.timing") else {
            panic!("timing histogram present")
        };
        assert!(timing.get("count").is_some());
        assert!(
            timing.get("sum").is_none() && timing.get("bucket_counts").is_none(),
            "wall-clock values must be hidden without timings: {timing:?}"
        );
        let Some(Value::Object(plain)) = hists.get("test.export.hist") else {
            panic!("plain histogram present")
        };
        assert!(plain.get("sum").is_some() && plain.get("bucket_counts").is_some());
    }

    #[test]
    fn json_snapshot_with_timings_has_clock_values() {
        registry::duration_histogram("test.export.timing2").observe(0.5);
        let snap = snapshot_json(true);
        let v = parse(&snap).expect("valid JSON");
        let Value::Object(top) = &v else {
            panic!("object")
        };
        assert!(top.get("generated_unix_ms").is_some());
        let Some(Value::Object(hists)) = top.get("histograms") else {
            panic!("histograms")
        };
        let Some(Value::Object(h)) = hists.get("test.export.timing2") else {
            panic!("timing hist")
        };
        assert!(h.get("sum").is_some() && h.get("bounds").is_some());
    }

    #[test]
    fn prometheus_labeled_series_share_one_family() {
        registry::counter_with("test.prom.labeled", &[("session", "a")]).add(2);
        registry::counter_with("test.prom.labeled", &[("session", "b")]).add(4);
        registry::gauge_with("test.prom.lgauge", &[("session", "a")]).set(0.5);
        let text = prometheus(false);
        assert_eq!(
            text.matches("# TYPE gola_test_prom_labeled_total counter")
                .count(),
            1,
            "one TYPE header per family: {text}"
        );
        assert!(text.contains("gola_test_prom_labeled_total{session=\"a\"} 2"));
        assert!(text.contains("gola_test_prom_labeled_total{session=\"b\"} 4"));
        assert!(text.contains("gola_test_prom_lgauge{session=\"a\"} 0.5"));

        // Histogram series keep their labels, `le` included in the block.
        for route in ["a", "b"] {
            let key = registry::labeled("test.prom.lhist", &[("route", route)]);
            registry::histogram(&key, &[1.0]).observe(0.5);
            let key = registry::labeled("test.prom.ltiming", &[("route", route)]);
            registry::duration_histogram(&key).observe(0.5);
        }
        let text = prometheus(false);
        assert_eq!(
            text.matches("# TYPE gola_test_prom_lhist histogram")
                .count(),
            1
        );
        assert!(text.contains("gola_test_prom_lhist_bucket{route=\"b\",le=\"1\"} 1"));
        assert!(text.contains("gola_test_prom_lhist_bucket{route=\"a\",le=\"+Inf\"} 1"));
        assert!(text.contains("gola_test_prom_lhist_sum{route=\"a\"} 0.5"));
        assert!(text.contains("gola_test_prom_lhist_count{route=\"b\"} 1"));
        let timing = "# TYPE gola_test_prom_ltiming_count counter";
        assert_eq!(text.matches(timing).count(), 1, "{text}");
        assert!(text.contains("gola_test_prom_ltiming_count{route=\"a\"} 1"));
    }

    #[test]
    fn prometheus_format_shapes() {
        registry::counter("test.prom.counter").add(3);
        registry::gauge("test.prom.gauge").set(1.5);
        registry::histogram("test.prom.hist", &[1.0, 2.0]).observe(1.5);
        crate::registry::record_span("test.prom.span", Duration::from_millis(2), "(root)");
        let text = prometheus(false);
        assert!(text.contains("# TYPE gola_test_prom_counter_total counter"));
        assert!(text.contains("gola_test_prom_counter_total 3"));
        assert!(text.contains("gola_test_prom_gauge 1.5"));
        assert!(text.contains("gola_test_prom_hist_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("gola_span_test_prom_span_total 1"));
        assert!(
            !text.contains("gola_span_test_prom_span_seconds_total"),
            "span seconds are wall-clock and need --timings"
        );
        assert!(text.contains("gola_span_test_prom_span_parent_total{parent=\"(root)\"} 1"));
        let with_timings = prometheus(true);
        assert!(with_timings.contains("gola_span_test_prom_span_seconds_total"));
    }
}
