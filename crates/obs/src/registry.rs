//! The metrics registry: named counters, gauges, histograms, and span
//! statistics behind cheap atomic handles.
//!
//! Design constraints, in order:
//!
//! 1. **Inert.** Nothing recorded here may flow back into computation.
//!    Handles expose write-mostly APIs; reads happen only at export time.
//! 2. **Cheap when off.** Instrumentation sites gate on [`enabled`] (one
//!    relaxed atomic load) before touching a clock or creating a handle, so
//!    a disabled registry costs a branch and stays empty.
//! 3. **Deterministic.** Metrics live in a `BTreeMap` keyed by name, so
//!    export order is sorted and independent of registration order, hash
//!    state, or thread schedule. Values derived from the wall clock are
//!    tagged [`timing`](Histogram) and excluded from exports unless the
//!    caller explicitly asks for them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding one `f64` (stored as bits so the handle
/// stays lock-free).
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

pub(crate) struct HistCore {
    /// Upper bucket bounds, ascending; an implicit `+inf` bucket follows.
    pub(crate) bounds: Vec<f64>,
    /// One slot per bound plus the overflow bucket.
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    /// Running sum of observed values, stored as `f64` bits (CAS loop).
    pub(crate) sum_bits: AtomicU64,
    /// Wall-clock-derived histograms are hidden from deterministic exports.
    pub(crate) timing: bool,
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    pub fn observe(&self, v: f64) {
        let idx = self
            .core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }
}

pub(crate) struct SpanCore {
    pub(crate) count: AtomicU64,
    pub(crate) total_ns: AtomicU64,
    /// Parent-span name -> number of times this span closed under it. Only
    /// touched on span close (stage granularity), never per tuple.
    pub(crate) parents: Mutex<BTreeMap<&'static str, u64>>,
}

pub(crate) enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistCore>),
    Span(Arc<SpanCore>),
}

/// The process-wide registry. Use the free functions ([`counter`],
/// [`gauge`], ...) rather than holding a reference.
pub struct Registry {
    enabled: AtomicBool,
    pub(crate) metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }
}

/// The global registry instance.
pub(crate) fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Is metric collection on? One relaxed load — instrumentation sites check
/// this before creating handles or reading clocks.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Turn collection on or off process-wide.
pub fn set_enabled(on: bool) {
    global().enabled.store(on, Ordering::Relaxed);
}

/// Zero every registered metric in place. Registrations (and any cached
/// handles — instrumented crates hold theirs in `OnceLock` statics) stay
/// valid and keep writing into the same cells. Used between runs and by
/// tests.
pub fn reset() {
    let map = global().metrics.lock().unwrap();
    for metric in map.values() {
        match metric {
            Metric::Counter(c) => c.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.store(0f64.to_bits(), Ordering::Relaxed),
            Metric::Histogram(h) => {
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.count.store(0, Ordering::Relaxed);
                h.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
            }
            Metric::Span(s) => {
                s.count.store(0, Ordering::Relaxed);
                s.total_ns.store(0, Ordering::Relaxed);
                s.parents.lock().unwrap().clear();
            }
        }
    }
}

fn register<T>(
    name: &str,
    make: impl FnOnce() -> Metric,
    pick: impl FnOnce(&Metric) -> Option<T>,
) -> T {
    // Release the registry before reporting a mismatch: panicking under
    // the lock would poison it for every later registration.
    let picked = {
        let mut map = global().metrics.lock().unwrap();
        pick(map.entry(name.to_string()).or_insert_with(make))
    };
    picked.unwrap_or_else(|| panic!("metric '{name}' already registered with another type"))
}

/// Build the canonical registry key for a labeled metric:
/// `name{k1="v1",k2="v2"}` with label pairs sorted by key and `"`/`\`
/// escaped in values. Metrics differing only in labels are distinct
/// registry entries but one logical family — the Prometheus exporter
/// splits the key back apart so every labeled series shares its family's
/// `# TYPE` header and name.
///
/// Labels exist for *dimensions with bounded, code-controlled
/// cardinality* — the canonical use is the query service's per-session
/// `session` dimension, so concurrent sessions never write through the
/// same gauge cell; the service [`retire`]s a finished session's series.
/// Do not put user input in label values.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => key.push_str("\\\""),
                '\\' => key.push_str("\\\\"),
                '\n' => key.push_str("\\n"),
                c => key.push(c),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

/// Split a canonical registry key back into `(family name, label block)`.
/// Unlabeled keys return `(key, None)`.
pub(crate) fn split_labels(key: &str) -> (&str, Option<&str>) {
    match key.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}')),
        None => (key, None),
    }
}

/// Retire every series whose only label is `key="value"`: a counter's
/// count folds into the family's unlabelled series, anything else (a
/// gauge's last value) is dropped. Keeps a long-lived registry bounded when
/// label values come and go, as the query service's sessions do. Call it
/// after the last write through the series' handles: a handle still held
/// writes into a cell no export reads.
pub fn retire(key: &str, value: &str) {
    let block = labeled("", &[(key, value)]);
    let mut map = global().metrics.lock().unwrap();
    let names: Vec<String> = (map.keys())
        .filter(|k| k.ends_with(&block))
        .cloned()
        .collect();
    for name in names {
        let Some(Metric::Counter(cell)) = map.remove(&name) else {
            continue;
        };
        let total = name.strip_suffix(&block).unwrap_or(&name).to_string();
        let counted = cell.load(Ordering::Relaxed);
        let new_total = || Metric::Counter(Arc::new(AtomicU64::new(0)));
        if let Metric::Counter(c) = map.entry(total).or_insert_with(new_total) {
            c.fetch_add(counted, Ordering::Relaxed);
        }
    }
}

/// Get or create the counter `name` with a label set (one registry cell
/// per distinct label combination).
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    counter(&labeled(name, labels))
}

/// Get or create the gauge `name` with a label set.
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Gauge {
    gauge(&labeled(name, labels))
}

/// Get or create the counter `name`.
pub fn counter(name: &str) -> Counter {
    register(
        name,
        || Metric::Counter(Arc::new(AtomicU64::new(0))),
        |m| match m {
            Metric::Counter(c) => Some(Counter {
                cell: Arc::clone(c),
            }),
            _ => None,
        },
    )
}

/// Get or create the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    register(
        name,
        || Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        |m| match m {
            Metric::Gauge(g) => Some(Gauge {
                bits: Arc::clone(g),
            }),
            _ => None,
        },
    )
}

fn histogram_with(name: &str, bounds: &[f64], timing: bool) -> Histogram {
    register(
        name,
        || {
            let mut buckets = Vec::with_capacity(bounds.len() + 1);
            buckets.resize_with(bounds.len() + 1, || AtomicU64::new(0));
            Metric::Histogram(Arc::new(HistCore {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                timing,
            }))
        },
        |m| match m {
            Metric::Histogram(h) => Some(Histogram {
                core: Arc::clone(h),
            }),
            _ => None,
        },
    )
}

/// Get or create a histogram over deterministic values (exported in full
/// even without `--timings`).
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    histogram_with(name, bounds, false)
}

/// Log-spaced seconds buckets from 1µs to 10s — the shared shape for every
/// duration histogram.
pub const DURATION_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Get or create a wall-clock duration histogram (seconds). Its sum and
/// buckets are wall-clock-derived, so deterministic exports show only its
/// count.
pub fn duration_histogram(name: &str) -> Histogram {
    histogram_with(name, &DURATION_BOUNDS, true)
}

/// Record one closed span occurrence. Called by the span guard on drop.
pub(crate) fn record_span(name: &'static str, elapsed: Duration, parent: &'static str) {
    let core = register(
        name,
        || {
            Metric::Span(Arc::new(SpanCore {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                parents: Mutex::new(BTreeMap::new()),
            }))
        },
        |m| match m {
            Metric::Span(s) => Some(Arc::clone(s)),
            _ => None,
        },
    );
    core.count.fetch_add(1, Ordering::Relaxed);
    core.total_ns
        .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    *core.parents.lock().unwrap().entry(parent).or_insert(0) += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so each test uses its own metric
    // names rather than relying on `reset` (tests run concurrently).

    #[test]
    fn counter_accumulates() {
        let c = counter("test.reg.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same cell.
        assert_eq!(counter("test.reg.counter").get(), 5);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = gauge("test.reg.gauge");
        g.set(2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = histogram("test.reg.hist", &[1.0, 10.0]);
        for v in [0.5, 5.0, 50.0, 0.1] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        let map = global().metrics.lock().unwrap();
        let Some(Metric::Histogram(core)) = map.get("test.reg.hist") else {
            panic!("histogram registered");
        };
        let loads: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        assert_eq!(loads, vec![2, 1, 1]);
        assert!((f64::from_bits(core.sum_bits.load(Ordering::Relaxed)) - 55.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already registered with another type")]
    fn type_mismatch_panics() {
        counter("test.reg.mismatch");
        gauge("test.reg.mismatch");
    }

    #[test]
    fn labeled_keys_are_canonical() {
        assert_eq!(labeled("m", &[]), "m");
        assert_eq!(
            labeled("m", &[("session", "s3"), ("kind", "avg")]),
            "m{kind=\"avg\",session=\"s3\"}",
            "labels sort by key"
        );
        assert_eq!(labeled("m", &[("k", "a\"b\\c")]), "m{k=\"a\\\"b\\\\c\"}");
        assert_eq!(split_labels("m{k=\"v\"}"), ("m", Some("k=\"v\"")));
        assert_eq!(split_labels("m"), ("m", None));
    }

    #[test]
    fn labeled_series_are_distinct_cells() {
        let a = counter_with("test.reg.sessions", &[("session", "a")]);
        let b = counter_with("test.reg.sessions", &[("session", "b")]);
        a.add(3);
        b.add(5);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 5);
        let ga = gauge_with("test.reg.sgauge", &[("session", "a")]);
        let gb = gauge_with("test.reg.sgauge", &[("session", "b")]);
        ga.set(1.5);
        gb.set(-2.5);
        assert_eq!(ga.get(), 1.5);
        assert_eq!(gb.get(), -2.5);
        // Re-resolving the same label set shares the cell.
        assert_eq!(
            counter_with("test.reg.sessions", &[("session", "a")]).get(),
            3
        );
    }

    #[test]
    fn retired_series_fold_counters_and_drop_gauges() {
        let keys = || -> Vec<String> {
            let map = global().metrics.lock().unwrap();
            let ours = map.keys().filter(|k| k.starts_with("test.reg.retire"));
            ours.cloned().collect()
        };
        counter("test.reg.retire.c").add(1);
        for (s, n) in [("x", 2), ("y", 4)] {
            counter_with("test.reg.retire.c", &[("session", s)]).add(n);
            gauge_with("test.reg.retire.g", &[("session", s)]).set(0.5);
        }
        counter_with("test.reg.retire.c", &[("session", "x"), ("z", "1")]).add(8);
        retire("session", "x");
        assert_eq!(counter("test.reg.retire.c").get(), 1 + 2);
        assert_eq!(
            keys(),
            [
                "test.reg.retire.c",
                "test.reg.retire.c{session=\"x\",z=\"1\"}",
                "test.reg.retire.c{session=\"y\"}",
                "test.reg.retire.g{session=\"y\"}",
            ]
        );
        retire("session", "y");
        assert_eq!(counter("test.reg.retire.c").get(), 1 + 2 + 4);
        assert_eq!(keys().len(), 2);
    }
}
