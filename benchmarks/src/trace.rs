//! In-memory spans recorded by the harness around its calls into each
//! layer (choosing-metrics §4). Nothing inside the engine is instrumented:
//! a span is two `Instant` reads in this crate, kept in a `Vec` and written
//! out once when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name — a module path of the repo, e.g. `sql.compile`.
    pub name: &'static str,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one query share this identifier.
    pub query: u64,
    /// Counts read at the same boundary (e.g. the stage buckets of
    /// `BatchReport::timing`, in microseconds).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span list; `None`-like when disabled so the untraced run pays one
/// branch per boundary.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread to fill;
    /// [`Tracer::absorb`] merges it back.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; returns its index for [`Tracer::close`] and as the
    /// `parent` of its children.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            query,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_us = self.now_us();
        }
    }

    pub fn close_with(&mut self, id: usize, counts: Vec<(&'static str, f64)>) {
        if self.enabled {
            self.spans[id].end_us = self.now_us();
            self.spans[id].counts = counts;
        }
    }

    /// Drop a span opened for a call that turned out not to happen. Only
    /// the most recently opened span can be discarded.
    pub fn discard(&mut self, id: usize) {
        if self.enabled {
            self.spans.truncate(id);
        }
    }

    /// Time one call into a layer.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Sum of one count over every span that carries it.
    pub fn count_sum(&self, key: &str) -> f64 {
        self.spans
            .iter()
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .sum()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are merged first, and a
/// child is clipped to its parent).
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut edge = f64::NEG_INFINITY;
    for (a, b) in kids {
        let a = a.max(edge);
        if b > a {
            covered += b - a;
            edge = b;
        }
    }
    me.dur_us() - covered
}

/// The span file: one JSON object per span, self time included.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out =
        format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"us\",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{:.1},\"end\":{:.1},\"self\":{:.1},\"parent\":{parent},\"query\":{}",
            s.name,
            s.start_us,
            s.end_us,
            self_time_us(spans, i),
            s.query
        );
        for (k, v) in &s.counts {
            let _ = write!(out, ",\"{k}\":{v:.1}");
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_us,
            end_us,
            parent,
            query: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_merged_children_only() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(20.0, 50.0, Some(0)),  // overlaps the previous child
            span(90.0, 120.0, Some(0)), // runs past the parent: clipped
            span(12.0, 18.0, Some(1)),  // grandchild: not subtracted from 0
        ];
        assert_eq!(self_time_us(&spans, 0), 100.0 - 40.0 - 10.0);
        assert_eq!(self_time_us(&spans, 1), 20.0 - 6.0);
        assert_eq!(self_time_us(&spans, 4), 6.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a", None, 1);
        t.close_with(id, vec![("x", 1.0)]);
        assert_eq!(t.call("b", None, 1, || 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true);
        let q = t.open("query", None, 3);
        t.call("sql.compile", Some(q), 3, || ());
        t.close_with(q, vec![("fold_us", 2.0)]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.count_sum("fold_us"), 2.0);
        assert_eq!(t.durations("sql.compile").len(), 1);
        let json = to_json("w", 9, &t.spans);
        assert!(gola_obs::json::parse(&json).is_ok(), "{json}");
    }
}
