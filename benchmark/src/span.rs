//! Benchmark-side spans around the calls into the system.
//!
//! The tracer records nothing inside the program: the measuring loop
//! hands it the two clock reads it took around a call anyway, so a
//! traced run differs from an untraced one by a `Vec` push per call.
//! Spans stay in memory until the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran, `layer.operation`.
    pub name: &'static str,
    /// Batch or request number the spans of one operation share.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part child spans cover.
    pub self_ns: u64,
}

/// An in-memory span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval under the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                id,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a span that later records nest under, and
    /// returns its result with the time it took (measured whether or
    /// not the tracer is on).
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                id,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(slot) = slot {
            self.open.pop();
            self.spans[slot].end_ns = self.ns(end);
        }
        (out, end - start)
    }

    /// Times one call as a leaf span.
    pub fn call<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, start, end);
        (out, end - start)
    }

    /// The recorded spans, in the order they started.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus the part of it its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        totals
    }

    /// The trace as one JSON document: per-name totals, then every
    /// span as `[name index, id, parent, start_ns, end_ns]` (`-1` for
    /// no parent) against a name table, which keeps a trace of 10^5
    /// spans to a few megabytes.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let spans = self
            .spans
            .iter()
            .map(|span| {
                let name = names
                    .iter()
                    .position(|n| *n == span.name)
                    .unwrap_or_else(|| {
                        names.push(span.name);
                        names.len() - 1
                    });
                Json::Arr(vec![
                    Json::from(name),
                    Json::from(span.id),
                    Json::Num(span.parent.map_or(-1.0, |p| p as f64)),
                    Json::from(span.start_ns),
                    Json::from(span.end_ns),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Json::obj([
                        ("count", Json::from(t.count)),
                        ("total_ns", Json::from(t.total_ns)),
                        ("self_ns", Json::from(t.self_ns)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("totals", Json::obj(totals)),
            (
                "names",
                Json::Arr(names.into_iter().map(Json::from).collect()),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(tracer: &Tracer, ns: u64) -> Instant {
        tracer.origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new(true);
        // phase [0, 1000) holds serve [100, 400) and serve [500, 900);
        // the second serve holds probe [600, 700).
        tracer.spans.push(Span {
            name: "phase",
            id: 0,
            parent: None,
            start_ns: 0,
            end_ns: 1000,
        });
        tracer.open.push(0);
        let (a, b) = (at(&tracer, 100), at(&tracer, 400));
        tracer.record("serve", 1, a, b);
        tracer.spans.push(Span {
            name: "serve",
            id: 2,
            parent: Some(0),
            start_ns: 500,
            end_ns: 900,
        });
        tracer.open.push(2);
        let (a, b) = (at(&tracer, 600), at(&tracer, 700));
        tracer.record("probe", 2, a, b);
        tracer.open.clear();

        let totals = tracer.totals();
        assert_eq!(
            totals["phase"],
            SpanTotals {
                count: 1,
                total_ns: 1000,
                self_ns: 300
            }
        );
        assert_eq!(
            totals["serve"],
            SpanTotals {
                count: 2,
                total_ns: 700,
                self_ns: 600
            }
        );
        assert_eq!(totals["probe"].self_ns, 100);
        assert_eq!(tracer.spans()[3].parent, Some(2));
    }

    #[test]
    fn scopes_nest_and_close() {
        let mut tracer = Tracer::new(true);
        let ((), outer) = tracer.scope("outer", 7, |t| {
            t.call("inner", 7, || std::hint::black_box(1 + 1));
        });
        tracer.call("after", 8, || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(outer >= Duration::from_nanos(spans[1].end_ns - spans[1].start_ns));
    }

    #[test]
    fn a_disabled_tracer_keeps_nothing_but_still_times() {
        let mut tracer = Tracer::new(false);
        let (value, took) = tracer.scope("outer", 0, |t| {
            t.call("inner", 0, || std::thread::sleep(Duration::from_millis(2)));
            5
        });
        assert_eq!(value, 5);
        assert!(took >= Duration::from_millis(2));
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.to_json().get("spans"), Some(&Json::Arr(vec![])));
    }
}
