//! Metric registry: named counters, gauges, and histograms.
//!
//! Registration (name lookup) takes a mutex, but the returned handles
//! are `Arc`-backed atomics, so the hot path — incrementing a counter or
//! recording a latency — is lock-free. Instrumented code should fetch
//! handles once per batch (or cache them) rather than re-registering per
//! event.
//!
//! Keys are `(name, sorted labels)`; the registry stores them in a
//! `BTreeMap` so exporters walk metrics in a stable order and snapshots
//! diff cleanly across runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter handle. Clones share storage.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge handle. Clones share storage.
#[derive(Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a detached gauge (not registered anywhere).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Identifies one metric series: a dotted name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `engine.cache.hits`.
    pub name: String,
    /// Label pairs, sorted by key at construction.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting labels so equivalent series collide.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders the key as `name` or `name{k="v",...}` — the form used
    /// for JSON snapshot keys.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time value of one metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// A named collection of metrics.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        key: MetricKey,
        wrap: impl FnOnce(T) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> T,
    ) -> T {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(existing) = metrics.get(&key) {
            return unwrap(existing).unwrap_or_else(|| {
                panic!(
                    "metric {} already registered with another type",
                    key.render()
                )
            });
        }
        let handle = make();
        metrics.insert(key, wrap(handle.clone()));
        handle
    }

    /// Gets or creates the counter `name` (no labels).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Gets or creates the counter `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_insert(
            MetricKey::new(name, labels),
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Gets or creates the gauge `name` (no labels).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gets or creates the gauge `name` with `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_insert(
            MetricKey::new(name, labels),
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Gets or creates the histogram `name` (no labels).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Gets or creates the histogram `name` with `labels`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_insert(
            MetricKey::new(name, labels),
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// Captures every registered series in key order.
    pub fn snapshot(&self) -> Vec<(MetricKey, MetricValue)> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(key, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (key.clone(), value)
            })
            .collect()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented subsystem records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Globally enables or disables telemetry recording. Instrumentation
/// sites check [`enabled`] before touching the registry, so disabling
/// reduces overhead to a single relaxed load — this is what the
/// benchmark's `--trace` run toggles to measure instrumentation cost.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is currently enabled (default: yes).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_survive_four_threads_hammering() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // Re-fetching the handle per iteration also exercises
                    // concurrent get-or-create on the same key.
                    for _ in 0..10_000 {
                        reg.counter("test.hits").add(1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("test.hits").get(), 40_000);
    }

    #[test]
    fn labeled_series_are_distinct_and_label_order_is_canonical() {
        let reg = Registry::new();
        reg.counter_with("c", &[("worker", "0")]).add(3);
        reg.counter_with("c", &[("worker", "1")]).add(5);
        // Same labels in a different order hit the same series.
        reg.counter_with("d", &[("a", "1"), ("b", "2")]).add(1);
        reg.counter_with("d", &[("b", "2"), ("a", "1")]).add(1);
        assert_eq!(reg.counter_with("c", &[("worker", "0")]).get(), 3);
        assert_eq!(reg.counter_with("c", &[("worker", "1")]).get(), 5);
        assert_eq!(reg.counter_with("d", &[("a", "1"), ("b", "2")]).get(), 2);
    }

    #[test]
    fn snapshot_walks_keys_in_stable_order() {
        let reg = Registry::new();
        reg.gauge("z.last").set(1.0);
        reg.counter("a.first").add(1);
        reg.histogram("m.middle").record(2.0);
        let names: Vec<String> = reg
            .snapshot()
            .into_iter()
            .map(|(k, _)| k.render())
            .collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        reg.gauge("x").set(1.0);
    }
}
