//! Exporters: Prometheus-style text exposition and JSON snapshots.
//!
//! Both walk a [`Registry`] snapshot (stable key order). The JSON
//! exporter reuses the workspace's canonical [`Json`] emitter so the
//! snapshot file diffs exactly like the bench artifacts under
//! `results/`.

use std::path::Path;

use crate::json::Json;
use crate::registry::{MetricValue, Registry};

/// Maps a dotted metric name onto the Prometheus charset
/// (`[a-zA-Z0-9_:]`): every other character becomes `_`.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), v))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn render_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the registry in Prometheus text exposition format.
/// Histograms export as summaries (`quantile` labels plus `_sum`,
/// `_count`, and a `_max` gauge).
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_typed = String::new();
    for (key, value) in registry.snapshot() {
        let name = sanitize_name(&key.name);
        match value {
            MetricValue::Counter(v) => {
                if last_typed != name {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    last_typed = name.clone();
                }
                out.push_str(&format!("{name}{} {v}\n", render_labels(&key.labels, None)));
            }
            MetricValue::Gauge(v) => {
                if last_typed != name {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    last_typed = name.clone();
                }
                out.push_str(&format!(
                    "{name}{} {}\n",
                    render_labels(&key.labels, None),
                    render_num(v)
                ));
            }
            MetricValue::Histogram(s) => {
                if last_typed != name {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    last_typed = name.clone();
                }
                for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        render_labels(&key.labels, Some(("quantile", q))),
                        render_num(v)
                    ));
                }
                let plain = render_labels(&key.labels, None);
                out.push_str(&format!("{name}_sum{plain} {}\n", render_num(s.sum)));
                out.push_str(&format!("{name}_count{plain} {}\n", s.count));
                out.push_str(&format!("{name}_max{plain} {}\n", render_num(s.max)));
            }
        }
    }
    out
}

/// Builds the JSON snapshot object: `{"snapshot": "son-telemetry",
/// "metrics": {<rendered key>: <value>, ...}}`. Histogram values are
/// objects with `count`/`sum`/`p50`/`p90`/`p99`/`max`.
fn snapshot_json(registry: &Registry) -> Json {
    let metrics: Vec<(String, Json)> = registry
        .snapshot()
        .into_iter()
        .map(|(key, value)| {
            let json = match value {
                MetricValue::Counter(v) => Json::Num(v as f64),
                MetricValue::Gauge(v) => Json::Num(v),
                MetricValue::Histogram(s) => Json::obj([
                    ("count", Json::from(s.count)),
                    ("sum", Json::Num(s.sum)),
                    ("p50", Json::Num(s.p50)),
                    ("p90", Json::Num(s.p90)),
                    ("p99", Json::Num(s.p99)),
                    ("max", Json::Num(s.max)),
                ]),
            };
            (key.render(), json)
        })
        .collect();
    Json::obj([
        ("snapshot", Json::from("son-telemetry")),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Writes the JSON snapshot of `registry` to `path`.
pub fn write_json_snapshot(registry: &Registry, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, snapshot_json(registry).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("engine.cache.hits").add(42);
        // Cache-v2 keys: the CSP frontier tier and stale-while-
        // revalidate counters the engine folds per batch.
        reg.counter("engine.cache.csp_hits").add(17);
        reg.counter("engine.cache.stale_served").add(3);
        reg.counter_with("engine.errors", &[("worker", "0")]).add(1);
        reg.gauge("state.convergence_ms").set(125.5);
        // Tree-dissemination keys: a counter and a gauge, as
        // `StateProtocol` folds them.
        reg.counter("state.tree.sent").add(7);
        reg.counter("state.tree.rows_sent").add(19);
        reg.gauge("state.tree.depth").set(3.0);
        // Flight-recorder keys, as `FlightRecorder::publish` sets them.
        reg.gauge("flight.events").set(128.0);
        reg.gauge("flight.dropped").set(0.0);
        let h = reg.histogram_with("engine.serve_us", &[("worker", "0")]);
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn prometheus_text_matches_golden_file() {
        let text = render_prometheus(&demo_registry());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &text).expect("regenerate golden file");
        }
        let golden = std::fs::read_to_string(path).expect("read golden file");
        assert_eq!(
            text, golden,
            "Prometheus exposition drifted from the golden file \
             (UPDATE_GOLDEN=1 regenerates it)"
        );
    }

    #[test]
    fn json_snapshot_contains_rendered_keys() {
        let json = snapshot_json(&demo_registry()).render();
        assert!(json.contains("\"engine.cache.hits\": 42"));
        assert!(
            json.contains("engine.serve_us{worker=\\\"0\\\"}")
                || json.contains("engine.serve_us{worker=\"0\"}")
        );
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn sanitize_maps_dots_to_underscores() {
        assert_eq!(sanitize_name("engine.cache.hits"), "engine_cache_hits");
        assert_eq!(sanitize_name("span.build.hfc_us"), "span_build_hfc_us");
    }
}
