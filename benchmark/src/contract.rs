//! The metrics `BENCHMARK.json` declares, as the binaries know them.
//! A test holds the two lists together.

/// An end-to-end metric and the bound by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may worsen.
    pub bound: f64,
    /// Repeats exactly between runs of one commit and one seed.
    pub exact: bool,
}

impl EndToEnd {
    /// By what share of `reference` the value `other` is worse
    /// (negative when it is better).
    pub fn worsening(&self, reference: f64, other: f64) -> f64 {
        let change = (other - reference) / reference;
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact,
    }
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("rps", "req/s", true, 0.25, false),
    e2e("single_p50_us", "us", false, 0.25, false),
    e2e("single_p95_us", "us", false, 0.25, false),
    e2e("served_share", "fraction", true, 0.001, true),
    e2e("path_stretch", "ratio", false, 0.005, true),
    e2e("peak_rss_mb", "MB", false, 0.05, false),
    e2e("setup_s", "s", false, 0.25, false),
];

/// The per-layer metrics of a traced run: name, unit, higher is better.
pub const PER_LAYER: [(&str, &str, bool); 49] = [
    ("core.build_total_ms", "ms", false),
    ("netsim.topology_ms", "ms", false),
    ("coords.embedding_ms", "ms", false),
    ("clustering.mst_zahn_ms", "ms", false),
    ("overlay.hfc_ms", "ms", false),
    ("core.attach_ms", "ms", false),
    ("overlay.hierarchy_ms", "ms", false),
    ("state.tree_wall_s", "s", false),
    ("state.tree_us_per_msg", "us", false),
    ("state.tree_messages", "count", false),
    ("state.tree_sim_ms", "ms", false),
    ("state.stale_entries", "count", false),
    ("routing.router_build_us", "us", false),
    ("routing.hier_route_us", "us", false),
    ("routing.flat_route_us", "us", false),
    ("routing.multilevel_route_us", "us", false),
    ("routing.csp_solve_us", "us", false),
    ("routing.csp_replay_us", "us", false),
    ("engine.batch_overhead_us", "us", false),
    ("engine.warm_ns_per_req", "ns", false),
    ("engine.cache.key_encode_ns", "ns", false),
    ("engine.cache.exact_lookup_ns", "ns", false),
    ("engine.cache.exact_insert_ns", "ns", false),
    ("engine.cache.csp_lookup_ns", "ns", false),
    ("engine.cache.negative_lookup_ns", "ns", false),
    ("engine.cache.exact_hit_ratio", "ratio", true),
    ("engine.cache.csp_hit_ratio", "ratio", true),
    ("engine.cache.stale_served", "count", true),
    ("engine.cache.revalidations", "count", false),
    ("engine.cache.stale_drops", "count", false),
    ("engine.cache.negative_hits", "count", true),
    ("engine.cache.evictions", "count", false),
    ("engine.admission.rejected", "count", false),
    ("engine.admission.degraded", "count", false),
    ("engine.admission.retries", "count", false),
    ("engine.admission.health_drops", "count", false),
    ("engine.snapshot_build_us", "us", false),
    ("engine.install_us", "us", false),
    ("engine.set_health_us", "us", false),
    ("engine.post_install_batch_us", "us", false),
    ("engine.steady_batch_us", "us", false),
    ("engine.shard_imbalance_w8", "ratio", false),
    ("engine.unattributed_pct", "%", false),
    ("telemetry.on_overhead_pct", "%", false),
    ("telemetry.flight_overhead_pct", "%", false),
    ("telemetry.hist_record_ns", "ns", false),
    ("telemetry.flight_record_ns", "ns", false),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.traced_rps", "req/s", true),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::SPECS;

    fn declared() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        match entry.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_the_workloads_the_binaries_run() {
        let doc = declared();
        let names: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::args::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn benchmark_json_declares_the_end_to_end_metrics_and_bounds() {
        let doc = declared();
        let listed: Vec<(&str, &str, bool, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better") == "higher",
                    m.get("bound").and_then(Json::as_f64).expect("a bound"),
                )
            })
            .collect();
        let known: Vec<(&str, &str, bool, f64)> = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit, e.higher_is_better, e.bound))
            .collect();
        assert_eq!(listed, known);
        let largest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[6].name, "setup_s");
        assert_eq!(
            END_TO_END[6].bound, largest,
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn benchmark_json_declares_the_per_layer_metrics() {
        let doc = declared();
        let listed: Vec<(&str, &str, bool)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better") == "higher",
                )
            })
            .collect();
        assert_eq!(listed, PER_LAYER);
    }

    #[test]
    fn worsening_follows_the_direction() {
        let rps = END_TO_END[0];
        assert!((rps.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(rps.worsening(100.0, 110.0) < 0.0);
        let p50 = END_TO_END[1];
        assert!((p50.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
    }
}
