//! Serving metrics: throughput, latency percentiles, cache behavior,
//! and per-border-proxy load.

use crate::cache::CacheStats;
use son_overlay::ProxyId;

/// Admission/degradation accounting for one batch.
///
/// `optimal + degraded + rejected` always equals the batch size, and
/// `rejected` equals the sum of its three reason counters — every
/// request is disposed of exactly once, never silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Served on the first attempt through healthy, unsaturated
    /// proxies.
    pub optimal: u64,
    /// Served after a retry/re-route or across a `Draining` proxy.
    pub degraded: u64,
    /// Shed (all reasons).
    pub rejected: u64,
    /// Shed: ingress cluster had no `Up` proxy.
    pub rejected_no_ingress: u64,
    /// Shed: out of capacity on every viable path.
    pub rejected_overloaded: u64,
    /// Shed: no feasible healthy path.
    pub rejected_unroutable: u64,
    /// Re-route attempts across the batch.
    pub retries: u64,
    /// Cache hits dropped because live health forbade a hop
    /// (epoch-independent invalidation).
    pub health_drops: u64,
}

impl AdmissionStats {
    /// Requests served (either class).
    pub fn served(&self) -> u64 {
        self.optimal + self.degraded
    }

    /// `optimal + degraded + rejected` — must equal the batch size.
    pub fn total(&self) -> u64 {
        self.optimal + self.degraded + self.rejected
    }
}

/// Request-latency summary in microseconds.
///
/// Batch summaries come from the telemetry histogram (see
/// [`LatencySummary::from_histogram`]): percentiles are log-bucketed,
/// so each may read up to one bucket width — `2^(1/8) − 1 ≈ 9.05%` —
/// above the exact sorted-sample value, while `max_us` is exact and
/// `p50 ≤ p90 ≤ p99 ≤ max` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes a batch of per-request latencies (microseconds).
    /// Percentiles use nearest-rank on the sorted sample; an empty
    /// batch summarizes to all zeros.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = |q: f64| sorted[((q * (sorted.len() - 1) as f64).round()) as usize];
        LatencySummary {
            p50_us: rank(0.50),
            p90_us: rank(0.90),
            p99_us: rank(0.99),
            mean_us: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_us: sorted[sorted.len() - 1],
        }
    }

    /// Summarizes a telemetry histogram — the engine's batch path.
    ///
    /// Unlike [`LatencySummary::from_samples`] (exact, needs the full
    /// sample vector), this reads a log-bucketed histogram, with the
    /// bucket error bound documented on the type: percentiles
    /// overestimate by at most `2^(1/8) − 1 ≈ 9.05%`
    /// ([`son_telemetry::RELATIVE_ERROR_BOUND`]); mean and max are
    /// exact.
    pub fn from_histogram(hist: &son_telemetry::LocalHistogram) -> Self {
        let snap = hist.summary();
        LatencySummary {
            p50_us: snap.p50,
            p90_us: snap.p90,
            p99_us: snap.p99,
            mean_us: if snap.count == 0 {
                0.0
            } else {
                snap.sum / snap.count as f64
            },
            max_us: snap.max,
        }
    }
}

/// Where one worker's wall-clock went while serving its batch share.
/// All figures are microseconds summed over the worker's requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Worker index within the batch.
    pub worker: usize,
    /// Requests this worker served (its shard of the batch).
    pub requests: u64,
    /// Total time the worker spent in its serving loop, including the
    /// post-loop revalidation pass.
    pub busy_us: f64,
    /// Wall time between this worker finishing and the whole batch
    /// finishing — the cost of shard imbalance.
    pub idle_us: f64,
    /// Route computation: CSP solves, frontier replays, fallback
    /// re-routes. Zero when telemetry is disabled.
    pub route_us: f64,
    /// Admission and health validation. Zero when telemetry is
    /// disabled.
    pub admit_us: f64,
    /// Cache lookups and negative-cache probes. Zero when telemetry is
    /// disabled.
    pub cache_us: f64,
}

/// Everything the engine measured while serving one batch.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The provider's router name ("flat", "hier", "multilevel").
    pub router: &'static str,
    /// Worker threads used.
    pub workers: usize,
    /// Epoch of the snapshot the batch was served under.
    pub epoch: u64,
    /// Requests in the batch.
    pub requests: usize,
    /// Requests that failed to route.
    pub errors: usize,
    /// Wall-clock time for the whole batch, seconds.
    pub elapsed_secs: f64,
    /// `requests / elapsed_secs`.
    pub requests_per_sec: f64,
    /// Per-request service latency.
    pub latency: LatencySummary,
    /// Cache counters for this batch only (deltas, not lifetime).
    pub cache: CacheStats,
    /// How many served paths crossed each border proxy, indexed by
    /// proxy. Non-border proxies always read zero.
    pub border_load: Vec<u64>,
    /// Admission/degradation accounting (all zeros when the batch ran
    /// unconstrained).
    pub admission: AdmissionStats,
    /// Admitted requests per proxy (empty unless admission control ran;
    /// each entry is ≤ the proxy's capacity by construction).
    pub admitted_load: Vec<u64>,
    /// Per-worker time attribution, one entry per worker. `route_us` /
    /// `admit_us` / `cache_us` are populated only while telemetry is
    /// enabled; the wall-clock fields are always measured.
    pub worker_stats: Vec<WorkerStats>,
}

impl ServeReport {
    /// Border proxies ranked by load, busiest first (zero-load borders
    /// are omitted).
    pub fn busiest_borders(&self) -> Vec<(ProxyId, u64)> {
        let mut ranked: Vec<(ProxyId, u64)> = self
            .border_load
            .iter()
            .enumerate()
            .filter(|(_, &load)| load > 0)
            .map(|(i, &load)| (ProxyId::new(i), load))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_on_known_samples() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let summary = LatencySummary::from_samples(&samples);
        assert_eq!(summary.p50_us, 51.0);
        assert_eq!(summary.p90_us, 90.0);
        assert_eq!(summary.p99_us, 99.0);
        assert_eq!(summary.max_us, 100.0);
        assert!((summary.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_of_nothing_is_zero() {
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
    }

    #[test]
    fn histogram_percentiles_are_ordered_and_bounded() {
        let mut hist = son_telemetry::LocalHistogram::new();
        // Heavy-tailed sample: mostly fast, occasional slow requests.
        let samples: Vec<f64> = (1..=500)
            .map(|i| {
                if i % 50 == 0 {
                    i as f64 * 37.0
                } else {
                    i as f64
                }
            })
            .collect();
        for &s in &samples {
            hist.record(s);
        }
        let summary = LatencySummary::from_histogram(&hist);
        assert!(
            summary.p50_us <= summary.p90_us
                && summary.p90_us <= summary.p99_us
                && summary.p99_us <= summary.max_us,
            "percentiles out of order: {summary:?}"
        );
        // Against exact nearest-rank values: within one bucket width.
        let exact = LatencySummary::from_samples(&samples);
        for (bucketed, exact) in [
            (summary.p50_us, exact.p50_us),
            (summary.p90_us, exact.p90_us),
            (summary.p99_us, exact.p99_us),
        ] {
            assert!(
                bucketed >= exact - 1e-9,
                "bucketed {bucketed} < exact {exact}"
            );
            assert!(
                bucketed <= exact * (1.0 + son_telemetry::RELATIVE_ERROR_BOUND) + 1.0,
                "bucketed {bucketed} too far above exact {exact}"
            );
        }
        assert_eq!(summary.max_us, exact.max_us);
        assert!((summary.mean_us - exact.mean_us).abs() < 1e-6 * exact.mean_us);
    }

    #[test]
    fn busiest_borders_ranks_and_filters() {
        let report = ServeReport {
            router: "hier",
            workers: 1,
            epoch: 0,
            requests: 0,
            errors: 0,
            elapsed_secs: 0.0,
            requests_per_sec: 0.0,
            latency: LatencySummary::default(),
            cache: CacheStats::default(),
            border_load: vec![0, 5, 0, 9, 5],
            admission: AdmissionStats::default(),
            admitted_load: Vec::new(),
            worker_stats: Vec::new(),
        };
        assert_eq!(
            report.busiest_borders(),
            vec![
                (ProxyId::new(3), 9),
                (ProxyId::new(1), 5),
                (ProxyId::new(4), 5),
            ]
        );
    }
}
