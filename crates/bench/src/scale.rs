//! Scale-out sweep: staged builds and recursive multi-level routing
//! at 1k/10k/50k proxies.
//!
//! For each size the driver
//!
//! 1. builds the overlay on **one** thread and again on the requested
//!    worker count, records per-stage wall time for both, and verifies
//!    the two snapshots are bit-identical (the embedding fan-out is
//!    an optimization, never a semantic change), and reads the border
//!    election's work count off the topology;
//! 2. builds the cluster hierarchy at depth 2 (the paper's bi-level
//!    HFC) and depth 3, recording mean per-proxy state by level count;
//! 3. routes a fixed batch over the recursive [`MultiLevelRouter`] and
//!    — at sizes where it is affordable — over the flat global-view
//!    router, recording the cost ratio to the flat optimum;
//! 4. asserts the bounded true-delay cache held its row cap.
//!
//! The `scale` bin renders the rows and writes
//! `results/BENCH_scale.json`.

use crate::json::Json;
use son_core::{
    BuildStage, ElectionWork, Environment, FlatRouter, HfcTopology, HierarchyConfig, ProviderIndex,
    Router, ServiceOverlay, SonConfig,
};
use std::time::{Duration, Instant};

/// Sweep settings.
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Overlay sizes to sweep.
    pub sizes: Vec<usize>,
    /// Worker threads for the parallel build (`0` = all cores).
    pub threads: usize,
    /// World seed.
    pub seed: u64,
    /// Requests routed per size.
    pub requests: usize,
    /// Largest size at which the flat-optimum comparison runs (the
    /// flat router touches every provider of every service, which
    /// stops being affordable long before the builds do).
    pub flat_cost_cap: usize,
}

impl ScaleOptions {
    /// The paper-scale sweep: 1k/10k/50k proxies.
    pub fn full(threads: usize, seed: u64) -> Self {
        ScaleOptions {
            sizes: vec![1_000, 10_000, 50_000],
            threads,
            seed,
            requests: 30,
            flat_cost_cap: 10_000,
        }
    }

    /// A CI-sized smoke sweep: one 1k build.
    pub fn smoke(threads: usize, seed: u64) -> Self {
        ScaleOptions {
            sizes: vec![1_000],
            threads,
            seed,
            requests: 30,
            flat_cost_cap: 10_000,
        }
    }
}

/// Wall time of one build, per stage.
#[derive(Debug, Clone)]
pub struct BuildTimes {
    /// Stage name → wall time, in pipeline order.
    pub stages: Vec<(&'static str, Duration)>,
    /// End-to-end wall time.
    pub total: Duration,
}

impl BuildTimes {
    /// Wall time of the one stage the build parallelizes (the per-host
    /// embedding solves).
    pub fn parallelized(&self) -> Duration {
        self.stages
            .iter()
            .filter(|&&(name, _)| name == PARALLEL_STAGE)
            .map(|&(_, d)| d)
            .sum()
    }
}

/// The stage `SonConfig::threads` fans out across workers.
pub const PARALLEL_STAGE: &str = "embedding";

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Overlay size.
    pub proxies: usize,
    /// Base clusters found.
    pub clusters: usize,
    /// Level-2 groups of the depth-3 hierarchy.
    pub superclusters: usize,
    /// Worker threads used by the parallel build.
    pub threads: usize,
    /// Stage times of the single-threaded build.
    pub sequential: BuildTimes,
    /// Stage times of the multi-threaded build.
    pub parallel: BuildTimes,
    /// Wall-time ratio (sequential / parallel) over the parallelized
    /// stage only.
    pub stage_speedup: f64,
    /// Delay evaluations and box tests the HFC border election spent.
    pub election: ElectionWork,
    /// What an exhaustive election evaluates: Σ |Cᵢ|·|Cⱼ| over all
    /// cluster pairs.
    pub cross_pairs: u64,
    /// Both builds produced bit-identical snapshots (hard-asserted by
    /// the driver; recorded so the artifact is self-describing).
    pub snapshot_equal: bool,
    /// Mean per-proxy (coordinate, service) state at depth 2.
    pub state_depth2: (f64, f64),
    /// Mean per-proxy (coordinate, service) state at depth 3.
    pub state_depth3: (f64, f64),
    /// Requests attempted / routed by the multi-level router.
    pub routed: (usize, usize),
    /// Path-validity violations among routed paths (must be 0).
    pub violations: usize,
    /// Mean measured (true-delay) latency of the routed paths, in ms —
    /// priced through the bounded cache so the row cap is exercised
    /// under real lookups, not just asserted on an idle cache.
    pub true_ms_mean: f64,
    /// Mean multi-level path cost over the requests both routers
    /// solved, divided by the flat-optimum mean (predicted delays);
    /// `None` when the size exceeded `flat_cost_cap`.
    pub cost_vs_flat: Option<f64>,
    /// Row cap on the true-delay cache.
    pub delay_rows_limit: usize,
    /// Memoized rows at the end of the run (≤ the cap, asserted).
    pub delay_rows_computed: usize,
    /// Rows evicted to stay under the cap.
    pub delay_rows_evicted: u64,
}

fn timings_of(overlay: &ServiceOverlay, total: Duration) -> BuildTimes {
    BuildTimes {
        stages: BuildStage::ALL
            .iter()
            .map(|&s| (s.name(), overlay.stats().timings.get(s)))
            .collect(),
        total,
    }
}

fn config_for(proxies: usize, seed: u64, threads: usize) -> SonConfig {
    let mut config = SonConfig::from_environment(Environment::scaled(proxies, seed));
    config.delay_rows_limit = Some(delay_rows_limit(proxies));
    config.threads = threads;
    config
}

/// The row cap the sweep imposes on the lazy true-delay cache: enough
/// rows to evaluate paths, far below the O(n²) full matrix.
pub fn delay_rows_limit(proxies: usize) -> usize {
    (proxies / 100).max(64)
}

/// Runs one size of the sweep.
///
/// # Panics
///
/// Panics if the parallel build diverges from the sequential build, or
/// if the bounded delay cache exceeds its row cap — both are
/// correctness bars, not observations.
pub fn scale_row(proxies: usize, opts: &ScaleOptions) -> ScaleRow {
    let t0 = Instant::now();
    let sequential = ServiceOverlay::build(&config_for(proxies, opts.seed, 1));
    let seq_total = t0.elapsed();

    let t1 = Instant::now();
    let overlay = ServiceOverlay::build(&config_for(proxies, opts.seed, opts.threads));
    let par_total = t1.elapsed();

    let snapshot_equal = sequential.engine_snapshot().digest()
        == overlay.engine_snapshot().digest()
        && sequential.hfc().snapshot() == overlay.hfc().snapshot();
    assert!(
        snapshot_equal,
        "parallel build diverged from the sequential build at {proxies} proxies"
    );
    let sequential_times = timings_of(&sequential, seq_total);
    // Two full worlds at 50k proxies is the peak of the sweep's memory
    // footprint; release the sequential one as soon as it has been
    // compared and timed.
    drop(sequential);
    let parallel_times = timings_of(&overlay, par_total);

    let hierarchy2 = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 2);
    let hierarchy3 = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3);
    let state_depth2 = hierarchy2.mean_overheads(overlay.hfc());
    let state_depth3 = hierarchy3.mean_overheads(overlay.hfc());

    let router = overlay.multilevel_router(&hierarchy3);
    let requests = overlay.generate_client_requests(opts.requests, opts.seed ^ 0xF00D);
    let mut routed = 0usize;
    let mut violations = 0usize;
    let mut ml_paths = Vec::new();
    for request in &requests {
        if let Ok(path) = router.route_path(request) {
            routed += 1;
            if path
                .validate(request, |p, s| overlay.carries(p, s))
                .is_err()
            {
                violations += 1;
            }
            ml_paths.push((request, path));
        }
    }
    let true_ms_mean = if ml_paths.is_empty() {
        0.0
    } else {
        ml_paths
            .iter()
            .map(|(_, p)| overlay.true_length(p))
            .sum::<f64>()
            / ml_paths.len() as f64
    };

    let cost_vs_flat = (proxies <= opts.flat_cost_cap).then(|| {
        let providers = ProviderIndex::from_service_sets(overlay.services());
        let flat = FlatRouter::new(providers, overlay.predicted_delays());
        let (mut ml_total, mut flat_total, mut n) = (0.0, 0.0, 0usize);
        for (request, ml_path) in &ml_paths {
            let Ok(flat_path) = flat.route_path(request) else {
                continue;
            };
            ml_total += ml_path.length(overlay.predicted_delays());
            flat_total += flat_path.length(overlay.predicted_delays());
            n += 1;
        }
        if n == 0 || flat_total <= 0.0 {
            1.0
        } else {
            ml_total / flat_total
        }
    });

    let limit = delay_rows_limit(proxies);
    let computed = overlay.true_delays().computed_rows();
    assert!(
        computed <= limit,
        "delay cache exceeded its bound at {proxies} proxies: {computed} > {limit}"
    );

    ScaleRow {
        proxies,
        clusters: overlay.hfc().cluster_count(),
        superclusters: hierarchy3.unit_count(hierarchy3.top_level()),
        threads: opts.threads,
        stage_speedup: speedup(&sequential_times, &parallel_times),
        election: overlay.hfc().election_work(),
        cross_pairs: cross_pairs(overlay.hfc()),
        sequential: sequential_times,
        parallel: parallel_times,
        snapshot_equal,
        state_depth2,
        state_depth3,
        routed: (requests.len(), routed),
        violations,
        true_ms_mean,
        cost_vs_flat,
        delay_rows_limit: limit,
        delay_rows_computed: computed,
        delay_rows_evicted: overlay.true_delays().evicted_rows(),
    }
}

/// Σ |Cᵢ|·|Cⱼ| over all cluster pairs `i < j`: `(n² − Σ|C|²) / 2`.
fn cross_pairs(hfc: &HfcTopology) -> u64 {
    let n = hfc.proxy_count() as u64;
    let squares: u64 = hfc
        .clusters()
        .map(|c| (hfc.members(c).len() as u64).pow(2))
        .sum();
    (n * n - squares) / 2
}

fn speedup(sequential: &BuildTimes, parallel: &BuildTimes) -> f64 {
    let s = sequential.parallelized().as_secs_f64();
    let p = parallel.parallelized().as_secs_f64();
    if p <= 0.0 {
        1.0
    } else {
        s / p
    }
}

/// Runs the whole sweep.
pub fn scale_sweep(opts: &ScaleOptions) -> Vec<ScaleRow> {
    opts.sizes.iter().map(|&n| scale_row(n, opts)).collect()
}

/// Renders one row as a bench-artifact JSON object.
pub fn scale_row_json(row: &ScaleRow) -> Json {
    let stage_obj = |times: &BuildTimes| {
        let mut pairs: Vec<(&'static str, Json)> = times
            .stages
            .iter()
            .map(|&(name, d)| (name, Json::from(d.as_micros() as u64)))
            .collect();
        pairs.push(("total", Json::from(times.total.as_micros() as u64)));
        Json::obj(pairs)
    };
    Json::obj([
        ("proxies", Json::from(row.proxies)),
        ("clusters", Json::from(row.clusters)),
        ("superclusters", Json::from(row.superclusters)),
        ("threads", Json::from(row.threads)),
        ("seq_stage_us", stage_obj(&row.sequential)),
        ("par_stage_us", stage_obj(&row.parallel)),
        ("stage_speedup", Json::from(row.stage_speedup)),
        (
            "election",
            Json::obj([
                (
                    "pair_evaluations",
                    Json::from(row.election.pair_evaluations),
                ),
                ("box_tests", Json::from(row.election.box_tests)),
                ("cross_pairs", Json::from(row.cross_pairs)),
            ]),
        ),
        ("snapshot_equal", Json::Bool(row.snapshot_equal)),
        (
            "state_per_proxy",
            Json::obj([
                (
                    "depth2",
                    Json::obj([
                        ("coords", Json::from(row.state_depth2.0)),
                        ("services", Json::from(row.state_depth2.1)),
                    ]),
                ),
                (
                    "depth3",
                    Json::obj([
                        ("coords", Json::from(row.state_depth3.0)),
                        ("services", Json::from(row.state_depth3.1)),
                    ]),
                ),
            ]),
        ),
        (
            "routing",
            Json::obj([
                ("requests", Json::from(row.routed.0)),
                ("routed", Json::from(row.routed.1)),
                ("violations", Json::from(row.violations)),
                ("true_ms_mean", Json::from(row.true_ms_mean)),
                (
                    "cost_vs_flat",
                    match row.cost_vs_flat {
                        Some(r) => Json::from(r),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        (
            "delay_rows",
            Json::obj([
                ("limit", Json::from(row.delay_rows_limit)),
                ("computed", Json::from(row.delay_rows_computed)),
                ("evicted", Json::from(row.delay_rows_evicted)),
            ]),
        ),
    ])
}
