//! Property test: the CSP frontier tier is a pure speedup.
//!
//! A batch of requests that share a cluster-level shape (ingress
//! cluster, destination cluster, service chain) but differ in exact
//! endpoints is served three ways — through the CSP-enabled engine
//! (where all but the first request per frontier key replay a cached
//! frontier), through an engine with the tier disabled, and by direct
//! uncached router solves. All three must agree **bit for bit**: same
//! hops, same cost, not merely "equally good".

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_clustering::Clustering;
use son_engine::{Engine, EngineConfig, EngineSnapshot, HierProvider, RouterProvider};
use son_overlay::{
    ClusterId, DelayMatrix, Health, HfcTopology, ProxyId, ServiceGraph, ServiceId, ServiceRequest,
    ServiceSet, StatusMap,
};
use son_routing::CostConfig;

const PROXIES: usize = 24;
const CLUSTERS: usize = 4;
const SERVICES: usize = 6;

fn snapshot(seed: u64) -> EngineSnapshot<DelayMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = vec![0.0; PROXIES * PROXIES];
    for i in 0..PROXIES {
        for j in (i + 1)..PROXIES {
            let d = rng.gen_range(1.0..50.0);
            values[i * PROXIES + j] = d;
            values[j * PROXIES + i] = d;
        }
    }
    let delays = DelayMatrix::from_values(PROXIES, values);
    let labels: Vec<usize> = (0..PROXIES).map(|i| i * CLUSTERS / PROXIES).collect();
    let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
    let services = (0..PROXIES)
        .map(|i| ServiceSet::from_iter([ServiceId::new(i % SERVICES)]))
        .collect();
    EngineSnapshot::new(hfc, services, delays)
}

/// [`snapshot`] under load: a transit cluster's border `Down`, another's
/// `Draining`, and every proxy busy enough that proxy and cluster
/// penalties are non-zero — the router then prices every border link
/// through `LoadAwareDelays` and every cluster through `ClusterLoad`.
fn loaded_snapshot(seed: u64) -> EngineSnapshot<DelayMatrix> {
    let snap = snapshot(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD);
    let mut statuses = StatusMap::all_up(PROXIES);
    for i in 0..PROXIES {
        statuses.set_utilization(ProxyId::new(i), rng.gen_range(0.5..0.95));
    }
    let border = |from: usize, to: usize| {
        snap.hfc()
            .border(ClusterId::new(from), ClusterId::new(to))
            .local
    };
    statuses.set_health(border(1, 0), Health::Down);
    statuses.set_health(border(2, 3), Health::Draining);
    snap.with_statuses(statuses, CostConfig::balanced())
}

/// Every cross-cluster (source, destination) pair between two cluster
/// member ranges, all carrying the same chain — one shape, many exact
/// keys.
fn shape_batch(
    sources: std::ops::Range<usize>,
    dests: std::ops::Range<usize>,
    chain: &[usize],
) -> Vec<ServiceRequest> {
    let mut batch = Vec::new();
    for s in sources {
        for d in dests.clone() {
            batch.push(ServiceRequest::new(
                ProxyId::new(s),
                ServiceGraph::linear(chain.iter().map(|&k| ServiceId::new(k)).collect()),
                ProxyId::new(d),
            ));
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn csp_tier_routes_are_bit_identical_to_uncached_solves(
        seed in 0u64..500,
        chain in proptest::collection::vec(0usize..SERVICES, 1..4),
    ) {
        // Cluster 0 is proxies 0..6, cluster 3 is proxies 18..24.
        let batch = shape_batch(0..6, 18..24, &chain);

        let with_csp = Engine::new(snapshot(seed), HierProvider::default(), EngineConfig::default());
        let without = Engine::new(
            snapshot(seed),
            HierProvider::default(),
            EngineConfig { csp_cache: false, ..EngineConfig::default() },
        );
        let a = with_csp.serve(&batch);
        let b = without.serve(&batch);

        // The tier actually engaged: 36 distinct exact keys collapse
        // onto at most 7 frontier keys (one per border source plus the
        // shared unknown-source class), so most solves replay.
        prop_assert!(a.report.cache.csp_hits > 0, "no frontier reuse happened");
        prop_assert_eq!(a.report.cache.hits, 0, "exact keys are all distinct");

        // Bit-identical to the tier-less engine...
        prop_assert_eq!(&a.paths, &b.paths);

        // ...and to direct, cache-free router solves: same hops, same
        // cost, request by request.
        let snap = snapshot(seed);
        let provider = HierProvider::default();
        let router = provider.router(&snap);
        for (request, served) in batch.iter().zip(&a.paths) {
            let direct = router.route_path(request);
            prop_assert_eq!(served, &direct);
            if let (Ok(served), Ok(direct)) = (served.as_ref(), direct.as_ref()) {
                let cost_a = served.length(snap.delays());
                let cost_b = direct.length(snap.delays());
                prop_assert!(cost_a == cost_b, "cost deviated: {} vs {}", cost_a, cost_b);
            }
        }
    }

    #[test]
    fn csp_tier_is_invisible_on_repeated_batches(
        seed in 0u64..500,
        chain in proptest::collection::vec(0usize..SERVICES, 1..4),
    ) {
        // Exact-key hits still shadow the CSP tier: a repeated batch
        // must hit tier 1 and never re-enter the frontier path.
        let batch = shape_batch(0..6, 12..18, &chain);
        let engine = Engine::new(snapshot(seed), HierProvider::default(), EngineConfig::default());
        let cold = engine.serve(&batch);
        let warm = engine.serve(&batch);
        prop_assert_eq!(warm.report.cache.hits as usize, batch.len());
        prop_assert_eq!(warm.report.cache.csp_hits, 0);
        prop_assert_eq!(warm.report.cache.csp_misses, 0);
        prop_assert_eq!(&warm.paths, &cold.paths);
    }

    /// The same equivalence on a snapshot with statuses attached — a
    /// `Down` border priced `+∞`, a `Draining` one, loaded clusters —
    /// which is how the serving engine runs under churn.
    #[test]
    fn csp_tier_is_bit_identical_under_health_and_load(
        seed in 0u64..500,
        chain in proptest::collection::vec(0usize..SERVICES, 1..4),
    ) {
        let batch = shape_batch(0..6, 18..24, &chain);
        let with_csp =
            Engine::new(loaded_snapshot(seed), HierProvider::default(), EngineConfig::default());
        let without = Engine::new(
            loaded_snapshot(seed),
            HierProvider::default(),
            EngineConfig { csp_cache: false, ..EngineConfig::default() },
        );
        let a = with_csp.serve(&batch);
        let b = without.serve(&batch);
        prop_assert!(a.report.cache.csp_hits > 0, "no frontier reuse happened");
        prop_assert_eq!(&a.paths, &b.paths);
        prop_assert_eq!(&a.dispositions, &b.dispositions);

        let snap = loaded_snapshot(seed);
        let provider = HierProvider::default();
        let router = provider.router(&snap);
        for (request, served) in batch.iter().zip(&a.paths) {
            // Where the router has an answer the engine serves exactly
            // it; where it has none the engine may fail over.
            if let Ok(direct) = router.route_path(request) {
                prop_assert_eq!(served.as_ref(), Ok(&direct));
                let served = served.as_ref().expect("compared equal to an Ok");
                let cost_a = served.length(&snap.route_delays());
                let cost_b = direct.length(&snap.route_delays());
                prop_assert!(cost_a.to_bits() == cost_b.to_bits());
            }
        }
    }
}
