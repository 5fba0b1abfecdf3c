//! Property test: the CSP frontier tier is a pure speedup.
//!
//! A batch of requests that share a cluster-level shape (ingress
//! cluster, destination cluster, service chain) but differ in exact
//! endpoints is served three ways — through the CSP-enabled engine
//! (where all but the first request per frontier key replay a cached
//! frontier), through an engine whose provider has no CSP seam, and by
//! direct uncached router solves. All three must agree **bit for
//! bit**: same hops, same cost, not merely "equally good".
//!
//! The same counting provider also holds the engine to one router
//! construction per worker per batch, and the snapshot's routing tables
//! to one fill per epoch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_clustering::Clustering;
use son_engine::{Engine, EngineConfig, EngineSnapshot, HierProvider, RouterProvider};
use son_overlay::{
    ClusterId, DelayMatrix, Health, HfcTopology, ProxyId, ServiceGraph, ServiceId, ServiceRequest,
    ServiceSet, StatusMap,
};
use son_routing::{
    CostConfig, CspRouter, HierConfig, HierarchicalRouter, Router, RouterTables, TraceRouter,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// [`HierProvider`] with its router constructions counted, and with
/// its CSP seam hidden when `seam` is false — the uncached oracle, since
/// the engine then routes every request through the plain router.
#[derive(Default)]
struct Counting {
    inner: HierProvider,
    seam: bool,
    /// Routers built by `router` and by `csp_router`.
    built: Arc<(AtomicUsize, AtomicUsize)>,
}

impl Counting {
    fn new(seam: bool) -> Counting {
        Counting {
            seam,
            ..Counting::default()
        }
    }
}

impl RouterProvider<DelayMatrix> for Counting {
    fn router<'a>(
        &'a self,
        snapshot: &'a EngineSnapshot<DelayMatrix>,
    ) -> Box<dyn TraceRouter + 'a> {
        self.built.0.fetch_add(1, Ordering::SeqCst);
        self.inner.router(snapshot)
    }

    fn name(&self) -> &'static str {
        "counting"
    }

    fn csp_router<'a>(
        &'a self,
        snapshot: &'a EngineSnapshot<DelayMatrix>,
    ) -> Option<Box<dyn CspRouter + 'a>> {
        if !self.seam {
            return None;
        }
        self.built.1.fetch_add(1, Ordering::SeqCst);
        self.inner.csp_router(snapshot)
    }
}

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
        let without = Engine::new(snapshot(seed), Counting::new(false), EngineConfig::default());
        let a = with_csp.serve(&batch);
        let b = without.serve(&batch);
        prop_assert_eq!(b.report.cache.csp_hits + b.report.cache.csp_misses, 0);

        // The tier actually engaged: 36 distinct exact keys collapse
        // onto at most 7 frontier keys (one per border source plus the
        // shared unknown-source class), so most solves replay.
        prop_assert!(a.report.cache.csp_hits > 0, "no frontier reuse happened");
        prop_assert_eq!(a.report.cache.hits, 0, "exact keys are all distinct");

        // Bit-identical to the tier-less engine...
        prop_assert_eq!(&a.paths, &b.paths);
        prop_assert_eq!(&a.dispositions, &b.dispositions);

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
        let without =
            Engine::new(loaded_snapshot(seed), Counting::new(false), EngineConfig::default());
        let a = with_csp.serve(&batch);
        let b = without.serve(&batch);
        prop_assert!(a.report.cache.csp_hits > 0, "no frontier reuse happened");
        prop_assert_eq!(b.report.cache.csp_hits + b.report.cache.csp_misses, 0);
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

/// One router per worker per batch: the CSP router serves plain solves,
/// frontier solves and revalidation when the provider has one, the
/// plain router only when it has none, and a trace builds one more.
#[test]
fn one_router_is_built_per_batch() {
    // Distinct requests first, then the same ones again: the cold batch
    // solves every request, the warm one only hits, and both build.
    let batch = shape_batch(0..6, 18..24, &[1, 2]);
    for (seam, per_batch) in [(true, (0, 1)), (false, (1, 0))] {
        let provider = Counting::new(seam);
        let built = Arc::clone(&provider.built);
        let engine = Engine::new(snapshot(7), provider, EngineConfig::default());
        let counts = || {
            (
                built.0.load(Ordering::SeqCst),
                built.1.load(Ordering::SeqCst),
            )
        };
        let cold = engine.serve(&batch);
        assert_eq!(cold.report.errors, 0);
        assert_eq!(cold.report.cache.csp_hits > 0, seam);
        assert_eq!(counts(), per_batch, "seam {seam}: a cold batch");
        engine.serve(&batch);
        assert_eq!(
            counts(),
            (2 * per_batch.0, 2 * per_batch.1),
            "seam {seam}: a warm batch"
        );
        let (plain, csp) = counts();
        let request = ServiceRequest::new(
            ProxyId::new(1),
            ServiceGraph::linear(vec![ServiceId::new(3)]),
            ProxyId::new(20),
        );
        let (result, trace) = engine.trace_request(&request);
        assert!(result.is_ok());
        assert_eq!(trace.router, "hier");
        assert_eq!(counts(), (plain + 1, csp), "seam {seam}: a trace");
    }
}

/// The snapshot's routing tables are filled once per epoch: a second
/// batch finds built every index and level table the first one filled,
/// a warm batch fills nothing, and an install starts over with empty
/// tables. Each table is built at most once, so the store holds exactly
/// those its batches read — as many as one router routing them all.
#[test]
fn tables_are_filled_once_per_epoch() {
    // Inside cluster 0, then across all four.
    let first = shape_batch(0..6, 0..6, &[1]);
    let second = shape_batch(0..6, 18..24, &[3, 2]);
    let snap = snapshot(7);
    // How many tables routing `batches` in turn, in one store, fills.
    let needed = |batches: &[&[ServiceRequest]]| {
        let tables = Arc::<RouterTables>::default();
        let router = HierarchicalRouter::from_shared(
            &tables,
            snap.hfc(),
            snap.services(),
            snap.route_delays(),
            HierConfig::default(),
            None,
            None,
        );
        for request in batches.iter().copied().flatten() {
            router.route_path(request).expect("routable");
        }
        tables.filled()
    };
    let (one, both) = (needed(&[&first]), needed(&[&first, &second]));
    assert!(0 < one && one < both, "{one} then {both}");

    let engine = Engine::new(
        snapshot(7),
        HierProvider::default(),
        EngineConfig::default(),
    );
    let filled = || engine.snapshot().routing_tables().filled();
    assert_eq!(filled(), 0, "a new snapshot's tables are empty");
    engine.serve(&first);
    assert_eq!(filled(), one, "a cold batch");
    engine.serve(&second);
    assert_eq!(filled(), both, "a second cold batch");
    engine.serve(&first);
    engine.serve(&second);
    assert_eq!(filled(), both, "warm batches");
    engine.install_snapshot(snapshot(7));
    assert_eq!(filled(), 0, "an install");
    engine.serve(&first);
    assert_eq!(filled(), one, "a cold batch after the install");
}
