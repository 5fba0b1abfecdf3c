//! Property tests: routers over a snapshot's shared routing tables
//! answer exactly what a freshly built router answers.
//!
//! A snapshot owns one `RouterTables` — per-cluster provider indexes,
//! their union and the level solver's tables — and every router a
//! provider builds over it reads and fills that store. Each path such a
//! router serves must equal, bit for bit, the route of a
//! `HierarchicalRouter` built from scratch over the same state: across
//! batches, installs, statuses, a depth-3 hierarchy, and providers that
//! share one snapshot but plan differently.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_clustering::Clustering;
use son_engine::{
    Engine, EngineConfig, EngineSnapshot, HierProvider, MultiLevelProvider, RouterProvider,
};
use son_overlay::{
    ClusterId, DelayMatrix, Health, HfcTopology, Hierarchy, HierarchyConfig, ProxyId, ServiceGraph,
    ServiceId, ServiceRequest, ServiceSet, StatusMap,
};
use son_routing::{
    CostConfig, CspRouter, HierConfig, HierarchicalRouter, LoadAwareDelays, RouteError,
    ServicePath, TraceRouter,
};
use son_state::ClusterLoad;
use std::sync::Arc;

const SERVICES: usize = 5;
/// Two regions far apart, two clusters each.
const CLUSTERS: usize = 4;
const PER_CLUSTER: usize = 6;
const PROXIES: usize = CLUSTERS * PER_CLUSTER;

/// Proxies scattered around four cluster centres on a plane, services
/// `i % SERVICES` plus one random extra each.
fn world(seed: u64) -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos = Vec::with_capacity(PROXIES);
    for cluster in 0..CLUSTERS {
        let (cx, cy) = (
            (cluster / 2) as f64 * 10_000.0,
            (cluster % 2) as f64 * 1_000.0,
        );
        for _ in 0..PER_CLUSTER {
            pos.push((cx + rng.gen_range(0.0..60.0), cy + rng.gen_range(0.0..60.0)));
        }
    }
    let mut values = vec![0.0; PROXIES * PROXIES];
    for i in 0..PROXIES {
        for j in 0..PROXIES {
            values[i * PROXIES + j] =
                ((pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2)).sqrt();
        }
    }
    let delays = DelayMatrix::from_values(PROXIES, values);
    let labels: Vec<usize> = (0..PROXIES).map(|i| i / PER_CLUSTER).collect();
    let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
    let services = (0..PROXIES)
        .map(|i| {
            ServiceSet::from_iter([
                ServiceId::new(i % SERVICES),
                ServiceId::new(rng.gen_range(0..SERVICES)),
            ])
        })
        .collect();
    (hfc, delays, services)
}

/// Two proxies `Down` and every proxy loaded: `Down` proxies lose their
/// services and cost `+∞`, and every cluster carries a penalty.
fn statuses(seed: u64) -> StatusMap {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A7);
    let mut statuses = StatusMap::all_up(PROXIES);
    for i in 0..PROXIES {
        statuses.set_utilization(ProxyId::new(i), rng.gen_range(0.3..0.95));
    }
    for _ in 0..2 {
        statuses.set_health(ProxyId::new(rng.gen_range(0..PROXIES)), Health::Down);
    }
    statuses
}

fn requests(rng: &mut StdRng, count: usize) -> Vec<ServiceRequest> {
    (0..count)
        .map(|_| {
            let chain = (0..rng.gen_range(1..4))
                .map(|_| ServiceId::new(rng.gen_range(0..SERVICES)))
                .collect();
            ServiceRequest::new(
                ProxyId::new(rng.gen_range(0..PROXIES)),
                ServiceGraph::linear(chain),
                ProxyId::new(rng.gen_range(0..PROXIES)),
            )
        })
        .collect()
}

/// A hierarchical router built from scratch over `snap`'s state, with
/// tables of its own.
fn fresh<'a>(
    snap: &'a EngineSnapshot<DelayMatrix>,
    config: HierConfig,
    hierarchy: Option<&'a Hierarchy>,
) -> HierarchicalRouter<'a, LoadAwareDelays<'a, DelayMatrix>> {
    let router =
        HierarchicalRouter::from_services(snap.hfc(), snap.services(), snap.route_delays(), config);
    let router = match hierarchy {
        Some(hierarchy) => router.with_hierarchy(hierarchy),
        None => router,
    };
    match snap.cluster_load() {
        Some(load) => router.with_cluster_load(load.clone()),
        None => router,
    }
}

/// Serves `batch` and holds every answer to the fresh router's. Without
/// statuses the engine serves exactly the router's result, errors
/// included; with them it fails over where the router has no answer or
/// one through a `Down` endpoint.
fn serve_and_compare<P: RouterProvider<DelayMatrix>>(
    engine: &Engine<DelayMatrix, P>,
    batch: &[ServiceRequest],
    hierarchy: Option<&Hierarchy>,
) -> Result<(), TestCaseError> {
    let served = engine.serve(batch);
    let snap = engine.snapshot();
    let router = fresh(&snap, HierConfig::default(), hierarchy);
    for (request, served) in batch.iter().zip(&served.paths) {
        let direct = router.route(request).map(|route| route.path);
        let routable = |path: &ServicePath| path.hops().iter().all(|h| snap.is_routable(h.proxy));
        if snap.statuses().is_empty() || direct.as_ref().is_ok_and(routable) {
            prop_assert_eq!(served, &direct, "{:?}", request);
        }
    }
    Ok(())
}

fn depth3(hfc: &HfcTopology, delays: &DelayMatrix) -> Arc<Hierarchy> {
    let hierarchy = Hierarchy::build_with_depth(hfc, delays, &HierarchyConfig::default(), 3);
    assert_eq!(hierarchy.depth(), 3);
    Arc::new(hierarchy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) One engine per provider, driven through distinct batches and
    /// installs of snapshots with and without statuses: every served
    /// path is the fresh router's.
    #[test]
    fn views_over_shared_tables_route_like_fresh_routers(seed in 0u64..1_000) {
        let (hfc, delays, services) = world(seed);
        let hierarchy = depth3(&hfc, &delays);
        let plain = EngineSnapshot::new(hfc, services, delays);
        let loaded = plain
            .clone()
            .with_statuses(statuses(seed), CostConfig::balanced());
        let mut rng = StdRng::seed_from_u64(seed);

        let engine = Engine::new(plain.clone(), HierProvider::default(), EngineConfig::default());
        for snapshot in [None, Some(&loaded), Some(&plain)] {
            if let Some(snapshot) = snapshot {
                engine.install_snapshot(snapshot.clone());
            }
            for _ in 0..2 {
                serve_and_compare(&engine, &requests(&mut rng, 24), None)?;
            }
        }

        let deep = plain.clone().with_hierarchy(Arc::clone(&hierarchy));
        let deep_loaded = loaded.clone().with_hierarchy(Arc::clone(&hierarchy));
        let engine = Engine::new(deep.clone(), MultiLevelProvider::default(), EngineConfig::default());
        for snapshot in [None, Some(&deep_loaded), Some(&deep)] {
            if let Some(snapshot) = snapshot {
                engine.install_snapshot(snapshot.clone());
            }
            for _ in 0..2 {
                serve_and_compare(&engine, &requests(&mut rng, 24), Some(&hierarchy))?;
            }
        }
    }

    /// (b) Routers that plan differently over one snapshot — with and
    /// without back-tracking, over the clusters and over the hierarchy —
    /// share its indexes but never each other's level tables: each
    /// matches its own fresh router, whichever filled the store first.
    #[test]
    fn providers_sharing_a_snapshot_keep_their_own_layouts(seed in 0u64..1_000) {
        let (hfc, delays, services) = world(seed);
        let hierarchy = depth3(&hfc, &delays);
        let snap = EngineSnapshot::new(hfc, services, delays)
            .with_statuses(statuses(seed), CostConfig::balanced())
            .with_hierarchy(Arc::clone(&hierarchy));
        let batch = requests(&mut StdRng::seed_from_u64(seed), 24);
        let configs = [true, false].map(|backtracking| HierConfig { backtracking });
        for _ in 0..2 {
            for config in configs {
                let (hier, multi) = (HierProvider { config }, MultiLevelProvider { config });
                let (hier, multi) = (hier.router(&snap), multi.router(&snap));
                let hier_fresh = fresh(&snap, config, None);
                let multi_fresh = fresh(&snap, config, Some(&hierarchy));
                for request in &batch {
                    let path = |router: &HierarchicalRouter<'_, _>| {
                        router.route(request).map(|route| route.path)
                    };
                    prop_assert_eq!(hier.route_path(request), path(&hier_fresh));
                    prop_assert_eq!(multi.route_path(request), path(&multi_fresh));
                }
            }
        }
    }
}

/// (c) A view re-priced with a load summary of its own solves over
/// private level tables: it answers like a fresh loaded router, and the
/// engine serving the snapshot afterwards — and before — answers like a
/// fresh unloaded one, whichever of the two filled the store first.
#[test]
fn a_repriced_view_leaves_the_shared_tables_alone() {
    let (hfc, delays, services) = world(3);
    let mut busy = StatusMap::all_up(PROXIES);
    for &p in hfc.members(ClusterId::new(1)) {
        busy.set_utilization(p, 0.9);
    }
    let load = ClusterLoad::from_statuses(&hfc, &busy, 100.0);
    let batch = requests(&mut StdRng::seed_from_u64(3), 48);
    let engine = Engine::new(
        EngineSnapshot::new(hfc, services, delays),
        HierProvider::default(),
        EngineConfig::default(),
    );
    let snap = engine.snapshot();
    let repriced = || {
        HierarchicalRouter::from_shared(
            snap.routing_tables(),
            snap.hfc(),
            snap.services(),
            snap.route_delays(),
            HierConfig::default(),
            None,
            None,
        )
        .with_cluster_load(load.clone())
    };
    let loaded = fresh(&snap, HierConfig::default(), None).with_cluster_load(load.clone());
    let unloaded = fresh(&snap, HierConfig::default(), None);
    let frontiers = |router: &dyn CspRouter| -> Vec<Result<_, RouteError>> {
        batch.iter().map(|r| router.solve_frontier(r)).collect()
    };
    let paths = |router: &dyn CspRouter,
                 batch: &[ServiceRequest]|
     -> Vec<Result<ServicePath, RouteError>> {
        batch.iter().map(|r| router.route_path(r)).collect()
    };

    // Re-priced first, on an empty store.
    assert_eq!(frontiers(&repriced()), frontiers(&loaded));
    assert_ne!(
        frontiers(&loaded),
        frontiers(&unloaded),
        "the penalty must show in the costs"
    );
    let served = engine.serve(&batch);
    assert_eq!(served.paths, paths(&unloaded, &batch));
    let provider = HierProvider::default();
    let view = provider
        .csp_router(&snap)
        .expect("the bi-level provider has a CSP seam");
    assert_eq!(frontiers(&*view), frontiers(&unloaded));

    // Re-priced again, on the filled store: nothing is added to it.
    let filled = snap.routing_tables().filled();
    assert!(filled > 0);
    assert_eq!(paths(&repriced(), &batch), paths(&loaded, &batch));
    assert_eq!(snap.routing_tables().filled(), filled);
    let batch = requests(&mut StdRng::seed_from_u64(4), 48);
    let served = engine.serve(&batch);
    assert_eq!(served.paths, paths(&unloaded, &batch));
}

/// (d) A `Down` source that a solve has no coordinates for — a
/// non-border outside the destination's cluster, priced at zero
/// internal distance — is unroutable on the router's own delays, from
/// every entry point: a plain route, a traced one, crankback recovery,
/// and a frontier solved for another such source of its cluster and
/// replayed.
#[test]
fn a_down_source_outside_the_destination_cluster_is_infeasible() {
    let seed = 849;
    let (hfc, delays, services) = world(seed);
    let snap = EngineSnapshot::new(hfc, services, delays)
        .with_statuses(statuses(seed), CostConfig::balanced());
    let down: Vec<usize> = (0..PROXIES)
        .filter(|&i| !snap.is_routable(ProxyId::new(i)))
        .collect();
    assert_eq!(down, [10, 13]);
    let (source, dest) = (ProxyId::new(10), ProxyId::new(16));
    let cluster = snap.hfc().cluster_of(source);
    assert_ne!(cluster, snap.hfc().cluster_of(dest));
    assert!(!snap.is_border(source));
    let chain = || ServiceGraph::linear(vec![ServiceId::new(0), ServiceId::new(0)]);
    let request = ServiceRequest::new(source, chain(), dest);
    let router = fresh(&snap, HierConfig::default(), None);

    assert_eq!(
        router.route(&request).map(|route| route.path),
        Err(RouteError::Infeasible)
    );
    assert_eq!(
        router.route_with_trace(&request).0,
        Err(RouteError::Infeasible)
    );
    assert_eq!(
        router
            .route_with_recovery(&request, 3)
            .map(|route| route.path),
        Err(RouteError::Infeasible)
    );

    let other = snap
        .hfc()
        .members(cluster)
        .iter()
        .copied()
        .find(|&p| p != source && !snap.is_border(p) && snap.is_routable(p))
        .expect("the cluster has another unknown source");
    let frontier = router
        .solve_frontier(&ServiceRequest::new(other, chain(), dest))
        .expect("the other source's frontier solves");
    assert_eq!(
        router.route_from_frontier(&request, &frontier),
        Err(RouteError::Infeasible)
    );
}
