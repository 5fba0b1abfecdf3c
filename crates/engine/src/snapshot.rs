//! Immutable overlay snapshots and per-worker router construction.
//!
//! The engine never routes over mutable overlay state: every serving
//! batch captures one [`EngineSnapshot`] — the HFC topology, installed
//! services, and a delay model, stamped with the **epoch** at which it
//! was installed. Membership or state-protocol changes produce a *new*
//! snapshot under the next epoch; requests in flight keep routing over
//! the snapshot they started with, and the route cache refuses entries
//! whose epoch differs from the snapshot being served (see
//! [`crate::cache::RouteCache`]).
//!
//! Workers do not share a router: each one builds its own per batch via
//! a [`RouterProvider`], a view over the snapshot's [`RouterTables`]
//! that fills each index and level table at most once per snapshot. The
//! cross-thread state is the snapshot and the sharded cache.
//! [`HierProvider`] and [`FlatProvider`] cover the two routers living in
//! `son-routing`; [`MultiLevelProvider`] hands the hierarchical router
//! the snapshot's [`Hierarchy`] as well.

use son_overlay::{
    ClusterId, CoordDelays, DelayModel, HfcTopology, Hierarchy, ProxyId, ServiceRequest,
    ServiceSet, StatusMap,
};
use son_routing::{
    CostConfig, CostModel, CspRouter, FlatRouter, HierConfig, HierarchicalRouter, LoadAwareDelays,
    RouterTables, TraceRouter,
};
use son_state::ClusterLoad;
use std::sync::Arc;

/// One immutable, epoch-stamped view of the overlay: everything a
/// worker needs to answer requests.
///
/// Beyond topology, services, and delays, a snapshot may carry a
/// [`StatusMap`] (health, capacity, utilization per proxy) and a
/// [`CostConfig`]. Attaching statuses via
/// [`EngineSnapshot::with_statuses`] is the one way to exclude a proxy
/// from serving: `Down` proxies lose their service sets (never chosen
/// as providers) and cost `+∞` to traverse (never chosen as relays),
/// while `Draining` and loaded proxies shift route cost through
/// [`EngineSnapshot::route_delays`].
///
/// A snapshot also owns the [`RouterTables`] its routers fill lazily.
/// Clones share them; a snapshot made by [`EngineSnapshot::with_statuses`]
/// or [`EngineSnapshot::with_hierarchy`] starts with empty ones.
#[derive(Debug, Clone)]
pub struct EngineSnapshot<D> {
    epoch: u64,
    hfc: HfcTopology,
    services: Vec<ServiceSet>,
    delays: D,
    cost: CostModel,
    cluster_load: Option<ClusterLoad>,
    hierarchy: Option<Arc<Hierarchy>>,
    tables: Arc<RouterTables>,
}

impl<D: DelayModel> EngineSnapshot<D> {
    /// Bundles an overlay view under epoch 0 (the engine re-stamps the
    /// epoch on installation). No status constraints: every proxy is
    /// `Up`, uncapped, unloaded.
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count.
    pub fn new(hfc: HfcTopology, services: Vec<ServiceSet>, delays: D) -> Self {
        assert_eq!(
            services.len(),
            hfc.proxy_count(),
            "one service set per proxy required"
        );
        EngineSnapshot {
            epoch: 0,
            hfc,
            services,
            delays,
            cost: CostModel::neutral(),
            cluster_load: None,
            hierarchy: None,
            tables: Arc::default(),
        }
    }

    /// Empties the routing tables: the state they derive from changed.
    fn reset_tables(mut self) -> Self {
        self.tables = Arc::default();
        self
    }

    /// Attaches a recursive cluster hierarchy (shared by reference:
    /// snapshot clones reuse it). [`MultiLevelProvider`] routes over it
    /// when present.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy was built over a different topology.
    pub fn with_hierarchy(mut self, hierarchy: Arc<Hierarchy>) -> Self {
        assert_eq!(
            hierarchy.unit_count(1),
            self.hfc.cluster_count(),
            "hierarchy and topology disagree on the cluster count"
        );
        self.hierarchy = Some(hierarchy);
        self.reset_tables()
    }

    /// The attached recursive hierarchy, if any.
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        self.hierarchy.as_deref()
    }

    /// Attaches per-proxy statuses and cost weights.
    ///
    /// `Down` proxies' service sets are emptied — the single mechanism
    /// for "this proxy serves nothing" — and a per-cluster load/health
    /// summary is derived so hierarchical routers see remote saturation
    /// at cluster-level (CSP) selection.
    pub fn with_statuses(mut self, statuses: StatusMap, cost: CostConfig) -> Self {
        for proxy in statuses.down_proxies() {
            if proxy.index() < self.services.len() {
                self.services[proxy.index()] = ServiceSet::new();
            }
        }
        self.cluster_load = Some(ClusterLoad::from_statuses(
            &self.hfc,
            &statuses,
            cost.cluster_load_penalty,
        ));
        self.cost = CostModel::new(cost, statuses);
        self.reset_tables()
    }

    /// The routing tables filled so far over this snapshot, which every
    /// router a provider builds over it reads and fills.
    pub fn routing_tables(&self) -> &Arc<RouterTables> {
        &self.tables
    }

    /// The epoch this snapshot was installed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn stamp(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The HFC topology.
    pub fn hfc(&self) -> &HfcTopology {
        &self.hfc
    }

    /// Effective services per proxy (`Down` proxies read empty).
    pub fn services(&self) -> &[ServiceSet] {
        &self.services
    }

    /// The delay model routers decide on.
    pub fn delays(&self) -> &D {
        &self.delays
    }

    /// Per-proxy statuses (empty map = no constraints).
    pub fn statuses(&self) -> &StatusMap {
        self.cost.statuses()
    }

    /// The health/load cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Per-cluster load/health summary, present when statuses are
    /// attached.
    pub fn cluster_load(&self) -> Option<&ClusterLoad> {
        self.cluster_load.as_ref()
    }

    /// The delay model to route on: base delays plus health/load
    /// penalties. With no statuses attached this is an exact
    /// pass-through of [`EngineSnapshot::delays`].
    pub fn route_delays(&self) -> LoadAwareDelays<'_, D> {
        LoadAwareDelays::new(&self.delays, &self.cost)
    }

    /// Whether `proxy` may carry new traffic in this snapshot.
    pub fn is_routable(&self, proxy: ProxyId) -> bool {
        self.statuses().is_routable(proxy)
    }

    /// Number of proxies in this snapshot.
    pub fn proxy_count(&self) -> usize {
        self.hfc.proxy_count()
    }

    /// The ingress cluster of a request: the cluster of its source
    /// proxy — the first component of every cache key.
    pub fn ingress(&self, request: &ServiceRequest) -> ClusterId {
        self.hfc.cluster_of(request.source)
    }

    /// Whether `proxy` serves as a border in this snapshot (for the
    /// per-border-proxy load report).
    pub fn is_border(&self, proxy: ProxyId) -> bool {
        self.hfc.is_border(proxy)
    }
}

fn fnv_mix(h: &mut u64, v: u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(PRIME);
    }
}

impl EngineSnapshot<CoordDelays> {
    /// An FNV-1a digest of everything routing decides on — canonical
    /// topology snapshot, effective services, and coordinate bits —
    /// excluding the epoch. Two builds of the same world are
    /// interchangeable exactly when their digests match; the parallel
    /// build path asserts equality with the sequential one through
    /// this.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let snap = self.hfc.snapshot();
        fnv_mix(&mut h, snap.clusters.len() as u64);
        for members in &snap.clusters {
            fnv_mix(&mut h, members.len() as u64);
            for &m in members {
                fnv_mix(&mut h, m.index() as u64);
            }
        }
        for &((i, j), (local, remote)) in &snap.borders {
            fnv_mix(&mut h, i as u64);
            fnv_mix(&mut h, j as u64);
            fnv_mix(&mut h, local.index() as u64);
            fnv_mix(&mut h, remote.index() as u64);
        }
        for set in &self.services {
            fnv_mix(&mut h, u64::MAX); // per-proxy separator
            for id in set.iter() {
                fnv_mix(&mut h, id.index() as u64);
            }
        }
        for p in 0..self.delays.len() {
            for &v in self.delays.coordinates(ProxyId::new(p)).as_slice() {
                fnv_mix(&mut h, v.to_bits());
            }
        }
        h
    }
}

/// Builds a router over a snapshot, once per worker per batch: a view
/// that reads and fills the snapshot's [`RouterTables`].
///
/// A worker serves plain solves, frontier solves and revalidation with
/// the [`RouterProvider::csp_router`] when the provider has one, and
/// builds [`RouterProvider::router`] only otherwise. Every router is a
/// [`TraceRouter`], which is what [`crate::Engine::trace_request`] runs.
///
/// The `&'a self` receiver lets a provider lend router inputs it owns
/// *beside* the snapshot to every router it builds.
pub trait RouterProvider<D: DelayModel>: Sync {
    /// Constructs a router borrowing from `snapshot` (and possibly from
    /// the provider itself).
    fn router<'a>(&'a self, snapshot: &'a EngineSnapshot<D>) -> Box<dyn TraceRouter + 'a>;

    /// A short human-readable strategy name for reports.
    fn name(&self) -> &'static str;

    /// Constructs the router a batch serves with when the engine's CSP
    /// cache tier applies, or `None` when this provider's routing
    /// strategy has no reusable cluster-level solve. The returned
    /// router is a full router and must agree bit-for-bit with
    /// [`RouterProvider::router`]: the engine mixes frontier replays
    /// and plain solves on it within one batch.
    fn csp_router<'a>(
        &'a self,
        snapshot: &'a EngineSnapshot<D>,
    ) -> Option<Box<dyn CspRouter + 'a>> {
        let _ = snapshot;
        None
    }
}

/// Provider of the paper's hierarchical (divide-and-conquer) router —
/// the engine default.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierProvider {
    /// Hierarchical router tuning.
    pub config: HierConfig,
}

/// The hierarchical router over `snapshot`, planning over the levels of
/// `hierarchy` when one is given and over the clusters alone otherwise.
fn hier_router<'a, D: DelayModel>(
    config: HierConfig,
    snapshot: &'a EngineSnapshot<D>,
    hierarchy: Option<&'a Hierarchy>,
) -> HierarchicalRouter<'a, LoadAwareDelays<'a, D>> {
    HierarchicalRouter::from_shared(
        &snapshot.tables,
        &snapshot.hfc,
        &snapshot.services,
        snapshot.route_delays(),
        config,
        hierarchy,
        snapshot.cluster_load(),
    )
}

impl<D: DelayModel> RouterProvider<D> for HierProvider {
    fn router<'a>(&'a self, snapshot: &'a EngineSnapshot<D>) -> Box<dyn TraceRouter + 'a> {
        Box::new(hier_router(self.config, snapshot, None))
    }

    fn name(&self) -> &'static str {
        "hier"
    }

    fn csp_router<'a>(
        &'a self,
        snapshot: &'a EngineSnapshot<D>,
    ) -> Option<Box<dyn CspRouter + 'a>> {
        Some(Box::new(hier_router(self.config, snapshot, None)))
    }
}

/// Provider of the flat global-view router (the mesh-free baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatProvider;

impl<D: DelayModel> RouterProvider<D> for FlatProvider {
    fn router<'a>(&'a self, snapshot: &'a EngineSnapshot<D>) -> Box<dyn TraceRouter + 'a> {
        let providers = snapshot.tables.global(&snapshot.services);
        Box::new(FlatRouter::new(providers, snapshot.route_delays()))
    }

    fn name(&self) -> &'static str {
        "flat"
    }
}

/// Provider of the hierarchical router over every level of the
/// [`Hierarchy`] attached to the snapshot
/// ([`EngineSnapshot::with_hierarchy`]), or over the clusters alone —
/// exactly what [`HierProvider`] builds — on snapshots without one.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiLevelProvider {
    /// Hierarchical router tuning (shared with [`HierProvider`]).
    pub config: HierConfig,
}

impl<D: DelayModel> RouterProvider<D> for MultiLevelProvider {
    fn router<'a>(&'a self, snapshot: &'a EngineSnapshot<D>) -> Box<dyn TraceRouter + 'a> {
        Box::new(hier_router(self.config, snapshot, snapshot.hierarchy()))
    }

    fn name(&self) -> &'static str {
        "multilevel"
    }

    fn csp_router<'a>(
        &'a self,
        snapshot: &'a EngineSnapshot<D>,
    ) -> Option<Box<dyn CspRouter + 'a>> {
        // The engine's CSP keys name clusters, so it replays frontiers
        // only where the top level is the clusters.
        match snapshot.hierarchy() {
            Some(_) => None,
            None => Some(Box::new(hier_router(self.config, snapshot, None))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::{DelayMatrix, ProxyId, ServiceGraph, ServiceId};

    fn snapshot() -> EngineSnapshot<DelayMatrix> {
        let n = 6;
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let hfc = HfcTopology::build(&Clustering::from_labels(&[0, 0, 0, 1, 1, 1]), &delays);
        let services = (0..n)
            .map(|i| ServiceSet::from_iter([ServiceId::new(i % 3)]))
            .collect();
        EngineSnapshot::new(hfc, services, delays)
    }

    #[test]
    fn providers_build_working_routers() {
        let snap = snapshot();
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![ServiceId::new(1), ServiceId::new(2)]),
            ProxyId::new(5),
        );
        for provider in [
            &HierProvider::default() as &dyn RouterProvider<DelayMatrix>,
            &FlatProvider,
        ] {
            let router = provider.router(&snap);
            let path = router.route_path(&request).expect("request is routable");
            path.validate(&request, |p, s| snap.services()[p.index()].contains(s))
                .unwrap();
        }
    }

    #[test]
    fn ingress_is_the_source_cluster() {
        let snap = snapshot();
        let request = ServiceRequest::new(
            ProxyId::new(4),
            ServiceGraph::linear(vec![]),
            ProxyId::new(0),
        );
        assert_eq!(
            snap.ingress(&request),
            snap.hfc().cluster_of(ProxyId::new(4))
        );
    }

    #[test]
    #[should_panic(expected = "one service set per proxy")]
    fn mismatched_services_panic() {
        let snap = snapshot();
        let _ = EngineSnapshot::new(snap.hfc.clone(), vec![], snap.delays.clone());
    }

    /// Two regions far apart, two clusters each, three proxies per
    /// cluster; service `i % 4` on proxy `i`, plus service 9 only in
    /// the far region.
    fn deep_world() -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
        let mut pos = Vec::new();
        let mut labels = Vec::new();
        let mut label = 0;
        for super_x in [0.0, 100_000.0] {
            for cluster_dx in [0.0, 1_000.0] {
                for i in 0..3 {
                    pos.push(super_x + cluster_dx + i as f64 * 2.0);
                    labels.push(label);
                }
                label += 1;
            }
        }
        let n = pos.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (pos[i] - pos[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        let services: Vec<ServiceSet> = (0..n)
            .map(|i| {
                let mut set = ServiceSet::from_iter([ServiceId::new(i % 4)]);
                if i >= 6 {
                    set.insert(ServiceId::new(9));
                }
                set
            })
            .collect();
        (hfc, delays, services)
    }

    #[test]
    fn multilevel_provider_serves_through_the_engine() {
        use crate::{Engine, EngineConfig};
        use son_overlay::HierarchyConfig;
        let (hfc, delays, services) = deep_world();
        let hierarchy = Arc::new(Hierarchy::build_with_depth(
            &hfc,
            &delays,
            &HierarchyConfig::default(),
            3,
        ));
        assert_eq!(hierarchy.depth(), 3);
        let snapshot = EngineSnapshot::new(hfc.clone(), services.clone(), delays.clone())
            .with_hierarchy(hierarchy.clone());
        let provider = MultiLevelProvider::default();
        assert_eq!(RouterProvider::<DelayMatrix>::name(&provider), "multilevel");
        let direct =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&hierarchy);
        let engine = Engine::new(
            snapshot,
            provider,
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        );
        let batch: Vec<ServiceRequest> = (0..12)
            .map(|k| {
                ServiceRequest::new(
                    ProxyId::new(k % 12),
                    ServiceGraph::linear(vec![ServiceId::new(k % 4), ServiceId::new(9)]),
                    ProxyId::new((k * 5 + 1) % 12),
                )
            })
            .collect();
        let outcome = engine.serve(&batch);
        assert_eq!(outcome.report.router, "multilevel");
        assert_eq!(outcome.report.errors, 0);
        for (request, served) in batch.iter().zip(&outcome.paths) {
            let served = served.as_ref().expect("routable");
            served
                .validate(request, |p, s| services[p.index()].contains(s))
                .unwrap();
            assert_eq!(served, &direct.route(request).unwrap().path);
        }
    }

    #[test]
    fn multilevel_provider_falls_back_without_a_hierarchy() {
        let snap = snapshot();
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![ServiceId::new(1), ServiceId::new(2)]),
            ProxyId::new(5),
        );
        let provider = MultiLevelProvider::default();
        let ml = provider.router(&snap).route_path(&request).unwrap();
        let hier = HierProvider::default()
            .router(&snap)
            .route_path(&request)
            .unwrap();
        assert_eq!(ml, hier);
    }

    #[test]
    fn digest_separates_worlds_and_ignores_epochs() {
        use son_coords::Coordinates;
        use son_overlay::CoordDelays;
        let coords = |shift: f64| {
            CoordDelays::new(
                (0..6)
                    .map(|i| {
                        Coordinates::new(vec![(i / 3) as f64 * 100.0 + (i % 3) as f64 + shift, 0.0])
                    })
                    .collect(),
            )
        };
        let build = |shift: f64, flip: bool| {
            let delays = coords(shift);
            let hfc = HfcTopology::build(&Clustering::from_labels(&[0, 0, 0, 1, 1, 1]), &delays);
            let services: Vec<ServiceSet> = (0..6)
                .map(|i| ServiceSet::from_iter([ServiceId::new(if flip { i % 2 } else { i % 3 })]))
                .collect();
            EngineSnapshot::new(hfc, services, delays)
        };
        let a = build(0.0, false);
        let mut b = build(0.0, false);
        assert_eq!(a.digest(), b.digest());
        b.stamp(7);
        assert_eq!(a.digest(), b.digest(), "epochs must not affect the digest");
        assert_ne!(a.digest(), build(0.5, false).digest());
        assert_ne!(a.digest(), build(0.0, true).digest());
    }
}
