//! Recursive divide-and-conquer routing over a [`Hierarchy`] of any
//! depth — the paper's Section 5 algorithm applied level by level.
//!
//! The destination proxy first computes a service path at the *top*
//! level of the hierarchy (one aggregate service set and one border
//! pair per top-level group), dissects it into per-group child chains,
//! and solves each chain one level down with the same machinery, until
//! the chains bottom out in single base clusters where the flat
//! service-DAG method over `SCT_P` finishes the job. Relay movement
//! recurses the same way: a hop across two units of level *k* enters
//! through that level's border pair and resolves the approach legs at
//! level *k − 1*.
//!
//! Knowledge model, generalizing the paper's visibility rules: the
//! planner at level *k* sees one aggregate per unit and the border
//! pairs between units; only the base-cluster level sees individual
//! proxies. A depth-2 hierarchy makes this router reproduce
//! [`HierarchicalRouter`](crate::hier::HierarchicalRouter) hop for hop
//! (see the `depth_two_reduces_to_the_bilevel_router` test).

use crate::flat::RouteError;
use crate::hier::HierConfig;
use crate::level::{LevelTable, Start};
use crate::path::{PathBuilder, ServicePath};
use crate::providers::ProviderIndex;
use crate::router::Router;
use crate::sdag::solve_service_dag;
use son_overlay::{
    ClusterId, DelayModel, HfcTopology, Hierarchy, ProxyId, ServiceGraph, ServiceId,
    ServiceRequest, ServiceSet, StageId,
};
use son_state::ClusterLoad;
use std::sync::OnceLock;

#[cfg(test)]
mod oracle;

/// The recursive multi-level router.
///
/// Holds the converged distributed state at every level: one
/// `ProviderIndex` per base cluster (the `SCT_P` view), one aggregate
/// service set per cluster, and one merged aggregate per upper-level
/// unit.
#[derive(Debug)]
pub struct MultiLevelRouter<'a, D> {
    hfc: &'a HfcTopology,
    hierarchy: &'a Hierarchy,
    services: &'a [ServiceSet],
    delays: D,
    /// Per cluster, filled by the first leaf solve inside it: routers
    /// are rebuilt per batch and a request solves in a cluster or two.
    cluster_providers: Vec<OnceLock<ProviderIndex>>,
    cluster_aggregates: Vec<ServiceSet>,
    /// `upper_aggregates[l - 2][u]`: merged service set of unit `u` at
    /// level `l`, for every level `2..=top`.
    upper_aggregates: Vec<Vec<ServiceSet>>,
    config: HierConfig,
    cluster_load: Option<ClusterLoad>,
    /// `tables[l - 1][g]`: the level solver's table over the units of
    /// level `l` inside group `g` of level `l + 1` (over every unit of
    /// the top level, as `tables[top - 1][0]`), built by the first
    /// solve that reads it — a request pays for the groups it crosses,
    /// never for an all-pairs table of every cluster.
    tables: Vec<Vec<OnceLock<LevelTable>>>,
}

impl<'a, D> MultiLevelRouter<'a, D>
where
    D: DelayModel,
{
    /// Builds the router from per-proxy installed services (producing
    /// the same tables the state protocol converges to at every level).
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count or the
    /// hierarchy was built over a different topology.
    pub fn from_services(
        hfc: &'a HfcTopology,
        hierarchy: &'a Hierarchy,
        services: &'a [ServiceSet],
        delays: D,
        config: HierConfig,
    ) -> Self {
        assert_eq!(
            services.len(),
            hfc.proxy_count(),
            "one service set per proxy required"
        );
        assert_eq!(
            hierarchy.unit_count(1),
            hfc.cluster_count(),
            "hierarchy and topology disagree on the cluster count"
        );
        let cluster_aggregates: Vec<ServiceSet> = hfc
            .clusters()
            .map(|c| {
                let mut set = ServiceSet::new();
                for &m in hfc.members(c) {
                    set.merge(&services[m.index()]);
                }
                set
            })
            .collect();
        let upper_aggregates: Vec<Vec<ServiceSet>> = (2..=hierarchy.top_level())
            .map(|level| {
                (0..hierarchy.unit_count(level))
                    .map(|u| {
                        let mut set = ServiceSet::new();
                        for &c in hierarchy.clusters_under(level, u) {
                            set.merge(&cluster_aggregates[c]);
                        }
                        set
                    })
                    .collect()
            })
            .collect();
        MultiLevelRouter {
            hfc,
            hierarchy,
            services,
            delays,
            cluster_providers: unset(hfc.cluster_count()),
            cluster_aggregates,
            upper_aggregates,
            config,
            cluster_load: None,
            tables: unset_tables(hierarchy),
        }
    }

    /// Attaches per-cluster load/health summaries: cluster-level
    /// mapping skips unroutable clusters and penalizes saturated ones,
    /// and an upper-level unit is mapped only while some cluster under
    /// it stays routable.
    pub fn with_cluster_load(mut self, load: ClusterLoad) -> Self {
        self.cluster_load = Some(load);
        // The tables carry the load penalties and routable flags.
        self.tables = unset_tables(self.hierarchy);
        self
    }

    /// The hierarchy this router plans over.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.hierarchy
    }

    /// The merged aggregate service set of unit `unit` at `level`
    /// (`1 <= level <= top`).
    pub fn unit_aggregate(&self, level: usize, unit: usize) -> &ServiceSet {
        if level == 1 {
            &self.cluster_aggregates[unit]
        } else {
            &self.upper_aggregates[level - 2][unit]
        }
    }

    /// Routes `request` through the full hierarchy.
    ///
    /// # Errors
    ///
    /// [`RouteError::NoProvider`] when some demanded service appears in
    /// no top-level aggregate; [`RouteError::Infeasible`] when no
    /// configuration admits a full mapping.
    pub fn route(&self, request: &ServiceRequest) -> Result<ServicePath, RouteError> {
        let mut path = PathBuilder::start(request.source);
        self.solve_graph(
            self.hierarchy.top_level(),
            0,
            request.destination,
            &request.graph,
            &mut path,
        )?;
        Ok(path.finish(request.destination))
    }

    /// The unit at `level` containing `proxy`.
    fn unit_of(&self, level: usize, proxy: ProxyId) -> usize {
        self.hierarchy.ancestor_of_proxy(self.hfc, level, proxy)
    }

    /// Solves `graph` over the units of `level` inside group `parent`
    /// of the level above (every unit, at the top level), appending
    /// hops from `path.current()` to `dest`.
    fn solve_graph(
        &self,
        level: usize,
        parent: usize,
        dest: ProxyId,
        graph: &ServiceGraph,
        path: &mut PathBuilder,
    ) -> Result<(), RouteError> {
        let source = path.current();
        let src_unit = self.unit_of(level, source);
        let dst_unit = self.unit_of(level, dest);

        if graph.is_empty() {
            if src_unit != dst_unit {
                let pair = self
                    .hierarchy
                    .unit_border(self.hfc, level, src_unit, dst_unit);
                if !self.delays.delay(pair.local, pair.remote).is_finite() {
                    return Err(RouteError::Infeasible);
                }
                self.descend(level, pair.local, path);
                path.relay(pair.remote);
            }
            self.descend(level, dest, path);
            return Ok(());
        }

        let (_, chain) = self.plan_over(level, parent, source, dest, graph)?;

        // Dissect into maximal runs of stages in the same unit.
        let mut runs: Vec<(usize, Vec<StageId>)> = Vec::new();
        for &(stage, unit) in &chain {
            match runs.last_mut() {
                Some((u, stages)) if *u == unit => stages.push(stage),
                _ => runs.push((unit, vec![stage])),
            }
        }

        let mut prev = src_unit;
        for (ri, (unit, stages)) in runs.iter().enumerate() {
            if *unit != prev {
                let pair = self.hierarchy.unit_border(self.hfc, level, prev, *unit);
                self.descend(level, pair.local, path);
                path.relay(pair.remote);
            }
            let exit = if ri + 1 < runs.len() {
                self.hierarchy
                    .unit_border(self.hfc, level, *unit, runs[ri + 1].0)
                    .local
            } else if *unit == dst_unit {
                dest
            } else {
                self.hierarchy
                    .unit_border(self.hfc, level, *unit, dst_unit)
                    .local
            };
            let services: Vec<ServiceId> = stages.iter().map(|&s| graph.service(s)).collect();
            self.solve_chain(level, *unit, exit, &services, path)?;
            prev = *unit;
        }
        if prev != dst_unit {
            let pair = self.hierarchy.unit_border(self.hfc, level, prev, dst_unit);
            self.descend(level, pair.local, path);
            path.relay(pair.remote);
        }
        self.descend(level, dest, path);
        Ok(())
    }

    /// Solves a linear service chain inside `unit` of `level`, from
    /// `path.current()` to `dest` (both inside `unit`).
    fn solve_chain(
        &self,
        level: usize,
        unit: usize,
        dest: ProxyId,
        services: &[ServiceId],
        path: &mut PathBuilder,
    ) -> Result<(), RouteError> {
        if level == 1 {
            let graph = ServiceGraph::linear(services.to_vec());
            let providers = self.cluster_providers[unit].get_or_init(|| {
                ProviderIndex::from_entries(
                    self.hfc
                        .members(ClusterId::new(unit))
                        .iter()
                        .map(|&m| (m, &self.services[m.index()])),
                )
            });
            let (_, assignments) =
                solve_service_dag(&graph, path.current(), dest, providers, &self.delays)
                    .ok_or(RouteError::Infeasible)?;
            for a in &assignments {
                path.serve(a.proxy, services[a.stage.index()]);
            }
            path.relay(dest);
            Ok(())
        } else {
            let graph = ServiceGraph::linear(services.to_vec());
            self.solve_graph(level - 1, unit, dest, &graph, path)
        }
    }

    /// Relays from `path.current()` to `to`, crossing units at levels
    /// *below* `level` through their border pairs; at the base-cluster
    /// level the hop is direct (clusters are fully connected).
    fn descend(&self, level: usize, to: ProxyId, path: &mut PathBuilder) {
        if path.current() == to {
            return;
        }
        if level == 1 {
            path.relay(to);
            return;
        }
        let child = level - 1;
        let from_unit = self.unit_of(child, path.current());
        let to_unit = self.unit_of(child, to);
        if from_unit != to_unit {
            let pair = self
                .hierarchy
                .unit_border(self.hfc, child, from_unit, to_unit);
            self.descend(child, pair.local, path);
            path.relay(pair.remote);
        }
        self.descend(child, to, path);
    }

    /// The units of `level` a solve inside group `parent` of the level
    /// above may map onto: its members, or every unit at the top level.
    fn siblings(&self, level: usize, parent: usize) -> Vec<usize> {
        if level == self.hierarchy.top_level() {
            (0..self.hierarchy.unit_count(level)).collect()
        } else {
            self.hierarchy.members(level + 1, parent).to_vec()
        }
    }

    /// The level solver's table over [`MultiLevelRouter::siblings`].
    /// Base clusters are filled as the bi-level router fills them (HFC
    /// borders, the back-tracking rule between two border proxies, the
    /// attached load summary); above them every border proxy is a known
    /// coordinate, so plain predicted delays apply and nothing is
    /// penalised.
    fn table(&self, level: usize, parent: usize) -> &LevelTable {
        let delay = |a, b| self.delays.delay(a, b);
        self.tables[level - 1][parent].get_or_init(|| {
            let units = self.siblings(level, parent);
            let border = |from, to| self.hierarchy.unit_border(self.hfc, level, from, to);
            let routable = |unit| self.unit_routable(level, unit);
            if level == 1 {
                let internal = |a, b| {
                    if self.config.backtracking && a != b {
                        delay(a, b)
                    } else {
                        0.0
                    }
                };
                let penalty = |c| self.cluster_penalty(c);
                LevelTable::build(units, border, internal, delay, penalty, routable)
            } else {
                LevelTable::build(units, border, delay, delay, |_| 0.0, routable)
            }
        })
    }

    /// Computes the level-`level` service path — the generalization of
    /// the paper's cluster-level service path to any hierarchy level —
    /// and its estimated cost, over the units of
    /// [`MultiLevelRouter::siblings`].
    ///
    /// The source always sorts at its own id: it starts in its border
    /// slot when it is a border towards a sibling, else in its unit's
    /// source slot, visited where its id falls among the borders.
    fn plan_over(
        &self,
        level: usize,
        parent: usize,
        source: ProxyId,
        dest: ProxyId,
        graph: &ServiceGraph,
    ) -> Result<(f64, Vec<(StageId, usize)>), RouteError> {
        let table = self.table(level, parent);
        let src_unit = self.unit_of(level, source);
        let dst_unit = self.unit_of(level, dest);

        let source_row: Vec<f64>;
        let start = match table.border_slot(src_unit, source) {
            Ok(state) => Start {
                state,
                rank: 0,
                row: table.row(state),
            },
            Err(rank) => {
                // Every exit is a border proxy, so at the base level the
                // back-tracking rule turns on the source alone.
                let known = level > 1
                    || self.config.backtracking
                        && (self.hfc.is_border(source)
                            || self.hfc.cluster_of(source).index() == dst_unit);
                source_row = table
                    .borders(src_unit)
                    .map(|b| {
                        if known {
                            self.delays.delay(source, b)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Start {
                    state: table.source_slot(src_unit),
                    rank,
                    row: &source_row,
                }
            }
        };
        let solved = table.solve(graph, &start, |stage, unit| {
            self.unit_aggregate(level, unit)
                .contains(graph.service(stage))
        })?;

        let mut best: Option<(f64, usize)> = None;
        for sink in solved.sinks(graph) {
            let entry = sink.entry.unwrap_or(source);
            let total = sink.cost + self.level_close(level, entry, sink.unit, dst_unit, dest);
            if total.is_finite() && best.is_none_or(|(b, _)| total < b) {
                best = Some((total, sink.at));
            }
        }
        let (total, at) = best.ok_or(RouteError::Infeasible)?;
        Ok((total, solved.chain(at, |unit| unit)))
    }

    /// Cost of the final leg from (entry inside `from`) to `dest`.
    fn level_close(
        &self,
        level: usize,
        entry: ProxyId,
        from: usize,
        dst_unit: usize,
        dest: ProxyId,
    ) -> f64 {
        if level == 1 {
            let dc = ClusterId::new(dst_unit);
            if from == dst_unit {
                self.known_internal(entry, dest, dc)
            } else {
                let pair = self.hierarchy.unit_border(self.hfc, level, from, dst_unit);
                self.known_internal(entry, pair.local, dc)
                    + self.delays.delay(pair.local, pair.remote)
                    + self.known_internal(pair.remote, dest, dc)
            }
        } else if from == dst_unit {
            0.0
        } else {
            let pair = self.hierarchy.unit_border(self.hfc, level, from, dst_unit);
            self.delays.delay(entry, pair.local) + self.delays.delay(pair.local, pair.remote)
        }
    }

    /// Whether mapping may use `unit` at all (always, unless an
    /// attached load summary says every cluster under it is down).
    fn unit_routable(&self, level: usize, unit: usize) -> bool {
        let Some(load) = self.cluster_load.as_ref() else {
            return true;
        };
        if level == 1 {
            load.is_routable(ClusterId::new(unit))
        } else {
            self.hierarchy
                .clusters_under(level, unit)
                .iter()
                .any(|&c| load.is_routable(ClusterId::new(c)))
        }
    }

    /// The saturation penalty of entering cluster `cluster`, from the
    /// attached load summary (zero without one).
    fn cluster_penalty(&self, cluster: usize) -> f64 {
        self.cluster_load
            .as_ref()
            .map_or(0.0, |load| load.penalty(ClusterId::new(cluster)))
    }

    /// The internal distance between two proxies of the same cluster,
    /// as far as the destination-side solver can estimate it (identical
    /// to the bi-level router's back-tracking rule).
    fn known_internal(&self, a: ProxyId, b: ProxyId, dest_cluster: ClusterId) -> f64 {
        if !self.config.backtracking || a == b {
            return 0.0;
        }
        let knows = |p: ProxyId| self.hfc.is_border(p) || self.hfc.cluster_of(p) == dest_cluster;
        if knows(a) && knows(b) {
            self.delays.delay(a, b)
        } else {
            0.0
        }
    }
}

fn unset<T>(n: usize) -> Vec<OnceLock<T>> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// One unset table per group of every level above the base clusters,
/// then the top level's own.
fn unset_tables(hierarchy: &Hierarchy) -> Vec<Vec<OnceLock<LevelTable>>> {
    let mut tables: Vec<_> = (2..=hierarchy.top_level())
        .map(|level| unset(hierarchy.unit_count(level)))
        .collect();
    tables.push(unset(1));
    tables
}

impl<D> Router for MultiLevelRouter<'_, D>
where
    D: DelayModel,
{
    fn route_path(&self, request: &ServiceRequest) -> Result<ServicePath, RouteError> {
        self.route(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::HierarchicalRouter;
    use proptest::prelude::*;
    use son_clustering::Clustering;
    use son_overlay::{BorderPair, DelayMatrix, HierarchyConfig};

    fn sid(i: usize) -> ServiceId {
        ServiceId::new(i)
    }

    /// Two top-level regions far apart, two clusters each, three
    /// proxies per cluster; service `i % 4` on proxy `i`, plus service
    /// 9 only in the remote region.
    fn routed_world() -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
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
                let mut set = ServiceSet::from_iter([sid(i % 4)]);
                if i >= 6 {
                    set.insert(sid(9));
                }
                set
            })
            .collect();
        (hfc, delays, services)
    }

    fn depth3(hfc: &HfcTopology, delays: &DelayMatrix) -> Hierarchy {
        Hierarchy::build_with_depth(hfc, delays, &HierarchyConfig::default(), 3)
    }

    fn top_border_proxies(h: &Hierarchy) -> Vec<ProxyId> {
        let top = h.top_level();
        let mut out = Vec::new();
        let n = h.unit_count(top);
        for i in 0..n {
            for j in (i + 1)..n {
                let BorderPair { local, remote } = h.border(top, i, j);
                out.push(local);
                out.push(remote);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn three_level_route_is_feasible_and_crosses_top_borders() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        assert_eq!(h.depth(), 3);
        assert_eq!(h.unit_count(2), 2);
        let router =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default());
        // Service 9 exists only in the far region: the path must cross
        // region borders exactly at the elected border proxies.
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(9)]),
            ProxyId::new(1),
        );
        let path = router.route(&request).unwrap();
        path.validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
        let groups: Vec<usize> = path
            .hops()
            .iter()
            .map(|hop| h.ancestor_of_proxy(&hfc, 2, hop.proxy))
            .collect();
        assert!(groups.contains(&1), "path never reached the far region");
        let borders = top_border_proxies(&h);
        for w in path.hops().windows(2) {
            let (a, b) = (w[0].proxy, w[1].proxy);
            let ga = h.ancestor_of_proxy(&hfc, 2, a);
            let gb = h.ancestor_of_proxy(&hfc, 2, b);
            if ga != gb {
                assert!(
                    borders.contains(&a) && borders.contains(&b),
                    "{a} -> {b} crossed regions off the border"
                );
            }
        }
    }

    #[test]
    fn intra_group_requests_match_the_bilevel_router() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let three =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default());
        let two =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        // Entirely inside region 0 (proxies 0..6, services 0..4).
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(1), sid(2)]),
            ProxyId::new(5),
        );
        let p3 = three.route(&request).unwrap();
        let p2 = two.route(&request).unwrap();
        assert_eq!(p3, p2.path, "intra-region routing must reduce to bi-level");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// 3 to 8 clusters of 1 to 4 proxies at random real
        /// coordinates (clusters overlap, ids are shuffled by the
        /// random labelling); a request of up to five stages, linear
        /// or with a joining stage, between two random proxies.
        #[test]
        fn depth_two_reduces_to_the_bilevel_router(seed in any::<u64>()) {
            let rng = &mut TestRng::deterministic(&seed.to_string());
            let clusters = 3 + rng.below(6);
            let mut labels: Vec<usize> = (0..clusters)
                .flat_map(|c| std::iter::repeat_n(c, 1 + rng.below(4)))
                .collect();
            for i in (1..labels.len()).rev() {
                labels.swap(i, rng.below(i + 1));
            }
            let n = labels.len();
            let at: Vec<(f64, f64)> = (0..n)
                .map(|_| (100.0 * rng.next_f64(), 100.0 * rng.next_f64()))
                .collect();
            let mut values = vec![0.0; n * n];
            for (i, a) in at.iter().enumerate() {
                for (j, b) in at.iter().enumerate() {
                    values[i * n + j] = (a.0 - b.0).hypot(a.1 - b.1);
                }
            }
            let delays = DelayMatrix::from_values(n, values);
            let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
            let services: Vec<ServiceSet> = (0..n)
                .map(|_| (0..4).filter(|_| rng.below(2) == 0).map(sid).collect())
                .collect();
            let graph = if rng.below(3) == 0 {
                (0..4)
                    .fold(ServiceGraph::builder(), |b, _| b.stage(sid(rng.below(4))))
                    .edge(0, 2)
                    .edge(1, 2)
                    .edge(2, 3)
                    .build()
                    .expect("edges run forward")
            } else {
                ServiceGraph::linear((0..rng.below(6)).map(|_| sid(rng.below(4))).collect())
            };
            let request =
                ServiceRequest::new(ProxyId::new(rng.below(n)), graph, ProxyId::new(rng.below(n)));

            let h = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 2);
            prop_assert_eq!(h.depth(), 2);
            let ml = MultiLevelRouter::from_services(
                &hfc,
                &h,
                &services,
                &delays,
                HierConfig::default(),
            );
            let bi =
                HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
            prop_assert_eq!(ml.route(&request), bi.route(&request).map(|route| route.path));
        }
    }

    #[test]
    fn relay_only_crosses_via_top_border() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![]),
            ProxyId::new(11),
        );
        let path = router.route(&request).unwrap();
        assert_eq!(path.source(), ProxyId::new(0));
        assert_eq!(path.destination(), ProxyId::new(11));
        // Every hop respects the hierarchy's connectivity: same
        // cluster, a cluster-border pair, or a top-border pair.
        let top_borders = top_border_proxies(&h);
        for w in path.hops().windows(2) {
            let (a, b) = (w[0].proxy, w[1].proxy);
            let (ca, cb) = (hfc.cluster_of(a), hfc.cluster_of(b));
            if ca == cb {
                continue;
            }
            let ga = h.ancestor_of_proxy(&hfc, 2, a);
            let gb = h.ancestor_of_proxy(&hfc, 2, b);
            if ga == gb {
                let pair = hfc.border(ca, cb);
                assert_eq!(
                    (pair.local, pair.remote),
                    (a, b),
                    "not a cluster border hop"
                );
            } else {
                assert!(
                    top_borders.contains(&a) && top_borders.contains(&b),
                    "not a top border hop"
                );
            }
        }
    }

    #[test]
    fn all_three_routers_serve_the_router_trait() {
        use crate::flat::FlatRouter;
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let providers = ProviderIndex::from_service_sets(&services);
        let flat = FlatRouter::new(&providers, &delays);
        let two =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let three =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default());

        fn check<R: Router>(router: &R, request: &ServiceRequest, services: &[ServiceSet]) {
            let path = router.route_path(request).expect("request is routable");
            path.validate(request, |p, s| services[p.index()].contains(s))
                .unwrap();
        }
        let requests = [
            ServiceRequest::new(
                ProxyId::new(0),
                ServiceGraph::linear(vec![sid(9)]),
                ProxyId::new(1),
            ),
            ServiceRequest::new(
                ProxyId::new(0),
                ServiceGraph::linear(vec![sid(1), sid(2)]),
                ProxyId::new(5),
            ),
            ServiceRequest::new(
                ProxyId::new(3),
                ServiceGraph::linear(vec![]),
                ProxyId::new(10),
            ),
        ];
        for request in &requests {
            check(&flat, request, &services);
            check(&two, request, &services);
            check(&three, request, &services);
        }

        let routers: [&dyn Router; 3] = [&flat, &two, &three];
        for (r, request) in routers.iter().zip(&requests) {
            assert!(r.route_path(request).is_ok());
        }
    }

    /// The engine hands these across worker threads.
    #[test]
    fn multilevel_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Hierarchy>();
        assert_send_sync::<MultiLevelRouter<'_, DelayMatrix>>();
        assert_send_sync::<MultiLevelRouter<'_, &DelayMatrix>>();
    }

    #[test]
    fn missing_service_is_reported_at_the_top_level() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(42)]),
            ProxyId::new(11),
        );
        assert_eq!(router.route(&request), Err(RouteError::NoProvider(sid(42))));
    }

    #[test]
    fn multi_stage_requests_spanning_groups_validate() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default());
        // s0 (everywhere) → s9 (far region only) → s3 (everywhere).
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(0), sid(9), sid(3)]),
            ProxyId::new(4),
        );
        let path = router.route(&request).unwrap();
        path.validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
    }

    #[test]
    fn nonlinear_requests_route_recursively() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default());
        // Two configurations: [s1, s9] or [s2, s9].
        let graph = ServiceGraph::builder()
            .stage(sid(1))
            .stage(sid(2))
            .stage(sid(9))
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        let request = ServiceRequest::new(ProxyId::new(0), graph, ProxyId::new(4));
        let path = router.route(&request).unwrap();
        path.validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
        let chain = path.service_chain();
        assert_eq!(chain.len(), 2);
        assert_eq!(*chain.last().unwrap(), sid(9));
    }

    #[test]
    fn unroutable_clusters_are_skipped_at_every_level() {
        use son_overlay::StatusMap;
        use son_state::ClusterLoad;
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        // Every proxy of the far region goes down: s9 becomes
        // unreachable even though the aggregates still advertise it.
        let down: Vec<ProxyId> = (6..12).map(ProxyId::new).collect();
        let statuses = StatusMap::from_down(hfc.proxy_count(), &down);
        let load = ClusterLoad::from_statuses(&hfc, &statuses, 1.0);
        let router =
            MultiLevelRouter::from_services(&hfc, &h, &services, &delays, HierConfig::default())
                .with_cluster_load(load);
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(9)]),
            ProxyId::new(1),
        );
        assert_eq!(router.route(&request), Err(RouteError::NoProvider(sid(9))));
    }
}
