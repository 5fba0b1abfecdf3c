//! Hierarchical (divide-and-conquer) service path finding — the
//! paper's Section 5, applied at every level of a hierarchy.
//!
//! The destination proxy `pd` holds aggregate state only (`SCT_C` plus
//! coordinates of its own cluster and of every border proxy), so
//! routing proceeds top-down:
//!
//! 1. **map** — find, per stage, the units whose aggregate set offers
//!    the demanded service, forming a unit-level service DAG;
//! 2. **shortest path with back-tracking** — run a shortest-path pass
//!    whose edge weights include not only the external border links but
//!    also the *internal* border-to-border distances `pd` can estimate
//!    from the coordinates it knows (the paper's back-tracking
//!    refinement; disable via [`HierConfig::backtracking`] to measure
//!    its benefit);
//! 3. **divide** — dissect the chosen service path into child requests,
//!    one per maximal run of stages in the same unit, with entry/exit
//!    border proxies as child endpoints;
//! 4. **conquer** — solve each child one level down, then compose the
//!    child paths and the border glue hops into the final service path.
//!
//! Level 1 is the HFC clusters; levels 2 and up come from an optional
//! [`Hierarchy`] ([`HierarchicalRouter::with_hierarchy`]). Without one,
//! the top level is the clusters and a child is solved inside its
//! cluster with the flat service-DAG method over `SCT_P` — the paper's
//! bi-level router. With one, a child of a level-*k* unit is planned
//! over the level-*k − 1* units inside it by steps 1–3 again, until the
//! chains bottom out in single clusters.
//!
//! Knowledge model, generalizing the paper's visibility rules: a solve
//! at level *k* sees one aggregate per unit and the border pairs
//! between units. Above the clusters every border proxy is a known
//! coordinate; inside a cluster the solve knows its destination's
//! cluster and every border proxy, and prices what it does not know at
//! the lower bound zero.

use crate::csp::{CspFrontier, CspRouter, Sink};
use crate::flat::RouteError;
use crate::level::{LevelTable, LevelWork, Solved, Start};
use crate::path::{PathBuilder, ServicePath};
use crate::providers::ProviderIndex;
use crate::sdag::{solve_service_dag, Assignment};
use son_overlay::{
    BorderPair, ClusterId, DelayModel, HfcDelays, HfcTopology, Hierarchy, ProxyId, ServiceGraph,
    ServiceId, ServiceRequest, ServiceSet, StageId,
};
use son_state::{ClusterLoad, SctC, SctP};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use tables::LevelTables;
pub use tables::RouterTables;

#[cfg(test)]
mod oracle;
mod tables;

/// Tuning knobs of the hierarchical router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierConfig {
    /// Include intra-cluster border-to-border lower bounds in the
    /// cluster-level edge weights (Section 5.1 step 2). Disabling
    /// reverts to judging cluster paths by external links only.
    pub backtracking: bool,
}

impl Default for HierConfig {
    fn default() -> Self {
        HierConfig { backtracking: true }
    }
}

/// The result of a hierarchical route: the composed concrete path plus
/// the top-level decisions that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct HierRoute {
    /// The final composed service path.
    pub path: ServicePath,
    /// Top-level unit assigned to each stage of the chosen
    /// configuration, in path order: a cluster, or with a hierarchy of
    /// depth three and more a unit of its top level.
    pub csp: Vec<(StageId, ClusterId)>,
    /// Number of child requests the CSP was dissected into.
    pub child_count: usize,
    /// The top-level cost estimate that selected this CSP (external
    /// links plus known internal lower bounds).
    pub estimate: f64,
}

/// One child request of a dissected CSP: a linear chain of services to
/// be resolved inside one unit, between an entry and an exit proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildSpec {
    /// The unit that must resolve this child (a cluster, or a top-level
    /// unit of a deeper hierarchy).
    pub cluster: ClusterId,
    /// The proxy responsible for solving it (the unit's exit border,
    /// or the destination proxy for the final child).
    pub solver: ProxyId,
    /// The services demanded, in order.
    pub services: Vec<ServiceId>,
    /// Entry proxy (child source).
    pub source: ProxyId,
    /// Exit proxy (child destination).
    pub dest: ProxyId,
}

/// The outcome of the destination proxy's local planning (Section 5
/// steps 1–3): the top-level service path and the child requests it
/// dissects into.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Top-level unit assigned to each stage of the chosen
    /// configuration.
    pub csp: Vec<(StageId, ClusterId)>,
    /// The top-level cost estimate that selected this CSP.
    pub estimate: f64,
    /// Child requests, in path order.
    pub children: Vec<ChildSpec>,
    /// What the level solve that chose the CSP did; nothing for a plan
    /// replayed from a frontier or one without stages.
    pub work: LevelWork,
}

/// A level's cheapest mapping: its estimated cost, its (stage, unit)
/// chain, and what the solve that found it did.
type LevelPlan = (f64, Vec<(StageId, usize)>, LevelWork);

/// The hierarchical router.
///
/// Holds the converged distributed state (aggregates per unit,
/// capability tables per cluster) and answers requests the way the
/// deployed system would: unit-level decisions use only
/// aggregate-visible information, intra-cluster decisions use only the
/// local cluster's tables.
///
/// (Items marked `pub(crate)` are read by the multi-level oracle, a
/// sibling test module.)
#[derive(Debug)]
pub struct HierarchicalRouter<'a, D> {
    pub(crate) hfc: &'a HfcTopology,
    /// Levels 2 and up; `None` plans over the clusters alone.
    hierarchy: Option<&'a Hierarchy>,
    /// Installed services per proxy, which the per-cluster provider
    /// indexes are built from (empty when the router was built from
    /// tables, which fill every index up front).
    services: Cow<'a, [ServiceSet]>,
    pub(crate) delays: D,
    /// `aggregates[l - 1][u]`: merged service set of unit `u` at level
    /// `l`, for every level `1..=top`.
    aggregates: Vec<Vec<ServiceSet>>,
    /// The per-cluster provider indexes, their union and the level
    /// tables, each filled by the first solve that reads it and kept
    /// for every router over the same store — a request pays for the
    /// clusters and groups it is the first to cross.
    store: Arc<RouterTables>,
    config: HierConfig,
    cluster_load: Option<Cow<'a, ClusterLoad>>,
    /// The level tables this router solves over: its store's for its
    /// layout, looked up by the first solve, or private ones once
    /// [`HierarchicalRouter::with_hierarchy`] or
    /// [`HierarchicalRouter::with_cluster_load`] re-priced it.
    levels: OnceLock<Arc<LevelTables>>,
}

/// The merged service set of every cluster.
///
/// # Panics
///
/// Panics if `services.len()` differs from the proxy count.
fn cluster_aggregates(hfc: &HfcTopology, services: &[ServiceSet]) -> Vec<ServiceSet> {
    assert_eq!(
        services.len(),
        hfc.proxy_count(),
        "one service set per proxy required"
    );
    hfc.clusters()
        .map(|c| {
            let mut set = ServiceSet::new();
            for &m in hfc.members(c) {
                set.merge(&services[m.index()]);
            }
            set
        })
        .collect()
}

impl<'a, D> HierarchicalRouter<'a, D>
where
    D: DelayModel,
{
    /// Builds the router directly from per-proxy installed services
    /// (producing the same tables the state protocol converges to).
    ///
    /// `services` is borrowed or owned; `delays` is the *known*
    /// distance map — coordinate-predicted distances in a deployment,
    /// exact distances in unit tests.
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count.
    pub fn from_services(
        hfc: &'a HfcTopology,
        services: impl Into<Cow<'a, [ServiceSet]>>,
        delays: D,
        config: HierConfig,
    ) -> Self {
        let services = services.into();
        let aggregates = cluster_aggregates(hfc, &services);
        Self::new(hfc, services, aggregates, Arc::default(), delays, config)
    }

    /// A view that reads and fills `tables` instead of a store of its
    /// own, with `hierarchy` and `load` attached as by
    /// [`HierarchicalRouter::with_hierarchy`] and
    /// [`HierarchicalRouter::with_cluster_load`] but without re-pricing.
    /// Every router over one store must be given the same `hfc`,
    /// `services`, `delays`, `hierarchy` and `load`.
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count.
    pub fn from_shared(
        tables: &Arc<RouterTables>,
        hfc: &'a HfcTopology,
        services: &'a [ServiceSet],
        delays: D,
        config: HierConfig,
        hierarchy: Option<&'a Hierarchy>,
        load: Option<&'a ClusterLoad>,
    ) -> Self {
        let aggregates = cluster_aggregates(hfc, services);
        let mut router = Self::new(
            hfc,
            Cow::Borrowed(services),
            aggregates,
            Arc::clone(tables),
            delays,
            config,
        );
        if let Some(hierarchy) = hierarchy {
            router.attach(hierarchy);
        }
        router.cluster_load = load.map(Cow::Borrowed);
        router
    }

    /// Builds the router from converged protocol tables: the
    /// system-wide aggregate table and one `SCT_P` per cluster
    /// (indexed by cluster).
    pub fn from_tables(
        hfc: &'a HfcTopology,
        sctc: SctC,
        cluster_tables: &[SctP],
        delays: D,
        config: HierConfig,
    ) -> Self {
        assert_eq!(
            cluster_tables.len(),
            hfc.cluster_count(),
            "one SCT_P per cluster required"
        );
        let aggregates = hfc
            .clusters()
            .map(|c| sctc.services_of(c).cloned().unwrap_or_default())
            .collect();
        let store = RouterTables::from_indexes(
            cluster_tables
                .iter()
                .map(ProviderIndex::from_sctp)
                .collect(),
        );
        Self::new(
            hfc,
            Cow::Borrowed(&[]),
            aggregates,
            Arc::new(store),
            delays,
            config,
        )
    }

    fn new(
        hfc: &'a HfcTopology,
        services: Cow<'a, [ServiceSet]>,
        aggregates: Vec<ServiceSet>,
        store: Arc<RouterTables>,
        delays: D,
        config: HierConfig,
    ) -> Self {
        HierarchicalRouter {
            hfc,
            hierarchy: None,
            services,
            delays,
            aggregates: vec![aggregates],
            store,
            config,
            cluster_load: None,
            levels: OnceLock::new(),
        }
    }

    /// Plans over the levels of `hierarchy` above the clusters: the top
    /// level becomes its top level, and every child is planned one
    /// level down until it lies in a single cluster. A depth-2
    /// hierarchy changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy was built over a different topology.
    pub fn with_hierarchy(mut self, hierarchy: &'a Hierarchy) -> Self {
        self.attach(hierarchy);
        self.reprice()
    }

    /// Merges the aggregates of every level of `hierarchy` above the
    /// clusters and plans over them from now on.
    fn attach(&mut self, hierarchy: &'a Hierarchy) {
        assert_eq!(
            hierarchy.unit_count(1),
            self.hfc.cluster_count(),
            "hierarchy and topology disagree on the cluster count"
        );
        self.aggregates.truncate(1);
        for level in 2..=hierarchy.top_level() {
            let merged = (0..hierarchy.unit_count(level))
                .map(|u| {
                    let mut set = ServiceSet::new();
                    for &c in hierarchy.clusters_under(level, u) {
                        set.merge(&self.aggregates[0][c]);
                    }
                    set
                })
                .collect();
            self.aggregates.push(merged);
        }
        self.hierarchy = Some(hierarchy);
    }

    /// Attaches per-cluster load/health summaries (the saturation
    /// counterpart of the aggregate `SCT_C` rows): unit-level selection
    /// then skips clusters with no routable members — and upper units
    /// with no routable cluster — and penalizes saturated clusters.
    pub fn with_cluster_load(mut self, load: ClusterLoad) -> Self {
        self.cluster_load = Some(Cow::Owned(load));
        self.reprice()
    }

    /// Gives the router level tables of its own: they carry the load
    /// penalties, routable flags and layout, which now differ from
    /// whatever its store holds.
    fn reprice(mut self) -> Self {
        self.levels = OnceLock::from(Arc::new(self.unset_tables()));
        self
    }

    /// The aggregate table the router decides from, one row per
    /// cluster.
    pub fn sctc(&self) -> SctC {
        let mut sctc = SctC::new();
        for (c, set) in self.hfc.clusters().zip(&self.aggregates[0]) {
            sctc.update(c, set.clone());
        }
        sctc
    }

    /// The HFC topology this router operates on.
    pub fn hfc(&self) -> &HfcTopology {
        self.hfc
    }

    /// Number of proxies in the overlay.
    pub fn proxy_count(&self) -> usize {
        self.hfc.proxy_count()
    }

    /// The known distance map this router judges paths by.
    pub fn known_delays(&self) -> &D {
        &self.delays
    }

    /// Routes `request` hierarchically.
    ///
    /// # Errors
    ///
    /// [`RouteError::NoProvider`] when some demanded service exists in
    /// no unit's aggregate; [`RouteError::Infeasible`] when no
    /// configuration admits a full mapping.
    pub fn route(&self, request: &ServiceRequest) -> Result<HierRoute, RouteError> {
        let plan = self.plan(request)?;
        self.conquer(request, plan)
    }

    /// Routes with crankback recovery: when a child request turns out
    /// unsolvable inside its assigned unit (stale aggregate state — the
    /// unit advertised a service its tables can no longer back), the
    /// offending `(stage, unit)` assignments are excluded and the
    /// top-level path is recomputed, up to `max_attempts` times.
    ///
    /// With converged state this behaves exactly like
    /// [`HierarchicalRouter::route`]; under churn it trades extra
    /// planning rounds for robustness.
    ///
    /// # Errors
    ///
    /// The usual routing errors, or [`RouteError::Infeasible`] when the
    /// attempt budget is exhausted.
    pub fn route_with_recovery(
        &self,
        request: &ServiceRequest,
        max_attempts: usize,
    ) -> Result<HierRoute, RouteError> {
        let mut excluded: Vec<(StageId, ClusterId)> = Vec::new();
        for _ in 0..max_attempts.max(1) {
            let plan = self.plan_excluding(request, &excluded)?;
            let mut answers = Vec::with_capacity(plan.children.len());
            let mut failed = None;
            // Reconstruct which stages each child covers: children are
            // consecutive runs of the CSP.
            let mut stage_cursor = 0usize;
            for child in &plan.children {
                let stages: Vec<StageId> = plan.csp
                    [stage_cursor..stage_cursor + child.services.len()]
                    .iter()
                    .map(|&(stage, _)| stage)
                    .collect();
                stage_cursor += child.services.len();
                match self.solve_child(child) {
                    Some(assignments) => answers.push(assignments),
                    None => {
                        failed = Some((child.cluster, stages));
                        break;
                    }
                }
            }
            match failed {
                None => return self.compose(request, plan, &answers),
                Some((cluster, stages)) => {
                    for stage in stages {
                        excluded.push((stage, cluster));
                    }
                }
            }
        }
        Err(RouteError::Infeasible)
    }

    /// Steps 1–3 of Section 5 as performed *by the destination proxy
    /// alone*: compute the top-level service path from aggregate state
    /// and dissect it into child requests. The returned plan names, per
    /// child, the proxy responsible for solving it (the unit's exit
    /// border; the last child belongs to the destination proxy itself).
    ///
    /// # Errors
    ///
    /// Same conditions as [`HierarchicalRouter::route`].
    pub fn plan(&self, request: &ServiceRequest) -> Result<RoutePlan, RouteError> {
        self.plan_excluding(request, &[])
    }

    /// Like [`HierarchicalRouter::plan`], but never maps an excluded
    /// `(stage, unit)` pair — the knob behind crankback recovery.
    pub fn plan_excluding(
        &self,
        request: &ServiceRequest,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<RoutePlan, RouteError> {
        let (source, dest) = (request.source, request.destination);
        let top = self.top_level();
        if request.graph.is_empty() {
            // Relay only: at most one border crossing at the top level.
            let (from, to) = (self.unit_of(top, source), self.unit_of(top, dest));
            let mut estimate = 0.0;
            if from != to {
                estimate = self.leave(top, source, self.unit_border(top, from, to), to);
                if !estimate.is_finite() {
                    return Err(RouteError::Infeasible);
                }
            }
            return Ok(self.plan_from_chain(request, estimate, Vec::new(), LevelWork::default()));
        }
        let (estimate, chain, work) =
            self.plan_over(top, 0, source, dest, &request.graph, excluded)?;
        let chain = chain
            .into_iter()
            .map(|(stage, unit)| (stage, ClusterId::new(unit)))
            .collect();
        Ok(self.plan_from_chain(request, estimate, chain, work))
    }

    /// Step 3 at the top level: dissects an already-selected chain into
    /// child requests. Shared by the plain planning path and the
    /// frontier-replay path so both produce the same plan from the same
    /// chain by construction.
    fn plan_from_chain(
        &self,
        request: &ServiceRequest,
        estimate: f64,
        chain: Vec<(StageId, ClusterId)>,
        work: LevelWork,
    ) -> RoutePlan {
        let children = self.dissect(
            self.top_level(),
            request.source,
            request.destination,
            &request.graph,
            chain.iter().map(|&(stage, unit)| (stage, unit.index())),
        );
        RoutePlan {
            csp: chain,
            estimate,
            children,
            work,
        }
    }

    /// Step 3 of Section 5 at `level`: one child request per maximal
    /// run of stages in the same unit, entering through the border from
    /// the previous run's unit (or at `source`) and leaving through the
    /// border towards the next one (or at `dest`, or through the border
    /// towards `dest`'s unit).
    fn dissect(
        &self,
        level: usize,
        source: ProxyId,
        dest: ProxyId,
        graph: &ServiceGraph,
        chain: impl IntoIterator<Item = (StageId, usize)>,
    ) -> Vec<ChildSpec> {
        let mut runs: Vec<(usize, Vec<ServiceId>)> = Vec::new();
        for (stage, unit) in chain {
            let service = graph.service(stage);
            match runs.last_mut() {
                Some((u, services)) if *u == unit => services.push(service),
                _ => runs.push((unit, vec![service])),
            }
        }
        let dst_unit = self.unit_of(level, dest);
        let mut prev = self.unit_of(level, source);
        let mut children = Vec::with_capacity(runs.len());
        let mut runs = runs.into_iter().peekable();
        while let Some((unit, services)) = runs.next() {
            let next = runs.peek().map(|&(unit, _)| unit);
            let entry = if children.is_empty() && unit == prev {
                source
            } else {
                self.unit_border(level, unit, prev).local
            };
            let exit = match next {
                Some(next) => self.unit_border(level, unit, next).local,
                None if unit == dst_unit => dest,
                None => self.unit_border(level, unit, dst_unit).local,
            };
            // The paper ships each child request to the unit's exit
            // border; the final child is handled by pd itself.
            let solver = if next.is_none() && unit == dst_unit {
                dest
            } else {
                exit
            };
            children.push(ChildSpec {
                cluster: ClusterId::new(unit),
                solver,
                services,
                source: entry,
                dest: exit,
            });
            prev = unit;
        }
        children
    }

    /// Solves one child request optimally within its unit (what the
    /// child's solver proxy does upon receipt, Section 5.2). Returns
    /// `None` if the unit cannot satisfy the chain — impossible for
    /// plans derived from converged state, kept for robustness.
    pub fn solve_child(&self, child: &ChildSpec) -> Option<Vec<Assignment>> {
        self.solve(self.top_level(), child).ok()
    }

    /// Solves `child` inside its unit of `level`: inside a cluster with
    /// the flat service-DAG method over its `SCT_P`, above that by
    /// planning over the units one level down and solving each of the
    /// chain's children there in turn. Assignments index the child's
    /// services, in path order.
    fn solve(&self, level: usize, child: &ChildSpec) -> Result<Vec<Assignment>, RouteError> {
        let graph = ServiceGraph::linear(child.services.clone());
        let unit = child.cluster.index();
        if level == 1 {
            return solve_service_dag(
                &graph,
                child.source,
                child.dest,
                self.providers(unit),
                &self.delays,
            )
            .map(|(_, assignments)| assignments)
            .ok_or(RouteError::Infeasible);
        }
        let (_, chain, _) =
            self.plan_over(level - 1, unit, child.source, child.dest, &graph, &[])?;
        let mut assignments = Vec::with_capacity(graph.len());
        for part in self.dissect(level - 1, child.source, child.dest, &graph, chain) {
            let offset = assignments.len();
            for a in self.solve(level - 1, &part)? {
                assignments.push(Assignment {
                    stage: StageId::new(offset + a.stage.index()),
                    proxy: a.proxy,
                });
            }
        }
        Ok(assignments)
    }

    /// Step 4 of Section 5: composes child answers and border glue hops
    /// into the final service path. Every way of routing ends here, so
    /// this is where a path is checked against the router's own delays.
    ///
    /// # Errors
    ///
    /// [`RouteError::Infeasible`] when the path is infinitely long on
    /// the router's delays. A solve prices a source it has no
    /// coordinates for at zero internal distance, so a `Down` source
    /// (`+∞` on every leg) shows only in the composed path.
    ///
    /// # Panics
    ///
    /// Panics if `answers` does not match the plan's children.
    pub fn compose(
        &self,
        request: &ServiceRequest,
        plan: RoutePlan,
        answers: &[Vec<Assignment>],
    ) -> Result<HierRoute, RouteError> {
        assert_eq!(
            answers.len(),
            plan.children.len(),
            "one answer per child request required"
        );
        // Every leg between two consecutive proxies the path must visit
        // crosses units exactly where they differ, so walking from each
        // to the next from above the top level adds every glue hop.
        let above = self.top_level() + 1;
        let mut path = PathBuilder::start(request.source);
        for (child, assignments) in plan.children.iter().zip(answers) {
            for a in assignments {
                self.walk(above, a.proxy, &mut path);
                path.serve(a.proxy, child.services[a.stage.index()]);
            }
            self.walk(above, child.dest, &mut path);
        }
        self.walk(above, request.destination, &mut path);
        let path = path.finish(request.destination);
        if !path.length(&self.delays).is_finite() {
            return Err(RouteError::Infeasible);
        }
        Ok(HierRoute {
            path,
            child_count: plan.children.len(),
            csp: plan.csp,
            estimate: plan.estimate,
        })
    }

    /// Relays from the end of `path` to `to`, crossing the units of
    /// every level below `level` in which the two differ through that
    /// level's border pair; inside a cluster the hop is direct.
    fn walk(&self, level: usize, to: ProxyId, path: &mut PathBuilder) {
        if path.current() == to {
            return;
        }
        if level == 1 {
            path.relay(to);
            return;
        }
        let below = level - 1;
        let from_unit = self.unit_of(below, path.current());
        let to_unit = self.unit_of(below, to);
        if from_unit != to_unit {
            let pair = self.unit_border(below, from_unit, to_unit);
            self.walk(below, pair.local, path);
            path.relay(pair.remote);
        }
        self.walk(below, to, path);
    }

    /// Solves every child of `plan` and composes the route.
    fn conquer(&self, request: &ServiceRequest, plan: RoutePlan) -> Result<HierRoute, RouteError> {
        let top = self.top_level();
        let answers = plan
            .children
            .iter()
            .map(|child| self.solve(top, child))
            .collect::<Result<Vec<_>, _>>()?;
        self.compose(request, plan, &answers)
    }

    /// The "HFC without topology abstraction" comparison of
    /// Section 6.2: every proxy has full state, but connectivity is
    /// still constrained to the HFC topology (inter-cluster traffic
    /// passes through border pairs). Optimal under that metric.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HierarchicalRouter::route`].
    pub fn route_without_aggregation(
        &self,
        request: &ServiceRequest,
    ) -> Result<ServicePath, RouteError> {
        let constrained = HfcDelays::new(self.hfc, &self.delays);
        let providers = self.store.global(&self.services);
        let router = crate::flat::FlatRouter::new(providers, &constrained);
        router.route_expanded(request, |a, b| constrained.hops(a, b))
    }

    /// Steps 1–2 of Section 5 at `level`, inside group `parent` of the
    /// level above (over every unit, at the top level), then the closing
    /// leg to `dest`: the cheapest mapping of `graph` onto the
    /// [sibling units](HierarchicalRouter::siblings), its estimated
    /// cost, and what the solve did. Only the winning sink is
    /// backtracked.
    pub(crate) fn plan_over(
        &self,
        level: usize,
        parent: usize,
        source: ProxyId,
        dest: ProxyId,
        graph: &ServiceGraph,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<LevelPlan, RouteError> {
        let solved = self.solve_level(level, parent, source, dest, graph, excluded)?;
        let sinks = solved
            .sinks(graph)
            .map(|sink| (sink.at, sink.cost, sink.unit, sink.entry.unwrap_or(source)));
        let (total, at) = self.close(level, dest, sinks)?;
        Ok((total, solved.chain(at, |unit| unit), solved.work))
    }

    /// [`CspRouter::solve_frontier`], and what its level solve did.
    ///
    /// # Errors
    ///
    /// As [`CspRouter::solve_frontier`].
    pub fn solve_frontier_with_work(
        &self,
        request: &ServiceRequest,
    ) -> Result<(CspFrontier, LevelWork), RouteError> {
        self.sink_frontier(request, &[])
    }

    /// The top-level DP (Section 5 steps 1–2) up to — but not including
    /// — the closing leg at the destination: every sink state that can
    /// win for some destination in the destination's top-level unit, in
    /// the exact order the closing loop enumerates them, and their
    /// chains as one back-pointer tree; and what the solve did.
    fn sink_frontier(
        &self,
        request: &ServiceRequest,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<(CspFrontier, LevelWork), RouteError> {
        let graph = &request.graph;
        let top = self.top_level();
        let solved =
            self.solve_level(top, 0, request.source, request.destination, graph, excluded)?;
        let work = solved.work;
        let (sinks, tree) = solved.into_tree(
            graph,
            |sink, node| Sink::new(sink.cost, sink.entry, node),
            ClusterId::new,
        );
        if sinks.is_empty() {
            return Err(RouteError::Infeasible);
        }
        Ok((CspFrontier::new(sinks, tree), work))
    }

    /// The DP of Section 5 steps 1–2 at `level` — the [level
    /// solver](crate::level) over the table of `parent`'s units — from
    /// `source` towards `dest`.
    ///
    /// The path starts in the source's own border slot when it is one,
    /// else in its unit's source slot. A source the solve has no
    /// coordinates for (inside a cluster, a non-border outside the
    /// destination's cluster) is priced at zero internal distance and
    /// visited after its unit's borders whatever its id, so neither
    /// costs nor order depend on which proxy it is. That invariance is
    /// what lets a frontier computed for one source be replayed
    /// verbatim for another.
    pub(crate) fn solve_level(
        &self,
        level: usize,
        parent: usize,
        source: ProxyId,
        dest: ProxyId,
        graph: &ServiceGraph,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<Solved<'_>, RouteError> {
        let table = self.table(level, parent);
        let src_unit = self.unit_of(level, source);
        let dst_unit = self.unit_of(level, dest);
        let known_row: Vec<f64>;
        let start = match table.border_slot(src_unit, source) {
            Ok(state) => Start {
                state,
                rank: 0,
                row: table.row(state),
            },
            Err(rank) => {
                let state = table.source_slot(src_unit);
                if level > 1 || self.knows(source, ClusterId::new(dst_unit)) {
                    known_row = table
                        .borders(src_unit)
                        .map(|b| self.internal(level, source, b))
                        .collect();
                    Start {
                        state,
                        rank,
                        row: &known_row,
                    }
                } else {
                    Start {
                        state,
                        rank: table.borders(src_unit).len(),
                        row: table.row(state),
                    }
                }
            }
        };
        table.solve(graph, &start, dst_unit, |stage, unit| {
            !excluded.contains(&(stage, ClusterId::new(unit)))
        })
    }

    /// The closing loop shared by plain routes and frontier replays:
    /// adds the final leg at `level` from each sink `(item, cost, unit,
    /// entry)` to `dest` and picks the cheapest finite total, first
    /// seen winning ties.
    fn close<T>(
        &self,
        level: usize,
        dest: ProxyId,
        sinks: impl IntoIterator<Item = (T, f64, usize, ProxyId)>,
    ) -> Result<(f64, T), RouteError> {
        let dst_unit = self.unit_of(level, dest);
        let mut best: Option<(f64, T)> = None;
        for (item, cost, unit, entry) in sinks {
            let total = cost + self.level_close(level, entry, unit, dst_unit, dest);
            // Non-finite totals (a `Down` border or a saturated
            // cluster on every remaining route) are unroutable.
            if total.is_finite() && best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, item));
            }
        }
        best.ok_or(RouteError::Infeasible)
    }

    /// Cost of the final leg from `entry` inside unit `from` of `level`
    /// to `dest`, whose unit is `dst_unit`. Above the clusters a solve
    /// prices only leaving `from`; inside a cluster also the known
    /// distance on to `dest`.
    pub(crate) fn level_close(
        &self,
        level: usize,
        entry: ProxyId,
        from: usize,
        dst_unit: usize,
        dest: ProxyId,
    ) -> f64 {
        let last = |p| {
            if level == 1 {
                self.known_internal(p, dest, ClusterId::new(dst_unit))
            } else {
                0.0
            }
        };
        if from == dst_unit {
            return last(entry);
        }
        let pair = self.unit_border(level, from, dst_unit);
        self.leave(level, entry, pair, dst_unit) + last(pair.remote)
    }

    /// Cost of leaving a unit of `level` from `entry` through border
    /// `pair`, towards a destination in unit `dst_unit`: the known
    /// approach to the border plus the border link.
    fn leave(&self, level: usize, entry: ProxyId, pair: BorderPair, dst_unit: usize) -> f64 {
        let approach = if level == 1 {
            self.known_internal(entry, pair.local, ClusterId::new(dst_unit))
        } else {
            self.internal(level, entry, pair.local)
        };
        approach + self.delays.delay(pair.local, pair.remote)
    }

    /// The level solver's table over the
    /// [sibling units](HierarchicalRouter::siblings) of `level` inside
    /// `parent`: their border pairs, the known distance between two of
    /// a unit's border proxies, the attached load summary, how far a
    /// closing leg reaches from a border (inside a cluster to its
    /// farthest member, above the clusters nowhere) and what each unit's
    /// aggregate offers.
    fn table(&self, level: usize, parent: usize) -> &LevelTable {
        let levels = self.levels.get_or_init(|| {
            self.store
                .levels(self.config, self.top_level(), || self.unset_tables())
        });
        levels[level - 1][parent].get_or_init(|| {
            LevelTable::build(
                self.siblings(level, parent),
                |from, to| self.unit_border(level, from, to),
                |a, b| self.internal(level, a, b),
                |local, remote| self.delays.delay(local, remote),
                |unit| {
                    if level == 1 {
                        self.cluster_penalty(ClusterId::new(unit))
                    } else {
                        0.0
                    }
                },
                |unit| self.unit_routable(level, unit),
                |border| match level {
                    1 => self
                        .hfc
                        .members(self.hfc.cluster_of(border))
                        .iter()
                        .map(|&d| self.internal(1, border, d))
                        .fold(0.0, f64::max),
                    _ => 0.0,
                },
                |unit| self.unit_aggregate(level, unit).iter(),
            )
        })
    }

    /// One unset table per group of every level below the top, then
    /// the top level's own.
    fn unset_tables(&self) -> LevelTables {
        let top = self.top_level();
        (1..=top)
            .map(|level| {
                let groups = if level == top {
                    1
                } else {
                    self.unit_count(level + 1)
                };
                (0..groups).map(|_| OnceLock::new()).collect()
            })
            .collect()
    }

    /// The provider index of cluster `cluster`, built on first use.
    fn providers(&self, cluster: usize) -> &ProviderIndex {
        self.store.cluster(cluster, self.hfc, &self.services)
    }

    /// The level the destination plans at: the clusters, or the top of
    /// the attached hierarchy.
    fn top_level(&self) -> usize {
        self.hierarchy.map_or(1, Hierarchy::top_level)
    }

    /// The hierarchy behind every level above the clusters.
    fn upper(&self) -> &'a Hierarchy {
        self.hierarchy
            .expect("levels above the clusters come from a hierarchy")
    }

    /// Number of units at `level`.
    fn unit_count(&self, level: usize) -> usize {
        if level == 1 {
            self.hfc.cluster_count()
        } else {
            self.upper().unit_count(level)
        }
    }

    /// The unit at `level` containing `proxy`.
    pub(crate) fn unit_of(&self, level: usize, proxy: ProxyId) -> usize {
        if level == 1 {
            self.hfc.cluster_of(proxy).index()
        } else {
            self.upper().ancestor_of_proxy(self.hfc, level, proxy)
        }
    }

    /// The border pair from unit `from` to unit `to` of `level`.
    pub(crate) fn unit_border(&self, level: usize, from: usize, to: usize) -> BorderPair {
        if level == 1 {
            self.hfc.border(ClusterId::new(from), ClusterId::new(to))
        } else {
            self.upper().border(level, from, to)
        }
    }

    /// The units of `level` a solve inside group `parent` of the level
    /// above may map onto: its members, or every unit at the top level.
    pub(crate) fn siblings(&self, level: usize, parent: usize) -> Vec<usize> {
        if level == self.top_level() {
            (0..self.unit_count(level)).collect()
        } else {
            self.upper().members(level + 1, parent).to_vec()
        }
    }

    /// The merged aggregate service set of unit `unit` at `level`.
    pub(crate) fn unit_aggregate(&self, level: usize, unit: usize) -> &ServiceSet {
        &self.aggregates[level - 1][unit]
    }

    /// Whether mapping may use `unit` of `level` at all (always, unless
    /// an attached load summary says every cluster under it is down).
    pub(crate) fn unit_routable(&self, level: usize, unit: usize) -> bool {
        if level == 1 {
            self.cluster_routable(ClusterId::new(unit))
        } else {
            self.upper()
                .clusters_under(level, unit)
                .iter()
                .any(|&c| self.cluster_routable(ClusterId::new(c)))
        }
    }

    /// Whether unit-level selection may map stages into `cluster` at
    /// all (always, unless an attached load summary says every member
    /// is down).
    fn cluster_routable(&self, cluster: ClusterId) -> bool {
        self.cluster_load
            .as_deref()
            .is_none_or(|load| load.is_routable(cluster))
    }

    /// The saturation penalty of entering `cluster`, from the attached
    /// load summary (zero without one).
    pub(crate) fn cluster_penalty(&self, cluster: ClusterId) -> f64 {
        self.cluster_load
            .as_deref()
            .map_or(0.0, |load| load.penalty(cluster))
    }

    /// Whether a solve towards a destination in `dest_cluster` has the
    /// coordinates of `proxy`: those of its own cluster's members and
    /// of every border proxy.
    fn knows(&self, proxy: ProxyId, dest_cluster: ClusterId) -> bool {
        self.hfc.cluster_of(proxy) == dest_cluster || self.hfc.is_border(proxy)
    }

    /// The internal distance between two proxies of one unit of `level`
    /// whose coordinates the solve has: their predicted delay above the
    /// clusters; inside a cluster the same with back-tracking on, and
    /// zero with it off.
    fn internal(&self, level: usize, a: ProxyId, b: ProxyId) -> f64 {
        if level > 1 || self.config.backtracking && a != b {
            self.delays.delay(a, b)
        } else {
            0.0
        }
    }

    /// The internal distance between two proxies of the same cluster,
    /// *as far as a solve towards a destination in `dest_cluster` can
    /// estimate it*: proxies whose coordinates it lacks contribute a
    /// lower bound of zero.
    pub(crate) fn known_internal(&self, a: ProxyId, b: ProxyId, dest_cluster: ClusterId) -> f64 {
        if self.knows(a, dest_cluster) && self.knows(b, dest_cluster) {
            self.internal(1, a, b)
        } else {
            0.0
        }
    }
}

impl<D> CspRouter for HierarchicalRouter<'_, D>
where
    D: DelayModel,
{
    fn solve_frontier(&self, request: &ServiceRequest) -> Result<CspFrontier, RouteError> {
        // Empty service graphs have no DP to reuse; callers route them
        // through the plain path (see the trait docs).
        if request.graph.is_empty() {
            return Err(RouteError::Infeasible);
        }
        self.sink_frontier(request, &[])
            .map(|(frontier, _)| frontier)
    }

    fn route_from_frontier(
        &self,
        request: &ServiceRequest,
        frontier: &CspFrontier,
    ) -> Result<ServicePath, RouteError> {
        let sinks = frontier
            .sinks(request.source)
            .enumerate()
            .map(|(i, (cost, cluster, entry))| (i, cost, cluster.index(), entry));
        let (estimate, i) = self.close(self.top_level(), request.destination, sinks)?;
        let plan = self.plan_from_chain(request, estimate, frontier.chain(i), LevelWork::default());
        Ok(self.conquer(request, plan)?.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::ServiceId;

    fn sid(i: usize) -> ServiceId {
        ServiceId::new(i)
    }

    use crate::fixtures::paper_example;

    #[test]
    fn fixture_reproduces_paper_borders() {
        let (hfc, _, _) = paper_example();
        assert_eq!(hfc.cluster_count(), 4);
        let check = |a: usize, b: usize, la: usize, lb: usize| {
            let pair = hfc.border(ClusterId::new(a), ClusterId::new(b));
            assert_eq!(pair.local, ProxyId::new(la), "border C{a}->C{b}");
            assert_eq!(pair.remote, ProxyId::new(lb), "border C{a}->C{b}");
        };
        check(0, 1, 1, 4); // (C0.1, C1.0)
        check(0, 2, 0, 10); // (C0.0, C2.2)
        check(0, 3, 0, 11); // (C0.0, C3.0)
        check(1, 2, 6, 8); // (C1.2, C2.0)
        check(1, 3, 5, 11); // (C1.1, C3.0)
        check(2, 3, 10, 11); // (C2.2, C3.0)
    }

    /// The full Section 5 walk-through: request
    /// `C0.2 → S1→S2→S3→S4→S5 → C2.1`.
    #[test]
    fn paper_example_end_to_end() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2), // C0.2
            ServiceGraph::linear(vec![sid(1), sid(2), sid(3), sid(4), sid(5)]),
            ProxyId::new(9), // C2.1
        );
        let route = router.route(&request).unwrap();

        // CSP: S1/C0, S2/C1, S3/C1, S4/C1, S5/C2 (Figure 7(c) bold).
        let csp_clusters: Vec<usize> = route.csp.iter().map(|&(_, c)| c.index()).collect();
        assert_eq!(csp_clusters, vec![0, 1, 1, 1, 2]);
        // Three child requests (Figure 7(d)).
        assert_eq!(route.child_count, 3);

        // Final service path (Figure 7(e)):
        // C0.2 → S1/C0.0 → -/C0.1 → S2/C1.0 → S3/C1.1 → S4/C1.1
        //      → -/C1.2 → S5/C2.0 → C2.1
        let rendered: Vec<String> = route.path.hops().iter().map(|h| h.to_string()).collect();
        assert_eq!(
            rendered,
            vec!["-/p2", "s1/p0", "-/p1", "s2/p4", "s3/p5", "s4/p5", "-/p6", "s5/p8", "-/p9"],
            "got {}",
            route.path
        );

        // True length: 1+4+20+2+0+3+25+0+2 = 57.
        assert!((route.path.length(&delays) - 57.0).abs() < 1e-9);

        // And it validates against the request.
        route
            .path
            .validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
    }

    /// The text's path-1 vs path-2 comparison: with back-tracking the
    /// router must weigh internal border distances; without it, the two
    /// candidate cluster paths tie on external links (45 each).
    #[test]
    fn backtracking_prefers_cheaper_internal_paths() {
        let (hfc, delays, services) = paper_example();
        // Request S1 → S5 from C0.2 to C2.1: S1 ∈ {C0, C3},
        // S5 ∈ {C2}. Candidate CSPs: C0→C2 direct (ext 40) or
        // C3→C2 (ext 30 + 15 = 45)... with internals the comparison
        // shifts.
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(1), sid(5)]),
            ProxyId::new(9),
        );
        let route = router.route(&request).unwrap();
        route
            .path
            .validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
        // Whatever CSP wins, the composed path must be at least as good
        // as the no-backtracking one under true delays *on average*;
        // here specifically, check both produce valid paths and the
        // backtracking estimate includes internal terms (strictly
        // larger than pure external sums).
        let naive = HierarchicalRouter::from_services(
            &hfc,
            &services,
            &delays,
            HierConfig {
                backtracking: false,
            },
        );
        let naive_route = naive.route(&request).unwrap();
        naive_route
            .path
            .validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
        assert!(route.estimate >= naive_route.estimate);
    }

    #[test]
    fn intra_cluster_request_never_leaves_the_cluster() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        // S2 → S3 fully inside C1: C1.3 → C1.2.
        let request = ServiceRequest::new(
            ProxyId::new(7),
            ServiceGraph::linear(vec![sid(2), sid(3)]),
            ProxyId::new(6),
        );
        let route = router.route(&request).unwrap();
        assert_eq!(route.child_count, 1);
        for hop in route.path.hops() {
            assert_eq!(
                hfc.cluster_of(hop.proxy),
                ClusterId::new(1),
                "hop {hop} left the cluster"
            );
        }
        route
            .path
            .validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
    }

    #[test]
    fn relay_only_request_crosses_borders() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2), // C0.2
            ServiceGraph::linear(vec![]),
            ProxyId::new(12), // C3.1
        );
        let route = router.route(&request).unwrap();
        // C0.2 → C0.0 (border) → C3.0 (border) → C3.1.
        let proxies: Vec<usize> = route.path.hops().iter().map(|h| h.proxy.index()).collect();
        assert_eq!(proxies, vec![2, 0, 11, 12]);
        // d(C0.2, C0.0) + ext(C0, C3) + d(C3.0, C3.1) = 1 + 30 + 2.
        assert_eq!(route.path.length(&delays), 33.0);
    }

    #[test]
    fn missing_service_is_reported() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(77)]),
            ProxyId::new(9),
        );
        assert_eq!(router.route(&request), Err(RouteError::NoProvider(sid(77))));
    }

    #[test]
    fn without_aggregation_is_at_least_as_short() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        // Compare on several requests: full state under the same HFC
        // connectivity can never be worse than the aggregated route
        // (both evaluated on true delays, which here equal the HFC
        // metric because cross-cluster entries are the border closure).
        let cases = [
            (2usize, vec![1usize, 2, 3, 4, 5], 9usize),
            (3, vec![4, 5], 10),
            (12, vec![1, 2], 9),
            (8, vec![5, 2], 1),
        ];
        for (src, svc, dst) in cases {
            let request = ServiceRequest::new(
                ProxyId::new(src),
                ServiceGraph::linear(svc.iter().map(|&i| sid(i)).collect()),
                ProxyId::new(dst),
            );
            let hier = router.route(&request).unwrap();
            let full = router.route_without_aggregation(&request).unwrap();
            full.validate(&request, |p, s| services[p.index()].contains(s))
                .unwrap();
            let lh = hier.path.length(&delays);
            let lf = full.length(&delays);
            assert!(
                lf <= lh + 1e-9,
                "full-state route ({lf}) must not exceed aggregated route ({lh}) \
                 for {src}→{dst} via {svc:?}"
            );
        }
    }

    /// On the paper's bi-level example, and at the top level of a
    /// depth-3 hierarchy (two regions of two clusters): one frontier,
    /// replayed for every destination in its destination's top-level
    /// unit.
    #[test]
    fn frontier_replay_matches_plain_route() {
        let check = |router: &HierarchicalRouter<'_, &son_overlay::DelayMatrix>,
                     cases: &[(usize, Vec<usize>, usize)]| {
            let top = router.top_level();
            for (src, svc, dst) in cases {
                let request = ServiceRequest::new(
                    ProxyId::new(*src),
                    ServiceGraph::linear(svc.iter().map(|&i| sid(i)).collect()),
                    ProxyId::new(*dst),
                );
                let frontier = router.solve_frontier(&request).unwrap();
                let unit = router.unit_of(top, request.destination);
                for dest in (0..router.proxy_count()).map(ProxyId::new) {
                    if router.unit_of(top, dest) != unit {
                        continue;
                    }
                    let request = ServiceRequest {
                        destination: dest,
                        ..request.clone()
                    };
                    assert_eq!(
                        router.route(&request).map(|route| route.path),
                        router.route_from_frontier(&request, &frontier),
                        "frontier replay diverged for {src}→{dest} via {svc:?}"
                    );
                }
            }
        };
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        check(
            &router,
            &[
                (2, vec![1, 2, 3, 4, 5], 9),
                (3, vec![4, 5], 10),
                (12, vec![1, 2], 9),
                (8, vec![5, 2], 1),
                (7, vec![2, 3], 6),
            ],
        );

        let (hfc, delays, services) = crate::multilevel::routed_world();
        let hierarchy = son_overlay::Hierarchy::build_with_depth(
            &hfc,
            &delays,
            &son_overlay::HierarchyConfig::default(),
            3,
        );
        assert_eq!(hierarchy.depth(), 3);
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&hierarchy);
        check(
            &router,
            &[
                (0, vec![9], 1),
                (2, vec![0, 9, 3], 4),
                (7, vec![1, 2], 11),
                (3, vec![2, 9], 10),
                (10, vec![3, 0, 1], 5),
            ],
        );
    }

    /// The reuse the serving engine relies on: a frontier computed for
    /// one unknown source (non-border, outside the destination's
    /// cluster) replayed for *another* unknown source in the same
    /// cluster must give exactly that source's own route.
    #[test]
    fn frontier_is_shareable_across_unknown_sources() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        // C0 = {0, 1, 2, 3}; borders of C0 are 0 and 1, so 2 and 3 are
        // interchangeable unknown sources for a C2 destination.
        for (a, b) in [(2usize, 3usize), (3, 2)] {
            assert!(!hfc.is_border(ProxyId::new(a)) && !hfc.is_border(ProxyId::new(b)));
            let req_a = ServiceRequest::new(
                ProxyId::new(a),
                ServiceGraph::linear(vec![sid(1), sid(2), sid(5)]),
                ProxyId::new(9),
            );
            let req_b = ServiceRequest::new(
                ProxyId::new(b),
                ServiceGraph::linear(vec![sid(1), sid(2), sid(5)]),
                ProxyId::new(10),
            );
            let frontier_a = router.solve_frontier(&req_a).unwrap();
            let frontier_b = router.solve_frontier(&req_b).unwrap();
            let borrowed = router.route_from_frontier(&req_b, &frontier_a).unwrap();
            let own = router.route(&req_b).unwrap();
            assert_eq!(frontier_a, frontier_b, "frontiers must be source-invariant");
            assert_eq!(borrowed, own.path, "replay via {a}'s frontier diverged");
        }
    }

    /// What the frontier's back-pointer tree promises, on a lattice
    /// world whose integer delays tie everywhere: the kept sinks are
    /// some of the solver's, in its order, and not all of them; each
    /// one's decoded chain is the one the solver backtracks, chains
    /// share their prefixes, and two unknown sources of one cluster —
    /// whose paths may end without leaving it — solve to `==`
    /// frontiers.
    #[test]
    fn frontier_tree_decodes_the_solver_chains_and_shares_prefixes() {
        // Four clusters of six proxies on a 2 × 3 grid each, ten apart
        // under the Manhattan metric; proxy `p` carries the services
        // `p % 4` and `(p + 1) % 4`.
        let points: Vec<(i32, i32)> = (0..24)
            .map(|p| {
                let (cluster, at) = (p / 6, p % 6);
                (10 * (cluster % 2) + at % 2, 10 * (cluster / 2) + at / 2)
            })
            .collect();
        let values = points
            .iter()
            .flat_map(|a| {
                points
                    .iter()
                    .map(move |b| f64::from((a.0 - b.0).abs() + (a.1 - b.1).abs()))
            })
            .collect();
        let delays = son_overlay::DelayMatrix::from_values(24, values);
        let labels: Vec<usize> = (0..24).map(|p| p / 6).collect();
        let hfc = HfcTopology::build(&son_clustering::Clustering::from_labels(&labels), &delays);
        let services: Vec<ServiceSet> = (0..24)
            .map(|p| [sid(p % 4), sid((p + 1) % 4)].into_iter().collect())
            .collect();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());

        let unknown: Vec<ProxyId> = hfc
            .members(ClusterId::new(0))
            .iter()
            .copied()
            .filter(|&p| !hfc.is_border(p))
            .collect();
        assert!(unknown.len() >= 2, "cluster 0 has two interior proxies");
        let graph = || ServiceGraph::linear(vec![sid(0), sid(2), sid(1), sid(3), sid(0)]);
        let request = |source| ServiceRequest::new(source, graph(), ProxyId::new(23));

        let first = request(unknown[0]);
        let (frontier, _) = router.sink_frontier(&first, &[]).unwrap();
        let solved = router
            .solve_level(1, 0, first.source, first.destination, &first.graph, &[])
            .unwrap();
        // The kept sinks are some of the solver's, in its order; a sink
        // stage's state is its (cluster, entry).
        let mut reached = solved.sinks(&first.graph);
        let chains: Vec<_> = frontier
            .decode(first.source)
            .into_iter()
            .map(|(chain, cost, cluster, entry)| {
                let sink = reached
                    .find(|s| {
                        ClusterId::new(s.unit) == cluster
                            && s.entry.unwrap_or(first.source) == entry
                    })
                    .expect("a kept sink is a reached one");
                assert_eq!(sink.cost.to_bits(), cost);
                assert_eq!(solved.chain(sink.at, ClusterId::new), chain);
                chain
            })
            .collect();
        let dropped = solved.sinks(&first.graph).count() - chains.len();
        assert!(
            dropped > 0,
            "no sink was dropped of {}",
            chains.len() + dropped
        );
        let total: usize = chains.iter().map(Vec::len).sum();
        assert!(
            frontier.nodes() < total,
            "{} nodes for {total} chain entries",
            frontier.nodes()
        );
        assert!(
            frontier
                .decode(first.source)
                .iter()
                .any(|(_, _, cluster, entry)| *cluster == ClusterId::new(0)
                    && *entry == first.source),
            "some path ends where it started"
        );
        assert_eq!(
            router.sink_frontier(&request(unknown[1]), &[]).unwrap().0,
            frontier
        );
    }

    /// The border table carries the load penalties, so a summary
    /// attached after a solve must reprice it. S3 is on offer in C1
    /// alone, so every kept sink's chain enters C1 and pays its
    /// penalty.
    #[test]
    fn cluster_load_attached_after_a_solve_is_honoured() {
        let (hfc, delays, services) = paper_example();
        let mut statuses = son_overlay::StatusMap::all_up(hfc.proxy_count());
        for &p in hfc.members(ClusterId::new(1)) {
            statuses.set_utilization(p, 0.9);
        }
        let load = ClusterLoad::from_statuses(&hfc, &statuses, 100.0);
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(1), sid(3), sid(5)]),
            ProxyId::new(9),
        );
        let build =
            || HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let solved_first = build();
        let unloaded = solved_first.solve_frontier(&request).unwrap();
        let loaded = solved_first
            .with_cluster_load(load.clone())
            .solve_frontier(&request)
            .unwrap();
        let fresh = build()
            .with_cluster_load(load)
            .solve_frontier(&request)
            .unwrap();
        assert_eq!(loaded, fresh);
        assert_ne!(loaded, unloaded, "the penalty must show in the costs");
    }

    #[test]
    fn nonlinear_request_routes_hierarchically() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        // Two configurations: [S1, S5] or [S4, S5].
        let graph = ServiceGraph::builder()
            .stage(sid(1))
            .stage(sid(4))
            .stage(sid(5))
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        let request = ServiceRequest::new(ProxyId::new(2), graph, ProxyId::new(9));
        let route = router.route(&request).unwrap();
        route
            .path
            .validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
        let chain = route.path.service_chain();
        assert_eq!(chain.len(), 2);
        assert_eq!(*chain.last().unwrap(), sid(5));
    }
}

#[cfg(test)]
mod crankback_tests {
    use super::*;
    use crate::fixtures::paper_example;
    use son_overlay::ServiceId;

    fn sid(i: usize) -> ServiceId {
        ServiceId::new(i)
    }

    /// Builds a router whose aggregate state *lies*: cluster C0 still
    /// advertises S1, but its SCT_P no longer backs it (both providers
    /// left). C3 genuinely has S1 (via C3.1).
    fn router_with_stale_aggregate<'a>(
        hfc: &'a HfcTopology,
        services: &[son_overlay::ServiceSet],
        delays: &'a son_overlay::DelayMatrix,
    ) -> HierarchicalRouter<'a, &'a son_overlay::DelayMatrix> {
        let mut sctc = SctC::new();
        let mut tables = Vec::new();
        for c in hfc.clusters() {
            let mut table = SctP::new();
            for &m in hfc.members(c) {
                let mut set = services[m.index()].clone();
                if c == ClusterId::new(0) {
                    // S1 vanished from C0's proxies...
                    let without: son_overlay::ServiceSet =
                        set.iter().filter(|s| *s != sid(1)).collect();
                    set = without;
                }
                table.update(m, set);
            }
            // ...but the aggregate still advertises the old contents.
            let mut advertised = table.aggregate();
            if c == ClusterId::new(0) {
                advertised.insert(sid(1));
            }
            sctc.update(c, advertised);
            tables.push(table);
        }
        HierarchicalRouter::from_tables(hfc, sctc, &tables, delays, HierConfig::default())
    }

    #[test]
    fn plain_route_fails_on_stale_aggregates() {
        let (hfc, delays, services) = paper_example();
        let router = router_with_stale_aggregate(&hfc, &services, &delays);
        // S1 then S5: the CSP maps S1 to C0 (closest advertiser), whose
        // table cannot actually solve it.
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(1), sid(5)]),
            ProxyId::new(9),
        );
        assert_eq!(router.route(&request), Err(RouteError::Infeasible));
    }

    #[test]
    fn crankback_recovers_via_another_cluster() {
        let (hfc, delays, services) = paper_example();
        let router = router_with_stale_aggregate(&hfc, &services, &delays);
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(1), sid(5)]),
            ProxyId::new(9),
        );
        let route = router
            .route_with_recovery(&request, 4)
            .expect("C3 can still provide S1");
        // S1 must now be served by C3.1 (proxy 12), the only remaining
        // provider.
        let s1_hop = route
            .path
            .hops()
            .iter()
            .find(|h| h.service == Some(sid(1)))
            .expect("S1 is on the path");
        assert_eq!(s1_hop.proxy, ProxyId::new(12));
        // And the path is feasible against the *actual* service state.
        route
            .path
            .validate(&request, |p, s| {
                if s == sid(1) && hfc.cluster_of(p) == ClusterId::new(0) {
                    false // S1 really is gone from C0
                } else {
                    services[p.index()].contains(s)
                }
            })
            .unwrap();
    }

    #[test]
    fn recovery_matches_plain_route_on_consistent_state() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear((1..=5).map(sid).collect()),
            ProxyId::new(9),
        );
        let plain = router.route(&request).unwrap();
        let recovered = router.route_with_recovery(&request, 3).unwrap();
        assert_eq!(plain.path, recovered.path);
    }

    #[test]
    fn attempt_budget_is_respected() {
        let (hfc, delays, services) = paper_example();
        // Every cluster's aggregate advertises a phantom service 77
        // nobody has: recovery must exhaust its budget and fail.
        let mut sctc = SctC::new();
        let mut tables = Vec::new();
        for c in hfc.clusters() {
            let mut table = SctP::new();
            for &m in hfc.members(c) {
                table.update(m, services[m.index()].clone());
            }
            let mut advertised = table.aggregate();
            advertised.insert(sid(77));
            sctc.update(c, advertised);
            tables.push(table);
        }
        let router =
            HierarchicalRouter::from_tables(&hfc, sctc, &tables, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(77)]),
            ProxyId::new(9),
        );
        // 4 clusters advertise it; with only 2 attempts we fail with
        // Infeasible (budget), with 5 we fail with NoProvider (all
        // advertisers excluded).
        assert_eq!(
            router.route_with_recovery(&request, 2),
            Err(RouteError::Infeasible)
        );
        assert_eq!(
            router.route_with_recovery(&request, 5),
            Err(RouteError::NoProvider(sid(77)))
        );
    }
}
