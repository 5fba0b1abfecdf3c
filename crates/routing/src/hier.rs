//! Hierarchical (divide-and-conquer) service path finding — the
//! paper's Section 5.
//!
//! The destination proxy `pd` holds aggregate state only (`SCT_C` plus
//! coordinates of its own cluster and of every border proxy), so
//! routing proceeds top-down:
//!
//! 1. **map** — find, per stage, the clusters whose aggregate set
//!    offers the demanded service, forming a cluster-level service DAG;
//! 2. **shortest path with back-tracking** — run a shortest-path pass
//!    whose edge weights include not only the external border links but
//!    also the *internal* border-to-border distances `pd` can estimate
//!    from the coordinates it knows (the paper's back-tracking
//!    refinement; disable via [`HierConfig::backtracking`] to measure
//!    its benefit);
//! 3. **divide** — dissect the cluster-level service path (CSP) into
//!    child requests, one per maximal run of stages in the same
//!    cluster, with entry/exit border proxies as child endpoints;
//! 4. **conquer** — solve each child optimally inside its cluster with
//!    the flat service-DAG method over `SCT_P`, then compose the child
//!    paths and the border glue hops into the final service path.

use crate::csp::{CspCandidate, CspFrontier, CspRouter};
use crate::flat::RouteError;
use crate::level::{LevelTable, Start};
use crate::path::{PathBuilder, ServicePath};
use crate::providers::ProviderIndex;
use crate::sdag::{solve_service_dag, Assignment};
use son_overlay::{
    ClusterId, DelayModel, HfcDelays, HfcTopology, ProxyId, ServiceGraph, ServiceId,
    ServiceRequest, ServiceSet, StageId,
};
use son_state::{ClusterLoad, SctC, SctP};
use std::sync::OnceLock;

#[cfg(test)]
mod oracle;

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
/// the cluster-level decisions that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct HierRoute {
    /// The final composed service path.
    pub path: ServicePath,
    /// Cluster assigned to each stage of the chosen configuration, in
    /// path order.
    pub csp: Vec<(StageId, ClusterId)>,
    /// Number of child requests the CSP was dissected into.
    pub child_count: usize,
    /// The cluster-level cost estimate that selected this CSP (external
    /// links plus known internal lower bounds).
    pub estimate: f64,
}

/// One child request of a dissected CSP: a linear chain of services to
/// be resolved inside one cluster, between an entry and an exit proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildSpec {
    /// The cluster that must resolve this child.
    pub cluster: ClusterId,
    /// The proxy responsible for solving it (the cluster's exit border,
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
/// steps 1–3): the cluster-level service path and the child requests it
/// dissects into.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Cluster assigned to each stage of the chosen configuration.
    pub csp: Vec<(StageId, ClusterId)>,
    /// The cluster-level cost estimate that selected this CSP.
    pub estimate: f64,
    /// Child requests, in path order.
    pub children: Vec<ChildSpec>,
}

/// The hierarchical router.
///
/// Holds the converged distributed state (aggregates per cluster,
/// capability tables per cluster) and answers requests the way the
/// deployed system would: cluster-level decisions use only
/// aggregate-visible information, intra-cluster decisions use only the
/// local cluster's tables.
#[derive(Debug)]
pub struct HierarchicalRouter<'a, D> {
    hfc: &'a HfcTopology,
    delays: D,
    sctc: SctC,
    cluster_providers: Vec<ProviderIndex>,
    /// Union of `cluster_providers`, read only by
    /// [`HierarchicalRouter::route_without_aggregation`]; filled on
    /// first use so ordinary construction never pays for it.
    global_providers: OnceLock<ProviderIndex>,
    config: HierConfig,
    cluster_load: Option<ClusterLoad>,
    /// Pre-computed delays of the cluster-level DP, filled by the
    /// first frontier solve: routers are rebuilt per batch, and a batch
    /// of cache hits must not pay for a table it never reads.
    border_table: OnceLock<LevelTable>,
}

impl<'a, D> HierarchicalRouter<'a, D>
where
    D: DelayModel,
{
    /// Builds the router directly from per-proxy installed services
    /// (producing the same tables the state protocol converges to).
    ///
    /// `delays` is the *known* distance map — coordinate-predicted
    /// distances in a deployment, exact distances in unit tests.
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count.
    pub fn from_services(
        hfc: &'a HfcTopology,
        services: &[ServiceSet],
        delays: D,
        config: HierConfig,
    ) -> Self {
        assert_eq!(
            services.len(),
            hfc.proxy_count(),
            "one service set per proxy required"
        );
        let mut sctc = SctC::new();
        let mut cluster_tables = Vec::with_capacity(hfc.cluster_count());
        for c in hfc.clusters() {
            let mut table = SctP::new();
            for &m in hfc.members(c) {
                table.update(m, services[m.index()].clone());
            }
            sctc.update(c, table.aggregate());
            cluster_tables.push(table);
        }
        Self::from_tables(hfc, sctc, &cluster_tables, delays, config)
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
        let cluster_providers: Vec<ProviderIndex> = cluster_tables
            .iter()
            .map(ProviderIndex::from_sctp)
            .collect();
        HierarchicalRouter {
            hfc,
            delays,
            sctc,
            cluster_providers,
            global_providers: OnceLock::new(),
            config,
            cluster_load: None,
            border_table: OnceLock::new(),
        }
    }

    /// Attaches per-cluster load/health summaries (the saturation
    /// counterpart of the aggregate `SCT_C` rows): cluster-level (CSP)
    /// selection then skips clusters with no routable members and
    /// penalizes saturated ones.
    pub fn with_cluster_load(mut self, load: ClusterLoad) -> Self {
        self.cluster_load = Some(load);
        // The table carries the load penalties.
        self.border_table = OnceLock::new();
        self
    }

    /// The aggregate table the router decides from.
    pub fn sctc(&self) -> &SctC {
        &self.sctc
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
    /// no cluster's aggregate; [`RouteError::Infeasible`] when no
    /// configuration admits a full cluster-level mapping.
    pub fn route(&self, request: &ServiceRequest) -> Result<HierRoute, RouteError> {
        let plan = self.plan(request)?;
        // Solve every child locally (the distributed variant lives in
        // [`crate::session`]).
        let mut answers = Vec::with_capacity(plan.children.len());
        for child in &plan.children {
            answers.push(self.solve_child(child).ok_or(RouteError::Infeasible)?);
        }
        Ok(self.compose(request, plan, &answers))
    }

    /// Routes with crankback recovery: when a child request turns out
    /// unsolvable inside its assigned cluster (stale aggregate state —
    /// the cluster advertised a service its table can no longer back),
    /// the offending `(stage, cluster)` assignments are excluded and
    /// the cluster-level path is recomputed, up to `max_attempts`
    /// times.
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
                None => return Ok(self.compose(request, plan, &answers)),
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
    /// alone*: compute the cluster-level service path from aggregate
    /// state and dissect it into child requests. The returned plan
    /// names, per child, the proxy responsible for solving it (the
    /// cluster's exit border; the last child belongs to the
    /// destination proxy itself).
    ///
    /// # Errors
    ///
    /// Same conditions as [`HierarchicalRouter::route`].
    pub fn plan(&self, request: &ServiceRequest) -> Result<RoutePlan, RouteError> {
        self.plan_excluding(request, &[])
    }

    /// Like [`HierarchicalRouter::plan`], but never maps an excluded
    /// `(stage, cluster)` pair — the knob behind crankback recovery.
    pub fn plan_excluding(
        &self,
        request: &ServiceRequest,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<RoutePlan, RouteError> {
        let source_cluster = self.hfc.cluster_of(request.source);
        let dest_cluster = self.hfc.cluster_of(request.destination);
        let (estimate, chain) =
            self.cluster_level_path(request, source_cluster, dest_cluster, excluded)?;
        Ok(self.plan_from_chain(request, estimate, chain))
    }

    /// Step 3 of Section 5 alone: dissects an already-selected
    /// cluster-level chain into child requests. Shared by the plain
    /// planning path and the frontier-replay path so both produce the
    /// same plan from the same chain by construction.
    fn plan_from_chain(
        &self,
        request: &ServiceRequest,
        estimate: f64,
        chain: Vec<(StageId, ClusterId)>,
    ) -> RoutePlan {
        let source_cluster = self.hfc.cluster_of(request.source);
        let dest_cluster = self.hfc.cluster_of(request.destination);
        let groups = dissect(&chain);

        let mut children = Vec::with_capacity(groups.len());
        let mut prev_cluster = source_cluster;
        for (gi, group) in groups.iter().enumerate() {
            let cluster = group.cluster;
            let source = if cluster == prev_cluster && gi == 0 {
                request.source
            } else {
                self.hfc.border(cluster, prev_cluster).local
            };
            let is_last = gi + 1 == groups.len();
            let dest = if !is_last {
                self.hfc.border(cluster, groups[gi + 1].cluster).local
            } else if cluster == dest_cluster {
                request.destination
            } else {
                self.hfc.border(cluster, dest_cluster).local
            };
            // The paper ships each child request to the cluster's exit
            // border; the final child is handled by pd itself.
            let solver = if is_last && cluster == dest_cluster {
                request.destination
            } else {
                dest
            };
            children.push(ChildSpec {
                cluster,
                solver,
                services: group
                    .stages
                    .iter()
                    .map(|&s| request.graph.service(s))
                    .collect(),
                source,
                dest,
            });
            prev_cluster = cluster;
        }
        RoutePlan {
            csp: chain,
            estimate,
            children,
        }
    }

    /// Solves one child request optimally within its cluster (what the
    /// child's solver proxy does upon receipt, Section 5.2). Returns
    /// `None` if the cluster cannot satisfy the chain — impossible for
    /// plans derived from converged state, kept for robustness.
    pub fn solve_child(&self, child: &ChildSpec) -> Option<Vec<Assignment>> {
        let graph = ServiceGraph::linear(child.services.clone());
        let (_, assignments) = solve_service_dag(
            &graph,
            child.source,
            child.dest,
            &self.cluster_providers[child.cluster.index()],
            &self.delays,
        )?;
        Some(assignments)
    }

    /// Step 4 of Section 5: composes child answers and border glue hops
    /// into the final service path.
    ///
    /// # Panics
    ///
    /// Panics if `answers` does not match the plan's children.
    pub fn compose(
        &self,
        request: &ServiceRequest,
        plan: RoutePlan,
        answers: &[Vec<Assignment>],
    ) -> HierRoute {
        assert_eq!(
            answers.len(),
            plan.children.len(),
            "one answer per child request required"
        );
        let source_cluster = self.hfc.cluster_of(request.source);
        let dest_cluster = self.hfc.cluster_of(request.destination);
        let mut path = PathBuilder::start(request.source);
        let mut prev_cluster = source_cluster;
        for (child, assignments) in plan.children.iter().zip(answers) {
            let cluster = child.cluster;
            if cluster != prev_cluster {
                let pair = self.hfc.border(prev_cluster, cluster);
                path.relay(pair.local);
                path.relay(pair.remote);
            }
            for a in assignments {
                path.serve(a.proxy, child.services[a.stage.index()]);
            }
            path.relay(child.dest);
            prev_cluster = cluster;
        }
        if prev_cluster != dest_cluster {
            let pair = self.hfc.border(prev_cluster, dest_cluster);
            path.relay(pair.local);
            path.relay(pair.remote);
        }

        HierRoute {
            path: path.finish(request.destination),
            child_count: plan.children.len(),
            csp: plan.csp,
            estimate: plan.estimate,
        }
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
        let providers = self
            .global_providers
            .get_or_init(|| ProviderIndex::union(&self.cluster_providers));
        let router = crate::flat::FlatRouter::new(providers, &constrained);
        router.route_expanded(request, |a, b| constrained.hops(a, b))
    }

    /// Computes the cluster-level shortest service path.
    ///
    /// Implemented as the destination-independent [`sink_frontier`] DP
    /// followed by the cheap [`close_frontier`] replay — one code path
    /// whether the frontier came from a fresh solve or a cache, which
    /// is what makes CSP-tier caching bit-identical to uncached
    /// routing.
    ///
    /// [`sink_frontier`]: HierarchicalRouter::sink_frontier
    /// [`close_frontier`]: HierarchicalRouter::close_frontier
    fn cluster_level_path(
        &self,
        request: &ServiceRequest,
        source_cluster: ClusterId,
        dest_cluster: ClusterId,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<(f64, Vec<(StageId, ClusterId)>), RouteError> {
        if request.graph.is_empty() {
            let (cost, _) = self.inter_cluster_cost(request.source, source_cluster, dest_cluster);
            if !cost.is_finite() {
                return Err(RouteError::Infeasible);
            }
            return Ok((cost, Vec::new()));
        }
        let frontier = self.sink_frontier(request, source_cluster, dest_cluster, excluded)?;
        self.close_frontier(request, dest_cluster, &frontier)
    }

    /// The cluster-level DP (Section 5 steps 1–2) up to — but not
    /// including — the closing leg at the destination: every sink
    /// state is backtracked into a [`CspCandidate`] and returned. The
    /// DP itself is the [level solver](crate::level) over one table of
    /// all clusters.
    ///
    /// The frontier lists sink states in visiting order: by cluster,
    /// then by entry proxy id — except that a source the planner has no
    /// coordinates for (a non-border outside the destination's cluster)
    /// sorts after its cluster's borders whatever its id. Such a source
    /// never contributes a cost term either, so neither costs nor order
    /// depend on which proxy it is. That invariance is what lets a
    /// frontier computed for one source be replayed verbatim for
    /// another.
    fn sink_frontier(
        &self,
        request: &ServiceRequest,
        source_cluster: ClusterId,
        dest_cluster: ClusterId,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<CspFrontier, RouteError> {
        let graph = &request.graph;
        let table = self.border_table.get_or_init(|| self.level_table());

        // Where the path starts: the source's own border slot when it
        // is a border, else its cluster's source slot — which the table
        // prices at zero internal distance, while a source inside the
        // destination's cluster has known ones.
        let sc = source_cluster.index();
        let known_source_row: Vec<f64>;
        let start = match table.border_slot(sc, request.source) {
            Ok(state) => Start {
                state,
                rank: 0,
                row: table.row(state),
            },
            Err(rank) => {
                let state = table.source_slot(sc);
                let known = source_cluster == dest_cluster;
                let row = if known && self.config.backtracking {
                    known_source_row = table
                        .borders(sc)
                        .map(|b| self.delays.delay(request.source, b))
                        .collect();
                    &known_source_row
                } else {
                    table.row(state)
                };
                Start {
                    state,
                    rank: if known { rank } else { table.borders(sc).len() },
                    row,
                }
            }
        };

        // Candidate clusters come from aggregate state.
        let mut aggregates = vec![None; self.hfc.cluster_count()];
        for (c, set) in self.sctc.iter() {
            aggregates[c.index()] = Some(set);
        }
        let solved = table.solve(graph, &start, |stage, c| {
            aggregates[c].is_some_and(|set| set.contains(graph.service(stage)))
                && !excluded.contains(&(stage, ClusterId::new(c)))
        })?;

        // Backtrack every sink state, in the exact order the closing
        // loop will enumerate them.
        let out: Vec<CspCandidate> = solved
            .sinks(graph)
            .map(|sink| CspCandidate {
                chain: solved.chain(sink.at, ClusterId::new),
                cost: sink.cost,
                cluster: ClusterId::new(sink.unit),
                entry: sink.entry.unwrap_or(request.source),
            })
            .collect();
        if out.is_empty() {
            return Err(RouteError::Infeasible);
        }
        Ok(CspFrontier { candidates: out })
    }

    /// The level-1 table over every cluster: HFC borders, the
    /// back-tracking rule between two border proxies (both always
    /// known), the attached load summary.
    fn level_table(&self) -> LevelTable {
        LevelTable::build(
            self.hfc.clusters().map(ClusterId::index),
            |from, to| self.hfc.border(ClusterId::new(from), ClusterId::new(to)),
            |a, b| {
                if self.config.backtracking && a != b {
                    self.delays.delay(a, b)
                } else {
                    0.0
                }
            },
            |local, remote| self.delays.delay(local, remote),
            |c| self.cluster_penalty(ClusterId::new(c)),
            |c| self.cluster_routable(ClusterId::new(c)),
        )
    }

    /// The closing loop of the cluster-level solve: adds the final leg
    /// to the concrete destination per candidate and picks the cheapest
    /// finite total, first-seen winning ties — exactly the selection
    /// the monolithic solve performed.
    fn close_frontier(
        &self,
        request: &ServiceRequest,
        dest_cluster: ClusterId,
        frontier: &CspFrontier,
    ) -> Result<(f64, Vec<(StageId, ClusterId)>), RouteError> {
        let mut best: Option<(f64, usize)> = None;
        for (i, cand) in frontier.candidates.iter().enumerate() {
            let (close, _) =
                self.close_at_destination(cand.entry, cand.cluster, dest_cluster, request);
            let total = cand.cost + close;
            // Non-finite totals (a `Down` border or a saturated
            // cluster on every remaining route) are unroutable.
            if total.is_finite() && best.is_none_or(|(b, _)| total < b) {
                best = Some((total, i));
            }
        }
        let (total, i) = best.ok_or(RouteError::Infeasible)?;
        Ok((total, frontier.candidates[i].chain.clone()))
    }

    /// Whether CSP selection may map stages into `cluster` at all
    /// (always, unless an attached load summary says every member is
    /// down).
    fn cluster_routable(&self, cluster: ClusterId) -> bool {
        self.cluster_load
            .as_ref()
            .is_none_or(|load| load.is_routable(cluster))
    }

    /// The saturation penalty of entering `cluster`, from the attached
    /// load summary (zero without one).
    fn cluster_penalty(&self, cluster: ClusterId) -> f64 {
        self.cluster_load
            .as_ref()
            .map_or(0.0, |load| load.penalty(cluster))
    }

    /// Cost of the final leg from (entry inside `from`) to the
    /// destination proxy.
    fn close_at_destination(
        &self,
        entry: ProxyId,
        from: ClusterId,
        dest_cluster: ClusterId,
        request: &ServiceRequest,
    ) -> (f64, ProxyId) {
        if from == dest_cluster {
            (
                self.known_internal(entry, request.destination, dest_cluster),
                request.destination,
            )
        } else {
            let pair = self.hfc.border(from, dest_cluster);
            let internal = self.known_internal(entry, pair.local, dest_cluster);
            let external = self.delays.delay(pair.local, pair.remote);
            let last = self.known_internal(pair.remote, request.destination, dest_cluster);
            (internal + external + last, request.destination)
        }
    }

    /// Cost of a relay-only inter-cluster hop sequence (empty service
    /// graphs).
    fn inter_cluster_cost(
        &self,
        source: ProxyId,
        source_cluster: ClusterId,
        dest_cluster: ClusterId,
    ) -> (f64, ProxyId) {
        if source_cluster == dest_cluster {
            (0.0, source)
        } else {
            let pair = self.hfc.border(source_cluster, dest_cluster);
            (
                self.known_internal(source, pair.local, dest_cluster)
                    + self.delays.delay(pair.local, pair.remote),
                pair.remote,
            )
        }
    }

    /// The internal distance between two proxies of the same cluster,
    /// *as far as the destination proxy can estimate it*: it knows the
    /// coordinates of its own cluster's members and of every border
    /// proxy; other proxies contribute a lower bound of zero. Disabled
    /// entirely when back-tracking is off.
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

/// A maximal run of consecutive stages mapped to the same cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Group {
    cluster: ClusterId,
    stages: Vec<StageId>,
}

fn dissect(chain: &[(StageId, ClusterId)]) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for &(stage, cluster) in chain {
        match groups.last_mut() {
            Some(g) if g.cluster == cluster => g.stages.push(stage),
            _ => groups.push(Group {
                cluster,
                stages: vec![stage],
            }),
        }
    }
    groups
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
        let source_cluster = self.hfc.cluster_of(request.source);
        let dest_cluster = self.hfc.cluster_of(request.destination);
        self.sink_frontier(request, source_cluster, dest_cluster, &[])
    }

    fn route_from_frontier(
        &self,
        request: &ServiceRequest,
        frontier: &CspFrontier,
    ) -> Result<ServicePath, RouteError> {
        let dest_cluster = self.hfc.cluster_of(request.destination);
        let (estimate, chain) = self.close_frontier(request, dest_cluster, frontier)?;
        let plan = self.plan_from_chain(request, estimate, chain);
        let mut answers = Vec::with_capacity(plan.children.len());
        for child in &plan.children {
            answers.push(self.solve_child(child).ok_or(RouteError::Infeasible)?);
        }
        Ok(self.compose(request, plan, &answers).path)
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

    #[test]
    fn frontier_replay_matches_plain_route() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let cases = [
            (2usize, vec![1usize, 2, 3, 4, 5], 9usize),
            (3, vec![4, 5], 10),
            (12, vec![1, 2], 9),
            (8, vec![5, 2], 1),
            (7, vec![2, 3], 6),
        ];
        for (src, svc, dst) in cases {
            let request = ServiceRequest::new(
                ProxyId::new(src),
                ServiceGraph::linear(svc.iter().map(|&i| sid(i)).collect()),
                ProxyId::new(dst),
            );
            let plain = router.route(&request).unwrap();
            let frontier = router.solve_frontier(&request).unwrap();
            let replayed = router.route_from_frontier(&request, &frontier).unwrap();
            assert_eq!(
                plain.path, replayed,
                "frontier replay diverged for {src}→{dst} via {svc:?}"
            );
        }
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

    /// The border table carries the load penalties, so a summary
    /// attached after a solve must reprice it.
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
            ServiceGraph::linear(vec![sid(1), sid(2), sid(5)]),
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
