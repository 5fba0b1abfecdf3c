//! The map-based cluster-level DP the dense one in [`super`] replaced,
//! kept as the oracle: whole frontiers, decoded from their tree, must
//! compare equal — chains, cost bits, clusters, entries, order — with
//! the oracle's own frontier filtered by the kept-sink rule.

use super::*;
use crate::csp::Decoded;
use std::collections::BTreeMap;

impl<D> HierarchicalRouter<'_, D>
where
    D: DelayModel,
{
    /// The cluster-level DP (Section 5 steps 1–2) up to — but not
    /// including — the closing leg at the destination: every sink
    /// state is backtracked into its own chain and returned as
    /// [`CspFrontier::decode`] writes a frontier out.
    ///
    /// States are `(stage, cluster, entry proxy)`: the entry proxy — the
    /// border through which the path entered the stage's cluster (or
    /// the source proxy while still in the source's cluster) — is what
    /// lets the pass account for internal border-to-border distances
    /// (the back-tracking refinement). State *keys* normalize entries
    /// the planner has no coordinates for (a non-border source outside
    /// the destination's cluster) to a shared sentinel: such entries
    /// never contribute a cost term, so collapsing them keeps the DP
    /// exact while making the map's iteration order — and therefore
    /// every tie-break — independent of the concrete source proxy.
    /// That invariance is what lets a frontier computed for one source
    /// be replayed verbatim for another.
    pub(super) fn sink_frontier_reference(
        &self,
        request: &ServiceRequest,
        source_cluster: ClusterId,
        dest_cluster: ClusterId,
        excluded: &[(StageId, ClusterId)],
    ) -> Result<Vec<Decoded>, RouteError> {
        let graph = &request.graph;

        // Candidate clusters per stage, from aggregate state; the load
        // summary (when attached) rules out clusters with no routable
        // member left.
        let mut candidates: Vec<Vec<ClusterId>> = Vec::with_capacity(graph.len());
        for stage in graph.stage_ids() {
            let service = graph.service(stage);
            let clusters: Vec<ClusterId> = self
                .sctc()
                .clusters_with(service)
                .into_iter()
                .filter(|c| !excluded.contains(&(stage, *c)))
                .filter(|c| self.cluster_routable(*c))
                .collect();
            if clusters.is_empty() {
                return Err(RouteError::NoProvider(service));
            }
            candidates.push(clusters);
        }

        let order = graph
            .topological_order()
            .expect("service graphs are validated acyclic at construction");
        let mut states: Vec<StateMap> = vec![BTreeMap::new(); graph.len()];

        for &stage in &order {
            let si = stage.index();
            for &cluster in &candidates[si] {
                if graph.predecessors(stage).is_empty() {
                    // Transition from the source proxy's cluster.
                    let (cost, entry) = self.inter_cluster_step(
                        request.source,
                        source_cluster,
                        cluster,
                        dest_cluster,
                    );
                    let k = self.state_key(cluster, entry, dest_cluster);
                    upsert(&mut states[si], k, cost, None, entry);
                } else {
                    for &pred in graph.predecessors(stage) {
                        let pi = pred.index();
                        let prev_states: Vec<(StateKey, f64, ProxyId)> = states[pi]
                            .iter()
                            .map(|(&k, &(c, _, e))| (k, c, e))
                            .collect();
                        for (pkey, pcost, pentry) in prev_states {
                            let pcluster = ClusterId::new(pkey.0 as usize);
                            let (step, entry) =
                                self.inter_cluster_step(pentry, pcluster, cluster, dest_cluster);
                            let k = self.state_key(cluster, entry, dest_cluster);
                            upsert(&mut states[si], k, pcost + step, Some((pi, pkey)), entry);
                        }
                    }
                }
            }
        }

        // Backtrack every sink state, in the exact order the closing
        // loop will enumerate them.
        let mut out = Vec::new();
        for sink in graph.sinks() {
            let si = sink.index();
            for (&k, &(cost, _, entry)) in &states[si] {
                let cluster = ClusterId::new(k.0 as usize);
                let mut chain = Vec::new();
                let (mut ci, mut ck) = (si, k);
                loop {
                    chain.push((StageId::new(ci), ClusterId::new(ck.0 as usize)));
                    match states[ci].get(&ck).and_then(|&(_, prev, _)| prev) {
                        Some((pi, pk)) => {
                            ci = pi;
                            ck = pk;
                        }
                        None => break,
                    }
                }
                chain.reverse();
                out.push((chain, cost.to_bits(), cluster, entry));
            }
        }
        if out.is_empty() {
            return Err(RouteError::Infeasible);
        }
        Ok(out)
    }

    /// The normalized DP state key for (cluster, entry): entries the
    /// planner knows coordinates for keep their identity; unknown
    /// entries (only ever the request source) collapse to a shared
    /// sentinel so key order never depends on the concrete source.
    fn state_key(&self, cluster: ClusterId, entry: ProxyId, dest_cluster: ClusterId) -> StateKey {
        let e = if self.hfc.is_border(entry) || self.hfc.cluster_of(entry) == dest_cluster {
            entry.index() as u32
        } else {
            UNKNOWN_ENTRY
        };
        (cluster.index() as u32, e)
    }

    /// Cost of stepping from (proxy `entry` inside `from`) into cluster
    /// `to`, and the resulting entry proxy.
    fn inter_cluster_step(
        &self,
        entry: ProxyId,
        from: ClusterId,
        to: ClusterId,
        dest_cluster: ClusterId,
    ) -> (f64, ProxyId) {
        if from == to {
            return (0.0, entry);
        }
        let pair = self.hfc.border(from, to);
        let internal = self.known_internal(entry, pair.local, dest_cluster);
        (
            internal + self.delays.delay(pair.local, pair.remote) + self.cluster_penalty(to),
            pair.remote,
        )
    }
}

/// A cluster-level DAG state: (cluster, normalized entry proxy).
type StateKey = (u32, u32);
/// Back-pointer to the predecessor state: (stage index, state).
type PrevRef = (usize, StateKey);
/// Best known cost, predecessor, and *actual* entry proxy per state,
/// for one stage. The key's entry component is normalized (unknown
/// proxies collapse to [`UNKNOWN_ENTRY`]); the value carries the real
/// proxy because subsequent steps look its cluster and delays up.
type StateMap = BTreeMap<StateKey, (f64, Option<PrevRef>, ProxyId)>;

/// Key sentinel for an entry proxy the planner has no coordinates for.
/// Such entries contribute no internal-distance terms, so all of them
/// are cost-equivalent and may share one DP state.
const UNKNOWN_ENTRY: u32 = u32::MAX;

fn upsert(map: &mut StateMap, k: StateKey, cost: f64, prev: Option<PrevRef>, entry: ProxyId) {
    match map.get(&k) {
        Some(&(existing, _, _)) if existing <= cost => {}
        _ => {
            map.insert(k, (cost, prev, entry));
        }
    }
}

mod tests {
    use super::*;
    use crate::cost::{CostConfig, CostModel, LoadAwareDelays};
    use crate::router::Router;
    use proptest::prelude::*;
    use son_clustering::Clustering;
    use son_overlay::{DelayMatrix, Health, ServiceId, StatusMap};

    /// Services on offer; chains repeat them freely.
    const UNIVERSE: usize = 4;

    /// One generated comparison: a world, a request, and the knobs the
    /// shapes below turn.
    struct Case {
        delays: DelayMatrix,
        services: Vec<ServiceSet>,
        hfc: HfcTopology,
        request: ServiceRequest,
        excluded: Vec<(StageId, ClusterId)>,
        statuses: Option<StatusMap>,
        backtracking: bool,
    }

    impl Case {
        /// Proxies on a small integer lattice under the Manhattan
        /// metric — every delay and every sum of delays is an exact
        /// small integer, so equal-cost offers are the norm, not the
        /// exception — in clusters of the given sizes with shuffled
        /// ids, each proxy carrying each service with probability ½; a
        /// linear request between two random proxies.
        fn random(rng: &mut TestRng, sizes: &[usize]) -> Case {
            let mut labels: Vec<usize> = sizes
                .iter()
                .enumerate()
                .flat_map(|(c, &size)| std::iter::repeat_n(c, size))
                .collect();
            for i in (1..labels.len()).rev() {
                labels.swap(i, rng.below(i + 1));
            }
            let n = labels.len();
            let points: Vec<(i32, i32)> = (0..n)
                .map(|_| (rng.below(7) as i32, rng.below(7) as i32))
                .collect();
            let mut values = vec![0.0; n * n];
            for (i, a) in points.iter().enumerate() {
                for (j, b) in points.iter().enumerate() {
                    values[i * n + j] = f64::from((a.0 - b.0).abs() + (a.1 - b.1).abs());
                }
            }
            let delays = DelayMatrix::from_values(n, values);
            let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
            let services = (0..n)
                .map(|_| {
                    (0..UNIVERSE)
                        .filter(|_| rng.below(2) == 0)
                        .map(ServiceId::new)
                        .collect()
                })
                .collect();
            let chain = (0..1 + rng.below(5)).map(|_| service(rng)).collect();
            let request = ServiceRequest::new(
                ProxyId::new(rng.below(n)),
                ServiceGraph::linear(chain),
                ProxyId::new(rng.below(n)),
            );
            Case {
                delays,
                services,
                hfc,
                request,
                excluded: Vec::new(),
                statuses: None,
                backtracking: true,
            }
        }

        /// Between 2 and 6 clusters of 1 to 4 proxies.
        fn mixed(rng: &mut TestRng) -> Case {
            let sizes: Vec<usize> = (0..2 + rng.below(5)).map(|_| 1 + rng.below(4)).collect();
            Case::random(rng, &sizes)
        }

        /// Solves with both implementations and compares whole
        /// frontiers — chains, cost bits, clusters, entries, order — the
        /// oracle's filtered by the kept-sink rule; then closes the kept
        /// frontier, the oracle's full one and a plain plan at every
        /// member of the destination's cluster.
        fn check(&self) -> TestCaseResult {
            let config = HierConfig {
                backtracking: self.backtracking,
            };
            match &self.statuses {
                None => self.compare(&HierarchicalRouter::from_services(
                    &self.hfc,
                    &self.services,
                    &self.delays,
                    config,
                )),
                // Wired the way the serving engine wires it.
                Some(statuses) => {
                    let weights = CostConfig::balanced();
                    let model = CostModel::new(weights, statuses.clone());
                    let load = ClusterLoad::from_statuses(
                        &self.hfc,
                        statuses,
                        weights.cluster_load_penalty,
                    );
                    self.compare(
                        &HierarchicalRouter::from_services(
                            &self.hfc,
                            &self.services,
                            LoadAwareDelays::new(&self.delays, &model),
                            config,
                        )
                        .with_cluster_load(load),
                    )
                }
            }
        }

        fn compare<D: DelayModel>(&self, router: &HierarchicalRouter<'_, D>) -> TestCaseResult {
            let (source, excluded) = (self.request.source, &self.excluded[..]);
            let source_cluster = self.hfc.cluster_of(source);
            let dest_cluster = self.hfc.cluster_of(self.request.destination);
            if let Ok(solved) = router.solve_level(
                1,
                0,
                source,
                self.request.destination,
                &self.request.graph,
                excluded,
            ) {
                let (coarse, winning, chained) = solved.bounds(&self.request.graph);
                prop_assert!(coarse >= winning, "coarse bound {coarse} below {winning}");
                prop_assert!(
                    chained <= coarse,
                    "a kept chain's state at {chained} lies above the coarse bound {coarse}"
                );
            }
            let frontier = router
                .sink_frontier(&self.request, excluded)
                .map(|(frontier, _)| frontier);
            let full = router.sink_frontier_reference(
                &self.request,
                source_cluster,
                dest_cluster,
                excluded,
            );
            let dense = frontier.clone().map(|f| f.decode(source));
            let (kept, bound) = match &full {
                Ok(full) => {
                    let (kept, bound) = self.winners(router, full);
                    (Ok(kept), bound)
                }
                Err(err) => (Err(err.clone()), f64::INFINITY),
            };
            prop_assert_eq!(&dense, &kept);
            if bound.is_finite() {
                let infinite = dense
                    .iter()
                    .flatten()
                    .filter(|s| f64::from_bits(s.1).is_infinite());
                prop_assert_eq!(infinite.count(), 0, "an unbounded sink was kept");
            } else {
                prop_assert_eq!(&dense, &full, "a sink was dropped without a bound");
            }

            // Whatever destination of its cluster replays the frontier,
            // it closes as the full frontier and the plain route do.
            for &dest in self.hfc.members(dest_cluster) {
                let request = ServiceRequest {
                    destination: dest,
                    ..self.request.clone()
                };
                let close = |sinks: Vec<Decoded>| {
                    router
                        .close(1, dest, sinks.into_iter().map(closable))
                        .map(|(total, chain)| (total.to_bits(), chain))
                };
                let pruned = dense.clone().and_then(close);
                let whole = full.clone().and_then(close);
                let plain = router
                    .plan_excluding(&request, excluded)
                    .map(|plan| (plan.estimate.to_bits(), plan.csp));
                prop_assert_eq!(&pruned, &whole, "pruned and full frontier close apart");
                prop_assert_eq!(&pruned, &plain, "replay and plain planning close apart");
                if excluded.is_empty() {
                    let replayed = frontier
                        .clone()
                        .and_then(|f| router.route_from_frontier(&request, &f));
                    prop_assert_eq!(replayed, router.route_path(&request));
                }
            }
            Ok(())
        }

        /// The sinks of a full frontier that the kept-sink rule keeps,
        /// and its bound: the smallest finite upper bound on a total
        /// over the destination's cluster, each bound summed from the
        /// router's closing pieces and a scan of the cluster's members.
        fn winners<D: DelayModel>(
            &self,
            router: &HierarchicalRouter<'_, D>,
            full: &[Decoded],
        ) -> (Vec<Decoded>, f64) {
            let dest = self.hfc.cluster_of(self.request.destination);
            let farthest = |from| {
                self.hfc
                    .members(dest)
                    .iter()
                    .map(|&d| router.known_internal(from, d, dest))
                    .fold(0.0, f64::max)
            };
            let bounds: Vec<(f64, f64)> = full
                .iter()
                .map(|&(_, bits, cluster, entry)| {
                    let cost = f64::from_bits(bits);
                    // A source slot's row may be the solve's own.
                    let source_slot = !self.hfc.is_border(entry);
                    if cluster == dest {
                        let upper = if source_slot {
                            f64::INFINITY
                        } else {
                            cost + farthest(entry)
                        };
                        return (cost + 0.0, upper);
                    }
                    let pair = self.hfc.border(cluster, dest);
                    let leave = router.leave(1, entry, pair, dest.index());
                    let upper = if source_slot {
                        f64::INFINITY
                    } else {
                        cost + (leave + farthest(pair.remote))
                    };
                    (cost + leave, upper)
                })
                .collect();
            let bound = bounds
                .iter()
                .map(|b| b.1)
                .filter(|b| b.is_finite())
                .fold(f64::INFINITY, f64::min);
            let kept = full
                .iter()
                .zip(&bounds)
                .filter(|(_, b)| b.0 <= bound)
                .map(|(sink, _)| sink.clone())
                .collect();
            (kept, bound)
        }

        fn proxies(&self) -> usize {
            self.hfc.proxy_count()
        }

        fn some_member(&self, rng: &mut TestRng, cluster: ClusterId) -> ProxyId {
            let members = self.hfc.members(cluster);
            members[rng.below(members.len())]
        }
    }

    /// A decoded sink as the closing loop takes it, carrying its chain.
    fn closable(
        (chain, bits, cluster, entry): Decoded,
    ) -> (Vec<(StageId, ClusterId)>, f64, usize, ProxyId) {
        (chain, f64::from_bits(bits), cluster.index(), entry)
    }

    fn service(rng: &mut TestRng) -> ServiceId {
        ServiceId::new(rng.below(UNIVERSE))
    }

    /// A non-linear service graph with a two-predecessor stage: a join
    /// of two sources, the same with a tail, or a diamond.
    fn joining_graph(rng: &mut TestRng) -> ServiceGraph {
        let builder = (0..4).fold(ServiceGraph::builder(), |b, _| b.stage(service(rng)));
        match rng.below(3) {
            0 => builder.edge(0, 3).edge(1, 3).edge(2, 3),
            1 => builder.edge(0, 2).edge(1, 2).edge(2, 3),
            _ => builder.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3),
        }
        .build()
        .expect("edges run forward")
    }

    fn rng(seed: u64) -> TestRng {
        TestRng::deterministic(&seed.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn lattice_ties_keep_the_first_offer(seed in any::<u64>()) {
            Case::mixed(&mut rng(seed)).check()?;
        }

        #[test]
        fn a_border_source_starts_in_its_border_slot(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let mut case = Case::mixed(rng);
            let borders = case.hfc.all_border_proxies();
            case.request.source = borders[rng.below(borders.len())];
            case.check()?;
        }

        /// Clusters of 3 to 5 with at most two borders each, so every
        /// cluster has interior members: one is the source, and the
        /// destination shares its cluster.
        #[test]
        fn a_source_inside_the_destination_cluster_sorts_by_id(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let sizes: Vec<usize> = (0..2 + rng.below(2)).map(|_| 3 + rng.below(3)).collect();
            let mut case = Case::random(rng, &sizes);
            let interior: Vec<ProxyId> = (0..case.proxies())
                .map(ProxyId::new)
                .filter(|&p| !case.hfc.is_border(p))
                .collect();
            case.request.source = interior[rng.below(interior.len())];
            case.request.destination =
                case.some_member(rng, case.hfc.cluster_of(case.request.source));
            case.check()?;
        }

        #[test]
        fn excluded_pairs_are_never_mapped(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let mut case = Case::mixed(rng);
            for _ in 0..1 + rng.below(3) {
                case.excluded.push((
                    StageId::new(rng.below(case.request.graph.len())),
                    ClusterId::new(rng.below(case.hfc.cluster_count())),
                ));
            }
            case.check()?;
        }

        /// One cluster entirely `Down` (unroutable), every other proxy
        /// loaded — non-zero proxy and cluster penalties that are not
        /// integers, so the order of the float additions shows.
        #[test]
        fn cluster_load_rules_out_and_penalises(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let mut case = Case::mixed(rng);
            let mut statuses = StatusMap::all_up(case.proxies());
            for p in (0..case.proxies()).map(ProxyId::new) {
                statuses.set_utilization(p, rng.next_f64());
            }
            let dead = ClusterId::new(rng.below(case.hfc.cluster_count()));
            for &p in case.hfc.members(dead) {
                statuses.set_health(p, Health::Down);
            }
            case.statuses = Some(statuses);
            case.check()?;
        }

        /// One `Down` border in a cluster that stays routable: states
        /// behind it cost `+∞` and must still be present. Their sinks
        /// leave the frontier when some sink has a finite upper bound,
        /// and stay at `+∞` when none has — as when, in every other
        /// case, a `Down` member of the destination's cluster makes
        /// every reach into it `+∞`.
        #[test]
        fn a_down_border_stays_in_the_frontier_at_infinity(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let sizes: Vec<usize> = (0..2 + rng.below(4)).map(|_| 2 + rng.below(3)).collect();
            let mut case = Case::random(rng, &sizes);
            let borders = case.hfc.all_border_proxies();
            let mut statuses = StatusMap::all_up(case.proxies());
            statuses.set_health(borders[rng.below(borders.len())], Health::Down);
            if rng.below(2) == 0 {
                let dest_cluster = case.hfc.cluster_of(case.request.destination);
                statuses.set_health(case.some_member(rng, dest_cluster), Health::Down);
            }
            case.statuses = Some(statuses);
            case.check()?;
        }

        #[test]
        fn without_backtracking_internal_distances_vanish(seed in any::<u64>()) {
            let mut case = Case::mixed(&mut rng(seed));
            case.backtracking = false;
            case.check()?;
        }

        #[test]
        fn a_joining_stage_takes_offers_predecessor_by_predecessor(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let mut case = Case::mixed(rng);
            case.request.graph = joining_graph(rng);
            case.check()?;
        }

        /// One cluster (no border at all), and clusters of exactly two
        /// proxies (every member a border once there are three).
        #[test]
        fn degenerate_topologies(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let members = 1 + rng.below(5);
            Case::random(rng, &[members]).check()?;
            let pairs = vec![2; 2 + rng.below(4)];
            Case::random(rng, &pairs).check()?;
        }
    }
}
