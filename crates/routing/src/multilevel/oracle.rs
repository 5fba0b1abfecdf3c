//! The map-based level DP the dense [level solver](crate::level)
//! replaced in [`HierarchicalRouter::plan_over`], kept as the oracle:
//! chains (the chosen sink is a chain's last entry) and total cost bits
//! must compare equal at every level of every hierarchy.

use super::*;
use std::collections::BTreeMap;

/// A level-k DAG state: (unit, entry proxy).
type StateKey = (u32, u32);
/// Best known cost and predecessor per state, for one stage.
type StateMap = BTreeMap<StateKey, (f64, Option<(usize, StateKey)>)>;

fn key(unit: usize, entry: ProxyId) -> StateKey {
    (unit as u32, entry.index() as u32)
}

fn unkey(k: StateKey) -> (usize, ProxyId) {
    (k.0 as usize, ProxyId::new(k.1 as usize))
}

fn upsert(map: &mut StateMap, k: StateKey, cost: f64, prev: Option<(usize, StateKey)>) {
    match map.get(&k) {
        Some(&(existing, _)) if existing <= cost => {}
        _ => {
            map.insert(k, (cost, prev));
        }
    }
}

impl<D> HierarchicalRouter<'_, D>
where
    D: DelayModel,
{
    /// The level-`level` service path over the units in `allowed` and
    /// its estimated cost, by the map-keyed DP.
    pub(super) fn plan_over_reference(
        &self,
        level: usize,
        allowed: &[usize],
        source: ProxyId,
        dest: ProxyId,
        graph: &ServiceGraph,
    ) -> Result<(f64, Vec<(StageId, usize)>), RouteError> {
        let src_unit = self.unit_of(level, source);
        let dst_unit = self.unit_of(level, dest);
        // A base-level source without known coordinates keys after its
        // cluster's borders.
        let last = level == 1
            && !self.hfc.is_border(source)
            && self.hfc.cluster_of(source).index() != dst_unit;
        let key = |unit, entry| match key(unit, entry) {
            (u, _) if last && entry == source => (u, u32::MAX),
            k => k,
        };
        let unkey = |k: StateKey| match k {
            (u, u32::MAX) if last => (u as usize, source),
            k => unkey(k),
        };

        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(graph.len());
        for stage in graph.stage_ids() {
            let service = graph.service(stage);
            let units: Vec<usize> = allowed
                .iter()
                .copied()
                .filter(|&u| self.unit_aggregate(level, u).contains(service))
                .filter(|&u| self.unit_routable(level, u))
                .collect();
            if units.is_empty() {
                return Err(RouteError::NoProvider(service));
            }
            candidates.push(units);
        }

        let order = graph
            .topological_order()
            .expect("service graphs are validated acyclic at construction");
        let mut states: Vec<StateMap> = vec![BTreeMap::new(); graph.len()];
        for &stage in &order {
            let si = stage.index();
            for &unit in &candidates[si] {
                if graph.predecessors(stage).is_empty() {
                    let (cost, entry) = self.level_step(level, source, src_unit, unit, dst_unit);
                    upsert(&mut states[si], key(unit, entry), cost, None);
                } else {
                    for &pred in graph.predecessors(stage) {
                        let pi = pred.index();
                        let prev_states: Vec<(StateKey, f64)> =
                            states[pi].iter().map(|(&k, &(c, _))| (k, c)).collect();
                        for (pkey, pcost) in prev_states {
                            let (punit, pentry) = unkey(pkey);
                            let (step, entry) =
                                self.level_step(level, pentry, punit, unit, dst_unit);
                            upsert(
                                &mut states[si],
                                key(unit, entry),
                                pcost + step,
                                Some((pi, pkey)),
                            );
                        }
                    }
                }
            }
        }

        let mut best: Option<(f64, usize, StateKey)> = None;
        for sink in graph.sinks() {
            let si = sink.index();
            for (&k, &(cost, _)) in &states[si] {
                let (unit, entry) = unkey(k);
                let close = self.level_close(level, entry, unit, dst_unit, dest);
                let total = cost + close;
                if total.is_finite() && best.is_none_or(|(b, _, _)| total < b) {
                    best = Some((total, si, k));
                }
            }
        }
        let (total, mut si, mut k) = best.ok_or(RouteError::Infeasible)?;

        let mut chain = Vec::new();
        loop {
            let (unit, _) = unkey(k);
            chain.push((StageId::new(si), unit));
            match states[si].get(&k).and_then(|&(_, prev)| prev) {
                Some((psi, pk)) => {
                    si = psi;
                    k = pk;
                }
                None => break,
            }
        }
        chain.reverse();
        Ok((total, chain))
    }

    /// Cost of stepping from (proxy `entry` inside unit `from`) into
    /// unit `to` of `level`, and the resulting entry proxy. At the
    /// base-cluster level this is the paper's back-tracking-refined
    /// step; above it, the entry and border proxies are all known
    /// coordinates, so the plain predicted delays apply.
    fn level_step(
        &self,
        level: usize,
        entry: ProxyId,
        from: usize,
        to: usize,
        dst_unit: usize,
    ) -> (f64, ProxyId) {
        if from == to {
            return (0.0, entry);
        }
        let pair = self.unit_border(level, from, to);
        let external = self.delays.delay(pair.local, pair.remote);
        if level == 1 {
            let internal = self.known_internal(entry, pair.local, ClusterId::new(dst_unit));
            (
                internal + external + self.cluster_penalty(ClusterId::new(to)),
                pair.remote,
            )
        } else {
            (self.delays.delay(entry, pair.local) + external, pair.remote)
        }
    }
}

mod tests {
    use super::*;
    use crate::cost::{CostConfig, CostModel, LoadAwareDelays};
    use proptest::prelude::*;
    use son_clustering::Clustering;
    use son_overlay::{BorderSelection, DelayMatrix, Health, HierarchyConfig, StatusMap};

    /// Services on offer; chains repeat them freely.
    const UNIVERSE: usize = 4;

    /// One planning problem: a level, the group it is solved inside,
    /// and a request between two proxies of that group.
    struct Solve {
        level: usize,
        parent: usize,
        source: ProxyId,
        dest: ProxyId,
        graph: ServiceGraph,
    }

    /// One generated world and the knobs the shapes below turn.
    struct Case {
        delays: DelayMatrix,
        services: Vec<ServiceSet>,
        hfc: HfcTopology,
        hierarchy: Hierarchy,
        statuses: Option<StatusMap>,
        backtracking: bool,
    }

    impl Case {
        /// Up to three regions of up to three groups of up to three
        /// clusters of up to three proxies, each tier `spread` times
        /// wider than the one below — a hundred (clean nesting) or two
        /// (clusters overlap, so a detour through a neighbour can cost
        /// exactly what staying put does) — ids shuffled; a hierarchy
        /// of depth 2 to 4 over it (shallower when the world has too
        /// few units); each proxy carrying each service with
        /// probability ½. On the `lattice` proxies sit on integer
        /// points under the Manhattan metric — every delay and every
        /// sum of delays is an exact integer, so equal-cost offers are
        /// the norm — otherwise on random reals under the Euclidean
        /// one.
        fn random(rng: &mut TestRng, lattice: bool, selection: BorderSelection) -> Case {
            let mut placed: Vec<(usize, [f64; 2])> = Vec::new();
            let mut cluster = 0;
            let spread = [2, 100][rng.below(2)];
            for region in 0..1 + rng.below(3) {
                for group in 0..1 + rng.below(3) {
                    for slot in 0..1 + rng.below(3) {
                        let x = (((region * spread + group) * spread + slot) * spread) as f64;
                        for _ in 0..1 + rng.below(3) {
                            let jitter = [0; 2].map(|_| {
                                if lattice {
                                    rng.below(7) as f64
                                } else {
                                    7.0 * rng.next_f64()
                                }
                            });
                            placed.push((cluster, [x + jitter[0], jitter[1]]));
                        }
                        cluster += 1;
                    }
                }
            }
            for i in (1..placed.len()).rev() {
                placed.swap(i, rng.below(i + 1));
            }
            let n = placed.len();
            let mut values = vec![0.0; n * n];
            for (i, (_, a)) in placed.iter().enumerate() {
                for (j, (_, b)) in placed.iter().enumerate() {
                    let (dx, dy) = ((a[0] - b[0]).abs(), (a[1] - b[1]).abs());
                    values[i * n + j] = if lattice { dx + dy } else { dx.hypot(dy) };
                }
            }
            let delays = DelayMatrix::from_values(n, values);
            let labels: Vec<usize> = placed.iter().map(|&(c, _)| c).collect();
            let hfc = HfcTopology::build_with_selection(
                &Clustering::from_labels(&labels),
                &delays,
                selection,
            );
            let hierarchy = Hierarchy::build_with_depth(
                &hfc,
                &delays,
                &HierarchyConfig::default(),
                2 + rng.below(3),
            );
            let services = (0..n)
                .map(|_| {
                    (0..UNIVERSE)
                        .filter(|_| rng.below(2) == 0)
                        .map(ServiceId::new)
                        .collect()
                })
                .collect();
            Case {
                delays,
                services,
                hfc,
                hierarchy,
                statuses: None,
                backtracking: true,
            }
        }

        /// The first world drawn from `rng` that `wanted` accepts.
        fn random_where(
            rng: &mut TestRng,
            selection: BorderSelection,
            wanted: impl Fn(&Case) -> bool,
        ) -> Case {
            loop {
                let case = Case::random(rng, true, selection);
                if wanted(&case) {
                    return case;
                }
            }
        }

        /// The proxies a solve at `level` inside `parent` may start or
        /// end at.
        fn proxies_inside(&self, level: usize, parent: usize) -> Vec<ProxyId> {
            if level == self.hierarchy.top_level() {
                return (0..self.hfc.proxy_count()).map(ProxyId::new).collect();
            }
            self.hierarchy
                .clusters_under(level + 1, parent)
                .iter()
                .flat_map(|&c| self.hfc.members(ClusterId::new(c)).iter().copied())
                .collect()
        }

        /// Two random linear requests at every level inside every group.
        fn solves(&self, rng: &mut TestRng) -> Vec<Solve> {
            let top = self.hierarchy.top_level();
            let mut out = Vec::new();
            for level in 1..=top {
                let parents = if level == top {
                    1
                } else {
                    self.hierarchy.unit_count(level + 1)
                };
                for parent in 0..parents {
                    let inside = self.proxies_inside(level, parent);
                    for _ in 0..2 {
                        let chain = (0..1 + rng.below(5)).map(|_| service(rng)).collect();
                        out.push(Solve {
                            level,
                            parent,
                            source: inside[rng.below(inside.len())],
                            dest: inside[rng.below(inside.len())],
                            graph: ServiceGraph::linear(chain),
                        });
                    }
                }
            }
            out
        }

        /// Plans every solve with both implementations and compares
        /// chains and total cost bits (or the errors).
        fn check(&self, solves: &[Solve]) -> TestCaseResult {
            let config = HierConfig {
                backtracking: self.backtracking,
            };
            match &self.statuses {
                None => self.compare(
                    &HierarchicalRouter::from_services(
                        &self.hfc,
                        &self.services,
                        &self.delays,
                        config,
                    )
                    .with_hierarchy(&self.hierarchy),
                    solves,
                ),
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
                        .with_hierarchy(&self.hierarchy)
                        .with_cluster_load(load),
                        solves,
                    )
                }
            }
        }

        fn compare<D: DelayModel>(
            &self,
            router: &HierarchicalRouter<'_, D>,
            solves: &[Solve],
        ) -> TestCaseResult {
            let exact = |plan: Result<(f64, Vec<(StageId, usize)>), RouteError>| {
                plan.map(|(total, chain)| (total.to_bits(), chain))
            };
            for s in solves {
                if let Ok(solved) =
                    router.solve_level(s.level, s.parent, s.source, s.dest, &s.graph, &[])
                {
                    let (coarse, winning, chained) = solved.bounds(&s.graph);
                    prop_assert!(coarse >= winning, "coarse bound {coarse} below {winning}");
                    prop_assert!(
                        chained <= coarse,
                        "a kept chain's state at {chained} lies above the coarse bound {coarse}"
                    );
                }
                let dense = router
                    .plan_over(s.level, s.parent, s.source, s.dest, &s.graph, &[])
                    .map(|(total, chain, _)| (total, chain));
                let reference = router.plan_over_reference(
                    s.level,
                    &router.siblings(s.level, s.parent),
                    s.source,
                    s.dest,
                    &s.graph,
                );
                prop_assert_eq!(
                    exact(dense),
                    exact(reference),
                    "level {} inside group {}, {} to {}",
                    s.level,
                    s.parent,
                    s.source,
                    s.dest
                );
            }
            Ok(())
        }

        /// Border proxies of the levels above the base clusters that
        /// are no border of their own cluster.
        fn upper_only_borders(&self) -> Vec<ProxyId> {
            let mut out = Vec::new();
            for level in 2..=self.hierarchy.top_level() {
                let units = self.hierarchy.unit_count(level);
                for (from, to) in (0..units).flat_map(|i| (0..units).map(move |j| (i, j))) {
                    if from != to {
                        out.push(self.hierarchy.border(level, from, to).local);
                    }
                }
            }
            out.retain(|&p| !self.hfc.is_border(p));
            out.sort();
            out.dedup();
            out
        }
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

        /// Below the top level every solve sees a strict subset of its
        /// level's units — the members of one group.
        #[test]
        fn lattice_ties_keep_the_first_offer_at_every_level(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random(rng, true, BorderSelection::ClosestPair);
            case.check(&case.solves(rng))?;
        }

        #[test]
        fn real_coordinates_agree_at_every_level(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random(rng, false, BorderSelection::ClosestPair);
            case.check(&case.solves(rng))?;
        }

        /// With first-member HFC borders the closest-pair borders of
        /// the upper levels are mostly no border of their cluster: as a
        /// source such a proxy has no known coordinates at the base
        /// level, yet still sorts at its own id.
        #[test]
        fn an_upper_border_that_is_no_hfc_border_is_an_unknown_source(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random_where(rng, BorderSelection::FirstPair, |case| {
                !case.upper_only_borders().is_empty()
            });
            let borders = case.upper_only_borders();
            let mut solves = case.solves(rng);
            for s in &mut solves {
                let inside = case.proxies_inside(s.level, s.parent);
                let here: Vec<ProxyId> =
                    borders.iter().copied().filter(|b| inside.contains(b)).collect();
                if !here.is_empty() {
                    s.source = here[rng.below(here.len())];
                }
            }
            case.check(&solves)?;
        }

        #[test]
        fn a_source_inside_the_destination_cluster_is_known(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random(rng, true, BorderSelection::ClosestPair);
            let mut solves = case.solves(rng);
            for s in &mut solves {
                let members = case.hfc.members(case.hfc.cluster_of(s.source));
                s.dest = members[rng.below(members.len())];
            }
            case.check(&solves)?;
        }

        #[test]
        fn a_single_cluster_group_has_one_state(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random_where(rng, BorderSelection::ClosestPair, |case| {
                let h = &case.hierarchy;
                h.depth() > 2 && (0..h.unit_count(2)).any(|g| h.members(2, g).len() == 1)
            });
            case.check(&case.solves(rng))?;
        }

        #[test]
        fn a_joining_stage_takes_offers_predecessor_by_predecessor(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random(rng, true, BorderSelection::ClosestPair);
            let mut solves = case.solves(rng);
            for s in &mut solves {
                s.graph = joining_graph(rng);
            }
            case.check(&solves)?;
        }

        /// A whole group of the second level `Down` (unroutable at both
        /// levels), every other proxy loaded — non-zero proxy and
        /// cluster penalties that are not integers, so the order of the
        /// float additions shows.
        #[test]
        fn cluster_load_rules_out_a_group_and_penalises(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random_where(rng, BorderSelection::ClosestPair, |case| {
                case.hierarchy.depth() > 2
            });
            let mut statuses = StatusMap::all_up(case.hfc.proxy_count());
            for p in (0..case.hfc.proxy_count()).map(ProxyId::new) {
                statuses.set_utilization(p, rng.next_f64());
            }
            let dead = rng.below(case.hierarchy.unit_count(2));
            for &c in case.hierarchy.clusters_under(2, dead) {
                for &p in case.hfc.members(ClusterId::new(c)) {
                    statuses.set_health(p, Health::Down);
                }
            }
            let case = Case { statuses: Some(statuses), ..case };
            case.check(&case.solves(rng))?;
        }

        /// One `Down` border in a cluster that stays routable: states
        /// behind it cost `+∞`, must still be present, and must lose to
        /// any finite total.
        #[test]
        fn a_down_border_is_priced_at_infinity(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case::random_where(rng, BorderSelection::ClosestPair, |case| {
                case.hfc.cluster_count() > 1
            });
            let mut borders = case.hfc.all_border_proxies();
            borders.extend(case.upper_only_borders());
            let mut statuses = StatusMap::all_up(case.hfc.proxy_count());
            statuses.set_health(borders[rng.below(borders.len())], Health::Down);
            let case = Case { statuses: Some(statuses), ..case };
            case.check(&case.solves(rng))?;
        }

        #[test]
        fn without_backtracking_internal_distances_vanish(seed in any::<u64>()) {
            let rng = &mut rng(seed);
            let case = Case {
                backtracking: false,
                ..Case::random(rng, true, BorderSelection::ClosestPair)
            };
            case.check(&case.solves(rng))?;
        }
    }
}
