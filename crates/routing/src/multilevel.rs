//! Tests of [`HierarchicalRouter`] over hierarchies of depth three and
//! more: the recursive case of the one planner, checked end to end and
//! against the map-based level DP kept in [`oracle`].

use crate::flat::RouteError;
use crate::hier::{HierConfig, HierarchicalRouter};
use crate::providers::ProviderIndex;
use crate::router::Router;
use son_clustering::Clustering;
use son_overlay::{
    ClusterId, DelayMatrix, DelayModel, HfcTopology, Hierarchy, ProxyId, ServiceGraph, ServiceId,
    ServiceRequest, ServiceSet, StageId,
};
use son_state::ClusterLoad;

mod oracle;

/// Two top-level regions far apart, two clusters each, three
/// proxies per cluster; service `i % 4` on proxy `i`, plus service
/// 9 only in the remote region.
pub(crate) fn routed_world() -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
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

mod tests {
    use super::*;
    use proptest::prelude::*;
    use son_overlay::{BorderPair, HierarchyConfig};

    fn sid(i: usize) -> ServiceId {
        ServiceId::new(i)
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
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h);
        // Service 9 exists only in the far region: the path must cross
        // region borders exactly at the elected border proxies.
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(9)]),
            ProxyId::new(1),
        );
        let path = router.route_path(&request).unwrap();
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
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h);
        let two =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        // Entirely inside region 0 (proxies 0..6, services 0..4).
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(1), sid(2)]),
            ProxyId::new(5),
        );
        let p3 = three.route_path(&request).unwrap();
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
            let ml = HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default()).with_hierarchy(&h);
            let bi =
                HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
            prop_assert_eq!(ml.route_path(&request), bi.route(&request).map(|route| route.path));
        }
    }

    #[test]
    fn relay_only_crosses_via_top_border() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h);
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![]),
            ProxyId::new(11),
        );
        let path = router.route_path(&request).unwrap();
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
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h);

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
        assert_send_sync::<HierarchicalRouter<'_, DelayMatrix>>();
        assert_send_sync::<HierarchicalRouter<'_, &DelayMatrix>>();
    }

    #[test]
    fn missing_service_is_reported_at_the_top_level() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h);
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(42)]),
            ProxyId::new(11),
        );
        assert_eq!(
            router.route_path(&request),
            Err(RouteError::NoProvider(sid(42)))
        );
    }

    #[test]
    fn multi_stage_requests_spanning_groups_validate() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h);
        // s0 (everywhere) → s9 (far region only) → s3 (everywhere).
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(0), sid(9), sid(3)]),
            ProxyId::new(4),
        );
        let path = router.route_path(&request).unwrap();
        path.validate(&request, |p, s| services[p.index()].contains(s))
            .unwrap();
    }

    #[test]
    fn nonlinear_requests_route_recursively() {
        let (hfc, delays, services) = routed_world();
        let h = depth3(&hfc, &delays);
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h);
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
        let path = router.route_path(&request).unwrap();
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
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default())
                .with_hierarchy(&h)
                .with_cluster_load(load);
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![sid(9)]),
            ProxyId::new(1),
        );
        assert_eq!(
            router.route_path(&request),
            Err(RouteError::NoProvider(sid(9)))
        );
    }
}
