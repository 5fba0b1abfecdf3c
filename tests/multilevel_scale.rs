//! Recursive multi-level routing quality at 1k proxies.
//!
//! Builds the paper-scale 1000-proxy world, stacks a depth-3 hierarchy
//! on it, and checks the [`MultiLevelRouter`] end to end:
//!
//! * every routed path is structurally valid (right source, services
//!   in order, every stage on a proxy that carries it);
//! * mean path cost stays within 1.5x the flat global-knowledge
//!   optimum and within the bi-level hierarchical router's bound;
//! * the third level strictly shrinks per-proxy routing state versus
//!   the bi-level design it generalizes;
//! * at 2 000 proxies, where top-level groups hold several clusters
//!   each, 300 routes are hop for hop and cost bit for cost bit the
//!   ones the map-based planner of ISSUE 18's commit produced.

use son_core::{
    Environment, FlatRouter, HierarchyConfig, ProviderIndex, Router, ServiceOverlay, SonConfig,
};

fn overlay_1k() -> ServiceOverlay {
    let mut config = SonConfig::from_environment(Environment::scaled(1000, 42));
    config.threads = 2;
    ServiceOverlay::build(&config)
}

#[test]
fn multilevel_routes_are_valid_and_near_optimal_at_1k() {
    let overlay = overlay_1k();
    let hierarchy = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3);
    assert_eq!(hierarchy.depth(), 3, "1k world should support depth 3");

    let router = overlay.multilevel_router(&hierarchy);
    let hier = overlay.hier_router();
    let flat = FlatRouter::new(
        ProviderIndex::from_service_sets(overlay.services()),
        overlay.predicted_delays(),
    );

    let requests = overlay.generate_client_requests(30, 9);
    let (mut ml_total, mut flat_total, mut hier_total, mut n) = (0.0, 0.0, 0.0, 0usize);
    let mut routed = 0usize;
    for request in &requests {
        let Ok(path) = router.route_path(request) else {
            continue;
        };
        routed += 1;
        path.validate(request, |p, s| overlay.carries(p, s))
            .expect("multi-level path must be structurally valid");

        let (Ok(f), Ok(h)) = (flat.route_path(request), hier.route_path(request)) else {
            continue;
        };
        ml_total += path.length(overlay.predicted_delays());
        flat_total += f.length(overlay.predicted_delays());
        hier_total += h.length(overlay.predicted_delays());
        n += 1;
    }

    assert!(routed >= 20, "only {routed}/30 requests routed");
    assert!(n >= 20, "only {n}/30 requests comparable across routers");
    let ml = ml_total / n as f64;
    let flat_mean = flat_total / n as f64;
    let hier_mean = hier_total / n as f64;
    assert!(
        ml <= 1.5 * flat_mean,
        "multi-level mean {ml:.1} exceeds 1.5x flat optimum {flat_mean:.1}"
    );
    assert!(
        ml <= 1.5 * hier_mean,
        "multi-level mean {ml:.1} exceeds 1.5x bi-level mean {hier_mean:.1}"
    );
}

#[test]
fn third_level_shrinks_routing_state_at_1k() {
    let overlay = overlay_1k();
    let depth2 = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 2);
    let depth3 = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3);
    let (c2, s2) = depth2.mean_overheads(overlay.hfc());
    let (c3, s3) = depth3.mean_overheads(overlay.hfc());
    assert!(
        c3 + s3 < c2 + s2,
        "depth 3 state {:.1} not below bi-level {:.1}",
        c3 + s3,
        c2 + s2
    );
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn depth_three_routes_at_2k_are_bit_identical_to_the_map_based_planner() {
    let mut config = SonConfig::from_environment(Environment::scaled(2_000, 42));
    config.threads = 2;
    let overlay = ServiceOverlay::build(&config);
    let hierarchy = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3);
    assert_eq!(hierarchy.depth(), 3, "2k world should support depth 3");
    let router = overlay.multilevel_router(&hierarchy);

    let mut words = Vec::new();
    for request in &overlay.generate_client_requests(300, 9) {
        let path = router
            .route_path(request)
            .expect("every client request is routable");
        path.validate(request, |p, s| overlay.carries(p, s))
            .expect("multi-level path must be structurally valid");
        for hop in path.hops() {
            words.push(hop.proxy.index() as u64);
            words.push(hop.service.map_or(u64::MAX, |s| s.index() as u64));
        }
        words.push(path.length(overlay.predicted_delays()).to_bits());
    }
    // Printed by this very test at commit 4ac7274 (ISSUE 18), whose
    // `plan_over` was the `BTreeMap` DP.
    let digest = fnv(words);
    assert_eq!(digest, 0x4dc3_92a4_8d37_ecda, "digest {digest:#018x}");
}
