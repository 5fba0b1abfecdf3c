//! The sub-quadratic build stages against the quadratic ones they
//! replaced, on one world big enough for a depth-3 hierarchy.
//!
//! At `Environment::scaled(2_000, 42)` the grid-indexed MST must give
//! the clustering Zahn finds over the complete-graph Prim tree, the
//! multi-source attachment labels must equal one Dijkstra per client
//! with a first-minimum scan, the box-pruned border election must
//! elect the pairs the exhaustive scan elects — for a fifth of its
//! work at most — and, as in `parallel_build.rs`, the embedding's
//! thread count must not show in the result.

use son_core::{
    mst_complete, CoordDelays, DelayModel, Environment, HfcTopology, Hierarchy, HierarchyConfig,
    ProxyId, ServiceOverlay, SonConfig, ZahnClusterer,
};

/// The predicted delays with their coordinates hidden: border election
/// over this falls back to the exhaustive scan of a general metric.
struct Opaque<'a>(&'a CoordDelays);

impl DelayModel for Opaque<'_> {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        self.0.delay(a, b)
    }
}

fn build(threads: usize) -> ServiceOverlay {
    let mut config = SonConfig::from_environment(Environment::scaled(2_000, 42));
    config.threads = threads;
    ServiceOverlay::build(&config)
}

#[test]
fn fast_stages_equal_their_quadratic_oracles() {
    let overlay = build(1);

    let predicted = overlay.predicted_delays();
    let n = overlay.proxy_count();
    let mst = mst_complete(n, |a, b| predicted.delay(ProxyId::new(a), ProxyId::new(b)));
    let oracle = ZahnClusterer::new(overlay.config().zahn.clone()).cluster(&mst);
    assert_eq!(overlay.clustering(), &oracle);

    let graph = overlay.physical().graph();
    let per_client: Vec<ProxyId> = overlay
        .clients()
        .iter()
        .map(|&client| {
            let dist = graph.dijkstra(client);
            let (best, _) = overlay
                .attachments()
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    dist[a.1.index()]
                        .partial_cmp(&dist[b.1.index()])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one proxy exists");
            ProxyId::new(best)
        })
        .collect();
    assert_eq!(overlay.client_proxies(), per_client);

    let digest = overlay.engine_snapshot().digest();
    assert_eq!(digest, 0x560d_2b4d_0c1c_27c1);
    assert_eq!(build(3).engine_snapshot().digest(), digest);
}

#[test]
fn box_pruned_election_equals_the_exhaustive_one_for_a_fifth_of_its_work() {
    let overlay = build(1);
    let hfc = overlay.hfc();
    let predicted = overlay.predicted_delays();
    let opaque = Opaque(predicted);

    let exhaustive = HfcTopology::build(overlay.clustering(), &opaque);
    assert_eq!(hfc.snapshot(), exhaustive.snapshot());

    let config = HierarchyConfig::default();
    let hierarchy = overlay.hierarchy_with_depth(&config, 3);
    assert_eq!(hierarchy.depth(), 3);
    assert_eq!(
        hierarchy,
        Hierarchy::build_with_depth(hfc, &opaque, &config, 3)
    );

    // Σ |Cᵢ|·|Cⱼ| over cluster pairs is what the exhaustive election
    // evaluates, and what its own counter says it did.
    let n = hfc.proxy_count() as u64;
    let squares: u64 = hfc
        .clusters()
        .map(|c| (hfc.members(c).len() as u64).pow(2))
        .sum();
    let cross_pairs = (n * n - squares) / 2;
    let oracle_work = exhaustive.election_work();
    assert_eq!(
        (oracle_work.pair_evaluations, oracle_work.box_tests),
        (cross_pairs, 0)
    );
    let work = hfc.election_work();
    println!("election at 2k: {work:?} against {cross_pairs} cross pairs");
    assert!(
        5 * (work.pair_evaluations + work.box_tests) <= cross_pairs,
        "{work:?} against {cross_pairs} cross pairs"
    );
}
