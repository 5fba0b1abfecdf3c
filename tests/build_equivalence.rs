//! The sub-quadratic build stages against the quadratic ones they
//! replaced, on one world big enough for a depth-3 hierarchy.
//!
//! At `Environment::scaled(2_000, 42)` the grid-indexed MST must give
//! the clustering Zahn finds over the complete-graph Prim tree, the
//! multi-source attachment labels must equal one Dijkstra per client
//! with a first-minimum scan, and — as in `parallel_build.rs` — the
//! thread count must not show in the result.

use son_core::{
    mst_complete, DelayModel, Environment, ProxyId, ServiceOverlay, SonConfig, ZahnClusterer,
};

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

    let threaded = build(3);
    assert_eq!(
        overlay.engine_snapshot().digest(),
        threaded.engine_snapshot().digest()
    );
    assert_eq!(overlay.hfc().snapshot(), threaded.hfc().snapshot());
    assert_eq!(overlay.client_proxies(), threaded.client_proxies());
}
