//! Property test: a cache hit answers exactly what the miss that
//! filled it computed — and what a cache-cold engine would compute.
//!
//! Each case draws a random request over a randomized overlay, serves
//! it twice through one engine (miss, then hit) and once through a
//! fresh engine (miss again), and requires all three paths identical.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_clustering::Clustering;
use son_engine::{Engine, EngineConfig, EngineSnapshot, FlatProvider, HierProvider};
use son_overlay::{
    DelayMatrix, Health, HfcTopology, ProxyId, ServiceGraph, ServiceId, ServiceRequest, ServiceSet,
};

const PROXIES: usize = 24;
const CLUSTERS: usize = 4;
const SERVICES: usize = 6;

/// A symmetric random delay matrix over `PROXIES` nodes.
fn snapshot(seed: u64) -> EngineSnapshot<DelayMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = vec![0.0; PROXIES * PROXIES];
    for i in 0..PROXIES {
        for j in (i + 1)..PROXIES {
            let d = rng.gen_range(1.0..50.0);
            values[i * PROXIES + j] = d;
            values[j * PROXIES + i] = d;
        }
    }
    let delays = DelayMatrix::from_values(PROXIES, values);
    let labels: Vec<usize> = (0..PROXIES).map(|i| i * CLUSTERS / PROXIES).collect();
    let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
    // Every service exists somewhere: proxy i carries service i mod 6.
    let services = (0..PROXIES)
        .map(|i| ServiceSet::from_iter([ServiceId::new(i % SERVICES)]))
        .collect();
    EngineSnapshot::new(hfc, services, delays)
}

fn request(src: usize, dst: usize, chain: &[usize]) -> ServiceRequest {
    ServiceRequest::new(
        ProxyId::new(src),
        ServiceGraph::linear(chain.iter().map(|&s| ServiceId::new(s)).collect()),
        ProxyId::new(dst),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_hits_and_misses_return_equal_paths(
        seed in 0u64..1_000,
        src in 0usize..PROXIES,
        dst in 0usize..PROXIES,
        chain in proptest::collection::vec(0usize..SERVICES, 1..4),
    ) {
        let request = request(src, dst, &chain);
        let warm = Engine::new(snapshot(seed), HierProvider::default(), EngineConfig::default());

        let miss = warm.serve(std::slice::from_ref(&request));
        prop_assert_eq!(miss.report.cache.hits, 0);
        let hit = warm.serve(std::slice::from_ref(&request));
        prop_assert_eq!(hit.report.cache.hits, 1);
        prop_assert_eq!(hit.report.cache.misses, 0);
        prop_assert_eq!(&hit.paths[0], &miss.paths[0]);

        // A cache-cold engine over the same snapshot agrees too.
        let cold = Engine::new(snapshot(seed), HierProvider::default(), EngineConfig::default());
        prop_assert_eq!(&cold.serve(std::slice::from_ref(&request)).paths[0], &miss.paths[0]);
    }

    #[test]
    fn flat_router_cache_agrees_as_well(
        seed in 0u64..1_000,
        src in 0usize..PROXIES,
        dst in 0usize..PROXIES,
        chain in proptest::collection::vec(0usize..SERVICES, 1..4),
    ) {
        let request = request(src, dst, &chain);
        let engine = Engine::new(snapshot(seed), FlatProvider, EngineConfig::default());
        let miss = engine.serve(std::slice::from_ref(&request));
        let hit = engine.serve(std::slice::from_ref(&request));
        prop_assert_eq!(hit.report.cache.hits, 1);
        prop_assert_eq!(&hit.paths[0], &miss.paths[0]);
    }

    /// Stale-while-revalidate never serves a route through a `Down`
    /// proxy: warm the cache, install the next epoch, kill one proxy
    /// live, and serve the same batch with a stale budget large enough
    /// to cover all of it. Every stale-served path must have been
    /// validated against the *current* health view first.
    #[test]
    fn swr_never_serves_a_route_through_a_down_proxy(
        seed in 0u64..500,
        victim in 0usize..PROXIES,
        chain in proptest::collection::vec(0usize..SERVICES, 1..4),
    ) {
        let engine = Engine::new(
            snapshot(seed),
            HierProvider::default(),
            EngineConfig { stale_serve_budget: 64, ..EngineConfig::default() },
        );
        let batch: Vec<ServiceRequest> = (0..16)
            .map(|k| request(k % PROXIES, (k * 5 + 7) % PROXIES, &chain))
            .collect();
        engine.serve(&batch);
        engine.install_snapshot(snapshot(seed));
        engine.set_health(ProxyId::new(victim), Health::Down);
        let churned = engine.serve(&batch);
        for path in churned.paths.iter().flatten() {
            prop_assert!(
                path.hops().iter().all(|h| h.proxy.index() != victim),
                "served a route through the Down proxy {}",
                victim
            );
        }
    }
}

/// The stale-serve budget bounds total stale serves even while
/// installs and health flips race the serving threads: each of the
/// `installs + 1` budget windows can hand out at most `BUDGET` stale
/// routes, whatever the interleaving.
#[test]
fn stale_budget_is_respected_under_concurrent_churn() {
    const BUDGET: u64 = 5;
    const INSTALLS: u64 = 4;
    let engine = Engine::new(
        snapshot(42),
        HierProvider::default(),
        EngineConfig {
            workers: 2,
            stale_serve_budget: BUDGET,
            ..EngineConfig::default()
        },
    );
    let batch: Vec<ServiceRequest> = (0..40)
        .map(|k| {
            request(
                k % PROXIES,
                (k * 7 + 3) % PROXIES,
                &[k % SERVICES, (k + 2) % SERVICES],
            )
        })
        .collect();
    engine.serve(&batch);

    std::thread::scope(|scope| {
        let eng = &engine;
        scope.spawn(move || {
            for i in 0..INSTALLS {
                eng.install_snapshot(snapshot(42));
                eng.set_health(ProxyId::new((i as usize * 3) % PROXIES), Health::Draining);
                std::thread::yield_now();
            }
        });
        for _ in 0..6 {
            eng.serve(&batch);
        }
    });

    let stale_served = engine.cache_stats().stale_served;
    assert!(
        stale_served <= BUDGET * (INSTALLS + 1),
        "{stale_served} stale serves exceed {INSTALLS} installs x budget {BUDGET}"
    );
}

/// Churn with and without stale serving: warm two engines, install the
/// next epoch, take a non-border proxy that warm paths cross `Down`
/// live, and serve the batch again. The engine whose stale budget
/// covers the batch bridges the install from previous-epoch entries,
/// validated against the current health view and revalidated before
/// the batch returns; the control, with budget 0, re-solves everything.
/// Neither serves a route through the dead proxy.
#[test]
fn stale_serving_bridges_an_install_without_crossing_a_down_proxy() {
    let batch: Vec<ServiceRequest> = (0..48)
        .map(|k| {
            request(
                k % PROXIES,
                (k * 5 + 7) % PROXIES,
                &[k % SERVICES, (k + 1) % SERVICES],
            )
        })
        .collect();
    let engine = |budget: usize| {
        Engine::new(
            snapshot(7),
            HierProvider::default(),
            EngineConfig {
                stale_serve_budget: budget as u64,
                ..EngineConfig::default()
            },
        )
    };
    let swr = engine(batch.len());
    let control = engine(0);
    let warm = swr.serve(&batch);
    control.serve(&batch);

    // The victim is the non-border proxy that the most warm paths
    // cross, so stale entries through it exist and must be refused.
    let mut crossings = [0usize; PROXIES];
    for path in warm.paths.iter().flatten() {
        for hop in path.hops() {
            crossings[hop.proxy.index()] += 1;
        }
    }
    let borders = snapshot(7);
    let victim = (0..PROXIES)
        .map(ProxyId::new)
        .filter(|&p| !borders.is_border(p))
        .max_by_key(|p| crossings[p.index()])
        .expect("some proxy is not a border");
    assert!(
        crossings[victim.index()] > 0,
        "no warm path crosses {victim:?}"
    );
    for eng in [&swr, &control] {
        eng.install_snapshot(snapshot(7));
        eng.set_health(victim, Health::Down);
    }
    let swr_out = swr.serve(&batch);
    let control_out = control.serve(&batch);

    for (label, outcome) in [("swr", &swr_out), ("control", &control_out)] {
        for path in outcome.paths.iter().flatten() {
            assert!(
                path.hops().iter().all(|h| h.proxy != victim),
                "{label}: served a route through the Down proxy {victim:?}"
            );
        }
    }
    let cache = &swr_out.report.cache;
    assert!(cache.stale_served > 0, "{cache:?}");
    assert!(cache.revalidations > 0, "{cache:?}");
    assert_eq!(control_out.report.cache.stale_served, 0);
}

/// A stale route is checked against the installed snapshot even when
/// nothing constrains the batch: after an install in which one warm
/// provider withdraws its service, no served path — stale or fresh —
/// asks that proxy for a service it no longer carries, while warm
/// routes still bridge the install stale.
#[test]
fn stale_serving_never_uses_a_withdrawn_service() {
    let batch: Vec<ServiceRequest> = (0..48)
        .map(|k| {
            request(
                k % PROXIES,
                (k * 5 + 7) % PROXIES,
                &[k % SERVICES, (k + 1) % SERVICES],
            )
        })
        .collect();
    let engine = Engine::new(
        snapshot(7),
        HierProvider::default(),
        EngineConfig {
            stale_serve_budget: batch.len() as u64,
            ..EngineConfig::default()
        },
    );
    let warm = engine.serve(&batch);
    let withdrawn = warm
        .paths
        .iter()
        .flatten()
        .flat_map(|p| p.hops())
        .find(|h| h.service.is_some())
        .map(|h| h.proxy)
        .expect("some warm path has a provider hop");

    let base = snapshot(7);
    let mut services = base.services().to_vec();
    services[withdrawn.index()] = ServiceSet::new();
    engine.install_snapshot(EngineSnapshot::new(
        base.hfc().clone(),
        services.clone(),
        base.delays().clone(),
    ));
    let churned = engine.serve(&batch);
    for (request, path) in batch.iter().zip(&churned.paths) {
        let path = path.as_ref().expect("every service keeps three providers");
        assert!(
            path.validate(request, |p, s| services[p.index()].contains(s))
                .is_ok(),
            "served {path:?} asks {withdrawn:?} for a service it withdrew"
        );
    }
    let cache = &churned.report.cache;
    assert!(cache.stale_served > 0, "{cache:?}");
}
