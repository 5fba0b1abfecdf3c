//! Regression: a cached route through a proxy that turns `Down` *live*
//! (between snapshot installs) must never be served. Epoch invalidation
//! alone cannot catch this — the cache entry is from the current epoch
//! — so hits are re-validated against the live health view and dropped
//! when any hop is forbidden.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_clustering::Clustering;
use son_engine::{
    AdmissionConfig, Disposition, Engine, EngineConfig, EngineSnapshot, HierProvider, RejectReason,
};
use son_overlay::{
    DelayMatrix, Health, HfcTopology, ProxyId, ServiceGraph, ServiceId, ServiceRequest, ServiceSet,
};
use son_routing::RouteError;
use son_telemetry::CacheOutcome;

const PROXIES: usize = 24;
const CLUSTERS: usize = 4;
const SERVICES: usize = 6;

/// Random symmetric delays, four equal clusters, proxy `i` carrying
/// service `i mod 6` — every service has four providers, one per
/// cluster.
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
    let services: Vec<ServiceSet> = (0..PROXIES)
        .map(|i| ServiceSet::from_iter([ServiceId::new(i % SERVICES)]))
        .collect();
    EngineSnapshot::new(hfc, services, delays)
}

fn batch(seed: u64, count: usize) -> Vec<ServiceRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let chain: Vec<ServiceId> = (0..rng.gen_range(1..4))
                .map(|_| ServiceId::new(rng.gen_range(0..SERVICES)))
                .collect();
            ServiceRequest::new(
                ProxyId::new(rng.gen_range(0..PROXIES)),
                ServiceGraph::linear(chain),
                ProxyId::new(rng.gen_range(0..PROXIES)),
            )
        })
        .collect()
}

fn engine() -> Engine<DelayMatrix, HierProvider> {
    Engine::new(
        snapshot(17),
        HierProvider::default(),
        EngineConfig {
            workers: 3,
            admission: AdmissionConfig {
                enabled: true,
                ..AdmissionConfig::default()
            },
            ..EngineConfig::default()
        },
    )
}

/// The proxies any served path of `outcome` traverses.
fn served_proxies(outcome: &son_engine::ServeOutcome) -> Vec<ProxyId> {
    outcome
        .paths
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .flat_map(|p| p.hops().iter())
        .map(|h| h.proxy)
        .collect()
}

#[test]
fn cached_route_through_live_down_proxy_is_never_served() {
    let eng = engine();
    let requests = batch(23, 80);

    // Warm the cache and pick a victim that serves traffic but is
    // nobody's endpoint, so every affected request can re-route.
    let cold = eng.serve(&requests);
    let victim = requests
        .iter()
        .zip(&cold.paths)
        .filter_map(|(r, p)| p.as_ref().ok().map(|p| (r, p)))
        .find_map(|(r, p)| {
            p.hops()
                .iter()
                .find(|h| h.service.is_some() && h.proxy != r.source && h.proxy != r.destination)
                .map(|h| h.proxy)
        })
        .expect("some path has an interior provider hop");
    let warm = eng.serve(&requests);
    assert!(warm.report.cache.hits > 0);

    // The victim dies live — same epoch, no snapshot install.
    eng.set_health(victim, Health::Down);
    assert_eq!(eng.live_health(victim), Some(Health::Down));
    assert_eq!(eng.epoch(), 0, "no epoch bump involved");

    let after = eng.serve(&requests);
    assert!(
        !served_proxies(&after).contains(&victim),
        "a served path traverses the live-Down {victim}"
    );
    let a = after.report.admission;
    assert!(
        a.health_drops > 0,
        "cached routes through the victim must be dropped on hit: {a:?}"
    );
    assert_eq!(a.total(), requests.len() as u64);
    // Re-routed requests are served (victim was nobody's endpoint and
    // every service keeps three providers), just not optimally.
    assert!(a.degraded > 0, "{a:?}");
    // Dispositions and paths agree item by item.
    for (d, p) in after.dispositions.iter().zip(&after.paths) {
        assert_eq!(d.is_served(), p.is_ok());
    }
}

#[test]
fn trace_reports_health_invalidated_hit_as_stale_drop() {
    let eng = engine();
    let request = ServiceRequest::new(
        ProxyId::new(0),
        ServiceGraph::linear(vec![ServiceId::new(1)]),
        ProxyId::new(20),
    );
    let (first, miss) = eng.trace_request(&request);
    let first = first.expect("routable");
    assert_eq!(miss.cache, Some(CacheOutcome::Miss));
    let (_, hit) = eng.trace_request(&request);
    assert_eq!(hit.cache, Some(CacheOutcome::Hit));

    // Kill a provider hop of the cached path: the next trace must not
    // serve the entry — it reports a stale drop and re-routes.
    let victim = first
        .hops()
        .iter()
        .find(|h| h.service.is_some())
        .map(|h| h.proxy)
        .expect("path has a provider hop");
    eng.set_health(victim, Health::Down);
    let (rerouted, dropped) = eng.trace_request(&request);
    assert_eq!(dropped.cache, Some(CacheOutcome::StaleDrop));
    if let Ok(path) = rerouted {
        assert!(
            path.hops().iter().all(|h| h.proxy != victim),
            "re-route still uses the Down {victim}"
        );
    }
}

#[test]
fn fully_down_cluster_sheds_with_no_ingress() {
    let eng = engine();
    // Cluster 0 is proxies 0..6; everything in it dies.
    for i in 0..6 {
        eng.set_health(ProxyId::new(i), Health::Down);
    }
    let requests = batch(29, 40);
    let outcome = eng.serve(&requests);
    for (request, (disposition, path)) in requests
        .iter()
        .zip(outcome.dispositions.iter().zip(&outcome.paths))
    {
        if request.source.index() < 6 {
            assert_eq!(
                *disposition,
                Disposition::Rejected(RejectReason::NoIngress),
                "{request:?}"
            );
            assert!(matches!(path, Err(RouteError::NoIngress)));
        }
    }
    assert!(outcome.report.admission.rejected_no_ingress > 0);
    assert!(served_proxies(&outcome).iter().all(|p| p.index() >= 6));
}

/// `trace_request` explains the path `serve` takes. With admission off
/// and no override both return the cached path. With a live `Down` on
/// a provider hop of that path both fall over to the same flat
/// re-route, which neither caches: once the proxy recovers, both are
/// back on the original path.
#[test]
fn trace_request_and_serve_agree_around_a_live_down() {
    let eng = Engine::new(
        snapshot(17),
        HierProvider::default(),
        EngineConfig::default(),
    );
    let requests = batch(31, 40);
    let cold = eng.serve(&requests);
    let (request, original, victim) = requests
        .iter()
        .zip(&cold.paths)
        .filter_map(|(r, p)| p.as_ref().ok().map(|p| (r, p)))
        .find_map(|(r, p)| {
            p.hops()
                .iter()
                .find(|h| h.service.is_some() && h.proxy != r.source && h.proxy != r.destination)
                .map(|h| (r, p.clone(), h.proxy))
        })
        .expect("some path has an interior provider hop");
    let one = std::slice::from_ref(request);

    let (traced, trace) = eng.trace_request(request);
    assert_eq!(trace.cache, Some(CacheOutcome::Hit));
    assert_eq!(traced.as_ref(), Ok(&original));
    assert_eq!(eng.serve(one).paths[0].as_ref(), Ok(&original));

    eng.set_health(victim, Health::Down);
    let served = eng.serve(one);
    assert_eq!(served.dispositions[0], Disposition::Degraded);
    assert_eq!(served.report.admission.health_drops, 1);
    let served = served.paths[0].clone().expect("the request re-routes");
    assert!(served.hops().iter().all(|h| h.proxy != victim));
    let (traced, trace) = eng.trace_request(request);
    assert_eq!(trace.router, "flat-failover");
    assert_eq!(trace.cache, Some(CacheOutcome::Miss), "{trace:?}");
    assert_eq!(traced, Ok(served));

    eng.set_health(victim, Health::Up);
    assert_eq!(eng.serve(one).paths[0].as_ref(), Ok(&original));
    let (traced, trace) = eng.trace_request(request);
    assert_eq!(trace.cache, Some(CacheOutcome::Hit));
    assert_eq!(traced, Ok(original));
}
