//! Random placement of proxies, services and requests.

use crate::env::Environment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_netsim::graph::NodeId;
use son_netsim::topology::PhysicalNetwork;
use son_overlay::{ProxyId, QosProfile, ServiceGraph, ServiceId, ServiceRequest, ServiceSet};

/// Attaches `count` proxies to distinct random stub nodes of `net`,
/// never selecting a node in `exclude` — used to keep landmarks out of
/// the proxy set (the paper's landmarks "will not participate in any
/// other activities").
///
/// # Panics
///
/// Panics if fewer than `count` eligible stub nodes remain.
pub fn place_proxies_excluding(
    net: &PhysicalNetwork,
    count: usize,
    exclude: &[NodeId],
    seed: u64,
) -> Vec<NodeId> {
    let mut stubs: Vec<NodeId> = net
        .stub_nodes()
        .into_iter()
        .filter(|n| !exclude.contains(n))
        .collect();
    assert!(
        stubs.len() >= count,
        "topology has {} eligible stub nodes, cannot host {count} proxies",
        stubs.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let j = rng.gen_range(i..stubs.len());
        stubs.swap(i, j);
    }
    stubs.truncate(count);
    // The caller keeps the result; release the other stubs' slots.
    stubs.shrink_to_fit();
    stubs
}

/// Installs a random service set on each of `proxies` proxies: a
/// uniform count in `per_proxy` (inclusive), drawn without replacement
/// from a universe of `universe` services.
///
/// # Panics
///
/// Panics if the range is inverted or exceeds the universe.
pub fn assign_services(
    proxies: usize,
    universe: usize,
    per_proxy: (usize, usize),
    seed: u64,
) -> Vec<ServiceSet> {
    let (lo, hi) = per_proxy;
    assert!(lo <= hi, "services-per-proxy range inverted");
    assert!(
        hi <= universe,
        "cannot install {hi} distinct services from a universe of {universe}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..universe).collect();
    (0..proxies)
        .map(|_| {
            let k = rng.gen_range(lo..=hi);
            for i in 0..k {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool[..k].iter().map(|&s| ServiceId::new(s)).collect()
        })
        .collect()
}

/// Assigns each proxy a random QoS profile: bandwidth log-uniform in
/// 10–1000 Mbit/s, load uniform in `[0, 1)`, volatility uniform in
/// `[0, 0.3)`.
pub fn assign_qos(proxies: usize, seed: u64) -> Vec<QosProfile> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..proxies)
        .map(|_| {
            let bw = 10.0f64 * 100.0f64.powf(rng.gen::<f64>());
            QosProfile::new(bw, rng.gen::<f64>(), rng.gen::<f64>() * 0.3)
        })
        .collect()
}

/// Shape of generated requests.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    /// Inclusive range of chain lengths.
    pub length: (usize, usize),
    /// Fraction of requests given a non-linear service graph (a second
    /// source branch merging into the chain, as in the paper's
    /// Figure 2(b)). The paper's tests use linear graphs; keep 0.0 to
    /// match.
    pub nonlinear_fraction: f64,
}

impl Default for RequestProfile {
    fn default() -> Self {
        RequestProfile {
            length: (4, 10),
            nonlinear_fraction: 0.0,
        }
    }
}

impl RequestProfile {
    /// The profile implied by an [`Environment`].
    pub fn from_environment(env: &Environment) -> Self {
        RequestProfile {
            length: env.request_length,
            nonlinear_fraction: 0.0,
        }
    }
}

/// Generates `count` random service requests over `proxies` proxies and
/// a universe of `universe` services.
///
/// Source and destination proxies are distinct when `proxies > 1`.
/// Service chains may repeat a service (two stages demanding the same
/// name), mirroring e.g. "compress, edit, compress again".
///
/// # Panics
///
/// Panics if `proxies == 0`, `universe == 0`, or the length range is
/// inverted.
pub fn generate_requests(
    count: usize,
    proxies: usize,
    universe: usize,
    profile: &RequestProfile,
    seed: u64,
) -> Vec<ServiceRequest> {
    assert!(proxies > 0, "need at least one proxy");
    assert!(universe > 0, "need at least one service");
    let (lo, hi) = profile.length;
    assert!(lo <= hi, "request length range inverted");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let source = ProxyId::new(rng.gen_range(0..proxies));
            let destination = loop {
                let d = ProxyId::new(rng.gen_range(0..proxies));
                if d != source || proxies == 1 {
                    break d;
                }
            };
            let len = rng.gen_range(lo..=hi);
            let chain: Vec<ServiceId> = (0..len)
                .map(|_| ServiceId::new(rng.gen_range(0..universe)))
                .collect();
            let graph = if len >= 2 && rng.gen_bool(profile.nonlinear_fraction) {
                nonlinear_variant(&chain, &mut rng, universe)
            } else {
                ServiceGraph::linear(chain)
            };
            ServiceRequest::new(source, graph, destination)
        })
        .collect()
}

/// Builds a Figure 2(b)-style graph: the base chain plus one extra
/// source stage that can substitute for the chain's head.
fn nonlinear_variant(chain: &[ServiceId], rng: &mut StdRng, universe: usize) -> ServiceGraph {
    let mut builder = ServiceGraph::builder();
    for &s in chain {
        builder = builder.stage(s);
    }
    for i in 1..chain.len() {
        builder = builder.edge(i - 1, i);
    }
    // Extra alternative head: a fresh stage feeding stage 1.
    let alt = ServiceId::new(rng.gen_range(0..universe));
    builder = builder.stage(alt).edge(chain.len(), 1);
    builder.build().expect("generated graphs are acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_netsim::topology::TransitStubConfig;

    #[test]
    fn proxies_are_distinct_stub_nodes() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        let proxies = place_proxies_excluding(&net, 50, &[], 1);
        assert_eq!(proxies.len(), 50);
        let mut sorted = proxies.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "duplicates found");
        for p in &proxies {
            assert!(net.kinds()[p.index()].is_stub());
        }
    }

    #[test]
    fn placement_is_seeded() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        assert_eq!(
            place_proxies_excluding(&net, 20, &[], 7),
            place_proxies_excluding(&net, 20, &[], 7)
        );
        assert_ne!(
            place_proxies_excluding(&net, 20, &[], 7),
            place_proxies_excluding(&net, 20, &[], 8)
        );
    }

    #[test]
    fn service_counts_respect_range() {
        let sets = assign_services(200, 60, (4, 10), 3);
        assert_eq!(sets.len(), 200);
        for set in &sets {
            assert!((4..=10).contains(&set.len()), "{} services", set.len());
            for s in set.iter() {
                assert!(s.index() < 60);
            }
        }
        // Both extremes appear over 200 draws.
        assert!(sets.iter().any(|s| s.len() == 4));
        assert!(sets.iter().any(|s| s.len() == 10));
    }

    #[test]
    fn requests_are_well_formed() {
        let profile = RequestProfile {
            length: (4, 10),
            nonlinear_fraction: 0.0,
        };
        let requests = generate_requests(100, 50, 60, &profile, 5);
        assert_eq!(requests.len(), 100);
        for r in &requests {
            assert_ne!(r.source, r.destination);
            assert!(r.source.index() < 50 && r.destination.index() < 50);
            let len = r.graph.len();
            assert!((4..=10).contains(&len));
            assert!(r.graph.is_linear());
        }
    }

    #[test]
    fn nonlinear_fraction_produces_branches() {
        let profile = RequestProfile {
            length: (3, 5),
            nonlinear_fraction: 1.0,
        };
        let requests = generate_requests(20, 10, 20, &profile, 9);
        for r in &requests {
            assert!(!r.graph.is_linear());
            assert_eq!(r.graph.sources().len(), 2);
            // Every configuration still ends at the chain's sink.
            let sinks = r.graph.sinks();
            assert_eq!(sinks.len(), 1);
            for config in r.graph.configurations() {
                assert_eq!(config.last(), sinks.first());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = RequestProfile::default();
        let a = generate_requests(10, 20, 30, &profile, 11);
        let b = generate_requests(10, 20, 30, &profile, 11);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn too_many_proxies_panics() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        let _ = place_proxies_excluding(&net, net.len() + 1, &[], 0);
    }
}

#[cfg(test)]
mod exclusion_tests {
    use super::*;
    use son_netsim::topology::TransitStubConfig;

    #[test]
    fn exclusions_are_respected() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        let stubs = net.stub_nodes();
        let exclude = &stubs[..10];
        let proxies = place_proxies_excluding(&net, 40, exclude, 2);
        for p in &proxies {
            assert!(!exclude.contains(p));
        }
    }

    #[test]
    #[should_panic(expected = "eligible stub nodes")]
    fn too_few_eligible_panics() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        let stubs = net.stub_nodes();
        let _ = place_proxies_excluding(&net, stubs.len(), &stubs[..1], 0);
    }
}

#[cfg(test)]
mod qos_tests {
    use super::*;

    #[test]
    fn qos_profiles_are_in_range() {
        let profiles = assign_qos(200, 4);
        assert_eq!(profiles.len(), 200);
        for p in &profiles {
            assert!((10.0..=1000.0).contains(&p.bandwidth_mbps));
            assert!((0.0..1.0).contains(&p.load));
            assert!((0.0..0.3).contains(&p.volatility));
        }
        // The spread is real: both slow and fast machines exist.
        assert!(profiles.iter().any(|p| p.bandwidth_mbps < 50.0));
        assert!(profiles.iter().any(|p| p.bandwidth_mbps > 500.0));
    }

    #[test]
    fn qos_assignment_is_seeded() {
        assert_eq!(assign_qos(10, 1), assign_qos(10, 1));
        assert_ne!(assign_qos(10, 1), assign_qos(10, 2));
    }
}
