//! The regular-mesh baseline topology (paper Section 6.2).
//!
//! "A regular mesh is constructed with the following rules: each proxy
//! creates links to its 1–4 nearest neighbors, and 1–2 randomly chosen,
//! farther located neighbors (to make the topology connected)."
//! Communication between non-adjacent proxies relays along mesh edges,
//! so the effective delay between two proxies is their shortest-path
//! delay *over the mesh*.

use crate::delays::DelayModel;
use crate::proxy::ProxyId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_netsim::graph::{Graph, NodeId};

/// Parameters of mesh construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshConfig {
    /// Minimum number of nearest-neighbor links per proxy.
    pub min_nearest: usize,
    /// Maximum number of nearest-neighbor links per proxy.
    pub max_nearest: usize,
    /// Minimum number of random long-range links per proxy.
    pub min_random: usize,
    /// Maximum number of random long-range links per proxy.
    pub max_random: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            min_nearest: 1,
            max_nearest: 4,
            min_random: 1,
            max_random: 2,
            seed: 0,
        }
    }
}

/// A mesh overlay over `n` proxies with precomputed all-pairs
/// shortest-path delays and relay paths.
///
/// # Example
///
/// ```
/// use son_overlay::{DelayMatrix, DelayModel, MeshConfig, MeshTopology, ProxyId};
///
/// // Proxies on a line at 0, 1, 2, ..., 9.
/// let n = 10;
/// let mut values = vec![0.0; n * n];
/// for i in 0..n {
///     for j in 0..n {
///         values[i * n + j] = (i as f64 - j as f64).abs();
///     }
/// }
/// let true_delays = DelayMatrix::from_values(n, values);
/// let mesh = MeshTopology::build(n, &true_delays, &MeshConfig::default());
/// // Mesh relaying can never beat the direct delay.
/// let (a, b) = (ProxyId::new(0), ProxyId::new(9));
/// assert!(mesh.delay(a, b) >= true_delays.delay(a, b));
/// ```
#[derive(Debug, Clone)]
pub struct MeshTopology {
    graph: Graph,
    dist: Vec<Vec<f64>>,
    pred: Vec<Vec<Option<NodeId>>>,
}

impl MeshTopology {
    /// Builds a mesh over proxies `0..n` using `true_delays` as the
    /// link metric, then repairs connectivity by joining remaining
    /// components through their closest cross pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the config ranges are inverted.
    pub fn build<D: DelayModel>(n: usize, true_delays: &D, config: &MeshConfig) -> Self {
        assert!(n > 0, "mesh needs at least one proxy");
        assert!(
            config.min_nearest <= config.max_nearest,
            "nearest range inverted"
        );
        assert!(
            config.min_random <= config.max_random,
            "random range inverted"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut graph = Graph::with_nodes(n);

        for p in 0..n {
            let me = ProxyId::new(p);
            // Nearest neighbors by true delay.
            let mut others: Vec<(usize, f64)> = (0..n)
                .filter(|&q| q != p)
                .map(|q| (q, true_delays.delay(me, ProxyId::new(q))))
                .collect();
            others.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let k = rng
                .gen_range(config.min_nearest..=config.max_nearest)
                .min(others.len());
            for &(q, d) in &others[..k] {
                graph.add_edge(NodeId::new(p), NodeId::new(q), d.max(f64::MIN_POSITIVE));
            }
            // Random farther links.
            let r = rng.gen_range(config.min_random..=config.max_random);
            for _ in 0..r {
                if others.len() <= k {
                    break;
                }
                let pick = rng.gen_range(k..others.len());
                let (q, d) = others[pick];
                graph.add_edge(NodeId::new(p), NodeId::new(q), d.max(f64::MIN_POSITIVE));
            }
        }

        // Connectivity repair: join components through their closest
        // cross pair until one component remains.
        loop {
            let (labels, count) = graph.connected_components();
            if count <= 1 {
                break;
            }
            let mut best: Option<(usize, usize, f64)> = None;
            for a in 0..n {
                for b in (a + 1)..n {
                    if labels[a] == labels[b] {
                        continue;
                    }
                    let d = true_delays.delay(ProxyId::new(a), ProxyId::new(b));
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((a, b, d));
                    }
                }
            }
            let (a, b, d) = best.expect("multiple components imply a cross pair");
            graph.add_edge(NodeId::new(a), NodeId::new(b), d.max(f64::MIN_POSITIVE));
        }

        // Precompute all-pairs shortest paths over the mesh.
        let mut dist = Vec::with_capacity(n);
        let mut pred = Vec::with_capacity(n);
        for p in 0..n {
            let (d, pr) = graph.dijkstra_with_predecessors(NodeId::new(p));
            dist.push(d);
            pred.push(pr);
        }

        MeshTopology { graph, dist, pred }
    }

    /// The mesh link graph (nodes are proxy indices).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of proxies.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Returns `true` if the mesh has no proxies.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Returns `true` if proxies `a` and `b` share a mesh link.
    pub fn has_link(&self, a: ProxyId, b: ProxyId) -> bool {
        self.graph
            .has_edge(NodeId::new(a.index()), NodeId::new(b.index()))
    }

    /// The relay hops (inclusive of endpoints) a message takes from
    /// `a` to `b` over the mesh.
    pub fn hops(&self, a: ProxyId, b: ProxyId) -> Vec<ProxyId> {
        let mut hops = vec![b];
        let mut cur = b.index();
        while cur != a.index() {
            let p = self.pred[a.index()][cur].expect("mesh is connected");
            hops.push(ProxyId::new(p.index()));
            cur = p.index();
        }
        hops.reverse();
        hops
    }
}

impl DelayModel for MeshTopology {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        self.dist[a.index()][b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delays::DelayMatrix;

    fn line_delays(n: usize) -> DelayMatrix {
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        DelayMatrix::from_values(n, values)
    }

    #[test]
    fn mesh_is_connected() {
        let true_delays = line_delays(30);
        let mesh = MeshTopology::build(30, &true_delays, &MeshConfig::default());
        assert!(mesh.graph().is_connected());
        for i in 0..30 {
            for j in 0..30 {
                assert!(mesh.delay(ProxyId::new(i), ProxyId::new(j)).is_finite());
            }
        }
    }

    #[test]
    fn mesh_delay_dominates_direct_delay() {
        let true_delays = line_delays(20);
        let mesh = MeshTopology::build(20, &true_delays, &MeshConfig::default());
        for i in 0..20 {
            for j in 0..20 {
                let direct = true_delays.delay(ProxyId::new(i), ProxyId::new(j));
                let relayed = mesh.delay(ProxyId::new(i), ProxyId::new(j));
                assert!(
                    relayed >= direct - 1e-9,
                    "mesh beat the triangle inequality: {relayed} < {direct}"
                );
            }
        }
    }

    #[test]
    fn hops_walk_mesh_links() {
        let true_delays = line_delays(15);
        let mesh = MeshTopology::build(15, &true_delays, &MeshConfig::default());
        let hops = mesh.hops(ProxyId::new(0), ProxyId::new(14));
        assert_eq!(*hops.first().unwrap(), ProxyId::new(0));
        assert_eq!(*hops.last().unwrap(), ProxyId::new(14));
        for w in hops.windows(2) {
            assert!(mesh.has_link(w[0], w[1]), "{:?} not a mesh link", w);
        }
        // Hop delays sum to the reported shortest-path delay.
        let total: f64 = hops.windows(2).map(|w| true_delays.delay(w[0], w[1])).sum();
        assert!((total - mesh.delay(ProxyId::new(0), ProxyId::new(14))).abs() < 1e-9);
    }

    #[test]
    fn degree_is_in_expected_band() {
        let true_delays = line_delays(50);
        let mesh = MeshTopology::build(50, &true_delays, &MeshConfig::default());
        let deg = 2.0 * mesh.graph().edge_count() as f64 / 50.0;
        // Each proxy initiates 2–6 links; shared both ways, expect
        // between ~2 and ~12 after dedup.
        assert!((2.0..=12.0).contains(&deg), "average degree {deg}");
    }

    #[test]
    fn build_is_deterministic() {
        let true_delays = line_delays(25);
        let a = MeshTopology::build(25, &true_delays, &MeshConfig::default());
        let b = MeshTopology::build(25, &true_delays, &MeshConfig::default());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        for i in 0..25 {
            for j in 0..25 {
                assert_eq!(
                    a.delay(ProxyId::new(i), ProxyId::new(j)),
                    b.delay(ProxyId::new(i), ProxyId::new(j))
                );
            }
        }
    }

    #[test]
    fn single_proxy_mesh() {
        let true_delays = DelayMatrix::from_values(1, vec![0.0]);
        let mesh = MeshTopology::build(1, &true_delays, &MeshConfig::default());
        assert_eq!(mesh.len(), 1);
        assert_eq!(mesh.delay(ProxyId::new(0), ProxyId::new(0)), 0.0);
        assert_eq!(
            mesh.hops(ProxyId::new(0), ProxyId::new(0)),
            vec![ProxyId::new(0)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one proxy")]
    fn empty_mesh_panics() {
        let true_delays = DelayMatrix::from_values(1, vec![0.0]);
        let _ = MeshTopology::build(0, &true_delays, &MeshConfig::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::delays::DelayMatrix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Any mesh over a metric stays connected and never beats the
        /// direct (triangle-inequality) distance.
        #[test]
        fn mesh_is_connected_and_dominated(
            points in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..40),
            seed in any::<u64>(),
        ) {
            let n = points.len();
            let mut values = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    values[i * n + j] = ((points[i].0 - points[j].0).powi(2)
                        + (points[i].1 - points[j].1).powi(2))
                    .sqrt();
                }
            }
            let true_delays = DelayMatrix::from_values(n, values);
            let mesh = MeshTopology::build(
                n,
                &true_delays,
                &MeshConfig {
                    seed,
                    ..MeshConfig::default()
                },
            );
            prop_assert!(mesh.graph().is_connected());
            for i in 0..n {
                for j in 0..n {
                    let direct = true_delays.delay(ProxyId::new(i), ProxyId::new(j));
                    let relayed = mesh.delay(ProxyId::new(i), ProxyId::new(j));
                    prop_assert!(relayed.is_finite());
                    prop_assert!(relayed >= direct - 1e-9);
                    // Hop expansion is consistent with the metric.
                    let hops = mesh.hops(ProxyId::new(i), ProxyId::new(j));
                    let total: f64 = hops
                        .windows(2)
                        .map(|w| true_delays.delay(w[0], w[1]))
                        .sum();
                    prop_assert!((total - relayed).abs() < 1e-9);
                }
            }
        }
    }
}
