//! Transit-stub Internet topology generation (GT-ITM style).
//!
//! The paper's simulations run on transit-stub topologies produced by
//! the model of Zegura, Calvert & Bhattacharjee ("How to Model an
//! Internetwork", INFOCOM 1996). This module reimplements that model:
//!
//! * a top level of *transit domains* interconnected by a connected
//!   random graph;
//! * each transit node hosts a number of *stub domains*;
//! * each domain is internally a connected random graph.
//!
//! Domains are placed in a Euclidean plane and every link's delay is
//! proportional to the geometric distance between its endpoints plus a
//! small constant. End-to-end (shortest-path) delays therefore behave
//! like real Internet RTTs in the sense that matters to the paper: they
//! embed into a low-dimensional coordinate space with low error, which
//! is the property GNP measured on the real Internet and that the
//! distance-based clustering exploits.

use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point in the plane where a topology node lives.
pub type Position = [f64; 2];

/// Classification of a physical node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A backbone router inside transit domain `domain`.
    Transit {
        /// Index of the transit domain.
        domain: usize,
    },
    /// An edge node inside stub domain `domain`, homed under a transit
    /// node.
    Stub {
        /// Global index of the stub domain.
        domain: usize,
        /// The transit node this stub domain hangs off.
        parent: NodeId,
    },
}

impl NodeKind {
    /// Returns `true` for stub nodes.
    pub fn is_stub(self) -> bool {
        matches!(self, NodeKind::Stub { .. })
    }
}

/// Parameters of the transit-stub generator.
///
/// The defaults follow the classic GT-ITM proportions: a handful of
/// transit domains, a few stub domains per transit node, and stub
/// domains several nodes large. Use
/// [`TransitStubConfig::with_target_size`] to hit a total node count
/// like the paper's 300/600/900/1200-node physical topologies.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Transit nodes per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Stub domains attached to each transit node.
    pub stub_domains_per_transit_node: usize,
    /// Nodes per stub domain.
    pub stub_nodes_per_domain: usize,
    /// Probability of an extra (non-spanning-tree) edge between two
    /// nodes of the same domain.
    pub intra_domain_extra_edge_prob: f64,
    /// Probability of an extra edge between two transit domains beyond
    /// the spanning tree that keeps the backbone connected.
    pub inter_transit_extra_edge_prob: f64,
    /// Side length of the square region transit domains are placed in.
    pub world_size: f64,
    /// Radius within which a domain's nodes scatter around its center.
    pub transit_domain_radius: f64,
    /// Distance of a stub domain's center from its parent transit node.
    pub stub_domain_offset: f64,
    /// Radius within which stub nodes scatter around their domain center.
    pub stub_domain_radius: f64,
    /// Milliseconds of delay per unit of geometric distance.
    pub ms_per_unit: f64,
    /// Constant per-link delay floor in milliseconds.
    pub base_link_delay_ms: f64,
    /// RNG seed; equal configs generate identical topologies.
    pub seed: u64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_domains: 4,
            transit_nodes_per_domain: 4,
            stub_domains_per_transit_node: 3,
            stub_nodes_per_domain: 6,
            intra_domain_extra_edge_prob: 0.25,
            inter_transit_extra_edge_prob: 0.4,
            world_size: 1000.0,
            transit_domain_radius: 60.0,
            stub_domain_offset: 90.0,
            stub_domain_radius: 25.0,
            ms_per_unit: 0.1,
            base_link_delay_ms: 0.5,
            seed: 0,
        }
    }
}

impl TransitStubConfig {
    /// Builds a configuration whose total node count approximates
    /// `target_nodes`, preserving GT-ITM's transit/stub proportions.
    ///
    /// The paper's physical topologies have 300, 600, 900 and 1200
    /// nodes; this constructor reproduces those scales.
    ///
    /// # Panics
    ///
    /// Panics if `target_nodes < 50`.
    pub fn with_target_size(target_nodes: usize, seed: u64) -> Self {
        assert!(
            target_nodes >= 50,
            "transit-stub topologies need >= 50 nodes"
        );
        let mut cfg = TransitStubConfig {
            seed,
            ..TransitStubConfig::default()
        };
        // total = T*NT * (1 + S*NS). Keep S=3, NS=6 (so 1+S*NS=19) and
        // scale the backbone. Choose T and NT close to sqrt(backbone).
        let backbone = (target_nodes as f64 / 19.0).round().max(4.0) as usize;
        let t = (backbone as f64).sqrt().round().max(2.0) as usize;
        let nt = backbone.div_ceil(t);
        cfg.transit_domains = t;
        cfg.transit_nodes_per_domain = nt.max(2);
        cfg
    }
}

/// A generated physical network: graph, node positions and node kinds.
///
/// # Example
///
/// ```
/// use son_netsim::topology::{PhysicalNetwork, TransitStubConfig};
///
/// let net = PhysicalNetwork::generate(&TransitStubConfig::default());
/// assert!(net.graph().is_connected());
/// assert!(net.stub_nodes().len() > net.len() / 2);
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalNetwork {
    graph: Graph,
    positions: Vec<Position>,
    kinds: Vec<NodeKind>,
    config: TransitStubConfig,
}

impl PhysicalNetwork {
    /// Generates a transit-stub network from `config`.
    ///
    /// The result is guaranteed connected: every domain gets a random
    /// spanning tree before extra edges are sprinkled in, stub domains
    /// are wired to their parent transit node, and transit domains are
    /// joined by a backbone spanning tree.
    pub fn generate(config: &TransitStubConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut graph = Graph::new();
        let mut positions: Vec<Position> = Vec::new();
        let mut kinds: Vec<NodeKind> = Vec::new();

        // --- Transit domains -------------------------------------------------
        let mut transit_domain_nodes: Vec<Vec<NodeId>> = Vec::new();
        let mut domain_centers: Vec<Position> = Vec::new();
        for d in 0..config.transit_domains {
            let center = spread_center(d, config.transit_domains, config.world_size, &mut rng);
            domain_centers.push(center);
            let mut members = Vec::new();
            for _ in 0..config.transit_nodes_per_domain {
                let pos = jitter(center, config.transit_domain_radius, &mut rng);
                let id = graph.add_node();
                positions.push(pos);
                kinds.push(NodeKind::Transit { domain: d });
                members.push(id);
            }
            wire_domain(
                &mut graph,
                &positions,
                &members,
                config.intra_domain_extra_edge_prob,
                config,
                &mut rng,
            );
            transit_domain_nodes.push(members);
        }

        // --- Backbone: connect transit domains -------------------------------
        // Random spanning tree over domains, plus extra domain pairs.
        let t = config.transit_domains;
        let mut order: Vec<usize> = (0..t).collect();
        shuffle(&mut order, &mut rng);
        for w in 1..t {
            let a = order[rng.gen_range(0..w)];
            let b = order[w];
            connect_domains(
                &mut graph,
                &positions,
                &transit_domain_nodes[a],
                &transit_domain_nodes[b],
                config,
                &mut rng,
            );
        }
        for a in 0..t {
            for b in (a + 1)..t {
                if rng.gen_bool(config.inter_transit_extra_edge_prob) {
                    connect_domains(
                        &mut graph,
                        &positions,
                        &transit_domain_nodes[a],
                        &transit_domain_nodes[b],
                        config,
                        &mut rng,
                    );
                }
            }
        }

        // --- Stub domains -----------------------------------------------------
        let mut stub_domain_index = 0;
        for members in &transit_domain_nodes {
            for &transit_node in members {
                for _ in 0..config.stub_domains_per_transit_node {
                    let center = jitter(
                        positions[transit_node.index()],
                        config.stub_domain_offset,
                        &mut rng,
                    );
                    let mut stub_members = Vec::new();
                    for _ in 0..config.stub_nodes_per_domain {
                        let pos = jitter(center, config.stub_domain_radius, &mut rng);
                        let id = graph.add_node();
                        positions.push(pos);
                        kinds.push(NodeKind::Stub {
                            domain: stub_domain_index,
                            parent: transit_node,
                        });
                        stub_members.push(id);
                    }
                    wire_domain(
                        &mut graph,
                        &positions,
                        &stub_members,
                        config.intra_domain_extra_edge_prob,
                        config,
                        &mut rng,
                    );
                    // Gateway link: the stub node closest to the parent.
                    let gateway = *stub_members
                        .iter()
                        .min_by(|&&a, &&b| {
                            let da = dist(positions[a.index()], positions[transit_node.index()]);
                            let db = dist(positions[b.index()], positions[transit_node.index()]);
                            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("stub domain has at least one node");
                    add_geo_edge(&mut graph, &positions, gateway, transit_node, config);
                    stub_domain_index += 1;
                }
            }
        }

        // The network lives as long as the overlay built on it: keep no
        // growth slack from the pushes above.
        graph.shrink_to_fit();
        positions.shrink_to_fit();
        kinds.shrink_to_fit();
        PhysicalNetwork {
            graph,
            positions,
            kinds,
            config: config.clone(),
        }
    }

    /// The physical link graph (weights are delays in milliseconds).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Planar position of each node, indexed by [`NodeId::index`].
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Kind of each node, indexed by [`NodeId::index`].
    pub fn kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// The configuration this network was generated from.
    pub fn config(&self) -> &TransitStubConfig {
        &self.config
    }

    /// Ids of all stub nodes (overlay proxies attach here).
    pub fn stub_nodes(&self) -> Vec<NodeId> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_stub())
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }
}

fn dist(a: Position, b: Position) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
}

/// Places domain centers on a jittered grid so domains spread out
/// instead of piling up (which would defeat distance-based clustering).
fn spread_center(index: usize, total: usize, world: f64, rng: &mut StdRng) -> Position {
    let cols = (total as f64).sqrt().ceil() as usize;
    let rows = total.div_ceil(cols);
    let cell_w = world / cols as f64;
    let cell_h = world / rows as f64;
    let col = index % cols;
    let row = index / cols;
    [
        (col as f64 + 0.25 + 0.5 * rng.gen::<f64>()) * cell_w,
        (row as f64 + 0.25 + 0.5 * rng.gen::<f64>()) * cell_h,
    ]
}

fn jitter(center: Position, radius: f64, rng: &mut StdRng) -> Position {
    let angle = rng.gen::<f64>() * std::f64::consts::TAU;
    let r = radius * rng.gen::<f64>().sqrt();
    [center[0] + r * angle.cos(), center[1] + r * angle.sin()]
}

fn add_geo_edge(
    graph: &mut Graph,
    positions: &[Position],
    a: NodeId,
    b: NodeId,
    config: &TransitStubConfig,
) {
    let d = dist(positions[a.index()], positions[b.index()]);
    let delay = config.base_link_delay_ms + d * config.ms_per_unit;
    graph.add_edge(a, b, delay);
}

/// Wires `members` into a connected random subgraph: random spanning
/// tree plus extra edges with probability `extra_prob`.
fn wire_domain(
    graph: &mut Graph,
    positions: &[Position],
    members: &[NodeId],
    extra_prob: f64,
    config: &TransitStubConfig,
    rng: &mut StdRng,
) {
    if members.len() < 2 {
        return;
    }
    let mut order = members.to_vec();
    shuffle(&mut order, rng);
    for w in 1..order.len() {
        let attach = order[rng.gen_range(0..w)];
        add_geo_edge(graph, positions, attach, order[w], config);
    }
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            if rng.gen_bool(extra_prob) {
                add_geo_edge(graph, positions, members[i], members[j], config);
            }
        }
    }
}

/// Adds one backbone edge between random representatives of two transit
/// domains.
fn connect_domains(
    graph: &mut Graph,
    positions: &[Position],
    a: &[NodeId],
    b: &[NodeId],
    config: &TransitStubConfig,
    rng: &mut StdRng,
) {
    let na = a[rng.gen_range(0..a.len())];
    let nb = b[rng.gen_range(0..b.len())];
    add_geo_edge(graph, positions, na, nb, config);
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_is_connected() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        assert!(net.graph().is_connected());
        // 16 transit nodes, each with 3 stub domains of 6 nodes.
        assert_eq!(net.len(), 16 + 16 * 3 * 6);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TransitStubConfig {
            seed: 7,
            ..TransitStubConfig::default()
        };
        let a = PhysicalNetwork::generate(&cfg);
        let b = PhysicalNetwork::generate(&cfg);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        for (pa, pb) in a.positions().iter().zip(b.positions()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = PhysicalNetwork::generate(&TransitStubConfig {
            seed: 1,
            ..TransitStubConfig::default()
        });
        let b = PhysicalNetwork::generate(&TransitStubConfig {
            seed: 2,
            ..TransitStubConfig::default()
        });
        let same = a.positions().iter().zip(b.positions()).all(|(x, y)| x == y);
        assert!(!same);
    }

    #[test]
    fn target_size_is_close() {
        for &target in &[300usize, 600, 900, 1200] {
            let net = PhysicalNetwork::generate(&TransitStubConfig::with_target_size(target, 0));
            let total = net.len();
            let err = (total as f64 - target as f64).abs() / target as f64;
            assert!(
                err < 0.25,
                "target {target} produced {total} nodes ({err:.2} relative error)"
            );
            assert!(net.graph().is_connected(), "size {target} not connected");
        }
    }

    #[test]
    fn stub_and_transit_partition_nodes() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        let stubs = net.stub_nodes();
        let transits = net.kinds().iter().filter(|k| !k.is_stub()).count();
        assert_eq!(stubs.len() + transits, net.len());
        for id in &stubs {
            assert!(net.kinds()[id.index()].is_stub());
        }
    }

    #[test]
    fn stub_nodes_parent_is_transit() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        for kind in net.kinds() {
            if let NodeKind::Stub { parent, .. } = kind {
                assert!(!net.kinds()[parent.index()].is_stub());
            }
        }
    }

    #[test]
    fn delays_reflect_geometry() {
        // End-to-end delay should correlate strongly with straight-line
        // distance: compare rank order on a sample of pairs.
        let net = PhysicalNetwork::generate(&TransitStubConfig {
            seed: 3,
            ..TransitStubConfig::default()
        });
        let stubs = net.stub_nodes();
        let d0 = net.graph().dijkstra(stubs[0]);
        let p0 = net.positions()[stubs[0].index()];
        let mut pairs: Vec<(f64, f64)> = stubs
            .iter()
            .skip(1)
            .map(|s| (dist(p0, net.positions()[s.index()]), d0[s.index()]))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Spearman-ish check: delays of the geometrically closest third
        // should on average be well below the farthest third.
        let third = pairs.len() / 3;
        let near: f64 = pairs[..third].iter().map(|p| p.1).sum::<f64>() / third as f64;
        let far: f64 = pairs[pairs.len() - third..]
            .iter()
            .map(|p| p.1)
            .sum::<f64>()
            / third as f64;
        assert!(
            near * 1.5 < far,
            "near avg {near:.1}ms should be much less than far avg {far:.1}ms"
        );
    }

    #[test]
    #[should_panic(expected = ">= 50")]
    fn tiny_target_panics() {
        let _ = TransitStubConfig::with_target_size(10, 0);
    }
}
