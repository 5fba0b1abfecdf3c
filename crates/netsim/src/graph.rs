//! Weighted undirected graphs and shortest-path algorithms.
//!
//! The graph is the model of the physical Internet: nodes are routers /
//! hosts, edges are links annotated with a propagation delay in
//! milliseconds. End-to-end delay between two nodes is the shortest-path
//! distance, mirroring shortest-path IP routing.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// `NodeId`s are dense indices assigned in insertion order; they are
/// only meaningful relative to the graph that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

/// An undirected graph with `f64` edge weights (delays in milliseconds).
///
/// # Example
///
/// ```
/// use son_netsim::graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b, 1.0);
/// g.add_edge(b, c, 2.0);
/// let dist = g.dijkstra(a);
/// assert_eq!(dist[c.index()], 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        NodeId::new(self.adjacency.len() - 1)
    }

    /// Adds an undirected edge between `a` and `b` with weight `w`.
    ///
    /// Parallel edges are collapsed: if the edge already exists its
    /// weight is lowered to `min(existing, w)` (only the cheaper link
    /// matters for shortest-path routing).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, if either id is out of range, or if `w` is
    /// not finite and positive.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, w: f64) {
        assert!(a != b, "self-loops are not allowed");
        assert!(
            w.is_finite() && w > 0.0,
            "edge weight must be finite and positive, got {w}"
        );
        assert!(a.index() < self.len() && b.index() < self.len());
        if let Some(slot) = self.adjacency[a.index()].iter_mut().find(|(n, _)| *n == b) {
            if w < slot.1 {
                slot.1 = w;
                for slot in self.adjacency[b.index()].iter_mut() {
                    if slot.0 == a {
                        slot.1 = w;
                    }
                }
            }
            return;
        }
        self.adjacency[a.index()].push((b, w));
        self.adjacency[b.index()].push((a, w));
        self.edge_count += 1;
    }

    /// Returns `true` if an edge between `a` and `b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()].iter().any(|(n, _)| *n == b)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::new)
    }

    /// Neighbors of `n` with edge weights.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, f64)] {
        &self.adjacency[n.index()]
    }

    /// Single-source shortest-path distances from `src` (Dijkstra).
    ///
    /// Unreachable nodes get `f64::INFINITY`.
    pub fn dijkstra(&self, src: NodeId) -> Vec<f64> {
        self.dijkstra_with_predecessors(src).0
    }

    /// Dijkstra returning both distances and predecessor nodes.
    ///
    /// `predecessors[v]` is `None` for the source and for unreachable
    /// nodes.
    pub fn dijkstra_with_predecessors(&self, src: NodeId) -> (Vec<f64>, Vec<Option<NodeId>>) {
        let mut dist = vec![f64::INFINITY; self.len()];
        let mut pred: Vec<Option<NodeId>> = vec![None; self.len()];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > dist[node.index()] {
                continue;
            }
            for &(next, w) in &self.adjacency[node.index()] {
                let nd = d + w;
                if nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    pred[next.index()] = Some(node);
                    heap.push(HeapEntry {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }
        (dist, pred)
    }

    /// For every node, the index into `sources` of its nearest source
    /// (one multi-source Dijkstra), or `None` if it reaches none.
    ///
    /// Labels are `(distance, source index)` compared lexicographically,
    /// so among equidistant sources — including several on one node —
    /// the lowest index wins, as a first-minimum scan over per-source
    /// distances would pick.
    pub fn nearest_sources(&self, sources: &[NodeId]) -> Vec<Option<usize>> {
        let mut label: Vec<(f64, usize)> = vec![(f64::INFINITY, usize::MAX); self.len()];
        // Distances are non-negative and never NaN, so their bit
        // patterns order like the values and plain tuples serve as keys.
        let mut heap = BinaryHeap::new();
        for (i, &s) in sources.iter().enumerate() {
            if label[s.index()].1 == usize::MAX {
                label[s.index()] = (0.0, i);
                heap.push(Reverse((0.0f64.to_bits(), i, s)));
            }
        }
        while let Some(Reverse((bits, source, node))) = heap.pop() {
            let d = f64::from_bits(bits);
            if (d, source) != label[node.index()] {
                continue;
            }
            for &(next, w) in &self.adjacency[node.index()] {
                let cand = (d + w, source);
                if cand < label[next.index()] {
                    label[next.index()] = cand;
                    heap.push(Reverse((cand.0.to_bits(), source, next)));
                }
            }
        }
        label
            .into_iter()
            .map(|(_, source)| (source != usize::MAX).then_some(source))
            .collect()
    }

    /// Shortest path from `src` to `dst` as `(total_delay, hops)`.
    ///
    /// Returns `None` when `dst` is unreachable. The hop list includes
    /// both endpoints.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<(f64, Vec<NodeId>)> {
        let (dist, pred) = self.dijkstra_with_predecessors(src);
        if !dist[dst.index()].is_finite() {
            return None;
        }
        let mut hops = vec![dst];
        let mut cur = dst;
        while let Some(p) = pred[cur.index()] {
            hops.push(p);
            cur = p;
        }
        hops.reverse();
        Some((dist[dst.index()], hops))
    }

    /// All-pairs shortest paths via Floyd–Warshall.
    ///
    /// Quadratic memory and cubic time — intended for tests and small
    /// graphs; use repeated [`Graph::dijkstra`] for large ones.
    pub fn floyd_warshall(&self) -> Vec<Vec<f64>> {
        let n = self.len();
        let mut d = vec![vec![f64::INFINITY; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for (i, neighbors) in self.adjacency.iter().enumerate() {
            for &(j, w) in neighbors {
                if w < d[i][j.index()] {
                    d[i][j.index()] = w;
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                if !d[i][k].is_finite() {
                    continue;
                }
                for j in 0..n {
                    let via = d[i][k] + d[k][j];
                    if via < d[i][j] {
                        d[i][j] = via;
                    }
                }
            }
        }
        d
    }

    /// Returns `true` if every node is reachable from every other node.
    ///
    /// The empty graph is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(next, _) in &self.adjacency[n.index()] {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.len()
    }

    /// Labels connected components; returns `(labels, component_count)`.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let mut label = vec![usize::MAX; self.len()];
        let mut next = 0;
        for start in 0..self.len() {
            if label[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![NodeId::new(start)];
            label[start] = next;
            while let Some(n) = stack.pop() {
                for &(nb, _) in &self.adjacency[n.index()] {
                    if label[nb.index()] == usize::MAX {
                        label[nb.index()] = next;
                        stack.push(nb);
                    }
                }
            }
            next += 1;
        }
        (label, next)
    }
}

/// A dense table of shortest-path distances from a chosen set of source
/// nodes to every node in the graph.
///
/// Built with one Dijkstra run per source; used to answer "what is the
/// end-to-end delay between overlay attachment points" queries cheaply.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    sources: Vec<NodeId>,
    source_row: Vec<Option<usize>>,
    rows: Vec<Vec<f64>>,
}

impl DistanceTable {
    /// Computes shortest-path distance rows for each node in `sources`.
    pub fn new(graph: &Graph, sources: &[NodeId]) -> Self {
        let mut source_row = vec![None; graph.len()];
        let mut rows = Vec::with_capacity(sources.len());
        for (i, &s) in sources.iter().enumerate() {
            source_row[s.index()] = Some(i);
            rows.push(graph.dijkstra(s));
        }
        DistanceTable {
            sources: sources.to_vec(),
            source_row,
            rows,
        }
    }

    /// The source nodes this table was built for.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Shortest-path delay from source `from` to any node `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not one of the table's sources.
    pub fn delay(&self, from: NodeId, to: NodeId) -> f64 {
        let row =
            self.source_row[from.index()].expect("`from` must be one of the DistanceTable sources");
        self.rows[row][to.index()]
    }

    /// Full distance row of source `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not one of the table's sources.
    pub fn row(&self, from: NodeId) -> &[f64] {
        let row =
            self.source_row[from.index()].expect("`from` must be one of the DistanceTable sources");
        &self.rows[row]
    }

    /// Returns `true` if `n` is one of the sources.
    pub fn contains_source(&self, n: NodeId) -> bool {
        self.source_row[n.index()].is_some()
    }
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance (BinaryHeap is a max-heap), tie-broken on
        // node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, Vec<NodeId>) {
        // a - b
        // |   |
        // c - d   with a-b=1, a-c=4, b-d=2, c-d=1
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        g.add_edge(ids[0], ids[1], 1.0);
        g.add_edge(ids[0], ids[2], 4.0);
        g.add_edge(ids[1], ids[3], 2.0);
        g.add_edge(ids[2], ids[3], 1.0);
        (g, ids)
    }

    #[test]
    fn dijkstra_finds_shortest_distances() {
        let (g, ids) = diamond();
        let d = g.dijkstra(ids[0]);
        assert_eq!(d[ids[0].index()], 0.0);
        assert_eq!(d[ids[1].index()], 1.0);
        assert_eq!(d[ids[3].index()], 3.0);
        assert_eq!(d[ids[2].index()], 4.0); // direct edge beats a-b-d-c = 4
    }

    #[test]
    fn shortest_path_returns_hops() {
        let (g, ids) = diamond();
        let (d, hops) = g.shortest_path(ids[0], ids[3]).unwrap();
        assert_eq!(d, 3.0);
        assert_eq!(hops, vec![ids[0], ids[1], ids[3]]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::with_nodes(2);
        assert!(g.shortest_path(NodeId::new(0), NodeId::new(1)).is_none());
        let d = g.dijkstra(NodeId::new(0));
        assert!(d[1].is_infinite());
        g.add_edge(NodeId::new(0), NodeId::new(1), 5.0);
        assert!(g.shortest_path(NodeId::new(0), NodeId::new(1)).is_some());
    }

    #[test]
    fn nearest_sources_break_distance_ties_by_index() {
        // x is 2 away from both sources, and the higher-indexed one
        // labels it first (one hop against two).
        let mut g = Graph::with_nodes(5);
        let [p0, mid, x, p1, alone] = [0, 1, 2, 3, 4].map(NodeId::new);
        g.add_edge(p0, mid, 1.0);
        g.add_edge(mid, x, 1.0);
        g.add_edge(p1, x, 2.0);
        let nearest = g.nearest_sources(&[p0, p1, p0]);
        assert_eq!(nearest[x.index()], Some(0));
        assert_eq!(nearest[p0.index()], Some(0));
        assert_eq!(nearest[p1.index()], Some(1));
        assert_eq!(nearest[alone.index()], None);
        assert_eq!(g.nearest_sources(&[]), vec![None; 5]);
    }

    #[test]
    fn floyd_warshall_matches_dijkstra() {
        let (g, _) = diamond();
        let fw = g.floyd_warshall();
        for src in g.node_ids() {
            let d = g.dijkstra(src);
            for dst in g.node_ids() {
                assert!((fw[src.index()][dst.index()] - d[dst.index()]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn parallel_edges_keep_minimum() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        g.add_edge(a, b, 5.0);
        g.add_edge(a, b, 2.0);
        g.add_edge(a, b, 9.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.dijkstra(a)[b.index()], 2.0);
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0);
        g.add_edge(NodeId::new(2), NodeId::new(3), 1.0);
        assert!(!g.is_connected());
        let (labels, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        g.add_edge(NodeId::new(1), NodeId::new(2), 1.0);
        g.add_edge(NodeId::new(3), NodeId::new(4), 1.0);
        assert!(g.is_connected());
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn distance_table_matches_dijkstra() {
        let (g, ids) = diamond();
        let table = DistanceTable::new(&g, &[ids[0], ids[3]]);
        assert_eq!(table.delay(ids[0], ids[2]), 4.0);
        assert_eq!(table.delay(ids[3], ids[0]), 3.0);
        assert!(table.contains_source(ids[0]));
        assert!(!table.contains_source(ids[1]));
        assert_eq!(table.row(ids[0])[ids[1].index()], 1.0);
    }

    #[test]
    #[should_panic(expected = "sources")]
    fn distance_table_panics_for_unknown_source() {
        let (g, ids) = diamond();
        let table = DistanceTable::new(&g, &[ids[0]]);
        let _ = table.delay(ids[1], ids[0]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId::new(0), NodeId::new(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "edge weight")]
    fn non_positive_weight_panics() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn graph_strategy() -> impl Strategy<Value = Graph> {
        (2usize..12).prop_flat_map(|n| {
            proptest::collection::vec((0usize..n, 0usize..n, 0.1f64..100.0), 1..30).prop_map(
                move |edges| {
                    let mut g = Graph::with_nodes(n);
                    for (a, b, w) in edges {
                        if a != b {
                            g.add_edge(NodeId::new(a), NodeId::new(b), w);
                        }
                    }
                    g
                },
            )
        })
    }

    proptest! {
        /// Dijkstra from every source agrees with Floyd–Warshall.
        #[test]
        fn dijkstra_matches_floyd_warshall(g in graph_strategy()) {
            let fw = g.floyd_warshall();
            for src in g.node_ids() {
                let d = g.dijkstra(src);
                for dst in g.node_ids() {
                    let (a, b) = (d[dst.index()], fw[src.index()][dst.index()]);
                    if a.is_finite() || b.is_finite() {
                        prop_assert!((a - b).abs() < 1e-9, "{src}->{dst}: {a} vs {b}");
                    }
                }
            }
        }

        /// The multi-source labels equal one Dijkstra per client and a
        /// first-minimum scan over the proxies' distances — with two
        /// proxies on one node, a client on a proxy's node, and a
        /// client in a component no proxy is in.
        #[test]
        fn nearest_sources_match_per_client_argmin(
            size in 50usize..250,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<usize>(), 2..30),
        ) {
            use crate::topology::{PhysicalNetwork, TransitStubConfig};
            let physical =
                PhysicalNetwork::generate(&TransitStubConfig::with_target_size(size, seed));
            let mut g = physical.graph().clone();
            let connected = g.len();
            let island = [g.add_node(), g.add_node()];
            g.add_edge(island[0], island[1], 1.0);
            let mut proxies: Vec<NodeId> =
                picks.iter().map(|p| NodeId::new(p % connected)).collect();
            proxies.push(proxies[0]);
            let nearest = g.nearest_sources(&proxies);
            // Every node is a client: the proxies' own and the island's too.
            for c in g.node_ids() {
                let dist = g.dijkstra(c);
                let (oracle, _) = proxies
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        dist[a.1.index()]
                            .partial_cmp(&dist[b.1.index()])
                            .unwrap_or(Ordering::Equal)
                    })
                    .expect("at least one proxy exists");
                prop_assert_eq!(nearest[c.index()].unwrap_or(0), oracle, "client {}", c);
                prop_assert_eq!(nearest[c.index()].is_none(), island.contains(&c));
            }
        }

        /// Shortest-path hop lists are real paths whose edge weights sum
        /// to the reported distance.
        #[test]
        fn shortest_path_hops_are_consistent(g in graph_strategy()) {
            for src in g.node_ids() {
                for dst in g.node_ids() {
                    if let Some((dist, hops)) = g.shortest_path(src, dst) {
                        prop_assert_eq!(*hops.first().unwrap(), src);
                        prop_assert_eq!(*hops.last().unwrap(), dst);
                        let mut total = 0.0;
                        for w in hops.windows(2) {
                            let weight = g
                                .neighbors(w[0])
                                .iter()
                                .find(|(n, _)| *n == w[1])
                                .map(|(_, wt)| *wt);
                            prop_assert!(weight.is_some(), "hop is not an edge");
                            total += weight.unwrap();
                        }
                        prop_assert!((total - dist).abs() < 1e-9);
                    }
                }
            }
        }

        /// Distances are symmetric (undirected graph) and satisfy the
        /// triangle inequality.
        #[test]
        fn distances_are_a_metric(g in graph_strategy()) {
            let fw = g.floyd_warshall();
            let n = g.len();
            for i in 0..n {
                prop_assert_eq!(fw[i][i], 0.0);
                for j in 0..n {
                    if fw[i][j].is_finite() || fw[j][i].is_finite() {
                        prop_assert!((fw[i][j] - fw[j][i]).abs() < 1e-9);
                    }
                    for k in 0..n {
                        if fw[i][k].is_finite() && fw[k][j].is_finite() {
                            prop_assert!(fw[i][j] <= fw[i][k] + fw[k][j] + 1e-9);
                        }
                    }
                }
            }
        }
    }
}
