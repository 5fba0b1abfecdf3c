//! Delay models: where routing gets its notion of distance.
//!
//! The evaluation uses several distance semantics over the same proxy
//! set:
//!
//! * [`DelayMatrix`] — true end-to-end (shortest-path) delays on the
//!   physical network; used to *evaluate* final paths.
//! * [`CoordDelays`] — delays predicted from network coordinates; what
//!   HFC nodes actually know and route on.
//! * [`CachedDelays`] — true delays like [`DelayMatrix`], but computed
//!   lazily: one Dijkstra row per *queried* source proxy, memoized.
//! * [`HfcDelays`] — a wrapper constraining communication to the HFC
//!   topology: intra-cluster pairs talk directly, inter-cluster pairs
//!   talk through their clusters' border pair.

use crate::hfc::HfcTopology;
use crate::proxy::ProxyId;
use son_coords::Coordinates;
use son_netsim::graph::{Graph, NodeId};
use std::collections::VecDeque;
use std::sync::{Arc, RwLock};

/// Something that knows the delay between two proxies.
pub trait DelayModel {
    /// One-way delay between proxies `a` and `b` in milliseconds.
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64;

    /// The per-proxy points of a coordinate space, for a model whose
    /// `delay(a, b)` is exactly `points[a].distance(&points[b])`.
    /// Border election prunes geometrically over them (see
    /// [`HfcTopology::build`]); any other metric answers `None` and
    /// is scanned exhaustively.
    fn points(&self) -> Option<&[Coordinates]> {
        None
    }
}

impl<T: DelayModel + ?Sized> DelayModel for &T {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        (**self).delay(a, b)
    }

    fn points(&self) -> Option<&[Coordinates]> {
        (**self).points()
    }
}

/// A dense symmetric matrix of true end-to-end delays between proxies,
/// computed from shortest paths on the physical network.
///
/// # Example
///
/// ```
/// use son_netsim::graph::{Graph, NodeId};
/// use son_overlay::{DelayMatrix, DelayModel, ProxyId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 2.0);
/// g.add_edge(NodeId::new(1), NodeId::new(2), 3.0);
/// // Proxies attach to physical nodes 0 and 2.
/// let delays = DelayMatrix::from_graph(&g, &[NodeId::new(0), NodeId::new(2)]);
/// assert_eq!(delays.delay(ProxyId::new(0), ProxyId::new(1)), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct DelayMatrix {
    n: usize,
    // Row-major n×n.
    values: Vec<f64>,
}

impl DelayMatrix {
    /// Computes proxy-to-proxy delays by running Dijkstra from each
    /// attachment point.
    ///
    /// # Panics
    ///
    /// Panics if any pair of attachments is disconnected.
    pub fn from_graph(graph: &Graph, attachments: &[NodeId]) -> Self {
        let n = attachments.len();
        let mut values = vec![0.0; n * n];
        for (i, &a) in attachments.iter().enumerate() {
            let dist = graph.dijkstra(a);
            for (j, &b) in attachments.iter().enumerate() {
                let d = dist[b.index()];
                assert!(
                    d.is_finite(),
                    "attachments {a} and {b} are disconnected in the physical network"
                );
                values[i * n + j] = d;
            }
        }
        DelayMatrix { n, values }
    }

    /// Builds a matrix from explicit row-major values (for tests and
    /// hand-crafted topologies like the paper's Figure 6).
    ///
    /// # Panics
    ///
    /// Panics if `values` is not `n × n`, asymmetric, has a non-zero
    /// diagonal, or contains negative/non-finite entries.
    pub fn from_values(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), n * n, "expected {n}×{n} values");
        for i in 0..n {
            assert_eq!(values[i * n + i], 0.0, "diagonal must be zero");
            for j in 0..n {
                let v = values[i * n + j];
                assert!(v.is_finite() && v >= 0.0, "delay [{i}][{j}] = {v} invalid");
                assert_eq!(v, values[j * n + i], "matrix must be symmetric");
            }
        }
        DelayMatrix { n, values }
    }

    /// Number of proxies.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix covers no proxies.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

impl DelayModel for DelayMatrix {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        self.values[a.index() * self.n + b.index()]
    }
}

/// True end-to-end delays computed lazily: a Dijkstra row is run the
/// first time a source proxy is queried and memoized after that.
///
/// Building a full [`DelayMatrix`] is `n` single-source shortest-path
/// runs up front — fine for evaluation sweeps, wasteful when only a
/// fraction of sources is ever queried (e.g. client attachment, spot
/// checks of routed paths). `CachedDelays` defers that cost: an
/// overlay whose workload touches `k` distinct sources pays for `k`
/// rows, not `n`.
///
/// Clones share the row cache, so handing a clone to a consumer (the
/// state protocol clones its delay model) keeps memoization global.
///
/// By default the cache is unbounded — every queried source stays
/// resident, worst case the full `n²` the dense matrix would cost.
/// Long-running servers should use [`CachedDelays::bounded`], which
/// caps residency and evicts the oldest row first; an evicted row is
/// simply recomputed if queried again.
///
/// # Example
///
/// ```
/// use son_netsim::graph::{Graph, NodeId};
/// use son_overlay::{CachedDelays, DelayModel, ProxyId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 2.0);
/// g.add_edge(NodeId::new(1), NodeId::new(2), 3.0);
/// let delays = CachedDelays::new(g, vec![NodeId::new(0), NodeId::new(2)]);
/// assert_eq!(delays.computed_rows(), 0);
/// assert_eq!(delays.delay(ProxyId::new(0), ProxyId::new(1)), 5.0);
/// assert_eq!(delays.computed_rows(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CachedDelays {
    graph: Arc<Graph>,
    attachments: Arc<Vec<NodeId>>,
    // rows[i] is the proxy-indexed delay row from proxy i, present
    // once proxy i has been queried as a source.
    rows: Arc<RwLock<RowCache>>,
}

/// The memoized Dijkstra rows of a [`CachedDelays`], proxy-indexed,
/// with a residency bound: when `limit` rows are resident the oldest
/// is evicted before the next one is admitted.
#[derive(Debug)]
struct RowCache {
    rows: Vec<Option<Arc<Vec<f64>>>>,
    // Resident row indices in admission order (FIFO eviction).
    order: VecDeque<usize>,
    limit: usize,
}

impl RowCache {
    fn new(n: usize, limit: usize) -> Self {
        RowCache {
            rows: vec![None; n],
            order: VecDeque::new(),
            limit,
        }
    }

    /// Admits `row` at index `i`, evicting the oldest resident rows
    /// until the bound holds.
    fn admit(&mut self, i: usize, row: Arc<Vec<f64>>) {
        if self.rows[i].is_none() {
            let mut evicted = 0u64;
            while self.order.len() >= self.limit {
                let victim = self.order.pop_front().expect("order tracks residents");
                self.rows[victim] = None;
                evicted += 1;
            }
            if evicted > 0 && son_telemetry::enabled() {
                son_telemetry::global()
                    .counter("delays.rows_evicted")
                    .add(evicted);
            }
            self.order.push_back(i);
        }
        self.rows[i] = Some(row);
    }
}

impl CachedDelays {
    /// Wraps a physical network and proxy attachment points without
    /// computing any delays yet; every queried row stays resident.
    pub fn new(graph: Graph, attachments: Vec<NodeId>) -> Self {
        let limit = attachments.len().max(1);
        Self::bounded(graph, attachments, limit)
    }

    /// Like [`CachedDelays::new`] but keeps at most `limit` rows
    /// resident, evicting the oldest first. Bounds the memory of
    /// long-running servers to `limit × n` delays instead of `n²`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn bounded(graph: Graph, attachments: Vec<NodeId>, limit: usize) -> Self {
        assert!(limit > 0, "the row cache needs room for at least one row");
        let n = attachments.len();
        CachedDelays {
            graph: Arc::new(graph),
            attachments: Arc::new(attachments),
            rows: Arc::new(RwLock::new(RowCache::new(n, limit))),
        }
    }

    /// The delay row from `source` to every proxy, computing and
    /// memoizing it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `source` is disconnected from any other attachment.
    pub fn row(&self, source: ProxyId) -> Arc<Vec<f64>> {
        let i = source.index();
        if let Some(row) = &self.rows.read().expect("cache lock poisoned").rows[i] {
            return Arc::clone(row);
        }
        let row = self.compute_row(i);
        // A concurrent query may have raced us here; either result is
        // identical, so last write wins harmlessly.
        self.rows
            .write()
            .expect("cache lock poisoned")
            .admit(i, Arc::clone(&row));
        row
    }

    /// One Dijkstra row, bypassing the cache entirely.
    fn compute_row(&self, i: usize) -> Arc<Vec<f64>> {
        let a = self.attachments[i];
        let dist = self.graph.dijkstra(a);
        let row: Vec<f64> = self
            .attachments
            .iter()
            .map(|&b| {
                let d = dist[b.index()];
                assert!(
                    d.is_finite(),
                    "attachments {a} and {b} are disconnected in the physical network"
                );
                d
            })
            .collect();
        Arc::new(row)
    }

    /// Number of proxies.
    pub fn len(&self) -> usize {
        self.attachments.len()
    }

    /// The physical attachment point of each proxy.
    pub fn attachments(&self) -> &[NodeId] {
        &self.attachments
    }

    /// Returns `true` if no proxies are attached.
    pub fn is_empty(&self) -> bool {
        self.attachments.is_empty()
    }

    /// How many source rows are currently resident.
    pub fn computed_rows(&self) -> usize {
        self.rows.read().expect("cache lock poisoned").order.len()
    }
}

impl DelayModel for CachedDelays {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        self.row(a)[b.index()]
    }
}

/// Delays predicted from per-proxy network coordinates — the distance
/// map every HFC node derives from the information in Figure 4.
#[derive(Debug, Clone)]
pub struct CoordDelays {
    coords: Vec<Coordinates>,
}

impl CoordDelays {
    /// Wraps per-proxy coordinates (indexed by [`ProxyId::index`]).
    pub fn new(coords: Vec<Coordinates>) -> Self {
        CoordDelays { coords }
    }

    /// The coordinates of `proxy`.
    pub fn coordinates(&self, proxy: ProxyId) -> &Coordinates {
        &self.coords[proxy.index()]
    }

    /// Every proxy's coordinates, indexed by [`ProxyId::index`].
    pub fn as_slice(&self) -> &[Coordinates] {
        &self.coords
    }

    /// Appends a proxy's coordinates (it takes the next id).
    pub fn push(&mut self, coords: Coordinates) -> ProxyId {
        self.coords.push(coords);
        ProxyId::new(self.coords.len() - 1)
    }

    /// Removes a proxy's coordinates by swap-remove: the last proxy's
    /// coordinates now answer at `proxy`'s id.
    ///
    /// # Panics
    ///
    /// Panics if `proxy` is out of range.
    pub fn swap_remove(&mut self, proxy: ProxyId) {
        self.coords.swap_remove(proxy.index());
    }

    /// Number of proxies.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` if no proxies are present.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

impl DelayModel for CoordDelays {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        self.coords[a.index()].distance(&self.coords[b.index()])
    }

    fn points(&self) -> Option<&[Coordinates]> {
        Some(&self.coords)
    }
}

/// Delay under HFC connectivity: intra-cluster pairs communicate
/// directly, inter-cluster pairs through the border pair of their two
/// clusters (at most two overlay hops between any services — the HFC
/// property the paper credits for its short paths).
#[derive(Debug, Clone, Copy)]
pub struct HfcDelays<'a, D> {
    topology: &'a HfcTopology,
    inner: &'a D,
}

impl<'a, D: DelayModel> HfcDelays<'a, D> {
    /// Wraps `inner` delays with HFC connectivity from `topology`.
    pub fn new(topology: &'a HfcTopology, inner: &'a D) -> Self {
        HfcDelays { topology, inner }
    }

    /// The overlay hops actually traversed between `a` and `b`:
    /// `[a, b]` inside a cluster, `[a, b_ij, b_ji, b]` across clusters
    /// (with duplicate consecutive hops collapsed).
    pub fn hops(&self, a: ProxyId, b: ProxyId) -> Vec<ProxyId> {
        let (hops, len) = self.hop_array(a, b);
        hops[..len].to_vec()
    }

    /// [`HfcDelays::hops`] in a fixed array: the first `len` entries.
    fn hop_array(&self, a: ProxyId, b: ProxyId) -> ([ProxyId; 4], usize) {
        let ca = self.topology.cluster_of(a);
        let cb = self.topology.cluster_of(b);
        let stops = if ca == cb {
            [b; 3]
        } else {
            let pair = self.topology.border(ca, cb);
            [pair.local, pair.remote, b]
        };
        let (mut hops, mut len) = ([a; 4], 1);
        for stop in stops {
            if hops[len - 1] != stop {
                hops[len] = stop;
                len += 1;
            }
        }
        (hops, len)
    }
}

impl<D: DelayModel> DelayModel for HfcDelays<'_, D> {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        let (hops, len) = self.hop_array(a, b);
        hops[..len]
            .windows(2)
            .map(|w| self.inner.delay(w[0], w[1]))
            .sum()
    }
}

/// The same delays with [`DelayModel::points`] hidden, so a test can
/// run the exhaustive border election over a coordinate space.
#[cfg(test)]
pub(crate) struct Opaque<'a, D>(pub &'a D);

#[cfg(test)]
impl<D: DelayModel> DelayModel for Opaque<'_, D> {
    fn delay(&self, a: ProxyId, b: ProxyId) -> f64 {
        self.0.delay(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_from_graph_is_symmetric() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0);
        g.add_edge(NodeId::new(1), NodeId::new(2), 2.0);
        g.add_edge(NodeId::new(2), NodeId::new(3), 4.0);
        let attachments: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let m = DelayMatrix::from_graph(&g, &attachments);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    m.delay(ProxyId::new(i), ProxyId::new(j)),
                    m.delay(ProxyId::new(j), ProxyId::new(i))
                );
            }
            assert_eq!(m.delay(ProxyId::new(i), ProxyId::new(i)), 0.0);
        }
        assert_eq!(m.delay(ProxyId::new(0), ProxyId::new(3)), 7.0);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_attachments_panic() {
        let g = Graph::with_nodes(2);
        let _ = DelayMatrix::from_graph(&g, &[NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn from_values_validates() {
        let m = DelayMatrix::from_values(2, vec![0.0, 3.0, 3.0, 0.0]);
        assert_eq!(m.delay(ProxyId::new(0), ProxyId::new(1)), 3.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_values_panic() {
        let _ = DelayMatrix::from_values(2, vec![0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn cached_delays_match_dense_matrix() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0);
        g.add_edge(NodeId::new(1), NodeId::new(2), 2.0);
        g.add_edge(NodeId::new(2), NodeId::new(3), 4.0);
        g.add_edge(NodeId::new(3), NodeId::new(4), 8.0);
        g.add_edge(NodeId::new(0), NodeId::new(4), 3.0);
        let attachments: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let dense = DelayMatrix::from_graph(&g, &attachments);
        let cached = CachedDelays::new(g, attachments);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(
                    cached.delay(ProxyId::new(i), ProxyId::new(j)),
                    dense.delay(ProxyId::new(i), ProxyId::new(j))
                );
            }
        }
        assert_eq!(cached.computed_rows(), 5);
    }

    #[test]
    fn cached_delays_only_pay_for_queried_rows() {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), 1.0);
        }
        let cached = CachedDelays::new(g, (0..4).map(NodeId::new).collect());
        assert_eq!(cached.computed_rows(), 0);
        let _ = cached.delay(ProxyId::new(2), ProxyId::new(0));
        let _ = cached.delay(ProxyId::new(2), ProxyId::new(3));
        assert_eq!(cached.computed_rows(), 1);
        // Clones share the memoized cache.
        let clone = cached.clone();
        let _ = clone.delay(ProxyId::new(1), ProxyId::new(3));
        assert_eq!(cached.computed_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn cached_delays_panic_on_disconnected_query() {
        let g = Graph::with_nodes(2);
        let cached = CachedDelays::new(g, vec![NodeId::new(0), NodeId::new(1)]);
        let _ = cached.delay(ProxyId::new(0), ProxyId::new(1));
    }

    /// Resident row indices in admission order.
    fn resident(cached: &CachedDelays) -> Vec<usize> {
        cached.rows.read().unwrap().order.iter().copied().collect()
    }

    #[test]
    fn bounded_cache_evicts_oldest_row_first() {
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), 1.0);
        }
        let attachments: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let reference = DelayMatrix::from_graph(&g, &attachments);
        let cached = CachedDelays::bounded(g, attachments, 2);

        let _ = cached.row(ProxyId::new(0));
        let _ = cached.row(ProxyId::new(1));
        assert_eq!(resident(&cached), [0, 1]);

        // Admitting a third row evicts the oldest (row 0).
        let _ = cached.row(ProxyId::new(2));
        assert_eq!(resident(&cached), [1, 2]);

        // Row 0 answers correctly again — recomputed, with row 1 now
        // the eviction victim.
        assert_eq!(
            cached.delay(ProxyId::new(0), ProxyId::new(4)),
            reference.delay(ProxyId::new(0), ProxyId::new(4))
        );
        assert_eq!(resident(&cached), [2, 0]);

        // Re-querying a resident row evicts nothing.
        let _ = cached.row(ProxyId::new(2));
        assert_eq!(resident(&cached), [2, 0]);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), 1.0);
        }
        let cached = CachedDelays::new(g, (0..4).map(NodeId::new).collect());
        for i in 0..4 {
            let _ = cached.row(ProxyId::new(i));
        }
        assert_eq!(resident(&cached), [0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_row_bound_panics() {
        let _ = CachedDelays::bounded(Graph::with_nodes(1), vec![NodeId::new(0)], 0);
    }

    /// Routers are shared across serving workers, so every delay model
    /// must be `Send + Sync`; this fails to compile if interior
    /// mutability sneaks in unsynchronized.
    #[test]
    fn delay_models_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DelayMatrix>();
        assert_send_sync::<CachedDelays>();
        assert_send_sync::<CoordDelays>();
        assert_send_sync::<HfcDelays<'_, DelayMatrix>>();
    }

    #[test]
    fn coord_delays_are_euclidean() {
        let delays = CoordDelays::new(vec![
            Coordinates::new(vec![0.0, 0.0]),
            Coordinates::new(vec![3.0, 4.0]),
        ]);
        assert_eq!(delays.delay(ProxyId::new(0), ProxyId::new(1)), 5.0);
        assert_eq!(delays.len(), 2);
        assert_eq!(delays.coordinates(ProxyId::new(1)).as_slice(), &[3.0, 4.0]);
    }
}
