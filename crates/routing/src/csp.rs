//! Cluster-level solve reuse: the CSP **sink frontier**.
//!
//! The expensive part of hierarchical routing is the cluster-level
//! shortest-path pass (Section 5 steps 1–2): a DP over every stage's
//! candidate clusters. Its interior depends on the concrete endpoints
//! only weakly — the destination proxy matters solely through its
//! *cluster* (it decides which internal distances the planner may use),
//! and the source proxy matters only when the planner knows its
//! coordinates (it is a border, or lives in the destination's cluster).
//! Everything endpoint-specific happens in the cheap *closing* step and
//! in the intra-cluster child solves.
//!
//! [`CspFrontier`] captures exactly the reusable part: every sink state
//! of the DP that can win for some destination of the destination's
//! unit, with its cost and entry proxy, in the deterministic order the
//! solver enumerates them, and the backtracked cluster chains of all of
//! them as one back-pointer tree. A sink is dropped when a lower bound
//! on its closing total lies above another sink's upper bound for every
//! destination of that unit, both read from the level table. Replaying
//! the closing step over a frontier ([`CspRouter::route_from_frontier`])
//! selects the same chain the full solve would, bit for bit, because it
//! *is* the full solve's closing loop over every sink that could win —
//! the serving engine caches frontiers keyed by (ingress cluster, source
//! class, destination cluster, service-DAG shape) and shares them across
//! concrete requests.

use crate::flat::RouteError;
use crate::level::{Node, NO_PARENT};
use crate::path::ServicePath;
use crate::trace::TraceRouter;
use son_overlay::{ClusterId, ProxyId, ServiceRequest, StageId};

/// [`Sink::entry`] of a path that never left the source's cluster and
/// entered it at no border: the request's own source.
const AT_SOURCE: u32 = u32::MAX;

/// One sink state of the cluster-level DP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sink {
    /// Cost accumulated by the DP up to (and including) entering the
    /// final cluster — the closing leg to the destination is not
    /// included.
    cost: f64,
    /// The proxy through which the path entered the final cluster (a
    /// border's remote end), or [`AT_SOURCE`]. A source the planner has
    /// no coordinates for never contributes to any cost term, so the
    /// frontier is then exact for *any* such source — which is what
    /// makes cross-request reuse sound.
    entry: u32,
    /// The tree node of the final (stage, cluster) of the chain.
    node: u32,
}

impl Sink {
    /// A sink state entered through `entry` (`None`: at the source),
    /// its chain ending at tree node `node`.
    pub(crate) fn new(cost: f64, entry: Option<ProxyId>, node: u32) -> Self {
        Sink {
            cost,
            entry: entry.map_or(AT_SOURCE, |proxy| proxy.index() as u32),
            node,
        }
    }
}

/// Every sink state of one cluster-level solve that can win for some
/// destination of the destination's unit, in the exact order the
/// solver's closing loop enumerates them, and their stage→cluster
/// chains as one back-pointer tree. Closing a frontier at any
/// destination of that unit reproduces the full solve's selection,
/// including tie-breaks: a dropped sink closes strictly above a kept
/// one wherever the destination lies.
///
/// A state of the DP lies on the chains of many sinks; the tree holds
/// it once, as a `(parent, stage, cluster)` node, so a frontier is two
/// exactly sized arrays whatever its chains share.
#[derive(Debug, Clone, PartialEq)]
pub struct CspFrontier {
    /// The sink states, in enumeration order.
    sinks: Box<[Sink]>,
    /// The states on the sinks' chains.
    tree: Box<[Node<ClusterId>]>,
}

impl CspFrontier {
    /// A frontier of `sinks`, whose chains `tree` holds.
    pub(crate) fn new(sinks: Box<[Sink]>, tree: Box<[Node<ClusterId>]>) -> Self {
        CspFrontier { sinks, tree }
    }

    /// Number of sink states carried.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// `true` when no sink state was reachable.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Every kept sink state as the closing loop reads it: `(cost, final
    /// cluster, entry proxy)`, the path of `source` counting as entered
    /// at `source`.
    pub(crate) fn sinks(
        &self,
        source: ProxyId,
    ) -> impl ExactSizeIterator<Item = (f64, ClusterId, ProxyId)> + '_ {
        self.sinks.iter().map(move |sink| {
            let entry = if sink.entry == AT_SOURCE {
                source
            } else {
                ProxyId::new(sink.entry as usize)
            };
            (sink.cost, self.tree[sink.node as usize].unit, entry)
        })
    }

    /// The stage→cluster chain of sink state `sink`, in path order.
    pub(crate) fn chain(&self, sink: usize) -> Vec<(StageId, ClusterId)> {
        let up = || {
            std::iter::successors(Some(&self.tree[self.sinks[sink].node as usize]), |node| {
                (node.parent != NO_PARENT).then(|| &self.tree[node.parent as usize])
            })
        };
        let mut chain = Vec::with_capacity(up().count());
        chain.extend(up().map(|node| (node.stage, node.unit)));
        chain.reverse();
        chain
    }

    /// Every kept sink state written out in full, as the chain-per-sink
    /// frontier the tree replaced held it: `(chain, cost bits, final
    /// cluster, entry)`, in enumeration order.
    #[cfg(test)]
    pub(crate) fn decode(&self, source: ProxyId) -> Vec<Decoded> {
        self.sinks(source)
            .enumerate()
            .map(|(i, (cost, cluster, entry))| (self.chain(i), cost.to_bits(), cluster, entry))
            .collect()
    }

    /// Number of nodes in the tree that holds the sinks' chains.
    pub fn nodes(&self) -> usize {
        self.tree.len()
    }
}

/// One sink state of [`CspFrontier::decode`].
#[cfg(test)]
pub(crate) type Decoded = (Vec<(StageId, ClusterId)>, u64, ClusterId, ProxyId);

/// A full router whose cluster-level solve can also be split into a
/// reusable frontier plus a per-request closing replay.
///
/// Contract: for any request `r` and any request `q` that shares its
/// frontier key — the same service graph, a source in the same cluster
/// that the solve sees alike (the same border or destination-cluster
/// source, or any other source of that cluster), and a destination in
/// the same top-level unit —
/// `route_from_frontier(q, &solve_frontier(r)?)` returns exactly what
/// the router's plain `route_path(q)` returns — same hops, same cost,
/// same error. The split exists so callers may compute the frontier
/// once and replay it for every request sharing the frontier's key;
/// the supertrait lets the same router answer plain and traced solves.
pub trait CspRouter: TraceRouter {
    /// Runs the cluster-level DP for `request` and returns its sink
    /// frontier without closing at the destination: every sink that can
    /// win for some destination of the destination's top-level unit.
    ///
    /// Not defined for empty service graphs (their cluster-level cost
    /// is a single concrete-endpoint lookup with nothing to reuse);
    /// callers must route those through the plain path.
    ///
    /// # Errors
    ///
    /// [`RouteError::NoProvider`] when a demanded service exists in no
    /// cluster's aggregate; [`RouteError::Infeasible`] when no sink
    /// state is reachable.
    fn solve_frontier(&self, request: &ServiceRequest) -> Result<CspFrontier, RouteError>;

    /// Closes `frontier` at the request's destination, dissects the
    /// winning chain, solves the intra-cluster children, and composes
    /// the final path — everything the full solve does *after* the DP.
    ///
    /// # Errors
    ///
    /// [`RouteError::Infeasible`] when every candidate closes at a
    /// non-finite total or a child is unsolvable.
    fn route_from_frontier(
        &self,
        request: &ServiceRequest,
        frontier: &CspFrontier,
    ) -> Result<ServicePath, RouteError>;
}
