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
//! of the DP with its cost, entry proxy, and backtracked cluster chain,
//! in the deterministic order the solver enumerates them. Replaying the
//! closing step over a frontier ([`CspRouter::route_from_frontier`])
//! selects the same chain the full solve would, bit for bit, because it
//! *is* the full solve's closing loop — the serving engine caches
//! frontiers keyed by (ingress cluster, source class, destination
//! cluster, service-DAG shape) and shares them across concrete
//! requests.

use crate::flat::RouteError;
use crate::path::ServicePath;
use crate::trace::TraceRouter;
use son_overlay::{ClusterId, ProxyId, ServiceRequest, StageId};

/// One sink state of the cluster-level DP: a complete stage→cluster
/// chain, the cost of reaching its final state (before the closing
/// leg), and the proxy through which the path entered the final
/// cluster.
///
/// When `entry` is a proxy the planner has no coordinates for (the
/// typical client source), its identity never contributes to any cost
/// term — frontiers are then exact for *any* such source, which is what
/// makes cross-request reuse sound.
#[derive(Debug, Clone, PartialEq)]
pub struct CspCandidate {
    /// Cluster assigned to each stage, in path order, ending at the
    /// sink stage this state belongs to.
    pub chain: Vec<(StageId, ClusterId)>,
    /// Cost accumulated by the DP up to (and including) entering the
    /// final cluster — the closing leg to the destination is not
    /// included.
    pub cost: f64,
    /// The final cluster of the chain.
    pub cluster: ClusterId,
    /// The proxy through which the path entered the final cluster (a
    /// border's remote end, or the request source while still in its
    /// own cluster).
    pub entry: ProxyId,
}

/// Every sink state of one cluster-level solve, in the exact order the
/// solver's closing loop enumerates them. Closing a frontier at a
/// concrete destination reproduces the full solve's selection,
/// including tie-breaks.
#[derive(Debug, Clone, PartialEq)]
pub struct CspFrontier {
    /// The sink states, in enumeration order.
    pub candidates: Vec<CspCandidate>,
}

impl CspFrontier {
    /// Number of sink states carried.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when no sink state was reachable.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// A full router whose cluster-level solve can also be split into a
/// reusable frontier plus a per-request closing replay.
///
/// Contract: for any request `r`,
/// `route_from_frontier(r, &solve_frontier(r)?)` returns exactly what
/// the router's plain `route_path(r)` returns — same hops, same cost,
/// same error. The split exists so callers may compute the frontier
/// once and replay it for every request sharing the frontier's key;
/// the supertrait lets the same router answer plain and traced solves.
pub trait CspRouter: TraceRouter {
    /// Runs the cluster-level DP for `request` and returns its sink
    /// frontier without closing at the destination.
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
