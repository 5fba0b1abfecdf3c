//! # son-routing
//!
//! Service path finding — flat and hierarchical.
//!
//! * [`sdag`] implements the service-DAG method of the paper's
//!   reference \[11\]: the service graph and the candidate providers of
//!   each stage are mapped into a directed acyclic graph whose
//!   source→sink paths are exactly the viable service paths, and a
//!   DAG-shortest-paths pass returns the optimal one.
//! * [`flat`] wraps that into the single-level (global view) router
//!   used by the mesh baseline and by "HFC without aggregation".
//! * [`hier`] implements the paper's Section 5: the destination proxy
//!   computes a **cluster-level service path** (CSP) from aggregate
//!   state — including the back-tracking refinement that accounts for
//!   intra-cluster border-to-border distances — dissects the request
//!   into child requests, solves each one level down, and composes the
//!   child paths. Over the clusters alone that is the paper's bi-level
//!   router; given a `Hierarchy` the same planner recurses through its
//!   levels until each child lies in one cluster, where the flat method
//!   finishes it. Every level runs the shortest-path pass of the one
//!   `level` solver.
//!
//! # Example
//!
//! ```
//! use son_overlay::{DelayMatrix, ProxyId, ServiceGraph, ServiceId, ServiceRequest, ServiceSet};
//! use son_routing::{FlatRouter, ProviderIndex};
//!
//! // Three proxies on a line; the middle one has the only "transcode".
//! let delays = DelayMatrix::from_values(3, vec![
//!     0.0, 1.0, 2.0,
//!     1.0, 0.0, 1.0,
//!     2.0, 1.0, 0.0,
//! ]);
//! let transcode = ServiceId::new(0);
//! let services = vec![
//!     ServiceSet::new(),
//!     ServiceSet::from_iter([transcode]),
//!     ServiceSet::new(),
//! ];
//! let providers = ProviderIndex::from_service_sets(&services);
//! let router = FlatRouter::new(providers, &delays);
//! let request = ServiceRequest::new(
//!     ProxyId::new(0),
//!     ServiceGraph::linear(vec![transcode]),
//!     ProxyId::new(2),
//! );
//! let path = router.route(&request).unwrap();
//! assert_eq!(path.length(&delays), 2.0);
//! ```

pub mod cost;
pub mod csp;
pub mod fixtures;
pub mod flat;
pub mod hier;
mod level;
#[cfg(test)]
mod multilevel;
pub mod path;
mod proptests;
pub mod providers;
pub mod router;
pub mod sdag;
pub mod session;
pub mod trace;

pub use cost::{CostConfig, CostModel, LoadAwareDelays};
pub use csp::{CspFrontier, CspRouter};
pub use flat::{FlatRouter, RouteError};
pub use hier::{ChildSpec, HierConfig, HierRoute, HierarchicalRouter, RoutePlan, RouterTables};
pub use level::LevelWork;
pub use path::{PathBuilder, PathHop, ServicePath, ValidatePathError};
pub use providers::{ProviderIndex, ProviderLookup};
pub use router::Router;
pub use sdag::{solve_service_dag, Assignment};
pub use session::{resolve_distributed, SessionReport};
pub use trace::{request_trace, trace_hops, TraceRouter};
