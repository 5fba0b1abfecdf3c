//! # son-overlay
//!
//! The service overlay model of the paper: *proxies* carrying
//! statically-installed composable *services*, service *requests*
//! (source proxy + service graph + destination proxy), and the two
//! overlay topologies the evaluation compares —
//!
//! * the **HFC** (Hierarchically Fully-Connected) topology of
//!   Section 3: proxies clustered by distance, full connectivity inside
//!   a cluster, clusters fully connected through border-proxy pairs;
//! * the **mesh** baseline of Section 6.2: each proxy links to a few
//!   nearest neighbors plus one or two random far neighbors.
//!
//! Delay semantics are abstracted behind [`DelayModel`] so the same
//! routing code can run over true end-to-end delays, coordinate-
//! predicted delays, HFC-constrained delays, or mesh shortest paths.
//!
//! # Example
//!
//! ```
//! use son_overlay::{ServiceGraph, ServiceRegistry};
//!
//! let mut registry = ServiceRegistry::new();
//! let watermark = registry.intern("watermark");
//! let transcode = registry.intern("mpeg2h261");
//! let graph = ServiceGraph::linear(vec![watermark, transcode]);
//! assert_eq!(graph.configurations().len(), 1);
//! ```

pub mod delays;
pub mod dissem;
pub mod health;
pub mod hfc;
pub mod hierarchy;
pub mod mesh;
pub mod proxy;
pub mod qos;
pub mod request;
pub mod service;
pub mod sgraph;

pub use delays::{CachedDelays, CoordDelays, DelayMatrix, DelayModel, HfcDelays};
pub use dissem::{ClusterTree, DissemForest, DEFAULT_TREE_FANOUT};
pub use health::{Health, ProxyStatus, StatusMap, UNCAPPED};
pub use hfc::{BorderPair, BorderSelection, ClusterId, ElectionWork, HfcSnapshot, HfcTopology};
pub use hierarchy::{cluster_representatives, Hierarchy, HierarchyConfig};
pub use mesh::{MeshConfig, MeshTopology};
pub use proxy::{Proxy, ProxyId};
pub use qos::{QosProfile, QosRequirement};
pub use request::ServiceRequest;
pub use service::{ServiceId, ServiceRegistry, ServiceSet};
pub use sgraph::{ServiceGraph, StageId};
