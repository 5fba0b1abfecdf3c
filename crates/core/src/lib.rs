//! # son-core
//!
//! Large-scale service overlay networking with distance-based
//! clustering — a from-scratch reproduction of Jin & Nahrstedt
//! (Middleware 2003).
//!
//! This crate is the facade over the workspace: it wires the
//! substrates (transit-stub network simulation, GNP coordinates, Zahn
//! clustering, HFC topology, state distribution, hierarchical routing)
//! into one [`ServiceOverlay`] you can build in a single call and ask
//! for routes, state-overhead figures, and protocol runs.
//!
//! ```
//! use son_core::{ServiceOverlay, SonConfig};
//!
//! // A scaled-down world (the paper-scale Table 1 rows are
//! // `SonConfig::table1(250..1000, seed)`).
//! let overlay = ServiceOverlay::build(&SonConfig::small(7));
//! assert!(overlay.hfc().cluster_count() > 1);
//!
//! // Route a random request hierarchically and check it's real.
//! let requests = overlay.generate_requests(5, 99);
//! let router = overlay.hier_router();
//! for request in &requests {
//!     if let Ok(route) = router.route(request) {
//!         route
//!             .path
//!             .validate(request, |p, s| overlay.carries(p, s))
//!             .unwrap();
//!     }
//! }
//! ```

pub mod export;
pub mod membership;
pub mod overlay_system;

pub use overlay_system::{BuildStage, ServiceOverlay, SonConfig};

// The component-crate names the examples, bins, tests and benchmark
// import, so they need only this one dependency.
pub use son_clustering::{mst_complete, Clustering, ZahnClusterer, ZahnConfig};
pub use son_coords::Coordinates;
pub use son_engine::{
    AdmissionConfig, CspCache, CspKey, Disposition, Engine, EngineConfig, EngineSnapshot,
    FlatProvider, HierProvider, MultiLevelProvider, NegativeCache, RouteCache, RouteKey,
    RouterProvider, ServeOutcome, ServeReport,
};
pub use son_netsim::{FaultPlan, NodeId, SimTime};
pub use son_overlay::{
    BorderSelection, ClusterId, CoordDelays, DelayMatrix, DelayModel, Health, HfcDelays,
    HfcTopology, Hierarchy, HierarchyConfig, ProxyId, QosRequirement, ServiceGraph, ServiceId,
    ServiceRegistry, ServiceRequest, ServiceSet, StatusMap,
};
pub use son_routing::fixtures;
pub use son_routing::{
    resolve_distributed, CostConfig, CspRouter, FlatRouter, HierConfig, HierarchicalRouter,
    LevelWork, ProviderIndex, RouteError, Router, ServicePath,
};
pub use son_state::{DissemMode, OverheadKind, ProtocolConfig, StateProtocol, StateReport};
pub use son_telemetry::{
    flight, global as telemetry, render_prometheus, set_enabled as set_telemetry_enabled,
    write_json_snapshot, CacheVerdict, FlightEvent, FlightKind, FlightRecorder, Histogram,
};
pub use son_workload::{
    table1_environments, zipf_request_mix, Environment, NonRepeatingWorkload, Scenario,
};
