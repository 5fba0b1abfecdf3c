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
pub mod multilevel;
pub mod overlay_system;

pub use membership::{ChurnStats, DynamicOverlay};
pub use multilevel::{MultiLevelHfc, SuperClusterId};
pub use overlay_system::{
    BuildStage, BuildStats, OverlayBuilder, ServiceOverlay, SonConfig, StageTimings,
};

// Re-export the full public API of the component crates so downstream
// users (examples, benches) need only one dependency.
pub use son_clustering::{
    mst_complete, mst_euclidean, mst_kruskal, Clustering, InconsistencyRule, Mst, MstEdge,
    UnionFind, ZahnClusterer, ZahnConfig,
};
pub use son_coords::{
    minimize, select_landmarks_maxmin, select_landmarks_random, Coordinates, EmbeddingConfig,
    ErrorStats, GnpEmbedding, NelderMeadConfig,
};
pub use son_engine::{
    AdmissionConfig, AdmissionStats, CacheStats, CspCache, CspKey, Disposition, Engine,
    EngineConfig, EngineSnapshot, FlatProvider, HierProvider, LatencySummary, LookupOutcome,
    MultiLevelProvider, NegativeCache, RejectReason, RouteCache, RouteKey, RouterProvider,
    ServeOutcome, ServeReport, StageBreakdown, SwrLookup, WorkerStats,
};
pub use son_netsim::{
    Actor, CrashEvent, Ctx, DelayMeasurer, EventQueue, FaultPlan, Graph, MeasureConfig, NodeId,
    NodeKind, Partition, PhysicalNetwork, SimStats, SimTime, Simulator, TransitStubConfig,
};
pub use son_overlay::{
    cluster_representatives, BorderPair, BorderSelection, CachedDelays, ClusterId, ClusterTree,
    CoordDelays, DelayMatrix, DelayModel, DissemForest, ElectionWork, Health, HfcDelays,
    HfcSnapshot, HfcTopology, Hierarchy, HierarchyConfig, MeshConfig, MeshTopology, Proxy, ProxyId,
    ProxyStatus, QosProfile, QosRequirement, ServiceGraph, ServiceId, ServiceRegistry,
    ServiceRequest, ServiceSet, StageId, StatusMap, DEFAULT_TREE_FANOUT, UNCAPPED,
};
pub use son_routing::fixtures;
pub use son_routing::{
    request_trace, resolve_distributed, solve_service_dag, trace_hops, Assignment, BasicTraced,
    ChildSpec, CostConfig, CostModel, FlatRouter, HierConfig, HierRoute, HierarchicalRouter,
    LoadAwareDelays, MultiLevelRouter, PathBuilder, PathHop, ProviderIndex, ProviderLookup,
    RouteError, RoutePlan, Router, ServicePath, SessionReport, TraceRouter, Traced,
    ValidatePathError,
};
pub use son_state::{
    flat_overhead, hfc_overhead, ClusterLoad, ClusterLoadRow, ConvergenceChecker, DissemMode,
    OverheadKind, OverheadReport, ProtocolConfig, SctC, SctP, Staleness, StateProtocol,
    StateReport,
};
pub use son_telemetry::{
    enabled as telemetry_enabled, flight, global as telemetry, render_prometheus,
    set_enabled as set_telemetry_enabled, snapshot_json, write_json_snapshot, AnomalyKind,
    AnomalySnapshot, CacheOutcome, CacheVerdict, DispositionMark, FlightEvent, FlightKind,
    FlightRecorder, Histogram, HistogramCells, Json, LocalHistogram, Registry, RouteTrace,
    SloConfig, SloTracker, Span, Stage as FlightStage, WindowFrame, NO_PROXY, NO_REQUEST,
    NO_WORKER,
};
pub use son_workload::{
    assign_services, generate_requests, place_proxies, place_proxies_excluding,
    table1_environments, zipf_request_mix, Environment, NonRepeatingWorkload, RequestProfile,
    Scenario, ScenarioPhase, Zipf,
};
