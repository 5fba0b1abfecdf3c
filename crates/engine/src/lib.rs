#![forbid(unsafe_code)]
//! # son-engine
//!
//! A parallel request-serving runtime on top of the `son-routing`
//! substrate — the layer that turns "we can compute one service path"
//! into "we can push sustained request load through the overlay".
//!
//! Three pieces:
//!
//! * [`EngineSnapshot`] — an immutable, epoch-stamped view of the
//!   overlay (HFC topology + installed services + delay model).
//!   Routers are built per worker from the snapshot via a
//!   [`RouterProvider`]; nothing a worker reads can change mid-batch.
//! * [`RouteCache`] — sharded, keyed by (ingress cluster, request
//!   signature), with epoch-based invalidation: entries from a
//!   superseded snapshot are dead on arrival, so churn can never leak
//!   a stale path into an answer.
//! * [`Engine`] — shards a request batch across worker threads by
//!   ingress cluster, serves cache-first, and reports throughput,
//!   latency percentiles, cache behavior, and per-border-proxy load
//!   in a [`ServeReport`].
//!
//! ```
//! use son_clustering::Clustering;
//! use son_engine::{Engine, EngineConfig, EngineSnapshot, HierProvider};
//! use son_overlay::{
//!     DelayMatrix, HfcTopology, ProxyId, ServiceGraph, ServiceId, ServiceRequest, ServiceSet,
//! };
//!
//! // Six proxies on a line, two clusters, one service apiece.
//! let n = 6;
//! let values: Vec<f64> = (0..n * n)
//!     .map(|k| ((k / n) as f64 - (k % n) as f64).abs())
//!     .collect();
//! let delays = DelayMatrix::from_values(n, values);
//! let hfc = HfcTopology::build(&Clustering::from_labels(&[0, 0, 0, 1, 1, 1]), &delays);
//! let services: Vec<ServiceSet> = (0..n)
//!     .map(|i| ServiceSet::from_iter([ServiceId::new(i % 3)]))
//!     .collect();
//!
//! let engine = Engine::new(
//!     EngineSnapshot::new(hfc, services, delays),
//!     HierProvider::default(),
//!     EngineConfig { workers: 2, ..EngineConfig::default() },
//! );
//! let batch = vec![ServiceRequest::new(
//!     ProxyId::new(0),
//!     ServiceGraph::linear(vec![ServiceId::new(1), ServiceId::new(2)]),
//!     ProxyId::new(5),
//! )];
//! let outcome = engine.serve(&batch);
//! assert!(outcome.paths[0].is_ok());
//! assert_eq!(outcome.report.requests, 1);
//! ```

pub mod cache;
pub mod engine;
pub mod report;
pub mod snapshot;

pub use cache::{CacheStats, CspCache, CspKey, NegativeCache, RouteCache, RouteKey, SwrLookup};
pub use engine::{AdmissionConfig, Disposition, Engine, EngineConfig, RejectReason, ServeOutcome};
pub use report::{AdmissionStats, LatencySummary, ServeReport, WorkerStats};
pub use snapshot::{
    EngineSnapshot, FlatProvider, HierProvider, MultiLevelProvider, RouterProvider,
};

#[cfg(test)]
mod send_sync {
    use super::*;
    use son_overlay::{CachedDelays, CoordDelays, DelayMatrix};

    fn assert_send_sync<T: Send + Sync>() {}

    /// The whole serving stack must be shareable across worker threads;
    /// this fails to *compile* if anyone adds interior mutability
    /// without synchronization.
    #[test]
    fn engine_types_are_send_sync() {
        assert_send_sync::<EngineSnapshot<DelayMatrix>>();
        assert_send_sync::<EngineSnapshot<CoordDelays>>();
        assert_send_sync::<EngineSnapshot<CachedDelays>>();
        assert_send_sync::<RouteCache>();
        assert_send_sync::<Engine<DelayMatrix, HierProvider>>();
        assert_send_sync::<Engine<CoordDelays, FlatProvider>>();
        assert_send_sync::<Engine<DelayMatrix, MultiLevelProvider>>();
        assert_send_sync::<ServeReport>();
        assert_send_sync::<ServeOutcome>();
        assert_send_sync::<AdmissionStats>();
        assert_send_sync::<Disposition>();
    }
}
