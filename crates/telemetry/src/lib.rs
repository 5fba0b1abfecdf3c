//! `son-telemetry` — zero-dependency observability for the SON stack.
//!
//! The paper's evaluation (§6) is entirely measurement-driven, so the
//! repo needs a uniform way to observe itself: this crate provides a
//! process-wide metric [`Registry`] (counters, gauges, log-bucketed
//! [`Histogram`]s with p50/p90/p99/max extraction), RAII [`Span`]s that
//! time scoped work and nest (`span!("build.hfc")`), a per-request
//! route-provenance record ([`RouteTrace`]), and two exporters —
//! Prometheus text exposition and a JSON snapshot built on the
//! workspace's canonical [`Json`] emitter.
//!
//! The crate depends on nothing (like the offline shims), and no other
//! workspace crate depends on anything through it, so every layer —
//! netsim, state, routing, engine, builder, CLI, benches — can record
//! into the same registry without dependency cycles.
//!
//! Recording can be globally disabled ([`set_enabled`]) which reduces
//! each instrumentation site to one relaxed atomic load; the
//! benchmark's `--trace` run uses this to measure instrumentation
//! overhead.

pub mod export;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use export::{render_prometheus, write_json_snapshot};
pub use flight::{
    flight, CacheVerdict, DispositionMark, FlightEvent, FlightKind, FlightRecorder, Stage,
    NO_PROXY, NO_REQUEST, NO_WORKER,
};
pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram, RELATIVE_ERROR_BOUND};
pub use json::Json;
pub use registry::{
    enabled, global, set_enabled, Counter, Gauge, MetricKey, MetricValue, Registry,
};
pub use span::Span;
pub use trace::{BorderHop, CacheOutcome, ChildTrace, CspStage, RouteTrace, TraceHop};
