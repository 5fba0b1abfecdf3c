//! The repository's benchmark.
//!
//! Two binaries share this library. `e2e` drives the system through
//! the `son-core` facade only and reports the end-to-end metrics;
//! `layers` repeats the workload under benchmark-side spans and times
//! public layer functions from outside for the per-layer budget. See
//! the README for the workloads, the metrics and how they interact.

pub mod args;
pub mod check;
pub mod contract;
pub mod driver;
pub mod json;
pub mod report;
pub mod span;
pub mod stats;
pub mod traffic;
pub mod workloads;
