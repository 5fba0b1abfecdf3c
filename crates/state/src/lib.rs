//! # son-state
//!
//! The hierarchical service-routing-information distribution protocol
//! of the paper's Section 4, plus the state-overhead accounting used in
//! Section 6.1.
//!
//! Every proxy maintains two *Service Capability Tables*:
//!
//! * [`SctP`] — full per-proxy capabilities of its **own cluster**,
//!   refreshed by periodic *local state* messages flooded inside the
//!   cluster;
//! * [`SctC`] — aggregate capabilities (set unions) of **every
//!   cluster**, refreshed by *aggregate state* messages that border
//!   proxies exchange with their neighbor borders and forward within
//!   their own cluster.
//!
//! [`protocol::StateProtocol`] runs this over the deterministic
//! [`son_netsim::Simulator`] and reports convergence time and message
//! counts. [`overhead`] computes the per-proxy node-state counts the
//! paper plots in Figure 9.

pub mod checker;
pub mod load;
pub mod overhead;
pub mod protocol;
pub mod tables;

pub use checker::{ConvergenceChecker, Staleness};
pub use load::{ClusterLoad, ClusterLoadRow};
pub use overhead::{flat_overhead, hfc_overhead, OverheadKind, OverheadReport};
pub use protocol::{DissemMode, ProtocolConfig, StateProtocol, StateReport};
pub use tables::{Sct, SctC, SctP};
