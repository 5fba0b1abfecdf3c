//! # son-netsim
//!
//! A deterministic discrete-event network simulator together with a
//! transit-stub Internet topology generator, standing in for the ns-2 +
//! GT-ITM substrate used by the paper *Large-Scale Service Overlay
//! Networking with Distance-Based Clustering* (Jin & Nahrstedt,
//! Middleware 2003).
//!
//! The crate has three parts:
//!
//! * [`graph`] — a weighted undirected graph with Dijkstra,
//!   Floyd–Warshall, connectivity checks and multi-source distance
//!   tables. This is the "routing layer" of the simulated Internet: the
//!   end-to-end delay between two attachment points is the shortest-path
//!   delay over physical links.
//! * [`topology`] — a generator for transit-stub topologies in the style
//!   of GT-ITM (Zegura, Calvert & Bhattacharjee). Domains are placed in a
//!   plane and link delays are derived from geometric distance, so
//!   end-to-end delays embed well into a low-dimensional coordinate
//!   space — the property GNP observed on the real Internet and that the
//!   paper's distance-based clustering relies on.
//! * [`event`] / [`sim`] — a deterministic event queue and an actor-style
//!   message-passing simulator used to run the hierarchical state
//!   distribution protocol of the paper's Section 4.
//!
//! # Example
//!
//! ```
//! use son_netsim::topology::{TransitStubConfig, PhysicalNetwork};
//!
//! let config = TransitStubConfig::with_target_size(300, 42);
//! let net = PhysicalNetwork::generate(&config);
//! assert!(net.graph().is_connected());
//! // end-to-end delay between the first two stub nodes
//! let stubs = net.stub_nodes();
//! let d = net.graph().dijkstra(stubs[0]);
//! assert!(d[stubs[1].index()].is_finite());
//! ```

pub mod event;
pub mod faults;
pub mod graph;
pub mod measure;
pub mod sim;
pub mod topology;

pub use event::{EventQueue, SimTime};
pub use faults::{CrashEvent, FaultPlan, Partition};
pub use graph::{Graph, NodeId};
pub use measure::{DelayMeasurer, MeasureConfig};
pub use sim::{Actor, Ctx, SimStats, Simulator};
pub use topology::{NodeKind, PhysicalNetwork, TransitStubConfig};
