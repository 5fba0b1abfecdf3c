//! # son-coords
//!
//! GNP-style network coordinates (Ng & Zhang, "Predicting Internet
//! Network Distance with Coordinates-Based Approaches", INFOCOM 2002),
//! as used by the paper's Section 3.1 to obtain a complete distance map
//! of `n` overlay proxies from only `O(m² + nm)` measurements:
//!
//! 1. a small set of `m` *landmarks* measure their pairwise delays;
//! 2. the landmark delay matrix is embedded into a `k`-dimensional
//!    Euclidean space by function minimization (Nelder–Mead simplex,
//!    Nelder & Mead 1965 — implemented in [`neldermead`]);
//! 3. every proxy measures its delay to the landmarks and solves for
//!    its own coordinates relative to the landmark positions.
//!
//! After that, the distance between any two proxies is *predicted* as
//! the Euclidean distance between their coordinates.
//!
//! # Example
//!
//! ```
//! use son_netsim::topology::{PhysicalNetwork, TransitStubConfig};
//! use son_coords::{EmbeddingConfig, GnpEmbedding, select_landmarks_maxmin};
//!
//! let net = PhysicalNetwork::generate(&TransitStubConfig::default());
//! let stubs = net.stub_nodes();
//! let landmarks = select_landmarks_maxmin(net.graph(), &stubs, 6);
//! let hosts: Vec<_> = stubs.iter().copied().take(40).collect();
//! let embedding = GnpEmbedding::compute(
//!     net.graph(),
//!     &landmarks,
//!     &hosts,
//!     &EmbeddingConfig::default(),
//! );
//! // Predicted distances roughly track true delays.
//! let err = embedding.relative_error_stats(net.graph(), &hosts);
//! assert!(err.median < 0.5, "median relative error {}", err.median);
//! ```

pub mod embedding;
pub mod landmark;
pub mod neldermead;
pub mod space;

pub use embedding::{EmbeddingConfig, ErrorStats, GnpEmbedding};
pub use landmark::select_landmarks_maxmin;
pub use neldermead::{minimize, NelderMeadConfig};
pub use space::Coordinates;
