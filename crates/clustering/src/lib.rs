//! # son-clustering
//!
//! Distance-based clustering by Zahn's minimum-spanning-tree method
//! (C. T. Zahn, "Graph-Theoretical Methods for Detecting and Describing
//! Gestalt Clusters", IEEE Trans. Computers, 1971) — the clustering
//! algorithm the paper uses in Section 3.2 to detect proxy clusters in
//! the virtual coordinate space:
//!
//! 1. build the MST of the complete distance graph over the `n` points;
//! 2. mark edges *inconsistent* when their length is significantly
//!    larger than the average length of nearby edges;
//! 3. remove inconsistent edges — the surviving connected components
//!    are the clusters.
//!
//! The crate is self-contained: callers supply a distance function over
//! point indices ([`mst_complete`]), so it clusters anything with a
//! metric, or the points themselves when the metric is Euclidean
//! ([`mst_euclidean`] — the same tree without the `n²` scan, which is
//! what the overlay build feeds its proxy coordinates to).
//!
//! # Example
//!
//! ```
//! use son_clustering::{mst_complete, ZahnClusterer, ZahnConfig};
//!
//! // Two obvious groups on a line: {0,1,2} near 0 and {3,4,5} near 100.
//! let xs: &[f64] = &[0.0, 1.0, 2.0, 100.0, 101.0, 102.0];
//! let dist = |a: usize, b: usize| (xs[a] - xs[b]).abs();
//! let mst = mst_complete(xs.len(), dist);
//! let clustering = ZahnClusterer::new(ZahnConfig::default()).cluster(&mst);
//! assert_eq!(clustering.len(), 2);
//! assert_eq!(clustering.cluster_of(0), clustering.cluster_of(2));
//! assert_ne!(clustering.cluster_of(0), clustering.cluster_of(3));
//! ```

pub mod cluster;
pub mod mst;
pub mod unionfind;
pub mod zahn;

pub use cluster::Clustering;
pub use mst::{mst_complete, mst_euclidean, mst_kruskal, Mst, MstEdge};
pub use unionfind::UnionFind;
pub use zahn::{InconsistencyRule, ZahnClusterer, ZahnConfig};
