//! Zahn's inconsistent-edge clustering over an MST.
//!
//! An MST edge is *inconsistent* when its length is significantly
//! larger than the average length of nearby edges (Zahn 1971; the
//! paper's Section 3.2 uses the ratio test `a / b > k`). Removing all
//! inconsistent edges splits the tree into connected components — the
//! clusters.

use crate::cluster::Clustering;
use crate::mst::Mst;
use crate::unionfind::UnionFind;

/// How the neighborhood averages on the two sides of an edge are
/// combined into the inconsistency test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InconsistencyRule {
    /// Compare the edge against the mean of nearby edges on *both*
    /// sides pooled together (the formulation in the paper's
    /// Section 3.2).
    #[default]
    CombinedMean,
    /// Require the edge to exceed `k ×` the mean on *each* side that
    /// has nearby edges (Zahn's stricter original test; produces fewer
    /// cuts).
    BothSides,
}

/// Parameters of the Zahn clusterer.
#[derive(Debug, Clone, PartialEq)]
pub struct ZahnConfig {
    /// Inconsistency ratio `k`: an edge of length `a` is inconsistent
    /// when `a / b > k` for neighborhood mean `b`. The paper suggests
    /// `k = 2, 3, …`.
    pub ratio: f64,
    /// Neighborhood depth `d`: edges within `d` hops of an endpoint
    /// count as "nearby".
    pub depth: usize,
    /// Side-combination rule.
    pub rule: InconsistencyRule,
    /// Clusters smaller than this are merged back into the neighboring
    /// cluster reachable over the cheapest removed edge. `1` (default)
    /// disables absorption.
    pub min_cluster_size: usize,
}

impl Default for ZahnConfig {
    fn default() -> Self {
        ZahnConfig {
            ratio: 2.0,
            depth: 2,
            rule: InconsistencyRule::CombinedMean,
            min_cluster_size: 1,
        }
    }
}

/// Detects clusters by removing inconsistent MST edges.
///
/// # Example
///
/// ```
/// use son_clustering::{mst_complete, ZahnClusterer, ZahnConfig};
///
/// let xs: &[f64] = &[0.0, 1.0, 2.0, 50.0, 51.0, 52.0, 100.0, 101.0];
/// let mst = mst_complete(xs.len(), |a, b| (xs[a] - xs[b]).abs());
/// let clustering = ZahnClusterer::new(ZahnConfig::default()).cluster(&mst);
/// assert_eq!(clustering.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ZahnClusterer {
    config: ZahnConfig,
}

impl ZahnClusterer {
    /// Creates a clusterer with the given configuration.
    pub fn new(config: ZahnConfig) -> Self {
        assert!(config.ratio > 0.0, "inconsistency ratio must be positive");
        ZahnClusterer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ZahnConfig {
        &self.config
    }

    /// Returns the indices (into `mst.edges()`) of inconsistent edges.
    fn inconsistent_edges(&self, mst: &Mst) -> Vec<usize> {
        (0..mst.edges().len())
            .filter(|&ei| self.is_inconsistent(mst, ei))
            .collect()
    }

    /// Clusters the MST's points by removing inconsistent edges (and
    /// optionally absorbing undersized clusters).
    pub fn cluster(&self, mst: &Mst) -> Clustering {
        let n = mst.len();
        if n == 0 {
            return Clustering::from_labels(&[]);
        }
        let inconsistent = self.inconsistent_edges(mst);
        let mut removed = vec![false; mst.edges().len()];
        for &ei in &inconsistent {
            removed[ei] = true;
        }
        let mut uf = UnionFind::new(n);
        for (ei, e) in mst.edges().iter().enumerate() {
            if !removed[ei] {
                uf.union(e.a, e.b);
            }
        }

        if self.config.min_cluster_size > 1 {
            self.absorb_small_components(mst, &mut uf, &mut removed);
        }

        let labels: Vec<usize> = (0..n).map(|p| uf.find(p)).collect();
        Clustering::from_labels(&labels)
    }

    /// Repeatedly re-adds the cheapest removed edge that touches an
    /// undersized component until every component reaches the minimum
    /// size (or no removed edges remain).
    fn absorb_small_components(&self, mst: &Mst, uf: &mut UnionFind, removed: &mut [bool]) {
        loop {
            // Component sizes.
            let n = mst.len();
            let mut size = vec![0usize; n];
            for p in 0..n {
                size[uf.find(p)] += 1;
            }
            // Cheapest removed edge incident to an undersized component.
            let mut best: Option<(usize, f64)> = None;
            for (ei, e) in mst.edges().iter().enumerate() {
                if !removed[ei] {
                    continue;
                }
                let (ra, rb) = (uf.find(e.a), uf.find(e.b));
                if ra == rb {
                    continue;
                }
                let undersized = size[ra] < self.config.min_cluster_size
                    || size[rb] < self.config.min_cluster_size;
                if undersized && best.is_none_or(|(_, w)| e.weight < w) {
                    best = Some((ei, e.weight));
                }
            }
            match best {
                Some((ei, _)) => {
                    removed[ei] = false;
                    let e = mst.edges()[ei];
                    uf.union(e.a, e.b);
                }
                None => break,
            }
        }
    }

    fn is_inconsistent(&self, mst: &Mst, edge_index: usize) -> bool {
        let e = mst.edges()[edge_index];
        let side_a = self.nearby_weights(mst, e.a, edge_index);
        let side_b = self.nearby_weights(mst, e.b, edge_index);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        match self.config.rule {
            InconsistencyRule::CombinedMean => {
                let total = side_a.len() + side_b.len();
                if total == 0 {
                    return false; // nothing to compare against
                }
                let b = (side_a.iter().sum::<f64>() + side_b.iter().sum::<f64>()) / total as f64;
                b > 0.0 && e.weight / b > self.config.ratio
            }
            InconsistencyRule::BothSides => {
                if side_a.is_empty() && side_b.is_empty() {
                    return false;
                }
                let pass_a = side_a.is_empty() || {
                    let m = mean(&side_a);
                    m > 0.0 && e.weight / m > self.config.ratio
                };
                let pass_b = side_b.is_empty() || {
                    let m = mean(&side_b);
                    m > 0.0 && e.weight / m > self.config.ratio
                };
                pass_a && pass_b
            }
        }
    }

    /// Weights of MST edges within `depth` hops of `start`, walking
    /// away from (never across) `excluded_edge`.
    fn nearby_weights(&self, mst: &Mst, start: usize, excluded_edge: usize) -> Vec<f64> {
        let mut weights = Vec::new();
        let mut visited_edges = vec![false; mst.edges().len()];
        visited_edges[excluded_edge] = true;
        let mut frontier = vec![start];
        for _ in 0..self.config.depth {
            let mut next = Vec::new();
            for &node in &frontier {
                for &ei in mst.incident_edges(node) {
                    if visited_edges[ei] {
                        continue;
                    }
                    visited_edges[ei] = true;
                    let e = mst.edges()[ei];
                    weights.push(e.weight);
                    next.push(if e.a == node { e.b } else { e.a });
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::mst_complete;

    fn line_mst(xs: &[f64]) -> Mst {
        mst_complete(xs.len(), |a, b| (xs[a] - xs[b]).abs())
    }

    #[test]
    fn uniform_points_form_one_cluster() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let clustering = ZahnClusterer::default().cluster(&line_mst(&xs));
        assert_eq!(clustering.len(), 1);
    }

    #[test]
    fn well_separated_groups_are_split() {
        let mut xs = Vec::new();
        for g in 0..4 {
            for i in 0..5 {
                xs.push(g as f64 * 1000.0 + i as f64);
            }
        }
        let clustering = ZahnClusterer::default().cluster(&line_mst(&xs));
        assert_eq!(clustering.len(), 4);
        for g in 0..4 {
            let c = clustering.cluster_of(g * 5);
            for i in 1..5 {
                assert_eq!(clustering.cluster_of(g * 5 + i), c);
            }
        }
    }

    #[test]
    fn ratio_controls_sensitivity() {
        // Mild gap: 3x the local spacing.
        let xs: &[f64] = &[0.0, 1.0, 2.0, 3.0, 6.5, 7.5, 8.5, 9.5];
        let mst = line_mst(xs);
        let loose = ZahnClusterer::new(ZahnConfig {
            ratio: 5.0,
            ..ZahnConfig::default()
        })
        .cluster(&mst);
        let tight = ZahnClusterer::new(ZahnConfig {
            ratio: 2.0,
            ..ZahnConfig::default()
        })
        .cluster(&mst);
        assert_eq!(loose.len(), 1, "k=5 should tolerate the gap");
        assert_eq!(tight.len(), 2, "k=2 should cut the gap");
    }

    #[test]
    fn both_sides_rule_cuts_no_more_than_combined() {
        let xs: &[f64] = &[0.0, 1.0, 2.0, 10.0, 11.0, 30.0, 31.0, 32.0];
        let mst = line_mst(xs);
        let combined = ZahnClusterer::new(ZahnConfig {
            rule: InconsistencyRule::CombinedMean,
            ..ZahnConfig::default()
        })
        .inconsistent_edges(&mst);
        let both = ZahnClusterer::new(ZahnConfig {
            rule: InconsistencyRule::BothSides,
            ..ZahnConfig::default()
        })
        .inconsistent_edges(&mst);
        for ei in &both {
            assert!(
                combined.contains(ei),
                "BothSides cut an edge CombinedMean kept"
            );
        }
    }

    #[test]
    fn absorption_removes_tiny_clusters() {
        // A lone outlier between two groups.
        let xs: &[f64] = &[0.0, 1.0, 2.0, 50.0, 100.0, 101.0, 102.0];
        let mst = line_mst(xs);
        let raw = ZahnClusterer::new(ZahnConfig {
            ratio: 2.0,
            ..ZahnConfig::default()
        })
        .cluster(&mst);
        assert!(
            raw.sizes().contains(&1),
            "outlier should be a singleton: {:?}",
            raw.sizes()
        );
        let absorbed = ZahnClusterer::new(ZahnConfig {
            ratio: 2.0,
            min_cluster_size: 2,
            ..ZahnConfig::default()
        })
        .cluster(&mst);
        assert!(
            absorbed.sizes().iter().all(|&s| s >= 2),
            "sizes after absorption: {:?}",
            absorbed.sizes()
        );
    }

    #[test]
    fn two_points_never_split() {
        // A single edge has no nearby edges, so it can never be judged
        // inconsistent.
        let xs: &[f64] = &[0.0, 1_000_000.0];
        let clustering = ZahnClusterer::default().cluster(&line_mst(xs));
        assert_eq!(clustering.len(), 1);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let clustering = ZahnClusterer::default().cluster(&line_mst(&[]));
        assert!(clustering.is_empty());
    }

    #[test]
    fn depth_widens_the_neighborhood() {
        // Geometric spacing: every edge is 2x its left neighbor. With
        // depth 1 and k=2 the ratio test sees only the adjacent edges.
        let mut xs = vec![0.0];
        let mut step = 1.0;
        for _ in 0..10 {
            let last = *xs.last().expect("non-empty");
            xs.push(last + step);
            step *= 2.0;
        }
        let mst = line_mst(&xs);
        let shallow = ZahnClusterer::new(ZahnConfig {
            depth: 1,
            ..ZahnConfig::default()
        })
        .inconsistent_edges(&mst);
        let deep = ZahnClusterer::new(ZahnConfig {
            depth: 4,
            ..ZahnConfig::default()
        })
        .inconsistent_edges(&mst);
        // Deeper neighborhoods include smaller far-away edges, lowering
        // the mean and flagging more edges.
        assert!(deep.len() >= shallow.len());
    }

    #[test]
    fn clusters_in_2d() {
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (100.0, 0.0), (50.0, 90.0)] {
            for i in 0..6 {
                pts.push((cx + (i % 3) as f64, cy + (i / 3) as f64));
            }
        }
        let dist = |a: usize, b: usize| {
            ((pts[a].0 - pts[b].0).powi(2) + (pts[a].1 - pts[b].1).powi(2)).sqrt()
        };
        let mst = mst_complete(pts.len(), dist);
        let clustering = ZahnClusterer::default().cluster(&mst);
        assert_eq!(clustering.len(), 3);
        assert_eq!(clustering.sizes(), vec![6, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_panics() {
        let _ = ZahnClusterer::new(ZahnConfig {
            ratio: 0.0,
            ..ZahnConfig::default()
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::mst::mst_complete;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Clustering is always a partition of the input points.
        #[test]
        fn clustering_partitions_points(
            points in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..60)
        ) {
            let dist = |a: usize, b: usize| {
                ((points[a].0 - points[b].0).powi(2) + (points[a].1 - points[b].1).powi(2)).sqrt()
            };
            let mst = mst_complete(points.len(), dist);
            let clustering = ZahnClusterer::default().cluster(&mst);
            prop_assert_eq!(clustering.point_count(), points.len());
            let total: usize = clustering.sizes().iter().sum();
            prop_assert_eq!(total, points.len());
            for (id, members) in clustering.iter() {
                for &m in members {
                    prop_assert_eq!(clustering.cluster_of(m), id);
                }
            }
        }

        /// Raising the ratio can only merge clusters, never split them
        /// further (monotonicity of the cut set).
        #[test]
        fn higher_ratio_means_fewer_clusters(
            points in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..40)
        ) {
            let dist = |a: usize, b: usize| {
                ((points[a].0 - points[b].0).powi(2) + (points[a].1 - points[b].1).powi(2)).sqrt()
            };
            let mst = mst_complete(points.len(), dist);
            let low = ZahnClusterer::new(ZahnConfig { ratio: 1.5, ..ZahnConfig::default() })
                .cluster(&mst);
            let high = ZahnClusterer::new(ZahnConfig { ratio: 3.0, ..ZahnConfig::default() })
                .cluster(&mst);
            prop_assert!(high.len() <= low.len());
        }
    }
}
