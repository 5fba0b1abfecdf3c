//! A third hierarchy level — superclusters of clusters.
//!
//! The paper's HFC topology is bi-level ("in a bi-level HFC hierarchy,
//! two nodes are at most two nodes away") and its scalability argument
//! is the state reduction of Figure 9. This module keeps the original
//! three-level *vocabulary* ([`MultiLevelHfc`], [`SuperClusterId`]) as
//! a thin view over the recursive [`Hierarchy`](son_overlay::Hierarchy)
//! of `son-overlay`, pinned at depth 3: level-1 clusters are clustered
//! again (same Zahn method over cluster-representative distances), and
//! a proxy then keeps
//!
//! * coordinates: its own cluster's members, the border proxies of the
//!   clusters **within its own supercluster**, and the border proxies
//!   **between superclusters** — instead of every border in the system;
//! * capabilities: its own cluster's table, one aggregate per sibling
//!   cluster in its supercluster, and one super-aggregate per other
//!   supercluster.
//!
//! Earlier revisions computed the supercluster grouping with a
//! single-linkage closest-pair scan — `O(|A|·|B|)` delay queries per
//! cluster pair, quadratic in members and hopeless at 10k proxies. The
//! recursive hierarchy replaces that with per-cluster representatives
//! (approximate medoids) and elects borders by descending to the
//! closest representative pair, so the wrapper inherits the scalable
//! construction for free.
//!
//! Routing over three (and more) levels lives in
//! [`son_routing::MultiLevelRouter`]; the serving-engine provider is
//! [`son_engine::MultiLevelProvider`], fed by an
//! [`EngineSnapshot`](son_engine::EngineSnapshot) carrying the
//! hierarchy.

use son_clustering::ZahnConfig;
use son_overlay::{ClusterId, DelayModel, HfcTopology, Hierarchy, HierarchyConfig, ProxyId};

/// Identifier of a supercluster (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SuperClusterId(u32);

impl SuperClusterId {
    /// Creates a supercluster id from a raw index.
    pub fn new(index: usize) -> Self {
        SuperClusterId(index as u32)
    }

    /// Dense index of this supercluster.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A three-level hierarchy: proxies → clusters → superclusters.
///
/// A depth-3 view over the recursive [`Hierarchy`]; superclusters are
/// the hierarchy's level-2 groups.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLevelHfc {
    hierarchy: Hierarchy,
    super_members: Vec<Vec<ClusterId>>,
}

impl MultiLevelHfc {
    /// Groups the level-1 clusters of `hfc` into superclusters with the
    /// same Zahn method over cluster-representative distances, and
    /// elects closest-pair border proxies between superclusters.
    pub fn build<D: DelayModel>(hfc: &HfcTopology, delays: &D, zahn: &ZahnConfig) -> Self {
        let config = HierarchyConfig {
            zahn: zahn.clone(),
            ..HierarchyConfig::default()
        };
        Self::from_hierarchy(Hierarchy::build_with_depth(hfc, delays, &config, 3))
    }

    /// Wraps an already-built hierarchy (clamped views of deeper
    /// hierarchies work too: superclusters are its level-2 groups).
    ///
    /// # Panics
    ///
    /// Panics if `hierarchy` is only two levels deep.
    pub fn from_hierarchy(hierarchy: Hierarchy) -> Self {
        assert!(
            hierarchy.depth() >= 3,
            "a bi-level hierarchy has no superclusters"
        );
        let super_members: Vec<Vec<ClusterId>> = (0..hierarchy.unit_count(2))
            .map(|s| {
                hierarchy
                    .members(2, s)
                    .iter()
                    .map(|&c| ClusterId::new(c))
                    .collect()
            })
            .collect();
        MultiLevelHfc {
            hierarchy,
            super_members,
        }
    }

    /// The underlying recursive hierarchy (depth ≥ 3).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of superclusters.
    pub fn supercluster_count(&self) -> usize {
        self.super_members.len()
    }

    /// The supercluster containing `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn super_of(&self, cluster: ClusterId) -> SuperClusterId {
        SuperClusterId::new(self.hierarchy.group_of(1, cluster.index()))
    }

    /// The clusters of `supercluster`.
    ///
    /// # Panics
    ///
    /// Panics if `supercluster` is out of range.
    pub fn members(&self, supercluster: SuperClusterId) -> &[ClusterId] {
        &self.super_members[supercluster.index()]
    }

    /// Distinct border proxies between superclusters.
    pub fn all_super_border_proxies(&self) -> Vec<ProxyId> {
        let k = self.supercluster_count();
        let mut out = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                let pair = self.hierarchy.border(2, i, j);
                out.push(pair.local);
                out.push(pair.remote);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Coordinates-related node-states of `proxy` under three levels:
    /// own cluster members + borders of the clusters within the own
    /// supercluster + supercluster borders system-wide.
    pub fn coordinate_overhead_of(&self, hfc: &HfcTopology, proxy: ProxyId) -> usize {
        self.hierarchy.coordinate_overhead_of(hfc, proxy)
    }

    /// Service-capability node-states of `proxy` under three levels:
    /// own cluster members + one aggregate per sibling cluster + one
    /// super-aggregate per other supercluster.
    pub fn service_overhead_of(&self, hfc: &HfcTopology, proxy: ProxyId) -> usize {
        self.hierarchy.service_overhead_of(hfc, proxy)
    }

    /// Mean per-proxy overheads `(coordinates, services)` across the
    /// overlay.
    pub fn mean_overheads(&self, hfc: &HfcTopology) -> (f64, f64) {
        self.hierarchy.mean_overheads(hfc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::DelayMatrix;

    /// 4 groups of groups: superclusters at x = 0 and x = 100_000, each
    /// containing two clusters 1_000 apart, each cluster 3 proxies.
    fn nested_world() -> (HfcTopology, DelayMatrix) {
        let mut pos = Vec::new();
        let mut labels = Vec::new();
        let mut label = 0;
        for super_x in [0.0, 100_000.0] {
            for cluster_dx in [0.0, 1_000.0] {
                for i in 0..3 {
                    pos.push(super_x + cluster_dx + i as f64);
                    labels.push(label);
                }
                label += 1;
            }
        }
        let n = pos.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (pos[i] - pos[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        (hfc, delays)
    }

    #[test]
    fn superclusters_follow_geometry() {
        let (hfc, delays) = nested_world();
        let ml = MultiLevelHfc::build(&hfc, &delays, &ZahnConfig::default());
        assert_eq!(ml.supercluster_count(), 2);
        // Clusters 0, 1 (around x=0) share a supercluster; 2, 3 share
        // the other.
        assert_eq!(
            ml.super_of(ClusterId::new(0)),
            ml.super_of(ClusterId::new(1))
        );
        assert_eq!(
            ml.super_of(ClusterId::new(2)),
            ml.super_of(ClusterId::new(3))
        );
        assert_ne!(
            ml.super_of(ClusterId::new(0)),
            ml.super_of(ClusterId::new(2))
        );
        // Membership lists agree with the membership map.
        for s in 0..ml.supercluster_count() {
            let s = SuperClusterId::new(s);
            for &c in ml.members(s) {
                assert_eq!(ml.super_of(c), s);
            }
        }
    }

    #[test]
    fn super_borders_are_symmetric_and_cross() {
        let (hfc, delays) = nested_world();
        let ml = MultiLevelHfc::build(&hfc, &delays, &ZahnConfig::default());
        let borders = ml.all_super_border_proxies();
        assert_eq!(borders.len(), 2, "one pair between two superclusters");
        let sides: Vec<SuperClusterId> = borders
            .iter()
            .map(|&p| ml.super_of(hfc.cluster_of(p)))
            .collect();
        assert_ne!(sides[0], sides[1]);
    }

    #[test]
    fn three_levels_reduce_coordinate_state() {
        let (hfc, delays) = nested_world();
        let ml = MultiLevelHfc::build(&hfc, &delays, &ZahnConfig::default());
        let (ml_coords, ml_services) = ml.mean_overheads(&hfc);
        let bi_coords = son_state::hfc_overhead(&hfc, son_state::OverheadKind::Coordinates).mean;
        let bi_services =
            son_state::hfc_overhead(&hfc, son_state::OverheadKind::ServiceCapability).mean;
        // In this tiny world the reduction is modest but must not be an
        // increase.
        assert!(
            ml_coords <= bi_coords,
            "3-level coords {ml_coords} > 2-level {bi_coords}"
        );
        assert!(
            ml_services <= bi_services,
            "3-level services {ml_services} > 2-level {bi_services}"
        );
    }

    #[test]
    fn overheads_count_the_right_pieces() {
        let (hfc, delays) = nested_world();
        let ml = MultiLevelHfc::build(&hfc, &delays, &ZahnConfig::default());
        // A proxy sees: 3 own members + its supercluster's internal
        // border pair (2) + 2 super-borders (one may coincide with an
        // internal border or own member, so allow dedup).
        let count = ml.coordinate_overhead_of(&hfc, ProxyId::new(0));
        assert!(count <= 3 + 2 + 2, "count {count}");
        assert!(count >= 3);
        // Services: 3 members + 2 clusters in own super + 1 other super.
        assert_eq!(ml.service_overhead_of(&hfc, ProxyId::new(0)), 6);
    }

    #[test]
    fn wrapper_agrees_with_the_hierarchy_it_wraps() {
        let (hfc, delays) = nested_world();
        let ml = MultiLevelHfc::build(&hfc, &delays, &ZahnConfig::default());
        let h = ml.hierarchy();
        assert_eq!(h.depth(), 3);
        assert_eq!(ml.supercluster_count(), h.unit_count(2));
        for c in 0..hfc.cluster_count() {
            assert_eq!(ml.super_of(ClusterId::new(c)).index(), h.group_of(1, c));
        }
    }

    #[test]
    #[should_panic(expected = "no superclusters")]
    fn bilevel_hierarchies_are_rejected() {
        let (hfc, delays) = nested_world();
        let h = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 2);
        let _ = MultiLevelHfc::from_hierarchy(h);
    }
}
