//! Per-cluster dissemination trees for the state protocol.
//!
//! Section 4's flooding sends every local-state message to every
//! cluster peer — quadratic in cluster size. Scalable overlay
//! multicast builds *trees* over the locality-aware structure instead
//! (PAPERS.md: "A Locating-First Approach for Scalable Overlay
//! Multicast"), rooted at the well-connected representatives the way
//! CliqueStream roots streaming trees at clique gateway nodes
//! (PAPERS.md: "CliqueStream"). Here the natural roots are the border
//! proxies: they already carry the cluster's aggregate in and out.
//!
//! [`DissemForest::build`] derives one [`ClusterTree`] per cluster
//! from an [`HfcTopology`] and a [`DelayModel`], deterministically:
//!
//! * the **root** is the member with the most border duties (ties go
//!   to the lowest id; a borderless single-cluster overlay roots at
//!   the lowest id);
//! * remaining members attach in order of delay from the root
//!   (ties by id) to the already-placed node closest to them that
//!   still has a free child slot — a greedy degree-bounded tree, so
//!   no proxy relays to more than `max_fanout` children and nearby
//!   proxies end up shallow.
//!
//! The forest carries the membership **epoch** it was built at;
//! [`DissemForest::rebuilt`] re-derives every tree under `epoch + 1`
//! after a join/leave changed the clustering.

use crate::delays::DelayModel;
use crate::hfc::{ClusterId, HfcTopology};
use crate::proxy::ProxyId;
use std::collections::BTreeMap;

/// Default bound on how many children a tree node relays to.
pub const DEFAULT_TREE_FANOUT: usize = 4;

/// The broadcast tree of one cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTree {
    cluster: ClusterId,
    root: ProxyId,
    parent: BTreeMap<ProxyId, ProxyId>,
    children: BTreeMap<ProxyId, Vec<ProxyId>>,
    depth_of: BTreeMap<ProxyId, usize>,
    depth: usize,
}

impl ClusterTree {
    fn build<D: DelayModel>(
        hfc: &HfcTopology,
        delays: &D,
        cluster: ClusterId,
        duties: &[usize],
        max_fanout: usize,
    ) -> Self {
        let members = hfc.members(cluster);
        // Most border duties wins; members are ascending, so strict
        // comparison keeps the lowest id on ties.
        let root = members
            .iter()
            .copied()
            .max_by_key(|p| (duties[p.index()], std::cmp::Reverse(p.index())))
            .expect("a cluster always has at least one member");

        let mut order: Vec<ProxyId> = members.iter().copied().filter(|&p| p != root).collect();
        order.sort_by(|&a, &b| {
            delays
                .delay(root, a)
                .total_cmp(&delays.delay(root, b))
                .then(a.index().cmp(&b.index()))
        });

        let mut parent = BTreeMap::new();
        let mut children: BTreeMap<ProxyId, Vec<ProxyId>> = BTreeMap::new();
        let mut depth_of = BTreeMap::new();
        depth_of.insert(root, 0usize);
        // Placement order doubles as the tie-break: scanning placed
        // nodes in insertion order with a strict improvement keeps the
        // construction deterministic.
        let mut placed = vec![root];
        for &p in &order {
            let mut best: Option<(ProxyId, f64)> = None;
            for &q in &placed {
                if children.get(&q).map_or(0, Vec::len) >= max_fanout {
                    continue;
                }
                let d = delays.delay(q, p);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((q, d));
                }
            }
            let (q, _) = best.expect("fanout >= 1 always leaves a free slot");
            parent.insert(p, q);
            children.entry(q).or_default().push(p);
            depth_of.insert(p, depth_of[&q] + 1);
            placed.push(p);
        }
        let depth = depth_of.values().copied().max().unwrap_or(0);
        ClusterTree {
            cluster,
            root,
            parent,
            children,
            depth_of,
            depth,
        }
    }

    /// The cluster this tree spans.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The tree's root — the member with the most border duties.
    pub fn root(&self) -> ProxyId {
        self.root
    }

    /// The parent of `proxy`, `None` for the root.
    pub fn parent_of(&self, proxy: ProxyId) -> Option<ProxyId> {
        self.parent.get(&proxy).copied()
    }

    /// The children `proxy` relays to (empty for leaves).
    pub fn children_of(&self, proxy: ProxyId) -> &[ProxyId] {
        self.children.get(&proxy).map_or(&[], Vec::as_slice)
    }

    /// The deepest member's distance from the root.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of members spanned (including the root).
    pub fn len(&self) -> usize {
        self.depth_of.len()
    }

    /// `true` for a degenerate empty tree (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.depth_of.is_empty()
    }
}

/// One dissemination tree per cluster, stamped with the membership
/// epoch it was derived from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DissemForest {
    trees: Vec<ClusterTree>,
    cluster_of: Vec<ClusterId>,
    max_fanout: usize,
    epoch: u64,
}

impl DissemForest {
    /// Derives the forest for `hfc` under membership epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `max_fanout` is zero.
    pub fn build<D: DelayModel>(hfc: &HfcTopology, delays: &D, max_fanout: usize) -> Self {
        Self::build_at_epoch(hfc, delays, max_fanout, 0)
    }

    /// Derives the forest for `hfc`, stamped with `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_fanout` is zero.
    fn build_at_epoch<D: DelayModel>(
        hfc: &HfcTopology,
        delays: &D,
        max_fanout: usize,
        epoch: u64,
    ) -> Self {
        assert!(max_fanout >= 1, "tree fanout must be at least 1");
        let duties = hfc.border_duty_counts();
        let trees: Vec<ClusterTree> = hfc
            .clusters()
            .map(|c| ClusterTree::build(hfc, delays, c, &duties, max_fanout))
            .collect();
        let cluster_of = (0..hfc.proxy_count())
            .map(|p| hfc.cluster_of(ProxyId::new(p)))
            .collect();
        DissemForest {
            trees,
            cluster_of,
            max_fanout,
            epoch,
        }
    }

    /// Re-derives every tree from the (possibly changed) topology
    /// under the next epoch. Same topology in, same trees out — only
    /// the stamp moves.
    pub fn rebuilt<D: DelayModel>(&self, hfc: &HfcTopology, delays: &D) -> Self {
        Self::build_at_epoch(hfc, delays, self.max_fanout, self.epoch + 1)
    }

    /// The membership epoch this forest was derived at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tree of `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn tree(&self, cluster: ClusterId) -> &ClusterTree {
        &self.trees[cluster.index()]
    }

    /// The tree containing `proxy`.
    ///
    /// # Panics
    ///
    /// Panics if `proxy` is out of range.
    fn tree_of(&self, proxy: ProxyId) -> &ClusterTree {
        self.tree(self.cluster_of[proxy.index()])
    }

    /// `proxy`'s tree parent, `None` for cluster roots.
    pub fn parent_of(&self, proxy: ProxyId) -> Option<ProxyId> {
        self.tree_of(proxy).parent_of(proxy)
    }

    /// The children `proxy` relays to.
    pub fn children_of(&self, proxy: ProxyId) -> &[ProxyId] {
        self.tree_of(proxy).children_of(proxy)
    }

    /// The root of `cluster`'s tree.
    pub fn root_of(&self, cluster: ClusterId) -> ProxyId {
        self.tree(cluster).root()
    }

    /// How many proxies the forest covers — the proxy count of the
    /// topology it was derived from. A smaller count than the current
    /// membership is the cheap tell of a stale forest.
    pub fn proxy_count(&self) -> usize {
        self.cluster_of.len()
    }

    /// The deepest tree in the forest.
    pub fn max_depth(&self) -> usize {
        self.trees.iter().map(ClusterTree::depth).max().unwrap_or(0)
    }

    /// Iterates over every cluster's tree.
    pub fn trees(&self) -> impl Iterator<Item = &ClusterTree> {
        self.trees.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delays::DelayMatrix;
    use son_clustering::Clustering;

    /// `clusters` groups of `size` proxies on a line; close within a
    /// cluster, far between clusters.
    fn world(clusters: usize, size: usize) -> (HfcTopology, DelayMatrix) {
        let n = clusters * size;
        let pos: Vec<f64> = (0..n)
            .map(|i| (i / size) as f64 * 500.0 + (i % size) as f64 * 3.0)
            .collect();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (pos[i] - pos[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let labels: Vec<usize> = (0..n).map(|i| i / size).collect();
        (
            HfcTopology::build(&Clustering::from_labels(&labels), &delays),
            delays,
        )
    }

    #[test]
    fn every_member_lands_in_exactly_one_tree() {
        let (hfc, delays) = world(3, 7);
        let forest = DissemForest::build(&hfc, &delays, 2);
        let mut seen = vec![false; hfc.proxy_count()];
        for tree in forest.trees() {
            assert_eq!(tree.len(), hfc.members(tree.cluster()).len());
            for &m in hfc.members(tree.cluster()) {
                assert!(!seen[m.index()]);
                seen[m.index()] = true;
                match tree.parent_of(m) {
                    None => assert_eq!(m, tree.root()),
                    Some(parent) => {
                        assert!(tree.children_of(parent).contains(&m));
                        assert_eq!(tree.depth_of[&m], tree.depth_of[&parent] + 1);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fanout_bound_holds_and_depth_grows_past_a_star() {
        let (hfc, delays) = world(2, 9);
        let forest = DissemForest::build(&hfc, &delays, 2);
        for tree in forest.trees() {
            for &m in hfc.members(tree.cluster()) {
                assert!(tree.children_of(m).len() <= 2);
            }
            // 9 members at fanout 2 cannot fit in depth 1 (1 + 2 = 3).
            assert!(tree.depth() >= 2);
        }
        assert!(forest.max_depth() >= 2);
    }

    #[test]
    fn root_is_the_busiest_border_proxy() {
        let (hfc, delays) = world(3, 5);
        let forest = DissemForest::build(&hfc, &delays, DEFAULT_TREE_FANOUT);
        let duties = hfc.border_duty_counts();
        for tree in forest.trees() {
            let root = tree.root();
            assert!(hfc.is_border(root), "root {root} must carry border duties");
            for &m in hfc.members(tree.cluster()) {
                assert!(duties[root.index()] >= duties[m.index()]);
            }
        }
    }

    #[test]
    fn single_cluster_roots_at_lowest_id() {
        let (hfc, delays) = world(1, 6);
        let forest = DissemForest::build(&hfc, &delays, DEFAULT_TREE_FANOUT);
        assert_eq!(forest.root_of(ClusterId::new(0)), ProxyId::new(0));
    }

    #[test]
    fn construction_is_deterministic_and_rebuild_bumps_the_epoch() {
        let (hfc, delays) = world(4, 6);
        let a = DissemForest::build(&hfc, &delays, 3);
        let b = DissemForest::build(&hfc, &delays, 3);
        assert_eq!(a, b);
        assert_eq!(a.epoch(), 0);
        let c = a.rebuilt(&hfc, &delays);
        assert_eq!(c.epoch(), 1);
        // Only the stamp moved: the trees themselves are identical.
        assert!(a.trees().zip(c.trees()).all(|(x, y)| x == y));
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn zero_fanout_panics() {
        let (hfc, delays) = world(2, 3);
        let _ = DissemForest::build(&hfc, &delays, 0);
    }
}
