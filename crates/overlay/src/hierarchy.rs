//! The recursive cluster hierarchy: proxies → clusters →
//! superclusters → … with depth chosen from the population.
//!
//! [`HfcTopology`] is the paper's two-level world. At 10k+ proxies the
//! flat cluster graph itself grows large enough that per-node state
//! (all border coordinates, one aggregate SCT row per cluster) becomes
//! the bottleneck, so the construction recurses: base clusters are
//! clustered again by Zahn's method over *representative* distances,
//! and again, until at most [`HierarchyConfig::max_top_groups`] groups
//! remain. Each upper level stores its own border-proxy pairs, elected
//! by descending to the closest pair of base clusters (by
//! representative distance) and then scanning those two clusters'
//! members exactly — the same closest-pair rule the HFC build uses,
//! without ever touching all `|A|·|B|` member pairs of two groups.
//!
//! Every step is deterministic: the MST over representatives is the
//! tie-break-preserving Prim, border election runs per group pair with
//! a fixed scan order, and representatives are picked by first-minimum
//! over strided samples.

use crate::delays::DelayModel;
use crate::hfc::{BorderPair, ClusterId, Election, HfcTopology};
use crate::proxy::ProxyId;
use son_clustering::{mst_complete, ZahnClusterer, ZahnConfig};

/// Construction knobs for a [`Hierarchy`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Stop adding levels once the top level has at most this many
    /// groups ([`Hierarchy::build`] only).
    pub max_top_groups: usize,
    /// Hard cap on total depth (counting the proxy and base-cluster
    /// levels); `0` = unbounded.
    pub max_depth: usize,
    /// Zahn settings for the upper-level clustering passes.
    pub zahn: ZahnConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            max_top_groups: 32,
            max_depth: 0,
            zahn: ZahnConfig::default(),
        }
    }
}

/// One upper level of the hierarchy: a grouping of the units of the
/// level below.
#[derive(Debug, Clone, PartialEq)]
struct HierLevel {
    /// For each unit of the level below, its group at this level.
    parent_of: Vec<usize>,
    /// For each group, the child units (level-below ids) it contains.
    members: Vec<Vec<usize>>,
    /// For each group, every base cluster (level-1 id) beneath it.
    base_clusters: Vec<Vec<usize>>,
    /// `borders[i][j]`: the proxy inside group `i` bordering group `j`.
    borders: Vec<Vec<Option<ProxyId>>>,
    /// Representative proxy per group.
    reps: Vec<ProxyId>,
}

/// A recursive grouping of an [`HfcTopology`]'s clusters.
///
/// Levels are numbered from the bottom: level 0 is the proxies, level
/// 1 the base clusters (owned by the `HfcTopology`, not duplicated
/// here), levels 2..=[`Hierarchy::top_level`] the recursive groups.
/// With no upper levels the hierarchy has depth 2 and all state
/// accounting degenerates to the flat HFC numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    proxy_count: usize,
    base_cluster_count: usize,
    /// Representative proxy per base cluster.
    cluster_reps: Vec<ProxyId>,
    /// `levels[0]` groups base clusters into level-2 groups, and so on.
    levels: Vec<HierLevel>,
}

impl Hierarchy {
    /// Builds the hierarchy bottom-up, adding levels until at most
    /// `config.max_top_groups` groups remain (or a pass stops reducing
    /// the count, or `config.max_depth` is hit).
    pub fn build<D: DelayModel>(hfc: &HfcTopology, delays: &D, config: &HierarchyConfig) -> Self {
        Self::build_impl(hfc, delays, config, None)
    }

    /// Builds a hierarchy of exactly `depth` total levels when the
    /// population allows it (a level that would group a single unit is
    /// never added, so the result may be shallower).
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2`.
    pub fn build_with_depth<D: DelayModel>(
        hfc: &HfcTopology,
        delays: &D,
        config: &HierarchyConfig,
        depth: usize,
    ) -> Self {
        assert!(depth >= 2, "depth counts the proxy and cluster levels");
        Self::build_impl(hfc, delays, config, Some(depth))
    }

    fn build_impl<D: DelayModel>(
        hfc: &HfcTopology,
        delays: &D,
        config: &HierarchyConfig,
        forced_depth: Option<usize>,
    ) -> Self {
        let cluster_reps = cluster_representatives(hfc, delays);
        let mut levels: Vec<HierLevel> = Vec::new();
        let mut unit_reps: Vec<ProxyId> = cluster_reps.clone();
        let mut unit_bases: Vec<Vec<usize>> = (0..hfc.cluster_count()).map(|c| vec![c]).collect();
        loop {
            let depth_now = 2 + levels.len();
            let n = unit_reps.len();
            match forced_depth {
                Some(d) => {
                    if depth_now >= d {
                        break;
                    }
                }
                None => {
                    if n <= config.max_top_groups
                        || (config.max_depth != 0 && depth_now >= config.max_depth)
                    {
                        break;
                    }
                }
            }
            if n <= 1 {
                break;
            }
            let mst = mst_complete(n, |a, b| delays.delay(unit_reps[a], unit_reps[b]));
            let clustering = ZahnClusterer::new(config.zahn.clone()).cluster(&mst);
            if clustering.len() == n && forced_depth.is_none() {
                break; // this pass reduced nothing; stop growing
            }
            let g = clustering.len();
            let parent_of: Vec<usize> = (0..n).map(|u| clustering.cluster_of(u)).collect();
            let members: Vec<Vec<usize>> = (0..g).map(|i| clustering.members(i).to_vec()).collect();
            let base_clusters: Vec<Vec<usize>> = members
                .iter()
                .map(|ms| {
                    let mut all: Vec<usize> = ms
                        .iter()
                        .flat_map(|&u| unit_bases[u].iter().copied())
                        .collect();
                    all.sort_unstable();
                    all
                })
                .collect();
            // Group representative: the child rep closest (in total) to
            // its sibling reps; first minimum wins ties.
            let reps: Vec<ProxyId> = members
                .iter()
                .map(|ms| {
                    let mut best: Option<(f64, ProxyId)> = None;
                    for &u in ms {
                        let total: f64 = ms
                            .iter()
                            .map(|&v| delays.delay(unit_reps[u], unit_reps[v]))
                            .sum();
                        if best.is_none_or(|(bt, _)| total < bt) {
                            best = Some((total, unit_reps[u]));
                        }
                    }
                    best.expect("groups are non-empty").1
                })
                .collect();
            let mut borders = vec![vec![None; g]; g];
            for i in 0..g {
                for j in (i + 1)..g {
                    let (pi, pj) = elect_border(
                        hfc,
                        delays,
                        &base_clusters[i],
                        &base_clusters[j],
                        &cluster_reps,
                    );
                    borders[i][j] = Some(pi);
                    borders[j][i] = Some(pj);
                }
            }
            unit_reps = reps.clone();
            unit_bases = base_clusters.clone();
            levels.push(HierLevel {
                parent_of,
                members,
                base_clusters,
                borders,
                reps,
            });
        }
        Hierarchy {
            proxy_count: hfc.proxy_count(),
            base_cluster_count: hfc.cluster_count(),
            cluster_reps,
            levels,
        }
    }

    /// Total number of levels, counting proxies (level 0) and base
    /// clusters (level 1). A plain HFC world has depth 2.
    pub fn depth(&self) -> usize {
        2 + self.levels.len()
    }

    /// The index of the topmost level (`depth() - 1`).
    pub fn top_level(&self) -> usize {
        self.depth() - 1
    }

    /// Number of units at `level` (proxies at 0, base clusters at 1,
    /// groups above).
    pub fn unit_count(&self, level: usize) -> usize {
        match level {
            0 => self.proxy_count,
            1 => self.base_cluster_count,
            l => self.levels[l - 2].members.len(),
        }
    }

    /// The group at `level + 1` containing unit `unit` of `level`
    /// (`level >= 1`).
    pub fn group_of(&self, level: usize, unit: usize) -> usize {
        assert!(level >= 1, "proxy membership lives in the HfcTopology");
        self.levels[level - 1].parent_of[unit]
    }

    /// The child units (ids at `level - 1`) of group `group` at
    /// `level` (`level >= 2`).
    pub fn members(&self, level: usize, group: usize) -> &[usize] {
        &self.levels[level - 2].members[group]
    }

    /// Every base cluster beneath unit `unit` of `level` (`level >= 2`;
    /// at level 1 the unit *is* the base cluster).
    pub fn clusters_under(&self, level: usize, unit: usize) -> &[usize] {
        &self.levels[level - 2].base_clusters[unit]
    }

    /// The representative proxy of unit `unit` at `level` (`level >= 1`).
    pub fn representative(&self, level: usize, unit: usize) -> ProxyId {
        if level == 1 {
            self.cluster_reps[unit]
        } else {
            self.levels[level - 2].reps[unit]
        }
    }

    /// The border pair connecting groups `from` and `to` at `level`
    /// (`level >= 2`), oriented like [`HfcTopology::border`].
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either id is out of range.
    pub fn border(&self, level: usize, from: usize, to: usize) -> BorderPair {
        assert_ne!(from, to, "no border within a single group");
        let lv = &self.levels[level - 2];
        BorderPair {
            local: lv.borders[from][to].expect("off-diagonal borders are always present"),
            remote: lv.borders[to][from].expect("off-diagonal borders are always present"),
        }
    }

    /// The ancestor unit at `level` containing base cluster `cluster`.
    pub fn ancestor_of_cluster(&self, level: usize, cluster: usize) -> usize {
        let mut u = cluster;
        for l in 1..level {
            u = self.group_of(l, u);
        }
        u
    }

    /// The ancestor unit at `level` containing `proxy` (`level >= 1`).
    pub fn ancestor_of_proxy(&self, hfc: &HfcTopology, level: usize, proxy: ProxyId) -> usize {
        self.ancestor_of_cluster(level, hfc.cluster_of(proxy).index())
    }

    /// How many proxies' coordinates `proxy` keeps under recursive
    /// aggregation: its own cluster's members, the border proxies
    /// between sibling units inside each of its ancestor groups, and
    /// the border proxies between all top-level groups (the recursive
    /// generalization of paper Figure 4).
    pub fn coordinate_overhead_of(&self, hfc: &HfcTopology, proxy: ProxyId) -> usize {
        let own = hfc.cluster_of(proxy);
        let mut seen: Vec<ProxyId> = hfc.members(own).to_vec();
        let top = self.top_level();
        for level in 1..top {
            let anc = self.ancestor_of_cluster(level + 1, own.index());
            let sibs = self.members(level + 1, anc);
            for (x, &i) in sibs.iter().enumerate() {
                for &j in &sibs[x + 1..] {
                    let pair = self.unit_border(hfc, level, i, j);
                    seen.push(pair.local);
                    seen.push(pair.remote);
                }
            }
        }
        let tc = self.unit_count(top);
        for i in 0..tc {
            for j in (i + 1)..tc {
                let pair = self.unit_border(hfc, top, i, j);
                seen.push(pair.local);
                seen.push(pair.remote);
            }
        }
        seen.sort();
        seen.dedup();
        seen.len()
    }

    /// How many service-table rows `proxy` keeps: one SCT_P row per
    /// cluster member, one aggregate row per sibling unit inside each
    /// ancestor group, and one per other top-level group.
    pub fn service_overhead_of(&self, hfc: &HfcTopology, proxy: ProxyId) -> usize {
        let own = hfc.cluster_of(proxy);
        let mut total = hfc.members(own).len();
        let top = self.top_level();
        for level in 1..top {
            let anc = self.ancestor_of_cluster(level + 1, own.index());
            total += self.members(level + 1, anc).len();
        }
        total + self.unit_count(top) - 1
    }

    /// Mean `(coordinate, service)` overhead across all proxies.
    pub fn mean_overheads(&self, hfc: &HfcTopology) -> (f64, f64) {
        let n = hfc.proxy_count();
        let mut coord = 0usize;
        let mut service = 0usize;
        for p in 0..n {
            let p = ProxyId::new(p);
            coord += self.coordinate_overhead_of(hfc, p);
            service += self.service_overhead_of(hfc, p);
        }
        (coord as f64 / n as f64, service as f64 / n as f64)
    }

    /// The border pair between units `i` and `j` of `level`, falling
    /// back to the HFC borders at the base-cluster level.
    pub fn unit_border(&self, hfc: &HfcTopology, level: usize, i: usize, j: usize) -> BorderPair {
        if level == 1 {
            hfc.border(ClusterId::new(i), ClusterId::new(j))
        } else {
            self.border(level, i, j)
        }
    }
}

/// A deterministic approximate medoid per cluster: among up to 64
/// strided candidate members, the one minimizing total delay to up to
/// 8 strided sample members (first minimum wins ties). `O(512)` delay
/// queries per cluster instead of `O(|C|²)`.
pub fn cluster_representatives<D: DelayModel>(hfc: &HfcTopology, delays: &D) -> Vec<ProxyId> {
    hfc.clusters()
        .map(|c| {
            let ms = hfc.members(c);
            if ms.len() <= 2 {
                return ms[0];
            }
            let sample = strided(ms, 8);
            let candidates = strided(ms, 64);
            let mut best: Option<(f64, ProxyId)> = None;
            for &p in &candidates {
                let total: f64 = sample.iter().map(|&q| delays.delay(p, q)).sum();
                if best.is_none_or(|(bt, _)| total < bt) {
                    best = Some((total, p));
                }
            }
            best.expect("clusters are non-empty").1
        })
        .collect()
}

fn strided(ms: &[ProxyId], k: usize) -> Vec<ProxyId> {
    let step = ms.len().div_ceil(k).max(1);
    ms.iter().copied().step_by(step).collect()
}

/// Elects the border pair between two groups given their base-cluster
/// lists: the closest base-cluster pair by representative distance is
/// found first, then that pair's members are scanned exactly.
fn elect_border<D: DelayModel>(
    hfc: &HfcTopology,
    delays: &D,
    bases_i: &[usize],
    bases_j: &[usize],
    cluster_reps: &[ProxyId],
) -> (ProxyId, ProxyId) {
    let mut best: Option<(usize, usize, f64)> = None;
    for &ca in bases_i {
        for &cb in bases_j {
            let d = delays.delay(cluster_reps[ca], cluster_reps[cb]);
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((ca, cb, d));
            }
        }
    }
    let (ca, cb, _) = best.expect("groups are non-empty");
    Election::new(delays).closest_pair_of(
        hfc.members(ClusterId::new(ca)),
        hfc.members(ClusterId::new(cb)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delays::CoordDelays;
    use son_clustering::Clustering;
    use son_coords::Coordinates;

    /// Two "regions" far apart, each with two clusters, three proxies
    /// per cluster — the shape where a third level should appear.
    fn nested_world() -> (HfcTopology, CoordDelays) {
        let mut labels = Vec::new();
        let mut coords = Vec::new();
        for region in 0..2 {
            for cluster in 0..2 {
                for p in 0..3 {
                    labels.push(region * 2 + cluster);
                    coords.push(Coordinates::new(vec![
                        region as f64 * 100_000.0 + cluster as f64 * 1_000.0 + p as f64,
                        0.0,
                    ]));
                }
            }
        }
        let delays = CoordDelays::new(coords);
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        (hfc, delays)
    }

    #[test]
    fn hierarchy_follows_geometry() {
        let (hfc, delays) = nested_world();
        let h = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 3);
        assert_eq!(h.depth(), 3);
        assert_eq!(h.top_level(), 2);
        assert_eq!(h.unit_count(2), 2);
        // Clusters 0,1 share a region; 2,3 the other.
        assert_eq!(h.group_of(1, 0), h.group_of(1, 1));
        assert_eq!(h.group_of(1, 2), h.group_of(1, 3));
        assert_ne!(h.group_of(1, 0), h.group_of(1, 2));
        for g in 0..2 {
            let mut under = h.clusters_under(2, g).to_vec();
            under.sort_unstable();
            assert_eq!(under, h.members(2, g).to_vec());
        }
    }

    #[test]
    fn top_borders_are_symmetric_and_cross_groups() {
        let (hfc, delays) = nested_world();
        let h = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 3);
        let pair = h.border(2, 0, 1);
        let back = h.border(2, 1, 0);
        assert_eq!(pair.local, back.remote);
        assert_eq!(pair.remote, back.local);
        assert_eq!(h.ancestor_of_proxy(&hfc, 2, pair.local), 0);
        assert_eq!(h.ancestor_of_proxy(&hfc, 2, pair.remote), 1);
        // The closest cross-region proxies are p5 (x≈2002) and p6
        // (x=100000).
        assert_eq!(pair.local, ProxyId::new(5));
        assert_eq!(pair.remote, ProxyId::new(6));
    }

    #[test]
    fn auto_build_stops_at_max_top_groups() {
        let (hfc, delays) = nested_world();
        // 4 base clusters already satisfy the default cap of 32.
        let h = Hierarchy::build(&hfc, &delays, &HierarchyConfig::default());
        assert_eq!(h.depth(), 2);
        // Force growth: cap at 2 groups.
        let tight = HierarchyConfig {
            max_top_groups: 2,
            ..HierarchyConfig::default()
        };
        let h = Hierarchy::build(&hfc, &delays, &tight);
        assert_eq!(h.depth(), 3);
        assert!(h.unit_count(h.top_level()) <= 2);
    }

    #[test]
    fn three_levels_reduce_state_overheads() {
        let (hfc, delays) = nested_world();
        let two = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 2);
        let three = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 3);
        let (c2, s2) = two.mean_overheads(&hfc);
        let (c3, s3) = three.mean_overheads(&hfc);
        assert!(c3 < c2, "coordinate state should shrink: {c3} vs {c2}");
        // On 4 clusters the service accounting is a wash (3+3 vs
        // 3+2+1); it must never grow.
        assert!(s3 <= s2, "service state should not grow: {s3} vs {s2}");
        // Depth-3 service overhead: 3 members + 2 sibling clusters +
        // 1 other top group = 6 (the legacy three-level number).
        assert_eq!(three.service_overhead_of(&hfc, ProxyId::new(0)), 6);
    }

    #[test]
    fn overheads_count_the_right_pieces() {
        let (hfc, delays) = nested_world();
        let h = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 3);
        // A proxy sees: 3 own members + its region's internal border
        // pair (2) + 2 region borders (one may coincide with an
        // internal border or own member, so allow dedup).
        let count = h.coordinate_overhead_of(&hfc, ProxyId::new(0));
        assert!(count <= 3 + 2 + 2, "count {count}");
        assert!(count >= 3);
        // Services: 3 members + 2 clusters in its region + 1 other
        // region.
        assert_eq!(h.service_overhead_of(&hfc, ProxyId::new(0)), 6);
    }

    #[test]
    fn coordinate_election_does_not_change_the_hierarchy() {
        use crate::delays::Opaque;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut labels = Vec::new();
        let mut coords = Vec::new();
        for c in 0..12 {
            let cx = (c % 4) as f64 * 50_000.0;
            let cy = (c / 4) as f64 * 50_000.0;
            for _ in 0..6 {
                labels.push(c);
                coords.push(Coordinates::new(vec![
                    cx + (rng.gen::<f64>() * 100.0).round(),
                    cy + (rng.gen::<f64>() * 100.0).round(),
                ]));
            }
        }
        let delays = CoordDelays::new(coords);
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        let config = HierarchyConfig {
            max_top_groups: 3,
            ..HierarchyConfig::default()
        };
        let pruned = Hierarchy::build(&hfc, &delays, &config);
        assert_eq!(pruned.depth(), 3);
        assert_eq!(Hierarchy::build(&hfc, &Opaque(&delays), &config), pruned);
    }

    #[test]
    fn depth_two_matches_flat_hfc_accounting() {
        let (hfc, delays) = nested_world();
        let h = Hierarchy::build_with_depth(&hfc, &delays, &HierarchyConfig::default(), 2);
        // Coordinate state: own cluster (3) plus all distinct border
        // proxies; service state: 3 SCT_P rows + 3 other aggregates.
        let p = ProxyId::new(0);
        let mut expect: Vec<ProxyId> = hfc.members(hfc.cluster_of(p)).to_vec();
        expect.extend(hfc.all_border_proxies());
        expect.sort();
        expect.dedup();
        assert_eq!(h.coordinate_overhead_of(&hfc, p), expect.len());
        assert_eq!(h.service_overhead_of(&hfc, p), 3 + 3);
    }
}
