//! The Hierarchically Fully-Connected (HFC) topology.
//!
//! Built from a distance-based clustering of the proxies (paper
//! Section 3): all proxies inside a cluster are considered fully
//! connected, and every pair of clusters is connected through one
//! *border pair* — the two closest proxies belonging to the two
//! clusters. Each cluster is visible from outside through its border
//! proxies, giving routing better precision than single-logical-node
//! aggregation.

use crate::delays::DelayModel;
use crate::proxy::ProxyId;
use son_clustering::Clustering;
use son_coords::Coordinates;
use std::cmp::Ordering;
use std::fmt;

/// Identifier of a cluster (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId(u32);

impl ClusterId {
    /// Creates a cluster id from a raw index.
    pub fn new(index: usize) -> Self {
        ClusterId(index as u32)
    }

    /// Dense index of this cluster.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// The border proxies connecting two clusters, oriented from the
/// perspective of the first cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BorderPair {
    /// The border proxy inside the first cluster.
    pub local: ProxyId,
    /// The border proxy inside the second cluster.
    pub remote: ProxyId,
}

/// The HFC topology: cluster membership plus the border-pair map.
///
/// # Example
///
/// ```
/// use son_clustering::Clustering;
/// use son_overlay::{DelayMatrix, HfcTopology, ClusterId, ProxyId};
///
/// // Four proxies in two clusters; 0↔2 is the closest cross pair.
/// let clustering = Clustering::from_labels(&[0, 0, 1, 1]);
/// let delays = DelayMatrix::from_values(4, vec![
///     0.0, 1.0, 4.0, 9.0,
///     1.0, 0.0, 6.0, 9.0,
///     4.0, 6.0, 0.0, 1.0,
///     9.0, 9.0, 1.0, 0.0,
/// ]);
/// let hfc = HfcTopology::build(&clustering, &delays);
/// let pair = hfc.border(ClusterId::new(0), ClusterId::new(1));
/// assert_eq!(pair.local, ProxyId::new(0));
/// assert_eq!(pair.remote, ProxyId::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct HfcTopology {
    cluster_of: Vec<ClusterId>,
    members: Vec<Vec<ProxyId>>,
    /// `borders[i][j]`: the proxy inside cluster `i` that borders
    /// cluster `j` (`None` on the diagonal).
    borders: Vec<Vec<Option<ProxyId>>>,
    /// `duty[p]`: how many slots of `borders` hold proxy `p`, kept in
    /// step with every write to `borders`.
    duty: Vec<u32>,
    work: ElectionWork,
}

/// How the border pair between two clusters is chosen.
///
/// The paper's rule (Section 3.3) is [`BorderSelection::ClosestPair`];
/// [`BorderSelection::FirstPair`] is an ablation baseline that ignores
/// distance entirely, quantifying how much the closest-pair rule buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BorderSelection {
    /// The two closest proxies of the two clusters (paper rule).
    #[default]
    ClosestPair,
    /// The lowest-indexed proxy of each cluster, regardless of
    /// distance (ablation).
    FirstPair,
}

impl HfcTopology {
    /// Builds the topology from a clustering, selecting as border pair
    /// of every two clusters their closest proxies under `delays`
    /// (the paper's border-selection rule, Section 3.3).
    ///
    /// Ties are broken toward the lowest proxy indices, so
    /// construction is deterministic. When `delays` is a coordinate
    /// space ([`DelayModel::points`]) each pair is elected from the few
    /// members that per-cluster bounding boxes cannot rule out — the
    /// same pair the exhaustive scan of any other metric finds.
    pub fn build<D: DelayModel>(clustering: &Clustering, delays: &D) -> Self {
        Self::build_with_selection(clustering, delays, BorderSelection::ClosestPair)
    }

    /// Like [`HfcTopology::build`], but with an explicit border
    /// selection rule (see [`BorderSelection`]).
    pub fn build_with_selection<D: DelayModel>(
        clustering: &Clustering,
        delays: &D,
        selection: BorderSelection,
    ) -> Self {
        let c = clustering.len();
        let cluster_of: Vec<ClusterId> = (0..clustering.point_count())
            .map(|p| ClusterId::new(clustering.cluster_of(p)))
            .collect();
        let members: Vec<Vec<ProxyId>> = (0..c)
            .map(|i| {
                clustering
                    .members(i)
                    .iter()
                    .map(|&p| ProxyId::new(p))
                    .collect()
            })
            .collect();
        let mut election = Election::new(delays);
        let boxes: Vec<Option<BoundingBox>> =
            members.iter().map(|m| election.bounding_box(m)).collect();
        let mut borders = vec![vec![None; c]; c];
        for i in 0..c {
            for j in (i + 1)..c {
                let (bx, by) = match selection {
                    BorderSelection::ClosestPair => election.closest_pair(
                        (&members[i], boxes[i].as_ref()),
                        (&members[j], boxes[j].as_ref()),
                    ),
                    BorderSelection::FirstPair => (members[i][0], members[j][0]),
                };
                borders[i][j] = Some(bx);
                borders[j][i] = Some(by);
            }
        }
        let mut duty = vec![0; cluster_of.len()];
        for b in borders.iter().flatten().flatten() {
            duty[b.index()] += 1;
        }
        HfcTopology {
            cluster_of,
            members,
            borders,
            duty,
            work: election.work,
        }
    }

    /// Inserts a new proxy (taking id [`HfcTopology::proxy_count`])
    /// into `cluster`, re-electing only the border pairs that involve
    /// that cluster — O(n) work instead of the O(n²) full rebuild.
    ///
    /// An existing border pair is displaced only when the newcomer
    /// forms a *strictly* closer pair, matching the tie-breaking of
    /// [`HfcTopology::build`] (under distinct pair distances the
    /// incremental result is identical to a from-scratch build).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn insert_proxy<D: DelayModel>(&mut self, cluster: ClusterId, delays: &D) -> ProxyId {
        let c = cluster.index();
        assert!(c < self.members.len(), "unknown cluster {cluster}");
        let p = ProxyId::new(self.cluster_of.len());
        self.cluster_of.push(cluster);
        self.duty.push(0);
        // p is the largest id, so pushing keeps the list ascending.
        self.members[c].push(p);
        for j in 0..self.members.len() {
            if j == c {
                continue;
            }
            let current = BorderPair {
                local: self.borders[c][j].expect("off-diagonal borders are always present"),
                remote: self.borders[j][c].expect("off-diagonal borders are always present"),
            };
            self.work.pair_evaluations += 1 + self.members[j].len() as u64;
            let mut best = delays.delay(current.local, current.remote);
            let mut winner: Option<ProxyId> = None;
            for &y in &self.members[j] {
                let d = delays.delay(p, y);
                if d < best {
                    best = d;
                    winner = Some(y);
                }
            }
            if let Some(y) = winner {
                self.set_border(c, j, p);
                self.set_border(j, c, y);
            }
        }
        p
    }

    /// Removes `proxy` by swap-remove: the highest-id proxy takes over
    /// the vacated id. Border pairs are re-elected only where the
    /// departed proxy served as a border; if its cluster empties, the
    /// cluster is removed (the highest cluster id takes its slot).
    /// Returns the proxy id that moved into the vacated slot, if any.
    ///
    /// `delays` must already reflect the post-removal id assignment
    /// (i.e. the old last proxy's delays answered at `proxy`'s id).
    ///
    /// # Panics
    ///
    /// Panics if `proxy` is out of range or is the last proxy overall.
    pub fn remove_proxy<D: DelayModel>(&mut self, proxy: ProxyId, delays: &D) -> Option<ProxyId> {
        let n = self.cluster_of.len();
        assert!(n > 1, "the last proxy cannot be removed");
        let i = proxy.index();
        assert!(i < n, "unknown proxy {proxy}");
        let last = ProxyId::new(n - 1);
        let cp = self.cluster_of[i];
        let cl = self.cluster_of[last.index()];

        // Which cluster pairs lose their border with the departure.
        let dirty: Vec<usize> = (0..self.members.len())
            .filter(|&j| j != cp.index() && self.borders[cp.index()][j] == Some(proxy))
            .collect();

        // Drop the departing proxy from its member list.
        let slot = self.members[cp.index()]
            .iter()
            .position(|&m| m == proxy)
            .expect("member lists cover every proxy");
        self.members[cp.index()].remove(slot);

        let moved = if proxy != last {
            // The old last proxy now answers at the vacated id: rename
            // it in its member list (keeping ascending order) and in
            // every border slot that referenced it.
            let tail = self.members[cl.index()]
                .pop()
                .expect("the last proxy tops its cluster's member list");
            debug_assert_eq!(tail, last);
            let at = self.members[cl.index()].partition_point(|&m| m < proxy);
            self.members[cl.index()].insert(at, proxy);
            for row in &mut self.borders {
                for b in row.iter_mut() {
                    if *b == Some(last) {
                        *b = Some(proxy);
                    }
                }
            }
            // Until the re-elections below, the slots of `proxy` are the
            // departed proxy's plus the renamed ones.
            self.duty[i] += std::mem::take(&mut self.duty[last.index()]);
            self.cluster_of[i] = cl;
            Some(proxy)
        } else {
            None
        };
        self.cluster_of.pop();

        if self.members[cp.index()].is_empty() {
            self.remove_empty_cluster(cp);
        } else {
            // Re-elect exactly the pairs the departed proxy bordered.
            for j in dirty {
                self.reelect_border(cp.index(), j, delays);
            }
        }
        // Re-election or the cluster's removal cleared the departed
        // proxy's slots, and the renamed ones moved to the vacated id.
        debug_assert_eq!(self.duty[n - 1], 0);
        self.duty.pop();
        moved
    }

    /// Swap-removes an emptied cluster: the highest cluster id takes
    /// its slot in the member, border, and assignment tables.
    fn remove_empty_cluster(&mut self, cluster: ClusterId) {
        let c = cluster.index();
        debug_assert!(self.members[c].is_empty());
        let last = self.members.len() - 1;
        self.members.swap_remove(c);
        for b in self.borders.swap_remove(c).into_iter().flatten() {
            self.duty[b.index()] -= 1;
        }
        for row in &mut self.borders {
            if let Some(b) = row.swap_remove(c) {
                self.duty[b.index()] -= 1;
            }
        }
        if c != last {
            for &m in &self.members[c] {
                self.cluster_of[m.index()] = ClusterId::new(c);
            }
        }
    }

    /// Recomputes the closest-pair border between clusters `i` and `j`
    /// from scratch, with the same iteration order (ascending ids,
    /// strict improvement) as [`HfcTopology::build`].
    fn reelect_border<D: DelayModel>(&mut self, i: usize, j: usize, delays: &D) {
        let mut election = Election::new(delays);
        let (bx, by) = election.closest_pair_of(&self.members[i], &self.members[j]);
        self.work.pair_evaluations += election.work.pair_evaluations;
        self.work.box_tests += election.work.box_tests;
        self.set_border(i, j, bx);
        self.set_border(j, i, by);
    }

    /// Makes `proxy` the border of cluster `i` toward cluster `j`,
    /// moving the slot's duty from its previous holder.
    fn set_border(&mut self, i: usize, j: usize, proxy: ProxyId) {
        if let Some(old) = self.borders[i][j].replace(proxy) {
            self.duty[old.index()] -= 1;
        }
        self.duty[proxy.index()] += 1;
    }

    /// What electing this topology's borders has cost so far: the
    /// build's election plus every incremental re-election since.
    pub fn election_work(&self) -> ElectionWork {
        self.work
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Number of proxies.
    pub fn proxy_count(&self) -> usize {
        self.cluster_of.len()
    }

    /// Iterates over all cluster ids.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.members.len()).map(ClusterId::new)
    }

    /// The cluster containing `proxy`.
    ///
    /// # Panics
    ///
    /// Panics if `proxy` is out of range.
    pub fn cluster_of(&self, proxy: ProxyId) -> ClusterId {
        self.cluster_of[proxy.index()]
    }

    /// Members of `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn members(&self, cluster: ClusterId) -> &[ProxyId] {
        &self.members[cluster.index()]
    }

    /// The border pair connecting `from` to `to`, oriented so that
    /// `local` lies in `from` and `remote` in `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either id is out of range.
    pub fn border(&self, from: ClusterId, to: ClusterId) -> BorderPair {
        assert_ne!(from, to, "no border within a single cluster");
        let local = self.borders[from.index()][to.index()]
            .expect("off-diagonal borders are always present");
        let remote = self.borders[to.index()][from.index()]
            .expect("off-diagonal borders are always present");
        BorderPair { local, remote }
    }

    /// The distinct border proxies of `cluster` (its representatives to
    /// the outside — the cluster's *visibility*, Section 3 property 4).
    pub fn border_proxies(&self, cluster: ClusterId) -> Vec<ProxyId> {
        let mut out: Vec<ProxyId> = self.borders[cluster.index()]
            .iter()
            .flatten()
            .copied()
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// All distinct border proxies in the system.
    pub fn all_border_proxies(&self) -> Vec<ProxyId> {
        let mut out: Vec<ProxyId> = self
            .clusters()
            .flat_map(|c| self.border_proxies(c))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Returns `true` if `proxy` is a border proxy of its cluster.
    pub fn is_border(&self, proxy: ProxyId) -> bool {
        self.duty[proxy.index()] > 0
    }

    /// For each proxy, how many cluster pairs it serves as a border
    /// for. The paper's closest-pair rule spreads these duties ("it's
    /// very unlikely that a single node will be selected to be border
    /// nodes to all other clusters, which improves load balancing");
    /// the `FirstPair` ablation concentrates them.
    pub fn border_duty_counts(&self) -> Vec<usize> {
        self.duty.iter().map(|&d| d as usize).collect()
    }

    /// The proxies whose coordinates `proxy` keeps (paper Figure 4):
    /// every member of its own cluster plus every border proxy in the
    /// system. Sorted and deduplicated.
    pub fn visible_proxies(&self, proxy: ProxyId) -> Vec<ProxyId> {
        let own = self.cluster_of(proxy);
        let mut out: Vec<ProxyId> = self.members(own).to_vec();
        out.extend(self.all_border_proxies());
        out.sort();
        out.dedup();
        out
    }

    /// A cluster-id-independent view of the topology, for comparing
    /// two builds that may number their clusters differently (e.g. an
    /// incrementally maintained topology against a from-scratch one).
    pub fn snapshot(&self) -> HfcSnapshot {
        let mut clusters: Vec<Vec<ProxyId>> = self
            .members
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.sort();
                m
            })
            .collect();
        // Canonical order: by smallest member (member lists partition
        // the proxies, so the keys are distinct).
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        order.sort_by_key(|&c| clusters[c][0]);
        let rank: Vec<usize> = {
            let mut rank = vec![0; order.len()];
            for (pos, &c) in order.iter().enumerate() {
                rank[c] = pos;
            }
            rank
        };
        clusters.sort_by_key(|m| m[0]);
        let mut borders = Vec::new();
        for i in 0..self.members.len() {
            for j in 0..self.members.len() {
                if i == j {
                    continue;
                }
                let (a, b) = (rank[i], rank[j]);
                if a < b {
                    let pair = self.border(ClusterId::new(i), ClusterId::new(j));
                    borders.push(((a, b), (pair.local, pair.remote)));
                }
            }
        }
        borders.sort();
        HfcSnapshot { clusters, borders }
    }
}

/// Deterministic cost of border election, in the two operations it is
/// made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElectionWork {
    /// Proxy-to-proxy delays evaluated.
    pub pair_evaluations: u64,
    /// Point-to-bounding-box distances evaluated (coordinate spaces
    /// only).
    pub box_tests: u64,
}

/// The axis-aligned bounding box of a member list's points.
#[derive(Debug)]
pub(crate) struct BoundingBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoundingBox {
    fn of(members: &[ProxyId], points: &[Coordinates]) -> Self {
        let dims = members.first().map_or(0, |m| points[m.index()].dims());
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for m in members {
            for (k, &v) in points[m.index()].as_slice().iter().enumerate() {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
        BoundingBox { lo, hi }
    }

    /// A lower bound on `p.distance(q)` for every boxed point `q`,
    /// in floating point and not just in the reals: axis by axis the
    /// gap to the box is the rounded difference to a coordinate no
    /// farther than `q`'s, and rounding, squaring, summing in axis
    /// order and the square root — the arithmetic of
    /// [`Coordinates::distance`] — are all monotone.
    fn distance_from(&self, p: &Coordinates) -> f64 {
        p.as_slice()
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&v, (&lo, &hi))| {
                let gap = if v < lo {
                    lo - v
                } else if v > hi {
                    v - hi
                } else {
                    0.0
                };
                gap.powi(2)
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// One side of an election: a non-empty, ascending member list with
/// its box from [`Election::bounding_box`].
type Side<'s> = (&'s [ProxyId], Option<&'s BoundingBox>);

/// Closest-pair border election under one delay model, keeping its
/// scratch buffers and its work count across cluster pairs.
pub(crate) struct Election<'a, D> {
    delays: &'a D,
    near: [Vec<f64>; 2],
    kept: [Vec<ProxyId>; 2],
    pub(crate) work: ElectionWork,
}

impl<'a, D: DelayModel> Election<'a, D> {
    pub(crate) fn new(delays: &'a D) -> Self {
        Election {
            delays,
            near: Default::default(),
            kept: Default::default(),
            work: ElectionWork::default(),
        }
    }

    /// The box of `members`, if the delays are a coordinate space.
    pub(crate) fn bounding_box(&self, members: &[ProxyId]) -> Option<BoundingBox> {
        let points = self.delays.points()?;
        Some(BoundingBox::of(members, points))
    }

    /// [`Election::closest_pair`] with both boxes computed on the fly.
    pub(crate) fn closest_pair_of(&mut self, xs: &[ProxyId], ys: &[ProxyId]) -> (ProxyId, ProxyId) {
        let (bx, by) = (self.bounding_box(xs), self.bounding_box(ys));
        self.closest_pair((xs, bx.as_ref()), (ys, by.as_ref()))
    }

    /// The closest cross pair of two sides, ties broken toward the
    /// lowest indices — the determinism contract every build path
    /// shares. In a coordinate space only the members the other side's
    /// box cannot rule out are scanned: every pair attaining the
    /// minimum is among them, in the same relative order, and no
    /// distance between finite [`Coordinates`] is NaN, so the answer
    /// is that of [`closest_pair_exhaustive`] over the whole lists.
    pub(crate) fn closest_pair(&mut self, x: Side<'_>, y: Side<'_>) -> (ProxyId, ProxyId) {
        let (Some(points), (xs, Some(box_x)), (ys, Some(box_y))) = (self.delays.points(), x, y)
        else {
            self.work.pair_evaluations += (x.0.len() * y.0.len()) as u64;
            return closest_pair_exhaustive(x.0, y.0, self.delays);
        };
        // (a) Each member's distance to the other cluster's box bounds
        // every delay it is part of from below.
        let [near_x, near_y] = &mut self.near;
        let nearest_x = lower_bounds(xs, box_y, points, near_x);
        let nearest_y = lower_bounds(ys, box_x, points, near_y);
        // (b) Any one delay bounds the minimum from above; the two
        // members nearest the opposite boxes make it a tight one.
        let upper = self.delays.delay(nearest_x, nearest_y);
        // (c) The exhaustive scan, over the survivors only.
        let [kept_x, kept_y] = &mut self.kept;
        survivors(xs, near_x, upper, kept_x);
        survivors(ys, near_y, upper, kept_y);
        self.work.box_tests += (xs.len() + ys.len()) as u64;
        self.work.pair_evaluations += 1 + (kept_x.len() * kept_y.len()) as u64;
        closest_pair_exhaustive(kept_x, kept_y, self.delays)
    }
}

/// Fills `near` with each member's distance to `other` and returns
/// the member with the smallest (the first of equals).
fn lower_bounds(
    members: &[ProxyId],
    other: &BoundingBox,
    points: &[Coordinates],
    near: &mut Vec<f64>,
) -> ProxyId {
    near.clear();
    near.extend(
        members
            .iter()
            .map(|m| other.distance_from(&points[m.index()])),
    );
    let mut nearest = 0;
    for (at, &bound) in near.iter().enumerate() {
        if bound < near[nearest] {
            nearest = at;
        }
    }
    members[nearest]
}

/// Keeps the members whose lower bound does not exceed `upper` — a
/// bound equal to it may belong to a tying pair, and a NaN on either
/// side rules nothing out.
fn survivors(members: &[ProxyId], near: &[f64], upper: f64, kept: &mut Vec<ProxyId>) {
    kept.clear();
    kept.extend(
        members
            .iter()
            .zip(near)
            .filter(|&(_, &bound)| bound.partial_cmp(&upper) != Some(Ordering::Greater))
            .map(|(&m, _)| m),
    );
}

/// The closest cross pair of two non-empty member lists under any
/// metric, scanned in ascending-id order with strict improvement.
pub(crate) fn closest_pair_exhaustive<D: DelayModel>(
    xs: &[ProxyId],
    ys: &[ProxyId],
    delays: &D,
) -> (ProxyId, ProxyId) {
    let mut best: Option<(ProxyId, ProxyId, f64)> = None;
    for &x in xs {
        for &y in ys {
            let d = delays.delay(x, y);
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((x, y, d));
            }
        }
    }
    let (bx, by, _) = best.expect("clusters are non-empty");
    (bx, by)
}

/// See [`HfcTopology::snapshot`]: clusters sorted by their smallest
/// member, borders keyed by positions in that order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HfcSnapshot {
    /// Sorted member lists, ordered by smallest member.
    pub clusters: Vec<Vec<ProxyId>>,
    /// For each cluster pair `(i, j)` with `i < j` (positions in
    /// `clusters`), the border pair oriented from `i` to `j`.
    pub borders: Vec<((usize, usize), (ProxyId, ProxyId))>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delays::DelayMatrix;

    /// Three clusters of proxies on a line:
    /// {0,1} at 0/1, {2,3} at 10/11, {4,5} at 30/31.
    fn line_topology() -> (Clustering, DelayMatrix) {
        let xs: [f64; 6] = [0.0, 1.0, 10.0, 11.0, 30.0, 31.0];
        let n = xs.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (xs[i] - xs[j]).abs();
            }
        }
        let clustering = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        (clustering, DelayMatrix::from_values(n, values))
    }

    #[test]
    fn border_pairs_are_the_closest_pairs() {
        let (clustering, delays) = line_topology();
        let hfc = HfcTopology::build(&clustering, &delays);
        // C0–C1: closest pair is proxies 1 (at 1.0) and 2 (at 10.0).
        let pair = hfc.border(ClusterId::new(0), ClusterId::new(1));
        assert_eq!(pair.local, ProxyId::new(1));
        assert_eq!(pair.remote, ProxyId::new(2));
        // C1–C2: closest pair is 3 (at 11) and 4 (at 30).
        let pair = hfc.border(ClusterId::new(1), ClusterId::new(2));
        assert_eq!(pair.local, ProxyId::new(3));
        assert_eq!(pair.remote, ProxyId::new(4));
    }

    #[test]
    fn border_is_orientation_consistent() {
        let (clustering, delays) = line_topology();
        let hfc = HfcTopology::build(&clustering, &delays);
        for i in hfc.clusters() {
            for j in hfc.clusters() {
                if i == j {
                    continue;
                }
                let ij = hfc.border(i, j);
                let ji = hfc.border(j, i);
                assert_eq!(ij.local, ji.remote);
                assert_eq!(ij.remote, ji.local);
                assert_eq!(hfc.cluster_of(ij.local), i);
                assert_eq!(hfc.cluster_of(ij.remote), j);
            }
        }
    }

    #[test]
    fn membership_round_trips() {
        let (clustering, delays) = line_topology();
        let hfc = HfcTopology::build(&clustering, &delays);
        assert_eq!(hfc.cluster_count(), 3);
        assert_eq!(hfc.proxy_count(), 6);
        for c in hfc.clusters() {
            for &p in hfc.members(c) {
                assert_eq!(hfc.cluster_of(p), c);
            }
        }
    }

    #[test]
    fn border_proxies_and_visibility() {
        let (clustering, delays) = line_topology();
        let hfc = HfcTopology::build(&clustering, &delays);
        // C1 borders both neighbors through 2 (to C0) and 3 (to C2).
        let borders = hfc.border_proxies(ClusterId::new(1));
        assert_eq!(borders, vec![ProxyId::new(2), ProxyId::new(3)]);
        assert!(hfc.is_border(ProxyId::new(2)));
        assert!(!hfc.is_border(ProxyId::new(0)));
        // Proxy 0 sees its own cluster {0,1} plus all borders.
        let visible = hfc.visible_proxies(ProxyId::new(0));
        let all_borders = hfc.all_border_proxies();
        for b in &all_borders {
            assert!(visible.contains(b));
        }
        assert!(visible.contains(&ProxyId::new(0)));
        assert!(visible.contains(&ProxyId::new(1)));
        // Proxy 5 (non-border member of C2) is invisible to proxy 0.
        assert!(!visible.contains(&ProxyId::new(5)));
    }

    #[test]
    fn coordinate_build_matches_exhaustive() {
        use crate::delays::{CoordDelays, Opaque};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let clusters = 7;
        let per = 9;
        let mut labels = Vec::new();
        let mut coords = Vec::new();
        for c in 0..clusters {
            for _ in 0..per {
                // Quantized positions make cross-pair distance ties
                // likely, exercising the tie-break contract.
                let x = c as f64 * 100.0 + (rng.gen::<f64>() * 20.0).round();
                coords.push(Coordinates::new(vec![x]));
                labels.push(c);
            }
        }
        let delays = CoordDelays::new(coords);
        let clustering = Clustering::from_labels(&labels);
        for selection in [BorderSelection::ClosestPair, BorderSelection::FirstPair] {
            let pruned = HfcTopology::build_with_selection(&clustering, &delays, selection);
            let exhaustive =
                HfcTopology::build_with_selection(&clustering, &Opaque(&delays), selection);
            assert_eq!(pruned.snapshot(), exhaustive.snapshot());
            for i in exhaustive.clusters() {
                for j in exhaustive.clusters() {
                    if i != j {
                        assert_eq!(pruned.border(i, j), exhaustive.border(i, j));
                    }
                }
            }
            assert_eq!(exhaustive.election_work().box_tests, 0);
        }
    }

    #[test]
    fn single_cluster_has_no_borders() {
        let clustering = Clustering::from_labels(&[0, 0, 0]);
        let delays = DelayMatrix::from_values(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let hfc = HfcTopology::build(&clustering, &delays);
        assert_eq!(hfc.cluster_count(), 1);
        assert!(hfc.all_border_proxies().is_empty());
        assert!(!hfc.is_border(ProxyId::new(0)));
        assert_eq!(hfc.visible_proxies(ProxyId::new(1)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "single cluster")]
    fn border_within_cluster_panics() {
        let (clustering, delays) = line_topology();
        let hfc = HfcTopology::build(&clustering, &delays);
        let _ = hfc.border(ClusterId::new(0), ClusterId::new(0));
    }

    #[test]
    fn hfc_delays_route_through_borders() {
        use crate::delays::{DelayModel, HfcDelays};
        let (clustering, delays) = line_topology();
        let hfc = HfcTopology::build(&clustering, &delays);
        let constrained = HfcDelays::new(&hfc, &delays);
        // Intra-cluster: direct.
        assert_eq!(
            constrained.delay(ProxyId::new(0), ProxyId::new(1)),
            delays.delay(ProxyId::new(0), ProxyId::new(1))
        );
        // Inter-cluster 0 → 3: 0→1 (border) →2 (border) →3.
        let expected = delays.delay(ProxyId::new(0), ProxyId::new(1))
            + delays.delay(ProxyId::new(1), ProxyId::new(2))
            + delays.delay(ProxyId::new(2), ProxyId::new(3));
        assert_eq!(
            constrained.delay(ProxyId::new(0), ProxyId::new(3)),
            expected
        );
        assert_eq!(
            constrained.hops(ProxyId::new(0), ProxyId::new(3)),
            vec![
                ProxyId::new(0),
                ProxyId::new(1),
                ProxyId::new(2),
                ProxyId::new(3)
            ]
        );
        // Border node itself: hop list collapses duplicates.
        assert_eq!(
            constrained.hops(ProxyId::new(1), ProxyId::new(2)),
            vec![ProxyId::new(1), ProxyId::new(2)]
        );
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::delays::CoordDelays;
    use son_coords::Coordinates;

    fn coords(xs: &[f64]) -> CoordDelays {
        CoordDelays::new(xs.iter().map(|&x| Coordinates::new(vec![x, 0.0])).collect())
    }

    fn scratch(labels: &[usize], delays: &CoordDelays) -> HfcTopology {
        HfcTopology::build(&Clustering::from_labels(labels), delays)
    }

    #[test]
    fn insert_matches_scratch_build() {
        let mut delays = coords(&[0.0, 1.0, 10.0, 11.0, 30.0, 31.0]);
        let mut hfc = scratch(&[0, 0, 1, 1, 2, 2], &delays);
        // A newcomer at 9.0 lands in the middle cluster and becomes
        // its border toward cluster 0 (9.0 is closer to 1.0 than 10.0).
        delays.push(Coordinates::new(vec![9.0, 0.0]));
        let p = hfc.insert_proxy(ClusterId::new(1), &delays);
        assert_eq!(p, ProxyId::new(6));
        assert_eq!(hfc.cluster_of(p), ClusterId::new(1));
        let pair = hfc.border(ClusterId::new(1), ClusterId::new(0));
        assert_eq!(pair.local, p);
        assert_eq!(
            hfc.snapshot(),
            scratch(&[0, 0, 1, 1, 2, 2, 1], &delays).snapshot()
        );
    }

    #[test]
    fn insert_keeps_existing_border_when_not_closer() {
        let mut delays = coords(&[0.0, 1.0, 10.0, 11.0]);
        let mut hfc = scratch(&[0, 0, 1, 1], &delays);
        // A newcomer deep inside cluster 1 changes no border.
        delays.push(Coordinates::new(vec![11.5, 0.0]));
        hfc.insert_proxy(ClusterId::new(1), &delays);
        let pair = hfc.border(ClusterId::new(0), ClusterId::new(1));
        assert_eq!(pair.local, ProxyId::new(1));
        assert_eq!(pair.remote, ProxyId::new(2));
        assert_eq!(
            hfc.snapshot(),
            scratch(&[0, 0, 1, 1, 1], &delays).snapshot()
        );
    }

    #[test]
    fn remove_reelects_only_where_departed_was_border() {
        let mut delays = coords(&[0.0, 1.0, 10.0, 11.0, 30.0, 31.0]);
        let mut hfc = scratch(&[0, 0, 1, 1, 2, 2], &delays);
        // Proxy 2 (at 10.0) borders cluster 0; its departure promotes
        // proxy 3. Proxy 5 (at 31.0) is swapped into id 2.
        delays.swap_remove(ProxyId::new(2));
        let moved = hfc.remove_proxy(ProxyId::new(2), &delays);
        assert_eq!(moved, Some(ProxyId::new(2)));
        assert_eq!(hfc.proxy_count(), 5);
        // Same world expressed as labels: [0,0,2,1,2] (old proxy 5 now
        // at id 2 belongs to the far cluster).
        assert_eq!(
            hfc.snapshot(),
            scratch(&[0, 0, 2, 1, 2], &delays).snapshot()
        );
    }

    #[test]
    fn removing_a_singleton_cluster_compacts_ids() {
        let mut delays = coords(&[0.0, 1.0, 50.0, 100.0, 101.0]);
        let mut hfc = scratch(&[0, 0, 1, 2, 2], &delays);
        assert_eq!(hfc.cluster_count(), 3);
        // Proxy 2 is alone in its cluster; removing it drops a cluster.
        delays.swap_remove(ProxyId::new(2));
        let moved = hfc.remove_proxy(ProxyId::new(2), &delays);
        assert_eq!(moved, Some(ProxyId::new(2)));
        assert_eq!(hfc.cluster_count(), 2);
        assert_eq!(hfc.snapshot(), scratch(&[0, 0, 1, 1], &delays).snapshot());
    }

    #[test]
    fn remove_last_id_moves_nobody() {
        let mut delays = coords(&[0.0, 1.0, 10.0, 11.0]);
        let mut hfc = scratch(&[0, 0, 1, 1], &delays);
        delays.swap_remove(ProxyId::new(3));
        let moved = hfc.remove_proxy(ProxyId::new(3), &delays);
        assert_eq!(moved, None);
        assert_eq!(hfc.snapshot(), scratch(&[0, 0, 1], &delays).snapshot());
    }

    #[test]
    fn random_churn_matches_scratch_build() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        // Three well-separated communities; random coords make border
        // ties measure-zero, so incremental == scratch exactly.
        let mut xs: Vec<f64> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for c in 0..3 {
            for _ in 0..5 {
                xs.push(c as f64 * 1000.0 + rng.gen::<f64>() * 50.0);
                labels.push(c);
            }
        }
        let mut delays = coords(&xs);
        let mut hfc = scratch(&labels, &delays);
        for step in 0..60 {
            if hfc.proxy_count() > 4 && rng.gen_bool(0.4) {
                let victim = ProxyId::new(rng.gen_range(0..hfc.proxy_count()));
                labels.swap_remove(victim.index());
                xs.swap_remove(victim.index());
                delays.swap_remove(victim);
                hfc.remove_proxy(victim, &delays);
            } else {
                let c = rng.gen_range(0..3usize).min(hfc.cluster_count() - 1);
                // Place the newcomer near an existing member of c so
                // cluster geometry stays sane.
                let anchor = hfc.members(ClusterId::new(c))[0];
                let x = xs[anchor.index()] + rng.gen::<f64>() * 40.0 - 20.0;
                xs.push(x);
                labels.push(labels[anchor.index()]);
                delays.push(Coordinates::new(vec![x, 0.0]));
                hfc.insert_proxy(ClusterId::new(c), &delays);
            }
            assert_eq!(
                hfc.snapshot(),
                scratch(&labels, &delays).snapshot(),
                "divergence at churn step {step}"
            );
        }
    }

    /// The scan `is_border` used to make: whether `proxy` fills a slot
    /// of its own cluster's border row.
    fn is_border_by_scan(hfc: &HfcTopology, proxy: ProxyId) -> bool {
        let c = hfc.cluster_of(proxy);
        hfc.borders[c.index()].iter().flatten().any(|&b| b == proxy)
    }

    /// The maintained duty counts against a from-scratch scan of
    /// `borders`, and `is_border` against the scan definition.
    fn assert_duties_match_the_scan(hfc: &HfcTopology, step: usize) {
        let mut scanned = vec![0u32; hfc.proxy_count()];
        for b in hfc.borders.iter().flatten().flatten() {
            scanned[b.index()] += 1;
        }
        assert_eq!(hfc.duty, scanned, "duty counts at step {step}");
        for p in (0..hfc.proxy_count()).map(ProxyId::new) {
            assert_eq!(
                hfc.is_border(p),
                is_border_by_scan(hfc, p),
                "is_border({p}) at step {step}"
            );
        }
    }

    #[test]
    fn border_duties_track_every_write() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut emptied, mut renamed) = (0, 0);
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Six communities of one to three proxies: removals often
            // empty a cluster, and swap-remove renames the last proxy.
            let mut xs: Vec<f64> = Vec::new();
            let mut labels: Vec<usize> = Vec::new();
            for c in 0..6 {
                for _ in 0..rng.gen_range(1..=3) {
                    xs.push(c as f64 * 1000.0 + rng.gen::<f64>() * 50.0);
                    labels.push(c);
                }
            }
            let mut delays = coords(&xs);
            let mut hfc = scratch(&labels, &delays);
            assert_duties_match_the_scan(&hfc, 0);
            for step in 1..=80 {
                if hfc.proxy_count() > 2 && rng.gen_bool(0.5) {
                    // Bias toward the last id and toward singletons.
                    let n = hfc.proxy_count();
                    let victim = ProxyId::new(match rng.gen_range(0..4) {
                        0 => n - 1,
                        _ => rng.gen_range(0..n),
                    });
                    let clusters = hfc.cluster_count();
                    xs.swap_remove(victim.index());
                    delays.swap_remove(victim);
                    renamed += usize::from(hfc.remove_proxy(victim, &delays).is_some());
                    emptied += usize::from(hfc.cluster_count() < clusters);
                } else {
                    let c = rng.gen_range(0..hfc.cluster_count());
                    let anchor = hfc.members(ClusterId::new(c))[0];
                    let x = xs[anchor.index()] + rng.gen::<f64>() * 40.0 - 20.0;
                    xs.push(x);
                    delays.push(Coordinates::new(vec![x, 0.0]));
                    hfc.insert_proxy(ClusterId::new(c), &delays);
                }
                assert_duties_match_the_scan(&hfc, step);
            }
        }
        // 63 emptied clusters and 540 renames over the twenty seeds.
        assert!(emptied > 20 && renamed > 100, "{emptied} / {renamed}");
    }
}

#[cfg(test)]
mod selection_tests {
    use super::*;
    use crate::delays::{DelayMatrix, DelayModel, HfcDelays};

    fn world() -> (Clustering, DelayMatrix) {
        let xs: [f64; 6] = [0.0, 1.0, 10.0, 11.0, 30.0, 31.0];
        let n = xs.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (xs[i] - xs[j]).abs();
            }
        }
        (
            Clustering::from_labels(&[0, 0, 1, 1, 2, 2]),
            DelayMatrix::from_values(n, values),
        )
    }

    #[test]
    fn first_pair_picks_lowest_indices() {
        let (clustering, delays) = world();
        let hfc =
            HfcTopology::build_with_selection(&clustering, &delays, BorderSelection::FirstPair);
        let pair = hfc.border(ClusterId::new(0), ClusterId::new(1));
        assert_eq!(pair.local, ProxyId::new(0));
        assert_eq!(pair.remote, ProxyId::new(2));
        // Symmetry invariants still hold under the ablation rule.
        let back = hfc.border(ClusterId::new(1), ClusterId::new(0));
        assert_eq!(back.local, pair.remote);
        assert_eq!(back.remote, pair.local);
    }

    #[test]
    fn closest_pair_never_yields_longer_crossings() {
        let (clustering, delays) = world();
        let closest = HfcTopology::build(&clustering, &delays);
        let first =
            HfcTopology::build_with_selection(&clustering, &delays, BorderSelection::FirstPair);
        let d_closest = HfcDelays::new(&closest, &delays);
        let d_first = HfcDelays::new(&first, &delays);
        for i in closest.clusters() {
            for j in closest.clusters() {
                if i == j {
                    continue;
                }
                let pc = closest.border(i, j);
                let pf = first.border(i, j);
                assert!(
                    delays.delay(pc.local, pc.remote) <= delays.delay(pf.local, pf.remote),
                    "closest-pair must minimize the external link"
                );
            }
        }
        // And the external links sum over all pairs is no worse.
        let sum = |d: &HfcDelays<'_, DelayMatrix>, hfc: &HfcTopology| -> f64 {
            let mut total = 0.0;
            for a in 0..hfc.proxy_count() {
                for b in 0..hfc.proxy_count() {
                    total += d.delay(ProxyId::new(a), ProxyId::new(b));
                }
            }
            total
        };
        assert!(sum(&d_closest, &closest) <= sum(&d_first, &first));
    }
}

#[cfg(test)]
mod duty_tests {
    use super::*;
    use crate::delays::DelayMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn closest_pair_spreads_border_duties() {
        // Several clusters of scattered points: under the closest-pair
        // rule, different cluster pairs usually pick different border
        // proxies; FirstPair funnels everything through proxy 0 of each
        // cluster.
        let mut rng = StdRng::seed_from_u64(5);
        let clusters = 6;
        let per = 8;
        let n = clusters * per;
        let mut pos = Vec::new();
        let mut labels = Vec::new();
        for c in 0..clusters {
            let angle = c as f64 / clusters as f64 * std::f64::consts::TAU;
            for _ in 0..per {
                pos.push((
                    1000.0 * angle.cos() + rng.gen::<f64>() * 100.0,
                    1000.0 * angle.sin() + rng.gen::<f64>() * 100.0,
                ));
                labels.push(c);
            }
        }
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] =
                    ((pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2)).sqrt();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let clustering = Clustering::from_labels(&labels);

        let closest = HfcTopology::build(&clustering, &delays);
        let first =
            HfcTopology::build_with_selection(&clustering, &delays, BorderSelection::FirstPair);
        let max_duty = |hfc: &HfcTopology| hfc.border_duty_counts().into_iter().max().unwrap_or(0);
        // FirstPair: one proxy per cluster shoulders all 5 duties.
        assert_eq!(max_duty(&first), clusters - 1);
        // Closest-pair spreads the load.
        assert!(
            max_duty(&closest) < clusters - 1,
            "closest-pair should not concentrate all duties on one node"
        );
        // Duty totals are identical (2 per cluster pair).
        let total: usize = closest.border_duty_counts().iter().sum();
        assert_eq!(total, clusters * (clusters - 1));
    }
}

/// The box-pruned election against the exhaustive scan it replaces in
/// coordinate spaces, pair for pair.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::delays::CoordDelays;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Splits proxies `0..labels.len()` into the two member lists (ids
    /// ascending, as `HfcTopology` keeps them).
    fn sides(labels: &[bool]) -> (Vec<ProxyId>, Vec<ProxyId>) {
        let ids = |side: bool| {
            (0..labels.len())
                .filter(|&p| labels[p] == side)
                .map(ProxyId::new)
                .collect()
        };
        (ids(false), ids(true))
    }

    fn assert_same_pair(points: &[Vec<f64>], labels: &[bool]) -> ElectionWork {
        let delays = CoordDelays::new(points.iter().cloned().map(Coordinates::new).collect());
        let (xs, ys) = sides(labels);
        let mut election = Election::new(&delays);
        assert_eq!(
            election.closest_pair_of(&xs, &ys),
            closest_pair_exhaustive(&xs, &ys, &delays),
            "points {points:?} split {labels:?}"
        );
        // The same pair seen from the other side.
        let (y, x) = election.closest_pair_of(&ys, &xs);
        let (ox, oy) = closest_pair_exhaustive(&ys, &xs, &delays);
        assert_eq!(
            (y, x),
            (ox, oy),
            "points {points:?} split {labels:?} reversed"
        );
        election.work
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// 2..=60 points in 1..=5 dims over the shapes that stress the
        /// bound: overlapping clouds, an integer lattice (exact ties),
        /// every point coincident, one cluster of a single member, one
        /// box nested in the other, far-apart blobs, and magnitudes
        /// whose differences overflow to ∞ or whose squares underflow
        /// to 0 (`Coordinates` holds no NaN or ∞ itself).
        #[test]
        fn pruned_election_equals_exhaustive(
            shape in 0usize..7, n in 2usize..61, dims in 1usize..6, seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            if shape == 3 {
                labels.fill(false);
            }
            // Both sides are non-empty, whatever the draw.
            let lone = rng.gen_range(0..n);
            labels[lone] = true;
            let other = (lone + 1 + rng.gen_range(0..n - 1)) % n;
            labels[other] = false;
            // Shape 6: every point on one extreme scale, or each on
            // its own.
            let extremes = [-1.7e308, 1e-170, 1.0, 1e160, 1.7e308];
            let shared = rng.gen_bool(0.5);
            let scales: Vec<f64> = (0..n)
                .map(|_| extremes[rng.gen_range(0..extremes.len())])
                .map(|own| if shared { extremes[seed as usize % extremes.len()] } else { own })
                .collect();
            let mut uniform = |scale: f64| -> Vec<f64> {
                (0..dims).map(|_| rng.gen::<f64>() * scale).collect()
            };
            let coincident = uniform(50.0);
            let points: Vec<Vec<f64>> = labels
                .iter()
                .zip(scales)
                .map(|(&side, scale)| match shape {
                    1 => uniform(5.0).iter().map(|v| v.round()).collect(),
                    2 => coincident.clone(),
                    4 if side => uniform(20.0).iter().map(|v| v + 40.0).collect(),
                    5 if side => uniform(10.0).iter().map(|v| v + 500.0).collect(),
                    5 => uniform(10.0),
                    6 => uniform(scale),
                    _ => uniform(100.0),
                })
                .collect();
            assert_same_pair(&points, &labels);
        }
    }

    #[test]
    fn facing_members_are_all_that_is_scanned() {
        // Ten proxies at 0..=9 against ten at 100..=109: only 9 and 100
        // can be closest, so one box test a member and two delays (the
        // upper bound, the surviving pair) replace the hundred of the
        // exhaustive scan.
        let points: Vec<Vec<f64>> = (0..10).chain(100..110).map(|x| vec![x as f64]).collect();
        let labels: Vec<bool> = (0..20).map(|p| p >= 10).collect();
        let work = assert_same_pair(&points, &labels);
        assert_eq!(
            work,
            ElectionWork {
                pair_evaluations: 2 * 2,
                box_tests: 2 * 20,
            }
        );
    }

    #[test]
    fn a_bound_equal_to_the_upper_bound_keeps_its_member() {
        // 3-4-5 triangles: proxy 1 at (3, 4) is exactly 5 from the
        // other side's only point, and so is the box it lies in; proxy
        // 0 ties at (−5, 0). The tie goes to the lower id.
        let points = vec![vec![-5.0, 0.0], vec![3.0, 4.0], vec![0.0, 0.0]];
        let delays = CoordDelays::new(points.iter().cloned().map(Coordinates::new).collect());
        let (xs, ys) = sides(&[false, false, true]);
        assert_eq!(
            Election::new(&delays).closest_pair_of(&xs, &ys),
            (ProxyId::new(0), ProxyId::new(2))
        );
        assert_same_pair(&points, &[false, false, true]);
    }

    #[test]
    fn any_other_metric_is_scanned_exhaustively() {
        use crate::delays::Opaque;
        let delays = CoordDelays::new(
            [0.0, 1.0, 10.0, 11.0]
                .iter()
                .map(|&x| Coordinates::new(vec![x]))
                .collect(),
        );
        let (xs, ys) = sides(&[false, false, true, true]);
        let opaque = Opaque(&delays);
        let mut election = Election::new(&opaque);
        assert!(election.bounding_box(&xs).is_none());
        assert_eq!(
            election.closest_pair_of(&xs, &ys),
            (ProxyId::new(1), ProxyId::new(2))
        );
        assert_eq!(
            election.work,
            ElectionWork {
                pair_evaluations: 4,
                box_tests: 0,
            }
        );
    }
}
