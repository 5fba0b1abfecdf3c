//! Dynamic membership — the paper's first "future direction" (§7):
//!
//! > While we can let future proxies join clusters of their nearest
//! > neighbors, multiple joins and leaves may deteriorate the quality
//! > of clustering. Hence some kind of re-structuring mechanism needs
//! > to be devised.
//!
//! [`DynamicOverlay`] implements exactly that, *incrementally*: a join
//! assigns the newcomer to its nearest neighbor's cluster and
//! re-elects only the border pairs involving that cluster; a leave
//! re-elects borders only where the departed proxy served as one
//! ([`HfcTopology::insert_proxy`] / [`HfcTopology::remove_proxy`] —
//! O(cluster) per event instead of the old O(n²) full rebuild). A
//! clustering-quality score detects deterioration, and
//! [`DynamicOverlay::restructure`] re-runs the full MST + Zahn
//! pipeline — either on demand, by threshold, or automatically via
//! [`DynamicOverlay::with_restructure_threshold`].

use son_clustering::{mst_euclidean, Clustering, ZahnClusterer, ZahnConfig};
use son_coords::Coordinates;
use son_overlay::{CoordDelays, HfcTopology, ProxyId};

/// How often (in membership events) the automatic drift fallback
/// recomputes the O(n²) quality score. Checking every event would
/// erase the point of incremental maintenance.
const QUALITY_CHECK_INTERVAL: usize = 16;

/// Counters separating cheap incremental events from full rebuilds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Joins handled by incremental border maintenance.
    pub incremental_joins: usize,
    /// Leaves handled by incremental border maintenance.
    pub incremental_leaves: usize,
    /// Full MST + Zahn + HFC rebuilds (restructures).
    pub full_rebuilds: usize,
}

/// A clustered overlay whose membership changes over time.
///
/// Proxy ids are dense indices into the current membership; a
/// [`DynamicOverlay::leave`] uses swap-remove, so the *last* proxy
/// takes over the departed proxy's id (the returned value tells the
/// caller which one moved).
///
/// # Example
///
/// ```
/// use son_core::membership::DynamicOverlay;
/// use son_core::{Coordinates, ZahnConfig};
///
/// // Two far-apart groups.
/// let coords: Vec<Coordinates> = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0]
///     .iter()
///     .map(|&x| Coordinates::new(vec![x, 0.0]))
///     .collect();
/// let mut overlay = DynamicOverlay::new(coords, ZahnConfig::default());
/// assert_eq!(overlay.hfc().cluster_count(), 2);
///
/// // A newcomer near the second group joins it.
/// let p = overlay.join(Coordinates::new(vec![103.0, 0.0]));
/// let second = overlay.hfc().cluster_of(son_core::ProxyId::new(3));
/// assert_eq!(overlay.hfc().cluster_of(p), second);
/// // Handled incrementally — no full rebuild ran.
/// assert_eq!(overlay.churn_stats().incremental_joins, 1);
/// assert_eq!(overlay.churn_stats().full_rebuilds, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicOverlay {
    coords: Vec<Coordinates>,
    zahn: ZahnConfig,
    hfc: HfcTopology,
    delays: CoordDelays,
    /// Quality level past which an automatic restructure fires.
    drift_threshold: Option<f64>,
    events_since_check: usize,
    stats: ChurnStats,
}

impl DynamicOverlay {
    /// Clusters `coords` from scratch (MST + Zahn) and builds the
    /// initial HFC topology.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty.
    pub fn new(coords: Vec<Coordinates>, zahn: ZahnConfig) -> Self {
        assert!(!coords.is_empty(), "an overlay needs at least one proxy");
        let mut overlay = DynamicOverlay {
            delays: CoordDelays::new(coords.clone()),
            coords,
            zahn,
            hfc: HfcTopology::build(
                &Clustering::from_labels(&[0]),
                &CoordDelays::new(vec![Coordinates::origin(1)]),
            ),
            drift_threshold: None,
            events_since_check: 0,
            stats: ChurnStats::default(),
        };
        overlay.restructure();
        overlay.stats = ChurnStats::default();
        overlay
    }

    /// Enables the drift fallback: every [`QUALITY_CHECK_INTERVAL`]
    /// membership events the quality score is recomputed, and a full
    /// restructure runs when it exceeds `threshold` (lower is better).
    pub fn with_restructure_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = Some(threshold);
        self
    }

    /// Number of live proxies.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` if no proxies remain (impossible by
    /// construction, kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The current HFC topology.
    pub fn hfc(&self) -> &HfcTopology {
        &self.hfc
    }

    /// The coordinate-based delay model over current members.
    pub fn delays(&self) -> &CoordDelays {
        &self.delays
    }

    /// How churn has been handled so far.
    pub fn churn_stats(&self) -> ChurnStats {
        self.stats
    }

    /// Current per-proxy cluster labels (dense hfc cluster indices).
    pub fn labels(&self) -> Vec<usize> {
        (0..self.coords.len())
            .map(|i| self.hfc.cluster_of(ProxyId::new(i)).index())
            .collect()
    }

    /// A newcomer joins the cluster of its nearest existing neighbor,
    /// updating only border pairs that involve that cluster (no
    /// re-clustering). Returns the new proxy's id.
    pub fn join(&mut self, coords: Coordinates) -> ProxyId {
        let nearest = (0..self.coords.len())
            .min_by(|&a, &b| {
                let da = self.coords[a].distance(&coords);
                let db = self.coords[b].distance(&coords);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("overlay is never empty");
        let cluster = self.hfc.cluster_of(ProxyId::new(nearest));
        self.coords.push(coords.clone());
        self.delays.push(coords);
        let p = self.hfc.insert_proxy(cluster, &self.delays);
        self.stats.incremental_joins += 1;
        self.maybe_restructure_on_drift();
        p
    }

    /// Removes `proxy` (swap-remove), re-electing borders only where it
    /// served as one. Returns the id of the proxy that was moved into
    /// the vacated slot, if any.
    ///
    /// # Panics
    ///
    /// Panics if `proxy` is out of range or it is the last remaining
    /// proxy.
    pub fn leave(&mut self, proxy: ProxyId) -> Option<ProxyId> {
        assert!(self.coords.len() > 1, "the last proxy cannot leave");
        let i = proxy.index();
        assert!(i < self.coords.len(), "unknown proxy {proxy}");
        self.coords.swap_remove(i);
        self.delays.swap_remove(proxy);
        let moved = self.hfc.remove_proxy(proxy, &self.delays);
        self.stats.incremental_leaves += 1;
        self.maybe_restructure_on_drift();
        moved
    }

    /// Mean intra-cluster over mean inter-cluster distance — lower is
    /// better. `None` when there is only one cluster or all clusters
    /// are singletons.
    pub fn quality(&self) -> Option<f64> {
        Clustering::from_labels(&self.labels())
            .separation_score(|a, b| self.coords[a].distance(&self.coords[b]))
    }

    /// Re-runs the full MST + Zahn clustering over the current members
    /// — the paper's "re-structuring mechanism".
    pub fn restructure(&mut self) {
        let mst = mst_euclidean(&self.coords);
        let clustering = ZahnClusterer::new(self.zahn.clone()).cluster(&mst);
        self.delays = CoordDelays::new(self.coords.clone());
        self.hfc = HfcTopology::build(&clustering, &self.delays);
        self.stats.full_rebuilds += 1;
    }

    /// Restructures only when quality has deteriorated past
    /// `threshold`; returns `true` if a restructure ran.
    pub fn restructure_if_needed(&mut self, threshold: f64) -> bool {
        match self.quality() {
            Some(q) if q > threshold => {
                self.restructure();
                true
            }
            _ => false,
        }
    }

    /// The drift fallback: every few events, fall back to a full
    /// rebuild if incremental churn has degraded clustering quality.
    fn maybe_restructure_on_drift(&mut self) {
        let Some(threshold) = self.drift_threshold else {
            return;
        };
        self.events_since_check += 1;
        if self.events_since_check >= QUALITY_CHECK_INTERVAL {
            self.events_since_check = 0;
            self.restructure_if_needed(threshold);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_coords() -> Vec<Coordinates> {
        // Three groups at x = 0, 500, 1000.
        let mut out = Vec::new();
        for g in 0..3 {
            for i in 0..4 {
                out.push(Coordinates::new(vec![
                    g as f64 * 500.0 + i as f64 * 5.0,
                    0.0,
                ]));
            }
        }
        out
    }

    #[test]
    fn initial_clustering_detects_groups() {
        let overlay = DynamicOverlay::new(grid_coords(), ZahnConfig::default());
        assert_eq!(overlay.hfc().cluster_count(), 3);
        assert_eq!(overlay.len(), 12);
    }

    #[test]
    fn join_adopts_nearest_cluster() {
        let mut overlay = DynamicOverlay::new(grid_coords(), ZahnConfig::default());
        let mid_cluster = overlay.hfc().cluster_of(ProxyId::new(4)); // group at 500
        let p = overlay.join(Coordinates::new(vec![510.0, 0.0]));
        assert_eq!(overlay.hfc().cluster_of(p), mid_cluster);
        assert_eq!(overlay.len(), 13);
        // HFC invariants still hold.
        for i in overlay.hfc().clusters() {
            for j in overlay.hfc().clusters() {
                if i != j {
                    let pair = overlay.hfc().border(i, j);
                    assert_eq!(overlay.hfc().cluster_of(pair.local), i);
                    assert_eq!(overlay.hfc().cluster_of(pair.remote), j);
                }
            }
        }
    }

    #[test]
    fn leave_swaps_last_proxy_in() {
        let mut overlay = DynamicOverlay::new(grid_coords(), ZahnConfig::default());
        let last_coords = Coordinates::new(vec![1000.0 + 15.0, 0.0]);
        assert_eq!(overlay.delays().coordinates(ProxyId::new(11)), &last_coords);
        let moved = overlay.leave(ProxyId::new(0));
        assert_eq!(moved, Some(ProxyId::new(0)));
        assert_eq!(overlay.len(), 11);
        // The former last proxy now answers at id 0.
        assert_eq!(overlay.delays().coordinates(ProxyId::new(0)), &last_coords);
        // Leaving the actual last slot moves nobody.
        let moved = overlay.leave(ProxyId::new(10));
        assert_eq!(moved, None);
    }

    #[test]
    fn membership_events_are_incremental() {
        let mut overlay = DynamicOverlay::new(grid_coords(), ZahnConfig::default());
        for i in 0..4 {
            overlay.join(Coordinates::new(vec![20.0 + i as f64, 0.0]));
        }
        overlay.leave(ProxyId::new(3));
        overlay.leave(ProxyId::new(7));
        let stats = overlay.churn_stats();
        assert_eq!(stats.incremental_joins, 4);
        assert_eq!(stats.incremental_leaves, 2);
        assert_eq!(
            stats.full_rebuilds, 0,
            "no event may trigger a full rebuild"
        );
        // The incrementally maintained topology matches a from-scratch
        // build over the same membership.
        let scratch = HfcTopology::build(
            &Clustering::from_labels(&overlay.labels()),
            overlay.delays(),
        );
        assert_eq!(overlay.hfc().snapshot(), scratch.snapshot());
    }

    #[test]
    fn drift_threshold_triggers_automatic_rebuild() {
        let mut overlay = DynamicOverlay::new(grid_coords(), ZahnConfig::default())
            .with_restructure_threshold(0.02);
        // Plenty of ill-fitting joins: newcomers land between groups,
        // degrading quality until the periodic check fires a rebuild.
        for i in 0..32 {
            overlay.join(Coordinates::new(vec![150.0 + (i % 8) as f64 * 25.0, 0.0]));
        }
        assert!(
            overlay.churn_stats().full_rebuilds >= 1,
            "drift past the threshold must trigger the fallback"
        );
    }

    #[test]
    fn churn_degrades_quality_and_restructure_recovers() {
        let mut overlay = DynamicOverlay::new(grid_coords(), ZahnConfig::default());
        let before = overlay.quality().expect("multi-cluster quality");
        // A wave of newcomers lands between the original groups — with
        // join-nearest they get absorbed into ill-fitting clusters.
        for i in 0..8 {
            overlay.join(Coordinates::new(vec![230.0 + (i as f64) * 10.0, 0.0]));
        }
        let degraded = overlay.quality().expect("still multi-cluster");
        assert!(
            degraded > before,
            "churn should hurt quality: {degraded} vs {before}"
        );
        overlay.restructure();
        let recovered = overlay.quality().expect("still multi-cluster");
        assert!(
            recovered <= degraded,
            "restructure should not worsen quality: {recovered} vs {degraded}"
        );
    }

    #[test]
    fn threshold_triggered_restructure() {
        let mut overlay = DynamicOverlay::new(grid_coords(), ZahnConfig::default());
        // Pristine clustering: no restructure needed at a lax threshold.
        assert!(!overlay.restructure_if_needed(0.5));
        for i in 0..8 {
            overlay.join(Coordinates::new(vec![230.0 + (i as f64) * 10.0, 0.0]));
        }
        let degraded = overlay.quality().unwrap();
        if degraded > 0.05 {
            assert!(overlay.restructure_if_needed(0.05));
        }
    }

    #[test]
    #[should_panic(expected = "last proxy")]
    fn last_proxy_cannot_leave() {
        let mut overlay = DynamicOverlay::new(
            vec![Coordinates::new(vec![0.0, 0.0])],
            ZahnConfig::default(),
        );
        let _ = overlay.leave(ProxyId::new(0));
    }
}
