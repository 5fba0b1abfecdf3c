//! State-maintenance overhead accounting (paper Section 6.1).
//!
//! Overhead is quantified in *node-states*: the number of entries a
//! proxy keeps in the relevant state table, where an entry may describe
//! a single node or a whole cluster.
//!
//! * **Flat (single-level) topology** — every proxy keeps coordinates
//!   and capabilities of all `n` proxies: `n` node-states each.
//! * **HFC topology** —
//!   * coordinates: own cluster's members plus every border proxy in
//!     the system;
//!   * service capabilities: own cluster's members (`SCT_P`) plus one
//!     aggregate entry per cluster (`SCT_C`).

use son_overlay::{HfcTopology, ProxyId};

/// Which kind of state is being counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverheadKind {
    /// Coordinates-related state (Figure 9(a)).
    Coordinates,
    /// Service-capability-related state (Figure 9(b)).
    ServiceCapability,
}

/// Per-proxy node-state statistics across an overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Mean node-states per proxy.
    pub mean: f64,
    /// Smallest per-proxy count.
    pub min: usize,
    /// Largest per-proxy count.
    pub max: usize,
    /// Number of proxies sampled.
    pub proxies: usize,
}

impl OverheadReport {
    fn from_counts(counts: &[usize]) -> Self {
        assert!(!counts.is_empty(), "overhead over an empty overlay");
        OverheadReport {
            mean: counts.iter().sum::<usize>() as f64 / counts.len() as f64,
            min: counts.iter().copied().min().expect("non-empty"),
            max: counts.iter().copied().max().expect("non-empty"),
            proxies: counts.len(),
        }
    }
}

/// Node-state overhead of a flat (single-level) topology of `n`
/// proxies: every proxy keeps `n` node-states for either kind.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn flat_overhead(n: usize, _kind: OverheadKind) -> OverheadReport {
    assert!(n > 0, "overhead over an empty overlay");
    OverheadReport {
        mean: n as f64,
        min: n,
        max: n,
        proxies: n,
    }
}

/// Node-state overhead of an HFC topology, per proxy.
///
/// # Panics
///
/// Panics if the topology has no proxies.
pub fn hfc_overhead(hfc: &HfcTopology, kind: OverheadKind) -> OverheadReport {
    let counts: Vec<usize> = (0..hfc.proxy_count())
        .map(|p| hfc_overhead_of(hfc, ProxyId::new(p), kind))
        .collect();
    OverheadReport::from_counts(&counts)
}

/// Node-states kept by one specific proxy under HFC.
fn hfc_overhead_of(hfc: &HfcTopology, proxy: ProxyId, kind: OverheadKind) -> usize {
    match kind {
        // Coordinates of all members within the cluster plus all border
        // proxies in the system (deduplicated — own borders are both).
        OverheadKind::Coordinates => hfc.visible_proxies(proxy).len(),
        // SCT_P entries (own cluster members) + SCT_C entries (one per
        // cluster in the system).
        OverheadKind::ServiceCapability => {
            hfc.members(hfc.cluster_of(proxy)).len() + hfc.cluster_count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::DelayMatrix;

    /// 9 proxies in 3 equal clusters at mutual distance far larger
    /// than intra-cluster spread.
    fn world() -> HfcTopology {
        let n = 9;
        let pos: Vec<f64> = (0..n)
            .map(|i| (i / 3) as f64 * 100.0 + (i % 3) as f64)
            .collect();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (pos[i] - pos[j]).abs();
            }
        }
        let labels: Vec<usize> = (0..n).map(|i| i / 3).collect();
        HfcTopology::build(
            &Clustering::from_labels(&labels),
            &DelayMatrix::from_values(n, values),
        )
    }

    #[test]
    fn flat_overhead_is_n() {
        let r = flat_overhead(250, OverheadKind::Coordinates);
        assert_eq!(r.mean, 250.0);
        assert_eq!(r.min, 250);
        assert_eq!(r.max, 250);
        assert_eq!(r.proxies, 250);
    }

    #[test]
    fn hfc_coordinate_overhead_counts_cluster_plus_borders() {
        let hfc = world();
        let borders = hfc.all_border_proxies().len();
        let r = hfc_overhead(&hfc, OverheadKind::Coordinates);
        // Upper bound: 3 own members + all borders; dedup can only
        // lower it.
        assert!(r.max <= 3 + borders);
        assert!(r.min >= 3, "at least the own cluster");
        // And always at most n.
        assert!(r.max <= 9);
    }

    #[test]
    fn hfc_service_overhead_is_members_plus_clusters() {
        let hfc = world();
        let r = hfc_overhead(&hfc, OverheadKind::ServiceCapability);
        assert_eq!(r.mean, (3 + 3) as f64);
        assert_eq!(r.min, 6);
        assert_eq!(r.max, 6);
    }

    #[test]
    fn hfc_beats_flat_for_many_small_clusters() {
        let hfc = world();
        let flat = flat_overhead(hfc.proxy_count(), OverheadKind::ServiceCapability);
        let hier = hfc_overhead(&hfc, OverheadKind::ServiceCapability);
        assert!(hier.mean < flat.mean);
    }

    #[test]
    fn single_cluster_overhead_degenerates_to_flat() {
        let n = 5;
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = if i == j { 0.0 } else { 1.0 };
            }
        }
        let hfc = HfcTopology::build(
            &Clustering::from_labels(&[0; 5]),
            &DelayMatrix::from_values(n, values),
        );
        let coords = hfc_overhead(&hfc, OverheadKind::Coordinates);
        assert_eq!(coords.mean, 5.0);
        let svc = hfc_overhead(&hfc, OverheadKind::ServiceCapability);
        assert_eq!(svc.mean, 6.0, "5 members + 1 cluster aggregate");
    }

    #[test]
    #[should_panic(expected = "empty overlay")]
    fn empty_flat_overhead_panics() {
        let _ = flat_overhead(0, OverheadKind::Coordinates);
    }
}
