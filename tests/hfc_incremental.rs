//! Property: incremental HFC maintenance is exact.
//!
//! After *any* sequence of joins and leaves applied event-by-event to a
//! [`DynamicOverlay`], the maintained topology has the same clusters
//! and the same border pairs as [`HfcTopology::build`] run from scratch
//! on the final membership — and no full rebuild was ever triggered.
//! Compared through [`HfcSnapshot`], which canonicalises cluster
//! numbering (the incremental path compacts ids by swap-remove, the
//! scratch path numbers by first appearance).

use proptest::prelude::*;
use son_core::membership::DynamicOverlay;
use son_core::{Clustering, Coordinates, HfcTopology, ProxyId, ZahnConfig};

/// Four planted communities, three proxies each — small enough that a
/// from-scratch rebuild per event stays cheap, clustered enough that
/// Zahn finds real structure.
fn seeded_overlay() -> DynamicOverlay {
    let mut coords = Vec::new();
    for c in 0..4 {
        for i in 0..3 {
            coords.push(Coordinates::new(vec![
                c as f64 * 900.0 + i as f64 * 17.0,
                (c % 2) as f64 * 700.0 + i as f64 * 11.0,
            ]));
        }
    }
    DynamicOverlay::new(coords, ZahnConfig::default())
}

// One churn event is (join?, x, y, victim-pick): joins carry a
// coordinate, leaves pick a victim by index modulo the current size.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn incremental_hfc_equals_scratch_build(
        events in proptest::collection::vec(
            (any::<bool>(), 0.0f64..4000.0, 0.0f64..1400.0, 0usize..1000),
            0..30,
        )
    ) {
        let mut overlay = seeded_overlay();
        for &(join, x, y, pick) in &events {
            if join || overlay.len() <= 4 {
                overlay.join(Coordinates::new(vec![x, y]));
            } else {
                overlay.leave(ProxyId::new(pick % overlay.len()));
            }
            let scratch = HfcTopology::build(
                &Clustering::from_labels(&overlay.labels()),
                overlay.delays(),
            );
            prop_assert_eq!(overlay.hfc().snapshot(), scratch.snapshot());
        }
        // Every event above was handled incrementally.
        prop_assert_eq!(overlay.churn_stats().full_rebuilds, 0);
    }
}

/// The old definition of `is_border`, through the public surface:
/// whether `proxy` is its cluster's border toward some other cluster.
fn is_border_by_scan(hfc: &HfcTopology, proxy: ProxyId) -> bool {
    let own = hfc.cluster_of(proxy);
    hfc.clusters()
        .any(|c| c != own && hfc.border(own, c).local == proxy)
}

/// Every proxy's border duties, counted from scratch over all ordered
/// cluster pairs.
fn duties_by_scan(hfc: &HfcTopology) -> Vec<usize> {
    let mut counts = vec![0; hfc.proxy_count()];
    for i in hfc.clusters() {
        for j in hfc.clusters().filter(|&j| j != i) {
            counts[hfc.border(i, j).local.index()] += 1;
        }
    }
    counts
}

// The same churn as above, with leaves weighted toward the last id (the
// swap-remove rename) and small clusters that leaves empty.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn border_duties_match_a_scan_through_churn(
        events in proptest::collection::vec(
            (0u8..3, 0.0f64..4000.0, 0.0f64..1400.0, 0usize..1000),
            0..40,
        )
    ) {
        let mut overlay = seeded_overlay();
        for &(kind, x, y, pick) in &events {
            let n = overlay.len();
            if kind == 0 || n <= 3 {
                overlay.join(Coordinates::new(vec![x, y]));
            } else {
                overlay.leave(ProxyId::new(if kind == 1 { n - 1 } else { pick % n }));
            }
            let hfc = overlay.hfc();
            prop_assert_eq!(hfc.border_duty_counts(), duties_by_scan(hfc));
            for p in (0..hfc.proxy_count()).map(ProxyId::new) {
                prop_assert_eq!(hfc.is_border(p), is_border_by_scan(hfc, p), "{}", p);
            }
        }
    }
}
