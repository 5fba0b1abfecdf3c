//! Ground-truth convergence checking for the state protocol.
//!
//! The expected converged state of an overlay is fully determined by
//! the cluster structure and the (static) installed service sets:
//! every proxy's `SCT_P` must equal its cluster's full table and its
//! `SCT_C` must name every cluster's aggregate. The checker computes
//! that ground truth once and then compares any set of live tables
//! against it, counting *stale entries* — missing, spurious, or
//! wrong-valued rows — instead of a bare converged/not-converged bit.
//!
//! Crashed proxies are excluded from the comparison: a node that is
//! down has no tables to be wrong about. Entries *about* a crashed
//! proxy held by live proxies are still required to be correct,
//! because installed services are static and survive restarts.

use crate::tables::{Sct, SctC, SctP};
use son_overlay::{HfcTopology, ProxyId, ServiceSet};
use std::cmp::Ordering;

/// How far a set of live tables is from the ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Staleness {
    /// `SCT_P` rows that are missing, spurious, or hold the wrong
    /// service set, summed over all checked proxies.
    pub stale_sctp: usize,
    /// `SCT_C` rows in the same condition.
    pub stale_sctc: usize,
    /// Proxies that were compared (live proxies).
    pub checked_proxies: usize,
}

impl Staleness {
    /// Total stale rows across both tables.
    pub fn total(&self) -> usize {
        self.stale_sctp + self.stale_sctc
    }

    /// `true` when every checked table matched the ground truth.
    pub fn is_converged(&self) -> bool {
        self.total() == 0
    }
}

/// Precomputed ground truth for one overlay.
#[derive(Debug, Clone)]
pub struct ConvergenceChecker {
    expected_sctp: Vec<SctP>,
    expected_sctc: SctC,
}

impl ConvergenceChecker {
    /// Builds the expected converged tables from the cluster structure
    /// and installed services.
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count.
    pub fn new(hfc: &HfcTopology, services: &[ServiceSet]) -> Self {
        assert_eq!(
            services.len(),
            hfc.proxy_count(),
            "one service set per proxy required"
        );
        let mut expected_sctp = vec![SctP::new(); hfc.proxy_count()];
        let mut expected_sctc = SctC::new();
        for c in hfc.clusters() {
            let mut cluster_table = SctP::new();
            for &m in hfc.members(c) {
                cluster_table.update(m, services[m.index()].clone());
            }
            expected_sctc.update(c, cluster_table.aggregate());
            for &m in hfc.members(c) {
                expected_sctp[m.index()] = cluster_table.clone();
            }
        }
        ConvergenceChecker {
            expected_sctp,
            expected_sctc,
        }
    }

    /// The ground-truth tables of one proxy.
    ///
    /// # Panics
    ///
    /// Panics if `proxy` is out of range.
    pub fn expected_tables_of(&self, proxy: ProxyId) -> (&SctP, &SctC) {
        (&self.expected_sctp[proxy.index()], &self.expected_sctc)
    }

    /// Compares live tables against the ground truth. `tables` yields
    /// `(proxy, sctp, sctc)` for every proxy to check; pass only live
    /// proxies — the caller knows which nodes are down.
    pub fn staleness<'a, I>(&self, tables: I) -> Staleness
    where
        I: IntoIterator<Item = (ProxyId, &'a SctP, &'a SctC)>,
    {
        let mut out = Staleness::default();
        for (proxy, sctp, sctc) in tables {
            out.checked_proxies += 1;
            out.stale_sctp += stale_rows(sctp, &self.expected_sctp[proxy.index()]);
            out.stale_sctc += stale_rows(sctc, &self.expected_sctc);
        }
        out
    }
}

/// Rows of `held` that are missing, spurious or hold another set than
/// in `expected`: one merge-join of the two id-ordered tables.
fn stale_rows<K: Ord + Copy>(held: &Sct<K>, expected: &Sct<K>) -> usize {
    let (mut held, mut expected) = (held.iter().peekable(), expected.iter().peekable());
    let mut stale = 0;
    loop {
        let order = match (held.peek(), expected.peek()) {
            (None, None) => return stale,
            (Some(h), Some(e)) => h.0.cmp(&e.0),
            (h, _) => h.map_or(Ordering::Greater, |_| Ordering::Less),
        };
        let h = order.is_le().then(|| held.next()).flatten();
        let e = order.is_ge().then(|| expected.next()).flatten();
        stale += usize::from(h.map(|row| row.1) != e.map(|row| row.1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::{ClusterId, DelayMatrix, ServiceId};

    fn world() -> (HfcTopology, Vec<ServiceSet>) {
        let xs: [f64; 4] = [0.0, 1.0, 50.0, 51.0];
        let n = xs.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (xs[i] - xs[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let hfc = HfcTopology::build(&Clustering::from_labels(&[0, 0, 1, 1]), &delays);
        let services: Vec<ServiceSet> = (0..n)
            .map(|i| ServiceSet::from_iter([ServiceId::new(i)]))
            .collect();
        (hfc, services)
    }

    /// Converged tables for the fixture, built by hand.
    fn converged_tables(hfc: &HfcTopology, services: &[ServiceSet]) -> Vec<(SctP, SctC)> {
        let checker = ConvergenceChecker::new(hfc, services);
        (0..services.len())
            .map(|p| {
                let (sctp, sctc) = checker.expected_tables_of(ProxyId::new(p));
                (sctp.clone(), sctc.clone())
            })
            .collect()
    }

    #[test]
    fn ground_truth_is_converged() {
        let (hfc, services) = world();
        let checker = ConvergenceChecker::new(&hfc, &services);
        let tables = converged_tables(&hfc, &services);
        let staleness = checker.staleness(
            tables
                .iter()
                .enumerate()
                .map(|(p, (sctp, sctc))| (ProxyId::new(p), sctp, sctc)),
        );
        assert!(staleness.is_converged());
        assert_eq!(staleness.checked_proxies, 4);
    }

    #[test]
    fn missing_wrong_and_spurious_rows_are_all_stale() {
        let (hfc, services) = world();
        let checker = ConvergenceChecker::new(&hfc, &services);
        let mut tables = converged_tables(&hfc, &services);
        // Proxy 0: wrong-valued SCT_P row about proxy 1.
        tables[0]
            .0
            .update(ProxyId::new(1), ServiceSet::from_iter([ServiceId::new(9)]));
        // Proxy 1: spurious SCT_C row about a cluster that doesn't
        // exist.
        tables[1].1.update(
            ClusterId::new(7),
            ServiceSet::from_iter([ServiceId::new(0)]),
        );
        // Proxy 2: missing SCT_P — fresh table knows nobody.
        tables[2].0 = SctP::new();
        let staleness = checker.staleness(
            tables
                .iter()
                .enumerate()
                .map(|(p, (sctp, sctc))| (ProxyId::new(p), sctp, sctc)),
        );
        assert_eq!(staleness.stale_sctp, 1 + 2, "one wrong + two missing");
        assert_eq!(staleness.stale_sctc, 1, "one spurious");
        assert!(!staleness.is_converged());
    }

    #[test]
    fn crashed_proxies_are_simply_not_passed_in() {
        let (hfc, services) = world();
        let checker = ConvergenceChecker::new(&hfc, &services);
        let mut tables = converged_tables(&hfc, &services);
        tables[3].0 = SctP::new(); // proxy 3 crashed with empty tables
        let staleness = checker.staleness(
            tables
                .iter()
                .enumerate()
                .take(3)
                .map(|(p, (sctp, sctc))| (ProxyId::new(p), sctp, sctc)),
        );
        assert!(staleness.is_converged());
        assert_eq!(staleness.checked_proxies, 3);
    }

    #[test]
    #[should_panic(expected = "one service set per proxy")]
    fn wrong_service_count_panics() {
        let (hfc, _) = world();
        let _ = ConvergenceChecker::new(&hfc, &[]);
    }
}
