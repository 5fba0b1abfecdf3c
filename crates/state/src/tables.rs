//! Service Capability Tables.
//!
//! Both tables are one [`Sct`]: per key a capability set beside the
//! *version* its origin stamped on it (the simulated µs at which the
//! content was produced). The protocol's guard lives here — a row is
//! stale only when its version is *below* the held one; an equal one
//! is re-applied and re-stamped — so a duplicated or reordered
//! delivery can never roll a table backwards. The version-less writes
//! keep the version a row has, 0 when it is new.

use son_overlay::{ClusterId, ProxyId, ServiceId, ServiceSet};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::OnceLock;

/// One versioned row as tree-mode messages carry it: who it describes,
/// what they offer (shared with the table, never copied), and the
/// origin's stamp.
pub type Row<K> = (K, ServiceSet, u64);

/// A Service Capability Table keyed by proxy ([`SctP`]) or cluster
/// ([`SctC`]). Two tables are equal when they hold the same sets for
/// the same keys: versions say when a row was learned, not what it
/// says.
#[derive(Debug, Clone, Default)]
pub struct Sct<K> {
    entries: BTreeMap<K, (ServiceSet, u64)>,
    /// Union of every row: computed when first read, then grown by each
    /// write that adds to a row and dropped by one that replaces a row.
    /// (Dropping it on every change instead costs `setup_s` @
    /// `churn_admit` 0.195 → 0.266 s, ten of ten paired runs.)
    union: OnceLock<ServiceSet>,
}

/// The per-proxy Service Capability Table (`SCT_P`): which services
/// each proxy of the *local cluster* carries.
///
/// # Example
///
/// ```
/// use son_state::SctP;
/// use son_overlay::{ProxyId, ServiceId, ServiceSet};
///
/// let mut sct = SctP::new();
/// sct.update(ProxyId::new(3), ServiceSet::from_iter([ServiceId::new(1)]));
/// assert_eq!(sct.providers_of(ServiceId::new(1)), vec![ProxyId::new(3)]);
/// ```
pub type SctP = Sct<ProxyId>;

/// The per-cluster Service Capability Table (`SCT_C`): the aggregate
/// service set of every cluster in the system.
pub type SctC = Sct<ClusterId>;

impl<K: Ord + Copy> Sct<K> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Sct {
            entries: BTreeMap::new(),
            union: OnceLock::new(),
        }
    }

    /// Installs or refreshes the set of `key`. Returns `true` if the
    /// stored entry changed.
    pub fn update(&mut self, key: K, services: ServiceSet) -> bool {
        self.write(key, &services, None, false) == Some(true)
    }

    /// Re-stamps the row of `key`, if there is one.
    pub(crate) fn stamp(&mut self, key: K, version: u64) {
        if let Some(row) = self.entries.get_mut(&key) {
            row.1 = version;
        }
    }

    /// Writes a row in one look-up. Stamped with a `version`: `None` if
    /// a fresher one is held (nothing is written). Otherwise whether the
    /// stored set changed — replaced by `services`, or with `merge`
    /// grown by them.
    fn write(
        &mut self,
        key: K,
        services: &ServiceSet,
        version: Option<u64>,
        merge: bool,
    ) -> Option<bool> {
        match self.entries.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((services.clone(), version.unwrap_or(0)));
            }
            Entry::Occupied(mut slot) => {
                let (held, held_version) = slot.get_mut();
                if let Some(version) = version {
                    if version < *held_version {
                        return None;
                    }
                    *held_version = version;
                }
                if merge {
                    let before = held.len();
                    held.merge(services);
                    if held.len() == before {
                        return Some(false);
                    }
                } else if held == services {
                    return Some(false);
                } else {
                    // A replaced row may have withdrawn services.
                    *held = services.clone();
                    self.union.take();
                    return Some(true);
                }
            }
        }
        if let Some(union) = self.union.get_mut() {
            union.merge(services);
        }
        Some(true)
    }

    /// The set of `key`, if known.
    pub fn services_of(&self, key: K) -> Option<&ServiceSet> {
        self.entries.get(&key).map(|row| &row.0)
    }

    fn holders_of(&self, service: ServiceId) -> Vec<K> {
        self.iter()
            .filter(|(_, set)| set.contains(service))
            .map(|(key, _)| key)
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, services)` entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &ServiceSet)> {
        self.entries.iter().map(|(&key, row)| (key, &row.0))
    }

    /// Every row with the version held for it, in id order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row<K>> + '_ {
        self.entries
            .iter()
            .map(|(&key, (services, version))| (key, services.clone(), *version))
    }
}

impl<K: Ord + Copy> PartialEq for Sct<K> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<K: Ord + Copy> Eq for Sct<K> {}

impl Sct<ProxyId> {
    /// Installs the set `proxy` stamped at `version`: `None` if a
    /// fresher one is held, else whether the stored set changed.
    pub(crate) fn apply(&mut self, proxy: ProxyId, set: &ServiceSet, version: u64) -> Option<bool> {
        self.write(proxy, set, Some(version), false)
    }

    /// Proxies known to carry `service`, in id order.
    pub fn providers_of(&self, service: ServiceId) -> Vec<ProxyId> {
        self.holders_of(service)
    }

    /// The union of every known proxy's services — the aggregate SCI a
    /// border proxy advertises for its cluster (Section 4, footnote 5).
    pub fn aggregate(&self) -> ServiceSet {
        let rows = || {
            self.entries
                .values()
                .fold(ServiceSet::new(), |all, row| all.union(&row.0))
        };
        self.union.get_or_init(rows).clone()
    }
}

impl Sct<ClusterId> {
    /// Merges `services` into the stored entry of `cluster` (set
    /// union). Returns `true` if the entry grew (or was created).
    ///
    /// With statically installed services, cluster aggregates only ever
    /// grow, so merging makes table updates order-independent: a stale
    /// retransmission can never regress a fresher entry.
    pub fn merge_update(&mut self, cluster: ClusterId, services: &ServiceSet) -> bool {
        self.write(cluster, services, None, true) == Some(true)
    }

    /// [`merge_update`](Self::merge_update) for a row stamped
    /// `version`: `None` if a fresher one is held, else whether the
    /// entry grew.
    pub(crate) fn apply(&mut self, c: ClusterId, set: &ServiceSet, version: u64) -> Option<bool> {
        self.write(c, set, Some(version), true)
    }

    /// Clusters known to offer `service`, in id order.
    pub fn clusters_with(&self, service: ServiceId) -> Vec<ClusterId> {
        self.holders_of(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ServiceSet {
        ids.iter().map(|&i| ServiceId::new(i)).collect()
    }

    #[test]
    fn sctp_update_reports_changes() {
        let mut sct = SctP::new();
        assert!(sct.update(ProxyId::new(0), set(&[1, 2])));
        assert!(!sct.update(ProxyId::new(0), set(&[1, 2])), "same content");
        assert!(sct.update(ProxyId::new(0), set(&[1])), "content changed");
        assert_eq!(sct.len(), 1);
    }

    #[test]
    fn sctp_finds_providers_in_order() {
        let mut sct = SctP::new();
        sct.update(ProxyId::new(5), set(&[1]));
        sct.update(ProxyId::new(2), set(&[1, 3]));
        sct.update(ProxyId::new(9), set(&[3]));
        assert_eq!(
            sct.providers_of(ServiceId::new(1)),
            vec![ProxyId::new(2), ProxyId::new(5)]
        );
        assert!(sct.providers_of(ServiceId::new(7)).is_empty());
    }

    #[test]
    fn sctp_aggregate_is_union() {
        let mut sct = SctP::new();
        sct.update(ProxyId::new(0), set(&[1, 2]));
        sct.update(ProxyId::new(1), set(&[2, 3]));
        assert_eq!(sct.aggregate(), set(&[1, 2, 3]));
        assert_eq!(SctP::new().aggregate(), ServiceSet::new());
    }

    #[test]
    fn sctc_tracks_clusters() {
        let mut sct = SctC::new();
        assert!(sct.is_empty());
        sct.update(ClusterId::new(0), set(&[1]));
        sct.update(ClusterId::new(2), set(&[1, 4]));
        assert_eq!(
            sct.clusters_with(ServiceId::new(1)),
            vec![ClusterId::new(0), ClusterId::new(2)]
        );
        assert_eq!(sct.services_of(ClusterId::new(2)), Some(&set(&[1, 4])));
        assert_eq!(sct.services_of(ClusterId::new(1)), None);
        assert_eq!(sct.iter().count(), 2);
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    fn set(ids: &[usize]) -> ServiceSet {
        ids.iter().map(|&i| ServiceId::new(i)).collect()
    }

    #[test]
    fn merge_update_is_monotone() {
        let mut sct = SctC::new();
        assert!(sct.merge_update(ClusterId::new(0), &set(&[1, 2])));
        // A stale retransmission cannot shrink the entry.
        assert!(!sct.merge_update(ClusterId::new(0), &set(&[1])));
        assert_eq!(sct.services_of(ClusterId::new(0)), Some(&set(&[1, 2])));
        // New services grow it.
        assert!(sct.merge_update(ClusterId::new(0), &set(&[3])));
        assert_eq!(sct.services_of(ClusterId::new(0)), Some(&set(&[1, 2, 3])));
    }

    #[test]
    fn only_a_lower_version_is_stale() {
        let (p, c) = (ProxyId::new(1), ClusterId::new(1));
        let (mut sctp, mut sctc) = (SctP::new(), SctC::new());
        assert_eq!(sctp.apply(p, &set(&[1, 2]), 7), Some(true));
        assert_eq!(sctp.apply(p, &set(&[9]), 6), None, "older: nothing written");
        assert_eq!(sctp.apply(p, &set(&[1, 2]), 7), Some(false), "equal");
        assert_eq!(sctp.apply(p, &set(&[2]), 8), Some(true), "newer replaces");
        assert_eq!(sctp.aggregate(), set(&[2]), "the row withdrew service 1");
        assert!(sctp.update(ProxyId::new(2), set(&[5])));
        assert_eq!(sctp.aggregate(), set(&[2, 5]));
        assert_eq!(sctp.rows().map(|row| row.2).collect::<Vec<_>>(), [8, 0]);
        // SCT_C rows grow by union under the same guard.
        assert_eq!(sctc.apply(c, &set(&[1]), 5), Some(true));
        assert_eq!(sctc.apply(c, &set(&[2]), 4), None);
        assert_eq!(sctc.apply(c, &set(&[1]), 5), Some(false));
        assert_eq!(sctc.apply(c, &set(&[2]), 9), Some(true));
        assert!(!sctc.update(c, set(&[1, 2])), "update keeps the stamp");
        sctc.stamp(ClusterId::new(3), 1);
        assert_eq!(sctc.rows().collect::<Vec<_>>(), [(c, set(&[1, 2]), 9)]);
        // Versions are not content.
        let mut other = SctC::new();
        other.update(c, set(&[2, 1]));
        assert_eq!(sctc, other);
    }

    #[test]
    fn merge_update_is_order_independent() {
        let parts = [set(&[1]), set(&[2, 3]), set(&[1, 4])];
        let mut forward = SctC::new();
        for p in &parts {
            forward.merge_update(ClusterId::new(0), p);
        }
        let mut backward = SctC::new();
        for p in parts.iter().rev() {
            backward.merge_update(ClusterId::new(0), p);
        }
        assert_eq!(
            forward.services_of(ClusterId::new(0)),
            backward.services_of(ClusterId::new(0))
        );
    }
}
