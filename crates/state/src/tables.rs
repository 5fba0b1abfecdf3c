//! Service Capability Tables.
//!
//! Both tables are one [`Sct`]: per key a capability set beside the
//! *version* its origin stamped on it (the simulated µs at which the
//! content was produced). The protocol's guard lives here — a row is
//! stale only when its version is *below* the held one; an equal one
//! is re-applied and re-stamped — so a duplicated or reordered
//! delivery can never roll a table backwards. The version-less writes
//! keep the version a row has, 0 when it is new. A write that changes
//! a set also ticks the holder's change clock onto the row (and its
//! change log): that is what tree syncs ship deltas by.

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
    entries: BTreeMap<K, Held>,
    /// Union of every row: computed when first read, then grown by each
    /// write that adds to a row and dropped by one that replaces a row.
    /// (Dropping it on every change instead costs `setup_s` @
    /// `churn_admit` 0.195 → 0.266 s, ten of ten paired runs.)
    union: OnceLock<ServiceSet>,
    /// `(change, key)` of every change after change `floor`, in order,
    /// so a delta is read without scanning the table. (On a two-core
    /// x86-64 machine, 10 000 proxies under 5 % loss converge in 24 s;
    /// scanning for every delta instead takes 43–46 s, and never
    /// trimming the log raises peak RSS 542 → 601 MB.)
    log: Vec<(u32, K)>,
    floor: u32,
}

#[derive(Debug, Clone)]
struct Held {
    services: ServiceSet,
    version: u64,
    /// The change that wrote `services` (0: version-less, never shipped).
    seq: u32,
    /// The sender whose row `services` is, if any (else [`NOBODY`]).
    from: u32,
}

const NOBODY: u32 = u32::MAX;

/// A row's origin version, the holder's change clock (fewer than 2³²
/// changes an incarnation) and the row's sender, if any.
pub(crate) type Stamp<'a> = (u64, &'a mut u32, Option<ProxyId>);

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
/// assert_eq!(sct.aggregate(), ServiceSet::from_iter([ServiceId::new(1)]));
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
            log: Vec::new(),
            floor: 0,
        }
    }

    /// Installs or refreshes the set of `key`. Returns `true` if the
    /// stored entry changed.
    pub fn update(&mut self, key: K, services: ServiceSet) -> bool {
        self.write(key, &services, false, None) == Some(true)
    }

    /// Re-stamps the row of `key`, if there is one.
    pub(crate) fn stamp(&mut self, key: K, version: u64) {
        if let Some(row) = self.entries.get_mut(&key) {
            row.version = version;
        }
    }

    /// Writes a row in one look-up. Stamped: `None` if a fresher version
    /// is held (nothing is written). Otherwise whether the
    /// stored set changed — replaced by `set`, or with `merge` grown by
    /// it; a change ticks the stamp's clock onto the row.
    fn write(&mut self, key: K, set: &ServiceSet, merge: bool, at: Option<Stamp>) -> Option<bool> {
        let version = at.as_ref().map(|stamp| stamp.0);
        let held = match self.entries.entry(key) {
            Entry::Vacant(slot) => slot.insert(Held {
                services: set.clone(),
                version: version.unwrap_or(0),
                seq: 0,
                from: NOBODY,
            }),
            Entry::Occupied(slot) => {
                let held = slot.into_mut();
                if let Some(version) = version {
                    if version < held.version {
                        return None;
                    }
                    held.version = version;
                }
                if merge {
                    let before = held.services.len();
                    held.services.merge(set);
                    if held.services.len() == before {
                        return Some(false);
                    }
                } else if held.services == *set {
                    return Some(false);
                } else {
                    // A replaced row may have withdrawn services.
                    held.services = set.clone();
                    self.union.take();
                }
                held
            }
        };
        if let Some((_, clock, from)) = at {
            *clock += 1;
            held.seq = *clock;
            held.from = from
                .filter(|_| held.services == *set)
                .map_or(NOBODY, |from| from.index() as u32);
            self.log.push((*clock, key));
        }
        if let Some(union) = self.union.get_mut() {
            union.merge(set);
        }
        Some(true)
    }

    /// The set of `key`, if known.
    pub fn services_of(&self, key: K) -> Option<&ServiceSet> {
        self.entries.get(&key).map(|row| &row.services)
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
        self.entries.iter().map(|(&key, row)| (key, &row.services))
    }

    /// Every row with the version held for it, in id order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row<K>> + '_ {
        self.entries
            .iter()
            .map(|(&key, row)| (key, row.services.clone(), row.version))
    }

    /// The rows changed after change `base` — without those `to` sent,
    /// unless `base` is 0, which asks for every numbered row.
    pub(crate) fn rows_since(&self, base: u32, to: ProxyId) -> Vec<Row<K>> {
        let row = |key: K, held: &Held| (key, held.services.clone(), held.version);
        let to = to.index() as u32;
        if base < self.floor || base == 0 {
            let all = self.entries.iter();
            let since = all.filter(|(_, held)| held.seq > base && (base == 0 || held.from != to));
            return since.map(|(&key, held)| row(key, held)).collect();
        }
        let start = self.log.partition_point(|&(seq, _)| seq <= base);
        let changed = self.log[start..]
            .iter()
            .map(|(seq, key)| (seq, key, &self.entries[key]));
        let fresh = changed.filter(|(&seq, _, held)| held.seq == seq && held.from != to);
        fresh.map(|(_, &key, held)| row(key, held)).collect()
    }

    /// Drops the log up to change `upto`; deltas from before it scan.
    pub(crate) fn forget(&mut self, upto: u32) {
        if upto > self.floor {
            let end = self.log.partition_point(|&(seq, _)| seq <= upto);
            self.log.drain(..end);
            self.floor = upto;
        }
    }
}

impl<K: Ord + Copy> PartialEq for Sct<K> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<K: Ord + Copy> Eq for Sct<K> {}

impl Sct<ProxyId> {
    /// Installs the set `proxy` under `stamp`: `None` if a fresher
    /// version is held, else whether the stored set changed.
    pub(crate) fn apply(&mut self, proxy: ProxyId, set: &ServiceSet, stamp: Stamp) -> Option<bool> {
        self.write(proxy, set, false, Some(stamp))
    }

    /// The union of every known proxy's services — the aggregate SCI a
    /// border proxy advertises for its cluster (Section 4, footnote 5).
    pub fn aggregate(&self) -> ServiceSet {
        let rows = || {
            self.entries
                .values()
                .fold(ServiceSet::new(), |all, row| all.union(&row.services))
        };
        self.union.get_or_init(rows).clone()
    }
}

impl Sct<ClusterId> {
    /// Merges `set` into the stored entry of `c` (set union) under
    /// `stamp`: `None` if a fresher version is held, else whether the
    /// entry grew (or was created).
    ///
    /// With statically installed services, cluster aggregates only ever
    /// grow, so merging makes table updates order-independent: a stale
    /// retransmission can never regress a fresher entry.
    pub(crate) fn apply(&mut self, c: ClusterId, set: &ServiceSet, stamp: Stamp) -> Option<bool> {
        self.write(c, set, true, Some(stamp))
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
            sct.holders_of(ServiceId::new(1)),
            vec![ProxyId::new(2), ProxyId::new(5)]
        );
        assert!(sct.holders_of(ServiceId::new(7)).is_empty());
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

    /// An unversioned merge: whether the entry of `c` grew.
    fn merge(sct: &mut SctC, c: ClusterId, set: &ServiceSet) -> bool {
        sct.write(c, set, true, None) == Some(true)
    }

    #[test]
    fn merge_update_is_monotone() {
        let mut sct = SctC::new();
        assert!(merge(&mut sct, ClusterId::new(0), &set(&[1, 2])));
        // A stale retransmission cannot shrink the entry.
        assert!(!merge(&mut sct, ClusterId::new(0), &set(&[1])));
        assert_eq!(sct.services_of(ClusterId::new(0)), Some(&set(&[1, 2])));
        // New services grow it.
        assert!(merge(&mut sct, ClusterId::new(0), &set(&[3])));
        assert_eq!(sct.services_of(ClusterId::new(0)), Some(&set(&[1, 2, 3])));
    }

    #[test]
    fn only_a_lower_version_is_stale() {
        let (p, c) = (ProxyId::new(1), ClusterId::new(1));
        let (mut sctp, mut sctc) = (SctP::new(), SctC::new());
        let mut clock = 0;
        let mut apply_p = |set, version| sctp.apply(p, &set, (version, &mut clock, None));
        assert_eq!(apply_p(set(&[1, 2]), 7), Some(true));
        assert_eq!(apply_p(set(&[9]), 6), None, "older: nothing written");
        assert_eq!(apply_p(set(&[1, 2]), 7), Some(false), "equal");
        assert_eq!(apply_p(set(&[2]), 8), Some(true), "newer replaces");
        assert_eq!(sctp.aggregate(), set(&[2]), "the row withdrew service 1");
        assert!(sctp.update(ProxyId::new(2), set(&[5])));
        assert_eq!(sctp.aggregate(), set(&[2, 5]));
        assert_eq!(sctp.rows().map(|row| row.2).collect::<Vec<_>>(), [8, 0]);
        // SCT_C rows grow by union under the same guard.
        let mut apply_c = |set, version| sctc.apply(c, &set, (version, &mut clock, None));
        assert_eq!(apply_c(set(&[1]), 5), Some(true));
        assert_eq!(apply_c(set(&[2]), 4), None);
        assert_eq!(apply_c(set(&[1]), 5), Some(false));
        assert_eq!(apply_c(set(&[2]), 9), Some(true));
        assert!(!sctc.update(c, set(&[1, 2])), "update keeps the stamp");
        sctc.stamp(ClusterId::new(3), 1);
        assert_eq!(sctc.rows().collect::<Vec<_>>(), [(c, set(&[1, 2]), 9)]);
        assert_eq!(clock, 4, "one tick per changed row");
        // Versions are not content.
        let mut other = SctC::new();
        other.update(c, set(&[2, 1]));
        assert_eq!(sctc, other);
    }

    #[test]
    fn deltas_hold_what_changed_and_skip_its_sender() {
        let (a, b) = (ProxyId::new(7), ProxyId::new(8));
        let c = |i| ClusterId::new(i);
        let mut sctc = SctC::new();
        let mut clock = 0;
        let keys = |rows: Vec<Row<ClusterId>>| rows.iter().map(|r| r.0.index()).collect::<Vec<_>>();
        sctc.apply(c(0), &set(&[1]), (5, &mut clock, Some(a)));
        sctc.apply(c(1), &set(&[2]), (5, &mut clock, Some(b)));
        sctc.apply(c(2), &set(&[3]), (5, &mut clock, None));
        assert_eq!(clock, 3);
        assert_eq!(keys(sctc.rows_since(0, a)), [0, 1, 2], "0: all");
        assert_eq!(keys(sctc.rows_since(1, a)), [1, 2]);
        assert_eq!(keys(sctc.rows_since(1, b)), [2], "b sent row 1");
        assert_eq!(keys(sctc.rows_since(3, b)), Vec::<usize>::new());
        // A newer version with the same content is no change.
        sctc.apply(c(0), &set(&[1]), (6, &mut clock, Some(b)));
        assert_eq!(clock, 3);
        // A union larger than what the sender sent is shipped back to it.
        sctc.apply(c(0), &set(&[4]), (7, &mut clock, Some(a)));
        assert_eq!(keys(sctc.rows_since(3, a)), [0]);
        // One the sender's row covers is not.
        sctc.apply(c(1), &set(&[2, 5]), (7, &mut clock, Some(a)));
        assert_eq!(keys(sctc.rows_since(3, a)), [0]);
        assert_eq!(keys(sctc.rows_since(3, b)), [0, 1]);
        // Deltas are read from the change log, or below its floor by a
        // scan, alike.
        sctc.forget(4);
        assert_eq!(keys(sctc.rows_since(3, b)), [0, 1]);
        assert_eq!(keys(sctc.rows_since(4, b)), [1]);
        // Version-less writes are never shipped.
        sctc.update(c(3), set(&[6]));
        assert_eq!(keys(sctc.rows_since(0, a)), [0, 1, 2]);
    }

    #[test]
    fn merge_update_is_order_independent() {
        let parts = [set(&[1]), set(&[2, 3]), set(&[1, 4])];
        let mut forward = SctC::new();
        for p in &parts {
            merge(&mut forward, ClusterId::new(0), p);
        }
        let mut backward = SctC::new();
        for p in parts.iter().rev() {
            merge(&mut backward, ClusterId::new(0), p);
        }
        assert_eq!(
            forward.services_of(ClusterId::new(0)),
            backward.services_of(ClusterId::new(0))
        );
    }
}
