//! Services: interned names and capability sets.
//!
//! The paper assumes "each service can be uniquely named" and that a
//! proxy's service capability information (SCI) "is represented as a
//! set of service names" (Section 1). [`ServiceRegistry`] interns names
//! into dense [`ServiceId`]s; [`ServiceSet`] is an SCI set with the
//! union operation used for aggregation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A uniquely named service, interned by a [`ServiceRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(u32);

impl ServiceId {
    /// Creates an id from a raw index (ids are normally obtained via
    /// [`ServiceRegistry::intern`]).
    pub fn new(index: usize) -> Self {
        ServiceId(index as u32)
    }

    /// Dense index of this service.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Interns service names to dense [`ServiceId`]s and back.
///
/// # Example
///
/// ```
/// use son_overlay::ServiceRegistry;
///
/// let mut reg = ServiceRegistry::new();
/// let a = reg.intern("watermark");
/// let b = reg.intern("watermark");
/// assert_eq!(a, b);
/// assert_eq!(reg.name(a), "watermark");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    names: Vec<String>,
    /// `names` inverted, so interning k names is O(k), not O(k²).
    ids: HashMap<String, ServiceId>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> ServiceId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = ServiceId::new(self.names.len());
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<ServiceId> {
        self.ids.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not interned by this registry.
    pub fn name(&self, id: ServiceId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned services.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no service has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all interned ids.
    pub fn ids(&self) -> impl Iterator<Item = ServiceId> + '_ {
        (0..self.names.len()).map(ServiceId::new)
    }
}

/// A set of services — a proxy's or a cluster's service capability
/// information.
///
/// Aggregation (Section 4, footnote 5) is set union:
/// `S = S₁ ∪ S₂ ∪ … ∪ Sₘ`.
///
/// A set is an immutable, sorted, duplicate-free slice of ids behind a
/// reference count: one exact-size allocation per distinct set and none
/// for the empty one. `clone` shares the slice, so a table row can sit
/// in every message, table and router that mentions it without being
/// copied; `insert`, `merge` and `extend` are copy-on-write — they
/// build a new slice only when something is actually added, and never
/// touch the slice other clones still see.
///
/// # Example
///
/// ```
/// use son_overlay::{ServiceId, ServiceSet};
///
/// let a = ServiceSet::from_iter([ServiceId::new(0), ServiceId::new(1)]);
/// let b = ServiceSet::from_iter([ServiceId::new(1), ServiceId::new(2)]);
/// let union = a.union(&b);
/// assert_eq!(union.len(), 3);
/// assert!(union.contains(ServiceId::new(2)));
/// ```
#[derive(Clone, Default)]
pub struct ServiceSet(
    /// Ascending, unique, and never `Some` of an empty slice.
    Option<Arc<[ServiceId]>>,
);

impl ServiceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes ownership of ids that are already ascending and unique.
    fn from_sorted(ids: Vec<ServiceId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        ServiceSet((!ids.is_empty()).then(|| ids.into()))
    }

    fn ids(&self) -> &[ServiceId] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// Adds a service; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: ServiceId) -> bool {
        let ids = self.ids();
        let Err(at) = ids.binary_search(&id) else {
            return false;
        };
        let mut grown = Vec::with_capacity(ids.len() + 1);
        grown.extend_from_slice(&ids[..at]);
        grown.push(id);
        grown.extend_from_slice(&ids[at..]);
        *self = Self::from_sorted(grown);
        true
    }

    /// Returns `true` if `id` is in the set.
    pub fn contains(&self, id: ServiceId) -> bool {
        self.ids().binary_search(&id).is_ok()
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.ids().len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The union of this set and `other` (SCI aggregation).
    pub fn union(&self, other: &ServiceSet) -> ServiceSet {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// In-place union. Allocates only when the result is a set neither
    /// side already holds: `other ⊆ self` leaves `self` as it is, and
    /// `self ⊆ other` makes it share `other`'s slice.
    pub fn merge(&mut self, other: &ServiceSet) {
        if self == other {
            return;
        }
        let (ours, theirs) = (self.ids(), other.ids());
        // One ordered walk counts what `other` would add.
        let mut rest = ours;
        let mut added = 0;
        for id in theirs {
            let skip = rest.partition_point(|held| held < id);
            rest = &rest[skip..];
            added += usize::from(rest.first() != Some(id));
        }
        if added == 0 {
            return;
        }
        if ours.len() + added == theirs.len() {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(ours.len() + added);
        let (mut a, mut b) = (ours, theirs);
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            merged.push(*x.min(y));
            if x <= y {
                a = &a[1..];
            }
            if y <= x {
                b = &b[1..];
            }
        }
        merged.extend_from_slice(a);
        merged.extend_from_slice(b);
        *self = Self::from_sorted(merged);
    }

    /// Iterates over the services in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.ids().iter().copied()
    }
}

/// Content equality: two sets are equal when they hold the same ids,
/// whatever their allocation — sharing one only makes the answer free.
impl PartialEq for ServiceSet {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.ids(), other.ids());
        std::ptr::eq(a, b) || a == b
    }
}

impl Eq for ServiceSet {}

impl FromIterator<ServiceId> for ServiceSet {
    fn from_iter<I: IntoIterator<Item = ServiceId>>(iter: I) -> Self {
        let mut ids: Vec<ServiceId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self::from_sorted(ids)
    }
}

impl Extend<ServiceId> for ServiceSet {
    fn extend<I: IntoIterator<Item = ServiceId>>(&mut self, iter: I) {
        self.merge(&iter.into_iter().collect());
    }
}

impl fmt::Debug for ServiceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.ids()).finish()
    }
}

impl fmt::Display for ServiceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut reg = ServiceRegistry::new();
        let a = reg.intern("transcode");
        let b = reg.intern("compress");
        let a2 = reg.intern("transcode");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.name(b), "compress");
        assert_eq!(reg.get("compress"), Some(b));
        assert_eq!(reg.get("missing"), None);
    }

    #[test]
    fn ids_enumerates_in_order() {
        let mut reg = ServiceRegistry::new();
        let ids: Vec<ServiceId> = ["a", "b", "c"].iter().map(|n| reg.intern(n)).collect();
        assert_eq!(reg.ids().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let a = ServiceSet::from_iter([ServiceId::new(0), ServiceId::new(2)]);
        let b = ServiceSet::from_iter([ServiceId::new(1), ServiceId::new(2)]);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&a), a);
        let mut c = a.clone();
        c.merge(&b);
        assert_eq!(c, a.union(&b));
    }

    #[test]
    fn empty_set_behaves() {
        let e = ServiceSet::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.contains(ServiceId::new(0)));
        let a = ServiceSet::from_iter([ServiceId::new(5)]);
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn display_formats() {
        let s = ServiceSet::from_iter([ServiceId::new(1), ServiceId::new(0)]);
        assert_eq!(s.to_string(), "{s0, s1}");
        assert_eq!(ServiceSet::new().to_string(), "{}");
    }

    #[test]
    fn interning_many_names_stays_linear() {
        let mut reg = ServiceRegistry::new();
        let names: Vec<String> = (0..20_000).map(|i| format!("service-{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(reg.intern(name), ServiceId::new(i));
        }
        // Second pass: every name is known, nothing is added.
        for (i, name) in names.iter().enumerate().rev() {
            assert_eq!(reg.intern(name), ServiceId::new(i));
            assert_eq!(reg.get(name), Some(ServiceId::new(i)));
        }
        assert_eq!(reg.len(), names.len());
        assert_eq!(reg.name(ServiceId::new(19_999)), "service-19999");
        assert!(reg.ids().map(ServiceId::index).eq(0..names.len()));
    }

    #[test]
    fn empty_sets_allocate_nothing_and_clones_share() {
        assert!(ServiceSet::new().0.is_none());
        assert!(ServiceSet::from_iter([]).0.is_none());
        let mut e = ServiceSet::new();
        e.merge(&ServiceSet::new());
        e.extend([]);
        assert!(e.0.is_none());
        let a = ServiceSet::from_iter([ServiceId::new(3), ServiceId::new(1)]);
        assert!(std::ptr::eq(a.ids(), a.clone().ids()), "clone shares");
        // Nothing to add: the slice stays the one it was. Everything
        // to add: the other side's slice is shared, not copied.
        let mut b = a.clone();
        b.merge(&ServiceSet::from_iter([ServiceId::new(3)]));
        assert!(!b.insert(ServiceId::new(1)));
        assert!(std::ptr::eq(a.ids(), b.ids()));
        let mut c = ServiceSet::from_iter([ServiceId::new(1)]);
        c.merge(&a);
        assert!(std::ptr::eq(a.ids(), c.ids()));
    }
}

/// [`ServiceSet`] against a `BTreeSet` — the representation it had —
/// over random operation sequences.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Ids are drawn from `1..=UNIVERSE`, so 0 is below every least
    /// element and `UNIVERSE + 1` above every greatest.
    const UNIVERSE: usize = 24;

    type Pair = (ServiceSet, BTreeSet<ServiceId>);

    fn ids(raw: &[usize]) -> impl Iterator<Item = ServiceId> + '_ {
        raw.iter().map(|&i| ServiceId::new(i))
    }

    /// What `Display` printed when the set was a `BTreeSet`.
    fn displayed(oracle: &BTreeSet<ServiceId>) -> String {
        let items: Vec<String> = oracle.iter().map(ServiceId::to_string).collect();
        format!("{{{}}}", items.join(", "))
    }

    fn check(slots: &[Pair]) -> Result<(), TestCaseError> {
        for (set, oracle) in slots {
            let seen: Vec<ServiceId> = set.iter().collect();
            prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "ascending: {seen:?}");
            prop_assert_eq!(&seen, &oracle.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.is_empty(), oracle.is_empty());
            for id in (0..=UNIVERSE + 1).map(ServiceId::new) {
                prop_assert_eq!(set.contains(id), oracle.contains(&id), "contains {}", id);
            }
            prop_assert_eq!(set.to_string(), displayed(oracle));
            // Equal to the same content in an allocation of its own.
            prop_assert_eq!(set, &oracle.iter().copied().collect::<ServiceSet>());
            for (other, other_oracle) in slots {
                prop_assert_eq!(set == other, oracle == other_oracle);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn service_set_matches_a_btreeset(
            steps in proptest::collection::vec(
                (0usize..6, 0usize..3, 0usize..3,
                 proptest::collection::vec(1usize..UNIVERSE + 1, 0..9)),
                1..48,
            ),
        ) {
            let mut slots: Vec<Pair> = vec![Pair::default(); 3];
            for (op, a, b, raw) in steps {
                let other = slots[b].clone();
                match op {
                    0 => {
                        for id in ids(&raw) {
                            let (set, oracle) = &mut slots[a];
                            prop_assert_eq!(set.insert(id), oracle.insert(id));
                        }
                    }
                    1 => {
                        slots[a].0.merge(&other.0);
                        slots[a].1.extend(other.1.iter().copied());
                    }
                    2 => {
                        let union = slots[a].0.union(&other.0);
                        // `union` leaves both operands as they were.
                        prop_assert_eq!(&other.0, &slots[b].0);
                        slots[a].1.extend(other.1.iter().copied());
                        slots[a].0 = union;
                    }
                    3 => {
                        slots[a].0.extend(ids(&raw));
                        slots[a].1.extend(ids(&raw));
                    }
                    4 => slots[a] = (ids(&raw).collect(), ids(&raw).collect()),
                    _ => {
                        // Mutating a clone never reaches its original.
                        let (mut clone, mut oracle) = other.clone();
                        for id in ids(&raw) {
                            clone.insert(id);
                            oracle.insert(id);
                        }
                        clone.merge(&slots[a].0);
                        oracle.extend(slots[a].1.iter().copied());
                        prop_assert_eq!(&slots[b], &other, "original changed");
                        slots[a] = (clone, oracle);
                    }
                }
                check(&slots)?;
            }
        }
    }
}
