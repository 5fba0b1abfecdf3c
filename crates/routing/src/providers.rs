//! Provider lookup: which proxies carry a given service.

use son_overlay::{ProxyId, ServiceId, ServiceSet};
use son_state::SctP;
use std::collections::BTreeMap;

/// Answers "which proxies provide service `s`?".
pub trait ProviderLookup {
    /// The proxies carrying `service`, in ascending id order.
    fn providers(&self, service: ServiceId) -> &[ProxyId];
}

/// A prebuilt inverted index from services to providers.
///
/// # Example
///
/// ```
/// use son_overlay::{ServiceId, ServiceSet};
/// use son_routing::{ProviderIndex, ProviderLookup};
///
/// let sets = vec![
///     ServiceSet::from_iter([ServiceId::new(0)]),
///     ServiceSet::from_iter([ServiceId::new(0), ServiceId::new(1)]),
/// ];
/// let index = ProviderIndex::from_service_sets(&sets);
/// assert_eq!(index.providers(ServiceId::new(0)).len(), 2);
/// assert_eq!(index.providers(ServiceId::new(9)).len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProviderIndex {
    map: BTreeMap<ServiceId, Vec<ProxyId>>,
    empty: Vec<ProxyId>,
}

impl ProviderIndex {
    /// Builds the index from one service set per proxy, where proxy `i`
    /// is `ProxyId::new(i)`.
    pub fn from_service_sets(sets: &[ServiceSet]) -> Self {
        Self::from_entries(
            sets.iter()
                .enumerate()
                .map(|(i, set)| (ProxyId::new(i), set)),
        )
    }

    /// Builds the index from explicit `(proxy, services)` entries (e.g.
    /// a subset of proxies — one cluster).
    pub fn from_entries<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (ProxyId, &'a ServiceSet)>,
    {
        let mut map: BTreeMap<ServiceId, Vec<ProxyId>> = BTreeMap::new();
        for (proxy, set) in entries {
            for service in set.iter() {
                map.entry(service).or_default().push(proxy);
            }
        }
        Self::from_unsorted(map)
    }

    fn from_unsorted(mut map: BTreeMap<ServiceId, Vec<ProxyId>>) -> Self {
        for list in map.values_mut() {
            list.sort();
            list.dedup();
        }
        ProviderIndex {
            map,
            empty: Vec::new(),
        }
    }

    /// Builds the index from a converged per-cluster capability table.
    pub fn from_sctp(sctp: &SctP) -> Self {
        Self::from_entries(sctp.iter())
    }

    /// The union of several indexes — every cluster's, say, giving the
    /// global view.
    pub(crate) fn union(parts: &[ProviderIndex]) -> Self {
        let mut map: BTreeMap<ServiceId, Vec<ProxyId>> = BTreeMap::new();
        for part in parts {
            for (&service, providers) in &part.map {
                map.entry(service).or_default().extend_from_slice(providers);
            }
        }
        Self::from_unsorted(map)
    }

    /// Number of distinct services with at least one provider.
    pub fn service_count(&self) -> usize {
        self.map.len()
    }
}

impl ProviderLookup for ProviderIndex {
    fn providers(&self, service: ServiceId) -> &[ProxyId] {
        self.map.get(&service).unwrap_or(&self.empty)
    }
}

impl<T: ProviderLookup + ?Sized> ProviderLookup for &T {
    fn providers(&self, service: ServiceId) -> &[ProxyId] {
        (**self).providers(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_inverts_sets() {
        let sets = vec![
            ServiceSet::from_iter([ServiceId::new(0), ServiceId::new(1)]),
            ServiceSet::from_iter([ServiceId::new(1)]),
            ServiceSet::new(),
        ];
        let index = ProviderIndex::from_service_sets(&sets);
        assert_eq!(index.providers(ServiceId::new(0)), &[ProxyId::new(0)]);
        assert_eq!(
            index.providers(ServiceId::new(1)),
            &[ProxyId::new(0), ProxyId::new(1)]
        );
        assert!(index.providers(ServiceId::new(2)).is_empty());
        assert_eq!(index.service_count(), 2);
    }

    #[test]
    fn from_entries_respects_explicit_ids() {
        let set = ServiceSet::from_iter([ServiceId::new(3)]);
        let index = ProviderIndex::from_entries([(ProxyId::new(17), &set)]);
        assert_eq!(index.providers(ServiceId::new(3)), &[ProxyId::new(17)]);
    }

    #[test]
    fn union_of_parts_equals_the_whole() {
        let sets = [
            ServiceSet::from_iter([ServiceId::new(0), ServiceId::new(1)]),
            ServiceSet::new(),
            ServiceSet::from_iter([ServiceId::new(1)]),
            ServiceSet::from_iter([ServiceId::new(0), ServiceId::new(2)]),
        ];
        let part = |ids: &[usize]| {
            ProviderIndex::from_entries(ids.iter().map(|&i| (ProxyId::new(i), &sets[i])))
        };
        let union = ProviderIndex::union(&[part(&[3, 1]), part(&[2, 0])]);
        let whole = ProviderIndex::from_service_sets(&sets);
        assert_eq!(union.map, whole.map);
    }

    #[test]
    fn from_sctp_matches_table() {
        let mut sctp = SctP::new();
        sctp.update(ProxyId::new(4), ServiceSet::from_iter([ServiceId::new(2)]));
        sctp.update(
            ProxyId::new(1),
            ServiceSet::from_iter([ServiceId::new(2), ServiceId::new(5)]),
        );
        let index = ProviderIndex::from_sctp(&sctp);
        assert_eq!(
            index.providers(ServiceId::new(2)),
            &[ProxyId::new(1), ProxyId::new(4)]
        );
        assert_eq!(index.providers(ServiceId::new(5)), &[ProxyId::new(1)]);
    }
}
