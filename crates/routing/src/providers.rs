//! Provider lookup: which proxies carry a given service.

use son_overlay::{ProxyId, ServiceId, ServiceSet};
use son_state::SctP;

/// Answers "which proxies provide service `s`?".
pub trait ProviderLookup {
    /// The proxies carrying `service`, in ascending id order.
    fn providers(&self, service: ServiceId) -> &[ProxyId];
}

/// A prebuilt inverted index from services to providers: one sorted
/// flat array, looked up by binary search.
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
    /// Every service some proxy carries, ascending.
    services: Vec<ServiceId>,
    /// The providers of `services[i]` are
    /// `proxies[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Providers grouped by service, each group ascending and
    /// deduplicated.
    proxies: Vec<ProxyId>,
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
        I::IntoIter: Clone,
    {
        let entries = entries.into_iter();
        let mut pairs = Vec::with_capacity(entries.clone().map(|(_, set)| set.len()).sum());
        for (proxy, set) in entries {
            pairs.extend(set.iter().map(|service| (service, proxy)));
        }
        Self::from_pairs(pairs)
    }

    /// Sorts and deduplicates `(service, provider)` pairs into the flat
    /// layout.
    fn from_pairs(mut pairs: Vec<(ServiceId, ProxyId)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let keys = 1 + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut index = ProviderIndex {
            services: Vec::with_capacity(keys),
            offsets: Vec::with_capacity(keys + 1),
            proxies: Vec::with_capacity(pairs.len()),
        };
        for (service, proxy) in pairs {
            if index.services.last() != Some(&service) {
                index.services.push(service);
                index.offsets.push(index.offset());
            }
            index.proxies.push(proxy);
        }
        index.offsets.push(index.offset());
        index
    }

    fn offset(&self) -> u32 {
        u32::try_from(self.proxies.len()).expect("fewer than 2^32 (service, provider) pairs")
    }

    /// Builds the index from a converged per-cluster capability table.
    pub fn from_sctp(sctp: &SctP) -> Self {
        Self::from_entries(sctp.iter().collect::<Vec<_>>())
    }

    /// The union of several indexes — every cluster's, say, giving the
    /// global view.
    pub(crate) fn union(parts: &[ProviderIndex]) -> Self {
        let mut pairs = Vec::with_capacity(parts.iter().map(|part| part.proxies.len()).sum());
        for part in parts {
            for (i, &service) in part.services.iter().enumerate() {
                pairs.extend(part.group(i).iter().map(|&proxy| (service, proxy)));
            }
        }
        Self::from_pairs(pairs)
    }

    /// The providers of the `i`-th service.
    fn group(&self, i: usize) -> &[ProxyId] {
        &self.proxies[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl ProviderLookup for ProviderIndex {
    fn providers(&self, service: ServiceId) -> &[ProxyId] {
        match self.services.binary_search(&service) {
            Ok(i) => self.group(i),
            Err(_) => &[],
        }
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
        assert_eq!(union.services, whole.services);
        assert_eq!(union.offsets, whole.offsets);
        assert_eq!(union.proxies, whole.proxies);
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
