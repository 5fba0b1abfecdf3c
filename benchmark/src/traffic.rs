//! The benchmark's own seeded generators. `--seed` enters the run here
//! and nowhere else: the program sees only what these produce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_core::{ProxyId, ServiceId, ServiceRequest};
use std::collections::HashSet;

/// An independent stream seed for purpose `tag` of a run seeded with
/// `seed` (SplitMix64 finalizer, so neighbouring seeds and tags do not
/// give neighbouring streams).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `requests` without exact repeats, first occurrences in order.
pub fn distinct(requests: Vec<ServiceRequest>) -> Vec<ServiceRequest> {
    let mut seen: HashSet<(usize, usize, Vec<usize>)> = HashSet::new();
    requests
        .into_iter()
        .filter(|r| {
            // The facade generates linear graphs, which the stage
            // services in order identify.
            let chain = r
                .graph
                .stage_ids()
                .map(|s| r.graph.service(s).index())
                .collect();
            seen.insert((r.source.index(), r.destination.index(), chain))
        })
        .collect()
}

/// Per-proxy admission capacities, uniform in `lo..=hi`.
pub fn capacities(proxies: usize, lo: u32, hi: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..proxies).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// `items` in a seeded random order.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
    items
}

/// `items` cut into batches of `batch`, the batches in a seeded random order and each shuffled within: what
/// a batch holds stays fixed, when it comes and in what order does not.
pub fn shuffled_batches<T: Clone>(items: &[T], batch: usize, seed: u64) -> Vec<T> {
    let batches: Vec<&[T]> = items.chunks(batch).collect();
    shuffled(batches, seed)
        .into_iter()
        .enumerate()
        .flat_map(|(k, b)| shuffled(b.to_vec(), derive(seed, k as u64 + 1)))
        .collect()
}

/// The `turn`-th window of `size` items from `ring`, wrapping round.
pub fn rotation<T: Copy>(ring: &[T], turn: usize, size: usize) -> Vec<T> {
    (0..size.min(ring.len()))
        .map(|k| ring[(turn * size + k) % ring.len()])
        .collect()
}

/// The service chains the non-repeating workload draws shapes from:
/// ten overlapping chains of three.
pub fn chains_of_three() -> Vec<Vec<ServiceId>> {
    (0..10)
        .map(|k| (k..k + 3).map(ServiceId::new).collect())
        .collect()
}

/// Proxies that are neither a border nor an endpoint of any request in
/// `requests`: taking one down removes a provider and a relay but
/// leaves every request with a source, a destination and its borders.
pub fn expendable(
    proxies: usize,
    is_border: impl Fn(ProxyId) -> bool,
    requests: &[ServiceRequest],
) -> Vec<ProxyId> {
    let endpoints: HashSet<ProxyId> = requests
        .iter()
        .flat_map(|r| [r.source, r.destination])
        .collect();
    (0..proxies)
        .map(ProxyId::new)
        .filter(|&p| !is_border(p) && !endpoints.contains(&p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_core::{zipf_request_mix, ServiceOverlay, SonConfig};

    /// Everything a run derives from its seed, as bytes.
    fn generation(overlay: &ServiceOverlay, seed: u64) -> String {
        let pool = distinct(overlay.generate_client_requests(96, derive(seed, 1)));
        let stream = zipf_request_mix(&pool, 500, 0.9, derive(seed, 2));
        let caps = capacities(60, 32, 96, derive(seed, 3));
        let spare = shuffled(
            expendable(60, |p| overlay.hfc().is_border(p), &pool),
            derive(seed, 4),
        );
        format!("{stream:?}{caps:?}{:?}", rotation(&spare, 3, 4))
    }

    #[test]
    fn one_seed_generates_the_same_bytes_twice() {
        let overlay = ServiceOverlay::build(&SonConfig::small(42));
        let first = generation(&overlay, 7);
        assert_eq!(first.as_bytes(), generation(&overlay, 7).as_bytes());
        assert_ne!(first, generation(&overlay, 8));
    }

    #[test]
    fn distinct_drops_only_exact_repeats() {
        let overlay = ServiceOverlay::build(&SonConfig::small(42));
        let base = overlay.generate_client_requests(20, 5);
        let mut doubled = base.clone();
        doubled.extend(base.iter().cloned());
        assert_eq!(distinct(doubled), distinct(base));
    }

    #[test]
    fn rotation_wraps_and_shuffle_permutes() {
        assert_eq!(rotation(&[1, 2, 3, 4, 5], 2, 2), vec![5, 1]);
        assert_eq!(rotation(&[1, 2], 0, 5), vec![1, 2]);
        let mut shuffled_items = shuffled((0..50).collect::<Vec<_>>(), 9);
        assert_ne!(shuffled_items, (0..50).collect::<Vec<_>>());
        shuffled_items.sort_unstable();
        assert_eq!(shuffled_items, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_batches_keep_their_members() {
        let items: Vec<usize> = (0..12).collect();
        let mixed = shuffled_batches(&items, 4, 3);
        assert_ne!(mixed, items);
        let mut batches: Vec<Vec<usize>> = mixed
            .chunks(4)
            .map(|b| {
                let mut b = b.to_vec();
                b.sort_unstable();
                b
            })
            .collect();
        batches.sort();
        let original: Vec<Vec<usize>> = items.chunks(4).map(<[usize]>::to_vec).collect();
        assert_eq!(batches, original);
        assert_eq!(shuffled_batches(&items, 4, 3), mixed);
    }

    #[test]
    fn expendable_proxies_are_no_border_and_no_endpoint() {
        let overlay = ServiceOverlay::build(&SonConfig::small(42));
        let pool = overlay.generate_client_requests(10, 3);
        let spare = expendable(60, |p| overlay.hfc().is_border(p), &pool);
        assert!(!spare.is_empty());
        for p in spare {
            assert!(!overlay.hfc().is_border(p));
            assert!(pool.iter().all(|r| r.source != p && r.destination != p));
        }
    }
}
