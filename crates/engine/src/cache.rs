//! The sharded, epoch-invalidated route cache.
//!
//! CDN server-ranking studies (Gürsun) observe that request locality
//! makes route decisions highly cacheable *per ingress partition*: the
//! same (ingress cluster, request) pair recurs far more often than raw
//! proxy-pair traffic would suggest. The cache therefore keys entries
//! by **(ingress cluster, request signature)** — the signature is a
//! canonical encoding of the full request (source, destination, and
//! service-graph shape), so a hit is *exact*: the cached path is the
//! one a fresh router would return for that request.
//!
//! **Epoch invalidation.** Every entry is stamped with the epoch of the
//! snapshot it was computed under. A lookup passes the epoch of the
//! snapshot currently being served; an entry from any other epoch is
//! treated as a miss and dropped on sight. Membership events and
//! state-protocol updates install a new snapshot under a bumped epoch,
//! so cached paths are never served stale — without any scan-the-cache
//! flush on the churn path.
//!
//! **Sharding.** Entries hash-partition across [`Mutex`]ed shards so
//! concurrent workers rarely contend; counters are atomics outside the
//! locks.
//!
//! **Keys.** A key is its `u32` words plus their hash, computed once at
//! encode: the hash picks the shard and keys the shard's map, and
//! entries compare by full words. Lookups borrow a per-worker key
//! re-encoded in place; only an insert allocates, exactly its words.

use son_overlay::{ClusterId, ServiceGraph, ServiceRequest};
use son_routing::{CspFrontier, RouteError, ServicePath};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hashes key words: a rotate-xor-multiply step per word, then a
/// final fold and multiply so that both halves are well mixed — the
/// shard index reads the high half, the map the low bits and the top
/// seven. It is unkeyed, so shard placement (and with it FIFO
/// eviction) repeats from run to run, at the price of an exposure to
/// hash flooding (DESIGN.md §10).
fn hash_words(words: &[u32]) -> u64 {
    let mut h = words.len() as u64;
    for &w in words {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    let h = (h ^ (h >> 32)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 32)
}

/// Which of `shards` a key with `hash` lives in.
fn shard_index(hash: u64, shards: usize) -> usize {
    ((hash >> 32) % shards as u64) as usize
}

/// Words of either key for `request`: three header words, then the
/// service DAG — its stage count, `n` services, `n` predecessor counts
/// and the `E` predecessor edges.
fn key_len(request: &ServiceRequest) -> usize {
    let graph = &request.graph;
    let edges: usize = graph.stage_ids().map(|s| graph.predecessors(s).len()).sum();
    3 + 1 + 2 * graph.len() + edges
}

/// An encoded key: three header words, then `graph` losslessly (the
/// stage count, every stage's service, then every stage's predecessor
/// count and predecessors), and the hash of it all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Key {
    hash: u64,
    words: Vec<u32>,
}

impl Key {
    /// Overwrites the key in place, reusing its buffer.
    fn set(&mut self, header: [usize; 3], graph: &ServiceGraph) {
        let words = &mut self.words;
        words.clear();
        words.extend(header.map(|i| i as u32));
        words.push(graph.len() as u32);
        for stage in graph.stage_ids() {
            words.push(graph.service(stage).index() as u32);
        }
        for stage in graph.stage_ids() {
            let preds = graph.predecessors(stage);
            words.push(preds.len() as u32);
            words.extend(preds.iter().map(|p| p.index() as u32));
        }
        self.hash = hash_words(words);
    }

    /// An empty key with room for exactly `request`'s words.
    fn for_request(request: &ServiceRequest) -> Key {
        let words = Vec::with_capacity(key_len(request));
        Key { hash: 0, words }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The shard maps' hasher: a key writes its precomputed hash, and this
/// hands it back.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("cache keys hash as one precomputed u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<PassThrough>>;

/// Canonical cache key: the ingress cluster plus a lossless encoding
/// of the request (source, destination, stage services, stage edges).
///
/// Keys compare by value — two requests collide only if they are the
/// same request entering at the same cluster, so cache hits can never
/// return a path for a different request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteKey(Key);

impl RouteKey {
    /// Encodes `request` as seen from `ingress`, in one allocation.
    pub fn encode(ingress: ClusterId, request: &ServiceRequest) -> Self {
        let mut key = RouteKey(Key::for_request(request));
        key.reencode(ingress, request);
        key
    }

    /// A key no request encodes to, a buffer to re-encode into.
    pub(crate) fn empty() -> Self {
        RouteKey(Key::default())
    }

    /// The ingress cluster component.
    pub fn ingress(&self) -> ClusterId {
        ClusterId::new(self.0.words[0] as usize)
    }

    /// [`RouteKey::encode`] into this key's buffer, which allocates
    /// only while the buffer grows.
    pub(crate) fn reencode(&mut self, ingress: ClusterId, request: &ServiceRequest) {
        let (source, destination) = (request.source.index(), request.destination.index());
        let header = [ingress.index(), source, destination];
        self.0.set(header, &request.graph);
    }
}

#[derive(Debug)]
struct Entry {
    epoch: u64,
    path: ServicePath,
}

/// One shard: a map plus FIFO insertion order for eviction.
#[derive(Debug, Default)]
struct Shard {
    entries: KeyMap<RouteKey, Entry>,
    order: VecDeque<RouteKey>,
}

/// Bounds a FIFO eviction queue by its map. A key dropped on sight
/// (stale) or by hand and then inserted again is queued again, and
/// while the map has room nothing dequeues the old occurrence — under
/// epoch churn the queue would grow by a key per re-insert. Once the
/// queue holds more than twice the map, it keeps the first occurrence
/// of each resident key, which is the one eviction reaches first.
fn compact<K: Hash + Eq, V>(order: &mut VecDeque<K>, entries: &KeyMap<K, V>) {
    if order.len() > 2 * entries.len() {
        let mut queued = HashSet::with_capacity(entries.len());
        order.retain(|key| {
            entries
                .get_key_value(key)
                .is_some_and(|(resident, _)| queued.insert(resident))
        });
    }
}

/// Monotonic counters describing cache behavior since construction —
/// across all tiers: the exact-key route cache, the CSP frontier tier,
/// the stale-while-revalidate path, and the negative cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (same epoch).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an entry from another epoch (counted in
    /// `misses` too; the entry is dropped).
    pub stale_drops: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries removed to make room (capacity evictions only).
    pub evictions: u64,
    /// Exact-key misses answered by replaying a cached CSP frontier
    /// (the inter-cluster solve was skipped).
    pub csp_hits: u64,
    /// Exact-key misses that also missed the CSP tier (a full solve
    /// ran; the frontier was cached for later requests).
    pub csp_misses: u64,
    /// Requests served a route from the previous epoch under the
    /// stale-while-revalidate budget.
    pub stale_served: u64,
    /// Stale-served entries recomputed against the current snapshot by
    /// a worker after its serving loop.
    pub revalidations: u64,
    /// Unroutable requests fast-rejected from the negative cache
    /// without re-running the failed solve.
    pub negative_hits: u64,
}

impl CacheStats {
    /// Counter deltas between two snapshots of the same cache: what
    /// happened after `earlier` was taken.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stale_drops: self.stale_drops - earlier.stale_drops,
            insertions: self.insertions - earlier.insertions,
            evictions: self.evictions - earlier.evictions,
            csp_hits: self.csp_hits - earlier.csp_hits,
            csp_misses: self.csp_misses - earlier.csp_misses,
            stale_served: self.stale_served - earlier.stale_served,
            revalidations: self.revalidations - earlier.revalidations,
            negative_hits: self.negative_hits - earlier.negative_hits,
        }
    }

    /// Hits over all lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a stale-while-revalidate lookup resolved (see
/// [`RouteCache::lookup_swr`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SwrLookup {
    /// Entry present at the serving epoch — a plain hit.
    Hit(ServicePath),
    /// Entry from exactly the previous epoch, handed out under the
    /// stale-serve budget. The entry stays resident until a worker
    /// revalidates (overwrites) it.
    Stale(ServicePath),
    /// No entry for the key.
    Miss,
    /// Entry from another epoch outside the budget (or too old);
    /// dropped.
    StaleDrop,
}

/// The concurrent route cache. See the module docs for the design.
#[derive(Debug)]
pub struct RouteCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_drops: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    stale_served: AtomicU64,
}

impl RouteCache {
    /// Creates a cache with `shards` lock partitions and room for
    /// `capacity` entries in total (rounded up to a multiple of the
    /// shard count; at least one entry per shard).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "the cache needs at least one shard");
        RouteCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &RouteKey) -> &Mutex<Shard> {
        &self.shards[shard_index(key.0.hash, self.shards.len())]
    }

    /// Looks `key` up for a batch serving snapshot `epoch`. An entry
    /// from a different epoch is dropped and reported as a miss.
    pub fn lookup(&self, key: &RouteKey, epoch: u64) -> Option<ServicePath> {
        match self.lookup_swr(key, epoch, &AtomicU64::new(0)) {
            SwrLookup::Hit(path) => Some(path),
            _ => None,
        }
    }

    /// Like [`RouteCache::lookup`], but with stale-while-revalidate: an
    /// entry from exactly the previous epoch may be handed out if a
    /// token can be taken from `budget` (the engine resets the budget on
    /// every snapshot install). A stale-served entry stays resident —
    /// the caller owes a revalidation that overwrites it at the current
    /// epoch — so one hot key may consume several tokens within a
    /// batch, and the budget bounds the *total* number of stale routes
    /// handed out, not the number of distinct keys.
    ///
    /// The token is taken under the shard lock, so the budget is never
    /// exceeded even under concurrent lookups. With an exhausted (or
    /// zero) budget no entry is served stale: this is
    /// [`RouteCache::lookup`] with the miss told apart from the stale
    /// drop.
    pub fn lookup_swr(&self, key: &RouteKey, epoch: u64, budget: &AtomicU64) -> SwrLookup {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.entries.get(key) {
            Some(entry) if entry.epoch == epoch => {
                let path = entry.path.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                SwrLookup::Hit(path)
            }
            Some(entry)
                if entry.epoch + 1 == epoch
                    && budget
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                        .is_ok() =>
            {
                let path = entry.path.clone();
                drop(shard);
                self.stale_served.fetch_add(1, Ordering::Relaxed);
                SwrLookup::Stale(path)
            }
            Some(_) => {
                shard.entries.remove(key);
                drop(shard);
                self.stale_drops.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                SwrLookup::StaleDrop
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                SwrLookup::Miss
            }
        }
    }

    /// Stores a computed path under `key` for `epoch`, evicting in FIFO
    /// order when the shard is full.
    pub fn insert(&self, key: RouteKey, epoch: u64, path: ServicePath) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        // Evict until there is room. Keys in `order` whose entry was
        // already dropped (stale lookup or overwrite) cost nothing.
        while shard.entries.len() >= self.capacity_per_shard {
            let Some(victim) = shard.order.pop_front() else {
                break;
            };
            if shard.entries.remove(&victim).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if shard
            .entries
            .insert(key.clone(), Entry { epoch, path })
            .is_none()
        {
            shard.order.push_back(key);
            let Shard { entries, order } = &mut *shard;
            compact(order, entries);
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops the entry under `key` regardless of its epoch, reporting
    /// whether one was resident. Used when live health information
    /// invalidates a cached path that epoch checks alone would keep
    /// serving (the entry's epoch is still current — the *world*
    /// changed, not the snapshot).
    pub fn remove(&self, key: &RouteKey) -> bool {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.entries.remove(key).is_some()
    }

    /// Number of resident entries (all epochs).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the counters. The CSP-tier, negative,
    /// and revalidation counters belong to their own structures; the
    /// engine merges all tiers in [`Engine::cache_stats`].
    ///
    /// [`Engine::cache_stats`]: crate::Engine::cache_stats
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            ..CacheStats::default()
        }
    }
}

/// Key of the CSP frontier tier: the parts of a request the
/// cluster-level solve actually depends on — ingress cluster, source
/// class, destination *cluster*, and the service-DAG shape. The
/// concrete destination proxy (and, for sources the planner has no
/// coordinates for, the concrete source) is deliberately absent:
/// requests differing only in those endpoints share one frontier and
/// replay the cheap closing + intra-cluster legs per request.
///
/// The source class mirrors the router's back-tracking visibility rule:
/// a source whose coordinates the destination proxy knows (a border, or
/// a member of the destination's cluster) contributes internal-distance
/// terms to the DP, so it keys by identity; any other source is
/// cost-invisible and collapses to a shared sentinel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CspKey(Key);

impl CspKey {
    /// Encodes the frontier key for `request` entering at `ingress`
    /// with its destination in `dest_cluster`. `known_source` carries
    /// the source proxy's index when the planner knows its coordinates
    /// (it is a border or lives in `dest_cluster`), `None` otherwise.
    ///
    /// Returns `None` for empty service graphs — their cluster-level
    /// cost is a single concrete-endpoint lookup with nothing to
    /// reuse, so they bypass the CSP tier.
    pub fn encode(
        ingress: ClusterId,
        dest_cluster: ClusterId,
        known_source: Option<u32>,
        request: &ServiceRequest,
    ) -> Option<Self> {
        if request.graph.is_empty() {
            return None;
        }
        let mut key = CspKey(Key::for_request(request));
        key.reencode(ingress, dest_cluster, known_source, request);
        Some(key)
    }

    /// A key no request encodes to, a buffer to re-encode into.
    pub(crate) fn empty() -> Self {
        CspKey(Key::default())
    }

    /// [`CspKey::encode`] into this key's buffer, which allocates only
    /// while the buffer grows; `None` (and the key unchanged) for an
    /// empty service graph.
    pub(crate) fn reencode(
        &mut self,
        ingress: ClusterId,
        dest_cluster: ClusterId,
        known_source: Option<u32>,
        request: &ServiceRequest,
    ) -> Option<&CspKey> {
        if request.graph.is_empty() {
            return None;
        }
        let source = known_source.unwrap_or(u32::MAX) as usize;
        let header = [ingress.index(), source, dest_cluster.index()];
        self.0.set(header, &request.graph);
        Some(self)
    }
}

#[derive(Debug)]
struct CspEntry {
    epoch: u64,
    frontier: Arc<CspFrontier>,
}

#[derive(Debug, Default)]
struct CspShard {
    entries: KeyMap<CspKey, CspEntry>,
    order: VecDeque<CspKey>,
}

/// The CSP frontier tier: sharded, epoch-strict (no stale-serve — a
/// frontier from another epoch is dropped on sight), FIFO-bounded.
/// Values are shared [`Arc`]s because one frontier may carry many
/// candidates and is replayed by many concurrent workers.
#[derive(Debug)]
pub struct CspCache {
    shards: Vec<Mutex<CspShard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CspCache {
    /// Creates a frontier cache with `shards` lock partitions and room
    /// for `capacity` entries in total.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "the cache needs at least one shard");
        CspCache {
            shards: (0..shards)
                .map(|_| Mutex::new(CspShard::default()))
                .collect(),
            capacity_per_shard: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CspKey) -> &Mutex<CspShard> {
        &self.shards[shard_index(key.0.hash, self.shards.len())]
    }

    /// Looks `key` up for the serving `epoch`; entries from any other
    /// epoch are dropped and counted as misses.
    pub fn lookup(&self, key: &CspKey, epoch: u64) -> Option<Arc<CspFrontier>> {
        let mut shard = self.shard(key).lock().expect("csp shard poisoned");
        match shard.entries.get(key) {
            Some(entry) if entry.epoch == epoch => {
                let frontier = Arc::clone(&entry.frontier);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(frontier)
            }
            Some(_) => {
                shard.entries.remove(key);
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a solved frontier under `key` for `epoch`, evicting in
    /// FIFO order when the shard is full.
    pub fn insert(&self, key: CspKey, epoch: u64, frontier: Arc<CspFrontier>) {
        let mut shard = self.shard(&key).lock().expect("csp shard poisoned");
        while shard.entries.len() >= self.capacity_per_shard {
            let Some(victim) = shard.order.pop_front() else {
                break;
            };
            shard.entries.remove(&victim);
        }
        if shard
            .entries
            .insert(key.clone(), CspEntry { epoch, frontier })
            .is_none()
        {
            shard.order.push_back(key);
            let CspShard { entries, order } = &mut *shard;
            compact(order, entries);
        }
    }

    /// Number of resident frontiers (all epochs).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("csp shard poisoned").entries.len())
            .sum()
    }

    /// Returns `true` if no frontiers are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[derive(Debug)]
struct NegEntry {
    epoch: u64,
    health_gen: u64,
    error: RouteError,
}

/// Negative cache: remembers deterministic routing failures
/// (`NoProvider`, `Infeasible`) so repeated unroutable requests
/// fast-reject instead of re-running the full failed solve.
///
/// Entries are valid only while **both** the snapshot epoch and the
/// engine's health generation (bumped on every live `set_health`)
/// match the values they were recorded under — any world change, even
/// one unrelated to the blocking proxy, re-runs the solve. That
/// over-invalidation is deliberate: it guarantees no key can stay
/// poisoned after the blocking proxy recovers.
#[derive(Debug)]
pub struct NegativeCache {
    inner: Mutex<NegShard>,
    capacity: usize,
    hits: AtomicU64,
}

#[derive(Debug, Default)]
struct NegShard {
    entries: KeyMap<RouteKey, NegEntry>,
    order: VecDeque<RouteKey>,
}

impl NegativeCache {
    /// Creates a negative cache bounded to `capacity` entries (FIFO).
    pub fn new(capacity: usize) -> Self {
        NegativeCache {
            inner: Mutex::new(NegShard::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
        }
    }

    /// Returns the recorded error if a valid entry exists for `key`;
    /// invalid entries (other epoch or health generation) are dropped
    /// on sight.
    pub fn lookup(&self, key: &RouteKey, epoch: u64, health_gen: u64) -> Option<RouteError> {
        let mut inner = self.inner.lock().expect("negative cache poisoned");
        match inner.entries.get(key) {
            Some(entry) if entry.epoch == epoch && entry.health_gen == health_gen => {
                let error = entry.error.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(error)
            }
            Some(_) => {
                inner.entries.remove(key);
                None
            }
            None => None,
        }
    }

    /// Records a failed solve under `key` for (`epoch`, `health_gen`).
    pub fn insert(&self, key: RouteKey, epoch: u64, health_gen: u64, error: RouteError) {
        let mut inner = self.inner.lock().expect("negative cache poisoned");
        while inner.entries.len() >= self.capacity {
            let Some(victim) = inner.order.pop_front() else {
                break;
            };
            inner.entries.remove(&victim);
        }
        if inner
            .entries
            .insert(
                key.clone(),
                NegEntry {
                    epoch,
                    health_gen,
                    error,
                },
            )
            .is_none()
        {
            inner.order.push_back(key);
            let NegShard { entries, order } = &mut *inner;
            compact(order, entries);
        }
    }

    /// Number of resident entries (valid or not).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("negative cache poisoned")
            .entries
            .len()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fast rejects served so far.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::{ProxyId, ServiceGraph, ServiceId};
    use son_routing::PathBuilder;

    fn request(src: usize, services: &[usize], dst: usize) -> ServiceRequest {
        ServiceRequest::new(
            ProxyId::new(src),
            ServiceGraph::linear(services.iter().map(|&s| ServiceId::new(s)).collect()),
            ProxyId::new(dst),
        )
    }

    fn path(src: usize, dst: usize) -> ServicePath {
        PathBuilder::start(ProxyId::new(src)).finish(ProxyId::new(dst))
    }

    #[test]
    fn keys_distinguish_requests_and_ingress() {
        let a = RouteKey::encode(ClusterId::new(0), &request(1, &[2, 3], 4));
        let b = RouteKey::encode(ClusterId::new(0), &request(1, &[3, 2], 4));
        let c = RouteKey::encode(ClusterId::new(1), &request(1, &[2, 3], 4));
        let a2 = RouteKey::encode(ClusterId::new(0), &request(1, &[2, 3], 4));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, a2);
        assert_eq!(a.ingress(), ClusterId::new(0));
    }

    #[test]
    fn keys_distinguish_graph_shapes() {
        // Same stage services, different dependency edges.
        let linear = request(0, &[1, 2], 3);
        let graph = ServiceGraph::builder()
            .stage(ServiceId::new(1))
            .stage(ServiceId::new(2))
            .build()
            .unwrap();
        let parallel = ServiceRequest::new(ProxyId::new(0), graph, ProxyId::new(3));
        assert_ne!(
            RouteKey::encode(ClusterId::new(0), &linear),
            RouteKey::encode(ClusterId::new(0), &parallel)
        );
    }

    /// Chains of 0–12 services and a diamond: every key is exactly as
    /// long as `key_len` reserves (`3 + 1 + 2n + E` words for `n`
    /// stages and `E` predecessor edges). Its buffer is made with that
    /// capacity and ends holding that many words, so it never grew:
    /// an owned key is one allocation of exactly its words. Re-encoding
    /// into a reused key gives the same key.
    #[test]
    fn keys_fill_exactly_their_reservation() {
        let diamond = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::builder()
                .stage(ServiceId::new(1))
                .stage(ServiceId::new(2))
                .stage(ServiceId::new(3))
                .stage(ServiceId::new(4))
                .edge(0, 1)
                .edge(0, 2)
                .edge(1, 3)
                .edge(2, 3)
                .build()
                .unwrap(),
            ProxyId::new(9),
        );
        let chains =
            (0..=12).map(|n| (request(0, &(1..=n).collect::<Vec<_>>(), 9), n, n.max(1) - 1));
        // One key re-encoded over the previous, longer or shorter.
        let mut reused = RouteKey::empty();
        for (request, n, edges) in chains.chain([(diamond, 4, 4)]) {
            let want = 4 + 2 * n + edges;
            assert_eq!(key_len(&request), want, "{n} stages, {edges} edges");
            let key = RouteKey::encode(ClusterId::new(3), &request);
            assert_eq!((key.0.words.len(), key.0.words.capacity()), (want, want));
            reused.reencode(ClusterId::new(3), &request);
            assert_eq!((&reused.0.words, reused.0.hash), (&key.0.words, key.0.hash));
            if let Some(key) = CspKey::encode(ClusterId::new(3), ClusterId::new(1), None, &request)
            {
                assert_eq!((key.0.words.len(), key.0.words.capacity()), (want, want));
            }
        }
    }

    fn request_with_edges(services: &[usize], edges: &[(usize, usize)]) -> ServiceRequest {
        let mut graph = ServiceGraph::builder();
        for &s in services {
            graph = graph.stage(ServiceId::new(s));
        }
        for &(from, to) in edges {
            graph = graph.edge(from, to);
        }
        ServiceRequest::new(ProxyId::new(1), graph.build().unwrap(), ProxyId::new(2))
    }

    /// A key re-encoded in a reused buffer finds exactly the entry its
    /// freshly encoded twin filed: over a few hundred generated requests
    /// each finds its own path, and a request one predecessor word away
    /// misses.
    #[test]
    fn reencoded_lookups_find_exactly_their_own_entry() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut requests: Vec<(ClusterId, ServiceRequest)> = Vec::new();
        while requests.len() < 300 {
            let services: Vec<usize> = (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..4))
                .collect();
            let graph = ServiceGraph::linear(services.into_iter().map(ServiceId::new).collect());
            let request = ServiceRequest::new(
                ProxyId::new(rng.gen_range(0..6)),
                graph,
                ProxyId::new(rng.gen_range(0..6)),
            );
            let ingress = ClusterId::new(rng.gen_range(0..3));
            if !requests.contains(&(ingress, request.clone())) {
                requests.push((ingress, request));
            }
        }
        let cache = RouteCache::new(4, 1024);
        for (i, (ingress, request)) in requests.iter().enumerate() {
            cache.insert(RouteKey::encode(*ingress, request), 0, path(i, i));
        }
        let mut buf = RouteKey::empty();
        for (i, (ingress, request)) in requests.iter().enumerate() {
            buf.reencode(*ingress, request);
            assert_eq!(cache.lookup(&buf, 0), Some(path(i, i)));
        }

        // Stage 3 follows stages 0 and 1 in one request, 0 and 2 in the
        // other: the keys differ in their last word only.
        let filed = request_with_edges(&[5, 6, 7, 8], &[(0, 3), (1, 3)]);
        let probe = request_with_edges(&[5, 6, 7, 8], &[(0, 3), (2, 3)]);
        let a = RouteKey::encode(ClusterId::new(0), &filed);
        let b = RouteKey::encode(ClusterId::new(0), &probe);
        let (a_last, a_head) = a.0.words.split_last().unwrap();
        let (b_last, b_head) = b.0.words.split_last().unwrap();
        assert_eq!(a_head, b_head);
        assert_ne!(a_last, b_last);
        cache.insert(a, 0, path(7, 7));
        buf.reencode(ClusterId::new(0), &probe);
        assert_eq!(cache.lookup(&buf, 0), None);
        assert_eq!(cache.lookup(&b, 0), None);
    }

    /// Equal hashes are not equal keys: the words decide.
    #[test]
    fn keys_with_one_hash_but_other_words_miss() {
        let key = |words: Vec<u32>| RouteKey(Key { hash: 42, words });
        let cache = NegativeCache::new(8);
        cache.insert(key(vec![1, 2, 3]), 0, 0, RouteError::Infeasible);
        assert_eq!(cache.lookup(&key(vec![1, 2, 4]), 0, 0), None);
        assert_eq!(
            cache.lookup(&key(vec![1, 2, 3]), 0, 0),
            Some(RouteError::Infeasible)
        );
    }

    #[test]
    fn hit_after_insert_same_epoch() {
        let cache = RouteCache::new(4, 64);
        let key = RouteKey::encode(ClusterId::new(0), &request(0, &[1], 2));
        assert_eq!(cache.lookup(&key, 7), None);
        cache.insert(key.clone(), 7, path(0, 2));
        assert_eq!(cache.lookup(&key, 7), Some(path(0, 2)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn epoch_bump_invalidates() {
        let cache = RouteCache::new(2, 64);
        let key = RouteKey::encode(ClusterId::new(3), &request(0, &[1], 2));
        cache.insert(key.clone(), 1, path(0, 2));
        // Old-epoch entry: dropped, miss.
        assert_eq!(cache.lookup(&key, 2), None);
        assert_eq!(cache.stats().stale_drops, 1);
        assert!(cache.is_empty(), "stale entries are dropped on sight");
        // And it stays a miss (entry is gone, not resurrected).
        assert_eq!(cache.lookup(&key, 1), None);
    }

    #[test]
    fn capacity_is_bounded_fifo() {
        let cache = RouteCache::new(1, 3);
        let keys: Vec<RouteKey> = (0..5)
            .map(|i| RouteKey::encode(ClusterId::new(0), &request(i, &[1], 9)))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key.clone(), 0, path(i, 9));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 2);
        // The oldest two were evicted, the newest three survive.
        assert_eq!(cache.lookup(&keys[0], 0), None);
        assert_eq!(cache.lookup(&keys[1], 0), None);
        for (i, key) in keys.iter().enumerate().skip(2) {
            assert_eq!(cache.lookup(key, 0), Some(path(i, 9)), "key {i}");
        }
    }

    /// A key dropped as stale and inserted again under every new epoch
    /// must not leave an occurrence in the eviction queue each time.
    #[test]
    fn stale_reinserts_keep_the_eviction_queue_bounded() {
        let cache = RouteCache::new(1, 64);
        let key = RouteKey::encode(ClusterId::new(0), &request(0, &[1], 2));
        for epoch in 0..1_000 {
            assert_eq!(cache.lookup(&key, epoch), None);
            cache.insert(key.clone(), epoch, path(0, 2));
        }
        assert_eq!(cache.stats().stale_drops, 999);
        assert!(cache.shard(&key).lock().unwrap().order.len() <= 2);
    }

    #[test]
    fn overwrite_does_not_duplicate_order() {
        let cache = RouteCache::new(1, 2);
        let key = RouteKey::encode(ClusterId::new(0), &request(0, &[1], 2));
        cache.insert(key.clone(), 0, path(0, 2));
        cache.insert(key.clone(), 1, path(0, 2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key, 1), Some(path(0, 2)));
    }

    #[test]
    fn swr_serves_previous_epoch_within_budget() {
        let cache = RouteCache::new(2, 64);
        let key = RouteKey::encode(ClusterId::new(0), &request(0, &[1], 2));
        cache.insert(key.clone(), 5, path(0, 2));
        let budget = AtomicU64::new(2);
        // Current epoch: plain hit, no token spent.
        assert_eq!(
            cache.lookup_swr(&key, 5, &budget),
            SwrLookup::Hit(path(0, 2))
        );
        assert_eq!(budget.load(Ordering::Relaxed), 2);
        // One epoch behind: stale-served twice, then the budget is dry
        // and the entry is dropped like a plain stale lookup.
        assert_eq!(
            cache.lookup_swr(&key, 6, &budget),
            SwrLookup::Stale(path(0, 2))
        );
        assert_eq!(
            cache.lookup_swr(&key, 6, &budget),
            SwrLookup::Stale(path(0, 2))
        );
        assert_eq!(budget.load(Ordering::Relaxed), 0);
        assert_eq!(cache.lookup_swr(&key, 6, &budget), SwrLookup::StaleDrop);
        assert_eq!(cache.lookup_swr(&key, 6, &budget), SwrLookup::Miss);
        let stats = cache.stats();
        assert_eq!(stats.stale_served, 2);
        assert_eq!(stats.stale_drops, 1);
    }

    #[test]
    fn swr_never_serves_entries_older_than_one_epoch() {
        let cache = RouteCache::new(2, 64);
        let key = RouteKey::encode(ClusterId::new(0), &request(0, &[1], 2));
        cache.insert(key.clone(), 5, path(0, 2));
        let budget = AtomicU64::new(10);
        assert_eq!(cache.lookup_swr(&key, 7, &budget), SwrLookup::StaleDrop);
        assert_eq!(budget.load(Ordering::Relaxed), 10, "no token spent");
    }

    fn frontier(n: usize) -> Arc<CspFrontier> {
        Arc::new(CspFrontier {
            candidates: (0..n)
                .map(|i| son_routing::CspCandidate {
                    chain: vec![(son_overlay::StageId::new(0), ClusterId::new(i))],
                    cost: i as f64,
                    cluster: ClusterId::new(i),
                    entry: ProxyId::new(i),
                })
                .collect(),
        })
    }

    #[test]
    fn csp_keys_share_endpoints_but_not_shapes() {
        let c0 = ClusterId::new(0);
        let c2 = ClusterId::new(2);
        // Same shape, different concrete endpoints, both sources
        // unknown: one key.
        let a = CspKey::encode(c0, c2, None, &request(1, &[4, 5], 8)).unwrap();
        let b = CspKey::encode(c0, c2, None, &request(2, &[4, 5], 9)).unwrap();
        assert_eq!(a, b);
        // A known source keys by identity.
        let known = CspKey::encode(c0, c2, Some(1), &request(1, &[4, 5], 8)).unwrap();
        assert_ne!(a, known);
        // Different chain, ingress, or destination cluster: distinct.
        assert_ne!(
            a,
            CspKey::encode(c0, c2, None, &request(1, &[5, 4], 8)).unwrap()
        );
        assert_ne!(
            a,
            CspKey::encode(c2, c2, None, &request(1, &[4, 5], 8)).unwrap()
        );
        assert_ne!(
            a,
            CspKey::encode(c0, c0, None, &request(1, &[4, 5], 8)).unwrap()
        );
        // Empty graphs have no frontier to share.
        assert_eq!(CspKey::encode(c0, c2, None, &request(1, &[], 8)), None);
    }

    #[test]
    fn csp_cache_is_epoch_strict_and_bounded() {
        let cache = CspCache::new(1, 2);
        let c0 = ClusterId::new(0);
        let keys: Vec<CspKey> = (0..3)
            .map(|i| CspKey::encode(c0, ClusterId::new(i), None, &request(0, &[1], 2)).unwrap())
            .collect();
        cache.insert(keys[0].clone(), 1, frontier(1));
        assert_eq!(cache.lookup(&keys[0], 1).unwrap(), frontier(1));
        // Another epoch: dropped on sight, no stale serve for frontiers.
        assert_eq!(cache.lookup(&keys[0], 2), None);
        assert!(cache.is_empty());
        // FIFO bound.
        for key in &keys {
            cache.insert(key.clone(), 3, frontier(2));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&keys[0], 3), None);
        assert!(cache.lookup(&keys[2], 3).is_some());
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (2, 2));
    }

    #[test]
    fn negative_cache_invalidates_on_epoch_and_health_gen() {
        let cache = NegativeCache::new(8);
        let key = RouteKey::encode(ClusterId::new(0), &request(0, &[1], 2));
        cache.insert(key.clone(), 4, 7, RouteError::Infeasible);
        assert_eq!(cache.lookup(&key, 4, 7), Some(RouteError::Infeasible));
        assert_eq!(cache.hit_count(), 1);
        // Health view moved: entry invalid and dropped — no poisoning.
        assert_eq!(cache.lookup(&key, 4, 8), None);
        assert!(cache.is_empty());
        // Epoch moved: same story.
        cache.insert(key.clone(), 4, 7, RouteError::Infeasible);
        assert_eq!(cache.lookup(&key, 5, 7), None);
        assert!(cache.is_empty());
        assert_eq!(cache.hit_count(), 1);
    }
}
