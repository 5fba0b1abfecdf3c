//! The engine's cache tiers: the sharded, epoch-invalidated route
//! cache, the CSP frontier tier and the negative cache, on one store.
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
//! **One store.** [`RouteCache`] (the exact tier), [`CspCache`] and
//! [`NegativeCache`] are thin views of one private `Tier`. It
//! hash-partitions entries across [`Mutex`]ed shards so concurrent
//! workers rarely contend, bounds each shard by FIFO eviction with a
//! compacted queue, and keeps its counters as atomics outside the
//! locks. A view gives only its value type and its validity rule: the
//! store runs the rule on a resident entry under the shard lock and
//! drops the entry if the rule declines it. The exact tier accepts its
//! own epoch, or the previous one while a stale-serve token can be
//! taken; the CSP tier its own epoch; the negative tier, one shard,
//! its own epoch and health generation.
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
use std::sync::{Arc, Mutex, MutexGuard};

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

/// How a [`Tier::lookup`] closure judges a resident entry.
enum Read<T> {
    /// Serve it: a hit.
    Hit(T),
    /// Serve it stale, under a token of the stale-serve budget.
    Stale(T),
    /// Decline it: the entry is dropped.
    Drop,
}

/// One shard of a [`Tier`]: its entries, each stamped with the epoch it
/// was filed under, plus their FIFO insertion order for eviction.
#[derive(Debug)]
struct Shard<V> {
    entries: KeyMap<Key, (u64, V)>,
    order: VecDeque<Key>,
}

impl<V> Shard<V> {
    /// Bounds the eviction queue by the map. A key dropped on sight
    /// (stale) or by hand and then inserted again is queued again, and
    /// while the map has room nothing dequeues the old occurrence —
    /// under epoch churn the queue would grow by a key per re-insert.
    /// Once the queue holds more than twice the map, it keeps the first
    /// occurrence of each resident key, which is the one eviction
    /// reaches first.
    fn compact(&mut self) {
        let Shard { entries, order } = self;
        if order.len() > 2 * entries.len() {
            let mut queued = HashSet::with_capacity(entries.len());
            order.retain(|key| {
                entries
                    .get_key_value(key)
                    .is_some_and(|(resident, _)| queued.insert(resident))
            });
        }
    }
}

/// The one store behind the three cache tiers: epoch-stamped values
/// sharded by key hash across [`Mutex`]ed shards, each shard bounded
/// with FIFO eviction, and counters outside the locks. A tier is a view
/// that gives only its value type `V` and, per lookup, its validity
/// rule.
#[derive(Debug)]
struct Tier<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    drops: AtomicU64,
    stale_served: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V> Tier<V> {
    /// `shards` lock partitions with room for `capacity` entries in
    /// total (rounded up to a multiple of the shard count; at least one
    /// entry per shard).
    fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "the cache needs at least one shard");
        let shard = || {
            let (entries, order) = (KeyMap::default(), VecDeque::new());
            Mutex::new(Shard { entries, order })
        };
        Tier {
            shards: (0..shards).map(|_| shard()).collect(),
            capacity_per_shard: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard `key` lives in, locked.
    fn shard(&self, key: &Key) -> MutexGuard<'_, Shard<V>> {
        self.shards[shard_index(key.hash, self.shards.len())]
            .lock()
            .expect("cache shard poisoned")
    }

    /// Reads the entry under `key`, its epoch stamp and value, through
    /// `read` while the shard is locked, and drops it if `read`
    /// declines; `None` if no entry is resident. A declined entry counts
    /// as a drop and a miss, and so does an absent one, without the
    /// drop.
    fn lookup<T>(&self, key: &Key, read: impl FnOnce(u64, &V) -> Read<T>) -> Option<Read<T>> {
        let mut shard = self.shard(key);
        let found = shard
            .entries
            .get(key)
            .map(|(stamp, value)| read(*stamp, value));
        if let Some(Read::Drop) = found {
            shard.entries.remove(key);
        }
        drop(shard);
        let counter = match found {
            Some(Read::Hit(_)) => &self.hits,
            Some(Read::Stale(_)) => &self.stale_served,
            Some(Read::Drop) => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                &self.misses
            }
            None => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`Tier::lookup`] for a tier that serves nothing stale: what
    /// `read` returns, with `None` declining the entry.
    fn get<T>(&self, key: &Key, read: impl FnOnce(u64, &V) -> Option<T>) -> Option<T> {
        let judge = |stamp, value: &V| read(stamp, value).map_or(Read::Drop, Read::Hit);
        match self.lookup(key, judge) {
            Some(Read::Hit(value)) => Some(value),
            _ => None,
        }
    }

    /// Stores `value` under `key` stamped with `epoch`, evicting in FIFO
    /// order while the shard is full. Keys in the queue whose entry was
    /// already dropped (stale lookup or overwrite) cost nothing.
    fn insert(&self, key: Key, epoch: u64, value: V) {
        let mut shard = self.shard(&key);
        while shard.entries.len() >= self.capacity_per_shard {
            let Some(victim) = shard.order.pop_front() else {
                break;
            };
            if shard.entries.remove(&victim).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if shard.entries.insert(key.clone(), (epoch, value)).is_none() {
            shard.order.push_back(key);
            shard.compact();
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops the entry under `key`, reporting whether one was resident.
    fn remove(&self, key: &Key) -> bool {
        self.shard(key).entries.remove(key).is_some()
    }

    /// Number of resident entries (valid or not).
    fn len(&self) -> usize {
        let len =
            |shard: &Mutex<Shard<V>>| shard.lock().expect("cache shard poisoned").entries.len();
        self.shards.iter().map(len).sum()
    }

    /// The counters so far; a drop reads as a `stale_drops`.
    fn stats(&self) -> CacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            stale_drops: load(&self.drops),
            insertions: load(&self.insertions),
            evictions: load(&self.evictions),
            stale_served: load(&self.stale_served),
            ..CacheStats::default()
        }
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

/// The concurrent route cache, the exact tier. See the module docs for
/// the design.
#[derive(Debug)]
pub struct RouteCache(Tier<ServicePath>);

impl RouteCache {
    /// Creates a cache with `shards` lock partitions and room for
    /// `capacity` entries in total (rounded up to a multiple of the
    /// shard count; at least one entry per shard).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, capacity: usize) -> Self {
        RouteCache(Tier::new(shards, capacity))
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
        let take_token = || {
            budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok()
        };
        let found = self.0.lookup(&key.0, |stamp, path| {
            if stamp == epoch {
                Read::Hit(path.clone())
            } else if stamp + 1 == epoch && take_token() {
                Read::Stale(path.clone())
            } else {
                Read::Drop
            }
        });
        match found {
            Some(Read::Hit(path)) => SwrLookup::Hit(path),
            Some(Read::Stale(path)) => SwrLookup::Stale(path),
            Some(Read::Drop) => SwrLookup::StaleDrop,
            None => SwrLookup::Miss,
        }
    }

    /// Stores a computed path under `key` for `epoch`, evicting in FIFO
    /// order when the shard is full.
    pub fn insert(&self, key: RouteKey, epoch: u64, path: ServicePath) {
        self.0.insert(key.0, epoch, path);
    }

    /// Drops the entry under `key` regardless of its epoch, reporting
    /// whether one was resident. Used when live health information
    /// invalidates a cached path that epoch checks alone would keep
    /// serving (the entry's epoch is still current — the *world*
    /// changed, not the snapshot).
    pub fn remove(&self, key: &RouteKey) -> bool {
        self.0.remove(&key.0)
    }

    /// Number of resident entries (all epochs).
    pub fn len(&self) -> usize {
        self.0.len()
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
        self.0.stats()
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

/// The CSP frontier tier: sharded, epoch-strict (no stale-serve — a
/// frontier from another epoch is dropped on sight), FIFO-bounded.
/// Values are shared [`Arc`]s because one frontier may carry many
/// candidates and is replayed by many concurrent workers.
#[derive(Debug)]
pub struct CspCache(Tier<Arc<CspFrontier>>);

impl CspCache {
    /// Creates a frontier cache with `shards` lock partitions and room
    /// for `capacity` entries in total.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, capacity: usize) -> Self {
        CspCache(Tier::new(shards, capacity))
    }

    /// Looks `key` up for the serving `epoch`; entries from any other
    /// epoch are dropped and counted as misses.
    pub fn lookup(&self, key: &CspKey, epoch: u64) -> Option<Arc<CspFrontier>> {
        self.0.get(&key.0, |stamp, frontier| {
            (stamp == epoch).then(|| Arc::clone(frontier))
        })
    }

    /// Stores a solved frontier under `key` for `epoch`, evicting in
    /// FIFO order when the shard is full.
    pub fn insert(&self, key: CspKey, epoch: u64, frontier: Arc<CspFrontier>) {
        self.0.insert(key.0, epoch, frontier);
    }

    /// Number of resident frontiers (all epochs).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if no frontiers are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        let stats = self.0.stats();
        (stats.hits, stats.misses)
    }
}

/// Negative cache: remembers deterministic routing failures
/// (`NoProvider`, `Infeasible`) so repeated unroutable requests
/// fast-reject instead of re-running the full failed solve. It is one
/// shard.
///
/// Entries are valid only while **both** the snapshot epoch and the
/// engine's health generation (bumped on every live `set_health`)
/// match the values they were recorded under — any world change, even
/// one unrelated to the blocking proxy, re-runs the solve. That
/// over-invalidation is deliberate: it guarantees no key can stay
/// poisoned after the blocking proxy recovers.
#[derive(Debug)]
pub struct NegativeCache(Tier<(u64, RouteError)>);

impl NegativeCache {
    /// Creates a negative cache bounded to `capacity` entries (FIFO).
    pub fn new(capacity: usize) -> Self {
        NegativeCache(Tier::new(1, capacity))
    }

    /// Returns the recorded error if a valid entry exists for `key`;
    /// invalid entries (other epoch or health generation) are dropped
    /// on sight.
    pub fn lookup(&self, key: &RouteKey, epoch: u64, health_gen: u64) -> Option<RouteError> {
        self.0.get(&key.0, |stamp, (gen, error)| {
            (stamp == epoch && *gen == health_gen).then(|| error.clone())
        })
    }

    /// Records a failed solve under `key` for (`epoch`, `health_gen`).
    pub fn insert(&self, key: RouteKey, epoch: u64, health_gen: u64, error: RouteError) {
        self.0.insert(key.0, epoch, (health_gen, error));
    }

    /// Number of resident entries (valid or not).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fast rejects served so far.
    pub fn hit_count(&self) -> u64 {
        self.0.stats().hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::{ProxyId, ServiceGraph, ServiceId};
    use son_routing::{CspRouter, HierConfig, HierarchicalRouter, PathBuilder};

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

    /// A tier through its public methods, so that one test body checks
    /// all three: `put` files value `i` under `key` at `epoch`, `holds`
    /// says whether a lookup at `epoch` finds value `i`, and `tier`
    /// opens the store beneath for its queue and counters.
    trait View {
        type Value;
        fn one_shard(capacity: usize) -> Self;
        fn put(&self, key: &Key, epoch: u64, i: usize);
        fn holds(&self, key: &Key, epoch: u64, i: usize) -> bool;
        fn tier(&self) -> &Tier<Self::Value>;
    }

    impl View for RouteCache {
        type Value = ServicePath;
        fn one_shard(capacity: usize) -> Self {
            RouteCache::new(1, capacity)
        }
        fn put(&self, key: &Key, epoch: u64, i: usize) {
            self.insert(RouteKey(key.clone()), epoch, path(i, 9));
        }
        fn holds(&self, key: &Key, epoch: u64, i: usize) -> bool {
            self.lookup(&RouteKey(key.clone()), epoch) == Some(path(i, 9))
        }
        fn tier(&self) -> &Tier<ServicePath> {
            &self.0
        }
    }

    /// The CSP tier, with copies of one solved frontier as its values,
    /// told apart by address.
    struct Csp(CspCache, Vec<Arc<CspFrontier>>);

    impl View for Csp {
        type Value = Arc<CspFrontier>;
        fn one_shard(capacity: usize) -> Self {
            let solved = frontier(1);
            let values = (0..8).map(|_| Arc::new((*solved).clone())).collect();
            Csp(CspCache::new(1, capacity), values)
        }
        fn put(&self, key: &Key, epoch: u64, i: usize) {
            self.0
                .insert(CspKey(key.clone()), epoch, Arc::clone(&self.1[i]));
        }
        fn holds(&self, key: &Key, epoch: u64, i: usize) -> bool {
            let found = self.0.lookup(&CspKey(key.clone()), epoch);
            found.is_some_and(|frontier| Arc::ptr_eq(&frontier, &self.1[i]))
        }
        fn tier(&self) -> &Tier<Arc<CspFrontier>> {
            &self.0 .0
        }
    }

    /// The negative tier at health generation 0.
    impl View for NegativeCache {
        type Value = (u64, RouteError);
        fn one_shard(capacity: usize) -> Self {
            NegativeCache::new(capacity)
        }
        fn put(&self, key: &Key, epoch: u64, i: usize) {
            let error = RouteError::NoProvider(ServiceId::new(i));
            self.insert(RouteKey(key.clone()), epoch, 0, error);
        }
        fn holds(&self, key: &Key, epoch: u64, i: usize) -> bool {
            let error = RouteError::NoProvider(ServiceId::new(i));
            self.lookup(&RouteKey(key.clone()), epoch, 0) == Some(error)
        }
        fn tier(&self) -> &Tier<(u64, RouteError)> {
            &self.0
        }
    }

    /// Runs `check` on every tier.
    macro_rules! every_tier {
        ($check:ident) => {
            $check::<RouteCache>();
            $check::<Csp>();
            $check::<NegativeCache>();
        };
    }

    /// The key of `request(i, [1], 9)` at ingress 0.
    fn key(i: usize) -> Key {
        RouteKey::encode(ClusterId::new(0), &request(i, &[1], 9)).0
    }

    /// Equal hashes are not equal keys: the words decide. Six keys with
    /// one hash share a shard and its map's probe sequence, yet each
    /// keeps its own value, a key with other words misses, and eviction
    /// takes them in insertion order — in every tier.
    #[test]
    fn keys_with_one_hash_but_other_words_miss() {
        fn check<C: View>() {
            let tier = std::any::type_name::<C>();
            let key = |word: usize| Key {
                hash: 42,
                words: vec![1, 2, word as u32],
            };
            let cache = C::one_shard(4);
            for i in 0..6 {
                cache.put(&key(i), 0, i);
            }
            assert!(!cache.holds(&key(0), 0, 0), "{tier}: first evicted");
            assert!(!cache.holds(&key(1), 0, 1), "{tier}: second evicted");
            for i in 2..6 {
                assert!(cache.holds(&key(i), 0, i), "{tier}: key {i}");
            }
            let other = cache.tier().lookup(&key(6), |_, _| Read::Hit(()));
            assert!(other.is_none(), "{tier}: other words");
        }
        every_tier!(check);
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

    /// Five keys into room for three: the oldest two are evicted, the
    /// newest three keep their values — in every tier.
    #[test]
    fn capacity_is_bounded_fifo() {
        fn check<C: View>() {
            let tier = std::any::type_name::<C>();
            let cache = C::one_shard(3);
            for i in 0..5 {
                cache.put(&key(i), 0, i);
            }
            assert_eq!(cache.tier().len(), 3, "{tier}");
            assert_eq!(cache.tier().stats().evictions, 2, "{tier}");
            assert!(!cache.holds(&key(0), 0, 0), "{tier}: key 0");
            assert!(!cache.holds(&key(1), 0, 1), "{tier}: key 1");
            for i in 2..5 {
                assert!(cache.holds(&key(i), 0, i), "{tier}: key {i}");
            }
        }
        every_tier!(check);
    }

    /// A key dropped as stale and inserted again under every new epoch
    /// must not leave an occurrence in the eviction queue each time, and
    /// compacting the queue keeps the eviction order: the churned key
    /// was queued before its neighbour, so it goes first — in every
    /// tier.
    #[test]
    fn stale_reinserts_keep_the_eviction_queue_bounded() {
        fn check<C: View>() {
            let tier = std::any::type_name::<C>();
            let (churned, kept, last) = (key(0), key(1), key(2));
            let cache = C::one_shard(2);
            cache.put(&churned, 0, 0);
            cache.put(&kept, 0, 1);
            for epoch in 1..1_000 {
                assert!(!cache.holds(&churned, epoch, 0), "{tier}: epoch {epoch}");
                cache.put(&churned, epoch, 0);
            }
            assert_eq!(cache.tier().stats().stale_drops, 999, "{tier}");
            let queued = cache.tier().shard(&churned).order.len();
            assert!(queued <= 2 * cache.tier().len(), "{tier}: {queued} queued");
            // The shard is full: the next insert evicts the churned key.
            cache.put(&last, 0, 2);
            assert!(!cache.holds(&churned, 999, 0), "{tier}: churned key kept");
            assert!(cache.holds(&kept, 0, 1), "{tier}: neighbour evicted");
            assert!(cache.holds(&last, 0, 2), "{tier}");
        }
        every_tier!(check);
    }

    #[test]
    fn overwrite_does_not_duplicate_order() {
        fn check<C: View>() {
            let tier = std::any::type_name::<C>();
            let cache = C::one_shard(2);
            cache.put(&key(0), 0, 0);
            cache.put(&key(0), 1, 1);
            assert_eq!(cache.tier().shard(&key(0)).order.len(), 1, "{tier}");
            assert!(cache.holds(&key(0), 1, 1), "{tier}");
        }
        every_tier!(check);
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

    /// The frontier of a real solve over the paper's worked example:
    /// services S1 to S`stages` in a chain from C0.2 to C2.1.
    fn frontier(stages: usize) -> Arc<CspFrontier> {
        let (hfc, delays, services) = son_routing::fixtures::paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let chain: Vec<usize> = (1..=stages).collect();
        let frontier = router
            .solve_frontier(&request(2, &chain, 9))
            .expect("the example solves");
        Arc::new(frontier)
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
        assert_ne!(frontier(1), frontier(2));
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
