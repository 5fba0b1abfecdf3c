//! The serving engine: sharded workers over an epoch-stamped snapshot.
//!
//! [`Engine::serve`] answers a batch of requests with worker threads.
//! Each request is assigned to the worker owning its **ingress
//! cluster** (`cluster % workers`), every worker builds its own router
//! over the shared snapshot, and computed paths land in the shared
//! [`RouteCache`] under the snapshot's epoch. Because routing is
//! deterministic and cache hits are exact (see [`crate::cache`]), the
//! served paths are identical for any worker count — threads change
//! only the wall-clock, never the answers.
//!
//! **Churn.** [`Engine::install_snapshot`] publishes a rebuilt overlay
//! view under the next epoch. Batches started before the install keep
//! their old snapshot (and its epoch) to the end, so each batch is
//! internally consistent; the next batch routes over the new topology
//! and every cached path from before the change misses on epoch.
//!
//! **Simulated dispatch.** Real proxies don't just *compute* paths —
//! they synchronously push the session's data along them. With
//! [`EngineConfig::dispatch_us_per_delay`] > 0 each worker holds a
//! request for `path length × that factor` microseconds after routing
//! it, modeling transmission time proportional to the overlay delay of
//! the chosen path. Worker threads overlap these holds the way an
//! I/O-bound server overlaps in-flight responses, which is what makes
//! thread count matter even on a single core. Set it to 0 to benchmark
//! pure route computation.

use crate::cache::{
    CacheStats, CspCache, CspKey, LookupOutcome, NegativeCache, RouteCache, RouteKey, SwrLookup,
};
use crate::report::{AdmissionStats, LatencySummary, ServeReport, WorkerStats};
use crate::snapshot::{EngineSnapshot, RouterProvider};
use son_overlay::{DelayModel, Health, ProxyId, ServiceRequest};
use son_routing::{
    trace_hops, CostModel, CspRouter, FlatRouter, LoadAwareDelays, ProviderIndex, RouteError,
    Router, ServicePath,
};
use son_telemetry::flight::{
    flight, CacheVerdict, DispositionMark, FlightEvent, FlightKind, Stage, NO_REQUEST,
};
use son_telemetry::{CacheOutcome, Histogram, LocalHistogram, RouteTrace, SloTracker};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Overload/failover tuning: token-bucket admission and bounded
/// re-routing. Disabled by default — the engine then behaves exactly
/// as before (deterministic across worker counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch for per-proxy token-bucket admission and retry.
    pub enabled: bool,
    /// Re-route attempts after a failed attempt (dead or saturated
    /// proxies from the failure join the avoid set).
    pub max_retries: u32,
    /// Backoff added to the recorded latency of attempt `k` (1-based):
    /// `backoff_base_us * 2^(k-1)` — accounted, not slept, so benches
    /// measure the client-visible penalty without wasting wall-clock.
    pub backoff_base_us: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            max_retries: 2,
            backoff_base_us: 50.0,
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads per batch (min 1).
    pub workers: usize,
    /// Lock partitions in the route cache.
    pub cache_shards: usize,
    /// Total route-cache entries before FIFO eviction.
    pub cache_capacity: usize,
    /// Microseconds a worker holds a served request per unit of path
    /// delay, modeling synchronous data dispatch along the path.
    /// 0 disables the hold and measures pure route computation.
    pub dispatch_us_per_delay: f64,
    /// Admission control and failover retry.
    pub admission: AdmissionConfig,
    /// Second cache tier: reuse solved cluster-level service paths
    /// (CSP sink frontiers) across requests that share a shape but not
    /// exact endpoints. Replay is bit-identical to an uncached solve,
    /// so this only changes speed, never answers.
    pub csp_cache: bool,
    /// Total CSP-frontier entries before FIFO eviction.
    pub csp_cache_capacity: usize,
    /// Stale-while-revalidate: how many requests per installed
    /// snapshot may be answered from the *previous* epoch's exact
    /// cache while a fresh solve revalidates the entry in the
    /// background of the batch. 0 keeps the legacy epoch-strict cache.
    pub stale_serve_budget: u64,
    /// Flight-recorder sampling: per-request events (cache verdicts,
    /// dispositions, retries) are emitted for requests whose id is a
    /// multiple of this stride, rounded up to a power of two so the
    /// per-request test is a mask, not a division. Structural events —
    /// snapshot installs, stage timings, anomalies — are never
    /// sampled. 1 records every request (`son flight` and the timeline
    /// tests use this); the default of 16 keeps the always-on cost of
    /// an enabled recorder inside the telemetry budget on warm serve
    /// paths. 0 behaves as 1.
    pub flight_sample: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            cache_shards: 16,
            cache_capacity: 65_536,
            dispatch_us_per_delay: 0.0,
            admission: AdmissionConfig::default(),
            csp_cache: true,
            csp_cache_capacity: 16_384,
            stale_serve_budget: 0,
            flight_sample: 16,
        }
    }
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The ingress cluster has no `Up` proxy to accept the session.
    NoIngress,
    /// Admission ran out of capacity on every viable path.
    Overloaded,
    /// No feasible path exists (missing provider, infeasible graph, or
    /// everything viable is `Down`).
    Unroutable,
}

/// How the engine disposed of one request — the degradation taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served on the first attempt through healthy, unsaturated
    /// proxies.
    Optimal,
    /// Served, but not cleanly: the path needed a retry/re-route or
    /// traverses a `Draining` proxy.
    Degraded,
    /// Shed; the matching entry in `paths` is the `Err`.
    Rejected(RejectReason),
}

impl Disposition {
    /// `true` for both served classes.
    pub fn is_served(self) -> bool {
        matches!(self, Disposition::Optimal | Disposition::Degraded)
    }
}

/// What one [`Engine::serve`] call produced: the answers, in request
/// order, plus the batch metrics.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// One result per request, same order as the input batch.
    pub paths: Vec<Result<ServicePath, RouteError>>,
    /// How each request was disposed of, same order as the input batch.
    pub dispositions: Vec<Disposition>,
    /// Batch metrics.
    pub report: ServeReport,
}

/// What a worker hands back for one request.
#[derive(Debug)]
struct WorkerItem {
    index: usize,
    result: Result<ServicePath, RouteError>,
    latency_us: f64,
    retries: u32,
    degraded: bool,
    health_drops: u64,
}

/// Which stage accumulator a measured section charges.
#[derive(Clone, Copy)]
enum StageSlot {
    Cache,
    Route,
    Admit,
}

/// Every `STAGE_SAMPLE`-th request per worker has its stages clocked;
/// the accumulated times are scaled back up by the observed sampling
/// ratio when the worker folds its stats. A clock read costs tens of
/// nanoseconds on a virtualized box — two per stage on every request
/// would alone eat the telemetry overhead budget on warm cache hits.
const STAGE_SAMPLE: u64 = 64;

/// Per-worker stage time accumulator (µs). When `on` is false every
/// `measure` call runs its section with zero instrumentation — no clock
/// reads — so the telemetry-off serve path is unchanged. When on, only
/// requests armed by [`StageAcc::arm`] (1 in [`STAGE_SAMPLE`]) are
/// clocked.
struct StageAcc {
    on: bool,
    armed: bool,
    seen: u64,
    sampled: u64,
    cache_us: f64,
    route_us: f64,
    admit_us: f64,
}

impl StageAcc {
    fn new(on: bool) -> StageAcc {
        StageAcc {
            on,
            armed: false,
            seen: 0,
            sampled: 0,
            cache_us: 0.0,
            route_us: 0.0,
            admit_us: 0.0,
        }
    }

    /// Called once per request, before its first measured section:
    /// decides whether this request's stages are clocked. The first
    /// request of every worker always is, so any batch with at least
    /// one request yields a non-zero breakdown.
    #[inline]
    fn arm(&mut self) {
        if self.on {
            self.armed = self.seen.is_multiple_of(STAGE_SAMPLE);
            self.seen += 1;
            self.sampled += u64::from(self.armed);
        }
    }

    /// Estimated scale-up from sampled stage time to whole-shard stage
    /// time: the inverse of the realized sampling fraction.
    fn scale(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.seen as f64 / self.sampled as f64
        }
    }

    #[inline]
    fn measure<T>(&mut self, slot: StageSlot, f: impl FnOnce() -> T) -> T {
        if !self.armed {
            return f();
        }
        let begun = Instant::now();
        let out = f();
        let us = begun.elapsed().as_secs_f64() * 1e6;
        match slot {
            StageSlot::Cache => self.cache_us += us,
            StageSlot::Route => self.route_us += us,
            StageSlot::Admit => self.admit_us += us,
        }
        out
    }
}

/// Per-request identity threaded through the routing helpers so deep
/// call sites (cache verdicts, CSP hits, retries) can emit flight
/// events tied to the right request. `flight_on` is latched once per
/// batch; when false every emit is a plain branch.
#[derive(Clone, Copy)]
struct ReqCtx {
    rid: u64,
    worker: usize,
    flight_on: bool,
}

impl ReqCtx {
    /// A context that suppresses flight events (revalidation solves —
    /// background work not attributable to one request's timeline).
    fn silent() -> ReqCtx {
        ReqCtx {
            rid: NO_REQUEST,
            worker: 0,
            flight_on: false,
        }
    }

    #[inline]
    fn emit(&self, kind: FlightKind, epoch: u64) {
        if self.flight_on {
            flight().record(
                FlightEvent::new(kind)
                    .tick(self.rid)
                    .request(self.rid)
                    .epoch(epoch)
                    .worker(self.worker),
            );
        }
    }

    #[inline]
    fn verdict(&self, verdict: CacheVerdict, epoch: u64) {
        self.emit(FlightKind::CacheVerdict(verdict), epoch);
    }
}

/// Maps a request outcome onto the flight recorder's disposition
/// taxonomy (mirrors the `Disposition` computed during merge).
fn disposition_mark(result: &Result<ServicePath, RouteError>, degraded: bool) -> DispositionMark {
    match result {
        Ok(_) if degraded => DispositionMark::Degraded,
        Ok(_) => DispositionMark::Optimal,
        Err(RouteError::NoIngress) => DispositionMark::RejectNoIngress,
        Err(RouteError::Overloaded) => DispositionMark::RejectOverloaded,
        Err(_) => DispositionMark::RejectUnroutable,
    }
}

/// The per-batch context shared by every worker when health or
/// admission constraints are active. `None` means the fully
/// unconstrained fast path — bit-identical to the engine before
/// admission existed.
struct BatchConstraints {
    /// Snapshot statuses merged with live health overrides.
    model: CostModel,
    admission: AdmissionConfig,
    /// Per-proxy remaining admission tokens (admission enabled only).
    buckets: Option<Vec<AtomicU32>>,
    /// Per-proxy admitted-request counters (admission enabled only).
    admitted: Option<Vec<AtomicU64>>,
}

impl BatchConstraints {
    /// Takes one token per distinct proxy of `path`, all or nothing.
    /// On failure returns the saturated proxy; nothing stays acquired.
    fn try_admit(&self, path: &ServicePath) -> Result<(), ProxyId> {
        let Some(buckets) = &self.buckets else {
            return Ok(());
        };
        let mut taken: Vec<ProxyId> = Vec::new();
        for hop in path.hops() {
            let p = hop.proxy;
            if taken.contains(&p) {
                continue;
            }
            let ok = buckets[p.index()]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_ok();
            if !ok {
                for q in taken {
                    buckets[q.index()].fetch_add(1, Ordering::Relaxed);
                }
                return Err(p);
            }
            taken.push(p);
        }
        if let Some(admitted) = &self.admitted {
            for p in taken {
                admitted[p.index()].fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The first hop the live health view forbids, if any.
    fn first_down_hop(&self, path: &ServicePath) -> Option<ProxyId> {
        path.hops()
            .iter()
            .map(|h| h.proxy)
            .find(|&p| !self.model.is_routable(p))
    }

    /// Whether the path touches a `Draining` proxy (served, but
    /// degraded).
    fn touches_draining(&self, path: &ServicePath) -> bool {
        path.hops()
            .iter()
            .any(|h| self.model.statuses().health(h.proxy) == Health::Draining)
    }
}

/// The multi-threaded request-serving runtime. See the module docs.
#[derive(Debug)]
pub struct Engine<D, P> {
    provider: P,
    config: EngineConfig,
    snapshot: Mutex<Arc<EngineSnapshot<D>>>,
    cache: RouteCache,
    /// Second tier: solved CSP sink frontiers, shared across requests
    /// with the same shape (ingress cluster, source class, destination
    /// cluster, service DAG) but different exact endpoints.
    csp: CspCache,
    /// Unroutable outcomes, keyed exactly and invalidated by epoch
    /// *and* health-generation so a recovered proxy un-poisons its
    /// keys.
    negative: NegativeCache,
    epoch: AtomicU64,
    /// Bumped by every `set_health`; negative entries recorded under an
    /// older generation are invalid.
    health_gen: AtomicU64,
    /// Remaining stale-serve tokens for the current epoch; reset to
    /// [`EngineConfig::stale_serve_budget`] on every snapshot install.
    stale_budget: AtomicU64,
    /// Stale entries refreshed by a post-loop revalidation solve.
    revalidations: AtomicU64,
    /// Live health overrides (`set_health`), consulted on every cache
    /// hit *independently of epochs*: a proxy that turns `Down` after a
    /// path was cached invalidates that path immediately, no snapshot
    /// install required.
    live: RwLock<Vec<Option<Health>>>,
    /// Monotone request-id source. Each `serve` call reserves a
    /// contiguous block so flight events from concurrent workers can be
    /// correlated back to individual requests.
    request_ids: AtomicU64,
    /// Optional SLO tracker ([`Engine::attach_slo`]), advanced one tick
    /// per request so sliding windows move on served traffic, never on
    /// wall clock.
    slo: Mutex<Option<Arc<SloTracker>>>,
}

impl<D, P> Engine<D, P>
where
    D: DelayModel + Send + Sync,
    P: RouterProvider<D>,
{
    /// Creates an engine serving `snapshot` (installed as epoch 0)
    /// through routers built by `provider`.
    pub fn new(mut snapshot: EngineSnapshot<D>, provider: P, config: EngineConfig) -> Self {
        snapshot.stamp(0);
        Engine {
            provider,
            config,
            snapshot: Mutex::new(Arc::new(snapshot)),
            cache: RouteCache::new(config.cache_shards, config.cache_capacity),
            csp: CspCache::new(config.cache_shards, config.csp_cache_capacity),
            negative: NegativeCache::new(4096),
            epoch: AtomicU64::new(0),
            health_gen: AtomicU64::new(0),
            stale_budget: AtomicU64::new(config.stale_serve_budget),
            revalidations: AtomicU64::new(0),
            live: RwLock::new(Vec::new()),
            request_ids: AtomicU64::new(0),
            slo: Mutex::new(None),
        }
    }

    /// Attaches a sliding-window SLO tracker: every subsequent request
    /// advances it one tick (served with its latency, or rejected), so
    /// windows seal on request-count boundaries. Window seals that
    /// breach an objective fire the flight recorder's anomaly trigger.
    pub fn attach_slo(&self, tracker: Arc<SloTracker>) {
        *self.slo.lock().expect("slo lock poisoned") = Some(tracker);
    }

    /// The attached SLO tracker, if any.
    pub fn slo(&self) -> Option<Arc<SloTracker>> {
        self.slo.lock().expect("slo lock poisoned").clone()
    }

    /// Request ids handed out so far — the flight recorder's tick scale.
    fn tick_now(&self) -> u64 {
        self.request_ids.load(Ordering::Relaxed)
    }

    /// Sampling mask for per-request flight events: the configured
    /// stride rounded up to a power of two, minus one, so the
    /// per-request sampling test is `rid & mask == 0` — one AND
    /// instead of a hardware division on the serve hot path.
    fn flight_sample_mask(&self) -> u64 {
        self.config.flight_sample.max(1).next_power_of_two() - 1
    }

    /// Overrides one proxy's health *live* — between snapshot installs.
    /// Cached routes through a proxy set `Down` are dropped on their
    /// next lookup regardless of epoch, and new routes avoid it via the
    /// retry pipeline. Overrides reset when a new snapshot is installed
    /// (its statuses are authoritative again).
    pub fn set_health(&self, proxy: ProxyId, health: Health) {
        let mut live = self.live.write().expect("live health lock poisoned");
        if live.len() <= proxy.index() {
            live.resize(proxy.index() + 1, None);
        }
        live[proxy.index()] = Some(health);
        // Any health change — including a recovery — invalidates every
        // cached unroutable verdict: no key stays poisoned once the
        // proxy that blocked it comes back.
        self.health_gen.fetch_add(1, Ordering::SeqCst);
        let rec = flight();
        if rec.is_enabled() {
            let ordinal = match health {
                Health::Up => 0.0,
                Health::Draining => 1.0,
                Health::Down => 2.0,
            };
            rec.record(
                FlightEvent::new(FlightKind::HealthTransition)
                    .tick(self.tick_now())
                    .epoch(self.epoch())
                    .proxy(proxy.index() as u32)
                    .value(ordinal),
            );
        }
    }

    /// The live health override for `proxy`, if one is set.
    pub fn live_health(&self, proxy: ProxyId) -> Option<Health> {
        self.live
            .read()
            .expect("live health lock poisoned")
            .get(proxy.index())
            .copied()
            .flatten()
    }

    /// Builds the batch constraints: snapshot statuses merged with live
    /// overrides, plus admission buckets. `None` when nothing
    /// constrains this batch (no statuses, no overrides, admission
    /// off) — the serve path is then exactly the legacy one.
    fn constraints(&self, snap: &EngineSnapshot<D>) -> Option<BatchConstraints> {
        let live = self.live.read().expect("live health lock poisoned").clone();
        let admission = self.config.admission;
        let overridden = live.iter().any(Option::is_some);
        if !admission.enabled && !overridden && snap.statuses().is_empty() {
            return None;
        }
        let mut statuses = snap.statuses().clone();
        for (i, h) in live.iter().enumerate() {
            if let Some(h) = h {
                statuses.set_health(ProxyId::new(i), *h);
            }
        }
        let (buckets, admitted) = if admission.enabled {
            let n = snap.proxy_count();
            (
                Some(
                    (0..n)
                        .map(|i| AtomicU32::new(statuses.capacity(ProxyId::new(i))))
                        .collect(),
                ),
                Some((0..n).map(|_| AtomicU64::new(0)).collect()),
            )
        } else {
            (None, None)
        };
        Some(BatchConstraints {
            model: CostModel::new(*snap.cost_model().config(), statuses),
            admission,
            buckets,
            admitted,
        })
    }

    /// The current epoch (bumped by every snapshot install).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The snapshot new batches will serve from.
    pub fn snapshot(&self) -> Arc<EngineSnapshot<D>> {
        Arc::clone(&self.snapshot.lock().expect("snapshot lock poisoned"))
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Lifetime cache counters across all tiers (per-batch deltas are
    /// in each [`ServeReport`]): the exact route cache, the CSP
    /// frontier tier, the negative cache, and the stale-while-
    /// revalidate machinery.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        let (csp_hits, csp_misses) = self.csp.counters();
        stats.csp_hits = csp_hits;
        stats.csp_misses = csp_misses;
        stats.negative_hits = self.negative.hit_count();
        stats.revalidations = self.revalidations.load(Ordering::Relaxed);
        stats
    }

    /// Publishes a rebuilt overlay view under the next epoch and
    /// returns that epoch. Call after membership churn or a state
    /// protocol round; cached paths from earlier epochs are dropped
    /// lazily on their next lookup.
    pub fn install_snapshot(&self, mut snapshot: EngineSnapshot<D>) -> u64 {
        let mut slot = self.snapshot.lock().expect("snapshot lock poisoned");
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        snapshot.stamp(epoch);
        *slot = Arc::new(snapshot);
        // The new snapshot's statuses are authoritative; stale live
        // overrides must not shadow them.
        self.live
            .write()
            .expect("live health lock poisoned")
            .clear();
        // Refill the stale-serve allowance: the *previous* epoch's
        // routes may bridge this install, bounded by the budget.
        self.stale_budget
            .store(self.config.stale_serve_budget, Ordering::SeqCst);
        let rec = flight();
        if rec.is_enabled() {
            rec.record(
                FlightEvent::new(FlightKind::SnapshotInstall)
                    .tick(self.tick_now())
                    .epoch(epoch),
            );
        }
        epoch
    }

    /// Serves a batch of requests and reports what happened. Paths come
    /// back in request order; without admission control they are
    /// independent of the worker count (admission buckets are shared
    /// across workers, so under contention the interleaving decides who
    /// is shed — the *invariants* hold for every interleaving).
    pub fn serve(&self, requests: &[ServiceRequest]) -> ServeOutcome {
        let _span = son_telemetry::span!("engine.serve");
        let snapshot = self.snapshot();
        let snap: &EngineSnapshot<D> = &snapshot;
        let epoch = snap.epoch();
        let workers = self.config.workers.max(1);
        let constraints = self.constraints(snap);

        // Shard by ingress cluster — but shed requests whose ingress
        // cluster has no `Up` member before any worker sees them: they
        // are `Rejected(NoIngress)`, never silently dropped.
        let mut pre_rejected: Vec<usize> = Vec::new();
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); workers];
        let cluster_has_up: Option<Vec<bool>> = constraints.as_ref().map(|ctx| {
            snap.hfc()
                .clusters()
                .map(|c| {
                    snap.hfc()
                        .members(c)
                        .iter()
                        .any(|&p| ctx.model.statuses().health(p) == Health::Up)
                })
                .collect()
        });
        for (i, request) in requests.iter().enumerate() {
            let ingress = snap.ingress(request);
            let up = cluster_has_up.as_ref().is_none_or(|up| up[ingress.index()]);
            if up {
                assigned[ingress.index() % workers].push(i);
            } else {
                pre_rejected.push(i);
            }
        }

        // Per-worker registry handles are fetched once per batch so the
        // per-request hot path stays lock-free; when telemetry is off
        // the whole block reduces to `None`s.
        let telemetry_on = son_telemetry::enabled();
        let worker_hists: Vec<Option<Histogram>> = if telemetry_on {
            let registry = son_telemetry::global();
            (0..workers)
                .map(|w| {
                    let worker = w.to_string();
                    registry
                        .gauge_with("engine.queue_depth", &[("worker", &worker)])
                        .set(assigned[w].len() as f64);
                    Some(registry.histogram_with("engine.serve_us", &[("worker", &worker)]))
                })
                .collect()
        } else {
            vec![None; workers]
        };

        // Reserve a contiguous request-id block for the batch: request
        // `i` of this batch is `rid_base + i` everywhere — flight
        // events, SLO ticks, worker shards — so timelines from
        // concurrent workers reassemble by id.
        let rid_base = self
            .request_ids
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        // SLO tracking is telemetry: while the global switch is off an
        // attached tracker lies dormant (no ticks, no seals), so a
        // telemetry-off serve is byte-for-byte the uninstrumented path.
        let slo_guard = self.slo.lock().expect("slo lock poisoned").clone();
        let slo: Option<&SloTracker> = slo_guard.as_deref().filter(|_| telemetry_on);
        let flight_on = flight().is_enabled();
        // Pre-rejections are decided before any worker runs, so their
        // SLO ticks and dispositions are recorded up front — a batch
        // that sheds everything still advances the windows.
        let sample_mask = self.flight_sample_mask();
        for &i in &pre_rejected {
            if let Some(slo) = slo {
                slo.record(false, 0.0);
            }
            let rid = rid_base + i as u64;
            if flight_on && rid & sample_mask == 0 {
                flight().record(
                    FlightEvent::new(FlightKind::Disposition(DispositionMark::RejectNoIngress))
                        .tick(rid)
                        .request(rid)
                        .epoch(epoch),
                );
            }
        }

        let stats_before = self.cache_stats();
        let started = Instant::now();
        let ctx = constraints.as_ref();
        // A single worker runs inline: spawning a thread just to join
        // it costs tens of microseconds of syscall latency per batch
        // and adds scheduler jitter to every latency measurement.
        let produced: Vec<(Vec<WorkerItem>, WorkerStats)> = if workers == 1 {
            vec![self.run_worker(
                snap,
                epoch,
                requests,
                &assigned[0],
                worker_hists[0].as_ref(),
                ctx,
                0,
                started,
                rid_base,
                slo,
            )]
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = assigned
                    .iter()
                    .zip(&worker_hists)
                    .enumerate()
                    .map(|(w, (indices, hist))| {
                        scope.spawn(move || {
                            self.run_worker(
                                snap,
                                epoch,
                                requests,
                                indices,
                                hist.as_ref(),
                                ctx,
                                w,
                                started,
                                rid_base,
                                slo,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("engine worker panicked"))
                    .collect()
            })
        };
        let elapsed = started.elapsed().as_secs_f64();

        // Merge back into request order; tally errors, latencies,
        // dispositions, and border-proxy load.
        let mut paths: Vec<Option<Result<ServicePath, RouteError>>> = vec![None; requests.len()];
        let mut dispositions: Vec<Disposition> = vec![Disposition::Optimal; requests.len()];
        let batch_latency = Histogram::new();
        let mut border_load = vec![0u64; snap.proxy_count()];
        let mut errors = 0;
        let mut admission = AdmissionStats::default();
        for &i in &pre_rejected {
            paths[i] = Some(Err(RouteError::NoIngress));
            dispositions[i] = Disposition::Rejected(RejectReason::NoIngress);
            errors += 1;
            admission.rejected += 1;
            admission.rejected_no_ingress += 1;
        }
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
        let mut items: Vec<WorkerItem> = Vec::with_capacity(requests.len());
        for (list, mut stats) in produced {
            // Idle is the wall the batch spent waiting on *other*
            // workers after this one finished — the shard-imbalance
            // cost the attribution bench quantifies.
            stats.idle_us = (elapsed * 1e6 - stats.busy_us).max(0.0);
            worker_stats.push(stats);
            items.extend(list);
        }
        for item in items {
            batch_latency.record(item.latency_us);
            admission.retries += u64::from(item.retries);
            admission.health_drops += item.health_drops;
            let disposition = match &item.result {
                Ok(path) => {
                    for hop in path.hops() {
                        if snap.is_border(hop.proxy) {
                            border_load[hop.proxy.index()] += 1;
                        }
                    }
                    if item.degraded {
                        admission.degraded += 1;
                        Disposition::Degraded
                    } else {
                        admission.optimal += 1;
                        Disposition::Optimal
                    }
                }
                Err(err) => {
                    errors += 1;
                    admission.rejected += 1;
                    let reason = match err {
                        RouteError::NoIngress => {
                            admission.rejected_no_ingress += 1;
                            RejectReason::NoIngress
                        }
                        RouteError::Overloaded => {
                            admission.rejected_overloaded += 1;
                            RejectReason::Overloaded
                        }
                        _ => {
                            admission.rejected_unroutable += 1;
                            RejectReason::Unroutable
                        }
                    };
                    Disposition::Rejected(reason)
                }
            };
            dispositions[item.index] = disposition;
            paths[item.index] = Some(item.result);
        }
        let admitted_load: Vec<u64> = constraints
            .as_ref()
            .and_then(|c| c.admitted.as_ref())
            .map(|admitted| admitted.iter().map(|a| a.load(Ordering::Relaxed)).collect())
            .unwrap_or_default();

        let report = ServeReport {
            router: self.provider.name(),
            workers,
            epoch,
            requests: requests.len(),
            errors,
            elapsed_secs: elapsed,
            requests_per_sec: if elapsed > 0.0 {
                requests.len() as f64 / elapsed
            } else {
                0.0
            },
            latency: LatencySummary::from_histogram(&batch_latency),
            cache: self.cache_stats().since(&stats_before),
            border_load,
            admission,
            admitted_load,
            worker_stats,
        };
        if telemetry_on {
            let registry = son_telemetry::global();
            registry.counter("engine.cache.hits").add(report.cache.hits);
            registry
                .counter("engine.cache.misses")
                .add(report.cache.misses);
            registry
                .counter("engine.cache.stale_drops")
                .add(report.cache.stale_drops);
            registry
                .counter("engine.cache.insertions")
                .add(report.cache.insertions);
            registry
                .counter("engine.cache.evictions")
                .add(report.cache.evictions);
            registry
                .counter("engine.cache.csp_hits")
                .add(report.cache.csp_hits);
            registry
                .counter("engine.cache.csp_misses")
                .add(report.cache.csp_misses);
            registry
                .counter("engine.cache.stale_served")
                .add(report.cache.stale_served);
            registry
                .counter("engine.cache.revalidations")
                .add(report.cache.revalidations);
            registry
                .counter("engine.cache.negative_hits")
                .add(report.cache.negative_hits);
            registry
                .counter("engine.requests")
                .add(requests.len() as u64);
            registry.counter("engine.errors").add(errors as u64);
            let a = &report.admission;
            for (name, value) in [
                ("engine.admission.optimal", a.optimal),
                ("engine.admission.degraded", a.degraded),
                ("engine.admission.rejected", a.rejected),
                (
                    "engine.admission.rejected_no_ingress",
                    a.rejected_no_ingress,
                ),
                (
                    "engine.admission.rejected_overloaded",
                    a.rejected_overloaded,
                ),
                (
                    "engine.admission.rejected_unroutable",
                    a.rejected_unroutable,
                ),
                ("engine.admission.retries", a.retries),
                ("engine.admission.health_drops", a.health_drops),
            ] {
                registry.counter(name).add(value);
            }
            // The live-load gauges: how much admitted traffic each
            // proxy carried in this batch.
            for (i, &load) in report.admitted_load.iter().enumerate() {
                if load > 0 {
                    let proxy = i.to_string();
                    registry
                        .gauge_with("engine.proxy.load", &[("proxy", &proxy)])
                        .set(load as f64);
                }
            }
            // Per-worker time attribution: where each worker's
            // microseconds went, and how deep its shard queue was.
            for stats in &report.worker_stats {
                let worker = stats.worker.to_string();
                let labels: &[(&str, &str)] = &[("worker", &worker)];
                for (name, us) in [
                    ("engine.worker.busy_us", stats.busy_us),
                    ("engine.worker.idle_us", stats.idle_us),
                    ("engine.worker.queue_us", stats.queue_us),
                    ("engine.worker.route_us", stats.route_us),
                    ("engine.worker.admit_us", stats.admit_us),
                    ("engine.worker.cache_us", stats.cache_us),
                    ("engine.worker.dispatch_us", stats.dispatch_us),
                ] {
                    registry.counter_with(name, labels).add(us as u64);
                }
                registry
                    .gauge_with("engine.worker.queue_depth", labels)
                    .set(stats.requests as f64);
            }
        }
        if flight_on {
            // One stage-timing event per worker per stage per batch:
            // the timeline shows where the batch's time went without
            // per-request event volume.
            let rec = flight();
            let tick = self.tick_now();
            for stats in &report.worker_stats {
                for (stage, us) in [
                    (Stage::Busy, stats.busy_us),
                    (Stage::Idle, stats.idle_us),
                    (Stage::Queue, stats.queue_us),
                    (Stage::Route, stats.route_us),
                    (Stage::Admit, stats.admit_us),
                    (Stage::Cache, stats.cache_us),
                    (Stage::Dispatch, stats.dispatch_us),
                ] {
                    rec.record(
                        FlightEvent::new(FlightKind::StageTime(stage))
                            .tick(tick)
                            .epoch(epoch)
                            .worker(stats.worker)
                            .value(us),
                    );
                }
            }
        }
        ServeOutcome {
            paths: paths
                .into_iter()
                .map(|p| p.expect("every request is assigned to exactly one worker"))
                .collect(),
            dispositions,
            report,
        }
    }

    /// One worker's batch share: build a router, then answer each
    /// assigned request cache-first. Stale-served keys collected along
    /// the way are revalidated with fresh solves *after* the serving
    /// loop, so revalidation never sits on a request's latency path.
    ///
    /// Alongside the answers, the worker measures where its time went
    /// ([`WorkerStats`]): queue wait, route computation, admission
    /// checks, cache work, and dispatch holds. Route/admit/cache
    /// sections are clocked only while telemetry is enabled.
    #[allow(clippy::too_many_arguments)]
    fn run_worker(
        &self,
        snap: &EngineSnapshot<D>,
        epoch: u64,
        requests: &[ServiceRequest],
        indices: &[usize],
        latency_hist: Option<&Histogram>,
        ctx: Option<&BatchConstraints>,
        worker: usize,
        batch_started: Instant,
        rid_base: u64,
        slo: Option<&SloTracker>,
    ) -> (Vec<WorkerItem>, WorkerStats) {
        let worker_started = Instant::now();
        let flight_on = flight().is_enabled();
        let mut acc = StageAcc::new(son_telemetry::enabled());
        let mut queue_us = 0.0f64;
        let mut dispatch_us = 0.0f64;
        let router = self.provider.router(snap);
        // The CSP tier needs a router that can expose its cluster-level
        // sink frontier; providers that can't (flat, or multi-level with
        // a hierarchy) return `None` and the tier is bypassed.
        let csp_router = if self.config.csp_cache {
            self.provider.csp_router(snap)
        } else {
            None
        };
        let csp = csp_router.as_deref();
        // Retry re-routes go through a flat fallback router — complete
        // over the full topology, so with the avoid-set folded into its
        // cost model it finds whatever healthy path remains. Its index
        // is built by the batch's first retry.
        let fallback = OnceCell::new();
        // Latencies accumulate in a plain local histogram and fold into
        // the shared sinks (per-worker metric series, SLO tracker) at
        // window seals and batch end, so the per-request cost of
        // instrumentation is three plain writes, not atomics.
        let mut local_latency = if latency_hist.is_some() || slo.is_some() {
            Some(LocalHistogram::new())
        } else {
            None
        };
        let sample_mask = self.flight_sample_mask();
        // Dedup is a hash probe, not a scan: the stale-serve fast path
        // must stay O(1) however long the revalidation queue grows.
        let mut queued: std::collections::HashSet<RouteKey> = std::collections::HashSet::new();
        let mut revalidate: Vec<(RouteKey, usize)> = Vec::new();
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            let request = &requests[i];
            let rid = rid_base + i as u64;
            let rc = ReqCtx {
                rid,
                worker,
                flight_on: flight_on && rid & sample_mask == 0,
            };
            acc.arm();
            let begun = Instant::now();
            queue_us += begun.duration_since(batch_started).as_secs_f64() * 1e6;
            let key = RouteKey::encode(snap.ingress(request), request);
            let (result, retries, degraded, health_drops, backoff_us) = match ctx {
                None => {
                    let lookup = acc.measure(StageSlot::Cache, || {
                        self.cache.lookup_swr(&key, epoch, &self.stale_budget)
                    });
                    let result = match lookup {
                        SwrLookup::Hit(path) => {
                            rc.verdict(CacheVerdict::Hit, epoch);
                            Ok(path)
                        }
                        SwrLookup::Stale(path) => {
                            // A previous-epoch route may be served only
                            // if every hop still exists, still offers
                            // its service, and is routable in the
                            // *current* snapshot.
                            let usable = acc.measure(StageSlot::Admit, || {
                                self.stale_path_usable(snap, &path, None)
                            });
                            if usable {
                                rc.verdict(CacheVerdict::StaleServe, epoch);
                                if queued.insert(key.clone()) {
                                    revalidate.push((key.clone(), i));
                                }
                                Ok(path)
                            } else {
                                rc.verdict(CacheVerdict::StaleDrop, epoch);
                                self.cache.remove(&key);
                                self.route_uncached(
                                    snap,
                                    epoch,
                                    request,
                                    &key,
                                    router.as_ref(),
                                    csp,
                                    rc,
                                    &mut acc,
                                )
                            }
                        }
                        SwrLookup::Miss => {
                            rc.verdict(CacheVerdict::Miss, epoch);
                            self.route_uncached(
                                snap,
                                epoch,
                                request,
                                &key,
                                router.as_ref(),
                                csp,
                                rc,
                                &mut acc,
                            )
                        }
                        SwrLookup::StaleDrop => {
                            rc.verdict(CacheVerdict::StaleDrop, epoch);
                            self.route_uncached(
                                snap,
                                epoch,
                                request,
                                &key,
                                router.as_ref(),
                                csp,
                                rc,
                                &mut acc,
                            )
                        }
                    };
                    (result, 0, false, 0, 0.0)
                }
                Some(ctx) => self.serve_constrained(
                    snap,
                    epoch,
                    request,
                    &key,
                    router.as_ref(),
                    csp,
                    &fallback,
                    ctx,
                    (&mut queued, &mut revalidate),
                    i,
                    rc,
                    &mut acc,
                ),
            };
            if self.config.dispatch_us_per_delay > 0.0 {
                if let Ok(path) = &result {
                    let hold = path.length(snap.delays()) * self.config.dispatch_us_per_delay;
                    dispatch_us += hold;
                    thread::sleep(Duration::from_micros(hold as u64));
                }
            }
            // Backoff is *accounted* into the client-visible latency
            // rather than slept — benches see the penalty without the
            // harness wasting wall-clock.
            let latency_us = begun.elapsed().as_secs_f64() * 1e6 + backoff_us;
            if let Some(local) = local_latency.as_mut() {
                local.record(latency_us);
            }
            rc.emit(
                FlightKind::Disposition(disposition_mark(&result, degraded)),
                epoch,
            );
            if let Some(slo) = slo {
                // One relaxed fetch-add per request; latencies ride the
                // local histogram and fold in at window boundaries.
                let sealing = if result.is_ok() {
                    slo.tick_served()
                } else {
                    slo.tick_rejected()
                };
                if let Some(tick) = sealing {
                    // A window seal is an export boundary (the SLO layer
                    // or its anomaly handler may snapshot the registry):
                    // flush this worker's batched latencies first so the
                    // sealing window sees them and no export interleaves
                    // with a partial flush.
                    if let Some(local) = local_latency.as_mut() {
                        match latency_hist {
                            Some(hist) => local.flush_into_each(&[hist, slo.latency_sink()]),
                            None => local.flush_into(slo.latency_sink()),
                        }
                    }
                    slo.seal_at(tick);
                }
            }
            out.push(WorkerItem {
                index: i,
                result,
                latency_us,
                retries,
                degraded,
                health_drops,
            });
        }
        if let Some(local) = local_latency.as_mut() {
            let mut sinks: Vec<&Histogram> = Vec::with_capacity(2);
            sinks.extend(latency_hist);
            sinks.extend(slo.map(|s| s.latency_sink()));
            local.flush_into_each(&sinks);
        }
        // Revalidate every stale-served key with a fresh current-epoch
        // solve. This runs after the last request is answered, so the
        // serving loop pays cache-lookup latency while the cache still
        // converges to current-epoch truth within the batch.
        for (key, i) in revalidate {
            let request = &requests[i];
            match self.solve_fresh(snap, epoch, request, router.as_ref(), csp, ReqCtx::silent()) {
                Ok(path) => {
                    let ok_for_ctx = ctx.is_none_or(|c| c.first_down_hop(&path).is_none());
                    if ok_for_ctx {
                        self.cache.insert(key, epoch, path);
                    } else {
                        self.cache.remove(&key);
                    }
                }
                Err(err) => {
                    self.cache.remove(&key);
                    if ctx.is_none_or(|c| !c.admission.enabled)
                        && matches!(err, RouteError::NoProvider(_) | RouteError::Infeasible)
                    {
                        let gen = self.health_gen.load(Ordering::SeqCst);
                        self.negative.insert(key, epoch, gen, err);
                    }
                }
            }
            self.revalidations.fetch_add(1, Ordering::Relaxed);
        }
        // Sampled stage times scale back up to shard estimates; busy,
        // queue, and dispatch are exact (their clocks and holds exist
        // regardless of instrumentation).
        let scale = acc.scale();
        let stats = WorkerStats {
            worker,
            requests: indices.len() as u64,
            busy_us: worker_started.elapsed().as_secs_f64() * 1e6,
            idle_us: 0.0, // filled by serve() once the batch wall is known
            queue_us,
            route_us: acc.route_us * scale,
            admit_us: acc.admit_us * scale,
            cache_us: acc.cache_us * scale,
            dispatch_us,
        };
        (out, stats)
    }

    /// Whether a previous-epoch cached path is still servable over the
    /// current snapshot (and, when constrained, the live health view):
    /// every hop must exist, still advertise its assigned service, and
    /// be routable. This is what keeps "no served route traverses a
    /// `Down` proxy" structural even for stale-served routes.
    fn stale_path_usable(
        &self,
        snap: &EngineSnapshot<D>,
        path: &ServicePath,
        ctx: Option<&BatchConstraints>,
    ) -> bool {
        let n = snap.proxy_count();
        for hop in path.hops() {
            if hop.proxy.index() >= n {
                return false;
            }
            if let Some(s) = hop.service {
                if !snap.services()[hop.proxy.index()].contains(s) {
                    return false;
                }
            }
            if !snap.is_routable(hop.proxy) {
                return false;
            }
        }
        ctx.is_none_or(|ctx| ctx.first_down_hop(path).is_none())
    }

    /// The (ingress, source class, destination cluster, DAG) key under
    /// which this request's CSP frontier is shared. `None` when the
    /// request has an empty service graph (the CSP tier is bypassed —
    /// frontier replay is not defined there).
    fn csp_key(&self, snap: &EngineSnapshot<D>, request: &ServiceRequest) -> Option<CspKey> {
        let ingress = snap.ingress(request);
        let dest_cluster = snap.hfc().cluster_of(request.destination);
        let known = if snap.is_border(request.source) || ingress == dest_cluster {
            Some(request.source.index() as u32)
        } else {
            None
        };
        CspKey::encode(ingress, dest_cluster, known, request)
    }

    /// One full routing computation with the CSP tier folded in: a
    /// frontier hit skips the inter-cluster DP and replays only the
    /// cheap per-request closing and intra-cluster legs; a miss solves
    /// the frontier once and shares it. Replay is bit-identical to
    /// `router.route_path` by construction (see `son_routing::csp`).
    fn solve_fresh(
        &self,
        snap: &EngineSnapshot<D>,
        epoch: u64,
        request: &ServiceRequest,
        router: &dyn Router,
        csp: Option<&dyn CspRouter>,
        rc: ReqCtx,
    ) -> Result<ServicePath, RouteError> {
        let Some(csp_router) = csp else {
            return router.route_path(request);
        };
        let Some(ckey) = self.csp_key(snap, request) else {
            return router.route_path(request);
        };
        match self.csp.lookup(&ckey, epoch) {
            Some(frontier) => {
                rc.verdict(CacheVerdict::CspHit, epoch);
                csp_router.route_from_frontier(request, &frontier)
            }
            None => match csp_router.solve_frontier(request) {
                Ok(frontier) => {
                    let frontier = Arc::new(frontier);
                    self.csp.insert(ckey, epoch, Arc::clone(&frontier));
                    csp_router.route_from_frontier(request, &frontier)
                }
                Err(err) => Err(err),
            },
        }
    }

    /// Uncached unconstrained solve: negative fast-reject, then the
    /// CSP-aware fresh solve, then cache fill (positive or negative).
    #[allow(clippy::too_many_arguments)]
    fn route_uncached(
        &self,
        snap: &EngineSnapshot<D>,
        epoch: u64,
        request: &ServiceRequest,
        key: &RouteKey,
        router: &dyn Router,
        csp: Option<&dyn CspRouter>,
        rc: ReqCtx,
        acc: &mut StageAcc,
    ) -> Result<ServicePath, RouteError> {
        let health_gen = self.health_gen.load(Ordering::SeqCst);
        let negative = acc.measure(StageSlot::Cache, || {
            self.negative.lookup(key, epoch, health_gen)
        });
        if let Some(err) = negative {
            rc.verdict(CacheVerdict::NegativeHit, epoch);
            return Err(err);
        }
        let result = acc.measure(StageSlot::Route, || {
            self.solve_fresh(snap, epoch, request, router, csp, rc)
        });
        acc.measure(StageSlot::Cache, || match &result {
            Ok(path) => self.cache.insert(key.clone(), epoch, path.clone()),
            Err(err) => {
                if matches!(err, RouteError::NoProvider(_) | RouteError::Infeasible) {
                    self.negative
                        .insert(key.clone(), epoch, health_gen, err.clone());
                }
            }
        });
        result
    }

    /// The admission/failover pipeline for one request:
    ///
    /// 1. cache-first, with **epoch-independent health validation** —
    ///    a hit through a proxy the live view says is `Down` is dropped
    ///    from the cache and recomputed;
    /// 2. the primary router answers over the snapshot's load-aware
    ///    cost model;
    /// 3. the answer is checked against live health and charged against
    ///    per-proxy admission tokens (all hops or nothing);
    /// 4. on failure, the offending proxy joins the avoid set and a
    ///    bounded exponential-backoff retry re-routes around it via the
    ///    flat fallback router.
    ///
    /// Every *served* path is health-checked here, which is what makes
    /// "no served route traverses a `Down` proxy" structural rather
    /// than statistical — including routes served stale: a
    /// previous-epoch entry is validated against the current snapshot
    /// *and* the live health view before it is ever handed out.
    #[allow(clippy::too_many_arguments)]
    fn serve_constrained(
        &self,
        snap: &EngineSnapshot<D>,
        epoch: u64,
        request: &ServiceRequest,
        key: &RouteKey,
        router: &dyn Router,
        csp: Option<&dyn CspRouter>,
        fallback: &OnceCell<ProviderIndex>,
        ctx: &BatchConstraints,
        revalidate: (
            &mut std::collections::HashSet<RouteKey>,
            &mut Vec<(RouteKey, usize)>,
        ),
        index: usize,
        rc: ReqCtx,
        acc: &mut StageAcc,
    ) -> (Result<ServicePath, RouteError>, u32, bool, u64, f64) {
        let mut health_drops = 0u64;
        let mut retries = 0u32;
        let mut backoff_us = 0.0f64;
        let mut avoid: Vec<ProxyId> = Vec::new();
        let mut overloaded = false;

        // Negative fast-reject: an unroutable verdict recorded under
        // this epoch and health generation is final — recomputing (and
        // re-retrying) it would reach the same answer.
        let health_gen = self.health_gen.load(Ordering::SeqCst);
        let negative = acc.measure(StageSlot::Cache, || {
            self.negative.lookup(key, epoch, health_gen)
        });
        if let Some(err) = negative {
            rc.verdict(CacheVerdict::NegativeHit, epoch);
            return (Err(err), 0, false, 0, 0.0);
        }

        let lookup = acc.measure(StageSlot::Cache, || {
            self.cache.lookup_swr(key, epoch, &self.stale_budget)
        });
        let mut candidate: Result<(ServicePath, bool), RouteError> = match lookup {
            SwrLookup::Hit(path) => {
                let down = acc.measure(StageSlot::Admit, || ctx.first_down_hop(&path));
                if down.is_some() {
                    rc.verdict(CacheVerdict::HealthDrop, epoch);
                    self.cache.remove(key);
                    health_drops += 1;
                    acc.measure(StageSlot::Route, || {
                        self.solve_fresh(snap, epoch, request, router, csp, rc)
                    })
                    .map(|p| (p, false))
                } else {
                    rc.verdict(CacheVerdict::Hit, epoch);
                    Ok((path, true))
                }
            }
            SwrLookup::Stale(path) => {
                let usable = acc.measure(StageSlot::Admit, || {
                    self.stale_path_usable(snap, &path, Some(ctx))
                });
                if usable {
                    rc.verdict(CacheVerdict::StaleServe, epoch);
                    if revalidate.0.insert(key.clone()) {
                        revalidate.1.push((key.clone(), index));
                    }
                    Ok((path, true))
                } else {
                    rc.verdict(CacheVerdict::StaleDrop, epoch);
                    self.cache.remove(key);
                    acc.measure(StageSlot::Route, || {
                        self.solve_fresh(snap, epoch, request, router, csp, rc)
                    })
                    .map(|p| (p, false))
                }
            }
            miss @ (SwrLookup::Miss | SwrLookup::StaleDrop) => {
                rc.verdict(
                    if matches!(miss, SwrLookup::Miss) {
                        CacheVerdict::Miss
                    } else {
                        CacheVerdict::StaleDrop
                    },
                    epoch,
                );
                acc.measure(StageSlot::Route, || {
                    self.solve_fresh(snap, epoch, request, router, csp, rc)
                })
                .map(|p| (p, false))
            }
        };

        let mut attempt = 0u32;
        loop {
            let mut route_error = None;
            match candidate {
                Ok((path, from_cache)) => {
                    let down = acc.measure(StageSlot::Admit, || ctx.first_down_hop(&path));
                    if let Some(p) = down {
                        if !avoid.contains(&p) {
                            avoid.push(p);
                        }
                        overloaded = false;
                    } else {
                        let admitted = acc.measure(StageSlot::Admit, || ctx.try_admit(&path));
                        match admitted {
                            Ok(()) => {
                                if !from_cache && attempt == 0 {
                                    acc.measure(StageSlot::Cache, || {
                                        self.cache.insert(key.clone(), epoch, path.clone())
                                    });
                                }
                                let degraded = attempt > 0 || ctx.touches_draining(&path);
                                return (Ok(path), retries, degraded, health_drops, backoff_us);
                            }
                            Err(p) => {
                                if !avoid.contains(&p) {
                                    avoid.push(p);
                                }
                                overloaded = true;
                            }
                        }
                    }
                }
                Err(err) => route_error = Some(err),
            }
            if attempt >= ctx.admission.max_retries {
                let err = match route_error {
                    Some(err) => err,
                    None if overloaded => RouteError::Overloaded,
                    None => RouteError::Infeasible,
                };
                // Cache the unroutable verdict, but only when admission
                // is off: with token buckets active the final error can
                // depend on this batch's token state, which the
                // (epoch, health-gen) key does not capture.
                if !ctx.admission.enabled
                    && matches!(err, RouteError::NoProvider(_) | RouteError::Infeasible)
                {
                    self.negative
                        .insert(key.clone(), epoch, health_gen, err.clone());
                }
                return (Err(err), retries, false, health_drops, backoff_us);
            }
            attempt += 1;
            retries += 1;
            backoff_us += ctx.admission.backoff_base_us * 2f64.powi(attempt as i32 - 1);
            if rc.flight_on {
                // The retry event names the proxy being routed around —
                // the most recent addition to the avoid set, if any.
                let mut ev = FlightEvent::new(FlightKind::FailoverRetry)
                    .tick(rc.rid)
                    .request(rc.rid)
                    .epoch(epoch)
                    .worker(rc.worker)
                    .value(backoff_us);
                if let Some(p) = avoid.last() {
                    ev = ev.proxy(p.index() as u32);
                }
                flight().record(ev);
            }
            // Re-route with dead and saturated proxies priced out.
            candidate = acc.measure(StageSlot::Route, || {
                let mut statuses = ctx.model.statuses().clone();
                for &p in &avoid {
                    statuses.set_health(p, Health::Down);
                }
                let model = CostModel::new(*ctx.model.config(), statuses);
                let delays = LoadAwareDelays::new(snap.delays(), &model);
                let providers =
                    fallback.get_or_init(|| ProviderIndex::from_service_sets(snap.services()));
                FlatRouter::new(providers, delays)
                    .route(request)
                    .map(|p| (p, false))
            });
        }
    }

    /// Routes one request through the full serving path — cache lookup,
    /// router, cache fill — and returns its provenance record alongside
    /// the answer. The cache is consulted and populated exactly as in
    /// [`Engine::serve`], so tracing the same request twice shows a miss
    /// followed by a hit.
    pub fn trace_request(
        &self,
        request: &ServiceRequest,
    ) -> (Result<ServicePath, RouteError>, RouteTrace) {
        let snapshot = self.snapshot();
        let snap: &EngineSnapshot<D> = &snapshot;
        let epoch = snap.epoch();
        let key = RouteKey::encode(snap.ingress(request), request);
        let started = Instant::now();
        let (mut cached, mut outcome) = self.cache.lookup_explain(&key, epoch);
        // Same epoch-independent health validation as the serve path: a
        // hit through a live-`Down` proxy is dropped, not traced as
        // served.
        if let (Some(path), Some(ctx)) = (&cached, self.constraints(snap)) {
            if ctx.first_down_hop(path).is_some() {
                self.cache.remove(&key);
                cached = None;
                outcome = LookupOutcome::StaleDrop;
            }
        }
        match cached {
            Some(path) => {
                let mut trace = son_routing::request_trace(self.provider.name(), request);
                trace.epoch = Some(epoch);
                trace.cache = Some(CacheOutcome::Hit);
                trace.hops = trace_hops(&path);
                trace.cost = Some(path.length(snap.delays()));
                trace.elapsed_us = started.elapsed().as_secs_f64() * 1e6;
                (Ok(path), trace)
            }
            None => {
                let router = self.provider.traced_router(snap);
                let (mut result, mut trace) = router.route_with_trace(request);
                trace.epoch = Some(epoch);
                trace.cache = Some(match outcome {
                    LookupOutcome::StaleDrop => CacheOutcome::StaleDrop,
                    _ => CacheOutcome::Miss,
                });
                // The provider router only knows the snapshot statuses;
                // when a live override forbids a hop of the fresh
                // route, fail over exactly as the serve path does:
                // re-route flat with `Down` proxies priced out.
                let mut failover = false;
                if let Some(ctx) = self.constraints(snap) {
                    if result
                        .as_ref()
                        .is_ok_and(|path| ctx.first_down_hop(path).is_some())
                    {
                        failover = true;
                        let index = ProviderIndex::from_service_sets(snap.services());
                        let delays = LoadAwareDelays::new(snap.delays(), &ctx.model);
                        result = FlatRouter::new(&index, delays).route(request);
                        trace.router = "flat-failover".to_string();
                        if let Ok(path) = &result {
                            trace.hops = trace_hops(path);
                        }
                        trace.cost = None;
                    }
                }
                if let Ok(path) = &result {
                    if trace.cost.is_none() {
                        trace.cost = Some(path.length(snap.delays()));
                    }
                    // Failover paths are valid only while the override
                    // holds, so (as in `serve`) they are not cached.
                    if !failover {
                        self.cache.insert(key, epoch, path.clone());
                    }
                }
                trace.elapsed_us = started.elapsed().as_secs_f64() * 1e6;
                (result, trace)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::HierProvider;
    use son_clustering::Clustering;
    use son_overlay::{DelayMatrix, HfcTopology, ProxyId, ServiceGraph, ServiceId, ServiceSet};

    fn line_snapshot(n: usize, clusters: usize) -> EngineSnapshot<DelayMatrix> {
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let labels: Vec<usize> = (0..n).map(|i| i * clusters / n).collect();
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        let services = (0..n)
            .map(|i| ServiceSet::from_iter([ServiceId::new(i % 4)]))
            .collect();
        EngineSnapshot::new(hfc, services, delays)
    }

    fn requests(n: usize, count: usize) -> Vec<ServiceRequest> {
        (0..count)
            .map(|k| {
                ServiceRequest::new(
                    ProxyId::new(k % n),
                    ServiceGraph::linear(vec![ServiceId::new(k % 4), ServiceId::new((k + 1) % 4)]),
                    ProxyId::new((k * 7 + 3) % n),
                )
            })
            .collect()
    }

    fn engine(workers: usize) -> Engine<DelayMatrix, HierProvider> {
        Engine::new(
            line_snapshot(12, 3),
            HierProvider::default(),
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn serves_valid_paths_in_request_order() {
        let eng = engine(2);
        let batch = requests(12, 40);
        let outcome = eng.serve(&batch);
        assert_eq!(outcome.paths.len(), batch.len());
        assert_eq!(outcome.report.errors, 0);
        assert_eq!(outcome.report.requests, 40);
        let snap = eng.snapshot();
        for (request, path) in batch.iter().zip(&outcome.paths) {
            let path = path.as_ref().expect("routable");
            path.validate(request, |p, s| snap.services()[p.index()].contains(s))
                .unwrap();
        }
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let batch = requests(12, 60);
        let single = engine(1).serve(&batch);
        for workers in [2, 3, 4, 7] {
            let multi = engine(workers).serve(&batch);
            assert_eq!(multi.paths, single.paths, "{workers} workers");
            assert_eq!(multi.report.workers, workers);
        }
    }

    #[test]
    fn repeated_batch_hits_the_cache() {
        let eng = engine(2);
        // 12 requests over 12 proxies: all distinct (the generator
        // repeats with period 12), so the cold pass has no self-hits.
        let batch = requests(12, 12);
        let cold = eng.serve(&batch);
        assert_eq!(cold.report.cache.hits, 0);
        let warm = eng.serve(&batch);
        assert_eq!(warm.report.cache.misses, 0);
        assert_eq!(warm.report.cache.hits as usize, batch.len());
        assert_eq!(warm.paths, cold.paths);
    }

    #[test]
    fn install_snapshot_bumps_epoch_and_invalidates() {
        let eng = engine(2);
        let batch = requests(12, 12); // distinct, see above
        eng.serve(&batch);
        assert_eq!(eng.install_snapshot(line_snapshot(12, 3)), 1);
        assert_eq!(eng.epoch(), 1);
        let after = eng.serve(&batch);
        assert_eq!(after.report.epoch, 1);
        // Every cached path was stamped with epoch 0: all miss.
        assert_eq!(after.report.cache.hits, 0);
        assert_eq!(after.report.cache.stale_drops as usize, batch.len());
    }

    #[test]
    fn border_load_counts_only_borders() {
        let eng = engine(1);
        let outcome = eng.serve(&requests(12, 50));
        let snap = eng.snapshot();
        assert_eq!(outcome.report.border_load.len(), 12);
        for (i, &load) in outcome.report.border_load.iter().enumerate() {
            if !snap.is_border(ProxyId::new(i)) {
                assert_eq!(load, 0, "proxy {i} is not a border");
            }
        }
        // Cross-cluster requests exist, so some border carried load.
        assert!(outcome.report.busiest_borders().iter().any(|&(_, l)| l > 0));
    }

    #[test]
    fn trace_request_shows_miss_then_hit() {
        let eng = engine(1);
        let batch = requests(12, 1);
        let (first, miss_trace) = eng.trace_request(&batch[0]);
        let first = first.unwrap();
        assert_eq!(miss_trace.cache, Some(CacheOutcome::Miss));
        assert_eq!(miss_trace.epoch, Some(0));
        assert_eq!(miss_trace.router, "hier");
        assert!(!miss_trace.hops.is_empty());
        assert!(miss_trace.cost.is_some());

        let (second, hit_trace) = eng.trace_request(&batch[0]);
        assert_eq!(second.unwrap(), first);
        assert_eq!(hit_trace.cache, Some(CacheOutcome::Hit));
        assert_eq!(hit_trace.cost, miss_trace.cost);

        // Epoch bump turns the cached entry into a stale drop.
        eng.install_snapshot(line_snapshot(12, 3));
        let (_, stale_trace) = eng.trace_request(&batch[0]);
        assert_eq!(stale_trace.cache, Some(CacheOutcome::StaleDrop));
        assert_eq!(stale_trace.epoch, Some(1));
    }

    #[test]
    fn serve_folds_cache_counters_into_the_registry() {
        let registry = son_telemetry::global();
        let hits_before = registry.counter("engine.cache.hits").get();
        let misses_before = registry.counter("engine.cache.misses").get();
        let eng = engine(2);
        let batch = requests(12, 12); // all distinct
        let cold = eng.serve(&batch);
        let warm = eng.serve(&batch);
        // Registry counters are global and only grow; other tests may
        // add more, so assert at-least the two batches' deltas.
        assert!(
            registry.counter("engine.cache.hits").get() >= hits_before + warm.report.cache.hits
        );
        assert!(
            registry.counter("engine.cache.misses").get()
                >= misses_before + cold.report.cache.misses
        );
        // Per-worker latency histograms exist and saw this batch.
        let h0 = registry.histogram_with("engine.serve_us", &[("worker", "0")]);
        assert!(h0.count() > 0);
    }

    fn served_proxies(outcome: &ServeOutcome) -> Vec<ProxyId> {
        outcome
            .paths
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|p| p.hops().iter())
            .map(|h| h.proxy)
            .collect()
    }

    #[test]
    fn admission_sheds_and_never_exceeds_capacity() {
        use son_overlay::StatusMap;
        use son_routing::CostConfig;
        let mut statuses = StatusMap::all_up(12);
        for i in 0..12 {
            statuses.set_capacity(ProxyId::new(i), 3);
        }
        let snapshot = line_snapshot(12, 3).with_statuses(statuses, CostConfig::balanced());
        let eng = Engine::new(
            snapshot,
            HierProvider::default(),
            EngineConfig {
                workers: 2,
                admission: AdmissionConfig {
                    enabled: true,
                    ..AdmissionConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        let batch = requests(12, 60);
        let outcome = eng.serve(&batch);
        let a = outcome.report.admission;
        // Accounting: every request lands in exactly one class.
        assert_eq!(a.total(), 60, "{a:?}");
        assert_eq!(outcome.dispositions.len(), 60);
        // 60 requests × ≥2 hops over 12 proxies × 3 tokens each must
        // saturate: some requests are shed as overloaded.
        assert!(a.rejected_overloaded > 0, "{a:?}");
        assert!(a.served() > 0, "{a:?}");
        // The hard invariant: no proxy admits more than its capacity.
        for (i, &load) in outcome.report.admitted_load.iter().enumerate() {
            assert!(load <= 3, "proxy {i} admitted {load} > capacity 3");
        }
        // Dispositions agree with the per-request results.
        for (d, p) in outcome.dispositions.iter().zip(&outcome.paths) {
            assert_eq!(d.is_served(), p.is_ok(), "{d:?} vs {p:?}");
        }
    }

    /// Like [`line_snapshot`] but only the middle cluster (proxies
    /// 4..8) carries service 0 — forcing provider hops onto interior
    /// proxies.
    fn middle_provider_snapshot() -> EngineSnapshot<DelayMatrix> {
        let n = 12;
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let labels: Vec<usize> = (0..n).map(|i| i * 3 / n).collect();
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        let services = (0..n)
            .map(|i| {
                if (4..8).contains(&i) {
                    ServiceSet::from_iter([ServiceId::new(0)])
                } else {
                    ServiceSet::new()
                }
            })
            .collect();
        EngineSnapshot::new(hfc, services, delays)
    }

    #[test]
    fn live_down_invalidates_cache_and_reroutes() {
        let eng = Engine::new(
            middle_provider_snapshot(),
            HierProvider::default(),
            EngineConfig {
                workers: 2,
                admission: AdmissionConfig {
                    enabled: true,
                    ..AdmissionConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        // Only the middle cluster (proxies 4..8) carries the service,
        // while sources sit in cluster 0 and destinations in cluster 2:
        // every path's provider hop is nobody's endpoint, so rerouting
        // around a dead provider can succeed.
        let batch: Vec<ServiceRequest> = (0..8)
            .map(|k| {
                ServiceRequest::new(
                    ProxyId::new(k % 4),
                    ServiceGraph::linear(vec![ServiceId::new(0)]),
                    ProxyId::new(8 + (k % 4)),
                )
            })
            .collect();
        let clean = eng.serve(&batch);
        assert_eq!(clean.report.admission.rejected, 0);
        let victim = clean
            .paths
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|p| p.hops().iter())
            .filter(|h| h.service.is_some())
            .map(|h| h.proxy)
            .find(|&p| batch.iter().all(|r| r.source != p && r.destination != p))
            .expect("some interior proxy serves");
        assert!((4..8).contains(&victim.index()), "{victim}");

        eng.set_health(victim, Health::Down);
        let after = eng.serve(&batch);
        let a = after.report.admission;
        // Cached routes through the victim are dropped on hit — no
        // epoch bump needed — and the requests re-route around it.
        assert!(a.health_drops > 0, "{a:?}");
        assert!(a.retries > 0, "{a:?}");
        assert!(a.degraded > 0, "{a:?}");
        assert!(
            !served_proxies(&after).contains(&victim),
            "a served path still traverses the Down {victim}"
        );
        assert_eq!(a.total(), 8, "{a:?}");
        // The override is live state: installing a fresh snapshot
        // clears it and the victim serves again.
        eng.install_snapshot(middle_provider_snapshot());
        let restored = eng.serve(&batch);
        assert!(served_proxies(&restored).contains(&victim));
    }

    #[test]
    fn fully_down_ingress_cluster_rejects_no_ingress() {
        let eng = engine(2);
        // Cluster 0 is proxies 0..4; take them all down live.
        for i in 0..4 {
            eng.set_health(ProxyId::new(i), Health::Down);
        }
        let batch = requests(12, 12);
        let outcome = eng.serve(&batch);
        for (request, (disposition, path)) in batch
            .iter()
            .zip(outcome.dispositions.iter().zip(&outcome.paths))
        {
            if request.source.index() < 4 {
                // No Up proxy can accept the session: a distinct,
                // audited rejection — never a silent drop or panic.
                assert_eq!(
                    *disposition,
                    Disposition::Rejected(RejectReason::NoIngress),
                    "{request:?}"
                );
                assert!(matches!(path, Err(RouteError::NoIngress)), "{path:?}");
            } else if request.destination.index() < 4 {
                // The mandatory egress hop is Down: unroutable, not
                // NoIngress.
                assert!(!disposition.is_served(), "{disposition:?}");
            } else {
                assert!(disposition.is_served(), "{disposition:?} {request:?}");
            }
        }
        assert!(outcome.report.admission.rejected_no_ingress > 0);
        assert!(!served_proxies(&outcome).iter().any(|p| p.index() < 4));
    }

    #[test]
    fn draining_proxies_still_serve_but_degraded() {
        use son_overlay::StatusMap;
        use son_routing::CostConfig;
        // Cluster 2 (proxies 8..12) drains. Requests from cluster 0 to
        // a draining destination must still be served — the mandatory
        // egress hop touches a Draining proxy — but classed Degraded,
        // never Rejected.
        let mut statuses = StatusMap::all_up(12);
        for i in 8..12 {
            statuses.set_health(ProxyId::new(i), Health::Draining);
        }
        let snapshot = line_snapshot(12, 3).with_statuses(statuses, CostConfig::balanced());
        let eng = Engine::new(snapshot, HierProvider::default(), EngineConfig::default());
        let batch: Vec<ServiceRequest> = (0..12)
            .map(|k| {
                ServiceRequest::new(
                    ProxyId::new(k % 4),
                    ServiceGraph::linear(vec![ServiceId::new(k % 4)]),
                    ProxyId::new(8 + (k % 4)),
                )
            })
            .collect();
        let outcome = eng.serve(&batch);
        let a = outcome.report.admission;
        assert_eq!(a.rejected, 0, "{a:?}");
        assert_eq!(a.optimal, 0, "{a:?}");
        assert_eq!(a.degraded, 12, "{a:?}");
        assert!(outcome.dispositions.iter().all(|d| d.is_served()));
    }

    #[test]
    fn dispatch_hold_slows_single_worker() {
        let snapshot = line_snapshot(12, 3);
        let batch = requests(12, 8);
        let config = EngineConfig {
            workers: 1,
            dispatch_us_per_delay: 2_000.0,
            ..EngineConfig::default()
        };
        let eng = Engine::new(snapshot, HierProvider::default(), config);
        let outcome = eng.serve(&batch);
        // Every request holds ≥ 0; cross-proxy paths hold ≥ 2ms each.
        assert!(outcome.report.elapsed_secs > 0.002);
        assert_eq!(outcome.report.errors, 0);
    }

    /// A leaked private recorder so SLO/anomaly tests never touch the
    /// process-global ring other tests may be using.
    fn private_flight(capacity: usize) -> &'static son_telemetry::FlightRecorder {
        let recorder = Box::leak(Box::new(son_telemetry::FlightRecorder::new(capacity)));
        recorder.set_enabled(true);
        recorder
    }

    #[test]
    fn worker_stats_attribute_the_batch() {
        let eng = engine(2);
        let batch = requests(12, 30);
        let outcome = eng.serve(&batch);
        let stats = &outcome.report.worker_stats;
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|w| w.requests).sum::<u64>(), 30);
        for w in stats {
            assert!(w.busy_us > 0.0, "{w:?}");
            assert!(w.idle_us >= 0.0, "{w:?}");
            assert!(w.queue_us >= 0.0, "{w:?}");
        }
        // Telemetry is on by default, so the cold batch's CSP solves
        // show up as route time and its lookups as cache time.
        let breakdown = outcome.report.stage_breakdown();
        assert!(breakdown.busy_us > 0.0, "{breakdown:?}");
        assert!(breakdown.route_us > 0.0, "{breakdown:?}");
        assert!(breakdown.cache_us > 0.0, "{breakdown:?}");
        assert!(breakdown.imbalance >= 1.0, "{breakdown:?}");
    }

    #[test]
    fn attach_slo_windows_advance_on_served_ticks() {
        let recorder = private_flight(256);
        let slo = Arc::new(SloTracker::with_flight(
            son_telemetry::SloConfig {
                window_ticks: 8,
                ..son_telemetry::SloConfig::default()
            },
            recorder,
        ));
        let eng = engine(1);
        eng.attach_slo(Arc::clone(&slo));
        let outcome = eng.serve(&requests(12, 24));
        assert_eq!(outcome.report.errors, 0);
        // One tick per request: 24 requests seal exactly 3 windows, and
        // every sealed frame holds exactly its 8 requests' deltas.
        assert_eq!(slo.ticks(), 24);
        assert_eq!(slo.sealed(), 3);
        assert_eq!(slo.served_total(), 24);
        assert_eq!(slo.rejected_total(), 0);
        for frame in slo.frames() {
            assert_eq!(frame.served, 8, "{frame:?}");
            assert_eq!(frame.rejected, 0, "{frame:?}");
            assert_eq!(frame.latency.count, 8, "{frame:?}");
            assert_eq!(frame.availability, 1.0, "{frame:?}");
            assert!(frame.availability_ok, "{frame:?}");
        }
        assert_eq!(slo.breaches(), 0);
        assert!(recorder.anomaly().is_none());
    }

    #[test]
    fn rejection_spike_fires_the_anomaly_through_serve() {
        let recorder = private_flight(256);
        let slo = Arc::new(SloTracker::with_flight(
            son_telemetry::SloConfig {
                window_ticks: 4,
                rejection_trigger: 0.5,
                ..son_telemetry::SloConfig::default()
            },
            recorder,
        ));
        let eng = engine(2);
        eng.attach_slo(Arc::clone(&slo));
        // Every proxy Down: all 8 requests shed as NoIngress before the
        // workers even spawn, so the ticks are sequential and the first
        // window's rejection rate is exactly 1.0 ≥ the 0.5 trigger.
        for i in 0..12 {
            eng.set_health(ProxyId::new(i), Health::Down);
        }
        let outcome = eng.serve(&requests(12, 8));
        assert_eq!(outcome.report.admission.rejected_no_ingress, 8);
        assert_eq!(slo.rejected_total(), 8);
        assert_eq!(slo.sealed(), 2);
        let snap = recorder.anomaly().expect("rejection spike must trigger");
        assert!(matches!(
            snap.kind,
            son_telemetry::AnomalyKind::RejectionRate
        ));
        assert_eq!(snap.window, 0);
        assert_eq!(snap.tick, 4);
        assert_eq!(snap.observed, 1.0);
        assert_eq!(snap.threshold, 0.5);
    }

    #[test]
    fn flight_timeline_reconstructs_per_request_events() {
        let recorder = flight();
        // Sampling stride 1: the timeline assertion needs every
        // request's events, not the production 1-in-8 sample.
        let eng = Engine::new(
            line_snapshot(12, 3),
            HierProvider::default(),
            EngineConfig {
                workers: 1,
                flight_sample: 1,
                ..EngineConfig::default()
            },
        );
        let watermark = recorder.recorded();
        recorder.set_enabled(true);
        // Mark this engine's events with a unique epoch (5) so batches
        // served concurrently by other tests — all at epoch 0 or 1 —
        // can never be mistaken for ours.
        for _ in 0..5 {
            eng.install_snapshot(line_snapshot(12, 3));
        }
        assert_eq!(eng.epoch(), 5);
        let outcome = eng.serve(&requests(12, 6));
        recorder.set_enabled(false);
        assert_eq!(outcome.report.errors, 0);
        let events: Vec<FlightEvent> = recorder
            .since(watermark)
            .into_iter()
            .filter(|e| e.epoch == 5)
            .collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, FlightKind::SnapshotInstall)),
            "the epoch-5 install must be on the timeline"
        );
        // Every request's timeline: a cold-cache Miss verdict followed
        // (in seq order) by an Optimal disposition, tied by request id.
        for rid in 0..6u64 {
            let timeline: Vec<&FlightEvent> = events.iter().filter(|e| e.request == rid).collect();
            let verdict = timeline
                .iter()
                .position(|e| matches!(e.kind, FlightKind::CacheVerdict(CacheVerdict::Miss)))
                .unwrap_or_else(|| panic!("request {rid} has no miss verdict: {timeline:?}"));
            let disposition = timeline
                .iter()
                .position(|e| matches!(e.kind, FlightKind::Disposition(DispositionMark::Optimal)))
                .unwrap_or_else(|| panic!("request {rid} has no disposition: {timeline:?}"));
            assert!(verdict < disposition, "verdict must precede disposition");
            assert!(timeline.iter().all(|e| e.worker == 0));
        }
        // Per-worker stage timings rode along for the batch.
        let stages: Vec<&FlightEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, FlightKind::StageTime(_)))
            .collect();
        assert_eq!(stages.len(), 7, "{stages:?}");
        assert!(stages
            .iter()
            .any(|e| matches!(e.kind, FlightKind::StageTime(Stage::Busy)) && e.value > 0.0));
    }
}
