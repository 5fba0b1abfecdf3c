//! The five workloads, driven through the `son-core` facade.
//!
//! Everything here (and in `driver` and `check`) keeps to the short
//! list of facade names in the README, so that a router or engine
//! rewrite can land without touching the benchmark.
//!
//! A workload's world and the population its requests come from are
//! fixed; `--seed` decides which of them are drawn and in what order.
//! Request costs differ several-fold, so a population that moved with
//! the seed would move every tail latency and, through the few
//! requests a Zipf stream repeats most, every throughput with it.

use crate::span::Tracer;
use crate::traffic::{self, derive};
use son_core::{
    zipf_request_mix, AdmissionConfig, CoordDelays, CostConfig, Engine, EngineConfig,
    EngineSnapshot, Environment, FaultPlan, Health, Hierarchy, HierarchyConfig, MultiLevelProvider,
    NonRepeatingWorkload, ProtocolConfig, ProxyId, RouterProvider, ServeOutcome, ServiceOverlay,
    ServiceRequest, SimTime, SonConfig, StateProtocol, StateReport, StatusMap,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Seed of every world, fault plan and path-quality sample: part of a
/// workload's definition, not of a run.
pub const WORLD_SEED: u64 = 42;

/// Zipf exponent of every skewed stream (web-trace territory).
const ZIPF_S: f64 = 0.9;

/// The two measured phases of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `serve` on batches of the workload's fixed size.
    Throughput = 0,
    /// `serve` on one request at a time.
    Single = 1,
}

/// The fixed part of a workload.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Requests per throughput call.
    pub batch: usize,
    /// Calls each phase always makes — the prefix the exact-count
    /// metrics cover, so they repeat whatever the box's speed. A phase
    /// keeps going past it until its share of `--seconds` is spent.
    pub fixed_calls: [usize; 2],
    /// Consecutive throughput calls that make one `rps` sample. Where
    /// writes recur every so many calls, a sample spans one such cycle,
    /// writes included; a median over single calls would see only the
    /// calls between the writes.
    pub cycle: usize,
    /// Times the set-up is repeated for the `setup_s` median.
    pub setup_reps: usize,
    /// Requests in the fixed path-quality sample.
    pub stretch_sample: usize,
    /// Range the exact-key hit ratio of the throughput prefix must
    /// fall in for the workload to be exercising what it claims to.
    pub exact_hits: (f64, f64),
    /// Floor on the CSP-tier hit ratio of the throughput prefix.
    pub csp_hits_min: f64,
}

impl Spec {
    /// Requests per call of `phase`.
    pub fn step(&self, phase: Phase) -> usize {
        match phase {
            Phase::Throughput => self.batch,
            Phase::Single => 1,
        }
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "warm_zipf",
        cycle: 1,
        batch: 4096,
        fixed_calls: [200, 1000],
        setup_reps: 5,
        stretch_sample: 200,
        exact_hits: (0.99, 1.0),
        csp_hits_min: 0.0,
    },
    Spec {
        name: "unique_csp",
        cycle: 1,
        batch: 1024,
        fixed_calls: [32, 1000],
        setup_reps: 9,
        stretch_sample: 200,
        exact_hits: (0.0, 0.0),
        csp_hits_min: 0.9,
    },
    Spec {
        name: "cold_route",
        cycle: 1,
        batch: 256,
        fixed_calls: [12, 1000],
        setup_reps: 9,
        stretch_sample: 200,
        exact_hits: (0.0, 0.0),
        csp_hits_min: 0.0,
    },
    Spec {
        name: "churn_admit",
        cycle: 10,
        batch: 256,
        fixed_calls: [100, 1024],
        setup_reps: 3,
        stretch_sample: 200,
        exact_hits: (0.0, 1.0),
        csp_hits_min: 0.0,
    },
    Spec {
        name: "scale_10k",
        cycle: 1,
        batch: 128,
        fixed_calls: [8, 1000],
        setup_reps: 2,
        stretch_sample: 50,
        exact_hits: (0.0, 0.0),
        csp_hits_min: 0.0,
    },
];

/// The spec named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What the benchmark needs of an engine, whatever its router.
pub trait Serving {
    /// `Engine::serve`.
    fn serve(&self, batch: &[ServiceRequest]) -> ServeOutcome;
    /// `Engine::install_snapshot`.
    fn install(&self, snapshot: EngineSnapshot<CoordDelays>) -> u64;
    /// `Engine::set_health`.
    fn set_health(&self, proxy: ProxyId, health: Health);
}

impl<P: RouterProvider<CoordDelays>> Serving for Engine<CoordDelays, P> {
    fn serve(&self, batch: &[ServiceRequest]) -> ServeOutcome {
        Engine::serve(self, batch)
    }

    fn install(&self, snapshot: EngineSnapshot<CoordDelays>) -> u64 {
        self.install_snapshot(snapshot)
    }

    fn set_health(&self, proxy: ProxyId, health: Health) {
        Engine::set_health(self, proxy, health);
    }
}

/// Times the program's share of a set-up: calls into the system go
/// through [`Setup::time`], traffic generation does not.
#[derive(Debug)]
pub struct Setup<'a> {
    /// Receives one span per timed call.
    pub tracer: &'a mut Tracer,
    /// Time spent inside timed calls so far.
    pub spent: Duration,
}

impl<'a> Setup<'a> {
    /// A set-up clock at zero.
    pub fn new(tracer: &'a mut Tracer) -> Setup<'a> {
        Setup {
            tracer,
            spent: Duration::ZERO,
        }
    }

    /// Runs `f` as part of the set-up.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, took) = self.tracer.call(name, 0, f);
        self.spent += took;
        out
    }
}

/// A built overlay, with the recursive hierarchy where the workload
/// routes over one.
#[derive(Debug)]
pub struct World {
    /// The overlay.
    pub overlay: ServiceOverlay,
    /// The depth-3 hierarchy (`scale_10k` only).
    pub hierarchy: Option<Arc<Hierarchy>>,
}

impl World {
    /// The paper's Table 1 row with 500 proxies, built on one thread.
    pub fn table1_500(setup: &mut Setup) -> World {
        let config = SonConfig {
            threads: 1,
            ..SonConfig::from_environment(Environment::table1(500, WORLD_SEED))
        };
        World {
            overlay: setup.time("core.build", || ServiceOverlay::build(&config)),
            hierarchy: None,
        }
    }

    /// Table 1's proportions at 10 000 proxies with a depth-3
    /// hierarchy. True-delay rows are capped so nothing densifies the
    /// O(n²) matrix.
    pub fn scaled_10k(setup: &mut Setup) -> World {
        let config = SonConfig {
            threads: 1,
            delay_rows_limit: Some(100),
            ..SonConfig::from_environment(Environment::scaled(10_000, WORLD_SEED))
        };
        let overlay = setup.time("core.build", || ServiceOverlay::build(&config));
        let hierarchy = setup.time("overlay.hierarchy", || {
            overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3)
        });
        World {
            overlay,
            hierarchy: Some(Arc::new(hierarchy)),
        }
    }

    fn proxies(&self) -> usize {
        self.overlay.services().len()
    }

    /// `count` distinct client requests.
    fn client_requests(&self, count: usize, seed: u64) -> Vec<ServiceRequest> {
        let mut requests = traffic::distinct(
            self.overlay
                .generate_client_requests(count + count / 8, seed),
        );
        assert!(
            requests.len() >= count,
            "{} distinct requests generated, {count} needed",
            requests.len()
        );
        requests.truncate(count);
        requests
    }

    /// The fixed sample path quality is measured on.
    pub fn stretch_sample(&self, count: usize) -> Vec<ServiceRequest> {
        self.client_requests(count, derive(WORLD_SEED, 0x57E7))
    }
}

/// Runs the tree state protocol over `overlay` to convergence under 5 %
/// message loss — what `churn_admit` pays before it can serve.
pub fn converge_state(overlay: &ServiceOverlay) -> StateReport {
    let mut protocol = StateProtocol::new(
        overlay.hfc(),
        overlay.services().to_vec(),
        overlay.predicted_delays(),
        ProtocolConfig::tree(),
    );
    protocol.install_faults(FaultPlan::new(WORLD_SEED).with_loss(0.05));
    protocol.run_until_converged(SimTime::from_ms(60_000.0))
}

/// Hands out index ranges of a finite request list, `step` at a time.
#[derive(Debug, Clone)]
struct Cursor {
    start: usize,
    end: usize,
    step: usize,
    next: usize,
}

impl Cursor {
    fn new(range: Range<usize>, step: usize) -> Cursor {
        Cursor {
            start: range.start,
            end: range.end,
            step,
            next: range.start,
        }
    }

    fn take(&mut self) -> Option<Range<usize>> {
        if self.next + self.step > self.end {
            return None;
        }
        let range = self.next..self.next + self.step;
        self.next += self.step;
        Some(range)
    }

    fn rewind(&mut self) {
        self.next = self.start;
    }
}

/// An endless Zipf-skewed stream over a fixed pool, drawn a chunk at a
/// time so that the benchmark's own traffic stays a small part of the
/// process's memory.
#[derive(Debug)]
struct ZipfStream {
    pool: Vec<ServiceRequest>,
    seed: u64,
    chunk: Vec<ServiceRequest>,
    next: usize,
    chunks_drawn: u64,
}

impl ZipfStream {
    /// Least draws per chunk.
    const CHUNK: usize = 1024;

    fn new(pool: Vec<ServiceRequest>, seed: u64) -> ZipfStream {
        ZipfStream {
            pool,
            seed,
            chunk: Vec::new(),
            next: 0,
            chunks_drawn: 0,
        }
    }

    /// The next `step` draws, as a range of [`ZipfStream::chunk`].
    fn take(&mut self, step: usize) -> Range<usize> {
        if self.next + step > self.chunk.len() {
            self.chunk = zipf_request_mix(
                &self.pool,
                step.max(Self::CHUNK),
                ZIPF_S,
                derive(self.seed, self.chunks_drawn),
            );
            self.chunks_drawn += 1;
            self.next = 0;
        }
        let range = self.next..self.next + step;
        self.next += step;
        range
    }
}

/// One workload, set up and ready for its first timed call.
pub trait Workload {
    /// The fixed part.
    fn spec(&self) -> &'static Spec;
    /// The world served.
    fn world(&self) -> &World;
    /// The engine the next call goes to.
    fn engine(&self) -> &dyn Serving;
    /// A cold engine of the workload's configuration over the snapshot
    /// being served right now: the reference for the warm-equals-cold
    /// check and the path-quality sample.
    fn fresh_engine(&self) -> Box<dyn Serving>;
    /// The requests [`Workload::next`] hands out ranges of.
    fn requests(&self) -> &[ServiceRequest];
    /// Prepares round `round` of `phase`, untimed: a fresh engine and
    /// its warm-up where the workload serves each request once. The
    /// set-up has already prepared round 0 of the throughput phase.
    fn start_round(&mut self, phase: Phase, round: usize);
    /// The next call's requests, or `None` when the round has none
    /// left.
    fn next(&mut self, phase: Phase) -> Option<Range<usize>>;
    /// Makes the writes due before call number `call` of `phase` and
    /// returns the time they took.
    fn before_call(&mut self, _phase: Phase, _call: usize, _tracer: &mut Tracer) -> Duration {
        Duration::ZERO
    }
    /// Proxies no served path may cross right now.
    fn down(&self) -> &[ProxyId] {
        &[]
    }
    /// Per-proxy capacities admission must respect, if it is on.
    fn capacities(&self) -> Option<&StatusMap> {
        None
    }
    /// The state-protocol run of the set-up, if there was one.
    fn state_report(&self) -> Option<&StateReport> {
        None
    }
}

/// Sets up the workload `spec` names for a run seeded with `seed`.
pub fn setup(spec: &'static Spec, seed: u64, setup: &mut Setup) -> Box<dyn Workload> {
    match spec.name {
        "warm_zipf" => Box::new(WarmZipf::setup(spec, seed, setup)),
        "unique_csp" => Box::new(UniqueCsp::setup(spec, seed, setup)),
        "cold_route" => Box::new(ServedOnce::cold_route(spec, seed, setup)),
        "churn_admit" => Box::new(ChurnAdmit::setup(spec, seed, setup)),
        "scale_10k" => Box::new(ServedOnce::scale_10k(spec, seed, setup)),
        other => unreachable!("no workload {other} in SPECS"),
    }
}

/// Exact-key cache and per-request bookkeeping do all the work: a
/// Zipf stream over a pool the set-up already served once.
struct WarmZipf {
    spec: &'static Spec,
    world: World,
    engine: Box<dyn Serving>,
    stream: ZipfStream,
}

impl WarmZipf {
    const POOL: usize = 256;

    fn setup(spec: &'static Spec, seed: u64, setup: &mut Setup) -> WarmZipf {
        let world = World::table1_500(setup);
        let pool = world.client_requests(Self::POOL, derive(WORLD_SEED, 1));
        let engine = setup.time("core.engine", || {
            world.overlay.engine(EngineConfig::default())
        });
        setup.time("engine.warm_up", || engine.serve(&pool));
        WarmZipf {
            spec,
            world,
            engine: Box::new(engine),
            stream: ZipfStream::new(pool, derive(seed, 2)),
        }
    }
}

impl Workload for WarmZipf {
    fn spec(&self) -> &'static Spec {
        self.spec
    }
    fn world(&self) -> &World {
        &self.world
    }
    fn engine(&self) -> &dyn Serving {
        &*self.engine
    }
    fn fresh_engine(&self) -> Box<dyn Serving> {
        Box::new(self.world.overlay.engine(EngineConfig::default()))
    }
    fn requests(&self) -> &[ServiceRequest] {
        &self.stream.chunk
    }
    fn start_round(&mut self, _phase: Phase, _round: usize) {}
    fn next(&mut self, phase: Phase) -> Option<Range<usize>> {
        Some(self.stream.take(self.spec.step(phase)))
    }
}

/// No exact key ever repeats but cluster-level shapes do, so the CSP
/// frontier tier, the intra-cluster solves and the composition do the
/// work and the exact cache is pure insert cost.
struct UniqueCsp {
    spec: &'static Spec,
    world: World,
    seed: u64,
    clusters: Vec<Vec<ProxyId>>,
    engine: Box<dyn Serving>,
    round: Vec<ServiceRequest>,
    cursor: Cursor,
}

impl UniqueCsp {
    const SHAPES: usize = 64;
    const WARM_UP: usize = 2048;
    const BATCHES_PER_ROUND: usize = 8;
    const SINGLES_PER_ROUND: usize = 4096;

    fn setup(spec: &'static Spec, seed: u64, setup: &mut Setup) -> UniqueCsp {
        let world = World::table1_500(setup);
        let hfc = world.overlay.hfc();
        let clusters: Vec<Vec<ProxyId>> = hfc.clusters().map(|c| hfc.members(c).to_vec()).collect();
        let (engine, round, cursor) =
            Self::round(spec, &world, &clusters, seed, Phase::Throughput, 0, setup);
        UniqueCsp {
            spec,
            world,
            seed,
            clusters,
            engine,
            round,
            cursor,
        }
    }

    /// A fresh draw and a fresh engine. The draw of a round is fixed;
    /// the seed shuffles it, the engine serves one part as warm-up and
    /// the rest is kept for the timed calls.
    fn round(
        spec: &Spec,
        world: &World,
        clusters: &[Vec<ProxyId>],
        seed: u64,
        phase: Phase,
        round: usize,
        setup: &mut Setup,
    ) -> (Box<dyn Serving>, Vec<ServiceRequest>, Cursor) {
        let tag = 10 + 2 * round as u64 + phase as u64;
        let mut stream = NonRepeatingWorkload::new(
            clusters,
            &traffic::chains_of_three(),
            Self::SHAPES,
            ZIPF_S,
            derive(WORLD_SEED, tag),
        );
        let warm_up = Self::WARM_UP.min(stream.remaining() / 4);
        let (step, wanted) = match phase {
            Phase::Throughput => (spec.batch, Self::BATCHES_PER_ROUND * spec.batch),
            Phase::Single => (1, Self::SINGLES_PER_ROUND),
        };
        let kept = wanted.min(stream.remaining() - warm_up) / step * step;
        assert!(kept > 0, "the shapes hold too few distinct requests");
        let mut requests = traffic::shuffled(stream.take(warm_up + kept), derive(seed, tag));
        let warm_up = requests.split_off(kept);
        let engine = setup.time("core.engine", || {
            world.overlay.engine(EngineConfig::default())
        });
        setup.time("engine.warm_up", || engine.serve(&warm_up));
        (Box::new(engine), requests, Cursor::new(0..kept, step))
    }
}

impl Workload for UniqueCsp {
    fn spec(&self) -> &'static Spec {
        self.spec
    }
    fn world(&self) -> &World {
        &self.world
    }
    fn engine(&self) -> &dyn Serving {
        &*self.engine
    }
    fn fresh_engine(&self) -> Box<dyn Serving> {
        Box::new(self.world.overlay.engine(EngineConfig::default()))
    }
    fn requests(&self) -> &[ServiceRequest] {
        &self.round
    }
    fn start_round(&mut self, phase: Phase, round: usize) {
        let mut untraced = Tracer::new(false);
        (self.engine, self.round, self.cursor) = Self::round(
            self.spec,
            &self.world,
            &self.clusters,
            self.seed,
            phase,
            round,
            &mut Setup::new(&mut untraced),
        );
    }
    fn next(&mut self, _phase: Phase) -> Option<Range<usize>> {
        self.cursor.take()
    }
}

/// Distinct requests, each served once per engine: `cold_route` on the
/// 500-proxy world, where every tier misses and the paper's §5
/// inter-cluster solve dominates, and `scale_10k`, where the set-up is
/// the build benchmark and serving exercises the recursive router and
/// the per-batch router rebuild at the size where they hurt.
///
/// The population is as many batches as the throughput phase always
/// serves plus a set of singles. Every run times the same batches and
/// (nearly) the same singles in an order of its own, and an engine's
/// cache — the process's peak memory — grows to the same size whatever
/// the box's speed. A phase that runs out starts over on a cold engine.
struct ServedOnce {
    spec: &'static Spec,
    world: World,
    cold_engine: fn(&World) -> Box<dyn Serving>,
    engine: Box<dyn Serving>,
    requests: Vec<ServiceRequest>,
    cursors: [Cursor; 2],
}

impl ServedOnce {
    fn setup(
        spec: &'static Spec,
        seed: u64,
        world: World,
        singles: usize,
        cold_engine: fn(&World) -> Box<dyn Serving>,
        setup: &mut Setup,
    ) -> ServedOnce {
        let batched = spec.fixed_calls[0] * spec.batch;
        let mut requests = world.client_requests(batched + singles, derive(WORLD_SEED, 1));
        let singles = requests.split_off(batched);
        requests = traffic::shuffled_batches(&requests, spec.batch, derive(seed, 1));
        requests.extend(traffic::shuffled(singles, derive(seed, 2)));
        let engine = setup.time("core.engine", || cold_engine(&world));
        ServedOnce {
            spec,
            world,
            cold_engine,
            engine,
            cursors: [
                Cursor::new(0..batched, spec.batch),
                Cursor::new(batched..requests.len(), 1),
            ],
            requests,
        }
    }

    fn cold_route(spec: &'static Spec, seed: u64, setup: &mut Setup) -> ServedOnce {
        let world = World::table1_500(setup);
        // About what the single phase gets through in its share.
        let singles = 1_800;
        Self::setup(
            spec,
            seed,
            world,
            singles,
            |world| Box::new(world.overlay.engine(EngineConfig::default())),
            setup,
        )
    }

    fn scale_10k(spec: &'static Spec, seed: u64, setup: &mut Setup) -> ServedOnce {
        let world = World::scaled_10k(setup);
        // As many as the single phase always serves.
        let singles = spec.fixed_calls[1];
        Self::setup(
            spec,
            seed,
            world,
            singles,
            |world| {
                let hierarchy = world.hierarchy.clone().expect("scale_10k has a hierarchy");
                Box::new(Engine::new(
                    world.overlay.engine_snapshot_with_hierarchy(hierarchy),
                    MultiLevelProvider::default(),
                    EngineConfig::default(),
                ))
            },
            setup,
        )
    }
}

impl Workload for ServedOnce {
    fn spec(&self) -> &'static Spec {
        self.spec
    }
    fn world(&self) -> &World {
        &self.world
    }
    fn engine(&self) -> &dyn Serving {
        &*self.engine
    }
    fn fresh_engine(&self) -> Box<dyn Serving> {
        (self.cold_engine)(&self.world)
    }
    fn requests(&self) -> &[ServiceRequest] {
        &self.requests
    }
    fn start_round(&mut self, phase: Phase, _round: usize) {
        self.engine = self.fresh_engine();
        self.cursors[phase as usize].rewind();
    }
    fn next(&mut self, phase: Phase) -> Option<Range<usize>> {
        self.cursors[phase as usize].take()
    }
}

/// Writes beside reads: snapshot installs that take a rotating 2 % of
/// the proxies down, live health overrides, admission control and
/// stale-while-revalidate, on a Zipf stream.
struct ChurnAdmit {
    spec: &'static Spec,
    world: World,
    engine: Box<dyn Serving>,
    stream: ZipfStream,
    /// All proxies up, with their capacities.
    base: StatusMap,
    /// Proxies that may go down, in the order they take turns.
    spare: Vec<ProxyId>,
    installs: usize,
    down: Vec<ProxyId>,
    state: StateReport,
}

impl ChurnAdmit {
    const POOL: usize = 256;
    /// Proxies a snapshot install takes down (2 % of 500).
    const DOWN: usize = 10;
    /// Single calls per install.
    const SINGLES_PER_INSTALL: usize = 32;
    /// Admission capacities. A batch of 256 spends about 2 800 tokens,
    /// skewed towards the popular requests' hops; this range keeps the
    /// buckets in play without shedding a request.
    const CAPACITY: (u32, u32) = (64, 192);

    fn config() -> EngineConfig {
        EngineConfig {
            admission: AdmissionConfig {
                enabled: true,
                ..AdmissionConfig::default()
            },
            stale_serve_budget: 512,
            ..EngineConfig::default()
        }
    }

    fn setup(spec: &'static Spec, seed: u64, setup: &mut Setup) -> ChurnAdmit {
        let world = World::table1_500(setup);
        let state = setup.time("state.run_until_converged", || {
            converge_state(&world.overlay)
        });
        let proxies = world.proxies();
        let pool = world.client_requests(Self::POOL, derive(WORLD_SEED, 1));
        let mut base = StatusMap::all_up(proxies);
        let (lo, hi) = Self::CAPACITY;
        for (p, capacity) in traffic::capacities(proxies, lo, hi, derive(WORLD_SEED, 3))
            .into_iter()
            .enumerate()
        {
            base.set_capacity(ProxyId::new(p), capacity);
        }
        let hfc = world.overlay.hfc();
        let spare = traffic::shuffled(
            traffic::expendable(proxies, |p| hfc.is_border(p), &pool),
            derive(WORLD_SEED, 4),
        );
        assert!(
            spare.len() > 2 * Self::DOWN,
            "only {} proxies can go down without cutting a request off",
            spare.len()
        );
        let engine = Self::engine_over(&world, &base, setup);
        setup.time("engine.warm_up", || engine.serve(&pool));
        ChurnAdmit {
            spec,
            world,
            engine,
            stream: ZipfStream::new(pool, derive(seed, 2)),
            base,
            spare,
            installs: 0,
            down: Vec::new(),
            state,
        }
    }

    /// An admission-controlled engine over `statuses`. The facade
    /// builds engines over the plain snapshot, so the statuses arrive
    /// by an install.
    fn engine_over(world: &World, statuses: &StatusMap, setup: &mut Setup) -> Box<dyn Serving> {
        let overlay = &world.overlay;
        let engine = setup.time("core.engine", || overlay.engine(Self::config()));
        let snapshot = setup.time("core.engine_snapshot_with", || {
            overlay.engine_snapshot_with(statuses.clone(), CostConfig::default())
        });
        setup.time("engine.install_snapshot", || {
            engine.install_snapshot(snapshot)
        });
        Box::new(engine)
    }

    /// The base statuses with `down` taken down.
    fn statuses(&self, down: &[ProxyId]) -> StatusMap {
        let mut statuses = self.base.clone();
        for &p in down {
            statuses.set_health(p, Health::Down);
        }
        statuses
    }

    /// Installs the next snapshot: the next window of spare proxies
    /// down, everything else up.
    fn install(&mut self, call: usize, tracer: &mut Tracer) -> Duration {
        let down = traffic::rotation(&self.spare, self.installs, Self::DOWN);
        self.installs += 1;
        let statuses = self.statuses(&down);
        let overlay = &self.world.overlay;
        let (snapshot, built) = tracer.call("core.engine_snapshot_with", call as u64, || {
            overlay.engine_snapshot_with(statuses, CostConfig::default())
        });
        let engine = &self.engine;
        let (_, installed) = tracer.call("engine.install_snapshot", call as u64, || {
            engine.install(snapshot)
        });
        self.down = down;
        built + installed
    }

    /// Takes one more spare proxy down between installs. The victim is
    /// from the window after the current one, so it is up until now.
    fn override_health(&mut self, call: usize, tracer: &mut Tracer) -> Duration {
        let victim = traffic::rotation(&self.spare, self.installs, Self::DOWN)[0];
        let engine = &self.engine;
        let ((), took) = tracer.call("engine.set_health", call as u64, || {
            engine.set_health(victim, Health::Down)
        });
        self.down.push(victim);
        took
    }
}

impl Workload for ChurnAdmit {
    fn spec(&self) -> &'static Spec {
        self.spec
    }
    fn world(&self) -> &World {
        &self.world
    }
    fn engine(&self) -> &dyn Serving {
        &*self.engine
    }
    fn fresh_engine(&self) -> Box<dyn Serving> {
        let mut untraced = Tracer::new(false);
        Self::engine_over(
            &self.world,
            &self.statuses(&self.down),
            &mut Setup::new(&mut untraced),
        )
    }
    fn requests(&self) -> &[ServiceRequest] {
        &self.stream.chunk
    }
    fn start_round(&mut self, _phase: Phase, _round: usize) {}
    fn next(&mut self, phase: Phase) -> Option<Range<usize>> {
        Some(self.stream.take(self.spec.step(phase)))
    }
    fn before_call(&mut self, phase: Phase, call: usize, tracer: &mut Tracer) -> Duration {
        match phase {
            // An install opens each cycle of throughput calls; the
            // live override lands on the cycle's third call.
            Phase::Throughput if call.is_multiple_of(self.spec.cycle) => self.install(call, tracer),
            Phase::Throughput if call % self.spec.cycle == 2 => self.override_health(call, tracer),
            Phase::Single if call.is_multiple_of(Self::SINGLES_PER_INSTALL) => {
                self.install(call, tracer)
            }
            _ => Duration::ZERO,
        }
    }
    fn down(&self) -> &[ProxyId] {
        &self.down
    }
    fn capacities(&self) -> Option<&StatusMap> {
        Some(&self.base)
    }
    fn state_report(&self) -> Option<&StateReport> {
        Some(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cursor_runs_dry_and_rewinds() {
        let mut cursor = Cursor::new(4..10, 4);
        assert_eq!(cursor.take(), Some(4..8));
        assert_eq!(cursor.take(), None);
        cursor.rewind();
        assert_eq!(cursor.take(), Some(4..8));
    }

    #[test]
    fn a_zipf_stream_never_ends_and_repeats_for_its_seed() {
        let overlay = ServiceOverlay::build(&SonConfig::small(WORLD_SEED));
        let pool = overlay.generate_client_requests(16, 1);
        let draw = |seed| {
            let mut stream = ZipfStream::new(pool.clone(), seed);
            let mut drawn = Vec::new();
            for step in [1, 1, 700, 700, 2000] {
                let range = stream.take(step);
                assert_eq!(range.len(), step);
                drawn.extend_from_slice(&stream.chunk[range]);
            }
            drawn
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert!(draw(5).iter().all(|r| pool.contains(r)));
    }

    #[test]
    fn every_spec_is_found_by_name_and_has_a_p95() {
        for s in &SPECS {
            assert_eq!(spec(s.name).map(|f| f.name), Some(s.name));
            let beyond = crate::stats::samples_beyond(s.fixed_calls[1], 0.95);
            assert!(beyond >= crate::stats::MIN_BEYOND);
        }
        assert!(spec("nope").is_none());
    }
}
