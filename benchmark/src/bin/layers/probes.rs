//! Public layer functions, timed from outside on inputs taken from the
//! workload. Every figure is a median over passes; every pass is a
//! span in the trace.

use son_benchmark::check::Checker;
use son_benchmark::span::Tracer;
use son_benchmark::stats;
use son_benchmark::traffic::derive;
use son_benchmark::workloads::{converge_state, Serving, Setup, Workload, World};
use son_core::{
    flight, set_telemetry_enabled, BuildStage, CacheVerdict, CoordDelays, CspCache, CspKey, Engine,
    EngineConfig, EngineSnapshot, FlatProvider, FlightEvent, FlightKind, FlightRecorder, Health,
    HierProvider, HierarchyConfig, Histogram, MultiLevelProvider, NegativeCache, ProxyId,
    RouteCache, RouteKey, RouterProvider, ServicePath, ServiceRequest,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes per probe: at most this many …
const MAX_PASSES: usize = 30;
/// … at least this many, and past that no more once [`PASS_BUDGET`]
/// is spent. Only the probes that take tens of milliseconds a pass
/// (10 000-proxy routers, install cycles) stop short of
/// [`MAX_PASSES`]; `n=` beside each figure says how many it got.
const MIN_PASSES: usize = 5;
const PASS_BUDGET: Duration = Duration::from_secs(1);
/// A pass over a list of inputs covers as many of them as fit in about
/// this long (but at least 8): all of them, but for the flat router at
/// 10 000 proxies. Costs differ a lot from request to request, so a
/// pass over a few of them would not predict a batch.
const PASS_TARGET: Duration = Duration::from_millis(500);

/// A probe's figure and the passes behind it.
pub type Values = BTreeMap<&'static str, (f64, usize)>;

/// Whether a probe that has made `done` passes since `started` makes
/// another.
fn another_pass(done: usize, started: Instant) -> bool {
    done < MAX_PASSES && (done < MIN_PASSES || started.elapsed() < PASS_BUDGET)
}

struct Probes<'a> {
    tracer: &'a mut Tracer,
    values: Values,
}

impl Probes<'_> {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Median seconds a call of `pass` takes, and the number of calls.
    fn passes(&mut self, span: &'static str, mut pass: impl FnMut()) -> (f64, usize) {
        let started = Instant::now();
        let mut times = Vec::new();
        while another_pass(times.len(), started) {
            let ((), took) = self.tracer.call(span, times.len() as u64, &mut pass);
            times.push(took.as_secs_f64());
        }
        (stats::median(&times), times.len())
    }

    /// Median seconds `f` takes per item of `items`.
    fn per_item<T>(
        &mut self,
        span: &'static str,
        items: &[T],
        mut f: impl FnMut(&T),
    ) -> (f64, usize) {
        let begun = Instant::now();
        f(&items[0]);
        let fit = (PASS_TARGET.as_secs_f64() / begun.elapsed().as_secs_f64().max(1e-9)) as usize;
        let items = &items[..fit.max(8).min(items.len())];
        let (median, passes) = self.passes(span, || items.iter().for_each(&mut f));
        (median / items.len() as f64, passes)
    }
}

/// The snapshot the workload's engines serve from before any write.
fn snapshot_of(w: &dyn Workload) -> EngineSnapshot<CoordDelays> {
    let world = w.world();
    match (&world.hierarchy, w.capacities()) {
        (Some(hierarchy), _) => world
            .overlay
            .engine_snapshot_with_hierarchy(Arc::clone(hierarchy)),
        (None, Some(statuses)) => world
            .overlay
            .engine_snapshot_with(statuses.clone(), Default::default()),
        (None, None) => world.overlay.engine_snapshot(),
    }
}

/// The CSP-tier key the engine would file `request` under.
fn csp_key(snapshot: &EngineSnapshot<CoordDelays>, request: &ServiceRequest) -> Option<CspKey> {
    let ingress = snapshot.ingress(request);
    let dest_cluster = snapshot.hfc().cluster_of(request.destination);
    let known = (snapshot.is_border(request.source) || ingress == dest_cluster)
        .then(|| request.source.index() as u32);
    CspKey::encode(ingress, dest_cluster, known, request)
}

/// Runs every layer probe for `w` on `sample`, the first requests of
/// its throughput phase.
pub fn run(
    w: &dyn Workload,
    sample: &[ServiceRequest],
    seed: u64,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Values {
    let mut p = Probes {
        tracer,
        values: Values::new(),
    };
    let world = w.world();
    let overlay = &world.overlay;
    let hier = HierProvider {
        config: overlay.config().hier,
    };
    let multi = MultiLevelProvider {
        config: overlay.config().hier,
    };
    let snapshot = snapshot_of(w);
    let provider: &dyn RouterProvider<CoordDelays> = match world.hierarchy {
        Some(_) => &multi,
        None => &hier,
    };

    build_budget(&mut p, world, checker);

    // The bi-level router and the state protocol are probed at 500
    // proxies whatever the workload: at 10 000 a bi-level route takes a
    // quarter of a second and the protocol ten minutes.
    let reference;
    let (small, small_sample) = if world.hierarchy.is_some() {
        reference = World::table1_500(&mut Setup::new(p.tracer));
        let requests = reference
            .overlay
            .generate_client_requests(sample.len(), derive(seed, 0xB1));
        (&reference, requests)
    } else {
        (world, sample.to_vec())
    };
    let small_snapshot = small.overlay.engine_snapshot();

    let (state, wall) = p.tracer.call("state.run_until_converged", 0, || {
        converge_state(&small.overlay)
    });
    let messages = state.messages_sent();
    p.set("state.tree_wall_s", wall.as_secs_f64(), 1);
    p.set("state.tree_messages", messages as f64, 1);
    p.set(
        "state.tree_us_per_msg",
        wall.as_secs_f64() * 1e6 / messages as f64,
        messages as usize,
    );
    p.set("state.tree_sim_ms", state.ended_at.as_ms(), 1);
    p.set("state.stale_entries", state.stale_entries as f64, 1);

    let (s, n) = p.passes("routing.router_build", || {
        black_box(provider.router(&snapshot));
    });
    p.set("routing.router_build_us", s * 1e6, n);

    let router = FlatProvider.router(&snapshot);
    let (s, n) = p.per_item("routing.flat_route", sample, |r| {
        black_box(router.route_path(r).ok());
    });
    p.set("routing.flat_route_us", s * 1e6, n);

    let with_hierarchy;
    let leveled = match world.hierarchy {
        Some(_) => &snapshot,
        None => {
            let hierarchy = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3);
            with_hierarchy = overlay.engine_snapshot_with_hierarchy(Arc::new(hierarchy));
            &with_hierarchy
        }
    };
    let router = multi.router(leveled);
    let (s, n) = p.per_item("routing.multilevel_route", sample, |r| {
        black_box(router.route_path(r).ok());
    });
    p.set("routing.multilevel_route_us", s * 1e6, n);

    let router = hier.router(&small_snapshot);
    let (s, n) = p.per_item("routing.hier_route", &small_sample, |r| {
        black_box(router.route_path(r).ok());
    });
    p.set("routing.hier_route_us", s * 1e6, n);

    let csp = hier
        .csp_router(&small_snapshot)
        .expect("the bi-level provider has a CSP seam");
    // (`son-core` does not re-export the frontier's type.)
    let solved: Vec<(ServiceRequest, CspKey, Arc<_>)> = small_sample
        .iter()
        .filter_map(|r| {
            let frontier = csp.solve_frontier(r).ok()?;
            Some((r.clone(), csp_key(&small_snapshot, r)?, Arc::new(frontier)))
        })
        .collect();
    let (s, n) = p.per_item("routing.csp_solve", &solved, |(r, _, _)| {
        black_box(csp.solve_frontier(r).ok());
    });
    p.set("routing.csp_solve_us", s * 1e6, n);
    let (s, n) = p.per_item("routing.csp_replay", &solved, |(r, _, frontier)| {
        black_box(csp.route_from_frontier(r, frontier).ok());
    });
    p.set("routing.csp_replay_us", s * 1e6, n);

    let config = EngineConfig::default();
    let frontiers = CspCache::new(config.cache_shards, config.csp_cache_capacity);
    for (_, key, frontier) in &solved {
        frontiers.insert(key.clone(), 0, Arc::clone(frontier));
    }
    let (s, n) = p.per_item("engine.cache.csp_lookup", &solved, |(_, key, _)| {
        black_box(frontiers.lookup(key, 0));
    });
    p.set("engine.cache.csp_lookup_ns", s * 1e9, n);

    cache_tiers(&mut p, &snapshot, provider, sample);
    // The engine is probed with batches of the workload's own size:
    // admission, for one, hands out its tokens per batch.
    let batch = w.spec().batch;
    let cold = &sample[..batch.min(sample.len())];
    let warm: Vec<ServiceRequest> = sample.iter().cycle().take(batch).cloned().collect();
    engine_costs(&mut p, w, &warm);
    install_cycle(&mut p, w, cold);
    shard_imbalance(&mut p, w, cold);
    telemetry_cost(&mut p, w, &warm);
    p.values
}

/// The build, from outside and by the overlay's own stage clocks.
fn build_budget(p: &mut Probes, world: &World, checker: &mut Checker) {
    let overlay = &world.overlay;
    let timings = overlay.stats().timings;
    let ms = |stages: &[BuildStage]| -> f64 {
        stages
            .iter()
            .map(|&s| timings.get(s).as_secs_f64() * 1e3)
            .sum()
    };
    p.set("netsim.topology_ms", ms(&[BuildStage::Topology]), 1);
    p.set(
        "coords.embedding_ms",
        ms(&[BuildStage::Landmarks, BuildStage::Embedding]),
        1,
    );
    p.set("clustering.mst_zahn_ms", ms(&[BuildStage::Clustering]), 1);
    p.set("overlay.hfc_ms", ms(&[BuildStage::Hfc]), 1);
    p.set(
        "core.attach_ms",
        ms(&[BuildStage::Distances, BuildStage::State]),
        1,
    );
    // The traced set-up timed `ServiceOverlay::build` from outside.
    let outside = p.tracer.totals()["core.build"];
    let total_ms = outside.total_ns as f64 / outside.count as f64 / 1e6;
    p.set("core.build_total_ms", total_ms, outside.count as usize);
    let inside = timings.total().as_secs_f64() * 1e3;
    checker.require((inside - total_ms).abs() <= 0.05 * total_ms, || {
        format!("stage clocks sum to {inside} ms, the build took {total_ms} ms from outside")
    });

    let (s, n) = p.passes("overlay.hierarchy", || {
        black_box(overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3));
    });
    p.set("overlay.hierarchy_ms", s * 1e3, n);
}

/// The exact and negative tiers' own operations on the workload's keys.
fn cache_tiers(
    p: &mut Probes,
    snapshot: &EngineSnapshot<CoordDelays>,
    provider: &dyn RouterProvider<CoordDelays>,
    sample: &[ServiceRequest],
) {
    let (s, n) = p.per_item("engine.cache.key_encode", sample, |r| {
        black_box(RouteKey::encode(snapshot.ingress(r), r));
    });
    p.set("engine.cache.key_encode_ns", s * 1e9, n);

    let router = provider.router(snapshot);
    let entries: Vec<(RouteKey, ServicePath)> = sample
        .iter()
        .filter_map(|r| {
            Some((
                RouteKey::encode(snapshot.ingress(r), r),
                router.route_path(r).ok()?,
            ))
        })
        .collect();
    let config = EngineConfig::default();
    // The engine clones key and path into the cache just like this.
    let fill = |cache: &RouteCache| {
        for (key, path) in &entries {
            cache.insert(key.clone(), 0, path.clone());
        }
    };
    let (s, n) = p.passes("engine.cache.exact_insert", || {
        fill(&RouteCache::new(config.cache_shards, config.cache_capacity));
    });
    p.set(
        "engine.cache.exact_insert_ns",
        s * 1e9 / entries.len() as f64,
        n,
    );

    let cache = RouteCache::new(config.cache_shards, config.cache_capacity);
    fill(&cache);
    let (s, n) = p.per_item("engine.cache.exact_lookup", &entries, |(key, _)| {
        black_box(cache.lookup(key, 0));
    });
    p.set("engine.cache.exact_lookup_ns", s * 1e9, n);

    // What every exact miss pays: a probe of the (empty) negative cache.
    let negative = NegativeCache::new(4096);
    let (s, n) = p.per_item("engine.cache.negative_lookup", &entries, |(key, _)| {
        black_box(negative.lookup(key, 0, 0));
    });
    p.set("engine.cache.negative_lookup_ns", s * 1e9, n);
}

/// What a batch costs before its first request, and a warm request.
fn engine_costs(p: &mut Probes, w: &dyn Workload, warm: &[ServiceRequest]) {
    let engine = w.fresh_engine();
    let (empty, n) = p.passes("engine.serve.empty", || {
        black_box(engine.serve(&[]));
    });
    p.set("engine.batch_overhead_us", empty * 1e6, n);

    engine.serve(warm);
    let (full, n) = p.passes("engine.serve.warm", || {
        black_box(engine.serve(warm));
    });
    p.set(
        "engine.warm_ns_per_req",
        (full - empty) * 1e9 / warm.len() as f64,
        n,
    );
}

/// The write path: building and installing a snapshot, the first batch
/// after it against the same batch again, and a live health override.
fn install_cycle(p: &mut Probes, w: &dyn Workload, sample: &[ServiceRequest]) {
    let engine = w.fresh_engine();
    engine.serve(sample);
    let mut times: [Vec<f64>; 5] = Default::default();
    let started = Instant::now();
    while another_pass(times[0].len(), started) {
        let cycle = times[0].len() as u64;
        let (snapshot, built) = p
            .tracer
            .call("core.engine_snapshot", cycle, || snapshot_of(w));
        let (_, installed) = p.tracer.call("engine.install_snapshot", cycle, || {
            engine.install(snapshot)
        });
        let (_, first) = p
            .tracer
            .call("engine.serve.post_install", cycle, || engine.serve(sample));
        let (_, again) = p
            .tracer
            .call("engine.serve.steady", cycle, || engine.serve(sample));
        // `Up` over `Up`: the write happens, the answers stay. The next
        // install clears it.
        let ((), overridden) = p.tracer.call("engine.set_health", cycle, || {
            engine.set_health(ProxyId::new(0), Health::Up);
        });
        for (times, took) in times
            .iter_mut()
            .zip([built, installed, first, again, overridden])
        {
            times.push(took.as_secs_f64());
        }
    }
    for (name, times) in [
        "engine.snapshot_build_us",
        "engine.install_us",
        "engine.post_install_batch_us",
        "engine.steady_batch_us",
        "engine.set_health_us",
    ]
    .into_iter()
    .zip(&times)
    {
        p.set(name, stats::median(times) * 1e6, times.len());
    }
}

/// One cold batch on eight workers: the busiest shard's requests over
/// the mean shard's. A count — nothing here depends on thread timing.
fn shard_imbalance(p: &mut Probes, w: &dyn Workload, sample: &[ServiceRequest]) {
    let world = w.world();
    let config = EngineConfig {
        workers: 8,
        ..EngineConfig::default()
    };
    let engine: Box<dyn Serving> = match &world.hierarchy {
        Some(_) => Box::new(Engine::new(
            snapshot_of(w),
            MultiLevelProvider::default(),
            config,
        )),
        None => Box::new(world.overlay.engine(config)),
    };
    let (out, _) = p
        .tracer
        .call("engine.serve.eight_workers", 0, || engine.serve(sample));
    let shards: Vec<f64> = out
        .report
        .worker_stats
        .iter()
        .map(|s| s.requests as f64)
        .collect();
    let mean = shards.iter().sum::<f64>() / shards.len() as f64;
    let busiest = shards.iter().copied().fold(0.0, f64::max);
    p.set("engine.shard_imbalance_w8", busiest / mean, shards.len());
}

/// What switching telemetry and the flight recorder on costs a warm
/// batch: medians of paired ratios, the order rotated from trial to
/// trial so that periodic interference cannot always hit one mode.
fn telemetry_cost(p: &mut Probes, w: &dyn Workload, warm: &[ServiceRequest]) {
    let engine = w.fresh_engine();
    engine.serve(warm);
    // (telemetry, flight recorder)
    const MODES: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];
    let mut on_over_off = Vec::new();
    let mut flight_over_on = Vec::new();
    for trial in 0..MAX_PASSES {
        let mut took = [0.0; 3];
        for k in 0..MODES.len() {
            let mode = (trial + k) % MODES.len();
            set_telemetry_enabled(MODES[mode].0);
            flight().set_enabled(MODES[mode].1);
            let (_, t) = p
                .tracer
                .call("engine.serve.telemetry_mode", mode as u64, || {
                    engine.serve(warm)
                });
            took[mode] = t.as_secs_f64();
        }
        on_over_off.push(took[1] / took[0]);
        flight_over_on.push(took[2] / took[1]);
    }
    set_telemetry_enabled(false);
    flight().set_enabled(false);
    p.set(
        "telemetry.on_overhead_pct",
        (stats::median(&on_over_off) - 1.0) * 100.0,
        MAX_PASSES,
    );
    p.set(
        "telemetry.flight_overhead_pct",
        (stats::median(&flight_over_on) - 1.0) * 100.0,
        MAX_PASSES,
    );

    const RECORDS: usize = 4096;
    let values: Vec<f64> = (0..RECORDS).map(|i| 1.0 + (i % 977) as f64).collect();
    let histogram = Histogram::new();
    let (s, n) = p.per_item("telemetry.histogram_record", &values, |&v| {
        histogram.record(v)
    });
    p.set("telemetry.hist_record_ns", s * 1e9, n);
    let recorder = FlightRecorder::new(RECORDS);
    recorder.set_enabled(true);
    let (s, n) = p.per_item("telemetry.flight_record", &values, |&v| {
        let event = FlightEvent::new(FlightKind::CacheVerdict(CacheVerdict::Hit))
            .tick(v as u64)
            .request(v as u64);
        black_box(recorder.record(event));
    });
    p.set("telemetry.flight_record_ns", s * 1e9, n);
}
