//! Deterministic cost gates: heap allocations and bytes per
//! `Engine::serve`, counted by a test-only global allocator.
//!
//! For the same world and requests the serve path allocates the same on
//! every run, so each bound is a measured value, not a tolerance: a
//! change that raises a count fails here, and a change that lowers one
//! lowers its bound in the same change. An allocation is one `alloc`,
//! `alloc_zeroed` or `realloc` call; its bytes are the size it asks for.
//!
//! Counting is per thread, because the harness runs tests in parallel.
//! A one-worker engine serves inline on the calling thread, so every
//! allocation of a `serve` call lands in its caller's count.
//!
//!   cargo test -p son-core --test cost_gates -- --nocapture
//!
//! prints the measured counts beside their bounds (the same in debug
//! and release builds; CI runs both).

use son_core::{
    set_telemetry_enabled, AdmissionConfig, CspRouter, EngineConfig, Health, LevelWork,
    ServiceOverlay, ServiceRequest, SonConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

struct Counting;

thread_local! {
    /// (allocations, bytes) made on this thread so far.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds `GlobalAlloc`'s contract; counting only updates a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it allocated on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (n0, b0) = COUNT.with(Cell::get);
    f();
    let (n1, b1) = COUNT.with(Cell::get);
    (n1 - n0, b1 - b0)
}

/// The Table 1 world at 500 proxies and 256 client requests over it.
fn world() -> &'static (ServiceOverlay, Vec<ServiceRequest>) {
    static WORLD: OnceLock<(ServiceOverlay, Vec<ServiceRequest>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let overlay = ServiceOverlay::build(&SonConfig::table1(500, 42));
        let requests = overlay.generate_client_requests(256, 7);
        (overlay, requests)
    })
}

/// Checks one measured (allocations, bytes) pair against its bound.
fn gate(name: &str, measured: (u64, u64), bound: (u64, u64)) {
    println!(
        "{name}: {} allocations / {} bytes (bound {} / {})",
        measured.0, measured.1, bound.0, bound.1
    );
    assert!(
        measured.0 <= bound.0 && measured.1 <= bound.1,
        "{name}: {measured:?} exceeds the bound {bound:?}"
    );
}

#[test]
fn warm_serve_allocations_are_pinned() {
    set_telemetry_enabled(false);
    let (overlay, requests) = world();
    let engine = overlay.engine(EngineConfig::default());
    let cold = engine.serve(requests);
    assert_eq!(cold.report.errors, 0, "every request is routable");
    let one = counted(|| {
        engine.serve(&requests[..1]);
    });
    let all = counted(|| {
        let warm = engine.serve(requests);
        assert_eq!(
            warm.report.cache.hits, 256,
            "the batch is served from cache"
        );
    });
    println!(
        "per additional cached request: {:.2} allocations / {:.1} bytes",
        (all.0 - one.0) as f64 / 255.0,
        (all.1 - one.1) as f64 / 255.0
    );
    gate("warm serve of 1", one, (618, 97_261));
    gate("warm serve of 256", all, (625, 132_516));
    // A cached answer allocates nothing; what the 255 extra requests
    // add is the batch's vectors growing (7 today).
    assert!(
        all.0 - one.0 <= 8,
        "the 255 extra cached requests made {} allocations",
        all.0 - one.0
    );
}

/// A request no batch has seen, on an epoch whose routing tables a cold
/// batch has filled: it misses every cache tier and solves from scratch,
/// but finds every provider index and level table it reads already
/// built.
#[test]
fn cold_serve_on_a_filled_epoch_allocations_are_pinned() {
    set_telemetry_enabled(false);
    let (overlay, requests) = world();
    let engine = overlay.engine(EngineConfig::default());
    engine.serve(requests);
    let fresh = overlay.generate_client_requests(1, 8);
    assert!(!requests.contains(&fresh[0]), "the request is new");
    let filled = engine.snapshot().routing_tables().filled();
    let measured = counted(|| {
        let cold = engine.serve(&fresh);
        assert_eq!(cold.report.errors, 0);
        assert_eq!(cold.report.cache.hits, 0, "the request misses");
    });
    assert_eq!(
        engine.snapshot().routing_tables().filled(),
        filled,
        "no table is filled"
    );
    gate(
        "cold serve of 1 on a filled epoch",
        measured,
        (744, 147_685),
    );
}

/// What the CSP tier caches for the 256 requests: the sinks their
/// frontiers keep and the tree nodes that hold those sinks' chains, in
/// all. Both are counts of the solve, not of the allocator.
#[test]
fn frontier_sinks_and_nodes_are_pinned() {
    let (overlay, requests) = world();
    let router = overlay.hier_router();
    let (mut sinks, mut nodes) = (0, 0);
    for request in requests {
        let frontier = router.solve_frontier(request).expect("routable");
        sinks += frontier.len();
        nodes += frontier.nodes();
    }
    println!("256 frontiers: {sinks} sinks / {nodes} nodes");
    assert_eq!((sinks, nodes), (3_027, 12_061));
}

/// What the level solver did for the 256 requests: one frontier solve
/// and one plain plan each (a plain route's only level solve on this
/// world, which has no hierarchy). Counts of the solve, not of the
/// allocator.
#[test]
fn level_work_over_the_gate_requests_is_pinned() {
    let (overlay, requests) = world();
    let router = overlay.hier_router();
    let mut work = LevelWork::default();
    for request in requests {
        let frontier = router.solve_frontier_with_work(request).expect("routable");
        for solve in [frontier.1, router.plan(request).expect("routable").work] {
            work.provider_probes += solve.provider_probes;
            work.relaxations += solve.relaxations;
            work.skipped_origins += solve.skipped_origins;
        }
    }
    println!("256 frontier solves and plans: {work:?}");
    assert_eq!(
        work,
        LevelWork {
            provider_probes: 78_222,
            relaxations: 1_163_960,
            skipped_origins: 78_984,
        }
    );
}

#[test]
fn admission_batch_with_a_live_down_allocations_are_pinned() {
    set_telemetry_enabled(false);
    let (overlay, requests) = world();
    let engine = overlay.engine(EngineConfig {
        admission: AdmissionConfig {
            enabled: true,
            ..AdmissionConfig::default()
        },
        ..EngineConfig::default()
    });
    let cold = engine.serve(requests);
    // The victim is the first provider hop of a served path that is no
    // request's endpoint, so every request through it can re-route.
    let victim = cold
        .paths
        .iter()
        .filter_map(|p| p.as_ref().ok())
        .flat_map(|p| p.hops())
        .filter(|h| h.service.is_some())
        .map(|h| h.proxy)
        .find(|&p| requests.iter().all(|r| r.source != p && r.destination != p))
        .expect("some provider hop is nobody's endpoint");
    engine.set_health(victim, Health::Down);
    let measured = counted(|| {
        let after = engine.serve(requests);
        let a = after.report.admission;
        assert!(a.health_drops > 0 && a.retries > 0, "{a:?}");
    });
    gate(
        "admission batch with one live Down",
        measured,
        (1_478, 251_721),
    );
}

/// "HFC without aggregation" prices every provider pair of every
/// service-graph edge, Σ|Pₛ|·|Pₛ₊₁| delays, each through the HFC border
/// pair of its two clusters. Pricing a pair allocates nothing, so two
/// requests of as many stages whose paths have as many hops allocate
/// the same however many pairs they price.
#[test]
fn route_without_aggregation_allocations_do_not_grow_with_the_pairs_priced() {
    set_telemetry_enabled(false);
    let (overlay, requests) = world();
    let router = overlay.hier_router();
    let providers = |service| {
        overlay
            .services()
            .iter()
            .filter(|set| set.contains(service))
            .count()
    };
    let _ = router.route_without_aggregation(&requests[0]);
    // (stages, hops, pairs, allocations) of each request routed so far.
    let mut seen: Vec<[u64; 4]> = Vec::new();
    for request in requests {
        let graph = &request.graph;
        let pairs: usize = graph
            .stage_ids()
            .flat_map(|stage| {
                graph
                    .predecessors(stage)
                    .iter()
                    .map(move |&pred| (pred, stage))
            })
            .map(|(pred, stage)| providers(graph.service(pred)) * providers(graph.service(stage)))
            .sum();
        let mut hops = 0;
        let (allocations, _) = counted(|| {
            let path = router.route_without_aggregation(request).expect("routable");
            hops = path.hops().len();
        });
        let run = [graph.len() as u64, hops as u64, pairs as u64, allocations];
        if let Some(earlier) = seen.iter().find(|e| e[..2] == run[..2] && e[2] != run[2]) {
            println!(
                "route without aggregation, {} stages, {} hops: {} pairs {} allocations, \
                 {} pairs {} allocations",
                run[0], run[1], earlier[2], earlier[3], run[2], run[3]
            );
            assert_eq!(
                earlier[3], run[3],
                "pricing {} and {} pairs allocated differently",
                earlier[2], run[2]
            );
            return;
        }
        seen.push(run);
    }
    panic!("no two requests of one shape price different numbers of pairs");
}
