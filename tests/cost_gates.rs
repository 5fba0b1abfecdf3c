//! Deterministic cost gates: heap allocations and bytes per warm
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
    set_telemetry_enabled, AdmissionConfig, EngineConfig, Health, ServiceOverlay, ServiceRequest,
    SonConfig,
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
    gate("warm serve of 1", one, (1_227, 192_409));
    gate("warm serve of 256", all, (1_234, 227_664));
    // A cached answer allocates nothing; what the 255 extra requests
    // add is the batch's vectors growing (7 today).
    assert!(
        all.0 - one.0 <= 8,
        "the 255 extra cached requests made {} allocations",
        all.0 - one.0
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
        (2_511, 348_065),
    );
}
