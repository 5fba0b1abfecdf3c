//! Overload- and failure-resilient serving: flash crowds over a
//! partially-crashed overlay.
//!
//! Per overlay size, 5% of the proxies crash under a seeded
//! [`son_core::FaultPlan`]; the state protocol's missed-refresh
//! detector turns the crashes into a health map, which (plus seeded
//! per-proxy capacities) parameterizes an admission-enabled engine.
//! Three phased scenarios then drive it: a regional surge, a mid-run
//! Zipf hot-key flip, and rolling crashes under sustained load.
//!
//! Every phase is checked against the robustness invariants —
//! **zero served routes traverse a `Down` proxy**, **per-proxy
//! admitted load never exceeds capacity**, and **the degradation
//! accounting (`optimal + degraded + rejected`) sums to the batch
//! size** — and the run exits non-zero if any fails. Degraded paths
//! are also priced against the flat global-knowledge optimum.
//!
//! ```sh
//! cargo run --release -p son-bench --bin overload > results/overload.txt
//! cargo run --release -p son-bench --bin overload -- --smoke   # CI-sized
//! ```
//!
//! Writes `results/BENCH_overload.json` and a telemetry snapshot to
//! `results/overload_metrics.json` (carrying the `engine.admission.*`
//! counters); a smoke run writes both under a `_smoke` name.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_bench::environment_for;
use son_bench::{artifact_path, bench_artifact, write_bench_artifact, Json};
use son_core::{
    AdmissionConfig, CostConfig, Engine, EngineConfig, FaultPlan, FlatRouter, Health, HierProvider,
    NodeId, ProviderIndex, ProxyId, Scenario, ServiceOverlay, ServiceRequest, SimTime, SonConfig,
    StatusMap,
};

const SEED: u64 = 42;
/// Simulated crash time: after the initial table exchange, so live
/// peers detect the victims by missed refreshes, not by never having
/// heard of them.
const CRASH_AT_MS: f64 = 150.0;
/// State-protocol simulation budget. Permanent crashes leave
/// permanently-stale rows, so `run_until_converged` would otherwise
/// burn its whole deadline; two simulated seconds give the
/// missed-refresh detector ~45 refresh periods past the crash, which
/// is all `health_view` needs.
const DEADLINE_MS: f64 = 2_000.0;
/// One proxy in `VICTIM_STEP` crashes (5%).
const VICTIM_STEP: usize = 20;
const ZIPF_S: f64 = 0.9;

struct Sweep {
    sizes: &'static [usize],
    pool: usize,
    baseline: usize,
    surge: usize,
    capacity: (u32, u32),
}

const FULL: Sweep = Sweep {
    sizes: &[250, 500],
    pool: 256,
    baseline: 1_000,
    surge: 3_000,
    capacity: (32, 96),
};

const SMOKE: Sweep = Sweep {
    sizes: &[60],
    pool: 48,
    baseline: 150,
    surge: 400,
    capacity: (24, 72),
};

/// The per-size world: an overlay with 5% of its proxies crashed, the
/// health map the state protocol derived from that, and seeded
/// capacities.
struct World {
    overlay: ServiceOverlay,
    statuses: StatusMap,
    capacities: Vec<u32>,
    snapshot_down: Vec<bool>,
}

fn build_world(proxies: usize, capacity: (u32, u32)) -> World {
    let overlay =
        ServiceOverlay::build(&SonConfig::from_environment(environment_for(proxies, SEED)));
    let victims: Vec<usize> = (0..proxies).step_by(VICTIM_STEP).collect();
    let mut plan = FaultPlan::new(SEED);
    for &v in &victims {
        plan = plan.with_crash(NodeId::new(v), SimTime::from_ms(CRASH_AT_MS), None);
    }
    // The crash events reach serving the honest way: the protocol's
    // missed-refresh detector classifies each proxy from its own run.
    let mut protocol = overlay.faulty_state_protocol(plan);
    protocol.run_until_converged(SimTime::from_ms(DEADLINE_MS));
    let mut statuses = protocol.health_view();

    let mut rng = StdRng::seed_from_u64(SEED ^ 0xcafe);
    let mut capacities = Vec::with_capacity(proxies);
    for p in 0..proxies {
        let cap = rng.gen_range(capacity.0..=capacity.1);
        statuses.set_capacity(ProxyId::new(p), cap);
        capacities.push(cap);
    }
    let snapshot_down = (0..proxies)
        .map(|p| statuses.health(ProxyId::new(p)) == Health::Down)
        .collect();
    World {
        overlay,
        statuses,
        capacities,
        snapshot_down,
    }
}

/// All three scenarios over one world's request pool.
fn scenarios(world: &World, sweep: &Sweep) -> Vec<Scenario> {
    let pool: Vec<ServiceRequest> = {
        let mut pool = world
            .overlay
            .generate_requests(sweep.pool * 2, SEED ^ 0xF00D);
        pool.dedup();
        pool.truncate(sweep.pool);
        pool
    };
    let up = |p: &ProxyId| !world.snapshot_down[p.index()];
    // The flash crowd erupts out of the first cluster's live members.
    let hfc = world.overlay.hfc();
    let region: Vec<ProxyId> = hfc
        .clusters()
        .map(|c| hfc.members(c))
        .max_by_key(|m| m.len())
        .expect("overlay has clusters")
        .iter()
        .copied()
        .filter(up)
        .collect();
    // Rolling live crashes on top of the snapshot-dead 5%.
    let rolling: Vec<ProxyId> = (0..world.overlay.proxy_count())
        .map(ProxyId::new)
        .filter(up)
        .step_by(7)
        .take(3)
        .collect();
    vec![
        Scenario::regional_surge(&pool, &region, sweep.baseline, sweep.surge, ZIPF_S, SEED),
        Scenario::hot_key_flip(&pool, sweep.baseline, ZIPF_S, SEED ^ 1),
        Scenario::rolling_crashes(&pool, &rolling, sweep.baseline, ZIPF_S, SEED ^ 2),
    ]
}

struct PhaseOutcome {
    row: Json,
    invariants_ok: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    engine: &Engine<son_core::CoordDelays, HierProvider>,
    world: &World,
    optimum: &FlatRouter<ProviderIndex, &son_core::CoordDelays>,
    proxies: usize,
    scenario: &str,
    phase_name: &str,
    requests: &[ServiceRequest],
    live_down: &[bool],
) -> PhaseOutcome {
    let outcome = engine.serve(requests);
    let report = &outcome.report;
    let a = report.admission;
    let total = requests.len() as u64;

    // Invariant 1: accounting sums to the batch size.
    let accounting_ok = a.total() == total;
    // Invariant 2: no served path traverses a Down proxy (snapshot or
    // live).
    let down = |p: ProxyId| world.snapshot_down[p.index()] || live_down[p.index()];
    let down_traversals: usize = outcome
        .paths
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .flat_map(|p| p.hops().iter())
        .filter(|h| down(h.proxy))
        .count();
    // Invariant 3: per-proxy admitted load never exceeds capacity.
    let over_capacity: usize = report
        .admitted_load
        .iter()
        .enumerate()
        .filter(|&(p, &load)| load > world.capacities[p] as u64)
        .count();
    let invariants_ok = accounting_ok && down_traversals == 0 && over_capacity == 0;

    // Degraded paths priced against the flat global-knowledge optimum.
    let delays = world.overlay.predicted_delays();
    let mut ratios = Vec::new();
    for (i, disposition) in outcome.dispositions.iter().enumerate() {
        if *disposition != son_core::Disposition::Degraded {
            continue;
        }
        let Ok(path) = &outcome.paths[i] else {
            continue;
        };
        if let Ok(best) = optimum.route(&requests[i]) {
            let bottom = best.length(delays);
            if bottom > 0.0 {
                ratios.push(path.length(delays) / bottom);
            }
        }
    }
    let cost_vs_optimum = if ratios.is_empty() {
        Json::Null
    } else {
        Json::from(ratios.iter().sum::<f64>() / ratios.len() as f64)
    };

    println!(
        "{:>8} {:>16} {:>12} {:>8} {:>7.1}% {:>7.1}% {:>7.1}% {:>9.0} {:>6} {:>10}",
        proxies,
        scenario,
        phase_name,
        total,
        100.0 * a.optimal as f64 / total as f64,
        100.0 * a.degraded as f64 / total as f64,
        100.0 * a.rejected as f64 / total as f64,
        report.latency.p99_us,
        a.retries,
        if invariants_ok { "ok" } else { "VIOLATED" },
    );

    let row = Json::obj([
        ("proxies", Json::from(proxies)),
        ("scenario", Json::from(scenario)),
        ("phase", Json::from(phase_name)),
        ("requests", Json::from(total)),
        ("optimal", Json::from(a.optimal)),
        ("degraded", Json::from(a.degraded)),
        ("rejected", Json::from(a.rejected)),
        ("rejected_no_ingress", Json::from(a.rejected_no_ingress)),
        ("rejected_overloaded", Json::from(a.rejected_overloaded)),
        ("rejected_unroutable", Json::from(a.rejected_unroutable)),
        ("served_frac", Json::from(a.served() as f64 / total as f64)),
        (
            "degraded_frac",
            Json::from(a.degraded as f64 / total as f64),
        ),
        (
            "rejected_frac",
            Json::from(a.rejected as f64 / total as f64),
        ),
        ("retries", Json::from(a.retries)),
        ("health_drops", Json::from(a.health_drops)),
        ("p50_us", Json::from(report.latency.p50_us)),
        ("p99_us", Json::from(report.latency.p99_us)),
        ("degraded_cost_vs_optimum", cost_vs_optimum),
        ("down_traversals", Json::from(down_traversals)),
        ("over_capacity_proxies", Json::from(over_capacity)),
        ("accounting_ok", Json::Bool(accounting_ok)),
        ("invariants_ok", Json::Bool(invariants_ok)),
    ]);
    PhaseOutcome { row, invariants_ok }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep = if smoke { SMOKE } else { FULL };
    son_core::set_telemetry_enabled(true);

    println!(
        "Overload serving: 5% crashed (fault plan -> state protocol -> health), \
         Zipf({ZIPF_S}) flash crowds, admission on (seed {SEED})"
    );
    println!(
        "{:>8} {:>16} {:>12} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6} {:>10}",
        "proxies",
        "scenario",
        "phase",
        "reqs",
        "optimal",
        "degraded",
        "rejected",
        "p99 us",
        "retries",
        "invariants"
    );

    let mut rows = Vec::new();
    let mut all_ok = true;
    for &proxies in sweep.sizes {
        let world = build_world(proxies, sweep.capacity);
        let provider_index = ProviderIndex::from_service_sets(world.overlay.services());
        let optimum = FlatRouter::new(provider_index, world.overlay.predicted_delays());
        for scenario in scenarios(&world, &sweep) {
            // Fresh engine per scenario: caches and live overrides do
            // not leak between experiments. Single worker so the
            // recorded shed-set is reproducible run to run.
            let engine = Engine::new(
                world
                    .overlay
                    .engine_snapshot_with(world.statuses.clone(), CostConfig::balanced()),
                HierProvider {
                    config: world.overlay.config().hier,
                },
                EngineConfig {
                    workers: 1,
                    admission: AdmissionConfig {
                        enabled: true,
                        ..AdmissionConfig::default()
                    },
                    ..EngineConfig::default()
                },
            );
            let mut live_down = vec![false; proxies];
            for phase in &scenario.phases {
                for &p in &phase.crashes {
                    engine.set_health(p, Health::Down);
                    live_down[p.index()] = true;
                }
                for &p in &phase.restarts {
                    engine.set_health(p, Health::Up);
                    live_down[p.index()] = false;
                }
                let result = run_phase(
                    &engine,
                    &world,
                    &optimum,
                    proxies,
                    &scenario.name,
                    &phase.name,
                    &phase.requests,
                    &live_down,
                );
                all_ok &= result.invariants_ok;
                rows.push(result.row);
            }
        }
    }

    let config = Json::obj([
        ("seed", Json::from(SEED)),
        ("zipf_s", Json::from(ZIPF_S)),
        ("crash_fraction", Json::from(1.0 / VICTIM_STEP as f64)),
        ("capacity_lo", Json::from(sweep.capacity.0 as u64)),
        ("capacity_hi", Json::from(sweep.capacity.1 as u64)),
        ("pool", Json::from(sweep.pool)),
        ("baseline", Json::from(sweep.baseline)),
        ("surge", Json::from(sweep.surge)),
        ("invariants_ok", Json::Bool(all_ok)),
        ("smoke", Json::Bool(smoke)),
    ]);
    let artifact = bench_artifact("overload", config, rows);
    match write_bench_artifact("overload", smoke, &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_overload.json: {e}");
            std::process::exit(1);
        }
    }
    let written = artifact_path("overload_metrics", smoke).and_then(|path| {
        son_core::write_json_snapshot(son_core::telemetry(), &path)?;
        Ok(path)
    });
    match written {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write overload_metrics.json: {e}");
            std::process::exit(1);
        }
    }
    if !all_ok {
        eprintln!("error: a robustness invariant was violated");
        std::process::exit(1);
    }
}
