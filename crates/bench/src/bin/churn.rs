//! Membership churn: incremental HFC maintenance vs. full rebuild.
//!
//! Applies 1,000 join/leave events to a ~250-proxy overlay. Each event
//! is handled twice on the *same* membership state: once by
//! [`DynamicOverlay`]'s incremental border maintenance (update only the
//! affected cluster's border pairs), and once by rebuilding the HFC
//! topology from scratch — what the overlay did per event before
//! incremental maintenance landed.
//!
//! ```sh
//! cargo run --release -p son-bench --bin churn > results/churn.txt
//! ```
//!
//! Also writes `results/BENCH_churn.json` (same artifact schema as the
//! other benchmark bins); a `--quick` run writes
//! `BENCH_churn_smoke.json` instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_bench::{bench_artifact, write_bench_artifact, Json};
use son_core::membership::DynamicOverlay;
use son_core::{Clustering, Coordinates, HfcTopology, ProxyId, ZahnConfig};
use std::time::{Duration, Instant};

const COMMUNITIES: usize = 10;
const START_PROXIES: usize = 250;
const EVENTS: usize = 1_000;

fn community_center(c: usize) -> (f64, f64) {
    ((c % 5) as f64 * 1_200.0, (c / 5) as f64 * 1_500.0)
}

fn random_coord(rng: &mut StdRng) -> Coordinates {
    let (cx, cy) = community_center(rng.gen_range(0..COMMUNITIES));
    Coordinates::new(vec![
        cx + rng.gen::<f64>() * 120.0,
        cy + rng.gen::<f64>() * 120.0,
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let events = if quick { 100 } else { EVENTS };
    let mut rng = StdRng::seed_from_u64(42);

    let coords: Vec<Coordinates> = (0..START_PROXIES).map(|_| random_coord(&mut rng)).collect();
    let mut overlay = DynamicOverlay::new(coords, ZahnConfig::default());

    let mut incremental = Duration::ZERO;
    let mut full = Duration::ZERO;
    let mut joins = 0usize;
    let mut leaves = 0usize;
    for _ in 0..events {
        // ~50/50 churn, floor keeps the overlay from draining.
        let join = overlay.len() < 200 || rng.gen_bool(0.5);
        let t = Instant::now();
        if join {
            overlay.join(random_coord(&mut rng));
            joins += 1;
        } else {
            overlay.leave(ProxyId::new(rng.gen_range(0..overlay.len())));
            leaves += 1;
        }
        incremental += t.elapsed();

        // The pre-incremental cost of the same event: rederive the
        // clustering labels and rebuild every border pair from scratch.
        let t = Instant::now();
        let scratch = HfcTopology::build(
            &Clustering::from_labels(&overlay.labels()),
            overlay.delays(),
        );
        full += t.elapsed();
        assert_eq!(
            scratch.snapshot(),
            overlay.hfc().snapshot(),
            "incremental maintenance diverged from the scratch build"
        );
    }

    let per_event_incr = incremental.as_secs_f64() * 1e6 / events as f64;
    let per_event_full = full.as_secs_f64() * 1e6 / events as f64;
    let speedup = per_event_full / per_event_incr;
    let stats = overlay.churn_stats();

    println!("Membership churn: incremental HFC maintenance vs full rebuild");
    println!(
        "start {} proxies, {} events ({} joins / {} leaves), final {} proxies in {} clusters",
        START_PROXIES,
        events,
        joins,
        leaves,
        overlay.len(),
        overlay.hfc().cluster_count()
    );
    println!();
    println!(
        "{:>24} {:>14} {:>16}",
        "strategy", "total (ms)", "per event (us)"
    );
    println!(
        "{:>24} {:>14.2} {:>16.2}",
        "incremental",
        incremental.as_secs_f64() * 1e3,
        per_event_incr
    );
    println!(
        "{:>24} {:>14.2} {:>16.2}",
        "full rebuild",
        full.as_secs_f64() * 1e3,
        per_event_full
    );
    println!();
    println!(
        "speedup: {speedup:.1}x per event (full rebuilds triggered incrementally: {})",
        stats.full_rebuilds
    );
    assert_eq!(
        stats.full_rebuilds, 0,
        "no event should have fallen back to a full rebuild"
    );
    if speedup < 5.0 {
        println!("WARNING: speedup below the 5x target");
    }

    let strategy_row = |name: &str, total: Duration, per_event: f64| {
        Json::obj([
            ("strategy", Json::from(name)),
            ("total_ms", Json::from(total.as_secs_f64() * 1e3)),
            ("per_event_us", Json::from(per_event)),
        ])
    };
    let config = Json::obj([
        ("start_proxies", Json::from(START_PROXIES)),
        ("events", Json::from(events)),
        ("joins", Json::from(joins)),
        ("leaves", Json::from(leaves)),
        ("final_proxies", Json::from(overlay.len())),
        ("clusters", Json::from(overlay.hfc().cluster_count())),
        ("speedup", Json::from(speedup)),
        ("quick", Json::Bool(quick)),
    ]);
    let artifact = bench_artifact(
        "churn",
        config,
        vec![
            strategy_row("incremental", incremental, per_event_incr),
            strategy_row("full_rebuild", full, per_event_full),
        ],
    );
    match write_bench_artifact("churn", quick, &artifact) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_churn.json: {e}");
            std::process::exit(1);
        }
    }
}
