//! Flooding vs tree dissemination: message cost of the §4 state
//! protocol at 250/1k/10k proxies under 0/5/20% loss.
//!
//! Both modes run over the identical overlay, services, fault plan,
//! and (coordinate-predicted) delay model, so the message counts are
//! apples to apples; predicted delays keep the 10k cells free of the
//! O(n²) true-delay matrix. Flooding is simulated at 250 and 1k; at
//! 10k its quadratic cost (hundreds of millions of events per refresh
//! round) is reported as a per-round analytic estimate instead of
//! simulated, and only the tree rows are measured.
//!
//! Every cell is run twice with the same seed and the trace hashes
//! compared (`determinism_ok`). The run exits non-zero unless every
//! measured cell converges with zero stale entries and tree mode cuts
//! messages at 1k proxies by at least 3x.
//!
//! ```sh
//! cargo run --release -p son-bench --bin dissem > results/dissem.txt
//! cargo run --release -p son-bench --bin dissem -- --smoke   # CI-sized
//! ```
//!
//! Also writes `results/BENCH_dissem.json` (`BENCH_dissem_smoke.json`
//! for a smoke run).

use son_bench::environment_for;
use son_bench::{bench_artifact, write_bench_artifact, Json};
use son_core::{
    DissemMode, FaultPlan, ProtocolConfig, ServiceOverlay, SimTime, SonConfig, StateProtocol,
    StateReport,
};

const SEED: u64 = 42;
/// Simulated-time budget per run; both modes normally converge within
/// a few hundred simulated milliseconds.
const DEADLINE_MS: f64 = 60_000.0;
/// Flooding is simulated up to this size and estimated past it.
const FLOODING_SIM_LIMIT: usize = 1_000;
/// The acceptance bar: tree mode must cut message volume at 1k
/// proxies by at least this factor.
const TARGET_REDUCTION_AT_1K: f64 = 3.0;

struct Sweep {
    sizes: &'static [usize],
    losses: &'static [f64],
}

const FULL: Sweep = Sweep {
    sizes: &[250, 1_000, 10_000],
    losses: &[0.0, 0.05, 0.2],
};

const SMOKE: Sweep = Sweep {
    sizes: &[60],
    losses: &[0.0, 0.2],
};

fn run(overlay: &ServiceOverlay, mode: DissemMode, loss: f64) -> StateReport {
    let mut plan = FaultPlan::new(SEED);
    if loss > 0.0 {
        plan = plan.with_loss(loss);
    }
    let config = ProtocolConfig {
        mode,
        ..ProtocolConfig::resilient()
    };
    let mut protocol = StateProtocol::new(
        overlay.hfc(),
        overlay.services().to_vec(),
        overlay.predicted_delays(),
        config,
    );
    protocol.install_faults(plan);
    protocol.run_until_converged(SimTime::from_ms(DEADLINE_MS))
}

/// Messages one flooding round would cost on this overlay: every
/// proxy floods its cluster (Σ m(m-1)), every duty-holding border
/// sends each neighbor cluster's border an aggregate (C(C-1) legs),
/// and every received aggregate is re-flooded to the m-1 cluster
/// peers.
fn flooding_round_estimate(overlay: &ServiceOverlay) -> u64 {
    let hfc = overlay.hfc();
    let c = hfc.cluster_count() as u64;
    let mut local = 0u64;
    let mut reforward = 0u64;
    for cluster in hfc.clusters() {
        let m = hfc.members(cluster).len() as u64;
        local += m * (m - 1);
        reforward += (m - 1) * c.saturating_sub(1);
    }
    local + c * c.saturating_sub(1) + reforward
}

fn mode_name(mode: DissemMode) -> &'static str {
    match mode {
        DissemMode::Flooding => "flooding",
        DissemMode::Tree => "tree",
    }
}

fn row(
    proxies: usize,
    loss: f64,
    mode: DissemMode,
    report: &StateReport,
    reduction: Option<f64>,
) -> Json {
    let mut fields = vec![
        ("proxies", Json::from(proxies)),
        ("loss", Json::from(loss)),
        ("mode", Json::from(mode_name(mode))),
        ("converged", Json::Bool(report.converged)),
        ("stale_entries", Json::from(report.stale_entries)),
        (
            "convergence_ms",
            Json::from(report.ended_at.as_micros() as f64 / 1e3),
        ),
        ("refresh_rounds", Json::from(report.refresh_rounds)),
        ("messages_sent", Json::from(report.messages_sent())),
        ("rows_sent", Json::from(report.rows_sent)),
        ("messages_dropped", Json::from(report.messages_dropped)),
        ("tree_suppressed", Json::from(report.tree_suppressed)),
        ("tree_repairs", Json::from(report.tree_repairs)),
        (
            "trace_hash",
            Json::from(format!("{:016x}", report.trace_hash).as_str()),
        ),
    ];
    if let Some(r) = reduction {
        fields.push(("reduction_vs_flooding", Json::from(r)));
    }
    Json::obj(fields)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep = if smoke { SMOKE } else { FULL };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("Dissemination cost: flooding vs tree (seed {SEED}, predicted delays)");
    println!(
        "{:>8} {:>6} {:>9} {:>10} {:>8} {:>7} {:>12} {:>12} {:>10}",
        "proxies",
        "loss",
        "mode",
        "converged",
        "conv ms",
        "rounds",
        "sent",
        "suppressed",
        "reduction"
    );

    let mut rows = Vec::new();
    let mut all_ok = true;
    let mut determinism_ok = true;
    let mut reduction_at_1k = f64::INFINITY;
    let mut flooding_estimates = Vec::new();
    for &proxies in sweep.sizes {
        let overlay =
            ServiceOverlay::build(&SonConfig::from_environment(environment_for(proxies, SEED)));
        let flooding_simulated = proxies <= FLOODING_SIM_LIMIT;
        if !flooding_simulated {
            let est = flooding_round_estimate(&overlay);
            println!(
                "{proxies:>8}      -  flooding  (skipped: ~{est} msgs/round analytic estimate)"
            );
            flooding_estimates.push(Json::obj([
                ("proxies", Json::from(proxies)),
                ("messages_per_round", Json::from(est)),
            ]));
        }
        for &loss in sweep.losses {
            let mut flooding_sent = None;
            let modes: &[DissemMode] = if flooding_simulated {
                &[DissemMode::Flooding, DissemMode::Tree]
            } else {
                &[DissemMode::Tree]
            };
            for &mode in modes {
                let report = run(&overlay, mode, loss);
                // Same seed, same plan — byte-identical event digest.
                let echo = run(&overlay, mode, loss);
                determinism_ok &= echo == report;
                all_ok &= report.converged && report.stale_entries == 0;
                let reduction = match mode {
                    DissemMode::Flooding => {
                        flooding_sent = Some(report.messages_sent());
                        None
                    }
                    DissemMode::Tree => {
                        flooding_sent.map(|f| f as f64 / report.messages_sent().max(1) as f64)
                    }
                };
                if let (1_000, Some(r)) = (proxies, reduction) {
                    reduction_at_1k = reduction_at_1k.min(r);
                }
                println!(
                    "{:>8} {:>6.2} {:>9} {:>10} {:>8.1} {:>7} {:>12} {:>12} {:>10}",
                    proxies,
                    loss,
                    mode_name(mode),
                    report.converged,
                    report.ended_at.as_micros() as f64 / 1e3,
                    report.refresh_rounds,
                    report.messages_sent(),
                    report.tree_suppressed,
                    reduction.map_or("-".to_string(), |r| format!("{r:.1}x")),
                );
                rows.push(row(proxies, loss, mode, &report, reduction));
            }
        }
    }
    println!(
        "determinism: {}",
        if determinism_ok { "ok" } else { "BROKEN" }
    );
    if reduction_at_1k.is_finite() {
        println!(
            "reduction at 1k proxies: {reduction_at_1k:.1}x (target >= {TARGET_REDUCTION_AT_1K}x)"
        );
    }

    let config = Json::obj([
        ("seed", Json::from(SEED)),
        ("deadline_ms", Json::from(DEADLINE_MS)),
        ("delay_model", Json::from("predicted")),
        ("host_cores", Json::from(cores)),
        ("determinism_ok", Json::Bool(determinism_ok)),
        ("smoke", Json::Bool(smoke)),
        ("flooding_sim_limit", Json::from(FLOODING_SIM_LIMIT)),
        ("flooding_estimates", Json::Arr(flooding_estimates)),
    ]);
    let artifact = bench_artifact("dissem", config, rows);
    match write_bench_artifact("dissem", smoke, &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write the dissem artifact: {e}");
            std::process::exit(1);
        }
    }
    if !all_ok || !determinism_ok {
        eprintln!("error: convergence or determinism check failed");
        std::process::exit(1);
    }
    if !smoke && reduction_at_1k < TARGET_REDUCTION_AT_1K {
        eprintln!("error: tree reduction at 1k is {reduction_at_1k:.1}x, below the {TARGET_REDUCTION_AT_1K}x target");
        std::process::exit(1);
    }
}
