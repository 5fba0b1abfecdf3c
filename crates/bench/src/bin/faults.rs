//! State-protocol convergence under injected faults: loss-rate sweep.
//!
//! Runs the anti-entropy state protocol (`ProtocolConfig::resilient`)
//! over one overlay per size with a seeded [`son_core::FaultPlan`] at
//! each loss rate, and records time-to-converge plus message overhead
//! relative to the lossless run. The lossless row doubles as the
//! baseline: overhead is `messages_sent / lossless_messages_sent`.
//!
//! Every cell is also run twice with the same seed and the two trace
//! hashes compared, certifying that the fault layer kept the simulator
//! deterministic (`determinism_ok` in the emitted config).
//!
//! ```sh
//! cargo run --release -p son-bench --bin faults > results/faults.txt
//! cargo run --release -p son-bench --bin faults -- --smoke   # CI-sized
//! ```
//!
//! Also writes `results/BENCH_faults.json` (`BENCH_faults_smoke.json`
//! for a smoke run).

use son_bench::environment_for;
use son_bench::{bench_artifact, write_bench_artifact, Json};
use son_core::{FaultPlan, ServiceOverlay, SimTime, SonConfig, StateReport};

const SEED: u64 = 42;
/// Simulated-time budget per run; the protocol normally converges in a
/// few hundred milliseconds.
const DEADLINE_MS: f64 = 60_000.0;

struct Sweep {
    sizes: &'static [usize],
    losses: &'static [f64],
}

const FULL: Sweep = Sweep {
    sizes: &[250],
    losses: &[0.0, 0.05, 0.2],
};

const SMOKE: Sweep = Sweep {
    sizes: &[60],
    losses: &[0.0, 0.2],
};

fn run(overlay: &ServiceOverlay, loss: f64) -> StateReport {
    let mut plan = FaultPlan::new(SEED);
    if loss > 0.0 {
        plan = plan.with_loss(loss);
    }
    overlay.run_state_protocol_faulty(plan, SimTime::from_ms(DEADLINE_MS))
}

fn row(proxies: usize, loss: f64, report: &StateReport, lossless_sent: u64) -> Json {
    let sent = report.local_messages + report.aggregate_messages;
    Json::obj([
        ("proxies", Json::from(proxies)),
        ("loss", Json::from(loss)),
        ("converged", Json::Bool(report.converged)),
        ("stale_entries", Json::from(report.stale_entries)),
        (
            "convergence_ms",
            Json::from(report.ended_at.as_micros() as f64 / 1e3),
        ),
        ("messages_sent", Json::from(sent)),
        ("messages_delivered", Json::from(report.messages_delivered)),
        ("messages_dropped", Json::from(report.messages_dropped)),
        (
            "overhead_vs_lossless",
            Json::from(sent as f64 / lossless_sent as f64),
        ),
        (
            "trace_hash",
            Json::from(format!("{:016x}", report.trace_hash).as_str()),
        ),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep = if smoke { SMOKE } else { FULL };

    println!("State protocol under injected loss (seed {SEED}, anti-entropy refresh on)");
    println!(
        "{:>8} {:>6} {:>10} {:>8} {:>12} {:>12} {:>10}",
        "proxies", "loss", "converged", "conv ms", "sent", "dropped", "overhead"
    );

    let mut rows = Vec::new();
    let mut all_converged = true;
    let mut determinism_ok = true;
    for &proxies in sweep.sizes {
        let overlay =
            ServiceOverlay::build(&SonConfig::from_environment(environment_for(proxies, SEED)));
        let mut lossless_sent = 0u64;
        for &loss in sweep.losses {
            let report = run(&overlay, loss);
            // Same seed, same plan — byte-identical event digest.
            let echo = run(&overlay, loss);
            determinism_ok &= echo.trace_hash == report.trace_hash && echo == report;
            let sent = report.local_messages + report.aggregate_messages;
            if loss == 0.0 {
                lossless_sent = sent;
            }
            all_converged &= report.converged;
            println!(
                "{:>8} {:>6.2} {:>10} {:>8.1} {:>12} {:>12} {:>9.2}x",
                proxies,
                loss,
                report.converged,
                report.ended_at.as_micros() as f64 / 1e3,
                sent,
                report.messages_dropped,
                sent as f64 / lossless_sent.max(1) as f64,
            );
            rows.push(row(proxies, loss, &report, lossless_sent.max(1)));
        }
    }
    println!(
        "determinism: {}",
        if determinism_ok { "ok" } else { "BROKEN" }
    );

    let config = Json::obj([
        ("seed", Json::from(SEED)),
        ("deadline_ms", Json::from(DEADLINE_MS)),
        ("determinism_ok", Json::Bool(determinism_ok)),
        ("smoke", Json::Bool(smoke)),
    ]);
    let artifact = bench_artifact("faults", config, rows);
    match write_bench_artifact("faults", smoke, &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_faults.json: {e}");
            std::process::exit(1);
        }
    }
    if !all_converged || !determinism_ok {
        eprintln!("error: convergence or determinism check failed");
        std::process::exit(1);
    }
}
