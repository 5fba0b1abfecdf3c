//! End-to-end runs: one workload per process, through the `son-core`
//! facade only.
//!
//! ```sh
//! benchmark/run.sh --workload warm_zipf --seed 42      # one run
//! benchmark/run.sh --agree                             # two sets, compared
//! ```

use son_benchmark::args::Args;
use son_benchmark::check::Checker;
use son_benchmark::contract::END_TO_END;
use son_benchmark::driver;
use son_benchmark::json::Json;
use son_benchmark::report::{self, Ending};
use son_benchmark::workloads::{Spec, SPECS};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args = Args::from_env();
    if args.trace {
        eprintln!("error: traced runs are the `layers` binary's; use benchmark/run.sh");
        return ExitCode::from(2);
    }
    if args.agree {
        return agree(&args);
    }
    let Some(spec) = args.workload else {
        eprintln!("error: --workload NAME is required (benchmark/run.sh runs them all)");
        return ExitCode::from(2);
    };
    let mut checker = Checker::new(args.check);
    let outcome = driver::end_to_end(spec, args.seed, args.seconds, &mut checker);
    let ending = Ending {
        metrics: &outcome.metrics,
        attempted: outcome.attempted,
        failed: outcome.failed,
        notes: &outcome.notes,
        file: format!("{}.json", spec.name),
        extras: vec![
            (
                "throughput_samples_s",
                numbers(&outcome.throughput_samples_s),
            ),
            ("single_calls_us", numbers(&outcome.single_calls_us)),
        ],
    };
    report::conclude(spec, &args, &checker, ending)
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::from).collect())
}

/// Runs `spec` in a child process (peak RSS is per process) and
/// returns its result line.
fn child(spec: &Spec, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--check", if args.check { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{}: could not start: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{}: exited with {}: {last}",
            spec.name, output.status
        ));
    }
    Json::parse(last).map_err(|e| format!("{}: result line: {e}", spec.name))
}

fn value(line: &Json, metric: &str) -> Option<f64> {
    line.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `--agree`: runs the end-to-end set twice and fails if the second
/// set is worse or better than the first by more than a metric's
/// bound, or differs at all on a metric that must repeat exactly.
fn agree(args: &Args) -> ExitCode {
    let specs: Vec<&Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    let mut disagreements = 0;
    for spec in specs {
        let lines = match (child(spec, args), child(spec, args)) {
            (Ok(a), Ok(b)) => [a, b],
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("error: {e}");
                }
                return ExitCode::FAILURE;
            }
        };
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (value(&lines[0], metric.name), value(&lines[1], metric.name))
            else {
                eprintln!("error: {}: no {} in a result line", spec.name, metric.name);
                return ExitCode::FAILURE;
            };
            let apart = metric.worsening(a, b).abs();
            let agrees = if metric.exact {
                a == b
            } else {
                apart <= metric.bound
            };
            println!(
                "{} {} {} {a} {b} apart={:.4} bound={} {}",
                spec.name,
                metric.name,
                metric.unit,
                apart,
                if metric.exact { 0.0 } else { metric.bound },
                if agrees { "ok" } else { "DISAGREES" }
            );
            disagreements += usize::from(!agrees);
        }
    }
    if disagreements == 0 {
        println!("# the two sets agree");
        ExitCode::SUCCESS
    } else {
        println!("# {disagreements} metrics disagree");
        ExitCode::FAILURE
    }
}
