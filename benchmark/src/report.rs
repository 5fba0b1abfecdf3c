//! What a run prints and leaves behind: one `name unit value
//! n=<samples>` line per metric, an artifact under `out/`, and the
//! result line last.

use crate::args::Args;
use crate::check::Checker;
use crate::json::Json;
use crate::workloads::Spec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where artifacts go, relative to the repository root `run.sh` runs
/// the binaries from.
pub const OUT_DIR: &str = "benchmark/out";

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Prints every metric by name with its unit and sample count.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {} n={}", m.name, m.unit, m.value, m.samples);
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ])
}

/// The stamp every artifact carries. `run.sh` passes the git revision
/// and compiler version in; a binary started by hand says `unknown`.
/// There is no smoke mode — one size only — and the stamp says so.
pub fn stamp(workload: &str, seed: u64, seconds: f64) -> Vec<(&'static str, Json)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("git_rev", Json::from(env("SON_BENCH_GIT_REV"))),
        ("rustc", Json::from(env("SON_BENCH_RUSTC"))),
        (
            "host_cores",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("smoke", Json::from(false)),
    ]
}

/// Writes `document` to `out/<file>`, creating the directory.
///
/// # Errors
///
/// Any I/O error, with the path.
pub fn write_artifact(file: &str, document: &Json) -> Result<PathBuf, String> {
    let path = Path::new(OUT_DIR).join(file);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, document.render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// What a run has to say at its end.
#[derive(Debug)]
pub struct Ending<'a> {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: &'a [Metric],
    /// Requests attempted in timed calls.
    pub attempted: u64,
    /// Of those, answered `Err`.
    pub failed: u64,
    /// Lines for the human reader.
    pub notes: &'a [String],
    /// The artifact's file name.
    pub file: String,
    /// What the artifact holds beside the stamp and the metrics.
    pub extras: Vec<(&'static str, Json)>,
}

/// Ends a run: prints the metrics, the notes and any violations as
/// comment lines, writes the stamped artifact, and prints the result
/// line last. A run with a violation or a metric that is not a number
/// is void: `correct: false` and a failing exit code.
pub fn conclude(spec: &Spec, args: &Args, checker: &Checker, ending: Ending) -> ExitCode {
    let Ending {
        metrics,
        attempted,
        failed,
        notes,
        file,
        extras,
    } = ending;
    let correct = checker.violations() == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("# {} seed {} ({} s)", spec.name, args.seed, args.seconds);
    print_metrics(metrics);
    for note in notes {
        println!("# {note}");
    }
    for message in checker.messages() {
        println!("# VIOLATION {message}");
    }
    if checker.violations() > 0 {
        println!("# {} violations: this run is void", checker.violations());
    }
    let mut document = stamp(spec.name, args.seed, args.seconds);
    document.extend([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    document.extend(extras);
    announce(write_artifact(&file, &Json::obj(document)));
    println!(
        "{}",
        result_line(correct, attempted, failed, metrics).render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Says where an artifact went, or that it did not.
pub fn announce(written: Result<PathBuf, String>) {
    match written {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("warning: no artifact written: {e}"),
    }
}

/// Metrics with sample counts, for an artifact.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::from(m.value)),
                ("unit", Json::from(m.unit)),
                ("n", Json::from(m.samples)),
            ]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 12, 0, &[Metric::new("rps", "req/s", 1.5, 3)]);
        let Json::Obj(pairs) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"rps": {"value": 1.5, "unit": "req/s"}}}"#
        );
    }
}
