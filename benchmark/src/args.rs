//! The command line both binaries take.

use crate::workloads::{self, Spec};

/// Parsed arguments.
#[derive(Debug)]
pub struct Args {
    /// `--workload NAME`; `None` leaves the choice to the caller.
    pub workload: Option<&'static Spec>,
    /// `--seed N`: feeds the benchmark's generators.
    pub seed: u64,
    /// `--seconds S`: how long the timed phases run.
    pub seconds: f64,
    /// `--trace [0|1]`: report the per-layer metrics from a traced run.
    pub trace: bool,
    /// `--check [0|1]`: verify every answer (on unless switched off).
    pub check: bool,
    /// `--agree`: run the end-to-end set twice and compare.
    pub agree: bool,
}

/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

impl Args {
    /// The process's arguments; on a bad one, says which and exits
    /// with code 2.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Names the offending argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
            check: true,
            agree: false,
        };
        let mut args = args.into_iter().peekable();
        while let Some(flag) = args.next() {
            // `--trace` and `--check` stand alone or take 0/1.
            let mut switch = || match args.peek().map(String::as_str) {
                Some("0") => {
                    args.next();
                    false
                }
                Some("1") => {
                    args.next();
                    true
                }
                _ => true,
            };
            match flag.as_str() {
                "--trace" => parsed.trace = switch(),
                "--check" => parsed.check = switch(),
                "--agree" => parsed.agree = true,
                "--workload" | "--seed" | "--seconds" => {
                    let value = args.next().ok_or(format!("{flag} needs a value"))?;
                    let bad = || format!("{flag} {value}: not understood");
                    match flag.as_str() {
                        "--workload" => {
                            parsed.workload = Some(workloads::spec(&value).ok_or_else(|| {
                                let names: Vec<_> =
                                    workloads::SPECS.iter().map(|s| s.name).collect();
                                format!("no workload {value}; there are {}", names.join(", "))
                            })?);
                        }
                        "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                        _ => {
                            parsed.seconds = value
                                .parse()
                                .ok()
                                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                                .ok_or_else(bad)?;
                        }
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload cold_route --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload.map(|s| s.name), Some("cold_route"));
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.check),
            (7, 3.0, true, true)
        );
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--trace --seed 3").unwrap().trace);
        assert!(!parse("--check 0").unwrap().check);
    }

    #[test]
    fn bad_arguments_are_named() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--fast",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
