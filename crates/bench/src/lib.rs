//! # son-bench
//!
//! The experiment harness: drivers that regenerate every table and
//! figure of the paper's evaluation (Section 6), shared by the
//! command-line bins (`table1`, `fig9`, `fig10`, `paper_example`).
//! Serving and build performance are measured by the standalone
//! `benchmark/` package.
//!
//! | Artifact | Regenerate with |
//! |----------|-----------------|
//! | Table 1  | `cargo run --release -p son-bench --bin table1` |
//! | Fig 9(a) | `cargo run --release -p son-bench --bin fig9 -- coords` |
//! | Fig 9(b) | `cargo run --release -p son-bench --bin fig9 -- services` |
//! | Fig 10   | `cargo run --release -p son-bench --bin fig10` |
//! | Figs 6–8 | `cargo run --release -p son-bench --bin paper_example` |
//!
//! Every driver takes explicit sizes / repetition counts, so the bins
//! default to paper scale and offer a smoke run: `--quick` for the
//! figure, ablation and `churn` bins, `--smoke` for `faults`,
//! `overload` and `dissem`. A smoke run writes its artifact under a
//! `_smoke` name ([`artifact_path`]), never over the committed one.

pub mod experiments;
pub mod json;

pub use experiments::{environment_for, figure10, figure9, Fig10Options, Figure10Row, Figure9Row};
pub use json::{artifact_path, bench_artifact, write_bench_artifact, Json};
