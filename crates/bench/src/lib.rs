//! # son-bench
//!
//! The experiment harness: drivers that regenerate every table and
//! figure of the paper's evaluation (Section 6), shared between the
//! command-line bins (`table1`, `fig9`, `fig10`, `paper_example`) and
//! the Criterion benches.
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
//! offer a `--quick` mode for smoke runs and default to paper scale.

pub mod experiments;
pub mod json;
pub mod scale;

pub use experiments::{environment_for, figure10, figure9, Fig10Options, Figure10Row, Figure9Row};
pub use json::{bench_artifact, write_bench_artifact, Json};
pub use scale::{scale_row, scale_row_json, ScaleOptions, ScaleRow};
