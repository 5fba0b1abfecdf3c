//! Scale-out sweep: staged builds and recursive multi-level routing
//! at 1k/10k/50k proxies.
//!
//! ```sh
//! cargo run --release -p son-bench --bin scale             # 1k/10k/50k
//! cargo run --release -p son-bench --bin scale -- --smoke  # 1k only (CI)
//! cargo run --release -p son-bench --bin scale -- --threads 8
//! ```
//!
//! Per size: builds the overlay once single-threaded and once on the
//! worker count, asserts the snapshots are bit-identical, records
//! per-stage wall time for both, the border election's work count,
//! per-proxy routing state at depth 2 vs depth 3, multi-level
//! routed-path cost vs the flat optimum, and the bounded true-delay
//! cache's row accounting. Writes
//! `results/BENCH_scale.json`. Exits non-zero on any path-validity
//! violation or if nothing routed.
//!
//! Wall-clock speedup from the one parallel stage (embedding) is
//! bounded by the machine: the artifact records the host's available
//! parallelism so a 1-core CI runner's ~1.0x ratios are
//! self-explaining.

use son_bench::{bench_artifact, write_bench_artifact, Json, ScaleOptions, ScaleRow};

const SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if threads == 0 { cores.max(2) } else { threads };

    let opts = if smoke {
        ScaleOptions::smoke(threads, SEED)
    } else {
        ScaleOptions::full(threads, SEED)
    };

    println!(
        "scale sweep: sizes {:?}, {} worker threads ({} cores available)",
        opts.sizes, threads, cores
    );
    println!(
        "{:>8} {:>7} {:>6} | {:>9} {:>9} {:>7} | {:>8} {:>8} | {:>6} {:>5} {:>9} | {:>6} {:>6}",
        "proxies",
        "clstrs",
        "supers",
        "seq-ms",
        "par-ms",
        "speedup",
        "st2/prox",
        "st3/prox",
        "routed",
        "viol",
        "cost/flat",
        "rows",
        "evict"
    );

    let mut rows = Vec::new();
    let mut failed = false;
    for &proxies in &opts.sizes.clone() {
        let row = son_bench::scale_row(proxies, &opts);
        print_row(&row);
        if row.routed.1 == 0 || row.violations != 0 {
            failed = true;
        }
        rows.push(son_bench::scale_row_json(&row));
    }

    let config = Json::obj([
        ("seed", Json::from(SEED)),
        ("threads", Json::from(threads)),
        ("host_cores", Json::from(cores)),
        ("smoke", Json::Bool(smoke)),
        ("requests", Json::from(opts.requests)),
        ("flat_cost_cap", Json::from(opts.flat_cost_cap)),
    ]);
    let artifact = bench_artifact("scale", config, rows);
    match write_bench_artifact("scale", &artifact) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_scale.json: {e}");
            std::process::exit(1);
        }
    }
    if failed {
        eprintln!("error: a size routed nothing or produced invalid paths");
        std::process::exit(1);
    }
}

fn print_row(row: &ScaleRow) {
    let state2 = row.state_depth2.0 + row.state_depth2.1;
    let state3 = row.state_depth3.0 + row.state_depth3.1;
    println!(
        "{:>8} {:>7} {:>6} | {:>9.0} {:>9.0} {:>6.2}x | {:>8.1} {:>8.1} | {:>3}/{:<3} {:>5} {:>9} | {:>6} {:>6}",
        row.proxies,
        row.clusters,
        row.superclusters,
        row.sequential.total.as_secs_f64() * 1e3,
        row.parallel.total.as_secs_f64() * 1e3,
        row.stage_speedup,
        state2,
        state3,
        row.routed.1,
        row.routed.0,
        row.violations,
        row.cost_vs_flat
            .map_or("-".to_string(), |r| format!("{r:.3}")),
        row.delay_rows_computed,
        row.delay_rows_evicted,
    );
    println!(
        "{:>10}  {:>10} {} delay evaluations + {} box tests for {} cross pairs",
        "", "election", row.election.pair_evaluations, row.election.box_tests, row.cross_pairs
    );
    for (name, seq) in &row.sequential.stages {
        let par = row
            .parallel
            .stages
            .iter()
            .find(|(n, _)| n == name)
            .map_or(std::time::Duration::ZERO, |&(_, d)| d);
        println!(
            "{:>10}  {:>10} {:>9.1}ms -> {:>8.1}ms",
            "",
            name,
            seq.as_secs_f64() * 1e3,
            par.as_secs_f64() * 1e3
        );
    }
}
