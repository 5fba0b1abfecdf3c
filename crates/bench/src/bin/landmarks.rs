//! Landmark-count sensitivity — how many reference points does the
//! distance map need? The paper fixes m = 10 (Table 1) without
//! justification; this sweep shows the precision/measurement-cost
//! trade-off (measurements grow as O(m² + nm)).
//!
//! ```sh
//! cargo run --release -p son-bench --bin landmarks
//! cargo run --release -p son-bench --bin landmarks -- --quick
//! ```

use son_bench::environment_for;
use son_core::{ServiceOverlay, SonConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let proxies = if quick { 60 } else { 250 };
    let counts: &[usize] = if quick {
        &[4, 8, 12]
    } else {
        &[4, 6, 8, 10, 14, 20]
    };

    println!("Distance-map precision by landmark count ({proxies} proxies, 2-D)");
    println!(
        "{:>10} {:>14} {:>12} {:>12} {:>10}",
        "landmarks", "measurements", "err-median", "err-p90", "clusters"
    );
    for &m in counts {
        let mut env = environment_for(proxies, 42);
        env.landmarks = m;
        let overlay = ServiceOverlay::build(&SonConfig::from_environment(env));
        let err = overlay.embedding_error();
        // O(m²) landmark probes + O(n·m) host probes.
        let measurements = m * (m - 1) / 2 + proxies * m;
        println!(
            "{:>10} {:>14} {:>11.1}% {:>11.1}% {:>10}",
            m,
            measurements,
            err.median * 100.0,
            err.p90 * 100.0,
            overlay.stats().clusters
        );
    }
    println!(
        "\nA full n² measurement campaign would need {} probes; ten\n\
         landmarks achieve GNP-grade precision at ~{}% of that cost.",
        proxies * (proxies - 1) / 2,
        (10 * 9 / 2 + proxies * 10) * 100 / (proxies * (proxies - 1) / 2)
    );
}
