//! Coordinate-space dimension study — the experiment the paper defers
//! ("it would be also interesting, in the future, to quantify the
//! precisions of the distance maps obtained by using coordinate spaces
//! of different dimensions, and see their impact on clustering",
//! Section 6.1).
//!
//! For each dimension `k`, builds the same overlay with a `k`-D GNP
//! embedding and reports: distance-map precision, clustering shape,
//! and the resulting hierarchical path quality.
//!
//! ```sh
//! cargo run --release -p son-bench --bin dims             # 250-proxy world
//! cargo run --release -p son-bench --bin dims -- --quick  # 60-proxy world
//! ```

use son_bench::environment_for;
use son_core::{ServiceOverlay, SonConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let proxies = if quick { 60 } else { 250 };
    let requests = if quick { 50 } else { 300 };

    println!("Distance-map precision and routing quality by coordinate dimension");
    println!("(overlay of {proxies} proxies, {requests} requests, seed-fixed)");
    println!(
        "{:>5} {:>12} {:>12} {:>10} {:>12} {:>14}",
        "k", "err-median", "err-p90", "clusters", "hfc-agg", "hfc-full"
    );
    for dims in 1..=5 {
        let mut config = SonConfig::from_environment(environment_for(proxies, 42));
        config.embedding.dims = dims;
        let overlay = ServiceOverlay::build(&config);
        let router = overlay.hier_router();
        let batch = overlay.generate_requests(requests, 7);
        let (mut agg, mut full, mut n) = (0.0, 0.0, 0);
        for request in &batch {
            let (Ok(h), Ok(f)) = (
                router.route(request),
                router.route_without_aggregation(request),
            ) else {
                continue;
            };
            agg += overlay.true_length(&h.path);
            full += overlay.true_length(&f);
            n += 1;
        }
        let err = overlay.embedding_error();
        println!(
            "{:>5} {:>11.1}% {:>11.1}% {:>10} {:>12.1} {:>14.1}",
            dims,
            err.median * 100.0,
            err.p90 * 100.0,
            overlay.stats().clusters,
            agg / n.max(1) as f64,
            full / n.max(1) as f64,
        );
    }
    println!(
        "\nThe paper runs everything in 2-D; higher dimensions buy little\n\
         precision on transit-stub delays while 1-D visibly hurts."
    );
}
