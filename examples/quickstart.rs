//! Quickstart: build a clustered service overlay and route a request.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use son_core::{OverheadKind, RouteError, ServiceOverlay, SonConfig};

fn main() {
    // A small world: 120 physical nodes, 60 proxies, 8 landmarks.
    let config = SonConfig::small(42);
    let overlay = ServiceOverlay::build(&config);
    let stats = overlay.stats();

    println!("== overlay ==");
    println!("physical nodes : {}", overlay.physical().len());
    println!("proxies        : {}", overlay.proxy_count());
    println!("clusters       : {}", stats.clusters);
    println!("border proxies : {}", stats.border_proxies);
    let error = overlay.embedding_error();
    println!(
        "embedding error: median {:.1}% (p90 {:.1}%)",
        error.median * 100.0,
        error.p90 * 100.0
    );

    // Converge the distributed state protocol.
    let report = overlay.run_state_protocol();
    println!("\n== state protocol ==");
    println!("converged      : {}", report.converged);
    println!("ended at       : {}", report.ended_at);
    println!(
        "messages       : {} local + {} aggregate",
        report.local_messages, report.aggregate_messages
    );

    // State overhead vs. a flat overlay (the paper's Figure 9).
    let (flat_c, hfc_c) = overlay.overhead(OverheadKind::Coordinates);
    let (flat_s, hfc_s) = overlay.overhead(OverheadKind::ServiceCapability);
    println!("\n== per-proxy node-states (flat vs HFC) ==");
    println!("coordinates    : {:.0} vs {:.1}", flat_c.mean, hfc_c.mean);
    println!("capabilities   : {:.0} vs {:.1}", flat_s.mean, hfc_s.mean);

    // Route requests hierarchically and against the mesh baseline.
    let router = overlay.hier_router();
    let mesh = overlay.build_mesh();
    let requests = overlay.generate_requests(10, 7);
    println!("\n== routing ==");
    for (i, request) in requests.iter().enumerate() {
        match router.route(request) {
            Ok(route) => {
                route
                    .path
                    .validate(request, |p, s| overlay.carries(p, s))
                    .expect("hierarchical paths are feasible");
                let hier_len = overlay.true_length(&route.path);
                let mesh_len = overlay
                    .route_mesh(&mesh, request)
                    .map(|p| overlay.true_length(&p))
                    .unwrap_or(f64::NAN);
                println!(
                    "request {i}: {} services, {} child requests, \
                     HFC {hier_len:.1}ms vs mesh {mesh_len:.1}ms",
                    request.graph.len(),
                    route.child_count,
                );
            }
            Err(RouteError::NoProvider(s)) => {
                println!("request {i}: service {s} unavailable anywhere — rejected");
            }
            Err(e) => println!("request {i}: {e}"),
        }
    }
}
