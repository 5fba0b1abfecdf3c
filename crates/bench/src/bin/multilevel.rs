//! Three-level hierarchy overhead — how much further the Figure 9
//! curves drop with superclusters of clusters (state aggregation only;
//! routing stays bi-level as in the paper).
//!
//! ```sh
//! cargo run --release -p son-bench --bin multilevel
//! cargo run --release -p son-bench --bin multilevel -- --quick
//! ```

use son_bench::environment_for;
use son_core::{Hierarchy, HierarchyConfig, OverheadKind, ServiceOverlay, SonConfig, ZahnConfig};

/// The depth-3 hierarchy over `overlay`: clusters grouped again by the
/// Zahn method over cluster-representative distances.
fn superclusters(overlay: &ServiceOverlay) -> Hierarchy {
    let config = HierarchyConfig {
        zahn: ZahnConfig {
            min_cluster_size: 2,
            ..ZahnConfig::default()
        },
        ..HierarchyConfig::default()
    };
    Hierarchy::build_with_depth(overlay.hfc(), overlay.predicted_delays(), &config, 3)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[60, 120]
    } else {
        &[250, 500, 750, 1000]
    };

    println!("Per-proxy node-states: flat vs bi-level HFC vs three-level HFC");
    println!(
        "{:>8} {:>7} {:>7} | {:>8} {:>9} {:>9} | {:>8} {:>9} {:>9}",
        "proxies", "clstrs", "supers", "flat-c", "2lvl-c", "3lvl-c", "flat-s", "2lvl-s", "3lvl-s"
    );
    for &proxies in sizes {
        let overlay =
            ServiceOverlay::build(&SonConfig::from_environment(environment_for(proxies, 42)));
        let hierarchy = superclusters(&overlay);
        let (flat_c, two_c) = overlay.overhead(OverheadKind::Coordinates);
        let (flat_s, two_s) = overlay.overhead(OverheadKind::ServiceCapability);
        let (three_c, three_s) = hierarchy.mean_overheads(overlay.hfc());
        println!(
            "{:>8} {:>7} {:>7} | {:>8.0} {:>9.1} {:>9.1} | {:>8.0} {:>9.1} {:>9.1}",
            proxies,
            overlay.hfc().cluster_count(),
            hierarchy.unit_count(2),
            flat_c.mean,
            two_c.mean,
            three_c,
            flat_s.mean,
            two_s.mean,
            three_s
        );
    }
    println!(
        "\nThe third level trades global border visibility for supercluster\n\
         borders: coordinate state shrinks further the more clusters the\n\
         bi-level design had to expose globally."
    );

    // Path-quality price of the extra level, at the smallest size.
    let proxies = sizes[0];
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment_for(proxies, 42)));
    let hierarchy = superclusters(&overlay);
    let two = overlay.hier_router();
    let three = overlay.multilevel_router(&hierarchy);
    let batch = overlay.generate_client_requests(200, 7);
    let (mut l2, mut l3, mut n) = (0.0, 0.0, 0);
    for request in &batch {
        let (Ok(a), Ok(b)) = (two.route(request), three.route(request)) else {
            continue;
        };
        l2 += overlay.true_length(&a.path);
        l3 += overlay.true_length(&b.path);
        n += 1;
    }
    println!(
        "\nrouting price at {proxies} proxies ({n} requests): \
         bi-level {:.1}ms vs three-level {:.1}ms",
        l2 / n.max(1) as f64,
        l3 / n.max(1) as f64
    );
}
