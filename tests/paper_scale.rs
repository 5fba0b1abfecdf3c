//! Paper-scale end-to-end smoke test (Table 1's smallest row). Run it
//! explicitly — it takes seconds in release and minutes in debug:
//!
//! ```sh
//! cargo test --release -p son-core --test paper_scale -- --ignored
//! ```

use son_core::{OverheadKind, ServiceOverlay, SonConfig};

#[test]
#[ignore = "paper-scale; run with --release --ignored"]
fn table1_smallest_row_end_to_end() {
    let overlay = ServiceOverlay::build(&SonConfig::table1(250, 1));
    assert_eq!(overlay.proxy_count(), 250);
    assert!(overlay.hfc().cluster_count() > 5);
    assert!(
        overlay.embedding_error().median < 0.4,
        "{:?}",
        overlay.embedding_error()
    );

    let report = overlay.run_state_protocol();
    assert!(report.converged, "{report:?}");

    let (flat, hfc) = overlay.overhead(OverheadKind::Coordinates);
    assert!(hfc.mean < flat.mean * 0.7);

    let router = overlay.hier_router();
    let mesh = overlay.build_mesh();
    let requests = overlay.generate_client_requests(100, 7);
    let (mut hier_total, mut mesh_total, mut compared) = (0.0, 0.0, 0);
    for request in &requests {
        let (Ok(h), Ok(m)) = (router.route(request), overlay.route_mesh(&mesh, request)) else {
            continue;
        };
        h.path
            .validate(request, |p, s| overlay.carries(p, s))
            .unwrap();
        hier_total += overlay.true_length(&h.path);
        mesh_total += overlay.true_length(&m);
        compared += 1;
    }
    assert!(compared > 60, "only {compared}/100 comparable");
    assert!(
        hier_total < mesh_total,
        "paper headline: HFC ({hier_total:.0}) beats mesh ({mesh_total:.0}) at scale"
    );
}
