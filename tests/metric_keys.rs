//! Every subsystem's metric keys land in the global telemetry registry.
//!
//! Drives each instrumented subsystem once with telemetry on — a build,
//! a flooding and a tree state-protocol run, a cold and a warm `serve`
//! with the flight recorder on, and an admission batch with a live
//! `Down` — then checks that the registry's snapshot (the keys
//! `son --metrics <path>` writes) holds every key below. Its own test
//! binary, because it switches on the process-wide registry and flight
//! recorder.

use son_core::{
    flight, render_prometheus, set_telemetry_enabled, telemetry, AdmissionConfig, DissemMode,
    EngineConfig, Environment, FaultPlan, Health, NodeId, ProtocolConfig, ServiceOverlay, SimTime,
    SonConfig, StateProtocol,
};

/// Keys that must appear in the snapshot. A key ending in `=` names a
/// labelled family and matches any of its members.
const KEYS: [&str; 22] = [
    // serving, cold and warm
    "engine.cache.hits",
    "engine.cache.csp_hits",
    "engine.cache.stale_served",
    "engine.serve_us{worker=",
    // build
    "span.build.topology_us",
    // state protocol, both modes
    "state.local_sent",
    "netsim.messages_delivered",
    "state.tree.sent",
    "state.tree.suppressed",
    "state.tree.repairs",
    "state.tree.depth",
    "state.tree.rows_sent",
    // flight recorder
    "flight.events",
    "flight.dropped",
    // admission
    "engine.admission.optimal",
    "engine.admission.degraded",
    "engine.admission.rejected",
    "engine.admission.rejected_no_ingress",
    "engine.admission.rejected_overloaded",
    "engine.admission.rejected_unroutable",
    "engine.admission.retries",
    "engine.admission.health_drops",
];

#[test]
fn every_subsystem_publishes_its_metric_keys() {
    set_telemetry_enabled(true);
    flight().set_enabled(true);
    let registry = telemetry();

    let overlay = ServiceOverlay::build(&SonConfig::from_environment(Environment::scaled(60, 42)));
    let n = overlay.proxy_count();

    // Flooding, then tree dissemination under loss, duplication, jitter
    // and a crash/restart.
    let flooding = overlay.run_state_protocol();
    assert!(flooding.converged, "{flooding:?}");
    let mut protocol = StateProtocol::new(
        overlay.hfc(),
        overlay.services().to_vec(),
        overlay.true_delays(),
        ProtocolConfig {
            mode: DissemMode::Tree,
            ..ProtocolConfig::resilient()
        },
    );
    protocol.install_faults(
        FaultPlan::new(42)
            .with_loss(0.05)
            .with_duplicate(0.02)
            .with_jitter_ms(1.0)
            .with_crash(
                NodeId::new(n - 1),
                SimTime::from_ms(50.0),
                Some(SimTime::from_ms(120.0)),
            ),
    );
    let tree = protocol.run_until_converged(SimTime::from_ms(60_000.0));
    assert!(tree.converged && tree.stale_entries == 0, "{tree:?}");
    for key in [
        "state.tree.sent",
        "state.tree.suppressed",
        "state.tree.rows_sent",
    ] {
        assert!(registry.counter(key).get() > 0, "{key} did not move");
    }
    assert!(registry.gauge("state.tree.depth").get() >= 1.0);

    // A cold and a warm batch with the flight recorder on.
    let engine = overlay.engine(EngineConfig::default());
    let batch = overlay.generate_client_requests(32, 42 ^ 0xF00D);
    let cold = engine.serve(&batch);
    let warm = engine.serve(&batch);
    assert_eq!(warm.paths, cold.paths);
    assert!(warm.report.cache.hits > 0, "{:?}", warm.report.cache);

    // Admission on, then one provider hop taken Down live.
    let admitting = overlay.engine(EngineConfig {
        admission: AdmissionConfig {
            enabled: true,
            ..AdmissionConfig::default()
        },
        ..EngineConfig::default()
    });
    let before = admitting.serve(&batch);
    let victim = before
        .paths
        .iter()
        .filter_map(|p| p.as_ref().ok())
        .flat_map(|p| p.hops())
        .filter(|h| h.service.is_some())
        .map(|h| h.proxy)
        .find(|&p| batch.iter().all(|r| r.source != p && r.destination != p))
        .expect("some provider hop is nobody's endpoint");
    admitting.set_health(victim, Health::Down);
    let after = admitting.serve(&batch);
    assert!(after.report.admission.health_drops > 0, "{after:?}");

    flight().publish(registry);
    assert_eq!(registry.gauge("flight.dropped").get(), 0.0);

    let exported: Vec<String> = registry
        .snapshot()
        .iter()
        .map(|(key, _)| key.render())
        .collect();
    for key in KEYS {
        let found = if key.ends_with('=') {
            exported.iter().any(|k| k.starts_with(key))
        } else {
            exported.iter().any(|k| k == key)
        };
        assert!(found, "{key} is missing from the registry snapshot");
    }
    assert!(!render_prometheus(registry).is_empty());
}
