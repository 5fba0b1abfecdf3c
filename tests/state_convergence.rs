//! Integration: the state distribution protocol on realistically built
//! overlays (not hand-crafted clusters).

use son_core::{
    Environment, FaultPlan, NodeId, ProtocolConfig, ProxyId, ServiceOverlay, SimTime, SonConfig,
    StateProtocol, StateReport,
};

#[test]
fn protocol_converges_on_generated_overlays() {
    for seed in [51u64, 52] {
        let overlay = ServiceOverlay::build(&SonConfig::small(seed));
        let report = overlay.run_state_protocol();
        assert!(report.converged, "seed {seed}: {report:?}");
        assert!(report.ended_at > SimTime::ZERO);
    }
}

#[test]
fn message_cost_scales_with_cluster_sizes_not_n_squared() {
    // Local state messages per round are Σ |C_i|·(|C_i|−1), which for
    // balanced clusters is far below n(n−1) (the flat flooding cost).
    let overlay = ServiceOverlay::build(&SonConfig::small(53));
    let report = overlay.run_state_protocol();
    assert!(report.converged);
    let n = overlay.proxy_count() as u64;
    let rounds = overlay.config().protocol.rounds as u64;
    let flat_flood = n * (n - 1) * rounds;
    assert!(
        report.local_messages < flat_flood,
        "local messages {} should undercut flat flooding {}",
        report.local_messages,
        flat_flood
    );
}

#[test]
fn converged_tables_drive_identical_routing() {
    // Routing from protocol-converged tables must equal routing from
    // statically constructed tables.
    let overlay = ServiceOverlay::build(&SonConfig::small(54));
    let mut protocol = StateProtocol::new(
        overlay.hfc(),
        overlay.services().to_vec(),
        overlay.true_delays(),
        ProtocolConfig::default(),
    );
    let report = protocol.run_to_quiescence();
    assert!(report.converged);

    // Per-cluster tables extracted from any member agree.
    for cluster in overlay.hfc().clusters() {
        let members = overlay.hfc().members(cluster);
        let (first_sctp, first_sctc) = protocol.tables_of(members[0]);
        for &m in &members[1..] {
            let (sctp, sctc) = protocol.tables_of(m);
            assert_eq!(sctp, first_sctp, "SCT_P divergence inside {cluster}");
            assert_eq!(sctc, first_sctc, "SCT_C divergence inside {cluster}");
        }
    }

    // And the tables describe exactly the installed services.
    for cluster in overlay.hfc().clusters() {
        let probe = overlay.hfc().members(cluster)[0];
        let (sctp, _) = protocol.tables_of(probe);
        for &m in overlay.hfc().members(cluster) {
            assert_eq!(
                sctp.services_of(m),
                Some(&overlay.services()[m.index()]),
                "wrong capability entry for {m}"
            );
        }
    }
    let _ = ProxyId::new(0); // silence unused-import pedantry if members empty
}

/// Runs one protocol cell over the Table 1 world of `proxies` proxies
/// (seed 42, one build thread — the benchmark's `churn_admit` world at
/// 500) to convergence. `plan` sees the protocol so it can aim faults
/// at tree roots.
fn pinned_cell(
    proxies: usize,
    config: ProtocolConfig,
    plan: impl FnOnce(&ServiceOverlay, &StateProtocol) -> FaultPlan,
) -> StateReport {
    let overlay = ServiceOverlay::build(&SonConfig {
        threads: 1,
        ..SonConfig::from_environment(Environment::table1(proxies, 42))
    });
    let mut protocol = StateProtocol::new(
        overlay.hfc(),
        overlay.services().to_vec(),
        overlay.predicted_delays(),
        config,
    );
    let plan = plan(&overlay, &protocol);
    protocol.install_faults(plan);
    protocol.run_until_converged(SimTime::from_ms(60_000.0))
}

/// A converged report with nothing crashed; the cells below fill in
/// what the parent commit counted.
const CONVERGED: StateReport = StateReport {
    converged: true,
    stale_entries: 0,
    crashed_proxies: 0,
    ended_at: SimTime::ZERO,
    messages_delivered: 0,
    messages_dropped: 0,
    local_messages: 0,
    aggregate_messages: 0,
    messages_duplicated: 0,
    stale_ignored: 0,
    refresh_rounds: 0,
    tree_messages: 0,
    tree_suppressed: 0,
    tree_repairs: 0,
    trace_hash: 0,
};

// The three digests below pin the protocol bit for bit: every counter,
// the simulated end time and the event-trace hash were read off the
// commit *before* service sets became shared slices and tree messages
// shared row batches, so a change to what is sent, when, or how a
// version guard fires shows up here as a diff, not as a slowdown.

#[test]
fn tree_digest_of_the_benchmark_cell_is_pinned() {
    let report = pinned_cell(500, ProtocolConfig::tree(), |_, _| {
        FaultPlan::new(42).with_loss(0.05)
    });
    assert_eq!(
        report,
        StateReport {
            ended_at: SimTime::from_ms(440.0),
            messages_delivered: 151_703,
            messages_dropped: 8_314,
            local_messages: 0,
            aggregate_messages: 30_693,
            messages_duplicated: 0,
            stale_ignored: 52_795,
            refresh_rounds: 5_500,
            tree_messages: 134_314,
            tree_suppressed: 5_351_016,
            tree_repairs: 0,
            trace_hash: 0xa956_3de5_df7c_b214,
            ..CONVERGED
        }
    );
}

#[test]
fn flooding_digest_under_duplication_jitter_and_loss_is_pinned() {
    let report = pinned_cell(250, ProtocolConfig::resilient(), |_, _| {
        FaultPlan::new(42)
            .with_loss(0.05)
            .with_duplicate(0.02)
            .with_jitter_ms(1.0)
    });
    assert_eq!(
        report,
        StateReport {
            ended_at: SimTime::from_ms(200.0),
            messages_delivered: 380_596,
            messages_dropped: 26_873,
            local_messages: 48_576,
            aggregate_messages: 486_458,
            messages_duplicated: 10_198,
            stale_ignored: 96_567,
            refresh_rounds: 1_250,
            tree_messages: 0,
            tree_suppressed: 0,
            tree_repairs: 0,
            trace_hash: 0x48df_d6f9_6ec5_0e25,
            ..CONVERGED
        }
    );
}

#[test]
fn tree_digest_through_a_root_restart_and_a_healed_partition_is_pinned() {
    let report = pinned_cell(250, ProtocolConfig::tree(), |overlay, protocol| {
        // The largest cluster's tree root goes down for 300 ms — long
        // enough for its children to enter repair — while the smallest
        // multi-member cluster is cut off for the first 150 ms.
        let hfc = overlay.hfc();
        let by_size = |c: &son_core::ClusterId| hfc.members(*c).len();
        let largest = hfc.clusters().max_by_key(by_size).expect("clusters");
        let island = hfc
            .clusters()
            .filter(|c| *c != largest && by_size(c) > 1)
            .min_by_key(by_size)
            .expect("a second multi-member cluster");
        let root = protocol.forest().expect("tree mode").root_of(largest);
        FaultPlan::new(42)
            .with_loss(0.05)
            .with_crash(
                NodeId::new(root.index()),
                SimTime::from_ms(50.0),
                Some(SimTime::from_ms(350.0)),
            )
            .with_partition(
                SimTime::ZERO,
                SimTime::from_ms(150.0),
                hfc.members(island)
                    .iter()
                    .map(|p| NodeId::new(p.index()))
                    .collect(),
            )
    });
    assert_eq!(
        report,
        StateReport {
            ended_at: SimTime::from_ms(520.0),
            messages_delivered: 47_277,
            messages_dropped: 3_182,
            local_messages: 0,
            aggregate_messages: 11_552,
            messages_duplicated: 0,
            stale_ignored: 28_853,
            refresh_rounds: 3_242,
            tree_messages: 40_667,
            tree_suppressed: 1_488_000,
            tree_repairs: 4,
            trace_hash: 0x67d7_ce45_77cf_a9bd,
            ..CONVERGED
        }
    );
}
