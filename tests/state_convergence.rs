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

/// One protocol cell over the Table 1 world of `proxies` proxies (seed
/// 42, one build thread — the benchmark's `churn_admit` world at 500),
/// ready to run. `plan` sees the protocol so it can aim faults at tree
/// roots.
fn pinned_protocol(
    proxies: usize,
    config: ProtocolConfig,
    plan: impl FnOnce(&ServiceOverlay, &StateProtocol) -> FaultPlan,
) -> StateProtocol {
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
    protocol
}

/// [`pinned_protocol`] run to convergence.
fn pinned_cell(
    proxies: usize,
    config: ProtocolConfig,
    plan: impl FnOnce(&ServiceOverlay, &StateProtocol) -> FaultPlan,
) -> StateReport {
    pinned_protocol(proxies, config, plan).run_until_converged(SimTime::from_ms(60_000.0))
}

/// A fault plan aimed at a built overlay and its protocol.
type Plan = fn(&ServiceOverlay, &StateProtocol) -> FaultPlan;

/// The benchmark's plan: 5 % loss.
fn lossy(_: &ServiceOverlay, _: &StateProtocol) -> FaultPlan {
    FaultPlan::new(42).with_loss(0.05)
}

/// 5 % loss, the largest cluster's tree root down for 300 ms — long
/// enough for its children to enter repair — and the smallest
/// multi-member cluster cut off for the first 150 ms.
fn root_restart_and_healed_partition(
    overlay: &ServiceOverlay,
    protocol: &StateProtocol,
) -> FaultPlan {
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
    rows_sent: 0,
    tree_suppressed: 0,
    tree_repairs: 0,
    trace_hash: 0,
};

// The three digests below pin the protocol bit for bit: every counter,
// the simulated end time and the event-trace hash, so a change to what
// is sent, when, or how a version guard fires shows up here as a diff,
// not as a slowdown. The flooding one was read off the commit before
// service sets became shared slices; the two tree ones off the commit
// that made tree messages rate-limited, acknowledged row deltas.

/// When the benchmark cell converges, in simulated ms.
const ENDED_BENCHMARK_CELL_MS: f64 = 360.0;

#[test]
fn tree_digest_of_the_benchmark_cell_is_pinned() {
    let report = pinned_cell(500, ProtocolConfig::tree(), lossy);
    assert_eq!(
        report,
        StateReport {
            ended_at: SimTime::from_ms(ENDED_BENCHMARK_CELL_MS),
            messages_delivered: 70_964,
            messages_dropped: 3_999,
            local_messages: 0,
            aggregate_messages: 16_937,
            messages_duplicated: 0,
            stale_ignored: 1,
            refresh_rounds: 4_500,
            tree_messages: 63_027,
            rows_sent: 139_909,
            tree_suppressed: 4_126_825,
            tree_repairs: 0,
            trace_hash: 0xbc97_01d2_4be3_2002,
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

/// When the root-restart cell converges, in simulated ms.
const ENDED_AFTER_RESTART_MS: f64 = 480.0;

#[test]
fn tree_digest_through_a_root_restart_and_a_healed_partition_is_pinned() {
    let report = pinned_cell(
        250,
        ProtocolConfig::tree(),
        root_restart_and_healed_partition,
    );
    assert_eq!(
        report,
        StateReport {
            ended_at: SimTime::from_ms(ENDED_AFTER_RESTART_MS),
            messages_delivered: 28_479,
            messages_dropped: 1_956,
            local_messages: 0,
            aggregate_messages: 7_555,
            messages_duplicated: 0,
            stale_ignored: 1_593,
            refresh_rounds: 2_992,
            tree_messages: 24_611,
            rows_sent: 67_473,
            tree_suppressed: 1_347_313,
            tree_repairs: 4,
            trace_hash: 0x4b17_c88e_8c85_ebe8,
            ..CONVERGED
        }
    );
}

/// `run_until_converged` re-checks only the proxies whose tables changed
/// since the previous slice. After every slice of both tree cells that
/// incremental count must equal a full check of every live proxy, and
/// the first slice it reads converged past the plan's horizon (the
/// restart at 350 ms) is the pinned end time.
#[test]
fn incremental_staleness_equals_a_full_check_after_every_slice() {
    let cells: [(usize, Plan, f64, f64); 2] = [
        (500, lossy, 0.0, ENDED_BENCHMARK_CELL_MS),
        (
            250,
            root_restart_and_healed_partition,
            350.0,
            ENDED_AFTER_RESTART_MS,
        ),
    ];
    for (proxies, plan, horizon, ended) in cells {
        let mut protocol = pinned_protocol(proxies, ProtocolConfig::tree(), plan);
        let mut at = 0.0;
        while at < ended {
            at += 40.0;
            protocol.run_until(SimTime::from_ms(at));
            let tracked = protocol.tracked_staleness();
            assert_eq!(tracked, protocol.staleness(), "{proxies} proxies, {at} ms");
            assert_eq!(
                tracked.is_converged() && at >= horizon,
                at == ended,
                "{proxies} proxies, {at} ms"
            );
        }
    }
}
