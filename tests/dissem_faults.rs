//! Property: tree-based dissemination is as survivable as flooding —
//! any survivable fault plan (i.i.d. loss up to 30%, duplication,
//! jitter, a temporary partition of one whole cluster, and a
//! crash/restart) converges with zero stale entries, identical seeds
//! replay identical event digests, and the tree run is strictly
//! cheaper than flooding over the same world and plan. A second
//! property aims every fault at one tree edge, where the row deltas
//! and their acknowledgements travel.

use proptest::prelude::*;
use son_core::{
    ClusterId, Clustering, DelayMatrix, DissemMode, FaultPlan, HfcTopology, NodeId, ProtocolConfig,
    ProxyId, ServiceId, ServiceSet, SimTime, StateProtocol, StateReport,
};

/// `clusters` planted communities of `size` proxies on a line, `gap`
/// ms apart inside a cluster — with a 4 ms gap the same world
/// `tests/state_faults.rs` uses for the flooding baseline.
fn world(clusters: usize, size: usize, gap: f64) -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
    let n = clusters * size;
    let pos: Vec<f64> = (0..n)
        .map(|i| (i / size) as f64 * 300.0 + (i % size) as f64 * gap)
        .collect();
    let mut values = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            values[i * n + j] = (pos[i] - pos[j]).abs();
        }
    }
    let delays = DelayMatrix::from_values(n, values);
    let labels: Vec<usize> = (0..n).map(|i| i / size).collect();
    let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
    let services: Vec<ServiceSet> = (0..n)
        .map(|i| ServiceSet::from_iter([ServiceId::new(i % 7), ServiceId::new(7 + i % 5)]))
        .collect();
    (hfc, delays, services)
}

fn protocol_in(clusters: usize, size: usize, gap: f64, mode: DissemMode) -> StateProtocol {
    let (hfc, delays, services) = world(clusters, size, gap);
    let config = ProtocolConfig {
        mode,
        ..ProtocolConfig::resilient()
    };
    StateProtocol::new(&hfc, services, &delays, config)
}

fn run_plan(
    clusters: usize,
    size: usize,
    mode: DissemMode,
    plan: FaultPlan,
    deadline_ms: f64,
) -> (StateReport, StateProtocol) {
    let mut protocol = protocol_in(clusters, size, 4.0, mode);
    protocol.install_faults(plan);
    let report = protocol.run_until_converged(SimTime::from_ms(deadline_ms));
    (report, protocol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]
    #[test]
    fn tree_mode_survives_any_survivable_plan(
        shape in (2usize..5, 3usize..6),
        loss in 0.0f64..0.3,
        duplicate in 0.0f64..0.1,
        jitter_ms in 0.0f64..2.0,
        seed in 0u64..1_000_000,
        disruption in (0usize..1000, 10.0f64..120.0, 10.0f64..150.0),
    ) {
        let (clusters, size) = shape;
        let (crash_pick, partition_start, partition_len) = disruption;
        let n = clusters * size;
        // Cluster 0 is cut off for a bounded window — never permanent.
        let island: Vec<NodeId> = (0..size).map(NodeId::new).collect();
        // Any proxy may crash — tree roots and interior relays
        // included; it always comes back 40ms later.
        let victim = NodeId::new(crash_pick % n);
        let crash_at = 30.0 + (crash_pick % 50) as f64;
        let mut plan = FaultPlan::new(seed)
            .with_duplicate(duplicate)
            .with_partition(
                SimTime::from_ms(partition_start),
                SimTime::from_ms(partition_start + partition_len),
                island,
            )
            .with_crash(
                victim,
                SimTime::from_ms(crash_at),
                Some(SimTime::from_ms(crash_at + 40.0)),
            );
        if loss > 0.0 {
            plan = plan.with_loss(loss);
        }
        if jitter_ms > 0.0 {
            plan = plan.with_jitter_ms(jitter_ms);
        }
        let (report, protocol) = run_plan(clusters, size, DissemMode::Tree, plan, 30_000.0);
        prop_assert!(report.converged, "{report:?}");
        prop_assert_eq!(report.stale_entries, 0);
        prop_assert_eq!(report.crashed_proxies, 0);
        prop_assert_eq!(report.local_messages, 0, "tree mode must not flood");
        // The restarted proxy relearned its whole cluster through the
        // tree (or a repair, if its parent was slow to come back).
        let (sctp, sctc) = protocol.tables_of(ProxyId::new(victim.index()));
        prop_assert_eq!(sctp.len(), size);
        prop_assert_eq!(sctc.len(), clusters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn identical_seeds_reproduce_identical_tree_traces(
        seed in 0u64..1_000_000,
        loss in 0.0f64..0.3,
    ) {
        let plan = || {
            let mut p = FaultPlan::new(seed)
                .with_duplicate(0.05)
                .with_jitter_ms(1.0)
                .with_crash(
                    NodeId::new(2),
                    SimTime::from_ms(40.0),
                    Some(SimTime::from_ms(80.0)),
                );
            if loss > 0.0 {
                p = p.with_loss(loss);
            }
            p
        };
        let (a, _) = run_plan(3, 4, DissemMode::Tree, plan(), 30_000.0);
        let (b, _) = run_plan(3, 4, DissemMode::Tree, plan(), 30_000.0);
        prop_assert_eq!(a, b);
        // A perturbed seed must not replay the same digest (the world
        // is identical, only the fault RNG differs).
        if loss > 0.0 {
            let (c, _) = run_plan(3, 4, DissemMode::Tree, plan().with_seed(seed + 1), 30_000.0);
            prop_assert_ne!(a.trace_hash, c.trace_hash);
        }
    }
}

/// Not a property — a deterministic apples-to-apples count: over the
/// identical fault-free world, the tree run converges on strictly
/// fewer sends than flooding.
#[test]
fn tree_is_cheaper_than_flooding_on_the_same_world() {
    let run = |mode| {
        let (report, _) = run_plan(3, 8, mode, FaultPlan::new(7), 30_000.0);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.stale_entries, 0);
        report
    };
    let flooding = run(DissemMode::Flooding);
    let tree = run(DissemMode::Tree);
    assert!(
        tree.messages_sent() < flooding.messages_sent(),
        "tree {} vs flooding {}",
        tree.messages_sent(),
        flooding.messages_sent()
    );
    assert!(tree.tree_suppressed > 0, "suppression must be accounted");
}

/// Faults aimed at one tree edge — cluster 0's root and its first
/// child, `gap` ms apart: each end crashes and restarts, at different
/// times; every message may be duplicated with jitter of `jitter` edge
/// delays, so syncs and their acknowledgements overtake each other; and
/// the child is cut off for a while that heals mid-run. Crash windows
/// are (start, length) in ms; the child's starts after the parent's.
fn edge_plan(
    parent: NodeId,
    child: NodeId,
    (seed, loss, duplicate): (u64, f64, f64),
    (gap, jitter): (f64, f64),
    (parent_at, parent_for): (f64, f64),
    (child_later, child_down_for): (f64, f64),
    cut: (f64, f64),
) -> FaultPlan {
    let child_at = parent_at + child_later;
    let mut plan = FaultPlan::new(seed)
        .with_duplicate(duplicate)
        .with_jitter_ms(jitter * gap)
        .with_crash(
            parent,
            SimTime::from_ms(parent_at),
            Some(SimTime::from_ms(parent_at + parent_for)),
        )
        .with_crash(
            child,
            SimTime::from_ms(child_at),
            Some(SimTime::from_ms(child_at + child_down_for)),
        )
        .with_partition(
            SimTime::from_ms(cut.0),
            SimTime::from_ms(cut.0 + cut.1),
            vec![child],
        );
    if loss > 0.0 {
        plan = plan.with_loss(loss);
    }
    plan
}

/// Runs `plan`, built from the edge between cluster 0's tree root and
/// its first child, over the world in `mode`.
fn run_edge(
    (clusters, size, gap): (usize, usize, f64),
    mode: DissemMode,
    plan: impl Fn(NodeId, NodeId) -> FaultPlan,
) -> StateReport {
    let edge = protocol_in(clusters, size, gap, DissemMode::Tree);
    let forest = edge.forest().expect("tree mode");
    let parent = forest.root_of(ClusterId::new(0));
    let child = forest.children_of(parent)[0];
    let mut protocol = protocol_in(clusters, size, gap, mode);
    protocol.install_faults(plan(
        NodeId::new(parent.index()),
        NodeId::new(child.index()),
    ));
    protocol.run_until_converged(SimTime::from_ms(30_000.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn one_tree_edge_survives_restarts_reordering_and_a_healed_cut(
        clusters in 3usize..6,
        size in 2usize..7,
        gap in 1.0f64..8.0,
        jitter in 1.0f64..3.0,
        faults in (0u64..1_000_000, 0.0f64..0.2, 0.05f64..0.3),
        parent_down in (5.0f64..120.0, 1.0f64..80.0),
        child_down in (5.0f64..150.0, 1.0f64..80.0),
        cut in (0.0f64..150.0, 10.0f64..120.0),
    ) {
        let plan = |parent, child| {
            edge_plan(parent, child, faults, (gap, jitter), parent_down, child_down, cut)
        };
        let world = (clusters, size, gap);
        let tree = run_edge(world, DissemMode::Tree, plan);
        prop_assert!(tree.converged, "{tree:?}");
        prop_assert_eq!(tree.stale_entries, 0);
        prop_assert_eq!(tree.crashed_proxies, 0);
        prop_assert!(tree.messages_duplicated > 0, "duplication must bite");
        prop_assert_eq!(run_edge(world, DissemMode::Tree, plan), tree);
        let flooding = run_edge(world, DissemMode::Flooding, plan);
        prop_assert!(flooding.converged, "{flooding:?}");
        prop_assert!(
            tree.messages_sent() < flooding.messages_sent(),
            "tree {} vs flooding {}",
            tree.messages_sent(),
            flooding.messages_sent()
        );
    }
}

/// One fixed draw of the property above, pinned whole — rows shipped
/// included — so a change to how acknowledgements merge, or to how far
/// back a delta reaches, shows up even where it changes no table.
#[test]
fn one_tree_edge_digest_is_pinned() {
    let faults = (7, 0.1, 0.2);
    let plan = |parent, child| {
        edge_plan(
            parent,
            child,
            faults,
            (4.0, 2.0),
            (40.0, 60.0),
            (30.0, 50.0),
            (20.0, 100.0),
        )
    };
    let report = run_edge((4, 5, 4.0), DissemMode::Tree, plan);
    assert_eq!(
        report,
        StateReport {
            converged: true,
            stale_entries: 0,
            crashed_proxies: 0,
            ended_at: SimTime::from_ms(1_000.0),
            messages_delivered: 1_502,
            messages_dropped: 176,
            local_messages: 0,
            aggregate_messages: 338,
            messages_duplicated: 273,
            stale_ignored: 10,
            refresh_rounds: 495,
            tree_messages: 1_259,
            rows_sent: 662,
            tree_suppressed: 5_082,
            tree_repairs: 0,
            trace_hash: 0xe20f_2e95_e6b9_ab35,
        }
    );
}
