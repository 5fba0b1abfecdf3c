//! `son` — command-line front end to the service overlay framework.
//!
//! ```text
//! son build    [--proxies N] [--seed S]            build a world, print stats
//! son route    [--proxies N] [--seed S] [--requests K]
//!                                                  route K requests, print paths
//! son overhead [--proxies N] [--seed S]            Figure-9 style state report
//! son export   [--proxies N] [--seed S] [--what hfc|physical|summary]
//!                                                  emit Graphviz DOT / text
//! son protocol [--proxies N] [--seed S] [--loss P] [--rounds R]
//!                                                  run the state protocol
//! son serve    [--proxies N] [--seed S] [--requests K] [--workers W]
//!              [--router flat|hier|multilevel]      serve K requests in parallel
//! son faults   [--proxies N] [--seed S] [--loss P] [--smoke]
//!                                                  run the state protocol under a
//!                                                  seeded fault plan (loss defaults
//!                                                  to 20%, plus duplication, jitter
//!                                                  and a crash/restart); exits
//!                                                  non-zero unless it converges
//! son overload [--proxies N] [--seed S] [--requests K] [--workers W] [--smoke]
//!                                                  crash 5% of the proxies via a
//!                                                  fault plan, detect them through
//!                                                  the state protocol, then serve a
//!                                                  flash crowd with capacities and
//!                                                  admission on; exits non-zero if
//!                                                  a served path traverses a Down
//!                                                  proxy, a proxy exceeds its
//!                                                  capacity, or the degradation
//!                                                  accounting does not sum up
//! son metrics  [--proxies N] [--seed S] [--requests K] [--workers W]
//!                                                  build, serve and run the state
//!                                                  protocol with telemetry on, then
//!                                                  print the registry as
//!                                                  Prometheus-style text
//! son trace    [--proxies N] [--seed S] [--request I] [--smoke]
//!                                                  print the route-provenance trace
//!                                                  of one request, cold (cache
//!                                                  miss) and warm (cache hit)
//! son dissem   [--proxies N] [--seed S] [--loss P] [--smoke]
//!                                                  run the state protocol twice
//!                                                  under one survivable fault plan
//!                                                  — §4 flooding, then broadcast
//!                                                  trees — and compare; exits
//!                                                  non-zero unless both converge
//!                                                  with zero stale rows, the tree
//!                                                  run is cheaper, and repeated
//!                                                  tree runs reproduce the same
//!                                                  trace hash
//! son flight   [--proxies N] [--seed S] [--requests K] [--workers W]
//!              [--dump path] [--since N] [--smoke]
//!                                                  serve a batch with the flight
//!                                                  recorder on, inject a rejection
//!                                                  spike, and print per-request
//!                                                  timelines (cache verdict →
//!                                                  disposition), per-worker stage
//!                                                  timings, and the anomaly
//!                                                  snapshot the spike froze;
//!                                                  --dump writes the events as
//!                                                  JSON, --since skips sequence
//!                                                  numbers below N
//! son slo      [--proxies N] [--seed S] [--requests K] [--workers W] [--smoke]
//!                                                  serve cold+warm batches with a
//!                                                  sliding-window SLO tracker
//!                                                  attached and print each sealed
//!                                                  window's availability,
//!                                                  rejection rate, burn rate and
//!                                                  p99 against the objectives
//! son scale    [--proxies N] [--seed S] [--threads T] [--smoke]
//!                                                  build the world twice (1 thread,
//!                                                  then T), verify the snapshots are
//!                                                  identical, print per-stage wall
//!                                                  times, then route over a
//!                                                  three-level hierarchy and check
//!                                                  every path; exits non-zero on any
//!                                                  mismatch, missing build span, or
//!                                                  path-validity violation
//! ```
//!
//! Any subcommand also accepts `--metrics <path>`: telemetry is
//! enabled for the run and a JSON snapshot of every counter, gauge and
//! histogram is written to `<path>` on exit.
//!
//! Sizes 250/500/750/1000 use the paper's Table 1 environments; other
//! sizes get a proportionally scaled world.

use son_core::export::{hfc_to_dot, hfc_to_text, physical_to_dot};
use son_core::{
    AdmissionConfig, BuildStage, CostConfig, DissemMode, Engine, EngineConfig, Environment,
    FaultPlan, FlatProvider, Health, HierProvider, HierarchyConfig, MultiLevelProvider, NodeId,
    NonRepeatingWorkload, OverheadKind, ProtocolConfig, ProxyId, Router, RouterProvider, Scenario,
    ServeOutcome, ServiceId, ServiceOverlay, SimTime, SonConfig, StateProtocol,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    proxies: usize,
    seed: u64,
    requests: usize,
    what: String,
    loss: f64,
    rounds: usize,
    workers: usize,
    router: String,
    smoke: bool,
    request: usize,
    threads: usize,
    metrics: Option<std::path::PathBuf>,
    dump: Option<std::path::PathBuf>,
    since: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        proxies: 60,
        seed: 42,
        requests: 10,
        what: "summary".to_string(),
        loss: 0.0,
        rounds: 3,
        workers: 4,
        router: "hier".to_string(),
        smoke: false,
        request: 0,
        threads: 0,
        metrics: None,
        dump: None,
        since: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--proxies" => {
                args.proxies = value("--proxies")?
                    .parse()
                    .map_err(|e| format!("--proxies: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--what" => args.what = value("--what")?,
            "--rounds" => {
                args.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?
            }
            "--loss" => {
                args.loss = value("--loss")?
                    .parse()
                    .map_err(|e| format!("--loss: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--router" => args.router = value("--router")?,
            "--smoke" => args.smoke = true,
            "--request" => {
                args.request = value("--request")?
                    .parse()
                    .map_err(|e| format!("--request: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--metrics" => args.metrics = Some(value("--metrics")?.into()),
            "--dump" => args.dump = Some(value("--dump")?.into()),
            "--since" => {
                args.since = value("--since")?
                    .parse()
                    .map_err(|e| format!("--since: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn environment(proxies: usize, seed: u64) -> Environment {
    Environment::scaled(proxies, seed)
}

fn build(args: &Args) -> ServiceOverlay {
    ServiceOverlay::build(&SonConfig::from_environment(environment(
        args.proxies,
        args.seed,
    )))
}

fn cmd_build(args: &Args) {
    let overlay = build(args);
    let stats = overlay.stats();
    println!("physical nodes  : {}", overlay.physical().len());
    println!("proxies         : {}", overlay.proxy_count());
    println!("landmarks       : {}", overlay.landmarks().len());
    println!("clients         : {}", overlay.clients().len());
    println!("clusters        : {}", stats.clusters);
    println!("largest cluster : {}", stats.max_cluster_size);
    println!("border proxies  : {}", stats.border_proxies);
    println!(
        "embedding error : median {:.1}%, p90 {:.1}%",
        stats.embedding_error.median * 100.0,
        stats.embedding_error.p90 * 100.0
    );
}

fn cmd_route(args: &Args) {
    let overlay = build(args);
    let router = overlay.hier_router();
    for (i, request) in overlay
        .generate_client_requests(args.requests, args.seed ^ 0xF00D)
        .iter()
        .enumerate()
    {
        match router.route(request) {
            Ok(route) => println!(
                "#{i} {} -> {} | {} | {:.1}ms over {} clusters",
                request.source,
                request.destination,
                route.path,
                overlay.true_length(&route.path),
                route.child_count
            ),
            Err(e) => println!("#{i} {} -> {} | {e}", request.source, request.destination),
        }
    }
}

fn cmd_overhead(args: &Args) {
    let overlay = build(args);
    let (flat_c, hfc_c) = overlay.overhead(OverheadKind::Coordinates);
    let (flat_s, hfc_s) = overlay.overhead(OverheadKind::ServiceCapability);
    println!("per-proxy node-states (flat vs HFC)");
    println!(
        "coordinates : {:.0} vs {:.1} (min {}, max {})",
        flat_c.mean, hfc_c.mean, hfc_c.min, hfc_c.max
    );
    println!(
        "services    : {:.0} vs {:.1} (min {}, max {})",
        flat_s.mean, hfc_s.mean, hfc_s.min, hfc_s.max
    );
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let overlay = build(args);
    match args.what.as_str() {
        "hfc" => print!("{}", hfc_to_dot(&overlay)),
        "physical" => print!("{}", physical_to_dot(&overlay)),
        "summary" => print!("{}", hfc_to_text(&overlay)),
        other => return Err(format!("--what must be hfc|physical|summary, got {other}")),
    }
    Ok(())
}

fn cmd_protocol(args: &Args) -> Result<(), String> {
    if !(0.0..=1.0).contains(&args.loss) {
        return Err("--loss must be in [0, 1]".to_string());
    }
    let overlay = build(args);
    let mut protocol = StateProtocol::new(
        overlay.hfc(),
        overlay.services().to_vec(),
        overlay.true_delays(),
        ProtocolConfig {
            rounds: args.rounds,
            ..ProtocolConfig::default()
        },
    );
    if args.loss > 0.0 {
        protocol.inject_loss(args.loss, args.seed);
    }
    let report = protocol.run_to_quiescence();
    println!("converged : {}", report.converged);
    println!("ended at  : {}", report.ended_at);
    println!(
        "messages  : {} local, {} aggregate, {} delivered",
        report.local_messages, report.aggregate_messages, report.messages_delivered
    );
    if !report.converged && args.loss > 0.0 {
        println!(
            "hint      : lossy runs may need more retransmissions — try --rounds {}",
            args.rounds * 3
        );
    }
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    if !(0.0..=1.0).contains(&args.loss) {
        return Err("--loss must be in [0, 1]".to_string());
    }
    // Smoke mode bounds runtime for CI; either way the run must
    // converge or the process exits non-zero.
    let proxies = if args.smoke {
        args.proxies.min(60)
    } else {
        args.proxies
    };
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment(
        proxies, args.seed,
    )));
    let n = overlay.proxy_count();
    let loss = if args.loss > 0.0 { args.loss } else { 0.2 };
    // One proxy dies mid-protocol and returns with empty tables; the
    // anti-entropy refresh must re-teach it.
    let victim = NodeId::new(n - 1);
    let plan = FaultPlan::new(args.seed)
        .with_loss(loss)
        .with_duplicate(0.02)
        .with_jitter_ms(1.0)
        .with_crash(
            victim,
            SimTime::from_ms(50.0),
            Some(SimTime::from_ms(120.0)),
        );
    println!(
        "fault plan : seed {}, loss {:.0}%, dup 2%, jitter <1ms, crash p{} @50ms, restart @120ms",
        args.seed,
        loss * 100.0,
        n - 1
    );
    let report = overlay.run_state_protocol_faulty(plan, SimTime::from_ms(60_000.0));
    println!("converged  : {}", report.converged);
    println!("stale rows : {}", report.stale_entries);
    println!("ended at   : {}", report.ended_at);
    println!(
        "messages   : {} local, {} aggregate, {} delivered, {} dropped",
        report.local_messages,
        report.aggregate_messages,
        report.messages_delivered,
        report.messages_dropped
    );
    println!("trace hash : {:016x}", report.trace_hash);
    if !report.converged {
        return Err(format!(
            "state protocol failed to converge ({} stale rows)",
            report.stale_entries
        ));
    }
    Ok(())
}

fn cmd_dissem(args: &Args) -> Result<(), String> {
    if !(0.0..=1.0).contains(&args.loss) {
        return Err("--loss must be in [0, 1]".to_string());
    }
    // Telemetry on unconditionally: the `state.tree.*` keys this
    // command asserts on are part of what it verifies.
    son_core::set_telemetry_enabled(true);
    let proxies = if args.smoke {
        args.proxies.min(60)
    } else {
        args.proxies.max(250)
    };
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment(
        proxies, args.seed,
    )));
    let n = overlay.proxy_count();
    let loss = if args.loss > 0.0 { args.loss } else { 0.05 };
    // The same survivable plan `son faults` uses: loss, duplication,
    // jitter, and a crash/restart — both modes must shrug it off.
    let plan = FaultPlan::new(args.seed)
        .with_loss(loss)
        .with_duplicate(0.02)
        .with_jitter_ms(1.0)
        .with_crash(
            NodeId::new(n - 1),
            SimTime::from_ms(50.0),
            Some(SimTime::from_ms(120.0)),
        );
    println!(
        "fault plan : seed {}, loss {:.0}%, dup 2%, jitter <1ms, crash p{} @50ms, restart @120ms",
        args.seed,
        loss * 100.0,
        n - 1
    );
    let deadline = SimTime::from_ms(60_000.0);
    let run = |mode: DissemMode| {
        let mut protocol = overlay.faulty_state_protocol_in(mode, plan.clone());
        let report = protocol.run_until_converged(deadline);
        let depth = protocol.forest().map_or(0, |f| f.max_depth());
        (report, depth)
    };
    let (flooding, _) = run(DissemMode::Flooding);
    let (tree, depth) = run(DissemMode::Tree);
    for (label, r) in [("flooding", &flooding), ("tree", &tree)] {
        println!(
            "{label:<10} : converged={} stale={} sent={} ({} local, {} aggregate, {} tree) \
             ended at {}",
            r.converged,
            r.stale_entries,
            r.messages_sent(),
            r.local_messages,
            r.aggregate_messages,
            r.tree_messages,
            r.ended_at,
        );
    }
    println!(
        "tree       : depth {depth}, {} sends suppressed, {} repairs, trace {:016x}",
        tree.tree_suppressed, tree.tree_repairs, tree.trace_hash
    );
    println!(
        "reduction  : {:.1}x fewer messages than flooding",
        flooding.messages_sent() as f64 / tree.messages_sent().max(1) as f64
    );
    let (echo, _) = run(DissemMode::Tree);
    let registry = son_core::telemetry();
    for (what, ok) in [
        (
            "flooding converges with zero stale rows",
            flooding.converged && flooding.stale_entries == 0,
        ),
        (
            "tree converges with zero stale rows",
            tree.converged && tree.stale_entries == 0,
        ),
        ("tree mode floods nothing locally", tree.local_messages == 0),
        (
            "tree run is cheaper than flooding",
            tree.messages_sent() < flooding.messages_sent(),
        ),
        ("tree suppresses redundant sends", tree.tree_suppressed > 0),
        ("identical runs reproduce the trace hash", echo == tree),
        (
            "state.tree.sent counter moved",
            registry.counter("state.tree.sent").get() > 0,
        ),
        (
            "state.tree.suppressed counter moved",
            registry.counter("state.tree.suppressed").get() > 0,
        ),
        (
            "state.tree.depth gauge is set",
            registry.gauge("state.tree.depth").get() >= 1.0,
        ),
    ] {
        if !ok {
            return Err(format!("dissem invariant failed: {what}"));
        }
        println!("check      : {what} — ok");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    // Smoke mode bounds runtime for CI and runs the state protocol
    // too, so a `--metrics` snapshot carries every subsystem's
    // counters in one invocation.
    let proxies = if args.smoke {
        args.proxies.min(60)
    } else {
        args.proxies
    };
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment(
        proxies, args.seed,
    )));
    if args.smoke {
        let report = overlay.run_state_protocol();
        println!(
            "state pass : converged={} in {} ({} local, {} aggregate messages)",
            report.converged, report.ended_at, report.local_messages, report.aggregate_messages
        );
    }
    let batch = overlay.generate_client_requests(args.requests, args.seed ^ 0xF00D);
    let config = EngineConfig {
        workers: args.workers,
        ..EngineConfig::default()
    };
    // Generic over the provider so one driver serves all three routers.
    fn drive<P: RouterProvider<son_core::CoordDelays>>(
        snapshot: son_core::EngineSnapshot<son_core::CoordDelays>,
        provider: P,
        config: EngineConfig,
        batch: &[son_core::ServiceRequest],
    ) -> (ServeOutcome, ServeOutcome) {
        let engine = Engine::new(snapshot, provider, config);
        (engine.serve(batch), engine.serve(batch))
    }
    let (cold, warm) = match args.router.as_str() {
        "hier" => drive(
            overlay.engine_snapshot(),
            HierProvider {
                config: overlay.config().hier,
            },
            config,
            &batch,
        ),
        "flat" => drive(overlay.engine_snapshot(), FlatProvider, config, &batch),
        "multilevel" => {
            // The snapshot carries the recursive hierarchy; the
            // provider routes over all its levels.
            let hierarchy = Arc::new(overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3));
            drive(
                overlay.engine_snapshot_with_hierarchy(hierarchy),
                MultiLevelProvider {
                    config: overlay.config().hier,
                },
                config,
                &batch,
            )
        }
        other => {
            return Err(format!(
                "--router must be flat|hier|multilevel, got {other}"
            ))
        }
    };
    for (label, outcome) in [("cold", &cold), ("warm", &warm)] {
        let r = &outcome.report;
        println!(
            "{label} pass : {} req in {:.1}ms = {:.0} req/s | {} errors",
            r.requests,
            r.elapsed_secs * 1e3,
            r.requests_per_sec,
            r.errors,
        );
        println!(
            "  latency  : p50 {:.0}us p90 {:.0}us p99 {:.0}us",
            r.latency.p50_us, r.latency.p90_us, r.latency.p99_us
        );
        println!(
            "  cache    : {:.0}% hit ({} hits, {} misses)",
            r.cache.hit_rate() * 100.0,
            r.cache.hits,
            r.cache.misses
        );
        println!(
            "  cache v2 : csp {} hit / {} miss | stale served {} (revalidated {}) | negative {}",
            r.cache.csp_hits,
            r.cache.csp_misses,
            r.cache.stale_served,
            r.cache.revalidations,
            r.cache.negative_hits
        );
    }
    let busiest = warm.report.busiest_borders();
    print!("borders    :");
    for (proxy, load) in busiest.iter().take(5) {
        print!(" {proxy}×{load}");
    }
    println!(" ({} border proxies carried traffic)", busiest.len());

    // Smoke mode also drives the cache-v2 machinery end to end on a
    // non-repeating workload (zero exact-key reuse, so any speedup is
    // the CSP tier's) plus one churn step, and asserts the invariants
    // CI depends on.
    if args.smoke && args.router == "hier" {
        let hfc = overlay.hfc();
        let clusters: Vec<Vec<ProxyId>> = hfc.clusters().map(|c| hfc.members(c).to_vec()).collect();
        let populated = clusters.iter().filter(|c| !c.is_empty()).count();
        if populated < 2 {
            println!("cache v2   : skipped (single-cluster world)");
            return Ok(());
        }
        let chains: Vec<Vec<ServiceId>> = (0..6)
            .map(|k| vec![ServiceId::new(k), ServiceId::new(k + 1)])
            .collect();
        let shapes = 12.min(populated * (populated - 1) * chains.len());
        let mut workload =
            NonRepeatingWorkload::new(&clusters, &chains, shapes, 0.9, args.seed ^ 0xCAFE);
        let unique_batch = workload.take(200.min(workload.remaining()));
        let engine = Engine::new(
            overlay.engine_snapshot(),
            HierProvider {
                config: overlay.config().hier,
            },
            EngineConfig {
                workers: args.workers,
                stale_serve_budget: 64,
                ..EngineConfig::default()
            },
        );
        let unique = engine.serve(&unique_batch);
        // Churn: next epoch plus one live failure; the same keys are
        // now stale-serve candidates, validated against the new view.
        engine.install_snapshot(overlay.engine_snapshot());
        let victim = ProxyId::new(proxies - 1);
        engine.set_health(victim, Health::Down);
        let churned = engine.serve(&unique_batch);
        println!(
            "cache v2   : {} unique req | csp {} hit / {} miss | churn: {} stale served, {} revalidated",
            unique_batch.len(),
            unique.report.cache.csp_hits,
            unique.report.cache.csp_misses,
            churned.report.cache.stale_served,
            churned.report.cache.revalidations
        );
        let no_down_traversal = churned
            .paths
            .iter()
            .flatten()
            .all(|p| p.hops().iter().all(|h| h.proxy != victim));
        for (what, ok) in [
            (
                "non-repeating workload has zero exact-key hits",
                unique.report.cache.hits == 0,
            ),
            (
                "csp tier reuses frontiers across unique requests",
                unique.report.cache.csp_hits > 0,
            ),
            (
                "churn serves stale routes within budget",
                churned.report.cache.stale_served > 0,
            ),
            (
                "stale-served keys get revalidated",
                churned.report.cache.revalidations > 0,
            ),
            ("no served route crosses the down proxy", no_down_traversal),
        ] {
            if !ok {
                return Err(format!("serve smoke check failed: {what}"));
            }
        }
        println!("smoke checks passed");
    }
    Ok(())
}

fn cmd_overload(args: &Args) -> Result<(), String> {
    if args.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    let proxies = if args.smoke {
        args.proxies.min(60)
    } else {
        args.proxies
    };
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment(
        proxies, args.seed,
    )));
    let n = overlay.proxy_count();

    // One proxy in twenty crashes permanently; the crashes reach the
    // serving layer the honest way — the state protocol's
    // missed-refresh detector classifies every proxy from its own run.
    let mut plan = FaultPlan::new(args.seed);
    for v in (0..n).step_by(20) {
        plan = plan.with_crash(NodeId::new(v), SimTime::from_ms(150.0), None);
    }
    let mut protocol = overlay.faulty_state_protocol(plan);
    // Two simulated seconds: permanent crashes never fully converge,
    // and the missed-refresh detector is stable long before this.
    protocol.run_until_converged(SimTime::from_ms(2_000.0));
    let mut statuses = protocol.health_view();
    let capacities: Vec<u32> = (0..n).map(|p| 24 + ((p as u32 * 13) % 49)).collect();
    for (p, &cap) in capacities.iter().enumerate() {
        statuses.set_capacity(ProxyId::new(p), cap);
    }
    let down: Vec<bool> = (0..n)
        .map(|p| statuses.health(ProxyId::new(p)) == Health::Down)
        .collect();
    println!(
        "world      : {} proxies, {} crashed (detected {} Down), capacities 24..72",
        n,
        n.div_ceil(20),
        down.iter().filter(|&&d| d).count()
    );

    let engine = Engine::new(
        overlay.engine_snapshot_with(statuses, CostConfig::balanced()),
        HierProvider {
            config: overlay.config().hier,
        },
        EngineConfig {
            workers: args.workers,
            admission: AdmissionConfig {
                enabled: true,
                ..AdmissionConfig::default()
            },
            ..EngineConfig::default()
        },
    );

    // A flash crowd out of the largest cluster's live members.
    let pool = overlay.generate_requests(64, args.seed ^ 0xF00D);
    let hfc = overlay.hfc();
    let region: Vec<ProxyId> = hfc
        .clusters()
        .map(|c| hfc.members(c))
        .max_by_key(|m| m.len())
        .ok_or("overlay has no clusters")?
        .iter()
        .copied()
        .filter(|p| !down[p.index()])
        .collect();
    let baseline = args.requests.max(100);
    let scenario = Scenario::regional_surge(&pool, &region, baseline, baseline * 3, 0.9, args.seed);

    let mut total = 0u64;
    let mut optimal = 0u64;
    let mut degraded = 0u64;
    let mut rejected = 0u64;
    let mut down_traversals = 0usize;
    let mut over_capacity = 0usize;
    let mut accounting_ok = true;
    for phase in &scenario.phases {
        let outcome = engine.serve(&phase.requests);
        let a = outcome.report.admission;
        println!(
            "{:<9}: {} req | optimal {:.1}% degraded {:.1}% rejected {:.1}% \
             (no-ingress {}, overloaded {}, unroutable {}) | p99 {:.0}us, {} retries",
            phase.name,
            phase.requests.len(),
            100.0 * a.optimal as f64 / phase.requests.len() as f64,
            100.0 * a.degraded as f64 / phase.requests.len() as f64,
            100.0 * a.rejected as f64 / phase.requests.len() as f64,
            a.rejected_no_ingress,
            a.rejected_overloaded,
            a.rejected_unroutable,
            outcome.report.latency.p99_us,
            a.retries,
        );
        total += phase.requests.len() as u64;
        optimal += a.optimal;
        degraded += a.degraded;
        rejected += a.rejected;
        accounting_ok &= a.total() == phase.requests.len() as u64;
        down_traversals += outcome
            .paths
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|p| p.hops().iter())
            .filter(|h| down[h.proxy.index()])
            .count();
        over_capacity += outcome
            .report
            .admitted_load
            .iter()
            .enumerate()
            .filter(|&(p, &load)| load > capacities[p] as u64)
            .count();
    }
    println!(
        "accounting : optimal {optimal} + degraded {degraded} + rejected {rejected} \
         = {} of {total}",
        optimal + degraded + rejected
    );
    for (what, ok) in [
        (
            "degradation accounting sums to the batch sizes",
            accounting_ok && optimal + degraded + rejected == total,
        ),
        (
            "no served path traverses a Down proxy",
            down_traversals == 0,
        ),
        (
            "no proxy admitted more than its capacity",
            over_capacity == 0,
        ),
        ("some requests were served", optimal + degraded > 0),
    ] {
        if !ok {
            return Err(format!("overload invariant failed: {what}"));
        }
        println!("check      : {what} — ok");
    }
    Ok(())
}

fn cmd_metrics(args: &Args) -> Result<(), String> {
    // Exercise every instrumented subsystem — staged build, parallel
    // serving (cold + warm so cache hits register), state protocol —
    // then print whatever landed in the registry.
    let overlay = build(args);
    let engine = Engine::new(
        overlay.engine_snapshot(),
        HierProvider {
            config: overlay.config().hier,
        },
        EngineConfig {
            workers: args.workers,
            ..EngineConfig::default()
        },
    );
    let batch = overlay.generate_client_requests(args.requests, args.seed ^ 0xF00D);
    engine.serve(&batch);
    engine.serve(&batch);
    overlay.run_state_protocol();
    // Recorder totals ride along so `son metrics` carries the flight.*
    // family even when the ring itself was off for the run.
    son_core::flight().publish(son_core::telemetry());
    print!("{}", son_core::render_prometheus(son_core::telemetry()));
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let proxies = if args.smoke {
        args.proxies.min(60)
    } else {
        args.proxies
    };
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment(
        proxies, args.seed,
    )));
    let engine = Engine::new(
        overlay.engine_snapshot(),
        HierProvider {
            config: overlay.config().hier,
        },
        EngineConfig::default(),
    );
    let batch =
        overlay.generate_client_requests(args.requests.max(args.request + 1), args.seed ^ 0xF00D);
    // Smoke mode needs a routable request; interactively the user asked
    // for a specific one and gets its trace even if it's infeasible.
    // The first trace of the chosen request is the cold pass — tracing
    // installs the path, so probing again would always hit the cache.
    let (index, cold_result, cold) = if args.smoke {
        (0..batch.len())
            .find_map(|i| {
                let (result, trace) = engine.trace_request(&batch[i]);
                result.is_ok().then_some((i, result, trace))
            })
            .ok_or("no routable request in the smoke batch")?
    } else {
        let (result, trace) = engine.trace_request(&batch[args.request]);
        (args.request, result, trace)
    };
    let request = &batch[index];
    println!("request #{index} (cold, then warm):");
    println!("{}", cold.render());
    let (warm_result, warm) = engine.trace_request(request);
    println!();
    println!("{}", warm.render());
    if args.smoke {
        let cold_text = cold.render();
        let warm_text = warm.render();
        for (what, ok) in [
            ("cold request routes", cold_result.is_ok()),
            ("warm request routes", warm_result.is_ok()),
            (
                "cold pass is a cache miss",
                cold_text.contains("cache=miss"),
            ),
            ("warm pass is a cache hit", warm_text.contains("cache=hit")),
            ("trace names the router", cold_text.contains("router=hier")),
            ("trace shows the path", cold_text.contains("path")),
            ("trace shows the cost", cold_text.contains("cost")),
        ] {
            if !ok {
                return Err(format!("trace smoke check failed: {what}"));
            }
        }
        println!();
        println!("smoke checks passed");
    }
    Ok(())
}

fn cmd_scale(args: &Args) -> Result<(), String> {
    // Telemetry on unconditionally: the build spans are part of what
    // this command verifies.
    son_core::set_telemetry_enabled(true);
    let proxies = if args.smoke {
        1_000
    } else {
        args.proxies.max(1_000)
    };
    let rows_limit = (proxies / 100).max(64);
    let mut config = SonConfig::from_environment(Environment::scaled(proxies, args.seed));
    config.delay_rows_limit = Some(rows_limit);
    println!(
        "world      : {proxies} proxies, seed {}, delay rows capped at {rows_limit}",
        args.seed
    );

    // Reference build on one thread, then the parallel build; the two
    // must produce bit-identical overlays.
    config.threads = 1;
    let t0 = Instant::now();
    let sequential = ServiceOverlay::build(&config);
    let seq_wall = t0.elapsed();
    config.threads = args.threads; // 0 = all cores
    let t1 = Instant::now();
    let overlay = ServiceOverlay::build(&config);
    let par_wall = t1.elapsed();

    println!(
        "build      : {:.0}ms on 1 thread, {:.0}ms on {} ({:.2}x)",
        seq_wall.as_secs_f64() * 1e3,
        par_wall.as_secs_f64() * 1e3,
        if args.threads == 0 {
            "all cores".to_string()
        } else {
            format!("{} threads", args.threads)
        },
        seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9),
    );
    for (stage, seq_d) in sequential.stats().timings.iter() {
        let par_d = overlay.stats().timings.get(stage);
        println!(
            "  {:<10} : {:>8.1}ms -> {:>8.1}ms",
            stage.name(),
            seq_d.as_secs_f64() * 1e3,
            par_d.as_secs_f64() * 1e3,
        );
    }

    // Snapshot equality: the parallel pipeline is only an optimization.
    let seq_digest = sequential.engine_snapshot().digest();
    let par_digest = overlay.engine_snapshot().digest();
    println!("digest     : {seq_digest:016x} (sequential) vs {par_digest:016x} (parallel)");
    if seq_digest != par_digest || sequential.hfc().snapshot() != overlay.hfc().snapshot() {
        return Err("parallel build diverged from the sequential build".to_string());
    }

    let work = overlay.hfc().election_work();
    println!(
        "election   : {} delay evaluations + {} box tests",
        work.pair_evaluations, work.box_tests
    );

    // Every pipeline stage must have reported its span.
    let registry = son_core::telemetry();
    for stage in BuildStage::ALL {
        let key = format!("span.build.{}_us", stage.name());
        if registry.histogram(&key).count() == 0 {
            return Err(format!("missing build-stage span {key}"));
        }
    }

    // A three-level hierarchy over the parallel build, routed end to
    // end; every returned path must validate.
    let hierarchy = overlay.hierarchy_with_depth(&HierarchyConfig::default(), 3);
    println!(
        "hierarchy  : depth {}, {} superclusters over {} clusters",
        hierarchy.depth(),
        hierarchy.unit_count(hierarchy.top_level()),
        overlay.hfc().cluster_count(),
    );
    let (c2, s2) = son_core::Hierarchy::build_with_depth(
        overlay.hfc(),
        overlay.predicted_delays(),
        &HierarchyConfig::default(),
        2,
    )
    .mean_overheads(overlay.hfc());
    let (c3, s3) = hierarchy.mean_overheads(overlay.hfc());
    println!("state      : coords {c2:.1} -> {c3:.1}, services {s2:.1} -> {s3:.1} per proxy");

    let router = overlay.multilevel_router(&hierarchy);
    let requests = overlay.generate_client_requests(args.requests.max(30), args.seed ^ 0xF00D);
    let mut routed = 0usize;
    let mut violations = 0usize;
    let mut true_ms = 0.0;
    for request in &requests {
        if let Ok(path) = router.route_path(request) {
            routed += 1;
            if path
                .validate(request, |p, s| overlay.carries(p, s))
                .is_err()
            {
                violations += 1;
            }
            // Price the path on measured delays too: this drives the
            // bounded cache, so the row-cap check below is exercised
            // under real lookups.
            true_ms += overlay.true_length(&path);
        }
    }
    println!(
        "routing    : {routed}/{} requests routed, {violations} validity violations, \
         mean measured latency {:.1}ms",
        requests.len(),
        true_ms / (routed.max(1)) as f64,
    );
    if routed == 0 {
        return Err("no request routed over the hierarchy".to_string());
    }
    if violations != 0 {
        return Err(format!("{violations} multilevel paths failed validation"));
    }

    // The lazy-delay cap must have held through everything above.
    let computed = overlay.true_delays().computed_rows();
    println!(
        "delay rows : {computed} computed (cap {rows_limit}), {} evicted",
        overlay.true_delays().evicted_rows()
    );
    if computed > rows_limit {
        return Err(format!(
            "delay cache exceeded its bound: {computed} rows > {rows_limit}"
        ));
    }
    println!("scale checks passed");
    Ok(())
}

fn event_json(event: &son_core::FlightEvent) -> son_core::Json {
    use son_core::Json;
    let or_null = |absent: bool, v: f64| if absent { Json::Null } else { Json::Num(v) };
    Json::obj([
        ("seq", Json::Num(event.seq as f64)),
        ("tick", Json::Num(event.tick as f64)),
        ("kind", Json::Str(event.kind.label())),
        (
            "request",
            or_null(event.request == son_core::NO_REQUEST, event.request as f64),
        ),
        (
            "proxy",
            or_null(event.proxy == son_core::NO_PROXY, event.proxy as f64),
        ),
        (
            "worker",
            or_null(event.worker == son_core::NO_WORKER, event.worker as f64),
        ),
        ("epoch", Json::Num(event.epoch as f64)),
        ("value", Json::Num(event.value)),
    ])
}

fn cmd_flight(args: &Args) -> Result<(), String> {
    use son_core::{FlightEvent, FlightKind, SloConfig, SloTracker};
    use std::collections::BTreeMap;
    // The recorder is the product here: telemetry and the flight ring
    // go on before anything runs so every event lands on the timeline.
    son_core::set_telemetry_enabled(true);
    let recorder = son_core::flight();
    recorder.set_enabled(true);
    let proxies = if args.smoke {
        args.proxies.min(60)
    } else {
        args.proxies
    };
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment(
        proxies, args.seed,
    )));
    let engine = Engine::new(
        overlay.engine_snapshot(),
        HierProvider {
            config: overlay.config().hier,
        },
        EngineConfig {
            workers: args.workers,
            // Full-fidelity timelines: a debug run records every
            // request, not the production 1-in-8 sample.
            flight_sample: 1,
            ..EngineConfig::default()
        },
    );
    let slo = Arc::new(SloTracker::new(SloConfig {
        window_ticks: 8,
        ..SloConfig::default()
    }));
    engine.attach_slo(Arc::clone(&slo));

    // Healthy pass: every request's timeline ends in a disposition.
    let batch = overlay.generate_client_requests(args.requests.max(16), args.seed ^ 0xF00D);
    let healthy = engine.serve(&batch);
    println!(
        "healthy    : {} req, {} errors, {} flight events so far",
        batch.len(),
        healthy.report.errors,
        recorder.recorded()
    );

    // Rejection spike: every proxy goes Down, so the same batch is shed
    // as NoIngress before any worker spawns — the SLO ticks are
    // sequential and the spike window's rejection rate is
    // deterministically 1.0, which must fire the anomaly trigger and
    // freeze the ring.
    for p in 0..overlay.proxy_count() {
        engine.set_health(ProxyId::new(p), Health::Down);
    }
    let spike = engine.serve(&batch);
    println!(
        "spike      : {} req, {} rejected no-ingress",
        batch.len(),
        spike.report.admission.rejected_no_ingress
    );

    let events = recorder.since(args.since);
    let mut timelines: BTreeMap<u64, Vec<&FlightEvent>> = BTreeMap::new();
    for event in &events {
        if event.request != son_core::NO_REQUEST {
            timelines.entry(event.request).or_default().push(event);
        }
    }
    println!(
        "timelines  : {} requests across {} events (seq >= {})",
        timelines.len(),
        events.len(),
        args.since
    );
    for (rid, line) in timelines.iter().take(3) {
        println!("request #{rid}:");
        for event in line {
            println!("  {}", event.render());
        }
    }
    if timelines.len() > 3 {
        println!("... and {} more requests", timelines.len() - 3);
    }
    println!("stage times (per worker, per batch):");
    for event in events
        .iter()
        .filter(|e| matches!(e.kind, FlightKind::StageTime(_)))
    {
        println!("  {}", event.render());
    }
    let anomaly = recorder.anomaly();
    match &anomaly {
        Some(snap) => println!(
            "anomaly    : {} at tick {} (window {}): observed {:.2} vs threshold {:.2}, \
             {} events frozen",
            FlightKind::Anomaly(snap.kind).label(),
            snap.tick,
            snap.window,
            snap.observed,
            snap.threshold,
            snap.events.len()
        ),
        None => println!("anomaly    : none"),
    }
    let registry = son_core::telemetry();
    recorder.publish(registry);
    slo.publish(registry);
    for key in [
        "flight.events",
        "flight.dropped",
        "flight.anomalies",
        "slo.windows",
        "slo.breaches",
    ] {
        println!("{key:<16} : {}", registry.gauge(key).get());
    }

    if let Some(path) = &args.dump {
        let json = son_core::Json::Arr(events.iter().map(event_json).collect());
        std::fs::write(path, json.render())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "dump       : {} events written to {}",
            events.len(),
            path.display()
        );
    }

    if args.smoke {
        let n = batch.len() as u64;
        let complete = (0..n).all(|rid| {
            timelines.get(&rid).is_some_and(|line| {
                line.iter()
                    .any(|e| matches!(e.kind, FlightKind::CacheVerdict(_)))
                    && matches!(
                        line.last().map(|e| &e.kind),
                        Some(FlightKind::Disposition(_))
                    )
            })
        });
        let shed = (n..2 * n).all(|rid| {
            timelines.get(&rid).is_some_and(|line| {
                line.iter().any(|e| {
                    matches!(
                        e.kind,
                        FlightKind::Disposition(son_core::DispositionMark::RejectNoIngress)
                    )
                })
            })
        });
        let stage_events = events
            .iter()
            .filter(|e| matches!(e.kind, FlightKind::StageTime(_)))
            .count();
        for (what, ok) in [
            (
                "every healthy request has a cache verdict ending in a disposition",
                complete,
            ),
            ("every spike request was shed as no-ingress", shed),
            (
                "the rejection spike froze the ring",
                anomaly
                    .as_ref()
                    .is_some_and(|s| matches!(s.kind, son_core::AnomalyKind::RejectionRate)),
            ),
            (
                "the frozen snapshot holds events",
                anomaly.as_ref().is_some_and(|s| !s.events.is_empty()),
            ),
            (
                "per-worker stage timings are on the timeline",
                stage_events >= 7,
            ),
            ("no events were dropped", recorder.dropped() == 0),
        ] {
            if !ok {
                return Err(format!("flight smoke check failed: {what}"));
            }
            println!("check      : {what} — ok");
        }
        println!("smoke checks passed");
    }
    Ok(())
}

fn cmd_slo(args: &Args) -> Result<(), String> {
    use son_core::{SloConfig, SloTracker};
    son_core::set_telemetry_enabled(true);
    let proxies = if args.smoke {
        args.proxies.min(60)
    } else {
        args.proxies
    };
    let overlay = ServiceOverlay::build(&SonConfig::from_environment(environment(
        proxies, args.seed,
    )));
    let engine = Engine::new(
        overlay.engine_snapshot(),
        HierProvider {
            config: overlay.config().hier,
        },
        EngineConfig {
            workers: args.workers,
            ..EngineConfig::default()
        },
    );
    let window = 8u64;
    let slo = Arc::new(SloTracker::new(SloConfig {
        window_ticks: window,
        ..SloConfig::default()
    }));
    engine.attach_slo(Arc::clone(&slo));
    let batch = overlay.generate_client_requests(args.requests.max(32), args.seed ^ 0xF00D);
    let cold = engine.serve(&batch);
    let warm = engine.serve(&batch);
    println!(
        "serving    : {} req cold + warm, {} + {} errors",
        batch.len(),
        cold.report.errors,
        warm.report.errors
    );
    let config = slo.config();
    println!(
        "objectives : availability >= {:.3}, p99 <= {:.0}us, rejection trigger {:.2}, \
         window {} ticks",
        config.availability_objective,
        config.p99_objective_us,
        config.rejection_trigger,
        config.window_ticks
    );
    println!("window  end_tick  served  rejected  avail  burn    p99_us  status");
    for f in slo.frames() {
        println!(
            "{:>6}  {:>8}  {:>6}  {:>8}  {:>5.3}  {:>4.2}  {:>8.0}  {}",
            f.index,
            f.end_tick,
            f.served,
            f.rejected,
            f.availability,
            f.burn_rate,
            f.latency.p99,
            if f.availability_ok && f.latency_ok {
                "ok"
            } else {
                "BREACH"
            },
        );
    }
    let registry = son_core::telemetry();
    slo.publish(registry);
    for key in [
        "slo.availability",
        "slo.objective.availability",
        "slo.objective.p99_us",
        "slo.windows",
        "slo.breaches",
        "slo.window.availability",
        "slo.window.rejection_rate",
        "slo.window.burn_rate",
        "slo.window.p99_us",
    ] {
        println!("{key:<26} : {:.4}", registry.gauge(key).get());
    }
    if args.smoke {
        let ticks = slo.ticks();
        let frames = slo.frames();
        let errors = (cold.report.errors + warm.report.errors) as u64;
        for (what, ok) in [
            (
                "ticks advance once per request",
                ticks == 2 * batch.len() as u64,
            ),
            (
                "windows seal every window_ticks requests",
                slo.sealed() == ticks / window && slo.sealed() >= 2,
            ),
            (
                "served + rejected counters conserve the batches",
                slo.served_total() + slo.rejected_total() == ticks,
            ),
            (
                "SLO rejections equal the engine's errors",
                slo.rejected_total() == errors,
            ),
            (
                "every sealed frame holds exactly one window of deltas",
                frames.iter().all(|f| f.served + f.rejected == window),
            ),
        ] {
            if !ok {
                return Err(format!("slo smoke check failed: {what}"));
            }
            println!("check      : {what} — ok");
        }
        println!("smoke checks passed");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!(
            "usage: son <build|route|overhead|export|protocol|serve|faults|overload|dissem|metrics|trace|flight|slo|scale> [flags]"
        );
        return ExitCode::FAILURE;
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--metrics` (and `son metrics` itself) turn instrumentation on
    // before any subsystem runs; everything else stays zero-overhead.
    if args.metrics.is_some() || command == "metrics" {
        son_core::set_telemetry_enabled(true);
    }
    let result = match command.as_str() {
        "build" => {
            cmd_build(&args);
            Ok(())
        }
        "route" => {
            cmd_route(&args);
            Ok(())
        }
        "overhead" => {
            cmd_overhead(&args);
            Ok(())
        }
        "export" => cmd_export(&args),
        "protocol" => cmd_protocol(&args),
        "serve" => cmd_serve(&args),
        "faults" => cmd_faults(&args),
        "overload" => cmd_overload(&args),
        "dissem" => cmd_dissem(&args),
        "metrics" => cmd_metrics(&args),
        "trace" => cmd_trace(&args),
        "flight" => cmd_flight(&args),
        "slo" => cmd_slo(&args),
        "scale" => cmd_scale(&args),
        other => Err(format!("unknown command {other}")),
    };
    // Snapshot even on failure — a failing run's metrics are exactly
    // the ones worth inspecting.
    let result = result.and(match &args.metrics {
        Some(path) => son_core::write_json_snapshot(son_core::telemetry(), path)
            .map(|()| println!("metrics snapshot written to {}", path.display()))
            .map_err(|e| format!("writing {}: {e}", path.display())),
        None => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
