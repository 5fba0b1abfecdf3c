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
//! son trace    [--proxies N] [--seed S] [--request I] [--smoke]
//!                                                  print the route-provenance trace
//!                                                  of one request, cold (cache
//!                                                  miss) and warm (cache hit)
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
    Engine, EngineConfig, Environment, HierProvider, OverheadKind, ProtocolConfig, ServiceOverlay,
    SonConfig, StateProtocol,
};
use std::process::ExitCode;

struct Args {
    proxies: usize,
    seed: u64,
    requests: usize,
    what: String,
    loss: f64,
    rounds: usize,
    smoke: bool,
    request: usize,
    metrics: Option<std::path::PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        proxies: 60,
        seed: 42,
        requests: 10,
        what: "summary".to_string(),
        loss: 0.0,
        rounds: 3,
        smoke: false,
        request: 0,
        metrics: None,
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
            "--smoke" => args.smoke = true,
            "--request" => {
                args.request = value("--request")?
                    .parse()
                    .map_err(|e| format!("--request: {e}"))?
            }
            "--metrics" => args.metrics = Some(value("--metrics")?.into()),
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
    let error = overlay.embedding_error();
    println!(
        "embedding error : median {:.1}%, p90 {:.1}%",
        error.median * 100.0,
        error.p90 * 100.0
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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: son <build|route|overhead|export|protocol|trace> [flags]");
        return ExitCode::FAILURE;
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--metrics` turns instrumentation on before any subsystem runs;
    // everything else stays zero-overhead.
    if args.metrics.is_some() {
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
        "trace" => cmd_trace(&args),
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
