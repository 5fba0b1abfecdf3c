//! The traced run: the workload again under benchmark-side spans, then
//! public layer functions timed from outside — the per-layer budget.
//! End-to-end numbers never come from here.
//!
//! ```sh
//! benchmark/run.sh --workload cold_route --trace
//! ```

mod probes;

use son_benchmark::args::Args;
use son_benchmark::check::Checker;
use son_benchmark::contract::PER_LAYER;
use son_benchmark::driver::{self, Counts, PhaseRun};
use son_benchmark::report::{self, Ending, Metric};
use son_benchmark::span::Tracer;
use son_benchmark::stats;
use son_benchmark::workloads::{self, Phase, Setup, Spec};
use std::process::ExitCode;
use std::time::Duration;

/// Single calls of the traced run: enough to see that one request
/// costs what an empty batch costs; the percentiles are `e2e`'s.
const SINGLES: usize = 100;

fn main() -> ExitCode {
    let args = Args::from_env();
    let Some(spec) = args.workload else {
        eprintln!("error: --workload NAME is required (benchmark/run.sh runs them all)");
        return ExitCode::from(2);
    };
    son_core::set_telemetry_enabled(false);
    let mut tracer = Tracer::new(true);
    let mut checker = Checker::new(args.check);

    let mut w = workloads::setup(spec, args.seed, &mut Setup::new(&mut tracer));
    // The traced pass goes first, so that its fixed prefix is the
    // same stretch of traffic an end-to-end run counts over.
    let share = Duration::from_secs_f64(args.seconds * 0.2);
    let fixed = spec.fixed_calls[0];
    let traced = driver::run_phase(
        &mut *w,
        Phase::Throughput,
        fixed,
        share,
        &mut tracer,
        &mut checker,
    );
    let untraced = driver::run_phase(
        &mut *w,
        Phase::Throughput,
        fixed,
        share,
        &mut Tracer::new(false),
        &mut checker,
    );
    w.start_round(Phase::Single, 0);
    let singles = driver::run_phase(
        &mut *w,
        Phase::Single,
        SINGLES,
        Duration::ZERO,
        &mut tracer,
        &mut checker,
    );
    driver::check_separation(spec, &traced.fixed, &mut checker);

    let mut values = probes::run(&*w, &traced.sample, args.seed, &mut tracer, &mut checker);
    let counts = traced.fixed;
    let n = counts.requests as usize;
    for (name, value) in [
        ("engine.cache.exact_hit_ratio", counts.exact_hit_ratio()),
        ("engine.cache.csp_hit_ratio", counts.csp_hit_ratio()),
        ("engine.cache.stale_served", counts.stale_served as f64),
        ("engine.cache.revalidations", counts.revalidations as f64),
        ("engine.cache.stale_drops", counts.stale_drops as f64),
        ("engine.cache.negative_hits", counts.negative_hits as f64),
        ("engine.cache.evictions", counts.evictions as f64),
        ("engine.admission.rejected", counts.rejected as f64),
        ("engine.admission.degraded", counts.degraded as f64),
        ("engine.admission.retries", counts.retries as f64),
        ("engine.admission.health_drops", counts.health_drops as f64),
    ] {
        values.insert(name, (value, n));
    }
    let explained = predicted_s(&counts, &values, w.world().hierarchy.is_some());
    values.insert(
        "engine.unattributed_pct",
        (
            (traced.fixed_time_s - explained) / traced.fixed_time_s * 100.0,
            counts.calls as usize,
        ),
    );
    let (traced_rps, samples) = rps(spec, &traced);
    let (untraced_rps, _) = rps(spec, &untraced);
    values.insert("bench.traced_rps", (traced_rps, samples));
    values.insert(
        "bench.trace_overhead_pct",
        ((untraced_rps / traced_rps - 1.0) * 100.0, samples),
    );

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let (value, samples) = values.get(name).copied().unwrap_or_else(|| {
                checker.fail(format!("no probe reported {name}"));
                (f64::NAN, 0)
            });
            Metric::new(name, unit, value, samples)
        })
        .collect();
    let single_us: Vec<f64> = singles.times_s.iter().map(|s| s * 1e6).collect();
    let mut notes = vec![
        format!(
            "traced run; one request through serve: median {} us over {} calls",
            stats::median(&single_us),
            single_us.len()
        ),
        format!("untraced rps {untraced_rps}"),
        "span count total_ms self_ms".to_string(),
    ];
    notes.extend(tracer.totals().into_iter().map(|(name, t)| {
        format!(
            "{name} {} {:.3} {:.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )
    }));
    report::announce(report::write_artifact(
        &format!("trace_{}.json", spec.name),
        &tracer.to_json(),
    ));
    let ending = Ending {
        metrics: &metrics,
        attempted: traced.requests + untraced.requests + singles.requests,
        failed: traced.failed + untraced.failed + singles.failed,
        notes: &notes,
        file: format!("{}_layers.json", spec.name),
        extras: Vec::new(),
    };
    report::conclude(spec, &args, &checker, ending)
}

/// Requests per second by the median cycle, and the cycles behind it.
fn rps(spec: &Spec, run: &PhaseRun) -> (f64, usize) {
    let cycles = run.cycle_times(spec.cycle);
    (
        (spec.cycle * spec.batch) as f64 / stats::median(&cycles),
        cycles.len(),
    )
}

/// The time the layer probes predict for the calls `counts` covers:
/// what each call costs before its first request, what every request
/// pays for its key and exact lookup, and what each miss, insert,
/// frontier lookup, solve, replay and failover re-route adds. What
/// `serve` does beside these — shard assignment, merging, latency
/// bookkeeping — no probe covers; it is what stays unattributed.
fn predicted_s(counts: &Counts, values: &probes::Values, recursive: bool) -> f64 {
    let ns = |name: &str| values[name].0 * 1e-9;
    let us = |name: &str| values[name].0 * 1e-6;
    let routing = if recursive {
        // The recursive router has no CSP seam: a miss is a full route.
        counts.misses as f64 * us("routing.multilevel_route_us")
    } else {
        (counts.csp_hits + counts.csp_misses) as f64
            * (ns("engine.cache.csp_lookup_ns") + us("routing.csp_replay_us"))
            + counts.csp_misses as f64 * us("routing.csp_solve_us")
    };
    counts.calls as f64 * us("engine.batch_overhead_us")
        + counts.requests as f64
            * (ns("engine.cache.key_encode_ns") + ns("engine.cache.exact_lookup_ns"))
        + counts.misses as f64 * ns("engine.cache.negative_lookup_ns")
        + counts.insertions as f64 * ns("engine.cache.exact_insert_ns")
        + routing
        + counts.retries as f64 * us("routing.flat_route_us")
}
