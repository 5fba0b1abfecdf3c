//! The measuring loop: one caller, one thread, closed loop — the next
//! `serve` is issued when the previous one has returned and been
//! checked. Engines run one worker, which serves inline in the caller.

use crate::check::Checker;
use crate::report::Metric;
use crate::span::Tracer;
use crate::stats;
use crate::workloads::{self, Phase, Setup, Spec, Workload};
use son_core::{FlatRouter, ProviderIndex, ServeReport, ServiceRequest};
use std::time::{Duration, Instant};

/// Sums of the public per-call report over the fixed prefix of a
/// phase. Everything here repeats exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `serve` calls.
    pub calls: u64,
    /// Requests attempted.
    pub requests: u64,
    /// Requests answered `Err`.
    pub failed: u64,
    /// Exact-cache hits.
    pub hits: u64,
    /// Exact-cache misses.
    pub misses: u64,
    /// Exact-cache insertions.
    pub insertions: u64,
    /// Exact-cache evictions.
    pub evictions: u64,
    /// Entries dropped for belonging to a superseded epoch.
    pub stale_drops: u64,
    /// Requests answered from the previous epoch's entry.
    pub stale_served: u64,
    /// Stale entries re-solved after their batch.
    pub revalidations: u64,
    /// Unroutable verdicts answered from the negative cache.
    pub negative_hits: u64,
    /// CSP-frontier hits.
    pub csp_hits: u64,
    /// CSP-frontier misses.
    pub csp_misses: u64,
    /// Requests shed.
    pub rejected: u64,
    /// Requests served after a retry or across a draining proxy.
    pub degraded: u64,
    /// Re-route attempts.
    pub retries: u64,
    /// Cache hits dropped because live health forbade a hop.
    pub health_drops: u64,
}

impl Counts {
    fn add(&mut self, report: &ServeReport) {
        self.calls += 1;
        self.requests += report.requests as u64;
        self.failed += report.errors as u64;
        let c = &report.cache;
        self.hits += c.hits;
        self.misses += c.misses;
        self.insertions += c.insertions;
        self.evictions += c.evictions;
        self.stale_drops += c.stale_drops;
        self.stale_served += c.stale_served;
        self.revalidations += c.revalidations;
        self.negative_hits += c.negative_hits;
        self.csp_hits += c.csp_hits;
        self.csp_misses += c.csp_misses;
        let a = &report.admission;
        self.rejected += a.rejected;
        self.degraded += a.degraded;
        self.retries += a.retries;
        self.health_drops += a.health_drops;
    }

    /// Exact-key hits over lookups (0 with no lookups).
    pub fn exact_hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    /// CSP-tier hits over lookups (0 with no lookups).
    pub fn csp_hit_ratio(&self) -> f64 {
        ratio(self.csp_hits, self.csp_hits + self.csp_misses)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Requests of a phase kept as inputs for the layer probes.
pub const SAMPLE: usize = 256;

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseRun {
    /// Wall time of each `serve` call, seconds, in call order.
    pub times_s: Vec<f64>,
    /// Wall time of the writes made before each call, seconds.
    pub writes_s: Vec<f64>,
    /// Requests attempted over all calls.
    pub requests: u64,
    /// Requests answered `Err` over all calls.
    pub failed: u64,
    /// Sums over the fixed prefix.
    pub fixed: Counts,
    /// Wall time of the fixed prefix's calls, seconds.
    pub fixed_time_s: f64,
    /// The first requests served, up to [`SAMPLE`]: the inputs the
    /// layer probes run on.
    pub sample: Vec<ServiceRequest>,
}

impl PhaseRun {
    /// Wall time of each complete run of `cycle` consecutive calls,
    /// the writes before them included.
    pub fn cycle_times(&self, cycle: usize) -> Vec<f64> {
        self.times_s
            .chunks_exact(cycle)
            .zip(self.writes_s.chunks_exact(cycle))
            .map(|(calls, writes)| calls.iter().chain(writes).sum())
            .collect()
    }
}

/// Runs `phase` of `w`: `fixed_calls` calls, then more until `budget`
/// is spent. Checks and bookkeeping sit between the timed calls and
/// count against the budget, not against any call.
pub fn run_phase(
    w: &mut dyn Workload,
    phase: Phase,
    fixed_calls: usize,
    budget: Duration,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> PhaseRun {
    let name = match phase {
        Phase::Throughput => "bench.throughput_phase",
        Phase::Single => "bench.single_phase",
    };
    let (run, _) = tracer.scope(name, 0, |tracer| {
        let started = Instant::now();
        let mut run = PhaseRun::default();
        let mut round = 0;
        loop {
            let call = run.times_s.len();
            if call >= fixed_calls && started.elapsed() >= budget {
                break;
            }
            let Some(range) = w.next(phase) else {
                round += 1;
                w.start_round(phase, round);
                continue;
            };
            let wrote = w.before_call(phase, call, tracer);
            run.writes_s.push(wrote.as_secs_f64());
            let batch = &w.requests()[range];
            let begun = Instant::now();
            let out = w.engine().serve(batch);
            let ended = Instant::now();
            tracer.record("engine.serve", call as u64, begun, ended);
            let took = (ended - begun).as_secs_f64();
            run.times_s.push(took);
            run.requests += out.report.requests as u64;
            run.failed += out.report.errors as u64;
            if call < fixed_calls {
                run.fixed.add(&out.report);
                run.fixed_time_s += took;
            }
            let wanted = SAMPLE.saturating_sub(run.sample.len()).min(batch.len());
            run.sample.extend_from_slice(&batch[..wanted]);
            checker.outcome(w, batch, &out);
        }
        run
    });
    run
}

/// Sets the workload up `spec.setup_reps` times, keeping the last, and
/// returns it with the program's share of each set-up in seconds.
pub fn set_up(
    spec: &'static Spec,
    seed: u64,
    tracer: &mut Tracer,
) -> (Box<dyn Workload>, Vec<f64>) {
    let mut times = Vec::with_capacity(spec.setup_reps);
    let mut workload = None;
    for _ in 0..spec.setup_reps {
        // One world at a time, so the repeats do not add to peak RSS.
        drop(workload.take());
        let mut setup = Setup::new(tracer);
        workload = Some(workloads::setup(spec, seed, &mut setup));
        times.push(setup.spent.as_secs_f64());
    }
    (workload.expect("setup_reps is at least 1"), times)
}

/// Σ cost of the served paths ÷ Σ cost of the flat optimum over the
/// workload's fixed sample, on coordinate-predicted delays — the
/// quantity of the paper's Fig. 10. The sample does not depend on
/// `--seed`, so the figure moves only when an answer does.
pub fn path_stretch(w: &dyn Workload, checker: &mut Checker) -> f64 {
    let world = w.world();
    let sample = world.stretch_sample(w.spec().stretch_sample);
    let served = w.fresh_engine().serve(&sample);
    let delays = world.overlay.predicted_delays();
    let providers = ProviderIndex::from_service_sets(world.overlay.services());
    let oracle = FlatRouter::new(&providers, delays);
    let (mut ours, mut best) = (0.0, 0.0);
    for (request, answer) in sample.iter().zip(&served.paths) {
        match (answer, oracle.route(request)) {
            (Ok(path), Ok(optimum)) => {
                ours += path.length(delays);
                best += optimum.length(delays);
            }
            (answer, optimum) => checker.fail(format!(
                "path-quality sample {request:?}: served {answer:?}, oracle {optimum:?}"
            )),
        }
    }
    ours / best
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a run reports besides its metrics.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Requests attempted in timed calls.
    pub attempted: u64,
    /// Of those, answered `Err`.
    pub failed: u64,
    /// Lines for the human reader.
    pub notes: Vec<String>,
    /// Wall time of every throughput sample, seconds, for the artifact.
    pub throughput_samples_s: Vec<f64>,
    /// Wall time of every single call, microseconds, for the artifact.
    pub single_calls_us: Vec<f64>,
}

/// The layer-separation expectations of `spec`, checked on the fixed
/// prefix of a throughput phase.
pub fn check_separation(spec: &Spec, fixed: &Counts, checker: &mut Checker) {
    let exact = fixed.exact_hit_ratio();
    let (lo, hi) = spec.exact_hits;
    checker.require((lo..=hi).contains(&exact), || {
        format!(
            "exact-hit ratio {exact} outside {lo}..={hi}: the traffic is not what {} claims",
            spec.name
        )
    });
    let csp = fixed.csp_hit_ratio();
    checker.require(csp >= spec.csp_hits_min, || {
        format!("CSP hit ratio {csp} below {}", spec.csp_hits_min)
    });
}

/// One untraced end-to-end run: set-up, throughput phase, single
/// phase, checks.
pub fn end_to_end(spec: &'static Spec, seed: u64, seconds: f64, checker: &mut Checker) -> Outcome {
    // Telemetry is on by default in the library and the flight
    // recorder off; end-to-end numbers are taken with both off.
    son_core::set_telemetry_enabled(false);
    let mut tracer = Tracer::new(false);
    let (mut w, setups) = set_up(spec, seed, &mut tracer);
    if let Some(state) = w.state_report() {
        checker.require(state.converged && state.stale_entries == 0, || {
            format!("state protocol left {} stale entries", state.stale_entries)
        });
    }
    // Before any write changes the snapshot being served.
    let stretch = path_stretch(&*w, checker);
    let share = Duration::from_secs_f64(seconds / 2.0);
    let [batches_fixed, singles_fixed] = spec.fixed_calls;
    let batches = run_phase(
        &mut *w,
        Phase::Throughput,
        batches_fixed,
        share,
        &mut tracer,
        checker,
    );
    w.start_round(Phase::Single, 0);
    let singles = run_phase(
        &mut *w,
        Phase::Single,
        singles_fixed,
        share,
        &mut tracer,
        checker,
    );
    check_separation(spec, &batches.fixed, checker);

    let cycles = batches.cycle_times(spec.cycle);
    let rps = (spec.cycle * spec.batch) as f64 / stats::median(&cycles);
    let rps_total = (cycles.len() * spec.cycle * spec.batch) as f64 / cycles.iter().sum::<f64>();
    let single_us: Vec<f64> = singles.times_s.iter().map(|s| s * 1e6).collect();
    let p95 = stats::percentile(&single_us, 0.95).unwrap_or_else(|e| {
        checker.fail(e);
        f64::NAN
    });
    let fixed_requests = batches.fixed.requests + singles.fixed.requests;
    let fixed_failed = batches.fixed.failed + singles.fixed.failed;

    let mut notes = vec![format!(
        "rps beside it: {rps_total:.1} req/s as total requests / total wall over {} samples of {} calls",
        cycles.len(),
        spec.cycle
    )];
    if (rps_total / rps - 1.0).abs() > 0.10 {
        notes.push("noisy: the two throughput figures are more than 10 % apart".to_string());
    }
    Outcome {
        metrics: vec![
            Metric::new("rps", "req/s", rps, cycles.len()),
            Metric::new(
                "single_p50_us",
                "us",
                stats::median(&single_us),
                single_us.len(),
            ),
            Metric::new("single_p95_us", "us", p95, single_us.len()),
            Metric::new(
                "served_share",
                "fraction",
                1.0 - fixed_failed as f64 / fixed_requests as f64,
                fixed_requests as usize,
            ),
            Metric::new("path_stretch", "ratio", stretch, spec.stretch_sample),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
            Metric::new("setup_s", "s", stats::median(&setups), setups.len()),
        ],
        attempted: batches.requests + singles.requests,
        failed: batches.failed + singles.failed,
        notes,
        throughput_samples_s: cycles,
        single_calls_us: single_us,
    }
}
