//! `--check`: what every answer of a run must satisfy. A violation
//! makes the run incorrect and its numbers void.

use crate::workloads::Workload;
use son_core::{ServeOutcome, ServiceRequest};

/// Answers of the first checked call compared with a cold engine's.
const COLD_SAMPLE: usize = 200;
/// Violations kept verbatim; the rest are only counted.
const KEPT: usize = 20;

/// Collects violations over a run.
#[derive(Debug)]
pub struct Checker {
    on: bool,
    kept: Vec<String>,
    count: usize,
    compared_with_cold: bool,
}

impl Checker {
    /// A checker that checks (`on`) or lets everything pass.
    pub fn new(on: bool) -> Checker {
        Checker {
            on,
            kept: Vec::new(),
            count: 0,
            compared_with_cold: false,
        }
    }

    /// Records a violation.
    pub fn fail(&mut self, message: String) {
        self.count += 1;
        if self.kept.len() < KEPT {
            self.kept.push(message);
        }
    }

    /// Records a violation unless `ok`.
    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if self.on && !ok {
            self.fail(message());
        }
    }

    /// Violations seen so far.
    pub fn violations(&self) -> usize {
        self.count
    }

    /// The first violations, verbatim.
    pub fn messages(&self) -> &[String] {
        &self.kept
    }

    /// Checks one `serve` call: every served path is a valid answer to
    /// its request and crosses no proxy that is down, the dispositions
    /// account for every request exactly once, and no proxy admitted
    /// more than its capacity. The first call checked is also replayed
    /// on a cold engine: caches must never change answers.
    pub fn outcome(&mut self, w: &dyn Workload, batch: &[ServiceRequest], out: &ServeOutcome) {
        if !self.on {
            return;
        }
        let overlay = &w.world().overlay;
        if out.paths.len() != batch.len() || out.dispositions.len() != batch.len() {
            self.fail(format!(
                "{} requests got {} answers and {} dispositions",
                batch.len(),
                out.paths.len(),
                out.dispositions.len()
            ));
            return;
        }
        let down = w.down();
        for ((request, answer), disposition) in batch.iter().zip(&out.paths).zip(&out.dispositions)
        {
            if answer.is_ok() != disposition.is_served() {
                self.fail(format!("{disposition:?} beside answer {answer:?}"));
            }
            let Ok(path) = answer else { continue };
            if let Err(e) = path.validate(request, |p, s| overlay.carries(p, s)) {
                self.fail(format!("invalid path {path} for {request:?}: {e}"));
            }
            if let Some(hop) = path.hops().iter().find(|h| down.contains(&h.proxy)) {
                self.fail(format!("path {path} crosses {}, which is down", hop.proxy));
            }
        }
        let admission = &out.report.admission;
        if admission.total() != batch.len() as u64 {
            self.fail(format!(
                "optimal {} + degraded {} + rejected {} != {} attempted",
                admission.optimal,
                admission.degraded,
                admission.rejected,
                batch.len()
            ));
        }
        if let Some(capacities) = w.capacities() {
            for (p, &load) in out.report.admitted_load.iter().enumerate() {
                let capacity = capacities.capacity(son_core::ProxyId::new(p));
                if load > u64::from(capacity) {
                    self.fail(format!("proxy {p} admitted {load} of capacity {capacity}"));
                }
            }
        }
        if !self.compared_with_cold {
            self.compared_with_cold = true;
            // The whole batch is replayed (what admission lets through
            // depends on what came before in the batch); the first
            // answers are compared.
            let cold = w.fresh_engine().serve(batch);
            let sample = batch.iter().zip(&out.paths).zip(&cold.paths);
            for ((request, warm), cold) in sample.take(COLD_SAMPLE) {
                if warm != cold {
                    self.fail(format!(
                        "{request:?}: the run answered {warm:?}, a cold engine {cold:?}"
                    ));
                }
            }
        }
    }
}
