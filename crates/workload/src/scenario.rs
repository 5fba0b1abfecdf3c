//! Flash-crowd and failure scenarios: phased workloads for the
//! overload benchmarks.
//!
//! A [`Scenario`] is an ordered list of [`ScenarioPhase`]s. Each phase
//! carries the requests to serve plus the health events (crashes and
//! restarts) to apply *before* serving it, so a driver replays the
//! scenario as: apply events, serve batch, record, next phase. Three
//! canonical shapes are provided:
//!
//! - [`Scenario::regional_surge`] — a flash crowd: baseline traffic,
//!   then a burst whose sources all sit in one region, then cooldown.
//! - [`Scenario::hot_key_flip`] — a popularity inversion mid-run: the
//!   Zipf head moves to formerly-cold requests, defeating any cache
//!   warmed on the old head.
//! - [`Scenario::rolling_crashes`] — sustained load while proxies
//!   crash one per phase and the previous victim restarts.
//!
//! Everything is seeded and deterministic: the same inputs produce the
//! same phases, so benchmark runs are reproducible.

use crate::zipf::zipf_request_mix;
use son_overlay::{ProxyId, ServiceRequest};

/// One step of a scenario: health events, then a request batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPhase {
    /// Human-readable phase label (e.g. `"surge"`).
    pub name: String,
    /// Proxies that go `Down` at the start of this phase.
    pub crashes: Vec<ProxyId>,
    /// Proxies that come back `Up` at the start of this phase.
    pub restarts: Vec<ProxyId>,
    /// The requests served during this phase.
    pub requests: Vec<ServiceRequest>,
}

impl ScenarioPhase {
    fn quiet(name: impl Into<String>, requests: Vec<ServiceRequest>) -> Self {
        ScenarioPhase {
            name: name.into(),
            crashes: Vec::new(),
            restarts: Vec::new(),
            requests,
        }
    }
}

/// A phased workload with health events. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario label (e.g. `"regional-surge"`).
    pub name: String,
    /// The phases, in replay order.
    pub phases: Vec<ScenarioPhase>,
}

impl Scenario {
    /// A flash crowd out of one region: a `baseline`-sized Zipf(`s`)
    /// warm-up, a `surge`-sized burst whose *sources* are rewritten
    /// round-robin onto `surge_sources` (everyone in that region asks
    /// at once), then a `baseline`-sized cooldown.
    ///
    /// # Panics
    ///
    /// Panics if `pool` or `surge_sources` is empty.
    pub fn regional_surge(
        pool: &[ServiceRequest],
        surge_sources: &[ProxyId],
        baseline: usize,
        surge: usize,
        s: f64,
        seed: u64,
    ) -> Scenario {
        assert!(!surge_sources.is_empty(), "surge region has no proxies");
        let warmup = zipf_request_mix(pool, baseline, s, seed);
        let burst: Vec<ServiceRequest> = zipf_request_mix(pool, surge, s, seed ^ 0x5ca1e)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.source = surge_sources[i % surge_sources.len()];
                if r.destination == r.source {
                    // Keep source != destination (as the generator does).
                    r.destination = surge_sources[(i + 1) % surge_sources.len()];
                }
                r
            })
            .collect();
        let cooldown = zipf_request_mix(pool, baseline, s, seed ^ 0xc001);
        Scenario {
            name: "regional-surge".into(),
            phases: vec![
                ScenarioPhase::quiet("warmup", warmup),
                ScenarioPhase::quiet("surge", burst),
                ScenarioPhase::quiet("cooldown", cooldown),
            ],
        }
    }

    /// A mid-run popularity inversion: phase one draws Zipf(`s`) over
    /// `pool` as ranked; phase two re-ranks the pool rotated by half,
    /// so the former tail becomes the new head and a cache warmed on
    /// the old head goes cold at once.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    pub fn hot_key_flip(pool: &[ServiceRequest], per_phase: usize, s: f64, seed: u64) -> Scenario {
        assert!(!pool.is_empty(), "request pool is empty");
        let before = zipf_request_mix(pool, per_phase, s, seed);
        let mut flipped = pool.to_vec();
        flipped.rotate_left(pool.len() / 2);
        let after = zipf_request_mix(&flipped, per_phase, s, seed ^ 0xf11b);
        Scenario {
            name: "hot-key-flip".into(),
            phases: vec![
                ScenarioPhase::quiet("head", before),
                ScenarioPhase::quiet("flipped", after),
            ],
        }
    }

    /// Sustained Zipf(`s`) load while `victims` crash one per phase:
    /// phase `k` crashes `victims[k]` and restarts `victims[k - 1]`,
    /// and a final phase restarts the last victim — so at most one
    /// victim is down at a time, under continuous load.
    ///
    /// # Panics
    ///
    /// Panics if `pool` or `victims` is empty.
    pub fn rolling_crashes(
        pool: &[ServiceRequest],
        victims: &[ProxyId],
        per_phase: usize,
        s: f64,
        seed: u64,
    ) -> Scenario {
        assert!(!victims.is_empty(), "no victims to crash");
        let mut phases = Vec::with_capacity(victims.len() + 1);
        for (k, &victim) in victims.iter().enumerate() {
            phases.push(ScenarioPhase {
                name: format!("crash-{victim}"),
                crashes: vec![victim],
                restarts: if k > 0 {
                    vec![victims[k - 1]]
                } else {
                    Vec::new()
                },
                requests: zipf_request_mix(pool, per_phase, s, seed.wrapping_add(k as u64)),
            });
        }
        phases.push(ScenarioPhase {
            name: "recovered".into(),
            crashes: Vec::new(),
            restarts: vec![*victims.last().expect("non-empty")],
            requests: zipf_request_mix(pool, per_phase, s, seed.wrapping_add(victims.len() as u64)),
        });
        Scenario {
            name: "rolling-crashes".into(),
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_requests, RequestProfile};

    fn pool() -> Vec<ServiceRequest> {
        generate_requests(40, 30, 20, &RequestProfile::default(), 3)
    }

    #[test]
    fn regional_surge_rewrites_burst_sources() {
        let region: Vec<ProxyId> = (0..5).map(ProxyId::new).collect();
        let scenario = Scenario::regional_surge(&pool(), &region, 50, 200, 0.9, 7);
        assert_eq!(scenario.phases.len(), 3);
        let total: usize = scenario.phases.iter().map(|p| p.requests.len()).sum();
        assert_eq!(total, 300);
        let surge = &scenario.phases[1];
        assert_eq!(surge.name, "surge");
        for r in &surge.requests {
            assert!(region.contains(&r.source), "{:?} not in region", r.source);
            assert_ne!(r.source, r.destination);
        }
        // Warm-up traffic is unmodified pool traffic.
        let base = pool();
        for r in &scenario.phases[0].requests {
            assert!(base.contains(r));
        }
    }

    #[test]
    fn hot_key_flip_changes_the_head() {
        let base = pool();
        let scenario = Scenario::hot_key_flip(&base, 300, 1.0, 11);
        assert_eq!(scenario.phases.len(), 2);
        let count = |requests: &[ServiceRequest], key: &ServiceRequest| {
            requests.iter().filter(|r| *r == key).count()
        };
        // The old head dominates phase one and fades in phase two,
        // where the rotated head (old middle) takes over.
        let old_head = &base[0];
        let new_head = &base[base.len() / 2];
        let before = &scenario.phases[0].requests;
        let after = &scenario.phases[1].requests;
        assert!(count(before, old_head) > count(after, old_head));
        assert!(count(after, new_head) > count(before, new_head));
    }

    #[test]
    fn rolling_crashes_keep_one_victim_down() {
        let victims: Vec<ProxyId> = [4, 9, 17].into_iter().map(ProxyId::new).collect();
        let scenario = Scenario::rolling_crashes(&pool(), &victims, 60, 0.9, 5);
        assert_eq!(scenario.phases.len(), 4);
        let mut down: Vec<ProxyId> = Vec::new();
        for phase in &scenario.phases {
            for r in &phase.restarts {
                down.retain(|p| p != r);
            }
            down.extend(&phase.crashes);
            assert!(down.len() <= 1, "{down:?} down at once in {}", phase.name);
            assert_eq!(phase.requests.len(), 60);
        }
        assert!(down.is_empty(), "everyone restarts by the end: {down:?}");
    }

    #[test]
    fn scenarios_are_seeded() {
        let base = pool();
        let region = [ProxyId::new(1)];
        assert_eq!(
            Scenario::regional_surge(&base, &region, 10, 20, 0.9, 1),
            Scenario::regional_surge(&base, &region, 10, 20, 0.9, 1)
        );
        assert_ne!(
            Scenario::hot_key_flip(&base, 50, 0.9, 1),
            Scenario::hot_key_flip(&base, 50, 0.9, 2)
        );
    }
}
