//! Deterministic fault injection for the [`crate::sim::Simulator`].
//!
//! A [`FaultPlan`] describes everything that can go wrong on the
//! simulated network — seeded per-message loss and duplication (with
//! per-link overrides), delivery jitter, scheduled network partitions,
//! and proxy crash/restart events. The plan is *data*: installing the
//! same plan on the same simulation always produces the same run, so
//! fault scenarios are exactly as reproducible as fault-free ones (the
//! `trace_hash` in [`crate::sim::SimStats`] certifies it).
//!
//! Semantics, in the order they apply to a message:
//!
//! 1. **Partition** — while a partition window is open, any message
//!    crossing between the island and the rest of the network is
//!    dropped (checked at send time).
//! 2. **Loss** — each message is independently dropped with the
//!    link-specific probability if one is configured for the
//!    (unordered) pair, otherwise the uniform `loss` probability.
//! 3. **Duplication** — a surviving message is delivered twice with
//!    probability `duplicate`; the copy draws its own jitter.
//! 4. **Jitter** — each delivery is delayed by an extra uniform draw
//!    from `[0, jitter_ms]` on top of the delay function.
//!
//! Crashes are scheduled events, not random ones: at `at` the node
//! stops receiving messages and its pending timers are cancelled; at
//! `restart` (if any) it comes back empty-handed and the simulator
//! invokes [`crate::sim::Actor::on_restart`] so the protocol can
//! recover. Messages addressed to a crashed node are dropped at
//! delivery time.

use crate::event::SimTime;
use crate::graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scheduled network partition: during `[start, end)` the `island`
/// nodes cannot exchange messages with the rest of the network
/// (traffic inside the island, and inside the remainder, is
/// unaffected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// When the partition opens.
    pub start: SimTime,
    /// When connectivity is restored.
    pub end: SimTime,
    /// The nodes cut off from the rest.
    pub island: Vec<NodeId>,
}

impl Partition {
    /// Whether a message from `from` to `to` sent at `now` crosses the
    /// open partition.
    fn severs(&self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        self.island.contains(&from) != self.island.contains(&to)
    }
}

/// A scheduled crash (and optional restart) of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that fails.
    pub node: NodeId,
    /// When it crashes.
    pub at: SimTime,
    /// When it restarts with empty volatile state; `None` means it
    /// stays down for the rest of the run.
    pub restart: Option<SimTime>,
}

/// A complete, seeded description of the faults injected into one run.
///
/// Build one with the fluent `with_*` methods:
///
/// ```
/// use son_netsim::{FaultPlan, NodeId, SimTime};
///
/// let plan = FaultPlan::new(7)
///     .with_loss(0.2)
///     .with_duplicate(0.05)
///     .with_jitter_ms(2.0)
///     .with_partition(
///         SimTime::from_ms(10.0),
///         SimTime::from_ms(30.0),
///         vec![NodeId::new(0), NodeId::new(1)],
///     )
///     .with_crash(NodeId::new(2), SimTime::from_ms(5.0), Some(SimTime::from_ms(40.0)));
/// assert_eq!(plan.crashes.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG (loss, duplication, jitter draws).
    pub seed: u64,
    /// Uniform per-message drop probability.
    pub loss: f64,
    /// Per-message duplication probability.
    pub duplicate: f64,
    /// Maximum extra delivery delay, drawn uniformly per delivery.
    pub jitter_ms: f64,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crash/restart events.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss: 0.0,
            duplicate: 0.0,
            jitter_ms: 0.0,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Replaces the RNG seed, keeping every other fault the same —
    /// handy for checking that the digest of a run actually depends on
    /// the draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the uniform per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss <= 1.0`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss probability must be in [0, 1], got {loss}"
        );
        self.loss = loss;
        self
    }

    /// Sets the per-message duplication probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= duplicate <= 1.0`.
    pub fn with_duplicate(mut self, duplicate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&duplicate),
            "duplication probability must be in [0, 1], got {duplicate}"
        );
        self.duplicate = duplicate;
        self
    }

    /// Sets the maximum per-delivery jitter in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_ms` is negative or not finite.
    pub fn with_jitter_ms(mut self, jitter_ms: f64) -> Self {
        assert!(
            jitter_ms.is_finite() && jitter_ms >= 0.0,
            "jitter must be finite and >= 0, got {jitter_ms}"
        );
        self.jitter_ms = jitter_ms;
        self
    }

    /// Schedules a partition of `island` from the rest during
    /// `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn with_partition(mut self, start: SimTime, end: SimTime, island: Vec<NodeId>) -> Self {
        assert!(start < end, "partition window must not be empty");
        self.partitions.push(Partition { start, end, island });
        self
    }

    /// Schedules a crash of `node` at `at`, restarting at `restart`
    /// (or never).
    ///
    /// # Panics
    ///
    /// Panics if `restart` precedes (or equals) `at`.
    pub fn with_crash(mut self, node: NodeId, at: SimTime, restart: Option<SimTime>) -> Self {
        if let Some(r) = restart {
            assert!(at < r, "restart must come after the crash");
        }
        self.crashes.push(CrashEvent { node, at, restart });
        self
    }

    /// Returns `true` if the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.loss == 0.0
            && self.duplicate == 0.0
            && self.jitter_ms == 0.0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }

    /// The time by which every scheduled (non-random) fault has played
    /// out: after this instant no partition window is open and no crash
    /// or restart is still pending. Random loss/duplication/jitter
    /// continue for the whole run. Convergence harnesses use this to
    /// avoid declaring victory before a scheduled fault has fired.
    pub fn horizon(&self) -> SimTime {
        let mut horizon = SimTime::ZERO;
        for p in &self.partitions {
            horizon = horizon.max(p.end);
        }
        for c in &self.crashes {
            horizon = horizon.max(c.restart.unwrap_or(c.at));
        }
        horizon
    }
}

/// The live fault state a running simulator keeps: the plan, its RNG,
/// and per-node crash bookkeeping.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    crashed: Vec<bool>,
    /// Bumped on every crash; timers armed under an older incarnation
    /// are dead on arrival.
    incarnation: Vec<u64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, nodes: usize) -> Self {
        FaultState {
            rng: StdRng::seed_from_u64(plan.seed),
            crashed: vec![false; nodes],
            incarnation: vec![0; nodes],
            plan,
        }
    }

    /// Whether a message sent now from `from` to `to` is dropped by a
    /// partition or random loss. Consumes one RNG draw for the loss
    /// decision (when a loss probability is configured).
    pub(crate) fn drops(&mut self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        if self.plan.partitions.iter().any(|p| p.severs(now, from, to)) {
            return true;
        }
        self.plan.loss > 0.0 && self.rng.gen_bool(self.plan.loss)
    }

    /// Whether a surviving message gets a duplicate delivery.
    pub(crate) fn duplicates(&mut self) -> bool {
        self.plan.duplicate > 0.0 && self.rng.gen_bool(self.plan.duplicate)
    }

    /// One jitter draw, as extra delivery delay.
    pub(crate) fn jitter(&mut self) -> SimTime {
        if self.plan.jitter_ms > 0.0 {
            SimTime::from_ms(self.rng.gen_range(0.0..self.plan.jitter_ms))
        } else {
            SimTime::ZERO
        }
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    pub(crate) fn incarnation(&self, node: NodeId) -> u64 {
        self.incarnation[node.index()]
    }

    pub(crate) fn crash(&mut self, node: NodeId) {
        self.crashed[node.index()] = true;
        self.incarnation[node.index()] += 1;
    }

    pub(crate) fn restart(&mut self, node: NodeId) {
        self.crashed[node.index()] = false;
    }

    pub(crate) fn crashed_nodes(&self) -> Vec<NodeId> {
        self.crashed
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_severs_only_across_the_cut_inside_the_window() {
        let p = Partition {
            start: SimTime::from_ms(10.0),
            end: SimTime::from_ms(20.0),
            island: vec![NodeId::new(0), NodeId::new(1)],
        };
        let mid = SimTime::from_ms(15.0);
        assert!(p.severs(mid, NodeId::new(0), NodeId::new(2)));
        assert!(p.severs(mid, NodeId::new(2), NodeId::new(1)));
        assert!(
            !p.severs(mid, NodeId::new(0), NodeId::new(1)),
            "inside island"
        );
        assert!(
            !p.severs(mid, NodeId::new(2), NodeId::new(3)),
            "outside island"
        );
        // Window is half-open.
        assert!(!p.severs(SimTime::from_ms(9.9), NodeId::new(0), NodeId::new(2)));
        assert!(!p.severs(SimTime::from_ms(20.0), NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn horizon_covers_partitions_and_crashes() {
        assert_eq!(FaultPlan::new(0).horizon(), SimTime::ZERO);
        let plan = FaultPlan::new(0)
            .with_partition(SimTime::from_ms(5.0), SimTime::from_ms(25.0), vec![])
            .with_crash(
                NodeId::new(1),
                SimTime::from_ms(10.0),
                Some(SimTime::from_ms(60.0)),
            )
            .with_crash(NodeId::new(2), SimTime::from_ms(30.0), None);
        assert_eq!(plan.horizon(), SimTime::from_ms(60.0));
    }

    #[test]
    fn crash_bumps_incarnation_and_restart_clears() {
        let mut state = FaultState::new(FaultPlan::new(0), 2);
        assert!(!state.is_crashed(NodeId::new(1)));
        assert_eq!(state.incarnation(NodeId::new(1)), 0);
        state.crash(NodeId::new(1));
        assert!(state.is_crashed(NodeId::new(1)));
        assert_eq!(state.incarnation(NodeId::new(1)), 1);
        assert_eq!(state.crashed_nodes(), vec![NodeId::new(1)]);
        state.restart(NodeId::new(1));
        assert!(!state.is_crashed(NodeId::new(1)));
        assert_eq!(state.incarnation(NodeId::new(1)), 1, "incarnation survives");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_panics() {
        let _ = FaultPlan::new(0).with_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "restart must come after")]
    fn restart_before_crash_panics() {
        let _ = FaultPlan::new(0).with_crash(
            NodeId::new(0),
            SimTime::from_ms(10.0),
            Some(SimTime::from_ms(5.0)),
        );
    }
}
