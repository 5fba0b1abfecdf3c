//! An actor-style message-passing simulator.
//!
//! Stand-in for ns-2: each overlay node is an [`Actor`]; the
//! [`Simulator`] delivers messages between actors after a delay given
//! by a caller-supplied delay function (typically the end-to-end
//! shortest-path delay between the actors' attachment points) and fires
//! timers actors set for themselves. Execution is single-threaded and
//! fully deterministic.
//!
//! # Example
//!
//! A two-node ping-pong:
//!
//! ```
//! use son_netsim::sim::{Actor, Ctx, Simulator};
//! use son_netsim::{NodeId, SimTime};
//!
//! struct Pinger { got: usize }
//!
//! impl Actor for Pinger {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
//!         if ctx.me() == NodeId::new(0) {
//!             ctx.send(NodeId::new(1), "ping");
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
//!         self.got += 1;
//!         if msg == "ping" {
//!             ctx.send(from, "pong");
//!         }
//!     }
//! }
//!
//! let actors = vec![Pinger { got: 0 }, Pinger { got: 0 }];
//! let mut sim = Simulator::new(actors, |_, _| SimTime::from_ms(1.0));
//! let stats = sim.run_until_quiescent(SimTime::from_ms(100.0));
//! assert_eq!(stats.messages_delivered, 2);
//! assert_eq!(sim.actors()[0].got, 1); // the pong
//! assert_eq!(sim.actors()[1].got, 1); // the ping
//! ```

use crate::event::{EventQueue, SimTime};
use crate::faults::{FaultPlan, FaultState};
use crate::graph::NodeId;

/// Behaviour of a simulated node.
///
/// Implementations receive a [`Ctx`] through which they can send
/// messages and schedule timers; all effects are deferred through the
/// event queue, keeping the run deterministic.
pub trait Actor {
    /// Message type exchanged between actors. `Clone` lets the fault
    /// layer duplicate an in-flight message without help from actors.
    type Msg: Clone;

    /// Called once at time zero, before any message is delivered.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message from `from` arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer previously set via [`Ctx::set_timer`] fires;
    /// `token` is the value passed when the timer was armed.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when this node restarts after an injected crash (see
    /// [`FaultPlan::with_crash`]). The actor is expected to model a
    /// loss of volatile state here — reset soft state, re-arm timers.
    /// Timers armed before the crash never fire again.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Handle through which an actor interacts with the simulation.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    me: NodeId,
    now: SimTime,
    outbox: &'a mut Vec<Effect<M>>,
}

impl<M> Ctx<'_, M> {
    /// The id of the actor this context belongs to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to actor `to`; it arrives after the simulator's
    /// delay function's delay for `(me, to)`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Effect::Send { to, msg });
    }

    /// Arms a timer that fires on this actor after `delay`, carrying
    /// `token` back to [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.outbox.push(Effect::Timer { delay, token });
    }
}

#[derive(Debug)]
enum Effect<M> {
    Send { to: NodeId, msg: M },
    Timer { delay: SimTime, token: u64 },
}

#[derive(Debug)]
enum Event<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    Fire {
        on: NodeId,
        token: u64,
        /// The node's crash incarnation when the timer was armed; a
        /// fire whose incarnation is stale is suppressed.
        incarnation: u64,
    },
    Crash {
        node: NodeId,
    },
    Restart {
        node: NodeId,
    },
}

/// Counters describing a finished simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to [`Actor::on_message`].
    pub messages_delivered: u64,
    /// Messages dropped by injected loss, partitions, or delivery to a
    /// crashed node.
    pub messages_dropped: u64,
    /// Extra deliveries created by injected duplication.
    pub messages_duplicated: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Timer firings suppressed because the node was down or had
    /// crashed since arming.
    pub timers_suppressed: u64,
    /// Injected crash events executed.
    pub crashes: u64,
    /// Injected restart events executed.
    pub restarts: u64,
    /// FNV-1a digest over every processed event (kind, time, nodes).
    /// Two runs of the same simulation with the same fault plan have
    /// identical digests — the cheap always-on determinism witness.
    pub trace_hash: u64,
    /// Simulation time at which the run stopped.
    pub ended_at: SimTime,
}

/// FNV-1a offset basis; the trace hash starts here.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl SimStats {
    /// Folds one event into the trace digest.
    fn mix(&mut self, kind: u8, at: SimTime, a: usize, b: usize) {
        let mut h = self.trace_hash;
        for byte in std::iter::once(kind)
            .chain(at.as_micros().to_le_bytes())
            .chain((a as u64).to_le_bytes())
            .chain((b as u64).to_le_bytes())
        {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.trace_hash = h;
    }
}

// Trace-hash event tags.
const TAG_DELIVER: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_FIRE: u8 = 3;
const TAG_SUPPRESS: u8 = 4;
const TAG_CRASH: u8 = 5;
const TAG_RESTART: u8 = 6;

/// The discrete-event simulator driving a set of actors.
pub struct Simulator<A: Actor, D> {
    actors: Vec<A>,
    delay_fn: D,
    /// When set, invoked per message; returning `true` silently drops
    /// it (lossy-network failure injection).
    loss_fn: Option<Box<dyn FnMut(NodeId, NodeId) -> bool>>,
    /// Installed fault plan state (loss, duplication, jitter,
    /// partitions, crashes), applied inside delivery.
    faults: Option<FaultState>,
    queue: EventQueue<Event<A::Msg>>,
    now: SimTime,
    started: bool,
    stats: SimStats,
    /// Stats already folded into the telemetry registry. `stats` is
    /// cumulative across run calls while registry counters only grow,
    /// so each run folds the delta since the previous one.
    folded: SimStats,
}

impl<A: Actor + std::fmt::Debug, D> std::fmt::Debug for Simulator<A, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("actors", &self.actors)
            .field("now", &self.now)
            .field("lossy", &self.loss_fn.is_some())
            .finish_non_exhaustive()
    }
}

impl<A, D> Simulator<A, D>
where
    A: Actor,
    D: FnMut(NodeId, NodeId) -> SimTime,
{
    /// Creates a simulator over `actors`; actor `i` has id
    /// `NodeId::new(i)`. `delay_fn(from, to)` gives the one-way message
    /// latency between two actors.
    pub fn new(actors: Vec<A>, delay_fn: D) -> Self {
        Simulator {
            actors,
            delay_fn,
            loss_fn: None,
            faults: None,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            started: false,
            stats: SimStats {
                trace_hash: FNV_OFFSET,
                ..SimStats::default()
            },
            folded: SimStats::default(),
        }
    }

    /// Injects message loss: `loss(from, to)` is consulted for every
    /// sent message and dropping it when `true`. Timers are never
    /// lost. Use a seeded closure for reproducible lossy runs.
    pub fn set_loss<L>(&mut self, loss: L)
    where
        L: FnMut(NodeId, NodeId) -> bool + 'static,
    {
        self.loss_fn = Some(Box::new(loss));
    }

    /// Installs a [`FaultPlan`]: seeded loss/duplication/jitter plus
    /// scheduled partitions and crash/restart events, all applied
    /// deterministically inside delivery. Call before running.
    ///
    /// # Panics
    ///
    /// Panics if a crash or partition names a node outside the actor
    /// set, or if the same node carries more than one crash event
    /// (one crash/restart cycle per node keeps incarnations simple).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let n = self.actors.len();
        for c in &plan.crashes {
            assert!(c.node.index() < n, "crash names unknown node {}", c.node);
        }
        for p in &plan.partitions {
            for node in &p.island {
                assert!(node.index() < n, "partition names unknown node {node}");
            }
        }
        for (i, c) in plan.crashes.iter().enumerate() {
            assert!(
                plan.crashes[..i].iter().all(|prev| prev.node != c.node),
                "node {} has more than one crash event",
                c.node
            );
        }
        for c in &plan.crashes {
            self.queue.push(c.at, Event::Crash { node: c.node });
            if let Some(restart) = c.restart {
                self.queue.push(restart, Event::Restart { node: c.node });
            }
        }
        self.faults = Some(FaultState::new(plan, n));
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
    }

    /// Whether `node` is currently down under the installed fault plan.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.is_crashed(node))
    }

    /// The nodes currently down, in id order.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.faults
            .as_ref()
            .map(|f| f.crashed_nodes())
            .unwrap_or_default()
    }

    /// Read access to the actors (e.g. to inspect converged state).
    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// `true` while undelivered events remain in the queue — i.e. a
    /// deadline (not quiescence) ended the last run.
    pub fn has_pending(&self) -> bool {
        self.queue.peek_time().is_some()
    }

    /// Runs until no events remain or simulated time exceeds
    /// `deadline`, whichever comes first. Returns the run statistics.
    ///
    /// Calling it again resumes the same simulation (e.g. with a later
    /// deadline); `on_start` hooks run only once.
    pub fn run_until_quiescent(&mut self, deadline: SimTime) -> SimStats {
        let mut outbox: Vec<Effect<A::Msg>> = Vec::new();
        if !self.started {
            self.started = true;
            for i in 0..self.actors.len() {
                let me = NodeId::new(i);
                let mut ctx = Ctx {
                    me,
                    now: self.now,
                    outbox: &mut outbox,
                };
                self.actors[i].on_start(&mut ctx);
                self.flush(me, &mut outbox);
            }
        }
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event exists");
            self.now = at;
            match event {
                Event::Deliver { from, to, msg } => {
                    // A message addressed to a node that crashed while
                    // it was in flight is lost.
                    if self.faults.as_ref().is_some_and(|f| f.is_crashed(to)) {
                        self.stats.messages_dropped += 1;
                        self.stats.mix(TAG_DROP, self.now, from.index(), to.index());
                        continue;
                    }
                    self.stats.messages_delivered += 1;
                    self.stats
                        .mix(TAG_DELIVER, self.now, from.index(), to.index());
                    let mut ctx = Ctx {
                        me: to,
                        now: self.now,
                        outbox: &mut outbox,
                    };
                    self.actors[to.index()].on_message(&mut ctx, from, msg);
                    self.flush(to, &mut outbox);
                }
                Event::Fire {
                    on,
                    token,
                    incarnation,
                } => {
                    // Timers die with their incarnation: a fire on a
                    // down node, or one armed before a crash, is void.
                    if self
                        .faults
                        .as_ref()
                        .is_some_and(|f| f.is_crashed(on) || f.incarnation(on) != incarnation)
                    {
                        self.stats.timers_suppressed += 1;
                        self.stats
                            .mix(TAG_SUPPRESS, self.now, on.index(), token as usize);
                        continue;
                    }
                    self.stats.timers_fired += 1;
                    self.stats
                        .mix(TAG_FIRE, self.now, on.index(), token as usize);
                    let mut ctx = Ctx {
                        me: on,
                        now: self.now,
                        outbox: &mut outbox,
                    };
                    self.actors[on.index()].on_timer(&mut ctx, token);
                    self.flush(on, &mut outbox);
                }
                Event::Crash { node } => {
                    self.stats.crashes += 1;
                    self.stats.mix(TAG_CRASH, self.now, node.index(), 0);
                    self.faults
                        .as_mut()
                        .expect("crash events exist only with faults installed")
                        .crash(node);
                }
                Event::Restart { node } => {
                    self.stats.restarts += 1;
                    self.stats.mix(TAG_RESTART, self.now, node.index(), 0);
                    self.faults
                        .as_mut()
                        .expect("restart events exist only with faults installed")
                        .restart(node);
                    let mut ctx = Ctx {
                        me: node,
                        now: self.now,
                        outbox: &mut outbox,
                    };
                    self.actors[node.index()].on_restart(&mut ctx);
                    self.flush(node, &mut outbox);
                }
            }
        }
        self.stats.ended_at = self.now;
        self.fold_into_registry();
        self.stats
    }

    /// Folds the event-counter deltas since the previous run into the
    /// global telemetry registry (the trace hash and timestamps are not
    /// counters and stay out). The baseline always advances so a later
    /// `enabled()` flip does not replay history.
    fn fold_into_registry(&mut self) {
        let prev = self.folded;
        self.folded = self.stats;
        if !son_telemetry::enabled() {
            return;
        }
        let registry = son_telemetry::global();
        for (name, now, before) in [
            (
                "netsim.messages_delivered",
                self.stats.messages_delivered,
                prev.messages_delivered,
            ),
            (
                "netsim.messages_dropped",
                self.stats.messages_dropped,
                prev.messages_dropped,
            ),
            (
                "netsim.messages_duplicated",
                self.stats.messages_duplicated,
                prev.messages_duplicated,
            ),
            (
                "netsim.timers_fired",
                self.stats.timers_fired,
                prev.timers_fired,
            ),
            (
                "netsim.timers_suppressed",
                self.stats.timers_suppressed,
                prev.timers_suppressed,
            ),
            ("netsim.crashes", self.stats.crashes, prev.crashes),
            ("netsim.restarts", self.stats.restarts, prev.restarts),
        ] {
            registry.counter(name).add(now.saturating_sub(before));
        }
    }

    fn flush(&mut self, source: NodeId, outbox: &mut Vec<Effect<A::Msg>>) {
        for effect in outbox.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    if let Some(loss) = &mut self.loss_fn {
                        if loss(source, to) {
                            self.stats.messages_dropped += 1;
                            self.stats
                                .mix(TAG_DROP, self.now, source.index(), to.index());
                            continue;
                        }
                    }
                    // Partitions and seeded loss are decided at send
                    // time; jitter and duplication perturb delivery.
                    let mut jitter = SimTime::ZERO;
                    let mut duplicate = false;
                    if let Some(faults) = &mut self.faults {
                        if faults.drops(self.now, source, to) {
                            self.stats.messages_dropped += 1;
                            self.stats
                                .mix(TAG_DROP, self.now, source.index(), to.index());
                            continue;
                        }
                        jitter = faults.jitter();
                        duplicate = faults.duplicates();
                    }
                    let delay = (self.delay_fn)(source, to);
                    if duplicate {
                        let echo_jitter = self
                            .faults
                            .as_mut()
                            .expect("duplicate implies faults")
                            .jitter();
                        self.stats.messages_duplicated += 1;
                        self.queue.push(
                            self.now + delay + echo_jitter,
                            Event::Deliver {
                                from: source,
                                to,
                                msg: msg.clone(),
                            },
                        );
                    }
                    self.queue.push(
                        self.now + delay + jitter,
                        Event::Deliver {
                            from: source,
                            to,
                            msg,
                        },
                    );
                }
                Effect::Timer { delay, token } => {
                    let incarnation = self
                        .faults
                        .as_ref()
                        .map_or(0, |faults| faults.incarnation(source));
                    self.queue.push(
                        self.now + delay,
                        Event::Fire {
                            on: source,
                            token,
                            incarnation,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Actor that floods a counter to all peers once and re-broadcasts
    /// on first receipt (a tiny gossip protocol).
    pub(crate) struct Gossip {
        peers: Vec<NodeId>,
        pub(crate) seen: bool,
        received_at: Option<SimTime>,
    }

    impl Actor for Gossip {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.me() == NodeId::new(0) {
                self.seen = true;
                self.received_at = Some(ctx.now());
                for &p in &self.peers {
                    if p != ctx.me() {
                        ctx.send(p, ());
                    }
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
            if !self.seen {
                self.seen = true;
                self.received_at = Some(ctx.now());
                for &p in &self.peers.clone() {
                    if p != ctx.me() {
                        ctx.send(p, ());
                    }
                }
            }
        }
    }

    pub(crate) fn gossip_net(n: usize) -> Vec<Gossip> {
        let peers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        (0..n)
            .map(|_| Gossip {
                peers: peers.clone(),
                seen: false,
                received_at: None,
            })
            .collect()
    }

    #[test]
    fn gossip_reaches_everyone() {
        let mut sim = Simulator::new(gossip_net(10), |_, _| SimTime::from_ms(1.0));
        sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert!(sim.actors().iter().all(|a| a.seen));
    }

    #[test]
    fn delivery_respects_delay_function() {
        // Node 0 broadcasts at t=0; node k's delay from 0 is k ms.
        let mut sim = Simulator::new(gossip_net(5), |from, to| {
            SimTime::from_ms((from.index() as f64 - to.index() as f64).abs())
        });
        sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        for (k, a) in sim.actors().iter().enumerate().skip(1) {
            // Direct delivery from node 0 is k ms; relayed copies can
            // only arrive later, so first receipt is exactly k ms.
            assert_eq!(a.received_at, Some(SimTime::from_ms(k as f64)), "node {k}");
        }
    }

    #[test]
    fn deadline_stops_the_run() {
        let mut sim = Simulator::new(gossip_net(4), |_, _| SimTime::from_ms(10.0));
        let stats = sim.run_until_quiescent(SimTime::from_ms(5.0));
        // Broadcast is in flight but nothing delivered before 5ms.
        assert_eq!(stats.messages_delivered, 0);
        let stats = sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert!(stats.messages_delivered > 0);
        assert!(sim.actors().iter().all(|a| a.seen));
    }

    struct TimerBox {
        fired: Vec<(u64, SimTime)>,
    }

    impl Actor for TimerBox {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimTime::from_ms(5.0), 5);
            ctx.set_timer(SimTime::from_ms(1.0), 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
            self.fired.push((token, ctx.now()));
            if token == 1 {
                ctx.set_timer(SimTime::from_ms(1.0), 2);
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_can_rearm() {
        let mut sim = Simulator::new(vec![TimerBox { fired: vec![] }], |_, _| SimTime::ZERO);
        let stats = sim.run_until_quiescent(SimTime::from_ms(100.0));
        assert_eq!(stats.timers_fired, 3);
        assert_eq!(
            sim.actors()[0].fired,
            vec![
                (1, SimTime::from_ms(1.0)),
                (2, SimTime::from_ms(2.0)),
                (5, SimTime::from_ms(5.0)),
            ]
        );
    }

    #[test]
    fn injected_loss_drops_messages() {
        // Drop everything: the gossip never spreads.
        let mut sim = Simulator::new(gossip_net(6), |_, _| SimTime::from_ms(1.0));
        sim.set_loss(|_, _| true);
        let stats = sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(stats.messages_dropped, 5);
        assert_eq!(sim.actors().iter().filter(|a| a.seen).count(), 1);

        // Drop every second message: some spread still happens.
        let mut sim = Simulator::new(gossip_net(6), |_, _| SimTime::from_ms(1.0));
        let mut flip = false;
        sim.set_loss(move |_, _| {
            flip = !flip;
            flip
        });
        let stats = sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert!(stats.messages_dropped > 0);
        assert!(stats.messages_delivered > 0);
    }

    #[test]
    fn run_folds_event_counters_into_the_registry() {
        son_telemetry::set_enabled(true);
        let registry = son_telemetry::global();
        let before = registry.counter("netsim.messages_delivered").get();
        let mut sim = Simulator::new(gossip_net(5), |_, _| SimTime::from_ms(1.0));
        let stats = sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        // The registry is global and parallel tests may fold too, so
        // the delta is at least — not exactly — this run's count.
        let after = registry.counter("netsim.messages_delivered").get();
        assert!(
            after >= before + stats.messages_delivered,
            "counter moved {before} -> {after}, run delivered {}",
            stats.messages_delivered
        );
        // Resuming a quiescent run delivers nothing new, and the fold
        // is a delta — cumulative stats are never re-added.
        let again = sim.run_until_quiescent(SimTime::from_ms(2_000.0));
        assert_eq!(again.messages_delivered, stats.messages_delivered);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut sim = Simulator::new(gossip_net(8), |f, t| {
                SimTime::from_ms(((f.index() * 7 + t.index() * 3) % 5 + 1) as f64)
            });
            sim.run_until_quiescent(SimTime::from_ms(1_000.0))
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::sim::tests::gossip_net;

    #[test]
    fn certain_loss_stops_the_gossip() {
        let mut sim = Simulator::new(gossip_net(6), |_, _| SimTime::from_ms(1.0));
        sim.install_faults(FaultPlan::new(7).with_loss(1.0));
        let stats = sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(stats.messages_dropped, 5);
        assert_eq!(sim.actors().iter().filter(|a| a.seen).count(), 1);
    }

    #[test]
    fn certain_duplication_doubles_deliveries() {
        let baseline = {
            let mut sim = Simulator::new(gossip_net(5), |_, _| SimTime::from_ms(1.0));
            sim.run_until_quiescent(SimTime::from_ms(1_000.0))
        };
        let mut sim = Simulator::new(gossip_net(5), |_, _| SimTime::from_ms(1.0));
        sim.install_faults(FaultPlan::new(7).with_duplicate(1.0));
        let stats = sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert_eq!(stats.messages_duplicated, stats.messages_delivered / 2);
        assert!(stats.messages_delivered >= 2 * baseline.messages_delivered);
        assert!(sim.actors().iter().all(|a| a.seen));
    }

    #[test]
    fn partition_blocks_cross_island_traffic() {
        // Island {0,1,2} is cut off for the whole run: the gossip
        // started by node 0 must stay inside the island.
        let island: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut sim = Simulator::new(gossip_net(6), |_, _| SimTime::from_ms(1.0));
        sim.install_faults(FaultPlan::new(1).with_partition(
            SimTime::ZERO,
            SimTime::from_ms(10_000.0),
            island,
        ));
        sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        for (i, a) in sim.actors().iter().enumerate() {
            assert_eq!(a.seen, i < 3, "node {i}");
        }
    }

    #[test]
    fn healed_partition_lets_later_traffic_through() {
        // The cut ends at 0.5ms, before any 1ms-delayed send fires a
        // retransmission — but gossip only sends once, so instead start
        // the partition after the initial flood has been delivered.
        let island: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut sim = Simulator::new(gossip_net(6), |_, _| SimTime::from_ms(1.0));
        sim.install_faults(FaultPlan::new(1).with_partition(
            SimTime::from_ms(100.0),
            SimTime::from_ms(200.0),
            island,
        ));
        sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert!(sim.actors().iter().all(|a| a.seen));
    }

    #[test]
    fn messages_to_a_crashed_node_are_lost() {
        // Node 1 dies before the initial flood (sent at t=0, delivered
        // at t=1ms) reaches it.
        let mut sim = Simulator::new(gossip_net(4), |_, _| SimTime::from_ms(1.0));
        sim.install_faults(FaultPlan::new(1).with_crash(
            NodeId::new(1),
            SimTime::from_ms(0.5),
            None,
        ));
        let stats = sim.run_until_quiescent(SimTime::from_ms(1_000.0));
        assert_eq!(stats.crashes, 1);
        assert!(stats.messages_dropped > 0);
        assert!(!sim.actors()[1].seen);
        assert!(sim.is_crashed(NodeId::new(1)));
        assert_eq!(sim.crashed_nodes(), vec![NodeId::new(1)]);
    }

    /// Arms one timer at start, re-arms from `on_restart`.
    struct Phoenix {
        fired: u64,
        restarted: u64,
    }

    impl Actor for Phoenix {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimTime::from_ms(1.0), 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, _token: u64) {
            self.fired += 1;
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.restarted += 1;
            ctx.set_timer(SimTime::from_ms(1.0), 1);
        }
    }

    #[test]
    fn crash_suppresses_armed_timers_and_restart_rearms() {
        let actors = vec![
            Phoenix {
                fired: 0,
                restarted: 0,
            },
            Phoenix {
                fired: 0,
                restarted: 0,
            },
        ];
        let mut sim = Simulator::new(actors, |_, _| SimTime::ZERO);
        // Node 0 crashes before its 1ms timer and comes back at 5ms;
        // node 1 is untouched.
        sim.install_faults(FaultPlan::new(1).with_crash(
            NodeId::new(0),
            SimTime::from_ms(0.5),
            Some(SimTime::from_ms(5.0)),
        ));
        let stats = sim.run_until_quiescent(SimTime::from_ms(100.0));
        assert_eq!(stats.timers_suppressed, 1, "pre-crash timer must die");
        assert_eq!(stats.restarts, 1);
        assert!(!sim.is_crashed(NodeId::new(0)));
        assert_eq!(sim.actors()[0].restarted, 1);
        assert_eq!(sim.actors()[0].fired, 1, "only the re-armed timer fires");
        assert_eq!(sim.actors()[1].fired, 1);
        assert_eq!(sim.actors()[1].restarted, 0);
    }

    #[test]
    fn same_seed_same_trace_hash() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(gossip_net(8), |f, t| {
                SimTime::from_ms(((f.index() * 7 + t.index() * 3) % 5 + 1) as f64)
            });
            sim.install_faults(
                FaultPlan::new(seed)
                    .with_loss(0.2)
                    .with_duplicate(0.1)
                    .with_jitter_ms(0.5),
            );
            sim.run_until_quiescent(SimTime::from_ms(1_000.0))
        };
        let (a, b) = (run(11), run(11));
        assert_eq!(a, b);
        assert_ne!(a.trace_hash, 0);
        // A different seed perturbs loss/jitter draws and the digest.
        assert_ne!(run(12).trace_hash, a.trace_hash);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn crash_on_unknown_node_is_rejected() {
        let mut sim = Simulator::new(gossip_net(2), |_, _| SimTime::from_ms(1.0));
        sim.install_faults(FaultPlan::new(1).with_crash(
            NodeId::new(9),
            SimTime::from_ms(1.0),
            None,
        ));
    }
}
