//! The hierarchical state distribution protocol (paper Section 4),
//! executed on the deterministic discrete-event simulator.
//!
//! 1. **Local state**: every proxy periodically sends a local state
//!    message (its installed service names) to every proxy of its own
//!    cluster; receivers update their `SCT_P`.
//! 2. **Aggregate state**: every border proxy periodically aggregates
//!    its cluster's capabilities (union over its `SCT_P`) and sends an
//!    aggregate state message to the neighbor border proxies of other
//!    clusters. A border proxy receiving such a message updates its
//!    `SCT_C` and forwards it to the other proxies of its own cluster.
//!
//! That is [`DissemMode::Flooding`], the paper verbatim — O(m²)
//! messages per cluster per round. [`DissemMode::Tree`] replaces the
//! intra-cluster legs with row deltas along a per-cluster broadcast
//! tree ([`son_overlay::DissemForest`]) rooted at the busiest border
//! proxy, keeps the border-pair aggregate exchange point-to-point but
//! rate-limited, and falls back to flooding repair when a tree parent
//! goes silent. Same version guards, same anti-entropy refresh, same
//! ground-truth convergence check.

use crate::checker::{ConvergenceChecker, Staleness};
use crate::tables::{Row, SctC, SctP};
use son_netsim::faults::FaultPlan;
use son_netsim::graph::NodeId;
use son_netsim::sim::{Actor, Ctx, Simulator};
use son_netsim::SimTime;
use son_overlay::{ClusterId, DelayModel, DissemForest, HfcTopology, ProxyId, ServiceSet};
use std::iter::once;
use std::sync::Arc;

/// How table rows travel *inside* a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DissemMode {
    /// Section 4 verbatim: every proxy floods its local state to every
    /// cluster peer, and borders re-flood every known remote aggregate
    /// — O(m²) messages per cluster per round. The baseline.
    #[default]
    Flooding,
    /// Row deltas along a per-cluster [`DissemForest`] tree rooted at
    /// the busiest border proxy (O(m) messages per cluster per round),
    /// borders exchanging aggregates pairwise — at most one per
    /// aggregate period — without intra-cluster re-flooding, and a
    /// proxy whose parent goes silent flooding its state until the
    /// parent returns. Needs anti-entropy refresh to converge — use
    /// [`ProtocolConfig::tree`].
    Tree,
}

/// Timing parameters of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Period between local state broadcasts, in milliseconds.
    pub local_period_ms: f64,
    /// Period between aggregate state broadcasts, in milliseconds.
    pub aggregate_period_ms: f64,
    /// How many periods each proxy runs before going quiet. With
    /// static services two rounds reach convergence; the default keeps
    /// one round of slack.
    pub rounds: usize,
    /// Anti-entropy refresh period in milliseconds. When positive,
    /// every proxy keeps re-broadcasting its local state (and borders
    /// their aggregates) forever at this period, so any entry a lost
    /// message left stale is repaired by a later refresh. `0.0`
    /// disables it and preserves the legacy fixed-round quiescence.
    pub refresh_period_ms: f64,
    /// Intra-cluster dissemination: Section 4 flooding (default) or
    /// broadcast trees over the cluster structure.
    pub mode: DissemMode,
    /// Child-count bound for [`DissemMode::Tree`] broadcast trees.
    pub tree_fanout: usize,
    /// Tree mode: how long a parent may stay silent (no sync received)
    /// before its children declare it gone and fall back to flooding
    /// repair. Should cover a few refresh periods so jitter and a
    /// quick crash/restart don't trigger it.
    pub repair_after_ms: f64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            local_period_ms: 10.0,
            aggregate_period_ms: 15.0,
            rounds: 3,
            refresh_period_ms: 0.0,
            mode: DissemMode::Flooding,
            tree_fanout: son_overlay::DEFAULT_TREE_FANOUT,
            repair_after_ms: 120.0,
        }
    }
}

impl ProtocolConfig {
    /// A fault-tolerant preset: anti-entropy refresh on, so the
    /// protocol converges through message loss, partitions that heal,
    /// and crash/restart cycles. Pair with
    /// [`StateProtocol::run_until_converged`] — with refresh on, the
    /// event queue never drains.
    pub fn resilient() -> Self {
        ProtocolConfig {
            refresh_period_ms: 40.0,
            ..ProtocolConfig::default()
        }
    }

    /// The resilient preset with tree dissemination on: state travels
    /// along per-cluster broadcast trees instead of being flooded.
    /// Refresh is mandatory here — tree repair leans on it, and a
    /// deep tree needs periodic rounds to push rows across its hops.
    pub fn tree() -> Self {
        ProtocolConfig {
            mode: DissemMode::Tree,
            ..ProtocolConfig::resilient()
        }
    }
}

/// Messages exchanged by the protocol. Every message carries the
/// simulated time (in microseconds) at which its content was
/// *produced*; receivers hold that version beside each table row and
/// ignore rows older than the one they already hold (the guard is in
/// [`crate::tables`]), so duplicated or reordered deliveries can never
/// roll a table backwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateMsg {
    /// A proxy's own service names, flooded within its cluster.
    Local {
        /// Installed services of the sender.
        services: ServiceSet,
        /// Production time of this snapshot, in simulated µs.
        version: u64,
    },
    /// A cluster's aggregate service set, exchanged between border
    /// proxies and forwarded within clusters.
    Aggregate {
        /// The cluster being described.
        cluster: ClusterId,
        /// Union of the cluster's service sets.
        services: ServiceSet,
        /// Production time at the originating border, in simulated µs.
        /// Intra-cluster forwards keep the original version.
        version: u64,
    },
    /// Tree mode: the table rows the sender changed since the receiver
    /// acknowledged them (a periodic sync; a cascade or its re-send, if
    /// it was sent them twice since) — its whole table after a restart
    /// or to answer a [`Repair`](StateMsg::Repair). Rows keep their
    /// origin's version.
    TreeSync { rows: Arc<Rows>, mark: Mark },
    /// Tree mode's flooding fallback: a proxy whose parent went silent
    /// broadcasts everything it knows to every cluster peer. Receivers
    /// merge it like a [`TreeSync`](StateMsg::TreeSync) *and* reply
    /// with their own full tables, so the orphan both teaches and
    /// relearns.
    Repair(Arc<Rows>),
}

/// The row batch of one tree-mode send. Every duplicate the fault plan
/// injects — and every recipient of a [`StateMsg::Repair`] — shares it;
/// receivers read it by reference and clone only the rows that were
/// news to them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Rows {
    /// `SCT_P` rows.
    pub sctp: Vec<Row<ProxyId>>,
    /// `SCT_C` rows.
    pub sctc: Vec<Row<ClusterId>>,
}

/// The change numbers a [`StateMsg::TreeSync`] carries. A proxy numbers
/// the table writes that change a set, from 0 again at each (re)boot;
/// its boot time (µs) names the incarnation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mark {
    /// The sender's incarnation.
    pub boot: u64,
    /// The rows are the sender's changes in `(base, upto]`, less those
    /// the receiver sent it; a `base` of 0 is the whole table.
    pub base: u32,
    /// The sender's last change when it sent them.
    pub upto: u32,
    /// The receiver's incarnation and change up to which the sender
    /// holds all its rows.
    pub ack: (u64, u32),
}

/// One tree edge as one of its ends sees it.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// The neighbour at the other end.
    to: ProxyId,
    /// Its incarnation as last heard (everyone first boots at 0).
    boot: u64,
    /// Its change up to which this proxy holds every row.
    heard: u32,
    /// This proxy's change up to which the neighbour acknowledged all.
    acked: u32,
    /// This proxy's change up to which rows were shipped to it, by the
    /// last send and by the one before.
    sent: u32,
    prev: u32,
}

impl Link {
    /// This proxy's change after which a row may have reached the
    /// neighbour by one send at most, unacknowledged.
    fn unsure(&self) -> u32 {
        self.prev.max(self.acked)
    }
}

const LOCAL_TIMER: u64 = 1;
const AGGREGATE_TIMER: u64 = 2;
const REFRESH_TIMER: u64 = 3;
const ADVERT_TIMER: u64 = 4;
const RESEND_TIMER: u64 = 5;

/// One proxy's protocol state machine.
#[derive(Debug)]
pub struct ProxyActor {
    id: ProxyId,
    cluster: ClusterId,
    services: ServiceSet,
    /// Other members of the local cluster.
    peers: Vec<ProxyId>,
    /// Remote border proxies this proxy (as a border) must advertise
    /// to: one per neighboring cluster where this proxy is the border.
    border_duties: Vec<ProxyId>,
    /// Tree-mode parent in the cluster's broadcast tree; `None` for
    /// the cluster root (and for every proxy in flooding mode).
    parent: Option<ProxyId>,
    /// Tree-mode edges to the parent (first) and the children.
    links: Vec<Link>,
    /// Simulated µs at which the parent was last heard from (any
    /// `TreeSync` or `Repair` it sent). Reset on (re)boot.
    parent_heard_at: u64,
    /// When this incarnation booted, and its last change number.
    boot: u64,
    seq: u32,
    /// Tree mode: `Some` while the hold after an advertisement runs,
    /// `Some(true)` once another is owed at its end.
    hold: Option<bool>,
    /// Tree mode: `true` while a re-send of the last cascades is due.
    resend: bool,
    config: ProtocolConfig,
    local_rounds_left: usize,
    aggregate_rounds_left: usize,
    /// Full state of the local cluster, each row beside the newest
    /// version (simulated µs) applied to it.
    pub sctp: SctP,
    /// Aggregate state of every cluster, versioned the same way.
    pub sctc: SctC,
    /// Local state messages sent. Survives restarts — the counters
    /// account for total network overhead, not per-incarnation work.
    pub sent_local: u64,
    /// Aggregate state messages sent (including intra-cluster
    /// forwards).
    pub sent_aggregate: u64,
    /// Deliveries ignored because a fresher version of the same row was
    /// already applied — the version guard firing on duplicated or
    /// reordered messages. Survives restarts like the sent counters.
    pub ignored_stale: u64,
    /// Anti-entropy refresh rounds executed (one per `REFRESH_TIMER`
    /// firing). Survives restarts.
    pub refresh_rounds: u64,
    /// Tree-mode messages sent (syncs, cascades, repairs and their
    /// replies). Survives restarts like the other sent counters.
    pub sent_tree: u64,
    /// Rows carried by those messages.
    pub rows_sent: u64,
    /// Messages flooding would have sent at the same decision points
    /// but the tree did not — the measured savings.
    pub suppressed: u64,
    /// Repair rounds entered because the tree parent went silent.
    pub repairs: u64,
}

impl ProxyActor {
    fn broadcast_local(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        let version = ctx.now().as_micros();
        for &peer in &self.peers {
            ctx.send(
                NodeId::new(peer.index()),
                StateMsg::Local {
                    services: self.services.clone(),
                    version,
                },
            );
            self.sent_local += 1;
        }
    }

    /// Advertises the cluster aggregate to the remote border pairs.
    /// Tree mode sends at most one advertisement per aggregate period,
    /// periodic or event-driven: at once when the last went out a
    /// period ago, else when the period ends, with whatever accumulated.
    fn advertise(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        if self.tree_mode() {
            if self.hold.is_some() {
                self.hold = Some(true);
                return;
            }
            self.hold = Some(false);
            let period = SimTime::from_ms(self.config.aggregate_period_ms);
            ctx.set_timer(period, ADVERT_TIMER);
        }
        let aggregate = self.sctp.aggregate();
        let version = ctx.now().as_micros();
        // The own-cluster row is derived from SCT_P on every proxy, so
        // it is written version-less and never shipped.
        self.sctc.update(self.cluster, aggregate.clone());
        self.sctc.stamp(self.cluster, version);
        for &remote in &self.border_duties {
            ctx.send(
                NodeId::new(remote.index()),
                StateMsg::Aggregate {
                    cluster: self.cluster,
                    services: aggregate.clone(),
                    version,
                },
            );
            self.sent_aggregate += 1;
        }
    }

    /// Re-forwards every known remote aggregate to the local cluster —
    /// the periodic leg of Section 4 rule 2. Without this, the final
    /// update of a table could ride a single (droppable) message once
    /// the advertisement rounds run out.
    fn reforward_known_aggregates(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        for (cluster, services, version) in self.sctc.rows() {
            if cluster == self.cluster {
                continue;
            }
            for &peer in &self.peers {
                ctx.send(
                    NodeId::new(peer.index()),
                    StateMsg::Aggregate {
                        cluster,
                        services: services.clone(),
                        version,
                    },
                );
                self.sent_aggregate += 1;
            }
        }
    }

    fn tree_mode(&self) -> bool {
        self.config.mode == DissemMode::Tree
    }

    /// The rows changed since `base` that `to` lacks.
    fn rows_for(&self, base: u32, to: ProxyId) -> Rows {
        Rows {
            sctp: self.sctp.rows_since(base, to),
            sctc: self.sctc.rows_since(base, to),
        }
    }

    /// Drops the change logs below every neighbour's acknowledgement.
    fn trim_logs(&mut self) {
        let floor = self.links.iter().map(|link| link.acked).min();
        self.sctp.forget(floor.unwrap_or(self.seq));
        self.sctc.forget(floor.unwrap_or(self.seq));
    }

    /// The one tree send path: a [`StateMsg::TreeSync`] to `to` with
    /// the rows changed since `since` of its edge (0 for a non-neighbour:
    /// the whole table) and this proxy's acknowledgement of `to`'s.
    fn ship(&mut self, ctx: &mut Ctx<'_, StateMsg>, to: ProxyId, since: fn(&Link) -> u32) {
        let (seq, boot) = (self.seq, self.boot);
        let link = self.links.iter_mut().find(|link| link.to == to);
        let (base, ack) = link.map_or((0, (0, 0)), |link| {
            let base = since(link);
            link.prev = link.sent;
            link.sent = seq;
            (base, (link.boot, link.heard))
        });
        let rows = Arc::new(self.rows_for(base, to));
        self.rows_sent += (rows.sctp.len() + rows.sctc.len()) as u64;
        self.sent_tree += 1;
        let mark = Mark {
            boot,
            base,
            upto: seq,
            ack,
        };
        ctx.send(NodeId::new(to.index()), StateMsg::TreeSync { rows, mark });
    }

    /// One periodic tree round: the parent and every child get what
    /// they have not acknowledged — a bare acknowledgement when that
    /// is nothing. Flooding would have sent one message per cluster
    /// peer here — the difference is the tree's saving.
    fn tree_sync_round(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        for i in 0..self.links.len() {
            self.ship(ctx, self.links[i].to, |link| link.acked);
        }
        self.suppressed += (self.peers.len() as u64).saturating_sub(self.links.len() as u64);
    }

    /// Relays what changed to every tree neighbor except the one it
    /// came from — the event-driven wave that lets a deep tree
    /// converge without waiting one refresh period per hop. Unless
    /// acknowledged, a change rides two sends, so one lost cascade is
    /// repaired by the next rather than by the next refresh; the last
    /// one has no next, so an aggregate period after a cascade (one
    /// re-send pending at a time) each edge's last send goes again.
    fn cascade(&mut self, ctx: &mut Ctx<'_, StateMsg>, except: Option<ProxyId>) {
        for i in 0..self.links.len() {
            if Some(self.links[i].to) != except {
                self.ship(ctx, self.links[i].to, Link::unsure);
            }
        }
        if !self.resend {
            self.resend = true;
            let period = SimTime::from_ms(self.config.aggregate_period_ms);
            ctx.set_timer(period, RESEND_TIMER);
        }
    }

    /// Applies a batch of rows `sender` relayed under the same version
    /// guards as the flooding handlers, returning whether the
    /// own-cluster aggregate moved.
    fn merge_rows(&mut self, ctx: &mut Ctx<'_, StateMsg>, sender: ProxyId, rows: &Rows) -> bool {
        let (before, from) = (self.seq, Some(sender));
        for (proxy, set, version) in rows.sctp.iter().filter(|row| row.0 != self.id) {
            let stamp = (*version, &mut self.seq, from);
            self.ignored_stale += u64::from(self.sctp.apply(*proxy, set, stamp).is_none());
        }
        // The local cluster's aggregate stays derived from SCT_P, like
        // the flooding handler does on every Local delivery.
        let aggregate_changed =
            self.seq > before && self.sctc.update(self.cluster, self.sctp.aggregate());
        if aggregate_changed {
            self.sctc.stamp(self.cluster, ctx.now().as_micros());
        }
        for (cluster, set, version) in &rows.sctc {
            let stamp = (*version, &mut self.seq, from);
            self.ignored_stale += u64::from(self.sctc.apply(*cluster, set, stamp).is_none());
        }
        aggregate_changed
    }

    /// A [`StateMsg::TreeSync`] (with its `mark`) or a
    /// [`StateMsg::Repair`] arrived.
    fn on_rows(
        &mut self,
        ctx: &mut Ctx<'_, StateMsg>,
        sender: ProxyId,
        rows: &Rows,
        mark: Option<Mark>,
    ) {
        if Some(sender) == self.parent {
            self.parent_heard_at = ctx.now().as_micros();
        }
        let before = self.seq;
        let aggregate_changed = self.merge_rows(ctx, sender, rows);
        let link = self.links.iter_mut().find(|l| l.to == sender);
        if let (Some(mark), Some(link)) = (mark, link) {
            if mark.boot > link.boot {
                // It rebooted with empty tables: whatever it had
                // acknowledged is gone, and its changes start over.
                (link.boot, link.heard, link.acked, link.sent, link.prev) = (mark.boot, 0, 0, 0, 0);
            }
            if mark.boot == link.boot {
                if mark.base <= link.heard {
                    link.heard = link.heard.max(mark.upto);
                }
                if mark.ack.0 == self.boot {
                    link.acked = link.acked.max(mark.ack.1);
                }
            }
            self.trim_logs();
        }
        // Same event-driven leg as flooding: a border whose cluster
        // aggregate changed re-advertises to its remote pairs.
        if aggregate_changed && !self.border_duties.is_empty() {
            self.advertise(ctx);
        }
        if self.seq > before {
            self.cascade(ctx, Some(sender));
        }
    }

    /// Initial-knowledge seeding plus timer arming, shared by cold
    /// start and post-crash restart.
    fn boot(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        let now = ctx.now().as_micros();
        self.boot = now;
        // A proxy always knows itself.
        self.sctp
            .apply(self.id, &self.services, (now, &mut self.seq, None));
        self.sctc.update(self.cluster, self.services.clone());
        self.parent_heard_at = now;
        if self.local_rounds_left > 0 {
            self.local_rounds_left -= 1;
            if self.tree_mode() {
                self.tree_sync_round(ctx);
            } else {
                self.broadcast_local(ctx);
            }
            ctx.set_timer(SimTime::from_ms(self.config.local_period_ms), LOCAL_TIMER);
        }
        if !self.border_duties.is_empty() && self.aggregate_rounds_left > 0 {
            self.aggregate_rounds_left -= 1;
            self.advertise(ctx);
            ctx.set_timer(
                SimTime::from_ms(self.config.aggregate_period_ms),
                AGGREGATE_TIMER,
            );
        }
        if self.config.refresh_period_ms > 0.0 {
            ctx.set_timer(
                SimTime::from_ms(self.config.refresh_period_ms),
                REFRESH_TIMER,
            );
        }
    }
}

impl Actor for ProxyActor {
    type Msg = StateMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        self.boot(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StateMsg>, from: NodeId, msg: StateMsg) {
        let sender = ProxyId::new(from.index());
        match msg {
            StateMsg::Local { services, version } => {
                // A duplicated or reordered delivery older than what we
                // hold must not roll the row back.
                let stamp = (version, &mut self.seq, None);
                let Some(changed) = self.sctp.apply(sender, &services, stamp) else {
                    self.ignored_stale += 1;
                    return;
                };
                // The local cluster's aggregate is derivable from SCT_P
                // without any extra messages — keep it fresh.
                let aggregate_changed = self.sctc.update(self.cluster, self.sctp.aggregate());
                if aggregate_changed {
                    self.sctc.stamp(self.cluster, ctx.now().as_micros());
                }
                // A border whose cluster aggregate just changed
                // re-advertises immediately rather than waiting for the
                // next period; otherwise slow local-state deliveries
                // could outlive the advertising rounds.
                if changed && aggregate_changed && !self.border_duties.is_empty() {
                    self.advertise(ctx);
                }
            }
            StateMsg::Aggregate {
                cluster,
                services,
                version,
            } => {
                // Stale aggregate: a fresher snapshot of this cluster
                // was already applied, so neither merge nor forward.
                // Otherwise merge (set union): services are static, so
                // aggregates are monotone and merging makes delivery
                // order and duplicate retransmissions harmless.
                let stamp = (version, &mut self.seq, None);
                let Some(changed) = self.sctc.apply(cluster, &services, stamp) else {
                    self.ignored_stale += 1;
                    return;
                };
                let from_outside = !self.peers.contains(&sender) && sender != self.id;
                if from_outside {
                    if self.tree_mode() {
                        // Subscription-style: the border pair exchange
                        // already delivered the row; inward it rides
                        // the tree, and only when it said something
                        // new. Periodic tree refresh repairs losses.
                        if changed {
                            self.cascade(ctx, None);
                        } else {
                            self.suppressed += self.peers.len() as u64;
                        }
                    } else {
                        // A border proxy that received the message from
                        // outside its own cluster forwards it inward,
                        // unconditionally (Section 4 rule 2) — the
                        // repetition is what lets the protocol ride out
                        // message loss.
                        for &peer in &self.peers {
                            ctx.send(
                                NodeId::new(peer.index()),
                                StateMsg::Aggregate {
                                    cluster,
                                    services: services.clone(),
                                    version,
                                },
                            );
                            self.sent_aggregate += 1;
                        }
                    }
                }
            }
            StateMsg::TreeSync { rows, mark } => self.on_rows(ctx, sender, &rows, Some(mark)),
            StateMsg::Repair(rows) => {
                self.on_rows(ctx, sender, &rows, None);
                // The orphan's broadcast is also a plea: answer with
                // everything we know so it relearns what its dead
                // parent would have relayed.
                self.ship(ctx, sender, |_| 0);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StateMsg>, token: u64) {
        match token {
            LOCAL_TIMER if self.local_rounds_left > 0 => {
                self.local_rounds_left -= 1;
                if self.tree_mode() {
                    self.tree_sync_round(ctx);
                } else {
                    self.broadcast_local(ctx);
                }
                ctx.set_timer(SimTime::from_ms(self.config.local_period_ms), LOCAL_TIMER);
            }
            AGGREGATE_TIMER if self.aggregate_rounds_left > 0 => {
                self.aggregate_rounds_left -= 1;
                self.advertise(ctx);
                if self.tree_mode() {
                    // No periodic re-flood of remote aggregates: the
                    // tree syncs carry them batched. Account for what
                    // flooding would have sent right here.
                    self.suppressed +=
                        self.sctc.len().saturating_sub(1) as u64 * self.peers.len() as u64;
                } else {
                    self.reforward_known_aggregates(ctx);
                }
                ctx.set_timer(
                    SimTime::from_ms(self.config.aggregate_period_ms),
                    AGGREGATE_TIMER,
                );
            }
            // The hold ends either way; an owed advertisement goes now.
            ADVERT_TIMER if self.hold.take() == Some(true) => self.advertise(ctx),
            // Rows the last cascades shipped once go again.
            RESEND_TIMER => {
                self.resend = false;
                for i in 0..self.links.len() {
                    if self.links[i].sent > self.links[i].unsure() {
                        self.ship(ctx, self.links[i].to, Link::unsure);
                    }
                }
            }
            REFRESH_TIMER => {
                // Anti-entropy: unconditionally re-send everything we
                // know, forever. Any row a lost message left stale is
                // repaired at most one refresh period later — along
                // tree edges in tree mode, by re-flooding otherwise.
                self.refresh_rounds += 1;
                self.trim_logs();
                if self.tree_mode() {
                    let silent = ctx.now().as_micros().saturating_sub(self.parent_heard_at);
                    if self.parent.is_some()
                        && silent > (self.config.repair_after_ms * 1_000.0) as u64
                    {
                        // Parent gone: fall back to Section 4 flooding
                        // until it answers again. Peers reply with
                        // their tables, so the orphaned subtree keeps
                        // both teaching and learning.
                        self.repairs += 1;
                        son_telemetry::flight::flight().record(
                            son_telemetry::flight::FlightEvent::new(
                                son_telemetry::flight::FlightKind::TreeRepair,
                            )
                            .tick(ctx.now().as_micros())
                            .proxy(self.id.index() as u32),
                        );
                        let rows = Arc::new(self.rows_for(0, self.id));
                        for &peer in &self.peers {
                            ctx.send(NodeId::new(peer.index()), StateMsg::Repair(rows.clone()));
                        }
                        self.sent_tree += self.peers.len() as u64;
                        self.rows_sent +=
                            self.peers.len() as u64 * (rows.sctp.len() + rows.sctc.len()) as u64;
                    } else {
                        self.tree_sync_round(ctx);
                    }
                    if !self.border_duties.is_empty() {
                        self.advertise(ctx);
                    }
                    self.suppressed +=
                        self.sctc.len().saturating_sub(1) as u64 * self.peers.len() as u64;
                } else {
                    self.broadcast_local(ctx);
                    if !self.border_duties.is_empty() {
                        self.advertise(ctx);
                    }
                    self.reforward_known_aggregates(ctx);
                }
                ctx.set_timer(
                    SimTime::from_ms(self.config.refresh_period_ms),
                    REFRESH_TIMER,
                );
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        // Volatile state dies with the crash: tables, versions, change
        // numbers, what each tree edge acknowledged, the advertisement
        // hold and a due re-send (their timers died too) and the round
        // budget reset; the message counters survive because they
        // account for network overhead, not per-incarnation work.
        self.sctp = SctP::new();
        self.sctc = SctC::new();
        self.seq = 0;
        for link in &mut self.links {
            (link.boot, link.heard, link.acked, link.sent, link.prev) = (0, 0, 0, 0, 0);
        }
        self.hold = None;
        self.resend = false;
        self.local_rounds_left = self.config.rounds;
        self.aggregate_rounds_left = self.config.rounds;
        self.boot(ctx);
    }
}

/// Outcome of a protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateReport {
    /// `true` when every **live** proxy reached full local state and
    /// correct aggregates for all clusters, re-checked against the
    /// ground truth at the end of the run — never inferred from round
    /// counts.
    pub converged: bool,
    /// Stale table rows (missing, spurious or wrong-valued) summed
    /// over all live proxies at the end of the run. Zero iff
    /// `converged`.
    pub stale_entries: usize,
    /// Proxies down when the run ended.
    pub crashed_proxies: usize,
    /// Simulated time when the run went quiescent (or hit the
    /// deadline).
    pub ended_at: SimTime,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped by injected loss, partitions, or crashed
    /// receivers.
    pub messages_dropped: u64,
    /// Local state messages sent.
    pub local_messages: u64,
    /// Aggregate state messages sent (border exchange + forwards).
    pub aggregate_messages: u64,
    /// Extra deliveries created by injected duplication.
    pub messages_duplicated: u64,
    /// Deliveries ignored by receivers because a fresher version of the
    /// same table row was already applied.
    pub stale_ignored: u64,
    /// Anti-entropy refresh rounds executed across all proxies.
    pub refresh_rounds: u64,
    /// Tree-mode messages sent (syncs, cascades, repairs and replies).
    /// Zero in flooding mode.
    pub tree_messages: u64,
    /// Rows carried by tree-mode messages (`TreeSync` and `Repair`
    /// payloads; injected duplicates not counted).
    pub rows_sent: u64,
    /// Messages flooding would have sent that tree mode did not.
    pub tree_suppressed: u64,
    /// Tree-mode repair rounds entered (parent silence fallbacks).
    pub tree_repairs: u64,
    /// FNV-1a digest of the full event trace — identical seeds and
    /// fault plans reproduce identical hashes.
    pub trace_hash: u64,
}

impl StateReport {
    /// Everything the protocol put on the wire: local + aggregate +
    /// tree messages. The number the flooding-vs-tree comparison uses.
    pub fn messages_sent(&self) -> u64 {
        self.local_messages + self.aggregate_messages + self.tree_messages
    }
}

/// Drives the protocol for a whole overlay.
///
/// # Example
///
/// ```
/// use son_clustering::Clustering;
/// use son_overlay::{DelayMatrix, HfcTopology, ServiceId, ServiceSet};
/// use son_state::{ProtocolConfig, StateProtocol};
///
/// let clustering = Clustering::from_labels(&[0, 0, 1, 1]);
/// let delays = DelayMatrix::from_values(4, vec![
///     0.0, 1.0, 4.0, 9.0,
///     1.0, 0.0, 6.0, 9.0,
///     4.0, 6.0, 0.0, 1.0,
///     9.0, 9.0, 1.0, 0.0,
/// ]);
/// let hfc = HfcTopology::build(&clustering, &delays);
/// let services: Vec<ServiceSet> = (0..4)
///     .map(|i| ServiceSet::from_iter([ServiceId::new(i)]))
///     .collect();
/// let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
/// let report = protocol.run_to_quiescence();
/// assert!(report.converged);
/// ```
pub struct StateProtocol {
    simulator: Simulator<ProxyActor, Box<dyn FnMut(NodeId, NodeId) -> SimTime>>,
    checker: ConvergenceChecker,
    config: ProtocolConfig,
    /// The broadcast trees rows travel along in [`DissemMode::Tree`];
    /// `None` in flooding mode.
    forest: Option<DissemForest>,
    /// Per proxy, the `(boot, seq)` its tables were last checked at and
    /// what the check found — see [`StateProtocol::tracked_staleness`].
    checked: Vec<Option<((u64, u32), Staleness)>>,
    /// Counter values already folded into the telemetry registry.
    /// Simulator and actor counters are cumulative over the protocol's
    /// lifetime while registry counters only grow, so each report folds
    /// the delta since the previous one.
    folded: [u64; 11],
}

impl std::fmt::Debug for StateProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateProtocol")
            .field("proxies", &self.simulator.actors().len())
            .finish_non_exhaustive()
    }
}

impl StateProtocol {
    /// Builds actors for every proxy in `hfc` with the given installed
    /// `services` (indexed by proxy), delivering messages with delays
    /// from `delays`.
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count.
    pub fn new<D>(
        hfc: &HfcTopology,
        services: Vec<ServiceSet>,
        delays: &D,
        config: ProtocolConfig,
    ) -> Self
    where
        D: DelayModel + Clone + 'static,
    {
        assert_eq!(
            services.len(),
            hfc.proxy_count(),
            "one service set per proxy required"
        );
        let n = hfc.proxy_count();
        let forest = (config.mode == DissemMode::Tree)
            .then(|| DissemForest::build(hfc, delays, config.tree_fanout));
        let mut actors = Vec::with_capacity(n);
        for (p, service_set) in services.iter().enumerate() {
            let id = ProxyId::new(p);
            let cluster = hfc.cluster_of(id);
            let peers: Vec<ProxyId> = hfc
                .members(cluster)
                .iter()
                .copied()
                .filter(|&m| m != id)
                .collect();
            let mut border_duties = Vec::new();
            for other in hfc.clusters() {
                if other == cluster {
                    continue;
                }
                let pair = hfc.border(cluster, other);
                if pair.local == id {
                    border_duties.push(pair.remote);
                }
            }
            let (parent, children) = forest
                .as_ref()
                .map_or((None, &[][..]), |f| (f.parent_of(id), f.children_of(id)));
            actors.push(ProxyActor {
                id,
                cluster,
                services: service_set.clone(),
                peers,
                border_duties,
                parent,
                links: parent
                    .iter()
                    .chain(children)
                    .map(|&to| Link {
                        to,
                        ..Link::default()
                    })
                    .collect(),
                parent_heard_at: 0,
                boot: 0,
                seq: 0,
                hold: None,
                resend: false,
                config: config.clone(),
                local_rounds_left: config.rounds,
                aggregate_rounds_left: config.rounds,
                sctp: SctP::new(),
                sctc: SctC::new(),
                sent_local: 0,
                sent_aggregate: 0,
                ignored_stale: 0,
                refresh_rounds: 0,
                sent_tree: 0,
                rows_sent: 0,
                suppressed: 0,
                repairs: 0,
            });
        }

        let checker = ConvergenceChecker::new(hfc, &services);

        let delays = delays.clone();
        let delay_fn: Box<dyn FnMut(NodeId, NodeId) -> SimTime> = Box::new(move |a, b| {
            SimTime::from_ms(delays.delay(ProxyId::new(a.index()), ProxyId::new(b.index())))
        });

        StateProtocol {
            simulator: Simulator::new(actors, delay_fn),
            checker,
            config,
            forest,
            checked: vec![None; n],
            folded: [0; 11],
        }
    }

    /// The dissemination trees of a [`DissemMode::Tree`] run; `None`
    /// in flooding mode.
    pub fn forest(&self) -> Option<&DissemForest> {
        self.forest.as_ref()
    }

    /// Injects reproducible random message loss: every protocol
    /// message is dropped independently with probability `probability`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn inject_loss(&mut self, probability: f64, seed: u64) {
        assert!(
            (0.0..=1.0).contains(&probability),
            "loss probability must be in [0, 1], got {probability}"
        );
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        self.simulator
            .set_loss(move |_, _| rng.gen_bool(probability));
    }

    /// Installs a fault plan (seeded loss/duplication/jitter,
    /// partitions, crash/restart events) on the underlying simulator.
    /// Install before the first run call.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node the overlay doesn't have, or if
    /// a node crashes more than once.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.simulator.install_faults(plan);
    }

    /// Runs until all scheduled protocol rounds complete and the event
    /// queue drains.
    ///
    /// With anti-entropy refresh enabled the queue never drains — use
    /// [`run_until_converged`](Self::run_until_converged) instead.
    pub fn run_to_quiescence(&mut self) -> StateReport {
        self.run_until(SimTime::from_ms(f64::MAX / 1e6))
    }

    /// Runs until `deadline` (or quiescence, whichever comes first).
    pub fn run_until(&mut self, deadline: SimTime) -> StateReport {
        let stats = self.simulator.run_until_quiescent(deadline);
        let staleness = self.staleness();
        self.report(stats, staleness)
    }

    /// Runs in slices until every live proxy's tables match the ground
    /// truth, the queue drains, or `deadline` passes — whichever comes
    /// first. Convergence is not declared before the fault plan's
    /// [horizon](FaultPlan::horizon): a scheduled crash or partition
    /// can still perturb tables that currently look converged. Between
    /// slices only the proxies whose tables changed are re-checked
    /// ([`tracked_staleness`](Self::tracked_staleness)).
    pub fn run_until_converged(&mut self, deadline: SimTime) -> StateReport {
        let horizon = self
            .simulator
            .fault_plan()
            .map_or(SimTime::ZERO, FaultPlan::horizon);
        let slice = SimTime::from_ms(
            self.config
                .local_period_ms
                .max(self.config.aggregate_period_ms)
                .max(self.config.refresh_period_ms)
                .max(1.0),
        );
        let mut target = slice;
        loop {
            let bound = target.min(deadline);
            let stats = self.simulator.run_until_quiescent(bound);
            let settled = !self.simulator.has_pending();
            let staleness = self.tracked_staleness();
            if (staleness.is_converged() && self.simulator.now() >= horizon)
                || settled
                || bound >= deadline
            {
                return self.report(stats, staleness);
            }
            target += slice;
        }
    }

    fn report(&mut self, stats: son_netsim::SimStats, staleness: Staleness) -> StateReport {
        let actors = self.simulator.actors();
        let report = StateReport {
            converged: staleness.is_converged(),
            stale_entries: staleness.total(),
            crashed_proxies: self.simulator.crashed_nodes().len(),
            ended_at: stats.ended_at,
            messages_delivered: stats.messages_delivered,
            messages_dropped: stats.messages_dropped,
            local_messages: actors.iter().map(|a| a.sent_local).sum(),
            aggregate_messages: actors.iter().map(|a| a.sent_aggregate).sum(),
            messages_duplicated: stats.messages_duplicated,
            stale_ignored: actors.iter().map(|a| a.ignored_stale).sum(),
            refresh_rounds: actors.iter().map(|a| a.refresh_rounds).sum(),
            tree_messages: actors.iter().map(|a| a.sent_tree).sum(),
            rows_sent: actors.iter().map(|a| a.rows_sent).sum(),
            tree_suppressed: actors.iter().map(|a| a.suppressed).sum(),
            tree_repairs: actors.iter().map(|a| a.repairs).sum(),
            trace_hash: stats.trace_hash,
        };
        self.fold_into_registry(&report);
        report
    }

    /// Folds the counter deltas since the previous report into the
    /// global telemetry registry, and updates the run-level gauges.
    /// The baseline always advances so a later `enabled()` flip does not
    /// replay history; registry writes happen only while telemetry is
    /// on.
    fn fold_into_registry(&mut self, report: &StateReport) {
        let r = report;
        let counters = [
            ("state.messages_delivered", r.messages_delivered),
            ("state.messages_dropped", r.messages_dropped),
            ("state.messages_duplicated", r.messages_duplicated),
            ("state.local_sent", r.local_messages),
            ("state.aggregate_sent", r.aggregate_messages),
            ("state.stale_ignored", r.stale_ignored),
            ("state.refresh_rounds", r.refresh_rounds),
            ("state.tree.sent", r.tree_messages),
            ("state.tree.rows_sent", r.rows_sent),
            ("state.tree.suppressed", r.tree_suppressed),
            ("state.tree.repairs", r.tree_repairs),
        ];
        let prev = std::mem::replace(&mut self.folded, counters.map(|(_, now)| now));
        if !son_telemetry::enabled() {
            return;
        }
        let registry = son_telemetry::global();
        for ((name, now), before) in counters.into_iter().zip(prev) {
            registry.counter(name).add(now.saturating_sub(before));
        }
        if let Some(forest) = &self.forest {
            registry
                .gauge("state.tree.depth")
                .set(forest.max_depth() as f64);
        }
        registry
            .gauge("state.convergence_ms")
            .set(report.ended_at.as_micros() as f64 / 1e3);
        registry
            .gauge("state.stale_entries")
            .set(report.stale_entries as f64);
        registry
            .gauge("state.converged")
            .set(if report.converged { 1.0 } else { 0.0 });
        registry
            .gauge("state.crashed_proxies")
            .set(report.crashed_proxies as f64);
    }

    /// Compares every live proxy's tables against the ground truth.
    /// Crashed proxies are skipped; rows *about* them held by live
    /// proxies must still be correct (installed services are static).
    pub fn staleness(&self) -> Staleness {
        self.checker.staleness(
            self.simulator
                .actors()
                .iter()
                .enumerate()
                .filter(|(p, _)| !self.simulator.is_crashed(NodeId::new(*p)))
                .map(|(p, a)| (ProxyId::new(p), &a.sctp, &a.sctc)),
        )
    }

    /// [`staleness`](Self::staleness), re-checking only the live proxies
    /// whose tables changed since their last check here: a proxy's
    /// change sequence number grows with every write that changes a
    /// set, and a restart names a new incarnation, so a cached count is
    /// reused exactly while `(boot, seq)` has not moved past it.
    pub fn tracked_staleness(&mut self) -> Staleness {
        let mut total = Staleness::default();
        for (p, a) in self.simulator.actors().iter().enumerate() {
            if self.simulator.is_crashed(NodeId::new(p)) {
                continue;
            }
            let at = (a.boot, a.seq);
            let checked = &mut self.checked[p];
            if checked.is_none_or(|(seen, _)| at > seen) {
                let own = once((ProxyId::new(p), &a.sctp, &a.sctc));
                *checked = Some((at, self.checker.staleness(own)));
            }
            let (_, own) = checked.expect("checked above");
            total.stale_sctp += own.stale_sctp;
            total.stale_sctc += own.stale_sctc;
            total.checked_proxies += 1;
        }
        total
    }

    /// Per-proxy health as the serving layer should see it right now:
    ///
    /// * **`Down`** — the proxy is crashed in the fault simulation;
    /// * **`Draining`** — alive, but its own tables have drifted from
    ///   the converged state (it missed refreshes, so routing decisions
    ///   it participates in may be stale — take no *new* sessions);
    /// * **`Up`** — alive with converged tables.
    ///
    /// Feed the result into an engine snapshot via
    /// [`StatusMap`](son_overlay::StatusMap) builders; capacities and
    /// utilization are the serving layer's business, not the state
    /// protocol's.
    pub fn health_view(&self) -> son_overlay::StatusMap {
        let healths: Vec<son_overlay::Health> = self
            .simulator
            .actors()
            .iter()
            .enumerate()
            .map(|(p, a)| {
                if self.simulator.is_crashed(NodeId::new(p)) {
                    son_overlay::Health::Down
                } else {
                    let own = self
                        .checker
                        .staleness(once((ProxyId::new(p), &a.sctp, &a.sctc)));
                    if own.total() > 0 {
                        son_overlay::Health::Draining
                    } else {
                        son_overlay::Health::Up
                    }
                }
            })
            .collect();
        son_overlay::StatusMap::from_health(&healths)
    }

    /// The tables of one proxy.
    ///
    /// # Panics
    ///
    /// Panics if `proxy` is out of range.
    pub fn tables_of(&self, proxy: ProxyId) -> (&SctP, &SctC) {
        let a = &self.simulator.actors()[proxy.index()];
        (&a.sctp, &a.sctc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::{DelayMatrix, ServiceId};

    /// 6 proxies, 3 clusters on a line (same fixture as the overlay
    /// crate's HFC tests).
    fn three_cluster_world() -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
        let xs: [f64; 6] = [0.0, 1.0, 10.0, 11.0, 30.0, 31.0];
        let n = xs.len();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (xs[i] - xs[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let clustering = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        let hfc = HfcTopology::build(&clustering, &delays);
        // Proxy i carries service i, plus proxy 0 and 5 share service 9.
        let services: Vec<ServiceSet> = (0..n)
            .map(|i| {
                let mut s = ServiceSet::from_iter([ServiceId::new(i)]);
                if i == 0 || i == 5 {
                    s.insert(ServiceId::new(9));
                }
                s
            })
            .collect();
        (hfc, delays, services)
    }

    #[test]
    fn protocol_converges() {
        let (hfc, delays, services) = three_cluster_world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        let report = protocol.run_to_quiescence();
        assert!(report.converged, "{report:?}");
        assert!(report.messages_delivered > 0);
        assert!(report.local_messages > 0);
        assert!(report.aggregate_messages > 0);
    }

    #[test]
    fn tables_reflect_cluster_structure() {
        let (hfc, delays, services) = three_cluster_world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        protocol.run_to_quiescence();
        // Proxy 0 (cluster 0) knows proxies 0 and 1 in SCT_P...
        let (sctp, sctc) = protocol.tables_of(ProxyId::new(0));
        assert_eq!(sctp.len(), 2);
        assert!(sctp.services_of(ProxyId::new(1)).is_some());
        assert!(sctp.services_of(ProxyId::new(2)).is_none(), "other cluster");
        // ...and all three clusters in SCT_C.
        assert_eq!(sctc.len(), 3);
        // Service 9 lives in clusters 0 (proxy 0) and 2 (proxy 5).
        assert_eq!(
            sctc.clusters_with(ServiceId::new(9)),
            vec![ClusterId::new(0), ClusterId::new(2)]
        );
    }

    #[test]
    fn health_view_tracks_crashes_and_staleness() {
        let (hfc, delays, services) = three_cluster_world();
        let mut protocol = StateProtocol::new(
            &hfc,
            services,
            &delays,
            ProtocolConfig {
                refresh_period_ms: 40.0,
                ..ProtocolConfig::default()
            },
        );
        // Before any message flows, live proxies are stale: Draining.
        protocol.run_until(SimTime::from_ms(0.5));
        let early = protocol.health_view();
        assert!((0..6).any(|p| early.health(ProxyId::new(p)) == son_overlay::Health::Draining));

        // Crash proxy 4 permanently, then let everyone else converge.
        let mut protocol = {
            let (hfc, delays, services) = three_cluster_world();
            let mut p = StateProtocol::new(
                &hfc,
                services,
                &delays,
                ProtocolConfig {
                    refresh_period_ms: 40.0,
                    ..ProtocolConfig::default()
                },
            );
            // Crash after the first full exchange so live peers keep
            // proxy 4's (static, still correct) rows.
            p.install_faults(FaultPlan::new(9).with_crash(
                NodeId::new(4),
                SimTime::from_ms(100.0),
                None,
            ));
            p
        };
        protocol.run_until(SimTime::from_ms(400.0));
        let view = protocol.health_view();
        assert_eq!(view.health(ProxyId::new(4)), son_overlay::Health::Down);
        assert!(!view.is_routable(ProxyId::new(4)));
        for p in [0, 1, 2, 3, 5] {
            assert_eq!(
                view.health(ProxyId::new(p)),
                son_overlay::Health::Up,
                "proxy {p} converged and alive"
            );
        }
    }

    #[test]
    fn no_convergence_before_messages_arrive() {
        let (hfc, delays, services) = three_cluster_world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        let report = protocol.run_until(SimTime::from_ms(0.5));
        assert!(
            !report.converged,
            "nothing can converge in half a millisecond"
        );
        let report = protocol.run_to_quiescence();
        assert!(report.converged);
    }

    #[test]
    fn single_cluster_needs_no_aggregate_messages() {
        let n = 4;
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = if i == j { 0.0 } else { 1.0 };
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let clustering = Clustering::from_labels(&[0, 0, 0, 0]);
        let hfc = HfcTopology::build(&clustering, &delays);
        let services: Vec<ServiceSet> = (0..n)
            .map(|i| ServiceSet::from_iter([ServiceId::new(i)]))
            .collect();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        let report = protocol.run_to_quiescence();
        assert!(report.converged);
        assert_eq!(report.aggregate_messages, 0);
    }

    #[test]
    fn message_volume_scales_with_rounds() {
        let (hfc, delays, services) = three_cluster_world();
        let run = |rounds: usize| {
            let config = ProtocolConfig {
                rounds,
                ..ProtocolConfig::default()
            };
            let mut protocol = StateProtocol::new(&hfc, services.clone(), &delays, config);
            protocol.run_to_quiescence()
        };
        let one = run(1);
        let three = run(3);
        // Even a single round converges thanks to the event-driven
        // re-advertisement borders perform when their aggregate
        // changes; more rounds just cost more messages.
        assert!(one.converged);
        assert!(three.converged);
        assert!(three.local_messages > one.local_messages);
    }

    #[test]
    #[should_panic(expected = "one service set per proxy")]
    fn wrong_service_count_panics() {
        let (hfc, delays, _) = three_cluster_world();
        let _ = StateProtocol::new(&hfc, vec![], &delays, ProtocolConfig::default());
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::{DelayMatrix, ServiceId};

    fn world() -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
        let n = 12;
        let pos: Vec<f64> = (0..n)
            .map(|i| (i / 4) as f64 * 200.0 + (i % 4) as f64 * 3.0)
            .collect();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (pos[i] - pos[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let labels: Vec<usize> = (0..n).map(|i| i / 4).collect();
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        let services: Vec<ServiceSet> = (0..n)
            .map(|i| ServiceSet::from_iter([ServiceId::new(i)]))
            .collect();
        (hfc, delays, services)
    }

    #[test]
    fn protocol_survives_moderate_loss() {
        let (hfc, delays, services) = world();
        // Periodic retransmission is the protocol's loss defence: with
        // enough rounds, a 25% drop rate still converges.
        let config = ProtocolConfig {
            rounds: 8,
            ..ProtocolConfig::default()
        };
        let mut protocol = StateProtocol::new(&hfc, services, &delays, config);
        protocol.inject_loss(0.25, 7);
        let report = protocol.run_to_quiescence();
        assert!(report.converged, "{report:?}");
    }

    #[test]
    fn total_loss_prevents_convergence() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        protocol.inject_loss(1.0, 1);
        let report = protocol.run_to_quiescence();
        assert!(!report.converged);
        assert_eq!(report.messages_delivered, 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        protocol.inject_loss(1.5, 0);
    }
}

#[cfg(test)]
mod fault_tolerance_tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::{DelayMatrix, ServiceId};

    fn world() -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
        let n = 12;
        let pos: Vec<f64> = (0..n)
            .map(|i| (i / 4) as f64 * 200.0 + (i % 4) as f64 * 3.0)
            .collect();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (pos[i] - pos[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let labels: Vec<usize> = (0..n).map(|i| i / 4).collect();
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        let services: Vec<ServiceSet> = (0..n)
            .map(|i| ServiceSet::from_iter([ServiceId::new(i)]))
            .collect();
        (hfc, delays, services)
    }

    #[test]
    fn anti_entropy_converges_through_heavy_loss() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::resilient());
        protocol.install_faults(FaultPlan::new(3).with_loss(0.3));
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged, "{report:?}");
        assert_eq!(report.stale_entries, 0);
        assert!(report.messages_dropped > 0, "loss must actually bite");
    }

    #[test]
    fn converges_after_a_partition_heals() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::resilient());
        // Cluster 0 (proxies 0-3) is cut off for the first 100ms.
        protocol.install_faults(FaultPlan::new(1).with_partition(
            SimTime::ZERO,
            SimTime::from_ms(100.0),
            (0..4).map(NodeId::new).collect(),
        ));
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged, "{report:?}");
        assert!(
            report.ended_at >= SimTime::from_ms(100.0),
            "cannot converge while the partition still hides cluster 0"
        );
    }

    #[test]
    fn restarted_proxy_relearns_everything() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::resilient());
        // Proxy 5 crashes after the initial rounds converged and comes
        // back with empty tables; anti-entropy must re-teach it.
        protocol.install_faults(FaultPlan::new(1).with_crash(
            NodeId::new(5),
            SimTime::from_ms(60.0),
            Some(SimTime::from_ms(90.0)),
        ));
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged, "{report:?}");
        assert_eq!(report.crashed_proxies, 0);
        let (sctp, sctc) = protocol.tables_of(ProxyId::new(5));
        assert_eq!(sctp.len(), 4, "full cluster relearned");
        assert_eq!(sctc.len(), 3, "all aggregates relearned");
    }

    #[test]
    fn permanently_crashed_proxy_is_excluded_from_the_check() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::resilient());
        // Proxy 1 is not a border (borders connect nearest pairs of
        // clusters; interior members carry no duties) and never comes
        // back.
        protocol.install_faults(FaultPlan::new(1).with_crash(
            NodeId::new(1),
            SimTime::from_ms(5.0),
            None,
        ));
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged, "{report:?}");
        assert_eq!(report.crashed_proxies, 1);
        let staleness = protocol.staleness();
        assert_eq!(staleness.checked_proxies, 11);
        // Live proxies still hold correct rows about the dead one.
        let (sctp, _) = protocol.tables_of(ProxyId::new(0));
        assert_eq!(
            sctp.services_of(ProxyId::new(1)),
            Some(&ServiceSet::from_iter([ServiceId::new(1)]))
        );
    }

    #[test]
    fn unconverged_report_counts_stale_entries() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        protocol.inject_loss(1.0, 1);
        let report = protocol.run_to_quiescence();
        assert!(!report.converged);
        assert!(report.stale_entries > 0, "{report:?}");
    }

    #[test]
    fn duplication_and_refresh_are_counted() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::resilient());
        protocol.install_faults(
            FaultPlan::new(11)
                .with_loss(0.1)
                .with_duplicate(0.2)
                .with_jitter_ms(2.0),
        );
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged, "{report:?}");
        assert!(report.messages_duplicated > 0, "duplication must bite");
        assert!(report.refresh_rounds > 0, "anti-entropy must have run");
        // With duplication and jitter, some deliveries arrive after a
        // fresher version was applied and hit the version guard.
        assert!(report.stale_ignored > 0, "{report:?}");
    }

    #[test]
    fn report_folds_protocol_counters_into_the_registry() {
        let (hfc, delays, services) = world();
        son_telemetry::set_enabled(true);
        let registry = son_telemetry::global();
        let before = registry.counter("state.local_sent").get();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::default());
        let report = protocol.run_to_quiescence();
        // The registry is global and other tests may fold too, so the
        // delta is at least — not exactly — this run's contribution.
        let after = registry.counter("state.local_sent").get();
        assert!(
            after >= before + report.local_messages,
            "local_sent counter moved {before} -> {after}, report says {}",
            report.local_messages
        );
        assert!(registry.counter("state.messages_delivered").get() >= report.messages_delivered);
        assert!(registry.gauge("state.converged").get() == 1.0);
        // Re-reporting must not double-count: a second zero-progress run
        // adds a zero delta, never the cumulative totals again.
        let mid = registry.counter("state.local_sent").get();
        let again = protocol.run_until(report.ended_at);
        assert_eq!(again.local_messages, report.local_messages);
        let end = registry.counter("state.local_sent").get();
        // Other parallel tests may add their own local_sent, but this
        // protocol instance contributed nothing new.
        assert!(end >= mid);
    }

    #[test]
    fn same_plan_same_trace_hash() {
        let (hfc, delays, services) = world();
        let run = |seed: u64| {
            let mut protocol =
                StateProtocol::new(&hfc, services.clone(), &delays, ProtocolConfig::resilient());
            protocol.install_faults(
                FaultPlan::new(seed)
                    .with_loss(0.15)
                    .with_duplicate(0.05)
                    .with_jitter_ms(1.0),
            );
            protocol.run_until_converged(SimTime::from_ms(5_000.0))
        };
        let (a, b) = (run(42), run(42));
        assert_eq!(a, b);
        assert_ne!(a.trace_hash, run(43).trace_hash);
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;
    use son_clustering::Clustering;
    use son_overlay::{DelayMatrix, ServiceId};

    /// 30 proxies, 3 clusters of 10 — big enough clusters that the
    /// fanout-4 trees grow real interior nodes and flooding's m(m-1)
    /// per-round cost dwarfs the tree's 2(m-1).
    fn world() -> (HfcTopology, DelayMatrix, Vec<ServiceSet>) {
        let n = 30;
        let pos: Vec<f64> = (0..n)
            .map(|i| (i / 10) as f64 * 50.0 + (i % 10) as f64 * 3.0)
            .collect();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (pos[i] - pos[j]).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let labels: Vec<usize> = (0..n).map(|i| i / 10).collect();
        let hfc = HfcTopology::build(&Clustering::from_labels(&labels), &delays);
        let services: Vec<ServiceSet> = (0..n)
            .map(|i| ServiceSet::from_iter([ServiceId::new(i)]))
            .collect();
        (hfc, delays, services)
    }

    #[test]
    fn tree_mode_converges_with_correct_tables() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::tree());
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged, "{report:?}");
        assert_eq!(report.stale_entries, 0);
        assert!(report.tree_messages > 0);
        assert_eq!(report.local_messages, 0, "no intra-cluster flooding");
        // Ground truth, not self-report: every proxy holds the full
        // cluster in SCT_P and all three aggregates in SCT_C.
        for p in 0..30 {
            let (sctp, sctc) = protocol.tables_of(ProxyId::new(p));
            assert_eq!(sctp.len(), 10, "proxy {p}");
            assert_eq!(sctc.len(), 3, "proxy {p}");
        }
        let forest = protocol.forest().expect("tree mode builds a forest");
        assert!(forest.max_depth() >= 2, "fanout 4 over 10 members");
    }

    #[test]
    fn tree_mode_sends_far_fewer_messages_than_flooding() {
        let (hfc, delays, services) = world();
        let run = |config: ProtocolConfig| {
            let mut protocol = StateProtocol::new(&hfc, services.clone(), &delays, config);
            let report = protocol.run_until(SimTime::from_ms(400.0));
            assert!(report.converged, "{report:?}");
            report
        };
        let flooding = run(ProtocolConfig::resilient());
        let tree = run(ProtocolConfig::tree());
        // Same horizon, same timers, same world: the tree must cut
        // total message volume by well over the 3x the bench targets.
        assert!(
            tree.messages_sent() * 3 <= flooding.messages_sent(),
            "tree {} vs flooding {}",
            tree.messages_sent(),
            flooding.messages_sent()
        );
        assert!(tree.tree_suppressed > 0, "suppression must be counted");
    }

    #[test]
    fn orphans_repair_through_a_permanent_parent_crash() {
        let (hfc, delays, services) = world();
        let mut protocol =
            StateProtocol::new(&hfc, services.clone(), &delays, ProtocolConfig::tree());
        // Pick a non-root, non-border tree parent: its children lose
        // their only sync source and must flood a Repair.
        let duties = hfc.border_duty_counts();
        let forest = protocol.forest().unwrap();
        let victim = (0..30)
            .map(ProxyId::new)
            .find(|p| {
                forest.parent_of(*p).is_some()
                    && !forest.children_of(*p).is_empty()
                    && duties[p.index()] == 0
            })
            .expect("a 10-member fanout-4 tree has interior non-border nodes");
        protocol.install_faults(FaultPlan::new(1).with_crash(
            NodeId::new(victim.index()),
            SimTime::from_ms(60.0),
            None,
        ));
        // Repairs also land on the flight recorder so per-request
        // timelines show dissemination-tree trouble.
        let recorder = son_telemetry::flight::flight();
        let watermark = recorder.recorded();
        recorder.set_enabled(true);
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        recorder.set_enabled(false);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.stale_entries, 0);
        assert_eq!(report.crashed_proxies, 1);
        assert!(report.tree_repairs > 0, "orphans must have repaired");
        let repair_events = recorder
            .since(watermark)
            .into_iter()
            .filter(|e| matches!(e.kind, son_telemetry::flight::FlightKind::TreeRepair))
            .count() as u64;
        assert!(
            repair_events > 0 && repair_events <= report.tree_repairs,
            "{repair_events} flight repairs vs {} counted",
            report.tree_repairs
        );
    }

    #[test]
    fn tree_mode_survives_loss_duplication_and_healed_partitions() {
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::tree());
        protocol.install_faults(
            FaultPlan::new(7)
                .with_loss(0.2)
                .with_duplicate(0.05)
                .with_jitter_ms(1.0)
                .with_partition(
                    SimTime::ZERO,
                    SimTime::from_ms(100.0),
                    (0..10).map(NodeId::new).collect(),
                ),
        );
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged, "{report:?}");
        assert_eq!(report.stale_entries, 0);
        assert!(report.messages_dropped > 0, "loss must actually bite");
    }

    #[test]
    fn tree_runs_are_deterministic_and_seed_sensitive() {
        let (hfc, delays, services) = world();
        let run = |seed: u64| {
            let mut protocol =
                StateProtocol::new(&hfc, services.clone(), &delays, ProtocolConfig::tree());
            protocol.install_faults(
                FaultPlan::new(seed)
                    .with_loss(0.15)
                    .with_duplicate(0.05)
                    .with_jitter_ms(1.0),
            );
            protocol.run_until_converged(SimTime::from_ms(5_000.0))
        };
        let (a, b) = (run(42), run(42));
        assert_eq!(a, b);
        assert_ne!(a.trace_hash, run(43).trace_hash);
    }

    #[test]
    fn flooding_trace_is_untouched_by_the_tree_machinery() {
        // The tree code must be invisible when the mode is off: a
        // flooding run reports zero tree activity.
        let (hfc, delays, services) = world();
        let mut protocol = StateProtocol::new(&hfc, services, &delays, ProtocolConfig::resilient());
        let report = protocol.run_until_converged(SimTime::from_ms(5_000.0));
        assert!(report.converged);
        assert_eq!(report.tree_messages, 0);
        assert_eq!(report.tree_suppressed, 0);
        assert_eq!(report.tree_repairs, 0);
        assert!(protocol.forest().is_none());
    }
}
