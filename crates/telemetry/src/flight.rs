//! Flight recorder: a lock-free bounded ring of structured events.
//!
//! Counters answer "how much"; the flight recorder answers "what
//! happened just now". Subsystems append fixed-size [`FlightEvent`]s —
//! snapshot installs, health transitions, cache verdicts, failover
//! retries, admission dispositions, dissemination tree repairs, worker
//! stage timings — each carrying a request id, epoch, proxy id, and
//! worker id so a per-request timeline can be reconstructed after the
//! fact from [`FlightRecorder::since`].
//!
//! The ring is a fixed array of slots claimed by a global ticket
//! counter. Each slot is a seqlock: a state word encodes
//! empty / writing(seq) / complete(seq), and five payload words hold
//! the packed event. A writer that finds its slot still occupied by a
//! stalled older writer never takes the slot over (that could publish a
//! torn payload as complete); it spins briefly, then drops its *own*
//! event and counts it in `dropped`. [`FlightRecorder::record`] returns
//! the assigned sequence number only when the event was durably
//! published, so tests can assert that no *acknowledged* event within
//! the most recent `capacity` window is ever lost.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::registry::Registry;

/// Default slot count for the process-wide recorder.
const DEFAULT_FLIGHT_CAPACITY: usize = 8192;

/// Sentinel for events not tied to a request.
pub const NO_REQUEST: u64 = u64::MAX;
/// Sentinel for events not tied to a proxy.
pub const NO_PROXY: u32 = u32::MAX;
/// Sentinel for events not tied to a worker.
pub const NO_WORKER: u16 = u16::MAX;

/// How a cache consultation resolved for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheVerdict {
    /// Fresh exact-key hit.
    Hit,
    /// Exact-key miss; the request went to the solver.
    Miss,
    /// Stale entry served under the stale-while-revalidate budget.
    StaleServe,
    /// Stale entry found but unusable (budget exhausted or path down).
    StaleDrop,
    /// Negative-cache hit: known-unroutable, rejected without solving.
    NegativeHit,
    /// CSP-tier prefix hit during an exact miss.
    CspHit,
    /// Cached path crossed a down/draining proxy and was discarded.
    HealthDrop,
}

/// Serving pipeline stage, used by [`FlightKind::StageTime`] events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Route computation (CSP solve, fallback retries).
    Route,
    /// Admission control and path-health validation.
    Admit,
    /// Cache lookups, inserts, and revalidation.
    Cache,
    /// Whole-loop busy time for one worker.
    Busy,
    /// Wall time the worker sat idle while the batch completed.
    Idle,
}

/// Final disposition of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispositionMark {
    /// Served on an optimal path.
    Optimal,
    /// Served on a degraded (constraint-relaxed or stale) path.
    Degraded,
    /// Rejected: source cluster has no live ingress.
    RejectNoIngress,
    /// Rejected: admission control found no capacity.
    RejectOverloaded,
    /// Rejected: no feasible path exists.
    RejectUnroutable,
}

/// What one flight event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A new engine snapshot was installed (`epoch` is the new epoch).
    SnapshotInstall,
    /// A proxy's health changed; `value` is the new state ordinal
    /// (0 = up, 1 = draining, 2 = down).
    HealthTransition,
    /// A cache consultation resolved (`CacheVerdict`).
    CacheVerdict(CacheVerdict),
    /// A failover retry: the chosen path failed validation and the
    /// solver re-ran avoiding `proxy`.
    FailoverRetry,
    /// Final disposition of a request.
    Disposition(DispositionMark),
    /// A dissemination tree repair fired on `proxy`.
    TreeRepair,
    /// Per-worker stage timing for one serve batch; `value` is µs.
    StageTime(Stage),
}

impl FlightKind {
    fn encode(self) -> (u8, u8) {
        match self {
            FlightKind::SnapshotInstall => (0, 0),
            FlightKind::HealthTransition => (1, 0),
            FlightKind::CacheVerdict(v) => (2, v as u8),
            FlightKind::FailoverRetry => (3, 0),
            FlightKind::Disposition(d) => (4, d as u8),
            FlightKind::TreeRepair => (5, 0),
            FlightKind::StageTime(s) => (6, s as u8),
        }
    }

    fn decode(kind: u8, detail: u8) -> FlightKind {
        match kind {
            0 => FlightKind::SnapshotInstall,
            1 => FlightKind::HealthTransition,
            2 => FlightKind::CacheVerdict(match detail {
                0 => CacheVerdict::Hit,
                1 => CacheVerdict::Miss,
                2 => CacheVerdict::StaleServe,
                3 => CacheVerdict::StaleDrop,
                4 => CacheVerdict::NegativeHit,
                5 => CacheVerdict::CspHit,
                _ => CacheVerdict::HealthDrop,
            }),
            3 => FlightKind::FailoverRetry,
            4 => FlightKind::Disposition(match detail {
                0 => DispositionMark::Optimal,
                1 => DispositionMark::Degraded,
                2 => DispositionMark::RejectNoIngress,
                3 => DispositionMark::RejectOverloaded,
                _ => DispositionMark::RejectUnroutable,
            }),
            5 => FlightKind::TreeRepair,
            _ => FlightKind::StageTime(match detail {
                0 => Stage::Route,
                1 => Stage::Admit,
                2 => Stage::Cache,
                3 => Stage::Busy,
                _ => Stage::Idle,
            }),
        }
    }

    /// Short lowercase label, e.g. `cache.stale_serve`.
    pub fn label(&self) -> String {
        match self {
            FlightKind::SnapshotInstall => "snapshot.install".to_string(),
            FlightKind::HealthTransition => "health.transition".to_string(),
            FlightKind::CacheVerdict(v) => format!(
                "cache.{}",
                match v {
                    CacheVerdict::Hit => "hit",
                    CacheVerdict::Miss => "miss",
                    CacheVerdict::StaleServe => "stale_serve",
                    CacheVerdict::StaleDrop => "stale_drop",
                    CacheVerdict::NegativeHit => "negative_hit",
                    CacheVerdict::CspHit => "csp_hit",
                    CacheVerdict::HealthDrop => "health_drop",
                }
            ),
            FlightKind::FailoverRetry => "failover.retry".to_string(),
            FlightKind::Disposition(d) => format!(
                "disposition.{}",
                match d {
                    DispositionMark::Optimal => "optimal",
                    DispositionMark::Degraded => "degraded",
                    DispositionMark::RejectNoIngress => "reject_no_ingress",
                    DispositionMark::RejectOverloaded => "reject_overloaded",
                    DispositionMark::RejectUnroutable => "reject_unroutable",
                }
            ),
            FlightKind::TreeRepair => "tree.repair".to_string(),
            FlightKind::StageTime(s) => format!(
                "stage.{}",
                match s {
                    Stage::Route => "route",
                    Stage::Admit => "admit",
                    Stage::Cache => "cache",
                    Stage::Busy => "busy",
                    Stage::Idle => "idle",
                }
            ),
        }
    }
}

/// One structured event in the flight ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (assigned by the recorder on publish).
    pub seq: u64,
    /// Request ids handed out when the event was recorded.
    pub tick: u64,
    /// Request id, or [`NO_REQUEST`] for global events.
    pub request: u64,
    /// Snapshot epoch in effect when the event fired.
    pub epoch: u64,
    /// Proxy involved, or [`NO_PROXY`].
    pub proxy: u32,
    /// Worker that recorded the event, or [`NO_WORKER`].
    pub worker: u16,
    /// What happened.
    pub kind: FlightKind,
    /// Kind-specific payload (µs for stage timings, health ordinal for
    /// transitions, 0 otherwise).
    pub value: f64,
}

impl FlightEvent {
    /// Builds an event not tied to any request, proxy, or worker.
    pub fn new(kind: FlightKind) -> FlightEvent {
        FlightEvent {
            seq: 0,
            tick: 0,
            request: NO_REQUEST,
            epoch: 0,
            proxy: NO_PROXY,
            worker: NO_WORKER,
            kind,
            value: 0.0,
        }
    }

    /// Sets the served-request tick.
    pub fn tick(mut self, tick: u64) -> FlightEvent {
        self.tick = tick;
        self
    }

    /// Ties the event to a request id.
    pub fn request(mut self, request: u64) -> FlightEvent {
        self.request = request;
        self
    }

    /// Sets the snapshot epoch.
    pub fn epoch(mut self, epoch: u64) -> FlightEvent {
        self.epoch = epoch;
        self
    }

    /// Ties the event to a proxy.
    pub fn proxy(mut self, proxy: u32) -> FlightEvent {
        self.proxy = proxy;
        self
    }

    /// Ties the event to a worker.
    pub fn worker(mut self, worker: usize) -> FlightEvent {
        self.worker = worker.min(NO_WORKER as usize - 1) as u16;
        self
    }

    /// Sets the kind-specific payload value.
    pub fn value(mut self, value: f64) -> FlightEvent {
        self.value = value;
        self
    }

    fn pack(&self) -> [u64; 5] {
        let (kind, detail) = self.kind.encode();
        let packed = (kind as u64)
            | ((detail as u64) << 8)
            | ((self.worker as u64) << 16)
            | ((self.proxy as u64) << 32);
        [
            self.tick,
            self.request,
            self.epoch,
            packed,
            self.value.to_bits(),
        ]
    }

    fn unpack(seq: u64, words: [u64; 5]) -> FlightEvent {
        let packed = words[3];
        FlightEvent {
            seq,
            tick: words[0],
            request: words[1],
            epoch: words[2],
            proxy: (packed >> 32) as u32,
            worker: ((packed >> 16) & 0xFFFF) as u16,
            kind: FlightKind::decode((packed & 0xFF) as u8, ((packed >> 8) & 0xFF) as u8),
            value: f64::from_bits(words[4]),
        }
    }
}

// Slot state word: 0 = empty, ((seq+1) << 1) | 1 = writing(seq),
// (seq+1) << 1 = complete(seq). The +1 keeps seq 0 distinct from empty.
const EMPTY: u64 = 0;

fn writing(seq: u64) -> u64 {
    ((seq + 1) << 1) | 1
}

fn complete(seq: u64) -> u64 {
    (seq + 1) << 1
}

fn state_seq(state: u64) -> Option<u64> {
    if state == EMPTY {
        None
    } else {
        Some((state >> 1) - 1)
    }
}

fn state_is_writing(state: u64) -> bool {
    state != EMPTY && state & 1 == 1
}

struct Slot {
    state: AtomicU64,
    words: [AtomicU64; 5],
}

impl Slot {
    /// An empty slot. Every word is a constant zero (no per-word call),
    /// so a ring of them is built as zeroed memory whose pages are
    /// touched only as events land.
    const fn new() -> Slot {
        Slot {
            state: AtomicU64::new(EMPTY),
            words: [const { AtomicU64::new(0) }; 5],
        }
    }
}

/// Lock-free bounded ring of [`FlightEvent`]s.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    head: AtomicU64,
    dropped: AtomicU64,
    enabled: AtomicBool,
}

impl FlightRecorder {
    /// Creates a recorder with `capacity` slots (rounded up to ≥ 2).
    /// Recording starts disabled.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(2);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            enabled: AtomicBool::new(false),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enables or disables recording. Disabled recording costs one
    /// relaxed load per call site.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the recorder currently accepts events.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Total sequence numbers handed out so far (published + dropped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because their slot was held by a stalled writer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends an event. Returns the assigned sequence number if the
    /// event was durably published, or `None` if recording is disabled
    /// or the event was dropped (slot held by a stalled older writer).
    pub fn record(&self, event: FlightEvent) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut spins = 0u32;
        let mut state = slot.state.load(Ordering::Acquire);
        loop {
            if let Some(occupant) = state_seq(state) {
                if occupant >= seq {
                    // We stalled between taking the ticket and claiming
                    // the slot; a full lap overwrote it. Our event is
                    // too old to matter.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                if state_is_writing(state) {
                    // An older writer is mid-publish. Taking over would
                    // let a torn payload surface as complete, so wait
                    // briefly and otherwise drop our own event.
                    spins += 1;
                    if spins > 64 {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                    std::hint::spin_loop();
                    state = slot.state.load(Ordering::Acquire);
                    continue;
                }
            }
            match slot.state.compare_exchange_weak(
                state,
                writing(seq),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => state = seen,
            }
        }
        // Payload stores use Release so a reader that observes any of
        // them also observes the writing(seq) claim (see dump()).
        for (word, value) in slot.words.iter().zip(event.pack()) {
            word.store(value, Ordering::Release);
        }
        slot.state.store(complete(seq), Ordering::Release);
        Some(seq)
    }

    /// Reads the current ring contents in sequence order. Slots being
    /// written concurrently are skipped, so the result only ever
    /// contains fully published events.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            for _ in 0..8 {
                let before = slot.state.load(Ordering::Acquire);
                if before == EMPTY || state_is_writing(before) {
                    break;
                }
                let mut words = [0u64; 5];
                for (copy, word) in words.iter_mut().zip(&slot.words) {
                    *copy = word.load(Ordering::Acquire);
                }
                let after = slot.state.load(Ordering::Acquire);
                if after == before {
                    let seq = state_seq(before).expect("complete state has a seq");
                    out.push(FlightEvent::unpack(seq, words));
                    break;
                }
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Like [`dump`](Self::dump), keeping only events with
    /// `seq >= since`.
    pub fn since(&self, since: u64) -> Vec<FlightEvent> {
        let mut events = self.dump();
        events.retain(|e| e.seq >= since);
        events
    }

    /// Publishes recorder totals as `flight.*` gauges so they appear in
    /// Prometheus/JSON exports alongside the rest of the registry.
    pub fn publish(&self, registry: &Registry) {
        registry.gauge("flight.events").set(self.recorded() as f64);
        registry.gauge("flight.dropped").set(self.dropped() as f64);
    }
}

static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder (disabled until
/// [`FlightRecorder::set_enabled`] is called on it).
pub fn flight() -> &'static FlightRecorder {
    FLIGHT.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_recorder(capacity: usize) -> FlightRecorder {
        let rec = FlightRecorder::new(capacity);
        rec.set_enabled(true);
        rec
    }

    #[test]
    fn disabled_recorder_accepts_nothing() {
        let rec = FlightRecorder::new(16);
        assert_eq!(
            rec.record(FlightEvent::new(FlightKind::SnapshotInstall)),
            None
        );
        assert_eq!(rec.recorded(), 0);
        assert!(rec.dump().is_empty());
    }

    #[test]
    fn events_round_trip_all_fields() {
        let rec = enabled_recorder(16);
        let ev = FlightEvent::new(FlightKind::CacheVerdict(CacheVerdict::StaleServe))
            .tick(42)
            .request(7)
            .epoch(3)
            .proxy(19)
            .worker(2)
            .value(123.5);
        let seq = rec.record(ev).expect("published");
        let dump = rec.dump();
        assert_eq!(dump.len(), 1);
        let got = dump[0];
        assert_eq!(got.seq, seq);
        assert_eq!(got.tick, 42);
        assert_eq!(got.request, 7);
        assert_eq!(got.epoch, 3);
        assert_eq!(got.proxy, 19);
        assert_eq!(got.worker, 2);
        assert_eq!(got.kind, FlightKind::CacheVerdict(CacheVerdict::StaleServe));
        assert_eq!(got.value, 123.5);
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = [
            FlightKind::SnapshotInstall,
            FlightKind::HealthTransition,
            FlightKind::CacheVerdict(CacheVerdict::Hit),
            FlightKind::CacheVerdict(CacheVerdict::Miss),
            FlightKind::CacheVerdict(CacheVerdict::StaleServe),
            FlightKind::CacheVerdict(CacheVerdict::StaleDrop),
            FlightKind::CacheVerdict(CacheVerdict::NegativeHit),
            FlightKind::CacheVerdict(CacheVerdict::CspHit),
            FlightKind::CacheVerdict(CacheVerdict::HealthDrop),
            FlightKind::FailoverRetry,
            FlightKind::Disposition(DispositionMark::Optimal),
            FlightKind::Disposition(DispositionMark::Degraded),
            FlightKind::Disposition(DispositionMark::RejectNoIngress),
            FlightKind::Disposition(DispositionMark::RejectOverloaded),
            FlightKind::Disposition(DispositionMark::RejectUnroutable),
            FlightKind::TreeRepair,
            FlightKind::StageTime(Stage::Route),
            FlightKind::StageTime(Stage::Admit),
            FlightKind::StageTime(Stage::Cache),
            FlightKind::StageTime(Stage::Busy),
            FlightKind::StageTime(Stage::Idle),
        ];
        let rec = enabled_recorder(64);
        for &kind in &kinds {
            rec.record(FlightEvent::new(kind));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), kinds.len());
        for (ev, &kind) in dump.iter().zip(&kinds) {
            assert_eq!(ev.kind, kind);
        }
    }

    #[test]
    fn ring_keeps_only_the_most_recent_capacity_events() {
        let rec = enabled_recorder(8);
        for i in 0..20u64 {
            rec.record(FlightEvent::new(FlightKind::SnapshotInstall).epoch(i));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 8);
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        for ev in &dump {
            assert_eq!(ev.epoch, ev.seq);
        }
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn since_filters_by_sequence() {
        let rec = enabled_recorder(16);
        for i in 0..10u64 {
            rec.record(FlightEvent::new(FlightKind::SnapshotInstall).epoch(i));
        }
        let tail = rec.since(6);
        assert_eq!(tail.len(), 4);
        assert!(tail.iter().all(|e| e.seq >= 6));
    }

    #[test]
    fn publish_exports_flight_gauges() {
        let rec = enabled_recorder(16);
        rec.record(FlightEvent::new(FlightKind::SnapshotInstall));
        rec.record(FlightEvent::new(FlightKind::SnapshotInstall));
        let reg = Registry::new();
        rec.publish(&reg);
        assert_eq!(reg.gauge("flight.events").get(), 2.0);
        assert_eq!(reg.gauge("flight.dropped").get(), 0.0);
    }

    #[test]
    fn concurrent_writers_publish_consistent_events() {
        let rec = enabled_recorder(128);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        rec.record(
                            FlightEvent::new(FlightKind::SnapshotInstall)
                                .request(w * 1_000_000 + i)
                                .epoch(w * 1_000_000 + i),
                        );
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 4000);
        let dump = rec.dump();
        assert!(dump.len() <= 128);
        // No torn payloads: request and epoch were written as a pair.
        for ev in &dump {
            assert_eq!(ev.request, ev.epoch);
        }
        // Sequence numbers strictly increase.
        for pair in dump.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }
}
