//! The level solver — steps 1–2 of the paper's Section 5 at one level
//! of a hierarchy.
//!
//! A solve maps the stages of a service graph onto sibling *units*
//! (base clusters, or the groups of an upper level) and finds the
//! cheapest mappings by a shortest-path pass whose states are
//! `(stage, unit, entry proxy)`: the entry proxy — the border through
//! which the path entered the stage's unit, or the source proxy while
//! still in the source's unit — is what lets the pass account for
//! internal border-to-border distances (the back-tracking refinement).
//! A path enters a unit through one of its border proxies or starts in
//! it, so a stage has at most one state per border proxy plus one per
//! unit for "entered as the solve's source": dense per-stage arrays
//! over a [`LevelTable`]'s states hold them, and a relaxation is two
//! table reads, two adds and a compare.
//!
//! Before that fine pass a coarse one runs over units alone, one value
//! per (stage, unit): the source's first step priced exactly, every
//! later step at the most any state of its unit can pay, every mapping
//! closed at the most its closing leg can add. Its smallest total
//! bounds what the cheapest sink state closes at, so the fine pass
//! relaxes only from states whose cost plus the least their unit can
//! still add before it closes in the destination's unit stays within
//! it: any other state reaches no sink that can win (DESIGN.md §16,
//! "Relaxing only from states that can win"). A stage's candidate units
//! are one read of a service × unit bit column. [`LevelWork`] counts
//! what a solve did.
//!
//! [`HierarchicalRouter`](crate::hier::HierarchicalRouter) solves over
//! one table per (level, parent group) — a single table of all clusters
//! when it plans over the clusters alone. What fills a table and where
//! a solve starts are the caller's business; the loop here never asks
//! which level it serves.
//!
//! Order is part of the result: a tie keeps the first offer, and sink
//! states come out in visiting order. States are visited by unit id,
//! then by entry proxy id, the source slot taking the place its
//! [`Start::rank`] names; a stage with several predecessors takes their
//! offers predecessor by predecessor.

use crate::flat::RouteError;
use son_overlay::{BorderPair, ProxyId, ServiceGraph, ServiceId, StageId};

/// `back` mark of a state no offer has reached.
const ABSENT: u32 = u32::MAX;
/// `back` mark of a state reached straight from the solve's source;
/// every (stage, state) index lies below it, so the bit above is free
/// for [`Solved::into_tree`]'s mark.
const ROOT: u32 = u32::MAX >> 1;
/// The bit [`Solved::into_tree`] sets on a `back` entry it has counted.
const COUNTED: u32 = !ROOT;
/// [`Node::parent`] of a state reached straight from the solve's source.
pub(crate) const NO_PARENT: u32 = u32::MAX;
/// Relative slack of the fine pass's cut. `cost + to_dst` groups its
/// terms otherwise than the DP's own sums, and two groupings of `m`
/// non-negative terms may differ by a factor of about `1 + 2m · 2⁻⁵³`;
/// `m` stays below 2³¹ (DESIGN.md §16).
const SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// The border pair of one ordered unit pair, as the DP reads it.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// Border slot (within the first unit) the path leaves through.
    exit: u32,
    /// State (of the second unit) the path enters at.
    entry: u32,
    /// Known delay of the border link itself.
    external: f64,
}

/// Everything a relaxation reads, pre-computed once per set of sibling
/// units through the owning router's `delays` and load summary — so
/// load-aware penalties and the `+∞` of a `Down` border are priced
/// exactly as a direct look-up would price them.
#[derive(Debug)]
pub(crate) struct LevelTable {
    /// The units one solve may map onto, in ascending id; everything
    /// below is indexed by position in this list.
    units: Vec<usize>,
    /// Unit `u` owns states `first[u]..first[u + 1]`: one slot per
    /// distinct border proxy towards a sibling, in ascending id, then
    /// one for "entered as the solve's source".
    first: Vec<usize>,
    /// Per state, its unit.
    unit: Vec<usize>,
    /// Per state, its border proxy (`None` for a source slot).
    proxy: Vec<Option<ProxyId>>,
    /// Per state, the known internal distance from its proxy to every
    /// border slot of its unit: state `s` owns
    /// `internal[row_at[s]..row_at[s + 1]]`. Zero for source slots; a
    /// solve brings its source's own row.
    internal: Vec<f64>,
    row_at: Vec<usize>,
    /// `links[from * units + to]`; the diagonal is never read.
    links: Vec<Link>,
    /// `steps[from * units + to]`: the most a step from unit `from`
    /// into unit `to` costs, priced by [`Origin::step`] from `from`'s
    /// widest row (slot by slot, the largest entry of its states'
    /// rows); zero on the diagonal. Beside `links`, not in them, so the
    /// fine pass reads 16 bytes a relaxation.
    steps: Vec<f64>,
    /// `to_dst[dst * units + u]`: the least any state of unit `u` still
    /// adds before it closes in unit `dst` — over every unit path, each
    /// step priced `external + penalty` and the close `external`, zero
    /// at `dst`. Every real step and close adds `row[exit] ≥ 0` on top.
    to_dst: Vec<f64>,
    /// Per unit, the load penalty of entering it.
    penalty: Vec<f64>,
    /// `column[service * words..(service + 1) * words]`, `words` being
    /// `units.div_ceil(64)`: bit `u % 64` of word `u / 64` is set when
    /// unit `u` is routable and offers the service.
    column: Vec<u64>,
    /// Per state, the most a closing leg that ends inside its unit
    /// adds after reaching its proxy; `+∞` for source slots, whose
    /// proxy only a solve knows.
    reach: Vec<f64>,
}

/// Deterministic cost of one level solve, in the three operations it
/// is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelWork {
    /// The (stage, unit) candidates the service × unit column yields,
    /// before crankback's exclusions.
    pub provider_probes: u64,
    /// Steps priced by the fine pass, from a state or the source to a
    /// candidate unit.
    pub relaxations: u64,
    /// Reached states the fine pass did not step from, their cost plus
    /// their unit's `to_dst` lying above the coarse bound.
    pub skipped_origins: u64,
}

/// Where a solve starts.
pub(crate) struct Start<'a> {
    /// The source's own border slot when it is one, else its unit's
    /// source slot.
    pub state: usize,
    /// How many of its unit's border slots the source slot is visited
    /// after (a border-slot start never reaches the source slot, so any
    /// rank does).
    pub rank: usize,
    /// Known internal distance from the source to each border slot of
    /// its unit.
    pub row: &'a [f64],
}

/// A state of the DP as the start of a step.
struct Origin<'a> {
    unit: usize,
    state: usize,
    /// Known internal distance to each border slot of the unit.
    row: &'a [f64],
    /// The unit's links, indexed by the unit entered.
    links: &'a [Link],
    penalty: &'a [f64],
}

impl Origin<'_> {
    /// The state entered by stepping into unit `to`, and what the step
    /// costs. Staying put costs exactly zero; the rest is summed as
    /// `(internal + external) + penalty`.
    fn step(&self, to: usize) -> (usize, f64) {
        if to == self.unit {
            return (self.state, 0.0);
        }
        let link = &self.links[to];
        let internal = self.row[link.exit as usize];
        (
            link.entry as usize,
            internal + link.external + self.penalty[to],
        )
    }

    /// Offers `reached + step` to the state entered in each of
    /// `candidates`; `cost`/`back` are the entered stage's. An offer
    /// replaces what a state holds unless that is already `<=` it.
    fn offer(
        &self,
        reached: f64,
        back_ref: u32,
        candidates: &[usize],
        cost: &mut [f64],
        back: &mut [u32],
    ) {
        for &to in candidates {
            let (state, step) = self.step(to);
            let offer = reached + step;
            if back[state] != ABSENT && cost[state] <= offer {
                continue;
            }
            cost[state] = offer;
            back[state] = back_ref;
        }
    }
}

impl LevelTable {
    /// Builds the table over `units`. `border(from, to)` is the border
    /// pair between two of them, `internal(a, b)` the known distance
    /// between two border proxies of one unit, `external(local,
    /// remote)` the known delay of a border link; `penalty` and
    /// `routable` describe entering a unit, `reach(border)` bounds the
    /// closing leg from `border` to any destination in its unit, and
    /// `services(unit)` lists what a unit offers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build<S: IntoIterator<Item = ServiceId>>(
        units: impl IntoIterator<Item = usize>,
        border: impl Fn(usize, usize) -> BorderPair,
        internal_delay: impl Fn(ProxyId, ProxyId) -> f64,
        external_delay: impl Fn(ProxyId, ProxyId) -> f64,
        penalty: impl Fn(usize) -> f64,
        routable: impl Fn(usize) -> bool,
        reach: impl Fn(ProxyId) -> f64,
        services: impl Fn(usize) -> S,
    ) -> Self {
        let mut units: Vec<usize> = units.into_iter().collect();
        units.sort_unstable();
        let mut first = Vec::with_capacity(units.len() + 1);
        let mut unit = Vec::new();
        let mut proxy = Vec::new();
        let mut internal = Vec::new();
        let mut row_at = Vec::new();
        let mut reaches = Vec::new();
        let mut widest = Vec::new();
        for (at, &u) in units.iter().enumerate() {
            first.push(proxy.len());
            let mut borders: Vec<ProxyId> = units
                .iter()
                .filter(|&&sibling| sibling != u)
                .map(|&sibling| border(u, sibling).local)
                .collect();
            borders.sort_unstable();
            borders.dedup();
            for a in borders.iter().copied().map(Some).chain([None]) {
                unit.push(at);
                proxy.push(a);
                row_at.push(internal.len());
                reaches.push(a.map_or(f64::INFINITY, &reach));
                internal.extend(borders.iter().map(|&b| match a {
                    Some(a) => internal_delay(a, b),
                    None => 0.0,
                }));
            }
            let rows = &internal[row_at[first[at]]..];
            widest.extend((0..borders.len()).map(|slot| {
                let column = rows[slot..].iter().step_by(borders.len());
                column.copied().fold(0.0, f64::max)
            }));
        }
        first.push(proxy.len());
        row_at.push(internal.len());

        let slot = |at: usize, border: ProxyId| {
            let slot = proxy[first[at]..first[at + 1] - 1]
                .binary_search(&Some(border))
                .expect("border pairs name border proxies");
            u32::try_from(slot).expect("border slots fit u32")
        };
        let mut links = Vec::with_capacity(units.len() * units.len());
        for (from_at, &from) in units.iter().enumerate() {
            for (to_at, &to) in units.iter().enumerate() {
                links.push(if from == to {
                    Link::default()
                } else {
                    let pair = border(from, to);
                    let start = u32::try_from(first[to_at]).expect("states fit u32");
                    Link {
                        exit: slot(from_at, pair.local),
                        entry: start + slot(to_at, pair.remote),
                        external: external_delay(pair.local, pair.remote),
                    }
                });
            }
        }
        let words = units.len().div_ceil(64);
        let mut column = Vec::new();
        for (at, &u) in units.iter().enumerate().filter(|&(_, &u)| routable(u)) {
            for service in services(u) {
                let row = service.index() * words;
                if column.len() <= row {
                    column.resize(row + words, 0);
                }
                column[row + at / 64] |= 1 << (at % 64);
            }
        }
        let mut table = LevelTable {
            penalty: units.iter().map(|&u| penalty(u)).collect(),
            column,
            reach: reaches,
            units,
            first,
            unit,
            proxy,
            internal,
            row_at,
            links,
            steps: Vec::new(),
            to_dst: Vec::new(),
        };
        // Unit `u`'s widest row is `widest[first[u] - u..first[u + 1] - u - 1]`.
        let n = table.units.len();
        table.steps = (0..n * n)
            .map(|at| {
                let (from, first) = (at / n, &table.first);
                let row = &widest[first[from] - from..first[from + 1] - from - 1];
                table.origin(first[from], row).step(at % n).1
            })
            .collect();
        table.to_dst = vec![0.0; n * n];
        let mut settled = vec![false; n];
        for (dst, to_dst) in table.to_dst.chunks_exact_mut(n).enumerate() {
            // A dense Dijkstra towards `dst`: closing straight from `u`
            // costs `external`, stepping into `v` first `external +
            // penalty[v]` more than `v`'s own bound.
            for (u, bound) in to_dst.iter_mut().enumerate() {
                *bound = if u == dst {
                    0.0
                } else {
                    table.links[u * n + dst].external
                };
            }
            settled.fill(false);
            for _ in 0..n {
                let v = (0..n)
                    .filter(|&v| !settled[v])
                    .min_by(|&a, &b| to_dst[a].total_cmp(&to_dst[b]))
                    .expect("one unit is left per round");
                settled[v] = true;
                for u in (0..n).filter(|&u| !settled[u]) {
                    let via = table.links[u * n + v].external + table.penalty[v] + to_dst[v];
                    to_dst[u] = to_dst[u].min(via);
                }
            }
        }
        table
    }

    /// The units that are routable and offer `service`, by position in
    /// ascending order.
    fn offering(&self, service: ServiceId) -> impl Iterator<Item = usize> + '_ {
        let words = self.units.len().div_ceil(64);
        let row = service.index() * words;
        let column = self.column.get(row..row + words).unwrap_or_default();
        column.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some(word * 64 + bit)
            })
        })
    }

    /// Position of unit `unit` in the table.
    fn at(&self, unit: usize) -> usize {
        self.units
            .binary_search(&unit)
            .expect("solves start inside the table's units")
    }

    /// The border proxies of `unit` towards its siblings, in slot
    /// order.
    pub(crate) fn borders(&self, unit: usize) -> impl ExactSizeIterator<Item = ProxyId> + '_ {
        let at = self.at(unit);
        self.proxy[self.first[at]..self.first[at + 1] - 1]
            .iter()
            .map(|b| b.expect("border slots name their proxy"))
    }

    /// The state of `unit` that is `proxy`'s own border slot, or — when
    /// it has none — how many of the unit's border proxies have a lower
    /// id.
    pub(crate) fn border_slot(&self, unit: usize, proxy: ProxyId) -> Result<usize, usize> {
        let first = self.first[self.at(unit)];
        self.proxy[first..self.source_slot(unit)]
            .binary_search(&Some(proxy))
            .map(|slot| first + slot)
    }

    /// The "entered as the solve's source" state of `unit`.
    pub(crate) fn source_slot(&self, unit: usize) -> usize {
        self.first[self.at(unit) + 1] - 1
    }

    /// The internal-distance row of `state`.
    pub(crate) fn row(&self, state: usize) -> &[f64] {
        &self.internal[self.row_at[state]..self.row_at[state + 1]]
    }

    /// Bounds on what the closing leg adds to a sink at `state` for any
    /// destination in the unit at position `dst`, summed with the
    /// operands and grouping of the router's closing loop: leaving
    /// through the border pair (`row[exit] + external`), then the leg
    /// inside `dst`, which lies in `0..=reach`. A source slot's upper
    /// bound is `+∞`, since a solve may bring a row of its own.
    fn closing(&self, state: usize, dst: usize) -> (f64, f64) {
        let at = self.unit[state];
        if at == dst {
            return (0.0, self.reach[state]);
        }
        let link = &self.links[at * self.units.len() + dst];
        let leave = self.row(state)[link.exit as usize] + link.external;
        let upper = if self.proxy[state].is_some() {
            leave + self.reach[link.entry as usize]
        } else {
            f64::INFINITY
        };
        (leave, upper)
    }

    /// `state` as somewhere to step from, its internal distances being
    /// `row` (the table's own, or the source's).
    fn origin<'a>(&'a self, state: usize, row: &'a [f64]) -> Origin<'a> {
        let unit = self.unit[state];
        let units = self.units.len();
        Origin {
            unit,
            state,
            row,
            links: &self.links[unit * units..(unit + 1) * units],
            penalty: &self.penalty,
        }
    }

    /// Runs the DP for `graph` from `start` towards a destination in
    /// unit `dst`, mapping a stage only onto routable units that offer
    /// its service and for which `allowed(stage, unit)` holds.
    ///
    /// # Errors
    ///
    /// [`RouteError::NoProvider`] for the first stage no unit may take.
    pub(crate) fn solve(
        &self,
        graph: &ServiceGraph,
        start: &Start<'_>,
        dst: usize,
        allowed: impl Fn(StageId, usize) -> bool,
    ) -> Result<Solved<'_>, RouteError> {
        let states = self.unit.len();
        let mut work = LevelWork::default();

        // Stage `i` owns `candidates[candidates_at[i]..candidates_at[i + 1]]`.
        let mut candidates: Vec<usize> = Vec::new();
        let mut candidates_at = vec![0];
        for stage in graph.stage_ids() {
            candidates.extend(self.offering(graph.service(stage)).filter(|&u| {
                work.provider_probes += 1;
                allowed(stage, self.units[u])
            }));
            if candidates.len() == candidates_at[stage.index()] {
                return Err(RouteError::NoProvider(graph.service(stage)));
            }
            candidates_at.push(candidates.len());
        }
        let candidates = |stage: StageId| {
            &candidates[candidates_at[stage.index()]..candidates_at[stage.index() + 1]]
        };
        let order = graph
            .topological_order()
            .expect("service graphs are validated acyclic at construction");
        let (n, dst) = (self.units.len(), self.at(dst));
        let source = self.origin(start.state, start.row);

        // `cost`/`back` hold one entry per (stage, state); `back` names
        // the predecessor's entry and doubles as the presence mark — a
        // state reached at `+∞` is present, propagates, and is left for
        // the closing loop to filter. Until the fine pass, `cost` is the
        // coarse pass's scratch.
        assert!(
            graph.len() * states < ROOT as usize,
            "(stage, state) indices must fit the back-pointers"
        );
        let mut cost = vec![0.0f64; graph.len() * states];
        let mut back = vec![ABSENT; graph.len() * states];
        // Per stage, its present states in visiting order:
        // `live[live_at[i].0..live_at[i].1]`.
        let mut live: Vec<usize> = Vec::new();
        let mut live_at = vec![(0, 0); graph.len()];

        // The coarse pass, one value per (stage, unit) in
        // `cost[stage * units + unit]`: the source's first step priced
        // exactly, every later step at `steps` (the source's unit also
        // taking the source's own step into the max), and each mapping
        // closed at no less than the largest `closing` upper bound of
        // its last unit's states: the step towards `dst`, whose penalty
        // is >= 0, plus the reach of the border it enters; inside `dst`
        // its borders' largest reach; `+∞` in the unit of a source-slot
        // start. Its smallest total `bound` is no smaller than the
        // smallest upper bound of any sink state (DESIGN.md §16).
        let dst_reach = self.reach[self.first[dst]..self.first[dst + 1] - 1]
            .iter()
            .copied()
            .fold(0.0, f64::max);
        let mut bound = f64::INFINITY;
        for &stage in &order {
            let (here, preds) = (stage.index() * n, graph.predecessors(stage));
            for &to in candidates(stage) {
                cost[here + to] = match preds {
                    [] => source.step(to).1,
                    _ => f64::INFINITY,
                };
            }
            for &pred in preds {
                for &from in candidates(pred) {
                    let reached = cost[pred.index() * n + from];
                    let steps = &self.steps[from * n..(from + 1) * n];
                    let best = &mut cost[here..here + n];
                    for &to in candidates(stage) {
                        let mut step = steps[to];
                        if from == source.unit {
                            step = step.max(source.step(to).1);
                        }
                        best[to] = best[to].min(reached + step);
                    }
                }
            }
            if !graph.is_sink(stage) {
                continue;
            }
            for &at in candidates(stage) {
                let close = if at == source.unit && self.proxy[start.state].is_none() {
                    f64::INFINITY
                } else if at == dst {
                    dst_reach
                } else {
                    self.steps[at * n + dst] + self.reach[self.links[at * n + dst].entry as usize]
                };
                bound = bound.min(cost[here + at] + close);
            }
        }

        // `bound = +∞` makes `cut = +∞`, and nothing lies above it.
        let (to_dst, cut) = (&self.to_dst[dst * n..(dst + 1) * n], bound * (1.0 + SLACK));
        for &stage in &order {
            let si = stage.index();
            let base = si * states;
            let stage_candidates = candidates(stage);
            if graph.predecessors(stage).is_empty() {
                // Transition from the source proxy's unit.
                for &u in stage_candidates {
                    let (state, step) = source.step(u);
                    cost[base + state] = step;
                    back[base + state] = ROOT;
                }
                work.relaxations += stage_candidates.len() as u64;
            }
            // Offers reach a state predecessor by predecessor, then in
            // the predecessor's visiting order; the first of equal
            // offers stays. A state whose cost plus `to_dst` lies above
            // `cut` offers nothing that can win.
            for &pred in graph.predecessors(stage) {
                let pbase = pred.index() * states;
                let (from, to) = live_at[pred.index()];
                for &pstate in &live[from..to] {
                    if cost[pbase + pstate] + to_dst[self.unit[pstate]] > cut {
                        work.skipped_origins += 1;
                        continue;
                    }
                    let row = if pstate == start.state {
                        start.row
                    } else {
                        self.row(pstate)
                    };
                    self.origin(pstate, row).offer(
                        cost[pbase + pstate],
                        (pbase + pstate) as u32,
                        stage_candidates,
                        &mut cost[base..base + states],
                        &mut back[base..base + states],
                    );
                    work.relaxations += stage_candidates.len() as u64;
                }
            }
            let from = live.len();
            for &u in stage_candidates {
                let (first, last) = (self.first[u], self.first[u + 1] - 1);
                let rank = if u == source.unit {
                    start.rank
                } else {
                    last - first
                };
                live.extend(
                    (first..first + rank)
                        .chain([last])
                        .chain(first + rank..last)
                        .filter(|&state| back[base + state] != ABSENT),
                );
            }
            live_at[si] = (from, live.len());
        }
        Ok(Solved {
            table: self,
            dst,
            cost,
            back,
            live,
            live_at,
            work,
            #[cfg(test)]
            bound,
        })
    }
}

/// A finished DP: the reached states of every stage.
pub(crate) struct Solved<'t> {
    table: &'t LevelTable,
    /// Position of the destination's unit.
    dst: usize,
    cost: Vec<f64>,
    back: Vec<u32>,
    live: Vec<usize>,
    live_at: Vec<(usize, usize)>,
    /// What the solve did.
    pub work: LevelWork,
    /// The coarse pass's bound.
    #[cfg(test)]
    bound: f64,
}

/// A reached state of a sink stage.
pub(crate) struct Sink {
    /// Handle for [`Solved::chain`].
    pub at: usize,
    /// Cost of the cheapest mapping ending here.
    pub cost: f64,
    /// The unit the sink stage is mapped onto.
    pub unit: usize,
    /// The border proxy that unit was entered through; `None` when the
    /// path never left the source's unit and the source is no border
    /// of it.
    pub entry: Option<ProxyId>,
}

/// One node of a [`Solved::into_tree`]: a state that some sink's
/// mapping passes through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Node<U> {
    /// The node of the state this one was reached from, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// The stage of the state.
    pub stage: StageId,
    /// The unit the stage is mapped onto.
    pub unit: U,
}

impl Solved<'_> {
    /// Every reached sink state, in the order a closing loop must
    /// enumerate them: sinks in `graph.sinks()` order, states in
    /// visiting order.
    pub(crate) fn sinks<'s>(&'s self, graph: &'s ServiceGraph) -> impl Iterator<Item = Sink> + 's {
        let states = self.table.unit.len();
        graph
            .sinks()
            .into_iter()
            .flat_map(move |sink| reached(sink, &self.live, &self.live_at, states))
            .map(|at| Self::sink(self.table, &self.cost, at))
    }

    /// The sink state at `at`.
    fn sink(table: &LevelTable, cost: &[f64], at: usize) -> Sink {
        let state = at % table.unit.len();
        Sink {
            at,
            cost: cost[at],
            unit: table.units[table.unit[state]],
            entry: table.proxy[state],
        }
    }

    /// Every sink state that can win the closing loop for some
    /// destination in the solve's `dst` unit, and the mappings that
    /// reach them, as one back-pointer tree: a state on several sinks'
    /// mappings is one node. Returns, in [`Solved::sinks`] order,
    /// `sink(s, node)` for each kept sink state `s` whose mapping ends
    /// at `nodes[node]`, and the nodes, units passed through `unit`.
    /// Both come exactly sized: the tree is counted and numbered in the
    /// solve's own `back` array, which it uses up.
    pub(crate) fn into_tree<S, U>(
        mut self,
        graph: &ServiceGraph,
        sink: impl Fn(Sink, u32) -> S,
        unit: impl Fn(usize) -> U,
    ) -> (Box<[S]>, Box<[Node<U>]>) {
        let table = self.table;
        let states = table.unit.len();
        let stages = graph.sinks();
        self.keep_winners(&stages);
        let sinks_at = || {
            stages
                .iter()
                .flat_map(|&stage| reached(stage, &self.live, &self.live_at, states))
        };
        // First pass: mark every state on a sink's mapping as counted.
        let mut nodes = 0;
        for mut at in sinks_at() {
            while self.back[at] & COUNTED == 0 {
                let prev = self.back[at];
                self.back[at] |= COUNTED;
                nodes += 1;
                if prev == ROOT {
                    break;
                }
                at = prev as usize;
            }
        }
        // Second pass: number the counted states from each sink up to
        // the first one numbered before. The number replaces the
        // state's `back` entry; until the third pass, the node's
        // `parent` holds that entry, its predecessor's index.
        let mut sinks = Vec::with_capacity(sinks_at().count());
        let mut tree = Vec::with_capacity(nodes);
        for last in sinks_at() {
            let mut at = last;
            while self.back[at] & COUNTED != 0 {
                let prev = self.back[at] & ROOT;
                self.back[at] = tree.len() as u32;
                tree.push(Node {
                    parent: prev,
                    stage: StageId::new(at / states),
                    unit: unit(table.units[table.unit[at % states]]),
                });
                if prev == ROOT {
                    break;
                }
                at = prev as usize;
            }
            sinks.push(sink(Self::sink(table, &self.cost, last), self.back[last]));
        }
        // Third pass: predecessor indices to node numbers.
        for node in &mut tree {
            node.parent = match node.parent {
                ROOT => NO_PARENT,
                prev => self.back[prev as usize],
            };
        }
        (sinks.into_boxed_slice(), tree.into_boxed_slice())
    }

    /// Drops from the sink stages' visiting order every state whose
    /// total lies, for every destination in the `dst` unit, strictly
    /// above the smallest finite upper bound of any sink state. Rounding
    /// to nearest is monotone and the closing leg's last term is never
    /// negative, so each total lies within its sink's
    /// [`LevelTable::closing`] bounds and a dropped state never wins;
    /// the kept ones keep their order.
    fn keep_winners(&mut self, stages: &[StageId]) {
        let (table, states, dst) = (self.table, self.table.unit.len(), self.dst);
        let mut bound = f64::INFINITY;
        for &stage in stages {
            for at in reached(stage, &self.live, &self.live_at, states) {
                bound = bound.min(self.cost[at] + table.closing(at % states, dst).1);
            }
        }
        for &stage in stages {
            let (from, to) = self.live_at[stage.index()];
            let mut kept = from;
            for i in from..to {
                let state = self.live[i];
                let lower = self.cost[stage.index() * states + state] + table.closing(state, dst).0;
                if lower <= bound {
                    self.live[kept] = state;
                    kept += 1;
                }
            }
            self.live_at[stage.index()].1 = kept;
        }
    }

    /// The mapping that reaches the state at `at`, stage by stage,
    /// units passed through `unit`.
    pub(crate) fn chain<U>(&self, mut at: usize, unit: impl Fn(usize) -> U) -> Vec<(StageId, U)> {
        let states = self.table.unit.len();
        let mut chain = Vec::with_capacity(self.back.len() / states);
        loop {
            chain.push((
                StageId::new(at / states),
                unit(self.table.units[self.table.unit[at % states]]),
            ));
            match self.back[at] {
                ROOT => break,
                prev => at = prev as usize,
            }
        }
        chain.reverse();
        chain
    }
}

/// The (stage, state) index of every reached state of `stage`, in
/// visiting order.
fn reached<'a>(
    stage: StageId,
    live: &'a [usize],
    live_at: &[(usize, usize)],
    states: usize,
) -> impl Iterator<Item = usize> + 'a {
    let (from, to) = live_at[stage.index()];
    live[from..to]
        .iter()
        .map(move |&state| stage.index() * states + state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::ServiceSet;

    impl Solved<'_> {
        /// The coarse pass's bound; the smallest upper bound any sink
        /// state of `graph` has on its total, which
        /// [`Solved::keep_winners`] keeps sinks by; and the largest
        /// `cost + to_dst` of a state on a kept sink's chain. The first
        /// is never below the other two.
        pub(crate) fn bounds(mut self, graph: &ServiceGraph) -> (f64, f64, f64) {
            let (table, states) = (self.table, self.table.unit.len());
            let winning = self
                .sinks(graph)
                .map(|sink| sink.cost + table.closing(sink.at % states, self.dst).1)
                .fold(f64::INFINITY, f64::min);
            let stages = graph.sinks();
            self.keep_winners(&stages);
            let to_dst = &table.to_dst[self.dst * table.units.len()..][..table.units.len()];
            let mut chained = f64::NEG_INFINITY;
            for &stage in &stages {
                for mut at in reached(stage, &self.live, &self.live_at, states) {
                    loop {
                        chained = chained.max(self.cost[at] + to_dst[table.unit[at % states]]);
                        match self.back[at] {
                            ROOT => break,
                            prev => at = prev as usize,
                        }
                    }
                }
            }
            (self.bound, winning, chained)
        }
    }

    /// Three units of three proxies each (`3 * unit..3 * unit + 3`) on
    /// a line, each bordering a sibling through the proxy whose offset
    /// is the sibling's id; every border reaches `reach` into its unit.
    fn table(units: [usize; 3], reach: f64) -> LevelTable {
        let distance = |a: ProxyId, b: ProxyId| a.index().abs_diff(b.index()) as f64;
        LevelTable::build(
            units,
            |from, to| BorderPair {
                local: ProxyId::new(3 * from + to),
                remote: ProxyId::new(3 * to + from),
            },
            distance,
            distance,
            |_| 0.0,
            |_| true,
            |_| reach,
            |_| [ServiceId::new(0)],
        )
    }

    /// A source-slot start in unit 1 whose row is `[1.0, 1.0]`.
    fn start(table: &LevelTable) -> Start<'static> {
        Start {
            state: table.source_slot(1),
            rank: 1,
            row: &[1.0, 1.0],
        }
    }

    #[test]
    fn units_are_visited_by_id_whatever_order_they_come_in() {
        let graph = ServiceGraph::linear(vec![ServiceId::new(0); 3]);
        let sinks = |units| {
            // Unbounded reaches leave the coarse bound at `+∞`: no state
            // is skipped, so every one is reached.
            let table = table(units, f64::INFINITY);
            let solved = table.solve(&graph, &start(&table), 0, |_, _| true).unwrap();
            solved
                .sinks(&graph)
                .map(|s| (s.unit, s.entry, s.cost.to_bits(), solved.chain(s.at, |u| u)))
                .collect::<Vec<_>>()
        };
        let by_id = sinks([0, 1, 2]);
        assert_eq!(by_id.len(), 7, "two borders a unit and the source");
        assert!(by_id.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(sinks([2, 0, 1]), by_id);
    }

    #[test]
    fn states_above_the_coarse_bound_are_not_stepped_from() {
        let graph = ServiceGraph::linear(vec![ServiceId::new(0); 3]);
        let table = table([0, 1, 2], 0.0);
        let solved = table.solve(&graph, &start(&table), 0, |_, _| true).unwrap();
        let work = solved.work;
        let (coarse, winning, chained) = solved.bounds(&graph);
        // Stepping into unit 0 costs 1 + 2 and staying there nothing.
        assert_eq!(coarse, 3.0);
        assert!(coarse >= winning, "{coarse} < {winning}");
        assert!(coarse >= chained, "{coarse} < {chained}");
        assert!(work.skipped_origins > 0, "{work:?}");
        assert_eq!(work.provider_probes, 9);
    }

    #[test]
    fn sinks_only_in_the_source_slot_unit_leave_the_bound_open() {
        let graph = ServiceGraph::linear(vec![ServiceId::new(0); 3]);
        let table = table([0, 1, 2], 0.0);
        let last = StageId::new(2);
        let solved = table
            .solve(&graph, &start(&table), 0, |stage, unit| {
                stage != last || unit == 1
            })
            .unwrap();
        assert_eq!(solved.work.skipped_origins, 0);
        assert_eq!(solved.bounds(&graph).0, f64::INFINITY);
    }

    #[test]
    fn a_state_exactly_at_the_coarse_bound_is_stepped_from() {
        let graph = ServiceGraph::linear(vec![ServiceId::new(0); 3]);
        let table = table([0, 1, 2], 0.0);
        // Start on unit 1's border towards unit 0 (proxy 3), bound for
        // unit 0: `to_dst` reads 0, 2 and 4.
        let from = table.border_slot(1, ProxyId::new(3)).unwrap();
        let start = Start {
            state: from,
            rank: 0,
            row: table.row(from),
        };
        assert_eq!(&table.to_dst[..3], [0.0, 2.0, 4.0]);
        let solved = table.solve(&graph, &start, 0, |_, _| true).unwrap();
        // Staying costs 0 + 2; stepping into unit 0 first, 2 + 0. Both
        // lie exactly at the coarse bound, and unit 2's border (4 + 4)
        // above it.
        let into_two = table.border_slot(2, ProxyId::new(7)).unwrap();
        let states = table.unit.len();
        assert_eq!(solved.cost[into_two], 4.0);
        assert_eq!(
            solved.cost[table.border_slot(0, ProxyId::new(1)).unwrap()],
            2.0
        );
        assert_eq!(solved.cost[from], 0.0);
        // Unit 2's border at stage 1 is offered only by the tied start.
        assert_eq!(solved.cost[states + into_two], 4.0);
        assert_eq!(
            solved.chain(states + into_two, |u| u),
            [(StageId::new(0), 1), (StageId::new(1), 2)]
        );
        let work = solved.work;
        let (coarse, _, chained) = solved.bounds(&graph);
        assert_eq!((coarse, chained), (2.0, 2.0));
        assert_eq!(
            work.skipped_origins, 3,
            "unit 2's borders: proxy 7 at stage 0, proxies 6 and 7 at stage 1"
        );

        // At zero distance everywhere the bound is 0 and every state
        // lies at it: each is stepped from, and the sinks are reached.
        let zero = LevelTable::build(
            [0, 1, 2],
            |from, to| BorderPair {
                local: ProxyId::new(3 * from + to),
                remote: ProxyId::new(3 * to + from),
            },
            |_, _| 0.0,
            |_, _| 0.0,
            |_| 0.0,
            |_| true,
            |_| 0.0,
            |_| [ServiceId::new(0)],
        );
        let start = Start {
            state: zero.source_slot(0),
            rank: 2,
            row: &[0.0, 0.0],
        };
        let solved = zero.solve(&graph, &start, 0, |_, _| true).unwrap();
        assert_eq!(solved.work.skipped_origins, 0);
        assert_eq!(solved.sinks(&graph).count(), 7);
        let (coarse, winning, _) = solved.bounds(&graph);
        assert_eq!((coarse, winning), (0.0, 0.0));
    }

    #[test]
    fn the_column_yields_the_units_a_contains_scan_finds() {
        // 70 units over two words, listed out of order with ids apart
        // from their positions; every seventh is down.
        let ids: Vec<usize> = (0..70).rev().map(|at| 3 * at + 1).collect();
        let offers = |unit: usize| -> ServiceSet {
            (0..12)
                .filter(|s| (unit * 7 + s * 5) % 11 < 4)
                .map(ServiceId::new)
                .collect()
        };
        let routable = |unit: usize| unit % 7 != 3;
        let table = LevelTable::build(
            ids.iter().copied(),
            |from, to| BorderPair {
                local: ProxyId::new(from),
                remote: ProxyId::new(to),
            },
            |_, _| 0.0,
            |_, _| 1.0,
            |_| 0.0,
            routable,
            |_| 0.0,
            |unit| offers(unit).iter().collect::<Vec<_>>(),
        );
        let mut past_63 = 0;
        for service in (0..14).map(ServiceId::new) {
            let scan: Vec<usize> = (0..table.units.len())
                .filter(|&at| {
                    let unit = table.units[at];
                    routable(unit) && offers(unit).contains(service)
                })
                .collect();
            assert_eq!(
                table.offering(service).collect::<Vec<_>>(),
                scan,
                "{service:?}"
            );
            past_63 += scan.iter().filter(|&&at| at > 63).count();
        }
        assert!(past_63 > 0, "the second word is read");
    }
}
