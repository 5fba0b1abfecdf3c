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
//! [`HierarchicalRouter`](crate::hier::HierarchicalRouter) solves over
//! one table of all clusters, [`MultiLevelRouter`](crate::multilevel)
//! over one table per (level, parent group). What fills a table and
//! where a solve starts are the callers' business; the loop here never
//! asks which of them it serves.
//!
//! Order is part of the result: a tie keeps the first offer, and sink
//! states come out in visiting order. States are visited by unit id,
//! then by entry proxy id, the source slot taking the place its
//! [`Start::rank`] names; a stage with several predecessors takes their
//! offers predecessor by predecessor.

use crate::flat::RouteError;
use son_overlay::{BorderPair, ProxyId, ServiceGraph, StageId};

/// `back` mark of a state no offer has reached.
const ABSENT: u32 = u32::MAX;
/// `back` mark of a state reached straight from the solve's source.
const ROOT: u32 = u32::MAX - 1;

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
    /// Per unit, the load penalty of entering it.
    penalty: Vec<f64>,
    /// Per unit, whether stages may be mapped into it at all.
    routable: Vec<bool>,
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
    /// `routable` describe entering a unit.
    pub(crate) fn build(
        units: impl IntoIterator<Item = usize>,
        border: impl Fn(usize, usize) -> BorderPair,
        internal_delay: impl Fn(ProxyId, ProxyId) -> f64,
        external_delay: impl Fn(ProxyId, ProxyId) -> f64,
        penalty: impl Fn(usize) -> f64,
        routable: impl Fn(usize) -> bool,
    ) -> Self {
        let mut units: Vec<usize> = units.into_iter().collect();
        units.sort_unstable();
        let mut first = Vec::with_capacity(units.len() + 1);
        let mut unit = Vec::new();
        let mut proxy = Vec::new();
        let mut internal = Vec::new();
        let mut row_at = Vec::new();
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
                internal.extend(borders.iter().map(|&b| match a {
                    Some(a) => internal_delay(a, b),
                    None => 0.0,
                }));
            }
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
        LevelTable {
            penalty: units.iter().map(|&u| penalty(u)).collect(),
            routable: units.iter().map(|&u| routable(u)).collect(),
            units,
            first,
            unit,
            proxy,
            internal,
            row_at,
            links,
        }
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

    /// Runs the DP for `graph` from `start`, mapping a stage only onto
    /// routable units for which `serves(stage, unit)` holds.
    ///
    /// # Errors
    ///
    /// [`RouteError::NoProvider`] for the first stage no unit may take.
    pub(crate) fn solve(
        &self,
        graph: &ServiceGraph,
        start: &Start<'_>,
        serves: impl Fn(StageId, usize) -> bool,
    ) -> Result<Solved<'_>, RouteError> {
        let states = self.unit.len();

        // Stage `i` owns `candidates[candidates_at[i]..candidates_at[i + 1]]`.
        let mut candidates: Vec<usize> = Vec::new();
        let mut candidates_at = vec![0];
        for stage in graph.stage_ids() {
            candidates.extend(
                (0..self.units.len()).filter(|&u| self.routable[u] && serves(stage, self.units[u])),
            );
            if candidates.len() == candidates_at[stage.index()] {
                return Err(RouteError::NoProvider(graph.service(stage)));
            }
            candidates_at.push(candidates.len());
        }

        // `cost`/`back` hold one entry per (stage, state); `back` names
        // the predecessor's entry and doubles as the presence mark — a
        // state reached at `+∞` is present, propagates, and is left for
        // the closing loop to filter.
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

        let source_unit = self.unit[start.state];
        let order = graph
            .topological_order()
            .expect("service graphs are validated acyclic at construction");
        for &stage in &order {
            let si = stage.index();
            let base = si * states;
            let stage_candidates = &candidates[candidates_at[si]..candidates_at[si + 1]];
            if graph.predecessors(stage).is_empty() {
                // Transition from the source proxy's unit.
                let source = self.origin(start.state, start.row);
                for &u in stage_candidates {
                    let (state, step) = source.step(u);
                    cost[base + state] = step;
                    back[base + state] = ROOT;
                }
            }
            // Offers reach a state predecessor by predecessor, then in
            // the predecessor's visiting order; the first of equal
            // offers stays.
            for &pred in graph.predecessors(stage) {
                let pbase = pred.index() * states;
                let (from, to) = live_at[pred.index()];
                for &pstate in &live[from..to] {
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
                }
            }
            let from = live.len();
            for &u in stage_candidates {
                let (first, last) = (self.first[u], self.first[u + 1] - 1);
                let rank = if u == source_unit {
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
            cost,
            back,
            live,
            live_at,
        })
    }
}

/// A finished DP: the reached states of every stage.
pub(crate) struct Solved<'t> {
    table: &'t LevelTable,
    cost: Vec<f64>,
    back: Vec<u32>,
    live: Vec<usize>,
    live_at: Vec<(usize, usize)>,
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

impl Solved<'_> {
    /// Every reached sink state, in the order a closing loop must
    /// enumerate them: sinks in `graph.sinks()` order, states in
    /// visiting order.
    pub(crate) fn sinks<'s>(&'s self, graph: &'s ServiceGraph) -> impl Iterator<Item = Sink> + 's {
        let states = self.table.unit.len();
        graph.sinks().into_iter().flat_map(move |sink| {
            let base = sink.index() * states;
            let (from, to) = self.live_at[sink.index()];
            self.live[from..to].iter().map(move |&state| Sink {
                at: base + state,
                cost: self.cost[base + state],
                unit: self.table.units[self.table.unit[state]],
                entry: self.table.proxy[state],
            })
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::ServiceId;

    /// Three units of three proxies each (`3 * unit..3 * unit + 3`) on
    /// a line, each bordering a sibling through the proxy whose offset
    /// is the sibling's id.
    fn table(units: [usize; 3]) -> LevelTable {
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
        )
    }

    #[test]
    fn units_are_visited_by_id_whatever_order_they_come_in() {
        let graph = ServiceGraph::linear(vec![ServiceId::new(0); 3]);
        let sinks = |units| {
            let table = table(units);
            let start = Start {
                state: table.source_slot(1),
                rank: 1,
                row: &[1.0, 1.0],
            };
            let solved = table.solve(&graph, &start, |_, _| true).unwrap();
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
}
