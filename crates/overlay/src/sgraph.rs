//! Service graphs (SGs): the dependency structure of a request.
//!
//! A service request asks for a path satisfying a linear or non-linear
//! service dependency graph (paper Figure 2). Nodes are *stages*, each
//! demanding one named service; `si → sj` means service `si` must be
//! applied before `sj`. In a non-linear SG, **any** path from a source
//! stage (no incoming edges) to a sink stage (no outgoing edges) is a
//! feasible configuration, so a concrete service path always realizes
//! one linear chain of stages.

use crate::service::ServiceId;
use std::fmt;

/// Identifier of a stage within one [`ServiceGraph`].
///
/// Stages are distinct from services: the same service may be demanded
/// by two different stages (e.g. "compress" both before and after an
/// edit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(u32);

impl StageId {
    /// Creates a stage id from a raw index.
    pub fn new(index: usize) -> Self {
        StageId(index as u32)
    }

    /// Dense index of this stage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A directed acyclic graph of service stages.
///
/// # Example
///
/// The paper's Figure 2(b): configurations `s0→s1→s2`, `s3→s1→s2` and
/// `s3→s2`.
///
/// ```
/// use son_overlay::{ServiceGraph, ServiceId};
///
/// let s: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
/// let graph = ServiceGraph::builder()
///     .stage(s[0]) // stage 0
///     .stage(s[1]) // stage 1
///     .stage(s[2]) // stage 2
///     .stage(s[3]) // stage 3
///     .edge(0, 1)
///     .edge(1, 2)
///     .edge(3, 1)
///     .edge(3, 2)
///     .build()
///     .unwrap();
/// assert_eq!(graph.configurations().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceGraph {
    stages: Vec<ServiceId>,
    /// Outgoing adjacency per stage.
    successors: Vec<Vec<StageId>>,
    /// Incoming adjacency per stage.
    predecessors: Vec<Vec<StageId>>,
}

/// Error constructing a [`ServiceGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildServiceGraphError {
    /// The dependency edges contain a cycle.
    Cyclic,
    /// An edge referenced a stage index that does not exist.
    UnknownStage(usize),
    /// An edge connected a stage to itself.
    SelfLoop(usize),
}

impl fmt::Display for BuildServiceGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildServiceGraphError::Cyclic => write!(f, "service dependencies contain a cycle"),
            BuildServiceGraphError::UnknownStage(i) => {
                write!(f, "edge references unknown stage {i}")
            }
            BuildServiceGraphError::SelfLoop(i) => write!(f, "stage {i} depends on itself"),
        }
    }
}

impl std::error::Error for BuildServiceGraphError {}

/// Incremental builder for [`ServiceGraph`].
#[derive(Debug, Clone, Default)]
pub struct ServiceGraphBuilder {
    stages: Vec<ServiceId>,
    edges: Vec<(usize, usize)>,
}

impl ServiceGraphBuilder {
    /// Adds a stage demanding `service`; returns the builder for
    /// chaining. Stage indices are assigned in call order.
    pub fn stage(mut self, service: ServiceId) -> Self {
        self.stages.push(service);
        self
    }

    /// Adds a dependency edge `from → to` (stage indices).
    pub fn edge(mut self, from: usize, to: usize) -> Self {
        self.edges.push((from, to));
        self
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns an error if an edge references a missing stage, forms a
    /// self-loop, or the edges are cyclic.
    pub fn build(self) -> Result<ServiceGraph, BuildServiceGraphError> {
        let n = self.stages.len();
        let mut successors = vec![Vec::new(); n];
        let mut predecessors = vec![Vec::new(); n];
        for &(from, to) in &self.edges {
            if from >= n {
                return Err(BuildServiceGraphError::UnknownStage(from));
            }
            if to >= n {
                return Err(BuildServiceGraphError::UnknownStage(to));
            }
            if from == to {
                return Err(BuildServiceGraphError::SelfLoop(from));
            }
            successors[from].push(StageId::new(to));
            predecessors[to].push(StageId::new(from));
        }
        let graph = ServiceGraph {
            stages: self.stages,
            successors,
            predecessors,
        };
        if graph.topological_order().is_none() {
            return Err(BuildServiceGraphError::Cyclic);
        }
        Ok(graph)
    }
}

impl ServiceGraph {
    /// Starts building a graph.
    pub fn builder() -> ServiceGraphBuilder {
        ServiceGraphBuilder::default()
    }

    /// A linear chain `services[0] → services[1] → …` (paper
    /// Figure 2(a)). An empty list yields the empty graph (a pure relay
    /// request).
    pub fn linear(services: Vec<ServiceId>) -> Self {
        let n = services.len();
        let mut builder = ServiceGraphBuilder::default();
        for s in services {
            builder = builder.stage(s);
        }
        for i in 1..n {
            builder = builder.edge(i - 1, i);
        }
        builder.build().expect("a chain is always acyclic")
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` for the empty (relay-only) graph.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The service demanded by `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn service(&self, stage: StageId) -> ServiceId {
        self.stages[stage.index()]
    }

    /// All stage ids.
    pub fn stage_ids(&self) -> impl Iterator<Item = StageId> + '_ {
        (0..self.stages.len()).map(StageId::new)
    }

    /// Stages with no incoming edges (the paper's "source services").
    pub fn sources(&self) -> Vec<StageId> {
        self.stage_ids()
            .filter(|s| self.predecessors[s.index()].is_empty())
            .collect()
    }

    /// Stages with no outgoing edges (the paper's "sink services").
    pub fn sinks(&self) -> Vec<StageId> {
        self.stage_ids()
            .filter(|s| self.successors[s.index()].is_empty())
            .collect()
    }

    /// Direct predecessors of `stage`.
    pub fn predecessors(&self, stage: StageId) -> &[StageId] {
        &self.predecessors[stage.index()]
    }

    /// Returns `true` if the graph is a single chain (at most one
    /// successor and predecessor per stage, one source, one sink).
    pub fn is_linear(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.sources().len() == 1
            && self.sinks().len() == 1
            && self
                .stage_ids()
                .all(|s| self.successors[s.index()].len() <= 1)
    }

    /// A topological order of the stages, or `None` if cyclic (only
    /// possible for graphs built without validation — kept for the
    /// builder's internal check).
    pub fn topological_order(&self) -> Option<Vec<StageId>> {
        let n = self.stages.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.predecessors[i].len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.reverse(); // pop from the back => ascending index order
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(StageId::new(i));
            for &next in &self.successors[i] {
                indegree[next.index()] -= 1;
                if indegree[next.index()] == 0 {
                    ready.push(next.index());
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Enumerates every feasible configuration: each path from a source
    /// stage to a sink stage, as a sequence of stages.
    ///
    /// The empty graph has exactly one configuration — the empty chain.
    /// Exponential in the worst case; intended for request-sized graphs
    /// and brute-force checks.
    pub fn configurations(&self) -> Vec<Vec<StageId>> {
        if self.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        let mut path = Vec::new();
        for src in self.sources() {
            self.walk(src, &mut path, &mut out);
        }
        out
    }

    fn walk(&self, at: StageId, path: &mut Vec<StageId>, out: &mut Vec<Vec<StageId>>) {
        path.push(at);
        if self.successors[at.index()].is_empty() {
            out.push(path.clone());
        } else {
            for &next in &self.successors[at.index()] {
                self.walk(next, path, out);
            }
        }
        path.pop();
    }

    /// The set of distinct services demanded anywhere in the graph.
    pub fn demanded_services(&self) -> Vec<ServiceId> {
        let mut services = self.stages.clone();
        services.sort();
        services.dedup();
        services
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn linear_graph_has_one_configuration() {
        let g = ServiceGraph::linear(vec![sid(0), sid(1), sid(2)]);
        assert!(g.is_linear());
        assert_eq!(g.sources(), vec![StageId::new(0)]);
        assert_eq!(g.sinks(), vec![StageId::new(2)]);
        let configs = g.configurations();
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].len(), 3);
    }

    #[test]
    fn empty_graph_is_relay_only() {
        let g = ServiceGraph::linear(vec![]);
        assert!(g.is_empty());
        assert!(g.is_linear());
        assert_eq!(g.configurations(), vec![Vec::<StageId>::new()]);
        assert!(g.demanded_services().is_empty());
    }

    #[test]
    fn paper_figure_2b_has_three_configurations() {
        // s0 → s1 → s2, plus s3 → s1 and s3 → s2.
        let g = ServiceGraph::builder()
            .stage(sid(0))
            .stage(sid(1))
            .stage(sid(2))
            .stage(sid(3))
            .edge(0, 1)
            .edge(1, 2)
            .edge(3, 1)
            .edge(3, 2)
            .build()
            .unwrap();
        assert!(!g.is_linear());
        let mut configs: Vec<Vec<usize>> = g
            .configurations()
            .into_iter()
            .map(|c| c.iter().map(|s| s.index()).collect())
            .collect();
        configs.sort();
        assert_eq!(configs, vec![vec![0, 1, 2], vec![3, 1, 2], vec![3, 2]]);
    }

    #[test]
    fn duplicate_services_are_distinct_stages() {
        // compress → edit → compress
        let g = ServiceGraph::linear(vec![sid(9), sid(1), sid(9)]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.demanded_services(), vec![sid(1), sid(9)]);
        assert_eq!(g.service(StageId::new(0)), g.service(StageId::new(2)));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = ServiceGraph::builder()
            .stage(sid(0))
            .stage(sid(1))
            .stage(sid(2))
            .edge(2, 0)
            .edge(0, 1)
            .build()
            .unwrap();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = (0..3)
            .map(|i| order.iter().position(|s| s.index() == i).unwrap())
            .collect();
        assert!(pos[2] < pos[0]);
        assert!(pos[0] < pos[1]);
    }

    #[test]
    fn cycle_is_rejected() {
        let err = ServiceGraph::builder()
            .stage(sid(0))
            .stage(sid(1))
            .edge(0, 1)
            .edge(1, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildServiceGraphError::Cyclic);
        assert_eq!(err.to_string(), "service dependencies contain a cycle");
    }

    #[test]
    fn bad_edges_are_rejected() {
        let err = ServiceGraph::builder()
            .stage(sid(0))
            .edge(0, 3)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildServiceGraphError::UnknownStage(3));
        let err = ServiceGraph::builder()
            .stage(sid(0))
            .edge(0, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildServiceGraphError::SelfLoop(0));
    }

    #[test]
    fn diamond_counts_paths() {
        //    1
        //  /   \
        // 0     3    → two configurations (0-1-3, 0-2-3)
        //  \   /
        //    2
        let g = ServiceGraph::builder()
            .stage(sid(0))
            .stage(sid(1))
            .stage(sid(2))
            .stage(sid(3))
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build()
            .unwrap();
        assert_eq!(g.configurations().len(), 2);
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert!(!g.is_linear());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random DAGs: stages 0..n with edges only from lower to higher
    /// indices (guaranteed acyclic).
    fn dag_strategy() -> impl Strategy<Value = ServiceGraph> {
        (2usize..8).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0usize..n, 0usize..n), 0..(n * 2));
            edges.prop_map(move |raw| {
                let mut builder = ServiceGraph::builder();
                for i in 0..n {
                    builder = builder.stage(ServiceId::new(i % 3));
                }
                for (a, b) in raw {
                    let (lo, hi) = (a.min(b), a.max(b));
                    if lo != hi {
                        builder = builder.edge(lo, hi);
                    }
                }
                builder.build().expect("forward edges cannot cycle")
            })
        })
    }

    proptest! {
        #[test]
        fn topological_order_respects_every_edge(graph in dag_strategy()) {
            let order = graph.topological_order().expect("builder validated acyclicity");
            prop_assert_eq!(order.len(), graph.len());
            let pos: Vec<usize> = (0..graph.len())
                .map(|i| order.iter().position(|s| s.index() == i).unwrap())
                .collect();
            for stage in graph.stage_ids() {
                for &next in &graph.successors[stage.index()] {
                    prop_assert!(pos[stage.index()] < pos[next.index()]);
                }
            }
        }

        #[test]
        fn configurations_are_source_to_sink_walks(graph in dag_strategy()) {
            let sources = graph.sources();
            let sinks = graph.sinks();
            for config in graph.configurations() {
                prop_assert!(!config.is_empty());
                prop_assert!(sources.contains(config.first().unwrap()));
                prop_assert!(sinks.contains(config.last().unwrap()));
                for w in config.windows(2) {
                    prop_assert!(graph.successors[w[0].index()].contains(&w[1]),
                        "configuration skipped an edge");
                }
            }
        }

        #[test]
        fn linear_graphs_have_exactly_one_configuration(
            services in proptest::collection::vec(0usize..5, 0..8)
        ) {
            let graph = ServiceGraph::linear(
                services.iter().map(|&s| ServiceId::new(s)).collect(),
            );
            prop_assert!(graph.is_linear());
            prop_assert_eq!(graph.configurations().len(), 1);
        }
    }
}
