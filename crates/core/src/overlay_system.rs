//! End-to-end construction of a clustered service overlay.
//!
//! [`OverlayBuilder`] runs the paper's pipeline as explicit stages
//! ([`BuildStage`]):
//!
//! 1. **Topology** — generate a transit-stub physical topology
//!    (GT-ITM style);
//! 2. **Landmarks** — pick well-spread landmarks and attach proxies
//!    to stub nodes;
//! 3. **Embedding** — obtain the distance map via GNP coordinates
//!    (Section 3.1);
//! 4. **Distances** — set up lazy true-delay rows for evaluation;
//! 5. **Clustering** — cluster proxies with Zahn's MST method in the
//!    coordinate space (Section 3.2);
//! 6. **Hfc** — build the HFC topology with closest-pair border
//!    selection (Section 3.3);
//! 7. **State** — install services, QoS profiles, and clients.
//!
//! The builder records per-stage wall time in [`BuildStats`] and
//! reruns only stages whose inputs changed, so parameter sweeps (e.g.
//! over Zahn thresholds or border-selection rules) skip regenerating
//! the world. [`ServiceOverlay::build`] remains the one-shot
//! convenience wrapper.
//!
//! The result answers hierarchical routes, mesh-baseline routes,
//! full-state HFC routes, overhead reports (Figure 9) and state
//! protocol runs (Section 4) — everything the evaluation needs.

use son_clustering::{mst_euclidean, Clustering, ZahnClusterer, ZahnConfig};
use son_coords::{select_landmarks_maxmin, EmbeddingConfig, ErrorStats, GnpEmbedding};
use son_netsim::faults::FaultPlan;
use son_netsim::graph::NodeId;
use son_netsim::topology::{PhysicalNetwork, TransitStubConfig};
use son_netsim::SimTime;
use son_overlay::{
    BorderSelection, CachedDelays, CoordDelays, HfcTopology, Hierarchy, HierarchyConfig,
    MeshConfig, MeshTopology, ProxyId, QosProfile, QosRequirement, ServiceId, ServiceRequest,
    ServiceSet, StatusMap,
};
use son_routing::{
    FlatRouter, HierConfig, HierarchicalRouter, MultiLevelRouter, ProviderIndex, RouteError,
    ServicePath,
};
use son_state::{
    flat_overhead, hfc_overhead, DissemMode, OverheadKind, OverheadReport, ProtocolConfig,
    StateProtocol, StateReport,
};
use son_workload::{
    assign_qos, assign_services, generate_requests, place_proxies_excluding, Environment,
    RequestProfile,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to build a [`ServiceOverlay`].
#[derive(Debug, Clone)]
pub struct SonConfig {
    /// Sizes of the world (Table 1 rows or custom).
    pub environment: Environment,
    /// GNP embedding parameters.
    pub embedding: EmbeddingConfig,
    /// Zahn clustering parameters.
    pub zahn: ZahnConfig,
    /// Mesh baseline construction parameters.
    pub mesh: MeshConfig,
    /// Hierarchical router parameters.
    pub hier: HierConfig,
    /// Border-pair selection rule (the paper uses closest-pair;
    /// `FirstPair` is the ablation baseline).
    pub border_selection: BorderSelection,
    /// State protocol timing.
    pub protocol: ProtocolConfig,
    /// Worker threads for the one build stage that fans out — the
    /// per-host embedding solves — `0` = all cores. Each host's solve
    /// is seeded by its index, so any value produces the same overlay,
    /// bit for bit.
    pub threads: usize,
    /// Cap on memoized true-delay rows (`None` = unbounded). At 10k+
    /// proxies an unbounded cache silently materializes the O(n²)
    /// matrix the lazy design exists to avoid; the bench sweeps set
    /// this and assert the bound held.
    pub delay_rows_limit: Option<usize>,
}

impl SonConfig {
    /// The configuration for one of the paper's Table 1 rows
    /// (`proxies` ∈ {250, 500, 750, 1000}).
    ///
    /// # Panics
    ///
    /// Panics for other proxy counts.
    pub fn table1(proxies: usize, seed: u64) -> Self {
        Self::from_environment(Environment::table1(proxies, seed))
    }

    /// A scaled-down configuration for tests and examples.
    pub fn small(seed: u64) -> Self {
        Self::from_environment(Environment::small(seed))
    }

    /// Wraps an environment with default component parameters.
    pub fn from_environment(environment: Environment) -> Self {
        let seed = environment.seed;
        SonConfig {
            environment,
            embedding: EmbeddingConfig {
                seed,
                ..EmbeddingConfig::default()
            },
            zahn: ZahnConfig {
                // Absorb stragglers so clusters stay meaningful.
                min_cluster_size: 2,
                ..ZahnConfig::default()
            },
            mesh: MeshConfig {
                seed,
                ..MeshConfig::default()
            },
            hier: HierConfig::default(),
            border_selection: BorderSelection::default(),
            protocol: ProtocolConfig::default(),
            threads: 1,
            delay_rows_limit: None,
        }
    }
}

/// The pipeline stages of [`OverlayBuilder`], in execution order.
/// Invalidating a stage invalidates everything after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BuildStage {
    /// Physical transit-stub topology generation.
    Topology,
    /// Landmark selection and proxy placement.
    Landmarks,
    /// GNP coordinate embedding and predicted delays.
    Embedding,
    /// True-delay setup (lazy Dijkstra rows, no upfront O(n²) cost).
    Distances,
    /// MST + Zahn clustering in coordinate space.
    Clustering,
    /// HFC topology with border-pair election.
    Hfc,
    /// Service installation, QoS profiles, and client placement.
    State,
}

impl BuildStage {
    /// All stages in execution order.
    pub const ALL: [BuildStage; 7] = [
        BuildStage::Topology,
        BuildStage::Landmarks,
        BuildStage::Embedding,
        BuildStage::Distances,
        BuildStage::Clustering,
        BuildStage::Hfc,
        BuildStage::State,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase stage name, used as the telemetry span name
    /// (`span.build.<name>_us`) and in reports.
    pub fn name(self) -> &'static str {
        match self {
            BuildStage::Topology => "topology",
            BuildStage::Landmarks => "landmarks",
            BuildStage::Embedding => "embedding",
            BuildStage::Distances => "distances",
            BuildStage::Clustering => "clustering",
            BuildStage::Hfc => "hfc",
            BuildStage::State => "state",
        }
    }
}

/// Wall time each pipeline stage took on its most recent run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    times: [Duration; BuildStage::ALL.len()],
}

impl StageTimings {
    /// Wall time of `stage`'s most recent run (zero if it never ran).
    pub fn get(&self, stage: BuildStage) -> Duration {
        self.times[stage.index()]
    }

    /// Total wall time across all stages' most recent runs.
    pub fn total(&self) -> Duration {
        self.times.iter().sum()
    }

    /// Iterates stages with their most recent wall times.
    pub fn iter(&self) -> impl Iterator<Item = (BuildStage, Duration)> + '_ {
        BuildStage::ALL.iter().map(|&s| (s, self.times[s.index()]))
    }
}

/// Timing and quality metadata from a build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildStats {
    /// Relative error of the coordinate embedding over sampled pairs.
    pub embedding_error: ErrorStats,
    /// Number of clusters detected.
    pub clusters: usize,
    /// Size of the largest cluster.
    pub max_cluster_size: usize,
    /// Number of distinct border proxies.
    pub border_proxies: usize,
    /// Per-stage wall time of the pipeline runs that produced this
    /// overlay.
    pub timings: StageTimings,
}

/// A staged, rerunnable builder for [`ServiceOverlay`].
///
/// Each call to [`OverlayBuilder::run`] executes only the *dirty*
/// stages (initially all of them). The `set_*` mutators mark exactly
/// the stages their parameter feeds — e.g. swapping the Zahn config
/// reruns clustering, HFC, and state, but keeps the generated world
/// and its embedding.
///
/// # Example
///
/// ```
/// use son_core::{BuildStage, OverlayBuilder, SonConfig};
/// use son_core::ZahnConfig;
///
/// let mut builder = OverlayBuilder::new(SonConfig::small(3));
/// let first = builder.finish();
///
/// // Sweep a clustering parameter: the physical world, landmarks and
/// // embedding are reused, only clustering and later stages rerun.
/// builder.set_zahn(ZahnConfig { min_cluster_size: 3, ..ZahnConfig::default() });
/// assert!(!builder.is_dirty(BuildStage::Embedding));
/// assert!(builder.is_dirty(BuildStage::Clustering));
/// let second = builder.finish();
/// assert_eq!(first.attachments(), second.attachments());
/// ```
#[derive(Debug)]
pub struct OverlayBuilder {
    config: SonConfig,
    dirty: [bool; BuildStage::ALL.len()],
    run_counts: [usize; BuildStage::ALL.len()],
    timings: StageTimings,
    physical: Option<PhysicalNetwork>,
    landmarks: Option<Vec<NodeId>>,
    attachments: Option<Vec<NodeId>>,
    predicted: Option<CoordDelays>,
    embedding_error: Option<ErrorStats>,
    true_delays: Option<CachedDelays>,
    clustering: Option<Clustering>,
    hfc: Option<HfcTopology>,
    services: Option<Vec<ServiceSet>>,
    qos: Option<Vec<QosProfile>>,
    clients: Option<Vec<NodeId>>,
    client_proxies: Option<Vec<ProxyId>>,
}

impl OverlayBuilder {
    /// Starts a builder with every stage pending.
    pub fn new(config: SonConfig) -> Self {
        OverlayBuilder {
            config,
            dirty: [true; BuildStage::ALL.len()],
            run_counts: [0; BuildStage::ALL.len()],
            timings: StageTimings::default(),
            physical: None,
            landmarks: None,
            attachments: None,
            predicted: None,
            embedding_error: None,
            true_delays: None,
            clustering: None,
            hfc: None,
            services: None,
            qos: None,
            clients: None,
            client_proxies: None,
        }
    }

    /// The current configuration.
    pub fn config(&self) -> &SonConfig {
        &self.config
    }

    /// Marks `stage` and every later stage for rerun.
    pub fn invalidate(&mut self, stage: BuildStage) {
        for flag in self.dirty[stage.index()..].iter_mut() {
            *flag = true;
        }
    }

    /// Whether `stage` will rerun on the next [`OverlayBuilder::run`].
    pub fn is_dirty(&self, stage: BuildStage) -> bool {
        self.dirty[stage.index()]
    }

    /// How many times `stage` has executed.
    pub fn runs(&self, stage: BuildStage) -> usize {
        self.run_counts[stage.index()]
    }

    /// Per-stage wall times of the most recent runs.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Replaces the environment; regenerates the world from scratch.
    pub fn set_environment(&mut self, environment: Environment) -> &mut Self {
        self.config.environment = environment;
        self.invalidate(BuildStage::Topology);
        self
    }

    /// Replaces the embedding parameters; reruns embedding onward.
    pub fn set_embedding(&mut self, embedding: EmbeddingConfig) -> &mut Self {
        self.config.embedding = embedding;
        self.invalidate(BuildStage::Embedding);
        self
    }

    /// Replaces the Zahn clustering parameters; reruns clustering
    /// onward, keeping the world and embedding.
    pub fn set_zahn(&mut self, zahn: ZahnConfig) -> &mut Self {
        self.config.zahn = zahn;
        self.invalidate(BuildStage::Clustering);
        self
    }

    /// Replaces the border-selection rule; reruns only HFC and state.
    pub fn set_border_selection(&mut self, selection: BorderSelection) -> &mut Self {
        self.config.border_selection = selection;
        self.invalidate(BuildStage::Hfc);
        self
    }

    /// Replaces the mesh parameters (query-time only; nothing reruns).
    pub fn set_mesh(&mut self, mesh: MeshConfig) -> &mut Self {
        self.config.mesh = mesh;
        self
    }

    /// Replaces the hierarchical-router parameters (query-time only).
    pub fn set_hier(&mut self, hier: HierConfig) -> &mut Self {
        self.config.hier = hier;
        self
    }

    /// Replaces the state-protocol timing (query-time only).
    pub fn set_protocol(&mut self, protocol: ProtocolConfig) -> &mut Self {
        self.config.protocol = protocol;
        self
    }

    /// Replaces the build thread count. Nothing reruns: every stage is
    /// thread-count-independent, so existing results stay valid.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.config.threads = threads;
        self
    }

    /// Replaces the true-delay row cap; reruns the distances setup.
    pub fn set_delay_rows_limit(&mut self, limit: Option<usize>) -> &mut Self {
        self.config.delay_rows_limit = limit;
        self.invalidate(BuildStage::Distances);
        self
    }

    /// Executes all dirty stages in order, timing each.
    ///
    /// # Panics
    ///
    /// Panics if the environment is inconsistent (e.g. more proxies
    /// than stub nodes).
    pub fn run(&mut self) -> &mut Self {
        let _build = son_telemetry::span!("build");
        for stage in BuildStage::ALL {
            if !self.dirty[stage.index()] {
                continue;
            }
            let start = Instant::now();
            {
                let _stage = son_telemetry::span!(stage.name());
                self.run_stage(stage);
            }
            self.timings.times[stage.index()] = start.elapsed();
            self.run_counts[stage.index()] += 1;
            self.dirty[stage.index()] = false;
        }
        self
    }

    fn run_stage(&mut self, stage: BuildStage) {
        let env = &self.config.environment;
        match stage {
            BuildStage::Topology => {
                let ts = TransitStubConfig::with_target_size(env.physical_nodes, env.seed);
                self.physical = Some(PhysicalNetwork::generate(&ts));
            }
            BuildStage::Landmarks => {
                let physical = self.physical.as_ref().expect("stage order");
                let stubs = physical.stub_nodes();
                let landmarks = select_landmarks_maxmin(physical.graph(), &stubs, env.landmarks);
                self.attachments = Some(place_proxies_excluding(
                    physical,
                    env.proxies,
                    &landmarks,
                    env.seed.wrapping_add(1),
                ));
                self.landmarks = Some(landmarks);
            }
            BuildStage::Embedding => {
                // Distance map via GNP (what the deployed system
                // would know).
                let physical = self.physical.as_ref().expect("stage order");
                let landmarks = self.landmarks.as_ref().expect("stage order");
                let attachments = self.attachments.as_ref().expect("stage order");
                let embedding_config = EmbeddingConfig {
                    threads: self.config.threads,
                    ..self.config.embedding.clone()
                };
                let embedding = GnpEmbedding::compute(
                    physical.graph(),
                    landmarks,
                    attachments,
                    &embedding_config,
                );
                self.embedding_error =
                    Some(embedding.relative_error_stats(physical.graph(), attachments));
                self.predicted = Some(CoordDelays::new(
                    attachments
                        .iter()
                        .map(|&a| {
                            embedding
                                .coordinates(a)
                                .expect("every attachment was embedded")
                                .clone()
                        })
                        .collect(),
                ));
            }
            BuildStage::Distances => {
                // Ground truth for evaluation — lazy rows, so building
                // the overlay costs nothing here; evaluation pays one
                // Dijkstra per source it actually queries.
                let physical = self.physical.as_ref().expect("stage order");
                let attachments = self.attachments.as_ref().expect("stage order");
                self.true_delays = Some(match self.config.delay_rows_limit {
                    Some(limit) => {
                        CachedDelays::bounded(physical.graph().clone(), attachments.clone(), limit)
                    }
                    None => CachedDelays::new(physical.graph().clone(), attachments.clone()),
                });
            }
            BuildStage::Clustering => {
                // Cluster in the coordinate space.
                let predicted = self.predicted.as_ref().expect("stage order");
                let mst = mst_euclidean(predicted.as_slice());
                self.clustering = Some(ZahnClusterer::new(self.config.zahn.clone()).cluster(&mst));
            }
            BuildStage::Hfc => {
                let clustering = self.clustering.as_ref().expect("stage order");
                let predicted = self.predicted.as_ref().expect("stage order");
                self.hfc = Some(HfcTopology::build_with_selection(
                    clustering,
                    predicted,
                    self.config.border_selection,
                ));
            }
            BuildStage::State => {
                let physical = self.physical.as_ref().expect("stage order");
                let landmarks = self.landmarks.as_ref().expect("stage order");
                let attachments = self.attachments.as_ref().expect("stage order");
                self.services = Some(assign_services(
                    env.proxies,
                    env.service_universe,
                    env.services_per_proxy,
                    env.seed.wrapping_add(2),
                ));
                self.qos = Some(assign_qos(env.proxies, env.seed.wrapping_add(3)));
                // Clients attach to stub nodes too (distinct from
                // landmarks); each client's requests terminate at its
                // nearest proxy.
                let clients = place_proxies_excluding(
                    physical,
                    env.clients
                        .min(physical.stub_nodes().len().saturating_sub(env.landmarks)),
                    landmarks,
                    env.seed.wrapping_add(4),
                );
                // One multi-source Dijkstra labels every physical node
                // with its nearest proxy (lowest id among equals); a
                // client that reaches none keeps proxy 0.
                let nearest = physical.graph().nearest_sources(attachments);
                self.client_proxies = Some(
                    clients
                        .iter()
                        .map(|c| ProxyId::new(nearest[c.index()].unwrap_or(0)))
                        .collect(),
                );
                self.clients = Some(clients);
            }
        }
    }

    /// Runs any dirty stages and assembles a [`ServiceOverlay`]. The
    /// builder stays usable for further parameter changes and reruns.
    pub fn finish(&mut self) -> ServiceOverlay {
        self.run();
        let clustering = self.clustering.clone().expect("pipeline ran");
        let hfc = self.hfc.clone().expect("pipeline ran");
        let stats = BuildStats {
            embedding_error: self.embedding_error.expect("pipeline ran"),
            clusters: hfc.cluster_count(),
            max_cluster_size: clustering.max_cluster_size(),
            border_proxies: hfc.all_border_proxies().len(),
            timings: self.timings,
        };
        ServiceOverlay {
            config: self.config.clone(),
            physical: self.physical.clone().expect("pipeline ran"),
            landmarks: self.landmarks.clone().expect("pipeline ran"),
            attachments: self.attachments.clone().expect("pipeline ran"),
            services: self.services.clone().expect("pipeline ran"),
            qos: self.qos.clone().expect("pipeline ran"),
            clients: self.clients.clone().expect("pipeline ran"),
            client_proxies: self.client_proxies.clone().expect("pipeline ran"),
            true_delays: self.true_delays.clone().expect("pipeline ran"),
            predicted: self.predicted.clone().expect("pipeline ran"),
            clustering,
            hfc,
            stats,
        }
    }
}

/// A fully built clustered service overlay network.
#[derive(Debug)]
pub struct ServiceOverlay {
    config: SonConfig,
    physical: PhysicalNetwork,
    landmarks: Vec<NodeId>,
    attachments: Vec<NodeId>,
    services: Vec<ServiceSet>,
    qos: Vec<QosProfile>,
    clients: Vec<NodeId>,
    client_proxies: Vec<ProxyId>,
    true_delays: CachedDelays,
    predicted: CoordDelays,
    clustering: Clustering,
    hfc: HfcTopology,
    stats: BuildStats,
}

impl ServiceOverlay {
    /// Runs the full pipeline. Deterministic in the config's seed.
    /// One-shot convenience over [`OverlayBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if the environment is inconsistent (e.g. more proxies
    /// than stub nodes).
    pub fn build(config: &SonConfig) -> Self {
        OverlayBuilder::new(config.clone()).finish()
    }

    /// Replaces the randomly assigned services with an explicit
    /// placement — used by scenario examples that install specific
    /// named services on specific proxies.
    ///
    /// # Panics
    ///
    /// Panics if `services.len()` differs from the proxy count.
    pub fn with_services(mut self, services: Vec<ServiceSet>) -> Self {
        assert_eq!(
            services.len(),
            self.proxy_count(),
            "one service set per proxy required"
        );
        self.services = services;
        self
    }

    /// The configuration this overlay was built from.
    pub fn config(&self) -> &SonConfig {
        &self.config
    }

    /// The underlying physical network.
    pub fn physical(&self) -> &PhysicalNetwork {
        &self.physical
    }

    /// The landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Physical attachment point of each proxy.
    pub fn attachments(&self) -> &[NodeId] {
        &self.attachments
    }

    /// Number of proxies.
    pub fn proxy_count(&self) -> usize {
        self.attachments.len()
    }

    /// Installed services per proxy.
    pub fn services(&self) -> &[ServiceSet] {
        &self.services
    }

    /// Returns `true` if `proxy` carries `service` (for path
    /// validation).
    pub fn carries(&self, proxy: ProxyId, service: ServiceId) -> bool {
        self.services[proxy.index()].contains(service)
    }

    /// True end-to-end delays (evaluation metric). Rows are computed
    /// lazily per queried source and memoized.
    pub fn true_delays(&self) -> &CachedDelays {
        &self.true_delays
    }

    /// Coordinate-predicted delays (what nodes route on).
    pub fn predicted_delays(&self) -> &CoordDelays {
        &self.predicted
    }

    /// The proxy clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The HFC topology.
    pub fn hfc(&self) -> &HfcTopology {
        &self.hfc
    }

    /// Build quality metadata.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Physical attachment points of the clients (Table 1's client
    /// column).
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// The proxy nearest to each client — the destination proxy of
    /// that client's requests.
    pub fn client_proxies(&self) -> &[ProxyId] {
        &self.client_proxies
    }

    /// Generates `count` requests the way the paper's evaluation does:
    /// a random client issues each request, so the destination proxy is
    /// that client's nearest proxy; the source proxy (where the content
    /// originates) is uniform random.
    pub fn generate_client_requests(&self, count: usize, seed: u64) -> Vec<ServiceRequest> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let base = self.generate_requests(count, seed);
        base.into_iter()
            .map(|mut request| {
                if !self.client_proxies.is_empty() {
                    let client = rng.gen_range(0..self.client_proxies.len());
                    request.destination = self.client_proxies[client];
                }
                request
            })
            .collect()
    }

    /// Per-proxy QoS profiles (bandwidth, load, volatility).
    pub fn qos(&self) -> &[QosProfile] {
        &self.qos
    }

    /// The installed services of proxies admissible under `req` —
    /// inadmissible proxies contribute an empty set, so routers built
    /// from the result never select them. This is how QoS embeds into
    /// the hierarchical state: aggregates and provider tables are
    /// computed over admissible proxies only, staying exact at both
    /// levels.
    pub fn admissible_services(&self, req: &QosRequirement) -> Vec<ServiceSet> {
        self.services
            .iter()
            .zip(&self.qos)
            .map(|(set, profile)| {
                if req.admits(profile) {
                    set.clone()
                } else {
                    ServiceSet::new()
                }
            })
            .collect()
    }

    /// A hierarchical router that only maps services onto proxies
    /// admissible under `req` (QoS-constrained routing — the §7
    /// extension).
    pub fn qos_router(&self, req: &QosRequirement) -> HierarchicalRouter<'_, &CoordDelays> {
        HierarchicalRouter::from_services(
            &self.hfc,
            &self.admissible_services(req),
            &self.predicted,
            self.config.hier,
        )
    }

    /// A hierarchical router over this overlay's converged state.
    pub fn hier_router(&self) -> HierarchicalRouter<'_, &CoordDelays> {
        HierarchicalRouter::from_services(
            &self.hfc,
            &self.services,
            &self.predicted,
            self.config.hier,
        )
    }

    /// An immutable, epoch-stamped view of this overlay for the serving
    /// engine. Routers in the engine route on coordinate-predicted
    /// delays, exactly like [`ServiceOverlay::hier_router`] — what
    /// deployed nodes actually know.
    pub fn engine_snapshot(&self) -> son_engine::EngineSnapshot<CoordDelays> {
        son_engine::EngineSnapshot::new(
            self.hfc.clone(),
            self.services.clone(),
            self.predicted.clone(),
        )
    }

    /// Builds the recursive cluster hierarchy (proxies → clusters →
    /// superclusters → …) over this overlay's predicted delays. Depth
    /// follows `config` ([`Hierarchy::build`]).
    pub fn hierarchy(&self, config: &HierarchyConfig) -> Hierarchy {
        Hierarchy::build(&self.hfc, &self.predicted, config)
    }

    /// Like [`ServiceOverlay::hierarchy`] but with exactly `depth`
    /// levels (when the population allows it; see
    /// [`Hierarchy::build_with_depth`]).
    pub fn hierarchy_with_depth(&self, config: &HierarchyConfig, depth: usize) -> Hierarchy {
        Hierarchy::build_with_depth(&self.hfc, &self.predicted, config, depth)
    }

    /// Engine snapshot carrying a recursive hierarchy, so
    /// [`son_engine::MultiLevelProvider`] routes over all its levels
    /// instead of falling back to the bi-level router.
    pub fn engine_snapshot_with_hierarchy(
        &self,
        hierarchy: Arc<Hierarchy>,
    ) -> son_engine::EngineSnapshot<CoordDelays> {
        self.engine_snapshot().with_hierarchy(hierarchy)
    }

    /// A recursive multi-level router over `hierarchy` and this
    /// overlay's converged state.
    pub fn multilevel_router<'a>(
        &'a self,
        hierarchy: &'a Hierarchy,
    ) -> MultiLevelRouter<'a, &'a CoordDelays> {
        MultiLevelRouter::from_services(
            &self.hfc,
            hierarchy,
            &self.services,
            &self.predicted,
            self.config.hier,
        )
    }

    /// A multi-threaded serving engine over this overlay using the
    /// paper's hierarchical router (see `son-engine` for the runtime's
    /// design; use [`son_engine::Engine::new`] directly with a
    /// different provider for flat or three-level routing).
    pub fn engine(
        &self,
        config: son_engine::EngineConfig,
    ) -> son_engine::Engine<CoordDelays, son_engine::HierProvider> {
        son_engine::Engine::new(
            self.engine_snapshot(),
            son_engine::HierProvider {
                config: self.config.hier,
            },
            config,
        )
    }

    /// Builds the mesh baseline over the same proxies. Like the HFC
    /// framework, the single-level solution works from the
    /// coordinates-based distance map (Section 6.1), so nearest
    /// neighbors and link weights come from predicted delays; path
    /// *evaluation* still uses true delays.
    pub fn build_mesh(&self) -> MeshTopology {
        MeshTopology::build(self.proxy_count(), &self.predicted, &self.config.mesh)
    }

    /// Routes a request over the mesh baseline (global state, optimal
    /// under the mesh metric), returning the concrete relay-expanded
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates [`RouteError`] from the flat router.
    pub fn route_mesh(
        &self,
        mesh: &MeshTopology,
        request: &ServiceRequest,
    ) -> Result<ServicePath, RouteError> {
        let providers = ProviderIndex::from_service_sets(&self.services);
        let router = FlatRouter::new(providers, mesh);
        router.route_expanded(request, |a, b| mesh.hops(a, b))
    }

    /// Per-proxy node-state overhead under HFC vs. a flat topology
    /// (Figure 9).
    pub fn overhead(&self, kind: OverheadKind) -> (OverheadReport, OverheadReport) {
        (
            flat_overhead(self.proxy_count(), kind),
            hfc_overhead(&self.hfc, kind),
        )
    }

    /// Runs the hierarchical state distribution protocol over this
    /// overlay (messages travel at true end-to-end delays) until
    /// quiescence. The returned report re-checks the final tables
    /// against ground truth, so `converged` and `stale_entries` are
    /// trustworthy even if delivery was lossy.
    pub fn run_state_protocol(&self) -> StateReport {
        let mut protocol = StateProtocol::new(
            &self.hfc,
            self.services.clone(),
            &self.true_delays,
            self.config.protocol.clone(),
        );
        protocol.run_to_quiescence()
    }

    /// A [`StateProtocol`] over this overlay with `plan` installed and
    /// anti-entropy refresh forced on (the configured
    /// `refresh_period_ms` if positive, else the resilient preset's) —
    /// without refresh, a single lost message could leave tables stale
    /// forever. Run it with [`StateProtocol::run_until_converged`], or
    /// use [`run_state_protocol_faulty`](Self::run_state_protocol_faulty)
    /// for the one-call version.
    pub fn faulty_state_protocol(&self, plan: FaultPlan) -> StateProtocol {
        self.faulty_state_protocol_in(self.config.protocol.mode, plan)
    }

    /// [`faulty_state_protocol`](Self::faulty_state_protocol) with the
    /// dissemination mode overridden, so flooding and tree runs can be
    /// compared over the identical overlay, services, and fault plan.
    pub fn faulty_state_protocol_in(&self, mode: DissemMode, plan: FaultPlan) -> StateProtocol {
        let mut config = self.config.protocol.clone();
        config.mode = mode;
        if config.refresh_period_ms <= 0.0 {
            config.refresh_period_ms = ProtocolConfig::resilient().refresh_period_ms;
        }
        let mut protocol =
            StateProtocol::new(&self.hfc, self.services.clone(), &self.true_delays, config);
        protocol.install_faults(plan);
        protocol
    }

    /// Runs the state protocol under `plan` until every live proxy's
    /// tables match ground truth or `deadline` passes.
    pub fn run_state_protocol_faulty(&self, plan: FaultPlan, deadline: SimTime) -> StateReport {
        self.faulty_state_protocol(plan)
            .run_until_converged(deadline)
    }

    /// [`run_state_protocol_faulty`](Self::run_state_protocol_faulty)
    /// in an explicit dissemination mode.
    pub fn run_state_protocol_faulty_in(
        &self,
        mode: DissemMode,
        plan: FaultPlan,
        deadline: SimTime,
    ) -> StateReport {
        self.faulty_state_protocol_in(mode, plan)
            .run_until_converged(deadline)
    }

    /// Engine snapshot with `down` proxies marked [`Health::Down`]:
    /// after [`son_engine::Engine::install_snapshot`], no route can
    /// select a dead proxy as provider *or relay* (its service set is
    /// emptied and its traversal cost is `+∞`), and the epoch bump
    /// evicts cached routes that did. Equivalent to
    /// [`engine_snapshot_with`](Self::engine_snapshot_with) over
    /// [`StatusMap::from_down`] — health is the one mechanism for
    /// excluding a proxy.
    pub fn engine_snapshot_without(
        &self,
        down: &[ProxyId],
    ) -> son_engine::EngineSnapshot<CoordDelays> {
        self.engine_snapshot_with(
            StatusMap::from_down(self.proxy_count(), down),
            son_routing::CostConfig::default(),
        )
    }

    /// Engine snapshot carrying per-proxy health/capacity/load statuses
    /// and cost weights — the input to overload- and failure-aware
    /// serving.
    pub fn engine_snapshot_with(
        &self,
        statuses: StatusMap,
        cost: son_routing::CostConfig,
    ) -> son_engine::EngineSnapshot<CoordDelays> {
        self.engine_snapshot().with_statuses(statuses, cost)
    }

    /// Generates `count` random requests matching this overlay's
    /// environment profile.
    pub fn generate_requests(&self, count: usize, seed: u64) -> Vec<ServiceRequest> {
        let profile = RequestProfile::from_environment(&self.config.environment);
        generate_requests(
            count,
            self.proxy_count(),
            self.config.environment.service_universe,
            &profile,
            seed,
        )
    }

    /// The true length of a path (shortest-path physical delays along
    /// its overlay hops).
    pub fn true_length(&self, path: &ServicePath) -> f64 {
        path.length(&self.true_delays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay() -> ServiceOverlay {
        ServiceOverlay::build(&SonConfig::small(3))
    }

    #[test]
    fn build_produces_consistent_world() {
        let o = overlay();
        assert_eq!(o.proxy_count(), o.config().environment.proxies);
        assert_eq!(o.services().len(), o.proxy_count());
        assert_eq!(o.clustering().point_count(), o.proxy_count());
        assert!(o.hfc().cluster_count() >= 1);
        assert_eq!(o.stats().clusters, o.hfc().cluster_count());
        // Landmarks and proxies are disjoint.
        for a in o.attachments() {
            assert!(!o.landmarks().contains(a));
        }
    }

    #[test]
    fn build_records_per_stage_spans() {
        son_telemetry::set_enabled(true);
        let registry = son_telemetry::global();
        let build_before = registry.histogram("span.build_us").count();
        let stage_before: Vec<u64> = BuildStage::ALL
            .iter()
            .map(|s| {
                registry
                    .histogram(&format!("span.build.{}_us", s.name()))
                    .count()
            })
            .collect();
        let _ = overlay();
        assert!(registry.histogram("span.build_us").count() > build_before);
        for (stage, before) in BuildStage::ALL.iter().zip(stage_before) {
            let hist = registry.histogram(&format!("span.build.{}_us", stage.name()));
            assert!(hist.count() > before, "no span for stage {stage:?}");
        }
    }

    #[test]
    fn embedding_is_usable() {
        let o = overlay();
        assert!(
            o.stats().embedding_error.median < 0.5,
            "median relative error {:?}",
            o.stats().embedding_error
        );
    }

    #[test]
    fn clustering_finds_structure() {
        let o = overlay();
        assert!(
            o.hfc().cluster_count() > 1,
            "a transit-stub world should split into clusters"
        );
        assert!(o.stats().max_cluster_size < o.proxy_count());
    }

    #[test]
    fn hierarchical_routes_validate() {
        let o = overlay();
        let router = o.hier_router();
        let requests = o.generate_requests(30, 5);
        let mut routed = 0;
        for request in &requests {
            if let Ok(route) = router.route(request) {
                route
                    .path
                    .validate(request, |p, s| o.carries(p, s))
                    .unwrap();
                routed += 1;
            }
        }
        assert!(routed > 15, "only {routed}/30 requests routable");
    }

    #[test]
    fn mesh_routes_validate_and_are_longer_on_average() {
        let o = overlay();
        let mesh = o.build_mesh();
        let router = o.hier_router();
        let requests = o.generate_requests(30, 7);
        let mut mesh_total = 0.0;
        let mut hier_total = 0.0;
        let mut compared = 0;
        for request in &requests {
            let (Ok(m), Ok(h)) = (o.route_mesh(&mesh, request), router.route(request)) else {
                continue;
            };
            m.validate(request, |p, s| o.carries(p, s)).unwrap();
            mesh_total += o.true_length(&m);
            hier_total += o.true_length(&h.path);
            compared += 1;
        }
        assert!(compared > 10, "compared only {compared}");
        // The paper's headline: HFC paths are comparable to (actually
        // slightly better than) mesh paths. Allow generous slack: HFC
        // must not be dramatically worse.
        assert!(
            hier_total < mesh_total * 1.3,
            "hier {hier_total:.1} vs mesh {mesh_total:.1}"
        );
    }

    #[test]
    fn state_protocol_converges_on_built_overlay() {
        let o = overlay();
        let report = o.run_state_protocol();
        assert!(report.converged, "{report:?}");
    }

    #[test]
    fn overhead_reports_match_paper_shape() {
        let o = overlay();
        let (flat_c, hfc_c) = o.overhead(OverheadKind::Coordinates);
        let (flat_s, hfc_s) = o.overhead(OverheadKind::ServiceCapability);
        assert_eq!(flat_c.mean as usize, o.proxy_count());
        assert!(hfc_c.mean < flat_c.mean);
        assert!(hfc_s.mean < flat_s.mean);
    }

    #[test]
    fn builds_are_deterministic() {
        let a = ServiceOverlay::build(&SonConfig::small(11));
        let b = ServiceOverlay::build(&SonConfig::small(11));
        assert_eq!(a.attachments(), b.attachments());
        assert_eq!(a.hfc().cluster_count(), b.hfc().cluster_count());
        assert_eq!(a.services(), b.services());
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;
    use son_overlay::DelayModel;

    #[test]
    fn builder_matches_one_shot_build() {
        let config = SonConfig::small(3);
        let one_shot = ServiceOverlay::build(&config);
        let staged = OverlayBuilder::new(config).finish();
        assert_eq!(one_shot.attachments(), staged.attachments());
        assert_eq!(one_shot.services(), staged.services());
        assert_eq!(one_shot.hfc().snapshot(), staged.hfc().snapshot());
        assert_eq!(one_shot.client_proxies(), staged.client_proxies());
    }

    #[test]
    fn only_dirty_stages_rerun() {
        let mut builder = OverlayBuilder::new(SonConfig::small(3));
        builder.run();
        for stage in BuildStage::ALL {
            assert_eq!(builder.runs(stage), 1);
            assert!(!builder.is_dirty(stage));
        }
        // A clean rerun does nothing.
        builder.run();
        for stage in BuildStage::ALL {
            assert_eq!(builder.runs(stage), 1);
        }
        // Changing the border rule reruns HFC and state only.
        builder.set_border_selection(BorderSelection::FirstPair);
        builder.run();
        assert_eq!(builder.runs(BuildStage::Topology), 1);
        assert_eq!(builder.runs(BuildStage::Embedding), 1);
        assert_eq!(builder.runs(BuildStage::Clustering), 1);
        assert_eq!(builder.runs(BuildStage::Hfc), 2);
        assert_eq!(builder.runs(BuildStage::State), 2);
        // Changing clustering parameters reaches back one stage more.
        builder.set_zahn(ZahnConfig {
            min_cluster_size: 3,
            ..ZahnConfig::default()
        });
        builder.run();
        assert_eq!(builder.runs(BuildStage::Embedding), 1);
        assert_eq!(builder.runs(BuildStage::Clustering), 2);
        assert_eq!(builder.runs(BuildStage::Hfc), 3);
    }

    #[test]
    fn rerun_with_same_params_reproduces_the_one_shot_world() {
        // Sweep away and back: the final overlay must be identical to
        // a fresh build with the final parameters.
        let mut builder = OverlayBuilder::new(SonConfig::small(7));
        let _ = builder.finish();
        builder.set_border_selection(BorderSelection::FirstPair);
        let ablated = builder.finish();
        let fresh = ServiceOverlay::build(&SonConfig {
            border_selection: BorderSelection::FirstPair,
            ..SonConfig::small(7)
        });
        assert_eq!(ablated.hfc().snapshot(), fresh.hfc().snapshot());
        assert_eq!(ablated.attachments(), fresh.attachments());
    }

    #[test]
    fn stage_timings_are_recorded() {
        let overlay = ServiceOverlay::build(&SonConfig::small(5));
        let timings = overlay.stats().timings;
        // Every stage ran; the expensive ones cannot take literally
        // zero time.
        assert!(timings.total() > Duration::ZERO);
        assert!(timings.get(BuildStage::Embedding) > Duration::ZERO);
        let enumerated: Vec<_> = timings.iter().collect();
        assert_eq!(enumerated.len(), BuildStage::ALL.len());
    }

    #[test]
    fn true_delays_are_lazy() {
        let overlay = ServiceOverlay::build(&SonConfig::small(6));
        // Building must not have densified the full matrix: client
        // attachment uses the physical graph directly, so at most a
        // handful of rows may be warm.
        assert_eq!(overlay.true_delays().computed_rows(), 0);
        let p = ProxyId::new(0);
        let q = ProxyId::new(1);
        let d = overlay.true_delays().delay(p, q);
        assert!(d.is_finite() && d > 0.0);
        assert_eq!(overlay.true_delays().computed_rows(), 1);
    }
}

#[cfg(test)]
mod qos_tests {
    use super::*;
    use son_routing::RouteError;

    #[test]
    fn qos_router_only_uses_admissible_proxies() {
        let overlay = ServiceOverlay::build(&SonConfig::small(8));
        let req = QosRequirement {
            max_load: Some(0.5),
            ..QosRequirement::default()
        };
        let router = overlay.qos_router(&req);
        for request in &overlay.generate_requests(30, 2) {
            if let Ok(route) = router.route(request) {
                for hop in route.path.hops() {
                    if hop.service.is_some() {
                        assert!(
                            req.admits(&overlay.qos()[hop.proxy.index()]),
                            "inadmissible provider {} selected",
                            hop.proxy
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stricter_requirements_route_fewer_requests() {
        let overlay = ServiceOverlay::build(&SonConfig::small(9));
        let routable = |req: &QosRequirement| {
            let router = overlay.qos_router(req);
            overlay
                .generate_requests(40, 5)
                .iter()
                .filter(|r| router.route(r).is_ok())
                .count()
        };
        let lax = routable(&QosRequirement::default());
        let strict = routable(&QosRequirement {
            min_bandwidth_mbps: Some(500.0),
            max_load: Some(0.3),
            ..QosRequirement::default()
        });
        assert!(strict <= lax, "strict {strict} > lax {lax}");
        let impossible = routable(&QosRequirement {
            min_bandwidth_mbps: Some(10_000.0),
            ..QosRequirement::default()
        });
        assert_eq!(impossible, 0);
    }

    #[test]
    fn unconstrained_qos_router_matches_plain_router() {
        let overlay = ServiceOverlay::build(&SonConfig::small(10));
        let plain = overlay.hier_router();
        let qos = overlay.qos_router(&QosRequirement::default());
        for request in &overlay.generate_requests(20, 4) {
            match (plain.route(request), qos.route(request)) {
                (Ok(a), Ok(b)) => assert_eq!(a.path, b.path),
                (Err(RouteError::NoProvider(a)), Err(RouteError::NoProvider(b))) => {
                    assert_eq!(a, b)
                }
                (a, b) => panic!("divergence: {a:?} vs {b:?}"),
            }
        }
    }
}

#[cfg(test)]
mod client_tests {
    use super::*;

    #[test]
    fn clients_map_to_nearest_proxies() {
        let o = ServiceOverlay::build(&SonConfig::small(12));
        assert_eq!(o.clients().len(), o.config().environment.clients);
        assert_eq!(o.client_proxies().len(), o.clients().len());
        // Each mapped proxy really is the nearest one by true delay.
        for (client, &proxy) in o.clients().iter().zip(o.client_proxies()) {
            let dist = o.physical().graph().dijkstra(*client);
            let best = o
                .attachments()
                .iter()
                .map(|a| dist[a.index()])
                .fold(f64::INFINITY, f64::min);
            assert!((dist[o.attachments()[proxy.index()].index()] - best).abs() < 1e-9);
        }
    }

    #[test]
    fn client_requests_terminate_at_client_proxies() {
        let o = ServiceOverlay::build(&SonConfig::small(13));
        for request in o.generate_client_requests(50, 3) {
            assert!(
                o.client_proxies().contains(&request.destination),
                "destination {} is not a client proxy",
                request.destination
            );
        }
    }
}
