//! Concrete service paths.

use son_overlay::{DelayModel, ProxyId, ServiceId, ServiceRequest};
use std::fmt;
use std::sync::Arc;

/// One hop of a service path: a proxy and the service it applies
/// (`None` means the proxy acts as a pure message relay — the paper's
/// `−/pᵢ` notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// The proxy visited.
    pub proxy: ProxyId,
    /// The service applied there, if any.
    pub service: Option<ServiceId>,
}

impl PathHop {
    /// A relay hop (`−/p`).
    pub fn relay(proxy: ProxyId) -> Self {
        PathHop {
            proxy,
            service: None,
        }
    }

    /// A service hop (`s/p`).
    pub fn serving(proxy: ProxyId, service: ServiceId) -> Self {
        PathHop {
            proxy,
            service: Some(service),
        }
    }
}

impl fmt::Display for PathHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.service {
            Some(s) => write!(f, "{s}/{}", self.proxy),
            None => write!(f, "-/{}", self.proxy),
        }
    }
}

/// A concrete service path
/// `sp = ⟨−/p₀, s₁/p₁, …, sₙ/pₙ, −/pₙ₊₁⟩` (paper Section 2.2).
///
/// The same proxy may appear in consecutive hops when it applies
/// several services in sequence (zero-cost hops). A path is immutable
/// once built, so its hops are shared: a clone — a route-cache hit, say
/// — bumps a reference count and copies no hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServicePath {
    hops: Arc<[PathHop]>,
}

/// Why a service path failed validation against a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidatePathError {
    /// The first hop is not the request's source proxy.
    WrongSource,
    /// The last hop is not the request's destination proxy.
    WrongDestination,
    /// The sequence of applied services matches no feasible
    /// configuration of the service graph.
    NotAConfiguration,
    /// A hop applies a service its proxy does not carry.
    MissingService {
        /// The offending proxy.
        proxy: ProxyId,
        /// The service it was asked to apply.
        service: ServiceId,
    },
}

impl fmt::Display for ValidatePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidatePathError::WrongSource => write!(f, "path does not start at the source proxy"),
            ValidatePathError::WrongDestination => {
                write!(f, "path does not end at the destination proxy")
            }
            ValidatePathError::NotAConfiguration => {
                write!(f, "applied services match no feasible configuration")
            }
            ValidatePathError::MissingService { proxy, service } => {
                write!(f, "proxy {proxy} does not carry service {service}")
            }
        }
    }
}

impl std::error::Error for ValidatePathError {}

impl ServicePath {
    /// Wraps a hop list into a path.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty (a path visits at least one proxy).
    pub fn new(hops: Vec<PathHop>) -> Self {
        assert!(!hops.is_empty(), "a service path needs at least one hop");
        ServicePath { hops: hops.into() }
    }

    /// The hops in order.
    pub fn hops(&self) -> &[PathHop] {
        &self.hops
    }

    /// The first proxy.
    pub fn source(&self) -> ProxyId {
        self.hops.first().expect("paths are non-empty").proxy
    }

    /// The last proxy.
    pub fn destination(&self) -> ProxyId {
        self.hops.last().expect("paths are non-empty").proxy
    }

    /// The services applied, in order.
    pub fn service_chain(&self) -> Vec<ServiceId> {
        self.hops.iter().filter_map(|h| h.service).collect()
    }

    /// Number of pure relay hops strictly between the endpoints.
    pub fn relay_count(&self) -> usize {
        if self.hops.len() < 2 {
            return 0;
        }
        self.hops[1..self.hops.len() - 1]
            .iter()
            .filter(|h| h.service.is_none())
            .count()
    }

    /// Total delay of the path under `delays`: the sum over consecutive
    /// hops (repeated proxies cost zero).
    pub fn length<D: DelayModel>(&self, delays: &D) -> f64 {
        self.hops
            .windows(2)
            .map(|w| delays.delay(w[0].proxy, w[1].proxy))
            .sum()
    }

    /// Checks the path against a request: endpoints, configuration
    /// feasibility, and service availability (via `carries`, which
    /// answers whether a proxy has a service installed).
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate<F>(&self, request: &ServiceRequest, carries: F) -> Result<(), ValidatePathError>
    where
        F: Fn(ProxyId, ServiceId) -> bool,
    {
        if self.source() != request.source {
            return Err(ValidatePathError::WrongSource);
        }
        if self.destination() != request.destination {
            return Err(ValidatePathError::WrongDestination);
        }
        let chain = self.service_chain();
        let feasible = request.graph.configurations().iter().any(|config| {
            config.len() == chain.len()
                && config
                    .iter()
                    .zip(&chain)
                    .all(|(stage, s)| request.graph.service(*stage) == *s)
        });
        if !feasible {
            return Err(ValidatePathError::NotAConfiguration);
        }
        for hop in self.hops.iter() {
            if let Some(service) = hop.service {
                if !carries(hop.proxy, service) {
                    return Err(ValidatePathError::MissingService {
                        proxy: hop.proxy,
                        service,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for ServicePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{hop}")?;
        }
        write!(f, "⟩")
    }
}

/// Incrementally composes a [`ServicePath`].
///
/// Centralises the hop bookkeeping every router needs — relay
/// deduplication, collapsing a service onto a trailing relay of the
/// same proxy, appending expanded hop segments, splicing child paths —
/// so the flat, hierarchical, and multi-level routers share one
/// implementation instead of three hand-rolled helpers.
#[derive(Debug, Clone)]
pub struct PathBuilder {
    hops: Vec<PathHop>,
}

impl PathBuilder {
    /// Starts a path at the request's source proxy (the paper's leading
    /// `−/p₀` hop).
    pub fn start(source: ProxyId) -> Self {
        PathBuilder {
            hops: vec![PathHop::relay(source)],
        }
    }

    /// The proxy the path currently ends at.
    pub fn current(&self) -> ProxyId {
        self.hops.last().expect("paths are non-empty").proxy
    }

    /// Appends a relay hop unless the path already ends at `proxy`.
    pub fn relay(&mut self, proxy: ProxyId) {
        if self.current() != proxy {
            self.hops.push(PathHop::relay(proxy));
        }
    }

    /// Applies `service` at `proxy`: collapses onto a trailing relay of
    /// the same proxy — but never the bare source hop — otherwise
    /// appends a fresh serving hop (a zero-cost self-hop).
    pub fn serve(&mut self, proxy: ProxyId, service: ServiceId) {
        let len = self.hops.len();
        match self.hops.last_mut() {
            Some(last) if last.proxy == proxy && last.service.is_none() && len > 1 => {
                last.service = Some(service);
            }
            _ => self.hops.push(PathHop::serving(proxy, service)),
        }
    }

    /// Appends an inclusive expanded hop list (mesh relays, HFC border
    /// chains) whose first element must be the current end. Every
    /// subsequent element becomes a relay hop, duplicates included, so
    /// zero-cost self-hops stay explicit for [`PathBuilder::serve`] to
    /// collapse onto.
    pub fn extend_expanded(&mut self, segment: &[ProxyId]) {
        debug_assert_eq!(
            segment.first().copied(),
            Some(self.current()),
            "expansion must start at the current hop"
        );
        for &p in &segment[1..] {
            self.hops.push(PathHop::relay(p));
        }
    }

    /// Ends the path at `destination`, deduplicating by proxy: if the
    /// path already ends there (even with a service applied) no hop is
    /// added.
    pub fn finish(mut self, destination: ProxyId) -> ServicePath {
        self.relay(destination);
        ServicePath::new(self.hops)
    }

    /// Ends the path with an explicit bare relay at `destination` (the
    /// paper's trailing `−/pₙ₊₁`): a hop is appended whenever the path
    /// ends elsewhere *or* its last hop applies a service.
    pub fn finish_with_relay(mut self, destination: ProxyId) -> ServicePath {
        let last = self.hops.last().expect("paths are non-empty");
        if last.proxy != destination || last.service.is_some() {
            self.hops.push(PathHop::relay(destination));
        }
        ServicePath::new(self.hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_overlay::{DelayMatrix, ServiceGraph};

    fn line_delays(n: usize) -> DelayMatrix {
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        DelayMatrix::from_values(n, values)
    }

    fn sample_path() -> ServicePath {
        ServicePath::new(vec![
            PathHop::relay(ProxyId::new(0)),
            PathHop::serving(ProxyId::new(1), ServiceId::new(7)),
            PathHop::relay(ProxyId::new(2)),
            PathHop::serving(ProxyId::new(3), ServiceId::new(8)),
            PathHop::relay(ProxyId::new(4)),
        ])
    }

    #[test]
    fn accessors_work() {
        let p = sample_path();
        assert_eq!(p.source(), ProxyId::new(0));
        assert_eq!(p.destination(), ProxyId::new(4));
        assert_eq!(
            p.service_chain(),
            vec![ServiceId::new(7), ServiceId::new(8)]
        );
        assert_eq!(p.relay_count(), 1);
        assert_eq!(p.hops().len(), 5);
    }

    #[test]
    fn length_sums_hop_delays() {
        let p = sample_path();
        assert_eq!(p.length(&line_delays(5)), 4.0);
        // Repeated proxies cost nothing.
        let twice = ServicePath::new(vec![
            PathHop::relay(ProxyId::new(0)),
            PathHop::serving(ProxyId::new(1), ServiceId::new(0)),
            PathHop::serving(ProxyId::new(1), ServiceId::new(1)),
            PathHop::relay(ProxyId::new(2)),
        ]);
        assert_eq!(twice.length(&line_delays(3)), 2.0);
    }

    #[test]
    fn validate_accepts_correct_path() {
        let p = sample_path();
        let graph = ServiceGraph::linear(vec![ServiceId::new(7), ServiceId::new(8)]);
        let request = ServiceRequest::new(ProxyId::new(0), graph, ProxyId::new(4));
        assert_eq!(p.validate(&request, |_, _| true), Ok(()));
    }

    #[test]
    fn validate_rejects_wrong_endpoints() {
        let p = sample_path();
        let graph = ServiceGraph::linear(vec![ServiceId::new(7), ServiceId::new(8)]);
        let request = ServiceRequest::new(ProxyId::new(1), graph.clone(), ProxyId::new(4));
        assert_eq!(
            p.validate(&request, |_, _| true),
            Err(ValidatePathError::WrongSource)
        );
        let request = ServiceRequest::new(ProxyId::new(0), graph, ProxyId::new(3));
        assert_eq!(
            p.validate(&request, |_, _| true),
            Err(ValidatePathError::WrongDestination)
        );
    }

    #[test]
    fn validate_rejects_wrong_chain() {
        let p = sample_path();
        let graph = ServiceGraph::linear(vec![ServiceId::new(8), ServiceId::new(7)]);
        let request = ServiceRequest::new(ProxyId::new(0), graph, ProxyId::new(4));
        assert_eq!(
            p.validate(&request, |_, _| true),
            Err(ValidatePathError::NotAConfiguration)
        );
    }

    #[test]
    fn validate_rejects_missing_service() {
        let p = sample_path();
        let graph = ServiceGraph::linear(vec![ServiceId::new(7), ServiceId::new(8)]);
        let request = ServiceRequest::new(ProxyId::new(0), graph, ProxyId::new(4));
        let err = p
            .validate(&request, |proxy, _| proxy != ProxyId::new(3))
            .unwrap_err();
        assert_eq!(
            err,
            ValidatePathError::MissingService {
                proxy: ProxyId::new(3),
                service: ServiceId::new(8),
            }
        );
        assert!(err.to_string().contains("does not carry"));
    }

    #[test]
    fn validate_nonlinear_accepts_any_configuration() {
        // s0 → s1, s2 → s1; configurations: [s0, s1] and [s2, s1].
        let graph = ServiceGraph::builder()
            .stage(ServiceId::new(0))
            .stage(ServiceId::new(1))
            .stage(ServiceId::new(2))
            .edge(0, 1)
            .edge(2, 1)
            .build()
            .unwrap();
        let request = ServiceRequest::new(ProxyId::new(0), graph, ProxyId::new(2));
        let via_s2 = ServicePath::new(vec![
            PathHop::relay(ProxyId::new(0)),
            PathHop::serving(ProxyId::new(1), ServiceId::new(2)),
            PathHop::serving(ProxyId::new(1), ServiceId::new(1)),
            PathHop::relay(ProxyId::new(2)),
        ]);
        assert_eq!(via_s2.validate(&request, |_, _| true), Ok(()));
    }

    #[test]
    fn display_uses_paper_notation() {
        let p = ServicePath::new(vec![
            PathHop::relay(ProxyId::new(0)),
            PathHop::serving(ProxyId::new(1), ServiceId::new(2)),
        ]);
        assert_eq!(p.to_string(), "⟨-/p0, s2/p1⟩");
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_path_panics() {
        let _ = ServicePath::new(vec![]);
    }

    #[test]
    fn builder_collapses_service_onto_trailing_relay() {
        let mut b = PathBuilder::start(ProxyId::new(0));
        b.relay(ProxyId::new(1));
        b.serve(ProxyId::new(1), ServiceId::new(4));
        let path = b.finish_with_relay(ProxyId::new(2));
        assert_eq!(
            path.hops(),
            &[
                PathHop::relay(ProxyId::new(0)),
                PathHop::serving(ProxyId::new(1), ServiceId::new(4)),
                PathHop::relay(ProxyId::new(2)),
            ]
        );
    }

    #[test]
    fn builder_never_collapses_onto_the_source_hop() {
        // Serving at the source keeps the bare -/p₀ hop and adds a
        // zero-cost self-hop, matching the paper's notation.
        let mut b = PathBuilder::start(ProxyId::new(0));
        b.serve(ProxyId::new(0), ServiceId::new(1));
        let path = b.finish_with_relay(ProxyId::new(3));
        assert_eq!(
            path.hops(),
            &[
                PathHop::relay(ProxyId::new(0)),
                PathHop::serving(ProxyId::new(0), ServiceId::new(1)),
                PathHop::relay(ProxyId::new(3)),
            ]
        );
    }

    #[test]
    fn builder_relay_deduplicates_but_expansion_does_not() {
        let mut b = PathBuilder::start(ProxyId::new(0));
        b.relay(ProxyId::new(0)); // no-op
        b.extend_expanded(&[ProxyId::new(0), ProxyId::new(0)]); // explicit self-hop
        assert_eq!(b.current(), ProxyId::new(0));
        let path = b.finish(ProxyId::new(0));
        assert_eq!(path.hops().len(), 2);
    }

    #[test]
    fn builder_finish_variants_differ_on_serving_tail() {
        let mut a = PathBuilder::start(ProxyId::new(0));
        a.serve(ProxyId::new(2), ServiceId::new(0));
        let deduped = a.finish(ProxyId::new(2));
        assert_eq!(deduped.hops().len(), 2);

        let mut b = PathBuilder::start(ProxyId::new(0));
        b.serve(ProxyId::new(2), ServiceId::new(0));
        let explicit = b.finish_with_relay(ProxyId::new(2));
        assert_eq!(explicit.hops().len(), 3);
        assert_eq!(explicit.hops()[2], PathHop::relay(ProxyId::new(2)));
    }
}
