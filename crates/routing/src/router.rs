//! The unified routing interface.
//!
//! Every router in the workspace — [`FlatRouter`] and
//! [`crate::hier::HierarchicalRouter`], at any hierarchy depth — answers
//! the same question: *given a service
//! request, produce a concrete service path or explain why none
//! exists*. [`Router`] captures exactly that, so benches and tests can
//! swap routing strategies generically instead of hard-coding one
//! concrete type per call site.

use crate::flat::{FlatRouter, RouteError};
use crate::hier::HierarchicalRouter;
use crate::path::ServicePath;
use crate::providers::ProviderLookup;
use son_overlay::{DelayModel, ServiceRequest};

/// A routing strategy: maps a service request to a concrete
/// [`ServicePath`].
///
/// Implementors may expose richer per-strategy results (the
/// hierarchical router's `HierRoute` carries cluster-level decisions,
/// for instance); this trait is the lowest common denominator used by
/// generic benches, comparisons, and tests.
pub trait Router {
    /// Computes a service path for `request`.
    ///
    /// # Errors
    ///
    /// [`RouteError::NoProvider`] when a demanded service has no
    /// visible provider; [`RouteError::Infeasible`] when no
    /// configuration of the service graph can be mapped.
    fn route_path(&self, request: &ServiceRequest) -> Result<ServicePath, RouteError>;
}

impl<P, D> Router for FlatRouter<P, D>
where
    P: ProviderLookup,
    D: DelayModel,
{
    fn route_path(&self, request: &ServiceRequest) -> Result<ServicePath, RouteError> {
        self.route(request)
    }
}

impl<D> Router for HierarchicalRouter<'_, D>
where
    D: DelayModel,
{
    fn route_path(&self, request: &ServiceRequest) -> Result<ServicePath, RouteError> {
        self.route(request).map(|route| route.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::HierConfig;
    use crate::providers::ProviderIndex;
    use son_overlay::{DelayMatrix, ProxyId, ServiceGraph, ServiceId, ServiceSet};

    #[test]
    fn flat_and_hier_route_generically() {
        // Six proxies on a line, two clusters of three; service 0 on
        // proxy 1, service 1 on proxy 4.
        let n = 6;
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        let delays = DelayMatrix::from_values(n, values);
        let mut sets = vec![ServiceSet::new(); n];
        sets[1] = ServiceSet::from_iter([ServiceId::new(0)]);
        sets[4] = ServiceSet::from_iter([ServiceId::new(1)]);
        let request = ServiceRequest::new(
            ProxyId::new(0),
            ServiceGraph::linear(vec![ServiceId::new(0), ServiceId::new(1)]),
            ProxyId::new(5),
        );

        let providers = ProviderIndex::from_service_sets(&sets);
        let flat = FlatRouter::new(&providers, &delays);
        let clustering = son_clustering::Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
        let hfc = son_overlay::HfcTopology::build(&clustering, &delays);
        let hier = HierarchicalRouter::from_services(&hfc, &sets, &delays, HierConfig::default());

        // One generic helper drives both strategies.
        fn drive<R: Router>(router: &R, request: &ServiceRequest) -> ServicePath {
            router.route_path(request).expect("request is routable")
        }
        for path in [drive(&flat, &request), drive(&hier, &request)] {
            path.validate(&request, |p, s| sets[p.index()].contains(s))
                .unwrap();
            assert_eq!(
                path.service_chain(),
                vec![ServiceId::new(0), ServiceId::new(1)]
            );
        }

        // The trait is object-safe: dynamic dispatch works too.
        let routers: Vec<&dyn Router> = vec![&flat, &hier];
        for r in routers {
            assert!(r.route_path(&request).is_ok());
        }
    }

    /// Serving engines share routers' inputs across worker threads, so
    /// every router (and the path builder workers use) must stay
    /// `Send + Sync`. Adding unsynchronized interior mutability to any
    /// of these types turns this test into a compile error.
    #[test]
    fn routers_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlatRouter<ProviderIndex, DelayMatrix>>();
        assert_send_sync::<FlatRouter<&ProviderIndex, &(dyn DelayModel + Send + Sync)>>();
        assert_send_sync::<FlatRouter<ProviderIndex, crate::cost::LoadAwareDelays<'_, DelayMatrix>>>(
        );
        assert_send_sync::<HierarchicalRouter<'_, DelayMatrix>>();
        assert_send_sync::<HierarchicalRouter<'_, &DelayMatrix>>();
        assert_send_sync::<crate::path::PathBuilder>();
        assert_send_sync::<ServicePath>();
        assert_send_sync::<RouteError>();
    }
}
