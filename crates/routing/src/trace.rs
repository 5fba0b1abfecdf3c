//! Route provenance: [`TraceRouter`].
//!
//! [`TraceRouter`] extends [`Router`] with a variant that also returns
//! a [`RouteTrace`] — the telemetry record explaining which decisions
//! produced the path. The hierarchical router fills the whole record at
//! every depth (top-level dissection, per-unit child answers, the
//! cluster border crossings of the composed path); the flat router
//! reports the basics (path, cost, timing).

use std::time::Instant;

use crate::flat::{FlatRouter, RouteError};
use crate::hier::HierarchicalRouter;
use crate::path::ServicePath;
use crate::providers::ProviderLookup;
use crate::router::Router;
use son_overlay::{DelayModel, ServiceRequest};
use son_telemetry::{BorderHop, ChildTrace, CspStage, RouteTrace, TraceHop};

/// A router that can explain itself: routes a request and returns the
/// provenance record alongside the answer.
pub trait TraceRouter: Router {
    /// Routes `request` and reports how the answer came to be.
    ///
    /// The `Result` matches [`Router::route_path`] exactly; the trace is
    /// returned even on failure (with `outcome` set to the error).
    fn route_with_trace(
        &self,
        request: &ServiceRequest,
    ) -> (Result<ServicePath, RouteError>, RouteTrace);
}

/// Converts a concrete path into telemetry hops.
pub fn trace_hops(path: &ServicePath) -> Vec<TraceHop> {
    path.hops()
        .iter()
        .map(|hop| TraceHop {
            proxy: hop.proxy.index(),
            service: hop.service.map(|s| s.index()),
        })
        .collect()
}

/// Starts a trace pre-filled with the request's endpoints and services.
pub fn request_trace(router: &str, request: &ServiceRequest) -> RouteTrace {
    let mut trace = RouteTrace::new(router);
    trace.source = request.source.index();
    trace.destination = request.destination.index();
    trace.services = request
        .graph
        .stage_ids()
        .map(|s| request.graph.service(s).index())
        .collect();
    trace
}

impl<P, D> TraceRouter for FlatRouter<P, D>
where
    P: ProviderLookup,
    D: DelayModel,
{
    fn route_with_trace(
        &self,
        request: &ServiceRequest,
    ) -> (Result<ServicePath, RouteError>, RouteTrace) {
        let start = Instant::now();
        let mut trace = request_trace("flat", request);
        let result = self.route(request);
        trace.elapsed_us = start.elapsed().as_secs_f64() * 1e6;
        match &result {
            Ok(path) => {
                trace.hops = trace_hops(path);
                trace.cost = Some(path.length(self.delays()));
            }
            Err(err) => trace.outcome = err.to_string(),
        }
        (result, trace)
    }
}

impl<D> TraceRouter for HierarchicalRouter<'_, D>
where
    D: DelayModel,
{
    fn route_with_trace(
        &self,
        request: &ServiceRequest,
    ) -> (Result<ServicePath, RouteError>, RouteTrace) {
        let start = Instant::now();
        let mut trace = request_trace("hier", request);
        let plan = match self.plan(request) {
            Ok(plan) => plan,
            Err(err) => {
                trace.outcome = err.to_string();
                trace.elapsed_us = start.elapsed().as_secs_f64() * 1e6;
                return (Err(err), trace);
            }
        };
        trace.estimate = Some(plan.estimate);
        trace.csp = plan
            .csp
            .iter()
            .map(|&(stage, cluster)| CspStage {
                stage: stage.index(),
                cluster: cluster.index(),
            })
            .collect();
        trace.children = plan
            .children
            .iter()
            .map(|child| ChildTrace {
                cluster: child.cluster.index(),
                solver: child.solver.index(),
                source: child.source.index(),
                dest: child.dest.index(),
                services: child.services.iter().map(|s| s.index()).collect(),
                assigned: Vec::new(),
            })
            .collect();
        let mut answers = Vec::with_capacity(plan.children.len());
        for (i, child) in plan.children.iter().enumerate() {
            match self.solve_child(child) {
                Some(assignments) => {
                    trace.children[i].assigned =
                        assignments.iter().map(|a| a.proxy.index()).collect();
                    answers.push(assignments);
                }
                None => {
                    trace.outcome = format!(
                        "infeasible: cluster C{} could not solve its child request",
                        child.cluster.index()
                    );
                    trace.elapsed_us = start.elapsed().as_secs_f64() * 1e6;
                    return (Err(RouteError::Infeasible), trace);
                }
            }
        }
        let route = self.compose(request, plan, &answers);
        trace.elapsed_us = start.elapsed().as_secs_f64() * 1e6;
        let route = match route {
            Ok(route) => route,
            Err(err) => {
                trace.outcome = err.to_string();
                return (Err(err), trace);
            }
        };
        let hfc = self.hfc();
        trace.border_hops = route
            .path
            .hops()
            .windows(2)
            .filter(|w| hfc.cluster_of(w[0].proxy) != hfc.cluster_of(w[1].proxy))
            .map(|w| BorderHop {
                from_proxy: w[0].proxy.index(),
                to_proxy: w[1].proxy.index(),
            })
            .collect();
        trace.hops = trace_hops(&route.path);
        trace.cost = Some(route.path.length(self.known_delays()));
        (Ok(route.path), trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use crate::hier::HierConfig;
    use crate::providers::ProviderIndex;
    use son_overlay::{ProxyId, ServiceGraph, ServiceId};

    fn paper_request() -> ServiceRequest {
        ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear((1..=5).map(ServiceId::new).collect()),
            ProxyId::new(9),
        )
    }

    #[test]
    fn hier_trace_records_full_provenance() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = paper_request();
        let (result, trace) = router.route_with_trace(&request);
        let path = result.unwrap();

        // The traced route equals the plain route.
        assert_eq!(path, router.route(&request).unwrap().path);
        // CSP: S1/C0, S2..S4/C1, S5/C2 — three children.
        let clusters: Vec<usize> = trace.csp.iter().map(|c| c.cluster).collect();
        assert_eq!(clusters, vec![0, 1, 1, 1, 2]);
        assert_eq!(trace.children.len(), 3);
        // Every child's assignment covers its services.
        for child in &trace.children {
            assert_eq!(child.assigned.len(), child.services.len());
        }
        // Two border crossings: C0->C1 and C1->C2.
        assert_eq!(trace.border_hops.len(), 2);
        // Cost matches the true path length; estimate is recorded.
        assert_eq!(trace.cost, Some(path.length(&delays)));
        assert!(trace.estimate.is_some());
        assert_eq!(trace.hops.len(), path.hops().len());
        assert_eq!(trace.outcome, "ok");
    }

    #[test]
    fn failed_route_still_returns_a_trace() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![ServiceId::new(77)]),
            ProxyId::new(9),
        );
        let (result, trace) = router.route_with_trace(&request);
        assert!(result.is_err());
        assert!(trace.outcome.contains("no provider"), "{}", trace.outcome);
        assert!(trace.hops.is_empty());
    }

    #[test]
    fn flat_trace_reports_cost_and_hops() {
        let (_, delays, services) = paper_example();
        let providers = ProviderIndex::from_service_sets(&services);
        let router = FlatRouter::new(&providers, &delays);
        let request = paper_request();
        let (result, trace) = router.route_with_trace(&request);
        let path = result.unwrap();
        assert_eq!(trace.router, "flat");
        assert_eq!(trace.cost, Some(path.length(&delays)));
        assert_eq!(trace.hops.len(), path.hops().len());
        assert!(trace.csp.is_empty());
    }
}
