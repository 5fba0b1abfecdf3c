//! Distributed request resolution — Section 5 as an actual message
//! exchange.
//!
//! [`HierarchicalRouter::route`] computes paths centrally for speed;
//! this module runs the same divide-and-conquer as the *protocol* the
//! paper describes (Figure 5), on the deterministic event simulator:
//!
//! 1. the client's request travels from the source proxy to the
//!    destination proxy `pd`;
//! 2. `pd` computes the CSP locally and ships each child request to its
//!    solver proxy (the cluster's exit border);
//! 3. every solver answers with its optimal child service path;
//! 4. `pd` composes the answers once the last one arrives.
//!
//! The outcome reports the *resolution latency* (simulated time from
//! request issue to composition) and the control messages spent —
//! numbers the centralized shortcut cannot give.

use crate::flat::RouteError;
use crate::hier::{HierRoute, HierarchicalRouter, RoutePlan};
use crate::sdag::Assignment;
use son_netsim::graph::NodeId;
use son_netsim::sim::{Actor, Ctx, Simulator};
use son_netsim::SimTime;
use son_overlay::{DelayModel, ProxyId, ServiceRequest};

/// Messages of the resolution protocol.
#[derive(Debug, Clone)]
enum SessionMsg {
    /// The original request travelling from the source proxy to `pd`.
    Issue,
    /// A child request (by index into the plan) shipped to its solver.
    Child { index: usize },
    /// A solved child path returning to `pd`.
    Answer {
        index: usize,
        assignments: Vec<Assignment>,
    },
}

/// Per-proxy behaviour during one session. Every actor can see the
/// (immutable) router state and plan — standing in for the converged
/// distributed tables each proxy holds; only `pd` keeps mutable
/// coordination state, and only the source proxy issues.
struct SessionActor<'s, D> {
    router: &'s HierarchicalRouter<'s, D>,
    plan: &'s RoutePlan,
    /// `Some(pd)` on the source proxy: issue the request at start.
    issue_to: Option<ProxyId>,
    /// Set on the destination proxy only.
    coordination: Option<Coordination>,
}

struct Coordination {
    answers: Vec<Option<Vec<Assignment>>>,
    completed_at: Option<SimTime>,
    infeasible: bool,
}

impl Coordination {
    fn record(&mut self, index: usize, assignments: Vec<Assignment>, now: SimTime) {
        self.answers[index] = Some(assignments);
        if self.answers.iter().all(Option::is_some) {
            self.completed_at = Some(now);
        }
    }
}

impl<D: DelayModel> Actor for SessionActor<'_, D> {
    type Msg = SessionMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SessionMsg>) {
        if let Some(pd) = self.issue_to {
            ctx.send(NodeId::new(pd.index()), SessionMsg::Issue);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SessionMsg>, from: NodeId, msg: SessionMsg) {
        match msg {
            SessionMsg::Issue => {
                let me = ctx.me();
                let now = ctx.now();
                // A relay-only request has no children: composition
                // happens the moment the request arrives.
                if self.plan.children.is_empty() {
                    self.coordination
                        .as_mut()
                        .expect("Issue is addressed to the destination proxy")
                        .completed_at = Some(now);
                }
                // pd distributes child requests; children assigned to
                // pd itself are solved in place.
                for (index, spec) in self.plan.children.iter().enumerate() {
                    if spec.solver.index() == me.index() {
                        let solved = self.router.solve_child(spec);
                        let coordination = self
                            .coordination
                            .as_mut()
                            .expect("Issue is addressed to the destination proxy");
                        match solved {
                            Some(assignments) => coordination.record(index, assignments, now),
                            None => coordination.infeasible = true,
                        }
                    } else {
                        ctx.send(
                            NodeId::new(spec.solver.index()),
                            SessionMsg::Child { index },
                        );
                    }
                }
            }
            SessionMsg::Child { index } => {
                // A solver resolves the child within its own cluster and
                // replies; an unsolvable child returns an empty answer
                // which pd flags as infeasible.
                let assignments = self
                    .router
                    .solve_child(&self.plan.children[index])
                    .unwrap_or_default();
                ctx.send(from, SessionMsg::Answer { index, assignments });
            }
            SessionMsg::Answer { index, assignments } => {
                let now = ctx.now();
                let coordination = self
                    .coordination
                    .as_mut()
                    .expect("answers return to the destination proxy");
                if assignments.is_empty() && !self.plan.children[index].services.is_empty() {
                    coordination.infeasible = true;
                } else {
                    coordination.record(index, assignments, now);
                }
            }
        }
    }
}

/// The outcome of a simulated resolution session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The composed route — identical to what
    /// [`HierarchicalRouter::route`] returns for the same request.
    pub route: HierRoute,
    /// Simulated time from the source issuing the request until the
    /// destination proxy has composed the final path (includes the
    /// source → pd issue hop).
    pub resolution_latency: SimTime,
    /// Control messages delivered (issue + child requests + answers).
    pub messages: u64,
}

/// Simulates the Section 5 resolution protocol for `request`.
///
/// `delays` provides the control-message latencies between proxies —
/// pass the *true* delay model to measure realistic control-plane
/// latency; the router keeps using its own (predicted) distances for
/// routing decisions.
///
/// # Errors
///
/// The same routing errors as [`HierarchicalRouter::route`].
pub fn resolve_distributed<D, M>(
    router: &HierarchicalRouter<'_, D>,
    request: &ServiceRequest,
    delays: &M,
) -> Result<SessionReport, RouteError>
where
    D: DelayModel,
    M: DelayModel,
{
    let plan = router.plan(request)?;
    let n = router.proxy_count();
    let child_count = plan.children.len();

    let mut actors: Vec<SessionActor<'_, D>> = (0..n)
        .map(|_| SessionActor {
            router,
            plan: &plan,
            issue_to: None,
            coordination: None,
        })
        .collect();
    actors[request.destination.index()].coordination = Some(Coordination {
        answers: vec![None; child_count],
        completed_at: None,
        infeasible: false,
    });
    actors[request.source.index()].issue_to = Some(request.destination);

    let mut sim = Simulator::new(actors, |a: NodeId, b: NodeId| {
        SimTime::from_ms(delays.delay(ProxyId::new(a.index()), ProxyId::new(b.index())))
    });
    let stats = sim.run_until_quiescent(SimTime::from_micros(u64::MAX / 4));

    let coordination = sim.actors()[request.destination.index()]
        .coordination
        .as_ref()
        .expect("pd keeps its coordination state");
    if coordination.infeasible {
        return Err(RouteError::Infeasible);
    }
    let completed_at = coordination
        .completed_at
        .expect("quiescence implies every answer arrived");
    let answers: Vec<Vec<Assignment>> = coordination
        .answers
        .iter()
        .map(|a| a.clone().expect("all answers recorded"))
        .collect();
    drop(sim);
    let route = router.compose(request, plan, &answers)?;
    Ok(SessionReport {
        route,
        resolution_latency: completed_at,
        messages: stats.messages_delivered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use crate::hier::HierConfig;
    use son_overlay::{ServiceGraph, ServiceId};

    fn sid(i: usize) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn distributed_resolution_matches_centralized_route() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear((1..=5).map(sid).collect()),
            ProxyId::new(9),
        );
        let central = router.route(&request).unwrap();
        let session = resolve_distributed(&router, &request, &delays).unwrap();
        assert_eq!(session.route.path, central.path);
        assert_eq!(session.route.csp, central.csp);
    }

    #[test]
    fn latency_accounts_for_issue_and_child_round_trips() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2), // C0.2
            ServiceGraph::linear((1..=5).map(sid).collect()),
            ProxyId::new(9), // C2.1 = pd
        );
        let session = resolve_distributed(&router, &request, &delays).unwrap();
        // Children: C0 solved by C0.1, C1 by C1.2, C2 by pd itself.
        // Latency = issue (C0.2→C2.1) + max over remote children of the
        // round trip pd→solver→pd.
        use son_overlay::DelayModel as _;
        let issue = delays.delay(ProxyId::new(2), ProxyId::new(9));
        let rtt_c01 = 2.0 * delays.delay(ProxyId::new(9), ProxyId::new(1));
        let rtt_c12 = 2.0 * delays.delay(ProxyId::new(9), ProxyId::new(6));
        let expected = issue + rtt_c01.max(rtt_c12);
        assert!(
            (session.resolution_latency.as_ms() - expected).abs() < 1e-6,
            "latency {} vs expected {expected}",
            session.resolution_latency.as_ms()
        );
        // Messages: 1 issue + 2 child requests + 2 answers.
        assert_eq!(session.messages, 5);
    }

    #[test]
    fn intra_cluster_request_needs_only_the_issue_hop() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        // S2 → S3 fully inside C1, destination solves everything.
        let request = ServiceRequest::new(
            ProxyId::new(7),
            ServiceGraph::linear(vec![sid(2), sid(3)]),
            ProxyId::new(6),
        );
        let session = resolve_distributed(&router, &request, &delays).unwrap();
        assert_eq!(session.messages, 1, "only the issue message");
        use son_overlay::DelayModel as _;
        let issue = delays.delay(ProxyId::new(7), ProxyId::new(6));
        assert!((session.resolution_latency.as_ms() - issue).abs() < 1e-6);
    }

    #[test]
    fn errors_propagate_like_the_centralized_router() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![sid(42)]),
            ProxyId::new(9),
        );
        assert_eq!(
            resolve_distributed(&router, &request, &delays),
            Err(RouteError::NoProvider(sid(42)))
        );
    }
}

#[cfg(test)]
mod relay_tests {
    use super::*;
    use crate::fixtures::paper_example;
    use crate::hier::HierConfig;
    use son_overlay::ServiceGraph;

    #[test]
    fn relay_only_session_completes_on_issue() {
        let (hfc, delays, services) = paper_example();
        let router =
            HierarchicalRouter::from_services(&hfc, &services, &delays, HierConfig::default());
        let request = ServiceRequest::new(
            ProxyId::new(2),
            ServiceGraph::linear(vec![]),
            ProxyId::new(12),
        );
        let session = resolve_distributed(&router, &request, &delays).unwrap();
        assert_eq!(session.messages, 1);
        assert_eq!(session.route.path, router.route(&request).unwrap().path);
        use son_overlay::DelayModel as _;
        let issue = delays.delay(ProxyId::new(2), ProxyId::new(12));
        assert!((session.resolution_latency.as_ms() - issue).abs() < 1e-6);
    }
}
