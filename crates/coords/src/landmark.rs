//! Landmark selection strategies.
//!
//! The paper just assumes "a small group of m landmarks" (Section 3.1);
//! where they sit matters for embedding quality, so landmarks are
//! picked by the greedy max-min (k-center) spread that GNP deployments
//! favour.

use son_netsim::graph::{Graph, NodeId};

/// Picks `m` landmarks by greedy max-min delay spread (k-center
/// heuristic): start from the candidate farthest from all others, then
/// repeatedly add the candidate maximizing its minimum delay to the
/// landmarks chosen so far.
///
/// Well-spread landmarks give every host diverse reference distances,
/// which improves coordinate quality.
///
/// # Panics
///
/// Panics if `m == 0` or `m > candidates.len()`.
pub fn select_landmarks_maxmin(graph: &Graph, candidates: &[NodeId], m: usize) -> Vec<NodeId> {
    assert!(m > 0, "need at least one landmark");
    assert!(
        m <= candidates.len(),
        "cannot pick {m} landmarks from {} candidates",
        candidates.len()
    );
    // Seed with the candidate of median index for determinism, then run
    // the standard farthest-point traversal.
    let mut chosen = vec![candidates[candidates.len() / 2]];
    let mut min_delay: Vec<f64> = {
        let d = graph.dijkstra(chosen[0]);
        candidates.iter().map(|c| d[c.index()]).collect()
    };
    while chosen.len() < m {
        let (best_idx, _) = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| !chosen.contains(c))
            .max_by(|a, b| {
                min_delay[a.0]
                    .partial_cmp(&min_delay[b.0])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("candidates remain");
        let next = candidates[best_idx];
        chosen.push(next);
        let d = graph.dijkstra(next);
        for (slot, c) in min_delay.iter_mut().zip(candidates) {
            *slot = slot.min(d[c.index()]);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_netsim::topology::{PhysicalNetwork, TransitStubConfig};

    #[test]
    fn maxmin_spreads_better_than_worst_case() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::default());
        let stubs = net.stub_nodes();
        let picked = select_landmarks_maxmin(net.graph(), &stubs, 8);
        assert_eq!(picked.len(), 8);
        // All distinct.
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        // Pairwise delays among chosen landmarks are all strictly
        // positive (no two landmarks at delay ~0 of each other, i.e.
        // not all in one stub domain).
        let mut min_pair = f64::INFINITY;
        for &a in &picked {
            let d = net.graph().dijkstra(a);
            for &b in &picked {
                if a != b {
                    min_pair = min_pair.min(d[b.index()]);
                }
            }
        }
        assert!(min_pair > 1.0, "landmarks collapsed: min pair {min_pair}");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_landmarks_panics() {
        let candidates = [NodeId::new(0)];
        let _ = select_landmarks_maxmin(&Graph::with_nodes(1), &candidates, 0);
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn too_many_landmarks_panics() {
        let candidates = [NodeId::new(0)];
        let _ = select_landmarks_maxmin(&Graph::with_nodes(1), &candidates, 2);
    }
}
