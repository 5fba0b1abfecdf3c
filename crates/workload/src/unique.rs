//! Non-repeating request workloads for honest cache benchmarks.
//!
//! A Zipf mix over a fixed request pool ([`crate::zipf`]) repeats the
//! exact same requests, so an exact-key route cache makes any engine
//! look fast — the benchmark measures the cache, not the router. The
//! [`NonRepeatingWorkload`] keeps the *popularity structure* (a Zipf
//! distribution over cluster-level request **shapes**) while
//! guaranteeing that no two emitted requests share an exact key:
//! every draw of a shape steps a cursor through that shape's
//! never-repeating (source, destination) pairs.
//!
//! A *shape* is `(source cluster, destination cluster, service chain)`
//! with distinct clusters — exactly the granularity at which the
//! engine's CSP frontier tier can reuse work. An exact-key cache sees
//! 0% hits on this workload; a shape-level cache sees the Zipf skew.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_overlay::{ProxyId, ServiceGraph, ServiceId, ServiceRequest};

/// One cluster-level request shape and its pair cursor.
#[derive(Debug, Clone)]
struct Shape {
    sources: Vec<ProxyId>,
    dests: Vec<ProxyId>,
    chain: Vec<ServiceId>,
    /// Next unused (source, destination) pair, encoded as
    /// `i * dests.len() + j`.
    cursor: usize,
}

impl Shape {
    fn capacity(&self) -> usize {
        self.sources.len() * self.dests.len()
    }

    fn remaining(&self) -> usize {
        self.capacity() - self.cursor
    }

    fn emit(&mut self) -> ServiceRequest {
        let i = self.cursor / self.dests.len();
        let j = self.cursor % self.dests.len();
        self.cursor += 1;
        ServiceRequest::new(
            self.sources[i],
            ServiceGraph::linear(self.chain.clone()),
            self.dests[j],
        )
    }
}

/// A Zipf-skewed request stream that never repeats an exact request.
///
/// Built from cluster membership lists and a universe of service
/// chains, it draws `shape_count` distinct shapes (source cluster ≠
/// destination cluster), ranks them by popularity, and answers each
/// request of [`take`](Self::take) by Zipf-sampling a shape and
/// emitting its next unused endpoint pair. A shape whose pairs are
/// exhausted is resampled (rejection), which mildly flattens the very
/// top of the distribution only once shapes start running dry — size
/// the workload below capacity when the skew itself is under test.
///
/// # Panics
///
/// `take` panics when every shape is exhausted: the stream has
/// emitted all distinct requests it can and continuing would repeat
/// one, which is exactly what this generator exists to never do.
#[derive(Debug, Clone)]
pub struct NonRepeatingWorkload {
    shapes: Vec<Shape>,
    zipf: Zipf,
    rng: StdRng,
    remaining: usize,
}

impl NonRepeatingWorkload {
    /// Builds a workload over `clusters` (member lists, index =
    /// cluster id) and `chains` (the service-chain universe, each
    /// non-empty), with `shape_count` distinct shapes skewed by
    /// Zipf(`s`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two non-empty clusters exist, any chain is
    /// empty, or `shape_count` exceeds the number of distinct shapes.
    pub fn new(
        clusters: &[Vec<ProxyId>],
        chains: &[Vec<ServiceId>],
        shape_count: usize,
        s: f64,
        seed: u64,
    ) -> Self {
        let populated: Vec<usize> = (0..clusters.len())
            .filter(|&c| !clusters[c].is_empty())
            .collect();
        assert!(
            populated.len() >= 2,
            "need two non-empty clusters for cross-cluster shapes"
        );
        assert!(
            chains.iter().all(|c| !c.is_empty()),
            "empty service chains have no shape"
        );
        // Shapes are distinct by chain *content*, not universe index —
        // a universe listing the same chain twice must not yield two
        // shapes that would emit identical requests.
        let mut distinct_chains: Vec<&Vec<ServiceId>> = Vec::new();
        for chain in chains {
            if !distinct_chains.contains(&chain) {
                distinct_chains.push(chain);
            }
        }
        let possible = populated.len() * (populated.len() - 1) * distinct_chains.len();
        assert!(
            shape_count <= possible,
            "only {possible} distinct shapes exist, cannot draw {shape_count}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chosen: Vec<(usize, usize, usize)> = Vec::with_capacity(shape_count);
        while chosen.len() < shape_count {
            let src = populated[rng.gen_range(0..populated.len())];
            let dst = populated[rng.gen_range(0..populated.len())];
            if src == dst {
                continue;
            }
            let chain = rng.gen_range(0..chains.len());
            let duplicate = chosen
                .iter()
                .any(|&(s2, d2, c2)| s2 == src && d2 == dst && chains[c2] == chains[chain]);
            if !duplicate {
                chosen.push((src, dst, chain));
            }
        }
        let shapes: Vec<Shape> = chosen
            .into_iter()
            .map(|(src, dst, chain)| Shape {
                sources: clusters[src].clone(),
                dests: clusters[dst].clone(),
                chain: chains[chain].clone(),
                cursor: 0,
            })
            .collect();
        let remaining = shapes.iter().map(Shape::capacity).sum();
        NonRepeatingWorkload {
            zipf: Zipf::new(shapes.len(), s),
            shapes,
            rng,
            remaining,
        }
    }

    /// Distinct requests the stream can still emit.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Emits the next request: Zipf-sample a shape, step its cursor.
    /// Never returns a request whose (source, chain, destination)
    /// triple was emitted before.
    fn next_request(&mut self) -> ServiceRequest {
        assert!(
            self.remaining > 0,
            "non-repeating workload exhausted: every distinct request was emitted"
        );
        loop {
            let rank = self.zipf.sample(&mut self.rng);
            if self.shapes[rank].remaining() == 0 {
                continue;
            }
            self.remaining -= 1;
            return self.shapes[rank].emit();
        }
    }

    /// Emits the next `count` requests.
    ///
    /// # Panics
    ///
    /// Panics when `count` exceeds [`remaining`](Self::remaining).
    pub fn take(&mut self, count: usize) -> Vec<ServiceRequest> {
        (0..count).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Two synthetic clusters of `per_cluster` proxies each.
    fn clusters(per_cluster: usize) -> Vec<Vec<ProxyId>> {
        vec![
            (0..per_cluster).map(ProxyId::new).collect(),
            (per_cluster..2 * per_cluster).map(ProxyId::new).collect(),
        ]
    }

    fn chains(count: usize) -> Vec<Vec<ServiceId>> {
        (0..count)
            .map(|k| vec![ServiceId::new(k), ServiceId::new(k + 1)])
            .collect()
    }

    fn key(r: &ServiceRequest) -> (usize, Vec<usize>, usize) {
        (
            r.source.index(),
            r.graph
                .configurations()
                .first()
                .expect("linear chains have one configuration")
                .iter()
                .map(|&stage| r.graph.service(stage).index())
                .collect(),
            r.destination.index(),
        )
    }

    #[test]
    fn never_emits_a_duplicate_exact_key() {
        let mut wl = NonRepeatingWorkload::new(&clusters(12), &chains(6), 10, 0.9, 3);
        let total = wl.remaining();
        // Drain the stream completely: every request distinct, sources
        // and destinations always in different clusters.
        let mut seen = HashSet::new();
        for _ in 0..total {
            let r = wl.next_request();
            assert!(r.source.index() < 12 || r.destination.index() < 12);
            assert!(r.source.index() >= 12 || r.destination.index() >= 12);
            assert!(seen.insert(key(&r)), "duplicate request emitted");
        }
        assert_eq!(seen.len(), total);
        assert_eq!(wl.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics_instead_of_repeating() {
        let mut wl = NonRepeatingWorkload::new(&clusters(2), &chains(1), 2, 0.9, 1);
        let total = wl.remaining();
        let _ = wl.take(total + 1);
    }

    #[test]
    fn stream_is_seeded() {
        let mk = |seed| {
            let mut wl = NonRepeatingWorkload::new(&clusters(10), &chains(4), 8, 0.9, seed);
            wl.take(500)
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    /// How many requests each shape (by popularity rank) has emitted.
    fn draws_per_shape(wl: &NonRepeatingWorkload) -> Vec<u64> {
        wl.shapes.iter().map(|shape| shape.cursor as u64).collect()
    }

    /// Pearson's χ² of the observed per-shape draw counts against the
    /// Zipf PMF the sampler claims to follow.
    fn chi_square(draws: &[u64], s: f64) -> f64 {
        let n = draws.len();
        let total: u64 = draws.iter().sum();
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let norm: f64 = weights.iter().sum();
        draws
            .iter()
            .zip(&weights)
            .map(|(&observed, w)| {
                let expected = w / norm * total as f64;
                (observed as f64 - expected).powi(2) / expected
            })
            .sum()
    }

    #[test]
    fn shape_skew_matches_the_zipf_pmf() {
        // 20 shapes over clusters of 400: each shape holds 160k
        // distinct pairs, so 200k draws exhaust nothing and the
        // rejection loop never engages — the draw histogram must match
        // the plain Zipf PMF. χ² 99.9th percentile at 19 degrees of
        // freedom is ≈ 43.8 (same bound as `crate::zipf`'s test).
        for s in [0.9, 1.2] {
            let mut wl = NonRepeatingWorkload::new(&clusters(400), &chains(10), 20, s, 11);
            for _ in 0..200_000 {
                let _ = wl.next_request();
            }
            let draws = draws_per_shape(&wl);
            let chi2 = chi_square(&draws, s);
            assert!(chi2 < 43.8, "s={s}: chi2={chi2:.1}, draws={draws:?}");
        }
    }

    #[test]
    fn top_shape_dominates_while_keys_stay_unique() {
        let mut wl = NonRepeatingWorkload::new(&clusters(50), &chains(8), 12, 1.0, 5);
        let batch = wl.take(3_000);
        let mut seen = HashSet::new();
        for r in &batch {
            assert!(seen.insert(key(r)));
        }
        let draws = draws_per_shape(&wl);
        // Rank 0 carries ~1/H_12 ≈ 32% of the mix; the tail ~2.7%.
        assert!(draws[0] > draws[11] * 4, "{draws:?}");
    }
}
