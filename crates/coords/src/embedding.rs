//! The GNP landmark embedding itself.
//!
//! [`GnpEmbedding::compute`] performs the paper's three steps
//! (Section 3.1): measure landmark–landmark delays, embed the landmarks
//! into a `k`-dimensional space with minimum relative error, then solve
//! each host's coordinates against the fixed landmark positions. Both
//! minimizations use [`crate::neldermead`] with random restarts.

use crate::neldermead::{minimize, NelderMeadConfig};
use crate::space::Coordinates;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_netsim::graph::{DistanceTable, Graph, NodeId};
use son_netsim::measure::{DelayMeasurer, MeasureConfig};

/// Configuration of a GNP embedding run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingConfig {
    /// Dimensionality `k` of the coordinate space (the paper uses 2).
    pub dims: usize,
    /// Delay measurement model (probes + noise).
    pub measure: MeasureConfig,
    /// Simplex minimizer settings.
    pub nelder_mead: NelderMeadConfig,
    /// Random restarts for the landmark fit (best kept).
    pub landmark_restarts: usize,
    /// Random restarts per host fit.
    pub host_restarts: usize,
    /// RNG seed for restart initialization.
    pub seed: u64,
    /// Worker threads for the per-host solving stage (`0` = all
    /// cores). The thread count never changes the result: every host
    /// draws its noise and restart jitter from its own seed-derived
    /// RNG, so `threads: 8` is bit-identical to `threads: 1`.
    pub threads: usize,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        EmbeddingConfig {
            dims: 2,
            measure: MeasureConfig::default(),
            nelder_mead: NelderMeadConfig::default(),
            landmark_restarts: 4,
            host_restarts: 3,
            seed: 0,
            threads: 1,
        }
    }
}

/// Derives a per-host RNG seed from the base seed (splitmix64-style
/// finalizer — consecutive host indices must yield unrelated streams).
fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Summary statistics of relative prediction error
/// `|predicted − true| / true` over sampled host pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Mean relative error.
    pub mean: f64,
    /// Median relative error.
    pub median: f64,
    /// 90th-percentile relative error.
    pub p90: f64,
    /// Worst observed relative error.
    pub max: f64,
    /// Number of pairs sampled.
    pub samples: usize,
}

/// A computed set of network coordinates for landmarks and hosts.
///
/// Once built, the predicted delay between any two embedded nodes is
/// the Euclidean distance between their coordinates — no further
/// measurements needed, which is the entire point: `O(m² + nm)`
/// measurements yield an `O(n²)` distance map.
#[derive(Debug, Clone)]
pub struct GnpEmbedding {
    dims: usize,
    landmarks: Vec<NodeId>,
    coords: Vec<Option<Coordinates>>,
    landmark_fit_error: f64,
}

impl GnpEmbedding {
    /// Runs the full GNP procedure over `graph`.
    ///
    /// `landmarks` are the reference nodes; `hosts` are the nodes to
    /// embed (overlay proxies). Landmarks are embedded first from their
    /// pairwise measured delays; each host is then solved independently
    /// from its delays to the landmarks.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dims + 1` landmarks are given (the
    /// embedding would be under-constrained) or `dims == 0`.
    pub fn compute(
        graph: &Graph,
        landmarks: &[NodeId],
        hosts: &[NodeId],
        config: &EmbeddingConfig,
    ) -> Self {
        assert!(config.dims > 0, "need at least one dimension");
        assert!(
            landmarks.len() > config.dims,
            "need more than {} landmarks for a {}-D embedding",
            config.dims,
            config.dims
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let table = DistanceTable::new(graph, landmarks);
        let mut measurer = DelayMeasurer::new(table, config.measure.clone());

        // Step 1: landmark-landmark measured delays.
        let m = landmarks.len();
        let mut lm_delay = vec![vec![0.0f64; m]; m];
        let mut max_delay: f64 = 0.0;
        for i in 0..m {
            for j in (i + 1)..m {
                let d = measurer.measure(landmarks[i], landmarks[j]);
                lm_delay[i][j] = d;
                lm_delay[j][i] = d;
                max_delay = max_delay.max(d);
            }
        }

        // Step 2: embed landmarks, minimizing squared relative error.
        let dims = config.dims;
        let objective = |x: &[f64]| -> f64 {
            let mut err = 0.0;
            for i in 0..m {
                for j in (i + 1)..m {
                    let measured = lm_delay[i][j];
                    if measured <= 0.0 {
                        continue;
                    }
                    let mut sq = 0.0;
                    for d in 0..dims {
                        let diff = x[i * dims + d] - x[j * dims + d];
                        sq += diff * diff;
                    }
                    let predicted = sq.sqrt();
                    let rel = (measured - predicted) / measured;
                    err += rel * rel;
                }
            }
            err
        };
        let mut nm = config.nelder_mead.clone();
        nm.initial_step = (max_delay / 4.0).max(1.0);
        let mut best: Option<(Vec<f64>, f64)> = None;
        for _ in 0..config.landmark_restarts.max(1) {
            let x0: Vec<f64> = (0..m * dims)
                .map(|_| (rng.gen::<f64>() - 0.5) * max_delay)
                .collect();
            let (x, v) = minimize(&objective, &x0, &nm);
            if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
                best = Some((x, v));
            }
        }
        let (landmark_flat, landmark_fit_error) = best.expect("at least one restart ran");
        let landmark_coords: Vec<Coordinates> = (0..m)
            .map(|i| Coordinates::new(landmark_flat[i * dims..(i + 1) * dims].to_vec()))
            .collect();

        let mut coords: Vec<Option<Coordinates>> = vec![None; graph.len()];
        for (lm, c) in landmarks.iter().zip(&landmark_coords) {
            coords[lm.index()] = Some(c.clone());
        }

        // Step 3: solve each host against the fixed landmark positions.
        // Hosts are independent given the landmark fit, so this stage
        // fans out across threads; each host's probe noise and restart
        // jitter come from its own seed-derived RNG, making the result
        // independent of both thread count and host visiting order.
        let centroid: Vec<f64> = (0..dims)
            .map(|d| landmark_coords.iter().map(|c| c.as_slice()[d]).sum::<f64>() / m as f64)
            .collect();
        let lm_ref = &landmark_coords;
        let centroid_ref = &centroid;
        let nm_ref = &nm;
        let measurer_ref = &measurer;
        let coords_ref = &coords;
        let solved: Vec<Option<(usize, Coordinates)>> =
            son_par::par_map_chunks(config.threads, hosts.len(), |range| {
                range
                    .map(|hi| {
                        let host = hosts[hi];
                        if coords_ref[host.index()].is_some() {
                            return None; // host doubles as a landmark
                        }
                        let mut host_rng =
                            StdRng::seed_from_u64(mix_seed(config.seed, host.index() as u64));
                        let measured: Vec<f64> = landmarks
                            .iter()
                            .map(|&lm| measurer_ref.measure_with(lm, host, &mut host_rng))
                            .collect();
                        let host_objective = |x: &[f64]| -> f64 {
                            let mut err = 0.0;
                            for (c, &meas) in lm_ref.iter().zip(&measured) {
                                if meas <= 0.0 {
                                    continue;
                                }
                                let mut sq = 0.0;
                                for (d, v) in x.iter().enumerate() {
                                    let diff = v - c.as_slice()[d];
                                    sq += diff * diff;
                                }
                                let rel = (meas - sq.sqrt()) / meas;
                                err += rel * rel;
                            }
                            err
                        };
                        let mut best: Option<(Vec<f64>, f64)> = None;
                        for r in 0..config.host_restarts.max(1) {
                            let x0: Vec<f64> = if r == 0 {
                                centroid_ref.clone()
                            } else {
                                centroid_ref
                                    .iter()
                                    .map(|c| c + (host_rng.gen::<f64>() - 0.5) * max_delay)
                                    .collect()
                            };
                            let (x, v) = minimize(&host_objective, &x0, nm_ref);
                            if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
                                best = Some((x, v));
                            }
                        }
                        let (x, _) = best.expect("at least one restart ran");
                        Some((host.index(), Coordinates::new(x)))
                    })
                    .collect()
            });
        for (index, c) in solved.into_iter().flatten() {
            coords[index] = Some(c);
        }

        GnpEmbedding {
            dims,
            landmarks: landmarks.to_vec(),
            coords,
            landmark_fit_error,
        }
    }

    /// Dimensionality of the space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Residual objective value of the landmark fit (sum of squared
    /// relative errors) — a quality indicator.
    pub fn landmark_fit_error(&self) -> f64 {
        self.landmark_fit_error
    }

    /// Coordinates of `node`, if it was embedded.
    pub fn coordinates(&self, node: NodeId) -> Option<&Coordinates> {
        self.coords.get(node.index()).and_then(|c| c.as_ref())
    }

    /// Predicted delay between two embedded nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node was not embedded.
    pub fn predicted_delay(&self, a: NodeId, b: NodeId) -> f64 {
        let ca = self
            .coordinates(a)
            .unwrap_or_else(|| panic!("{a} was not embedded"));
        let cb = self
            .coordinates(b)
            .unwrap_or_else(|| panic!("{b} was not embedded"));
        ca.distance(cb)
    }

    /// Samples host pairs and reports relative prediction error against
    /// true shortest-path delays (up to 30 sources to bound cost).
    pub fn relative_error_stats(&self, graph: &Graph, hosts: &[NodeId]) -> ErrorStats {
        let step = (hosts.len() / 30).max(1);
        let sources: Vec<NodeId> = hosts.iter().copied().step_by(step).collect();
        // Sized once and sorted in place: grown by doubling and merge-
        // sorted, this was the build's largest transient at 10k hosts.
        let mut errors = Vec::with_capacity(sources.len() * hosts.len());
        for &src in &sources {
            let true_d = graph.dijkstra(src);
            for &dst in hosts {
                if dst == src {
                    continue;
                }
                let t = true_d[dst.index()];
                if !t.is_finite() || t <= 0.0 {
                    continue;
                }
                let p = self.predicted_delay(src, dst);
                errors.push((p - t).abs() / t);
            }
        }
        errors.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let n = errors.len();
        if n == 0 {
            return ErrorStats {
                mean: 0.0,
                median: 0.0,
                p90: 0.0,
                max: 0.0,
                samples: 0,
            };
        }
        ErrorStats {
            mean: errors.iter().sum::<f64>() / n as f64,
            median: errors[n / 2],
            p90: errors[(n as f64 * 0.9) as usize % n],
            max: errors[n - 1],
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmark::select_landmarks_maxmin;
    use son_netsim::topology::{PhysicalNetwork, TransitStubConfig};

    /// Builds a graph whose delays are exactly Euclidean distances of
    /// planted planar points — a perfectly embeddable instance.
    fn planar_instance(n: usize, seed: u64) -> (Graph, Vec<[f64; 2]>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0])
            .collect();
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = ((points[i][0] - points[j][0]).powi(2)
                    + (points[i][1] - points[j][1]).powi(2))
                .sqrt()
                .max(0.01);
                g.add_edge(NodeId::new(i), NodeId::new(j), d);
            }
        }
        (g, points)
    }

    fn noiseless_config() -> EmbeddingConfig {
        EmbeddingConfig {
            measure: MeasureConfig::noiseless(),
            ..EmbeddingConfig::default()
        }
    }

    #[test]
    fn planar_instance_embeds_nearly_isometrically() {
        let (g, _) = planar_instance(25, 1);
        let all: Vec<NodeId> = g.node_ids().collect();
        let landmarks = &all[..6];
        let embedding = GnpEmbedding::compute(&g, landmarks, &all, &noiseless_config());
        let stats = embedding.relative_error_stats(&g, &all);
        assert!(
            stats.median < 0.05,
            "planted planar points should embed with tiny error, got {stats:?}"
        );
    }

    #[test]
    fn landmarks_get_coordinates_too() {
        let (g, _) = planar_instance(10, 2);
        let all: Vec<NodeId> = g.node_ids().collect();
        let embedding = GnpEmbedding::compute(&g, &all[..4], &all, &noiseless_config());
        for n in &all {
            assert!(embedding.coordinates(*n).is_some());
        }
        assert_eq!(embedding.landmarks().len(), 4);
        assert_eq!(embedding.dims(), 2);
    }

    #[test]
    fn embedding_predicts_transit_stub_delays() {
        let net = PhysicalNetwork::generate(&TransitStubConfig {
            seed: 5,
            ..TransitStubConfig::default()
        });
        let stubs = net.stub_nodes();
        let landmarks = select_landmarks_maxmin(net.graph(), &stubs, 8);
        let embedding = GnpEmbedding::compute(net.graph(), &landmarks, &stubs, &noiseless_config());
        let stats = embedding.relative_error_stats(net.graph(), &stubs);
        assert!(
            stats.median < 0.3,
            "transit-stub delays should embed reasonably, got {stats:?}"
        );
    }

    #[test]
    fn predicted_delay_is_symmetric() {
        let (g, _) = planar_instance(12, 3);
        let all: Vec<NodeId> = g.node_ids().collect();
        let embedding = GnpEmbedding::compute(&g, &all[..4], &all, &noiseless_config());
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_eq!(
                    embedding.predicted_delay(all[i], all[j]),
                    embedding.predicted_delay(all[j], all[i])
                );
            }
        }
    }

    #[test]
    fn compute_is_deterministic() {
        let (g, _) = planar_instance(15, 4);
        let all: Vec<NodeId> = g.node_ids().collect();
        let a = GnpEmbedding::compute(&g, &all[..5], &all, &noiseless_config());
        let b = GnpEmbedding::compute(&g, &all[..5], &all, &noiseless_config());
        for n in &all {
            assert_eq!(a.coordinates(*n), b.coordinates(*n));
        }
    }

    #[test]
    fn thread_count_does_not_change_the_embedding() {
        let (g, _) = planar_instance(18, 8);
        let all: Vec<NodeId> = g.node_ids().collect();
        let noisy = |threads| EmbeddingConfig {
            measure: MeasureConfig {
                probes: 3,
                max_noise: 0.2,
                seed: 1,
            },
            threads,
            ..EmbeddingConfig::default()
        };
        let a = GnpEmbedding::compute(&g, &all[..5], &all, &noisy(1));
        let b = GnpEmbedding::compute(&g, &all[..5], &all, &noisy(4));
        let c = GnpEmbedding::compute(&g, &all[..5], &all, &noisy(0));
        for n in &all {
            assert_eq!(a.coordinates(*n), b.coordinates(*n));
            assert_eq!(a.coordinates(*n), c.coordinates(*n));
        }
    }

    #[test]
    fn noise_degrades_but_does_not_break() {
        let (g, _) = planar_instance(20, 6);
        let all: Vec<NodeId> = g.node_ids().collect();
        let noisy = EmbeddingConfig {
            measure: MeasureConfig {
                probes: 3,
                max_noise: 0.2,
                seed: 1,
            },
            ..EmbeddingConfig::default()
        };
        let embedding = GnpEmbedding::compute(&g, &all[..6], &all, &noisy);
        let stats = embedding.relative_error_stats(&g, &all);
        assert!(stats.median < 0.25, "noisy embedding too bad: {stats:?}");
    }

    #[test]
    #[should_panic(expected = "landmarks")]
    fn too_few_landmarks_panics() {
        let (g, _) = planar_instance(5, 0);
        let all: Vec<NodeId> = g.node_ids().collect();
        let _ = GnpEmbedding::compute(&g, &all[..2], &all, &noiseless_config());
    }

    #[test]
    #[should_panic(expected = "not embedded")]
    fn query_of_unembedded_node_panics() {
        let (g, _) = planar_instance(8, 0);
        let all: Vec<NodeId> = g.node_ids().collect();
        let embedding = GnpEmbedding::compute(&g, &all[..4], &all[..6], &noiseless_config());
        let _ = embedding.predicted_delay(all[6], all[7]);
    }
}
