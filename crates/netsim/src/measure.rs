//! End-to-end delay measurement with Internet noise.
//!
//! The paper obtains its distance map from *measured* round-trip times
//! and suppresses noise by taking the minimum of several probes
//! (Section 3.1, steps 1 and 3). This module models that process: a
//! [`DelayMeasurer`] wraps a base delay oracle and perturbs each probe
//! with non-negative multiplicative noise (queueing only ever adds
//! delay), and `measure` returns the minimum over a configurable number
//! of probes.

use crate::graph::{DistanceTable, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for noisy delay measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureConfig {
    /// Number of probes per measurement; the minimum is reported.
    pub probes: usize,
    /// Maximum relative inflation a single probe can suffer
    /// (e.g. `0.3` = up to +30% queueing delay).
    pub max_noise: f64,
    /// RNG seed for reproducible noise.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            probes: 3,
            max_noise: 0.3,
            seed: 0,
        }
    }
}

impl MeasureConfig {
    /// A noise-free configuration (single exact probe).
    pub fn noiseless() -> Self {
        MeasureConfig {
            probes: 1,
            max_noise: 0.0,
            seed: 0,
        }
    }
}

/// Measures end-to-end delays over a [`DistanceTable`], adding
/// measurement noise per probe.
///
/// # Example
///
/// ```
/// use son_netsim::graph::{DistanceTable, Graph, NodeId};
/// use son_netsim::measure::{DelayMeasurer, MeasureConfig};
///
/// let mut g = Graph::with_nodes(2);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 10.0);
/// let table = DistanceTable::new(&g, &[NodeId::new(0)]);
/// let mut m = DelayMeasurer::new(table, MeasureConfig::default());
/// let rtt = m.measure(NodeId::new(0), NodeId::new(1));
/// assert!(rtt >= 10.0 && rtt <= 13.0);
/// ```
#[derive(Debug)]
pub struct DelayMeasurer {
    table: DistanceTable,
    config: MeasureConfig,
    rng: StdRng,
}

impl DelayMeasurer {
    /// Creates a measurer over precomputed true delays.
    pub fn new(table: DistanceTable, config: MeasureConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        DelayMeasurer { table, config, rng }
    }

    /// Measures the delay from `from` (must be a table source) to `to`:
    /// the minimum over `probes` noisy samples of the true delay.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a source of the underlying table.
    pub fn measure(&mut self, from: NodeId, to: NodeId) -> f64 {
        let true_delay = self.table.delay(from, to);
        Self::noisy_min(true_delay, &self.config, &mut self.rng)
    }

    /// Like [`DelayMeasurer::measure`], but drawing probe noise from a
    /// caller-supplied RNG instead of the measurer's own stream.
    ///
    /// Consumers that measure independent subjects (e.g. per-host
    /// embedding solves) can give each subject its own seeded RNG, so
    /// the noise a subject sees no longer depends on how many other
    /// subjects were measured before it — the property that makes
    /// parallel measurement deterministic.
    pub fn measure_with(&self, from: NodeId, to: NodeId, rng: &mut StdRng) -> f64 {
        let true_delay = self.table.delay(from, to);
        Self::noisy_min(true_delay, &self.config, rng)
    }

    fn noisy_min(true_delay: f64, config: &MeasureConfig, rng: &mut StdRng) -> f64 {
        if config.max_noise == 0.0 {
            return true_delay;
        }
        let mut best = f64::INFINITY;
        for _ in 0..config.probes.max(1) {
            let noise = 1.0 + rng.gen::<f64>() * config.max_noise;
            best = best.min(true_delay * noise);
        }
        best
    }

    /// The underlying distance table.
    pub fn table(&self) -> &DistanceTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn line_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(3);
        let ids: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        g.add_edge(ids[0], ids[1], 5.0);
        g.add_edge(ids[1], ids[2], 7.0);
        (g, ids)
    }

    #[test]
    fn noiseless_measure_is_exact() {
        let (g, ids) = line_graph();
        let table = DistanceTable::new(&g, &ids);
        let mut m = DelayMeasurer::new(table, MeasureConfig::noiseless());
        assert_eq!(m.measure(ids[0], ids[2]), 12.0);
        assert_eq!(m.table().delay(ids[0], ids[2]), 12.0);
    }

    #[test]
    fn noise_only_inflates() {
        let (g, ids) = line_graph();
        let table = DistanceTable::new(&g, &ids);
        let cfg = MeasureConfig {
            probes: 1,
            max_noise: 0.5,
            seed: 9,
        };
        let mut m = DelayMeasurer::new(table, cfg);
        for _ in 0..100 {
            let v = m.measure(ids[0], ids[1]);
            assert!((5.0..=7.5).contains(&v));
        }
    }

    #[test]
    fn more_probes_get_closer_to_truth() {
        let (g, ids) = line_graph();
        let table = DistanceTable::new(&g, &ids);
        let avg = |probes: usize| {
            let cfg = MeasureConfig {
                probes,
                max_noise: 0.5,
                seed: 11,
            };
            let mut m = DelayMeasurer::new(DistanceTable::new(&g, &ids), cfg);
            (0..200).map(|_| m.measure(ids[0], ids[1])).sum::<f64>() / 200.0
        };
        drop(table);
        assert!(avg(5) < avg(1));
    }

    #[test]
    fn measure_with_is_call_order_independent() {
        let (g, ids) = line_graph();
        let cfg = MeasureConfig {
            probes: 2,
            max_noise: 0.4,
            seed: 3,
        };
        let m = DelayMeasurer::new(DistanceTable::new(&g, &ids), cfg);
        use rand::SeedableRng;
        // The same subject seed yields the same measurement no matter
        // what was measured before with other RNGs.
        let mut a = StdRng::seed_from_u64(77);
        let first = m.measure_with(ids[0], ids[2], &mut a);
        let mut warmup = StdRng::seed_from_u64(5);
        let _ = m.measure_with(ids[0], ids[1], &mut warmup);
        let mut b = StdRng::seed_from_u64(77);
        assert_eq!(m.measure_with(ids[0], ids[2], &mut b), first);
        assert!(first >= 12.0);
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let (g, ids) = line_graph();
        let cfg = MeasureConfig {
            probes: 2,
            max_noise: 0.4,
            seed: 3,
        };
        let mut a = DelayMeasurer::new(DistanceTable::new(&g, &ids), cfg.clone());
        let mut b = DelayMeasurer::new(DistanceTable::new(&g, &ids), cfg);
        for _ in 0..10 {
            assert_eq!(a.measure(ids[0], ids[2]), b.measure(ids[0], ids[2]));
        }
    }
}
