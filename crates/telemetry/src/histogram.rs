//! Log-bucketed histogram with cheap concurrent recording.
//!
//! Buckets grow geometrically by `2^(1/8)` per step (eight buckets per
//! octave), so any recorded value lands in a bucket whose upper bound is
//! at most `2^(1/8) - 1 ≈ 9.05%` above the value. Quantile extraction
//! therefore carries a **relative error bound of one bucket width
//! (≤ 9.05%)**; the tracked exact maximum additionally clamps every
//! quantile so `p50 ≤ p90 ≤ p99 ≤ max` holds exactly.
//!
//! Recording is lock-free: one relaxed fetch-add on the bucket and the
//! count, a CAS loop folding the value into an `f64`-bit sum, and a CAS
//! loop raising the `f64`-bit maximum (valid because non-negative finite
//! doubles order the same as their bit patterns).
//!
//! For per-item recording inside hot loops, [`LocalHistogram`] is a
//! single-thread accumulator with plain (non-atomic) fields that folds
//! into a shared [`Histogram`] in one `flush_into` call, so the atomic
//! traffic is paid once per batch instead of once per record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-buckets per power of two. Growth factor is `2^(1/8)`.
const BUCKETS_PER_OCTAVE: usize = 8;
/// Octaves covered above 1.0. `2^40 µs ≈ 12.7 days` — ample for latency.
const OCTAVES: usize = 40;
/// `[0, 1)` underflow bucket + log buckets + overflow bucket.
const BUCKETS: usize = 2 + OCTAVES * BUCKETS_PER_OCTAVE;

/// Worst-case relative quantile error introduced by bucketing:
/// the growth factor minus one, `2^(1/8) - 1`.
pub const RELATIVE_ERROR_BOUND: f64 = 0.090_507_732_665_257_66;

struct Core {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, stored as `f64` bits and folded via CAS.
    sum_bits: AtomicU64,
    /// Exact maximum recorded value, stored as `f64` bits.
    max_bits: AtomicU64,
}

/// A concurrent log-bucketed histogram handle. Clones share storage.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<Core>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(Core {
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                max_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Index of the bucket that holds `value`: `1 + ⌊8·log₂(value)⌋`,
    /// computed from the float's bit pattern. The exponent field gives
    /// the octave and the mantissa is compared against the seven
    /// sub-octave boundaries `2^(k/8)` directly — exact, and an order
    /// of magnitude cheaper than `f64::log2` on the record hot path.
    fn bucket_index(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        // Mantissa bits of the sub-octave boundaries: the 52-bit
        // mantissa of 2^(k/8) for k = 1..=7, rounded up so that
        // `mantissa >= threshold` means `value >= 2^(k/8)` exactly.
        const SUB_OCTAVE: [u64; 7] = [
            0x172b83c7d517b,
            0x306fe0a31b716,
            0x4bfdad5362a28,
            0x6a09e667f3bcd,
            0x8ace5422aa0dc,
            0xae89f995ad3ae,
            0xd5818dcfba488,
        ];
        let bits = value.to_bits();
        // value >= 1.0 and finite, so the biased exponent is >= 1023.
        let octave = ((bits >> 52) & 0x7FF) as usize - 1023;
        let mantissa = bits & ((1u64 << 52) - 1);
        let mut sub = 0usize;
        for &t in &SUB_OCTAVE {
            sub += usize::from(mantissa >= t);
        }
        (1 + octave * BUCKETS_PER_OCTAVE + sub).min(BUCKETS - 1)
    }

    /// Upper bound of bucket `idx` (inclusive enough for quantiles).
    fn bucket_upper(idx: usize) -> f64 {
        if idx == 0 {
            return 1.0;
        }
        2f64.powf(idx as f64 / BUCKETS_PER_OCTAVE as f64)
    }

    /// Records a single non-negative value. Negative or non-finite
    /// values are clamped to zero so quantiles stay well-defined.
    pub fn record(&self, value: f64) {
        let value = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        let idx = Self::bucket_index(value);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(value);
        // Raise the exact maximum. Non-negative doubles order by bits.
        let bits = value.to_bits();
        self.core.max_bits.fetch_max(bits, Ordering::Relaxed);
    }

    /// Folds `value` into the f64-bit sum.
    fn add_sum(&self, value: f64) {
        let mut cur = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded values (zero when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Exact maximum recorded value (zero when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.core.max_bits.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`.
    ///
    /// Returns the upper bound of the bucket containing the ranked
    /// sample, clamped to the exact tracked maximum, so the result
    /// overestimates by at most one bucket width (≤ 9.05%) and the
    /// quantile sequence is monotone up to `max()`.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * (n as f64 - 1.0)).round() as u64).min(n - 1);
        let mut seen = 0u64;
        for (idx, bucket) in self.core.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen > rank {
                return Self::bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Captures the full bucket-resolution state in one coherent pass.
    ///
    /// The bucket array is copied first and the derived count comes from
    /// that copy, so quantiles computed from the cells are always
    /// mutually consistent — unlike reading `count()`/`quantile()`
    /// separately, which can interleave with a concurrent
    /// [`LocalHistogram::flush_into`] and tear.
    pub fn cells(&self) -> HistogramCells {
        let buckets: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        // Sum and max are read after the buckets: both only grow, so
        // they upper-bound everything present in the captured array.
        HistogramCells {
            count,
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }

    /// Captures count/sum/quantiles from one coherent bucket view.
    ///
    /// All fields derive from a single [`cells`](Self::cells) capture,
    /// so `p50 ≤ p90 ≤ p99 ≤ max` holds even when snapshots race with
    /// per-worker batch flushes.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cells().summary()
    }
}

/// Full bucket-resolution capture of a [`Histogram`], used as the
/// baseline for windowed deltas ([`HistogramCells::delta`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramCells {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }
}

impl HistogramCells {
    /// Number of values captured.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of values captured.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Nearest-rank quantile over a bucket array, returning the bucket
    /// upper bound clamped to `cap`.
    fn quantile_from(buckets: &[u64], count: u64, q: f64, cap: f64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * (count as f64 - 1.0)).round() as u64).min(count - 1);
        let mut seen = 0u64;
        for (idx, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Histogram::bucket_upper(idx).min(cap);
            }
        }
        cap
    }

    /// Summarizes the captured state. Every field derives from the same
    /// bucket array, so the quantile sequence is monotone by
    /// construction.
    pub fn summary(&self) -> HistogramSnapshot {
        Self::summarize(&self.buckets, self.count, self.sum, self.max)
    }

    /// The snapshot of a bucket array and its count, sum and maximum.
    fn summarize(buckets: &[u64], count: u64, sum: f64, max: f64) -> HistogramSnapshot {
        HistogramSnapshot {
            count,
            sum,
            p50: Self::quantile_from(buckets, count, 0.50, max),
            p90: Self::quantile_from(buckets, count, 0.90, max),
            p99: Self::quantile_from(buckets, count, 0.99, max),
            max,
        }
    }

    /// Summarizes `self − earlier`: only values recorded between the
    /// two captures.
    ///
    /// The exact interval maximum is not recoverable from cumulative
    /// state, so the delta max is the upper bound of the highest
    /// non-empty delta bucket, clamped to the cumulative max — when the
    /// interval contains the all-time maximum this is exact, otherwise
    /// it overestimates by at most one bucket width (≤ 9.05%). Delta
    /// quantiles clamp to the same bound, so `p50 ≤ p90 ≤ p99 ≤ max`
    /// holds on every delta.
    pub fn delta(&self, earlier: &HistogramCells) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return HistogramSnapshot {
                count: 0,
                sum: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let top = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        let max = Histogram::bucket_upper(top).min(self.max);
        HistogramSnapshot {
            count,
            sum: (self.sum - earlier.sum).max(0.0),
            p50: Self::quantile_from(&buckets, count, 0.50, max),
            p90: Self::quantile_from(&buckets, count, 0.90, max),
            p99: Self::quantile_from(&buckets, count, 0.99, max),
            max,
        }
    }
}

/// A single-thread accumulator for hot loops.
///
/// Recording here is a bucket computation plus three plain writes — no
/// atomic read-modify-write — and [`LocalHistogram::flush_into`] folds
/// everything accumulated into a shared [`Histogram`] with one atomic
/// operation per touched bucket. Use it when instrumenting per-item
/// work measured in nanoseconds; the flushed result is identical to
/// calling [`Histogram::record`] per item.
#[derive(Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// Creates an empty accumulator.
    pub fn new() -> LocalHistogram {
        LocalHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Records a single value under the same clamping rules as
    /// [`Histogram::record`].
    pub fn record(&mut self, value: f64) {
        let value = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of values recorded since the last flush.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Summarizes what was recorded since the last flush, exactly as
    /// [`Histogram::snapshot`] would after a flush into an empty one.
    pub fn summary(&self) -> HistogramSnapshot {
        HistogramCells::summarize(&self.buckets, self.count, self.sum, self.max)
    }

    /// Folds everything recorded so far into `target` and resets this
    /// accumulator so it can be reused for the next batch.
    pub fn flush_into(&mut self, target: &Histogram) {
        if self.count == 0 {
            return;
        }
        for (idx, n) in self.buckets.iter_mut().enumerate() {
            if *n > 0 {
                target.core.buckets[idx].fetch_add(*n, Ordering::Relaxed);
                *n = 0;
            }
        }
        target.core.count.fetch_add(self.count, Ordering::Relaxed);
        target.add_sum(self.sum);
        target
            .core
            .max_bits
            .fetch_max(self.max.to_bits(), Ordering::Relaxed);
        self.count = 0;
        self.sum = 0.0;
        self.max = 0.0;
    }

    /// Folds everything recorded so far into *every* sink, then resets
    /// this accumulator. Lets one worker-local pass feed both a metric
    /// series and an SLO tracker without recording twice.
    pub fn flush_into_each(&mut self, sinks: &[&Histogram]) {
        if self.count == 0 {
            return;
        }
        for target in sinks {
            for (idx, &n) in self.buckets.iter().enumerate() {
                if n > 0 {
                    target.core.buckets[idx].fetch_add(n, Ordering::Relaxed);
                }
            }
            target.core.count.fetch_add(self.count, Ordering::Relaxed);
            target.add_sum(self.sum);
            target
                .core
                .max_bits
                .fetch_max(self.max.to_bits(), Ordering::Relaxed);
        }
        self.buckets.iter_mut().for_each(|n| *n = 0);
        self.count = 0;
        self.sum = 0.0;
        self.max = 0.0;
    }
}

/// A point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Median estimate (bucketed, ≤ 9.05% high).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile over a sorted slice, mirroring the
    /// engine's `LatencySummary::from_samples` convention.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    #[test]
    fn bit_pattern_bucket_index_matches_the_log2_formula() {
        let reference = |value: f64| -> usize {
            if value < 1.0 {
                return 0;
            }
            let idx = 1 + (value.log2() * BUCKETS_PER_OCTAVE as f64).floor() as usize;
            idx.min(BUCKETS - 1)
        };
        // Powers of two land exactly on octave starts.
        for e in 0..40 {
            let v = (1u64 << e) as f64;
            assert_eq!(Histogram::bucket_index(v), 1 + 8 * e, "v={v}");
        }
        // A deterministic sweep across ten orders of magnitude.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64 * 1e10;
            assert_eq!(Histogram::bucket_index(v), reference(v), "v={v}");
        }
        assert_eq!(Histogram::bucket_index(0.5), 0);
        assert_eq!(Histogram::bucket_index(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_known_distribution_within_a_bucket() {
        // Deterministic skewed distribution: 1..=1000 squared, scaled.
        let h = Histogram::new();
        let mut values: Vec<f64> = (1..=1000).map(|i| (i * i) as f64 / 37.0).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99] {
            let exact = exact_quantile(&values, q);
            let bucketed = h.quantile(q);
            assert!(
                bucketed >= exact * (1.0 - 1e-9),
                "q{q}: bucketed {bucketed} below exact {exact}"
            );
            assert!(
                bucketed <= exact * (1.0 + RELATIVE_ERROR_BOUND) + 1.0,
                "q{q}: bucketed {bucketed} more than one bucket above exact {exact}"
            );
        }
        assert_eq!(h.count(), 1000);
        let exact_sum: f64 = values.iter().sum();
        assert!((h.sum() - exact_sum).abs() < 1e-6 * exact_sum);
        assert_eq!(h.max(), *values.last().unwrap());
    }

    #[test]
    fn quantile_sequence_is_monotone_and_clamped_to_max() {
        let h = Histogram::new();
        for v in [3.0, 3.0, 3.0, 3.1] {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, 3.1);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.p50, s.max), (0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn negative_and_non_finite_values_clamp_to_zero() {
        let h = Histogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn local_flush_is_identical_to_direct_records() {
        let direct = Histogram::new();
        let shared = Histogram::new();
        let mut local = LocalHistogram::new();
        let values: Vec<f64> = (1..=500).map(|i| (i * 13 % 997) as f64 / 3.0).collect();
        for &v in &values {
            direct.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), 500);
        local.flush_into(&shared);
        assert_eq!(shared.count(), direct.count());
        assert_eq!(shared.sum(), direct.sum());
        assert_eq!(shared.max(), direct.max());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(shared.quantile(q), direct.quantile(q));
        }
        // The accumulator resets: a second flush adds nothing.
        assert_eq!(local.count(), 0);
        local.flush_into(&shared);
        assert_eq!(shared.count(), direct.count());
    }

    #[test]
    fn delta_since_summarizes_only_the_window() {
        let h = Histogram::new();
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        let baseline = h.cells();
        // Nothing recorded since the capture: the delta is empty.
        let empty = h.cells().delta(&baseline);
        assert_eq!(
            (empty.count, empty.sum, empty.p50, empty.max),
            (0, 0.0, 0.0, 0.0)
        );
        let window: Vec<f64> = (1..=100).map(|i| 500.0 + i as f64).collect();
        for &v in &window {
            h.record(v);
        }
        let delta = h.cells().delta(&baseline);
        assert_eq!(delta.count, 100);
        let exact_sum: f64 = window.iter().sum();
        assert!((delta.sum - exact_sum).abs() < 1e-6 * exact_sum);
        // The window contains the all-time maximum, so the delta max is
        // exact; quantiles sit within one bucket of the window values.
        assert_eq!(delta.max, 600.0);
        assert!(delta.p50 >= 500.0 && delta.p50 <= 600.0 * (1.0 + RELATIVE_ERROR_BOUND));
        // The cumulative view still covers everything.
        assert_eq!(h.snapshot().count, 103);
    }

    #[test]
    fn delta_quantiles_are_monotone_for_many_seeds() {
        // Satellite invariant: p50 ≤ p90 ≤ p99 ≤ max on every delta,
        // across windows drawn from a deterministic generator.
        let h = Histogram::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64
        };
        let mut baseline = h.cells();
        for window in 0..50 {
            let len = 1 + (window * 7) % 40;
            for _ in 0..len {
                h.record(rng() % 1e6);
            }
            let d = h.cells().delta(&baseline);
            assert_eq!(d.count, len as u64, "window {window}");
            assert!(
                d.p50 <= d.p90 && d.p90 <= d.p99 && d.p99 <= d.max,
                "window {window}: {d:?}"
            );
            baseline = h.cells();
        }
    }

    #[test]
    fn snapshot_racing_batch_flushes_stays_internally_consistent() {
        // Regression: snapshot() used to read count, each quantile, and
        // max in separate passes, so a snapshot taken mid-flush could
        // report p50 > p90. The single-capture snapshot must keep the
        // quantile sequence monotone under concurrent flushes.
        let shared = Histogram::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        // Set by the reader once a snapshot has seen some but not all
        // of the flushes. Flusher 0 holds half-way until then, so the
        // final `> 0` cannot fail because the reader thread was first
        // scheduled after both flushers had finished.
        let overlapped = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let flushers: Vec<_> = (0..2)
                .map(|t| {
                    let shared = shared.clone();
                    let overlapped = &overlapped;
                    scope.spawn(move || {
                        let mut local = LocalHistogram::new();
                        for batch in 0..200 {
                            // Bimodal batches widen the p50/p99 spread
                            // a torn read would expose.
                            for i in 0..50 {
                                let v = if (batch + i + t) % 2 == 0 {
                                    5.0
                                } else {
                                    50_000.0
                                };
                                local.record(v);
                            }
                            local.flush_into(&shared);
                            while t == 0 && batch == 100 && !overlapped.load(Ordering::Relaxed) {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let reader = {
                let shared = shared.clone();
                let (done, overlapped) = (&done, &overlapped);
                scope.spawn(move || {
                    // Counts only snapshots taken between the first
                    // flush and the last.
                    let mut checked = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let s = shared.snapshot();
                        if 0 < s.count && s.count < 2 * 200 * 50 {
                            overlapped.store(true, Ordering::Relaxed);
                            checked += 1;
                        }
                        assert!(
                            s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max,
                            "torn snapshot: {s:?}"
                        );
                        assert!(s.count <= 2 * 200 * 50);
                    }
                    checked
                })
            };
            for f in flushers {
                f.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            assert!(reader.join().unwrap() > 0);
        });
        assert_eq!(shared.snapshot().count, 2 * 200 * 50);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record((t * 10_000 + i) as f64 % 977.0);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
