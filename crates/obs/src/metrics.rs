//! Lock-free metric primitives: counters, gauges and latency histograms.
//!
//! One implementation shared by the PCIe traffic counters, the host
//! error ladder, the fault injector and every workload's latency
//! accounting.

use crate::sync_shim::{AtomicI64, AtomicU64, Ordering};
use crate::Ns;

/// A monotonically increasing event counter, safe to share across threads.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        // ord: Relaxed — standalone aggregate; no cross-variable ordering.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sets the count outright, for an owner that keeps the count under
    /// its own lock and only ever raises it there: a store, not a
    /// read-modify-write.
    pub fn set(&self, n: u64) {
        // ord: Relaxed — standalone aggregate; the owner's lock orders
        // the stores.
        self.value.store(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        // ord: Relaxed — monotone read; readers tolerate staleness.
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, bytes in flight, degraded flag).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        // ord: Relaxed — last-writer-wins level; no ordering dependency.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        // ord: Relaxed — standalone aggregate; no cross-variable ordering.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Returns the current value.
    pub fn get(&self) -> i64 {
        // ord: Relaxed — point-in-time read; readers tolerate staleness.
        self.value.load(Ordering::Relaxed)
    }
}

/// Summary statistics extracted from a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
    /// Median (50th percentile, approximate).
    pub p50: u64,
    /// 95th percentile (approximate).
    pub p95: u64,
    /// 99th percentile (approximate).
    pub p99: u64,
    /// Standard deviation.
    pub stddev: f64,
}

impl Summary {
    pub(crate) fn empty() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: 0,
            max: 0,
            p50: 0,
            p95: 0,
            p99: 0,
            stddev: 0.0,
        }
    }
}

/// The numbers a registry snapshot keeps per histogram: the [`Summary`]
/// plus the raw sum, so snapshot subtraction can reconstruct windowed
/// counts and means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSnapshot {
    /// Summary statistics at snapshot time.
    pub summary: Summary,
    /// Sum of all samples (wrapping for astronomically large inputs).
    pub sum: u64,
}

const LINEAR_MAX: u64 = 64;
const SUB_BUCKETS: u64 = 16;

/// Maps a sample to its log-linear bucket: exact below [`LINEAR_MAX`],
/// then 16 sub-buckets per power of two (≤ ~6% quantile error).
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= 6
        let sub = (v >> (msb - 4)) & (SUB_BUCKETS - 1);
        (LINEAR_MAX + (msb - 6) * SUB_BUCKETS + sub) as usize
    }
}

/// Lowest sample value mapping to bucket `idx` (inverse of
/// [`bucket_index`]).
pub(crate) fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        idx
    } else {
        let rel = idx - LINEAR_MAX;
        let msb = rel / SUB_BUCKETS + 6;
        let sub = rel % SUB_BUCKETS;
        (1u64 << msb) + (sub << (msb - 4))
    }
}

const N_BUCKETS: usize = 992; // bucket_index(u64::MAX) + 1

/// A log-linear latency histogram with a lock-free hot path.
///
/// Buckets are exact up to 64 ns, then each power of two splits into 16
/// sub-buckets, giving ≤ ~6% quantile error across the full `u64` range.
/// [`Histogram::record`] touches only relaxed atomics — no lock, no
/// allocation — so it can sit on the per-I/O fast path of every queue.
///
/// `mean`/`stddev` are computed from wrapping integer sums; they are
/// exact for realistic latency populations (sums below `u64::MAX`) and
/// degrade only for adversarial inputs near `u64::MAX`, where the
/// bucket-based quantiles stay correct.
pub struct Histogram {
    /// Samples per bucket; their sum is the sample count.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    sum_sq: AtomicU64, // f64 bit pattern, CAS-accumulated
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            sum_sq: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: relaxed atomic adds, one CAS loop
    /// for the (f64) sum of squares, and a read-modify-write of `min` /
    /// `max` only for a new extreme.
    pub fn record(&self, v: Ns) {
        // ord: Relaxed — each aggregate cell is independently correct;
        // cross-cell skew is tolerated by summary() (documented above).
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // ord: Relaxed — as above, independent aggregate cell.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Extremes change rarely: read first, and write only a new one.
        // ord: Relaxed — as above, independent aggregate cell; a stale
        // read only costs the read-modify-write it would have skipped.
        if v < self.min.load(Ordering::Relaxed) {
            // ord: Relaxed — as above, independent aggregate cell.
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        // ord: Relaxed — as for `min`.
        if v > self.max.load(Ordering::Relaxed) {
            // ord: Relaxed — as above, independent aggregate cell.
            self.max.fetch_max(v, Ordering::Relaxed);
        }
        let sq = (v as f64) * (v as f64);
        // ord: Relaxed — CAS loop below revalidates the value it read.
        let mut cur = self.sum_sq.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + sq).to_bits();
            match self
                .sum_sq
                // ord: Relaxed — single-cell RMW; atomicity, not ordering.
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Returns the number of recorded samples: the buckets' sum, so a
    /// quantile's scan over them agrees with it.
    pub fn count(&self) -> u64 {
        // ord: Relaxed — monotone reads; readers tolerate staleness.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Returns the (approximate) value at quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_of(q, self.count())
    }

    /// [`Histogram::quantile`] of a histogram holding `count` samples.
    fn quantile_of(&self, q: f64, count: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        // ord: Relaxed — approximate quantile read; skew vs buckets ok.
        let min = self.min.load(Ordering::Relaxed);
        // ord: Relaxed — approximate quantile read; skew vs buckets ok.
        let max = self.max.load(Ordering::Relaxed);
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        if target >= count {
            // The full population: the tracked maximum is exact, the top
            // bucket's lower bound is not.
            return max;
        }
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            // ord: Relaxed — bucket scan is approximate by design.
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_low(i).clamp(min, max);
            }
        }
        max
    }

    /// Produces summary statistics over all recorded samples.
    pub fn summary(&self) -> Summary {
        let count = self.count();
        if count == 0 {
            return Summary::empty();
        }
        // ord: Relaxed — summary is approximate under concurrency (doc'd).
        let sum = self.sum.load(Ordering::Relaxed);
        // ord: Relaxed — summary is approximate under concurrency (doc'd).
        let sum_sq = f64::from_bits(self.sum_sq.load(Ordering::Relaxed));
        let mean = sum as f64 / count as f64;
        let var = (sum_sq / count as f64) - mean * mean;
        Summary {
            count,
            mean,
            // ord: Relaxed — summary reads are approximate (doc'd above).
            min: self.min.load(Ordering::Relaxed),
            // ord: Relaxed — summary reads are approximate (doc'd above).
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile_of(0.50, count),
            p95: self.quantile_of(0.95, count),
            p99: self.quantile_of(0.99, count),
            stddev: var.max(0.0).sqrt(),
        }
    }

    /// Takes a snapshot for the registry (summary plus raw sum).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            summary: self.summary(),
            // ord: Relaxed — snapshot consistency is approximate (doc'd).
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.add(5);
        g.dec();
        assert_eq!(g.get(), 5);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_count_matches_constant() {
        assert_eq!(bucket_index(u64::MAX) + 1, N_BUCKETS);
    }

    #[test]
    fn bucket_roundtrip_monotone() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            100,
            1_000,
            4_096,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v, "low({idx}) > {v}");
            assert!(idx >= last || v < 64, "index not monotone at {v}");
            last = idx;
        }
    }

    #[test]
    fn zero_sample_is_exact() {
        let h = Histogram::new();
        h.record(0);
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max, s.p50, s.p99), (1, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn u64_max_sample_lands_in_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.min, u64::MAX);
        // Quantiles clamp into [min, max], so even the coarse top bucket
        // reports the exact extreme for a single sample.
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn extremes_mixed_with_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn percentile_interpolation_on_small_population() {
        let h = Histogram::new();
        // Ten exact (sub-64) samples: quantile targets use ceil(count*q),
        // so p95 of 1..=10 is the 10th order statistic, p50 the 5th.
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 5);
        assert_eq!(h.quantile(0.95), 10);
        assert_eq!(h.quantile(0.99), 10);
        assert_eq!(h.quantile(0.10), 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn summary_mean_and_extremes() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert!((s.mean - 20.0).abs() < 1e-9);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.stddev - (200.0f64 / 3.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn p95_sits_between_p50_and_p99() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let s = h.summary();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        let exact = 950_000.0;
        assert!((s.p95 as f64 - exact).abs() / exact < 0.10, "p95={}", s.p95);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100); // 100 ns .. 1 ms
        }
        let p50 = h.quantile(0.5) as f64;
        let exact = 500_000.0;
        assert!((p50 - exact).abs() / exact < 0.10, "p50={p50}");
    }

    #[test]
    fn empty_histogram_summary() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.summary();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 39_999);
        let exact_mean = 39_999.0 / 2.0;
        assert!((s.mean - exact_mean).abs() < 1e-6);
    }
}

/// Model-checked histogram hot path (`cargo test -p ccnvme-obs
/// --features loom --lib loom_`): concurrent `record` calls must merge
/// every aggregate, including the CAS-accumulated sum of squares.
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use std::sync::Arc;

    use loom::thread;

    use super::*;

    #[test]
    fn loom_concurrent_records_merge_all_aggregates() {
        loom::model(|| {
            let h = Arc::new(Histogram::new());
            let h2 = Arc::clone(&h);
            let t = thread::spawn(move || h2.record(3));
            h.record(5);
            t.join().unwrap();
            let s = h.summary();
            assert_eq!(s.count, 2);
            assert_eq!((s.min, s.max), (3, 5));
            // The CAS loop must not lose either side's contribution
            // (9 + 25); a lost update here is the race the loop exists
            // to prevent.
            let sum_sq = f64::from_bits(
                // ord: Relaxed — single-threaded again after join.
                h.sum_sq.load(Ordering::Relaxed),
            );
            assert!((sum_sq - 34.0).abs() < 1e-9, "lost sum_sq update: {sum_sq}");
        });
    }

    #[test]
    fn loom_concurrent_counter_incs_all_land() {
        loom::model(|| {
            let c = Arc::new(Counter::new());
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || c2.inc());
            c.inc();
            t.join().unwrap();
            assert_eq!(c.get(), 2);
        });
    }
}

#[cfg(test)]
mod prop_tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Histogram quantiles stay within one log-linear bucket (≈6%)
        /// of the exact order statistics, and min/max/mean are exact.
        #[test]
        fn quantiles_track_order_statistics(
            mut samples in proptest::collection::vec(1u64..10_000_000, 8..300),
        ) {
            let h = Histogram::new();
            for s in &samples {
                h.record(*s);
            }
            samples.sort_unstable();
            let s = h.summary();
            prop_assert_eq!(s.count, samples.len() as u64);
            prop_assert_eq!(s.min, samples[0]);
            prop_assert_eq!(s.max, *samples.last().unwrap());
            let exact_mean: f64 =
                samples.iter().map(|v| *v as f64).sum::<f64>() / samples.len() as f64;
            prop_assert!((s.mean - exact_mean).abs() < 1e-6);
            let exact_p50 = samples[(samples.len() - 1) / 2] as f64;
            prop_assert!(
                (s.p50 as f64) >= exact_p50 * 0.90 && (s.p50 as f64) <= exact_p50 * 1.10,
                "p50 {} vs exact {}",
                s.p50,
                exact_p50
            );
        }
    }
}
