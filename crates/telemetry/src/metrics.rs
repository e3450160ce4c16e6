//! The three instrument types: [`Counter`], [`Gauge`] and [`Histogram`].
//!
//! Every instrument is a handful of atomics mutated with `Relaxed`
//! ordering — recording a sample is one or two uncontended atomic adds,
//! never a lock. The numbers are *statistical*: readers may observe a
//! histogram mid-update (count incremented, sum not yet), which is fine
//! for monitoring and irrelevant once the writers have quiesced (the
//! invariant tests read after `Engine::join`).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing `u64` — totals like "chunks processed" or
/// "nanoseconds spent busy".
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds a duration, counted in whole nanoseconds.
    pub fn add_duration(&self, duration: Duration) {
        self.add(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value — e.g. "sessions currently active".
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self { value: AtomicI64::new(0) }
    }

    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]. Bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`; bucket 0 counts exact zeros. The last bucket also
/// absorbs everything at or above `2^(BUCKETS-1)` (≈ 9 minutes when the
/// unit is nanoseconds).
pub const BUCKETS: usize = 40;

/// A fixed log2-bucket histogram of `u64` samples (durations in
/// nanoseconds, queue depths, buffer occupancies…).
///
/// Factor-of-two resolution is deliberate: recording is two relaxed
/// atomic adds regardless of the value, there is nothing to configure,
/// and an order-of-magnitude view is exactly what "where does worker
/// time go" needs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }

    /// The bucket index `value` falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// The *exclusive* upper bound of bucket `i` (`2^i`), i.e. bucket `i`
    /// counts samples `< upper_bound(i)` and `≥ upper_bound(i - 1)`. The
    /// last bucket is unbounded.
    #[must_use]
    pub fn upper_bound(bucket: usize) -> u64 {
        debug_assert!(bucket < BUCKETS);
        1u64 << bucket
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds.
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Per-bucket counts (non-cumulative), index = [`Self::bucket_index`].
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        c.add_duration(Duration::from_nanos(10));
        assert_eq!(c.get(), 16);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        // Every value v lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 7, 63, 64, 65, 4095, 1 << 30] {
            let i = Histogram::bucket_index(v);
            assert!(v < Histogram::upper_bound(i), "{v} < 2^{i}");
            if i > 0 {
                assert!(v >= Histogram::upper_bound(i - 1), "{v} >= 2^{}", i - 1);
            }
        }
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "zero bucket");
        assert_eq!(counts[1], 1, "[1,2)");
        assert_eq!(counts[2], 2, "[2,4)");
        assert_eq!(counts[10], 1, "[512,1024)");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn duration_recording_is_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.sum(), 3_000);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
        assert_eq!(h.sum(), 4 * (999 * 1000 / 2));
    }
}
