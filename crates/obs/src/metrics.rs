//! The metric primitives: counters and gauges of one atomic each,
//! log-linear histograms.
//!
//! All three share the recording contract: mutation methods are gated on
//! [`crate::enabled`] and become a relaxed load + untaken branch when
//! observability is off; read methods (`get`, `snapshot`) always work and
//! simply report whatever was recorded while it was on.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// A monotone event counter: one relaxed `fetch_add` per `add`.
/// Successive `get`s are non-decreasing.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events. No-op while observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Adds one event. No-op while observability is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The total recorded so far.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Zeroes the counter (test support; racing `add`s may survive).
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// An instantaneous level (queue depth, open connections): one signed
/// atomic that `add` raises and `sub` lowers, from any threads.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Raises the level by `n`. No-op while observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n as i64, Relaxed);
        }
    }

    /// Lowers the level by `n`. No-op while observability is disabled.
    #[inline]
    pub fn sub(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_sub(n as i64, Relaxed);
        }
    }

    /// The current level. Clamped at zero: a `sub` that raced ahead of its
    /// paired `add` (or deltas recorded while the switch flipped) can make
    /// the level transiently negative.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed).max(0)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Sub-buckets per power-of-two octave: 2^5 = 32, bounding quantile
/// quantization error at half a sub-bucket width ≈ 1.6%.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count: `SUB` exact buckets for values < 32, then 32 sub-buckets
/// for each of the 59 octaves with top bit 5..=63.
const BUCKETS: usize = SUB + (64 - 1 - SUB_BITS as usize) * SUB + SUB;

/// A lock-free log-linear latency/size histogram.
///
/// Values below 32 land in exact buckets; above that, each power-of-two
/// octave splits into 32 linear sub-buckets, so quantile estimates are
/// within ~1.6% of the true value at any magnitude — tight enough that a
/// histogram-derived p99 agrees with an exactly-measured p99 well inside
/// 10%. The footprint is fixed (~15 KiB of atomics) regardless of range.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((msb - SUB_BITS) as usize) * SUB + SUB + ((v >> shift) as usize & (SUB - 1))
}

/// The midpoint of bucket `idx` — the value a quantile query reports for
/// samples that landed there.
fn bucket_value(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = (idx - SUB) / SUB;
    let sub = ((idx - SUB) % SUB) as u64;
    let lower = (1u64 << (octave as u32 + SUB_BITS)) + (sub << octave);
    lower + ((1u64 << octave) >> 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array through a Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            v.into_boxed_slice().try_into().unwrap_or_else(|_| {
                unreachable!("vec built with BUCKETS elements");
            });
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. No-op while observability is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_always(v);
    }

    /// Records one sample regardless of the global switch: a span that
    /// started while the switch was on records when it ends.
    pub(crate) fn record_always(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Samples recorded so far. Non-decreasing across successive calls.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// A point-in-time summary. Concurrent recording is fine: the summary
    /// is built from a relaxed sweep, and `count` never decreases between
    /// successive snapshots.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Relaxed);
                (c > 0).then_some((i as u32, c))
            })
            .collect();
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        let raw_min = self.min.load(Relaxed);
        let min = if raw_min == u64::MAX { 0 } else { raw_min };
        let max = self.max.load(Relaxed);
        let (p50, p90, p99) = quantiles_from(&buckets, count, min, max);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            min,
            max,
            p50,
            p90,
            p99,
            buckets,
        }
    }

    /// Empties the histogram (bench/test support; racing `record`s may
    /// survive).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
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

/// Quantile estimates over a sparse `(bucket index, count)` list, clamped
/// into `[min, max]` (bucket midpoints can overshoot the exact extremes).
fn quantiles_from(buckets: &[(u32, u64)], count: u64, min: u64, max: u64) -> (u64, u64, u64) {
    let quantile = |q: f64| -> u64 {
        if count == 0 {
            return 0;
        }
        let target = ((count as f64 - 1.0) * q).round() as u64;
        let mut seen = 0u64;
        for &(i, c) in buckets {
            seen += c;
            if seen > target {
                return bucket_value(i as usize);
            }
        }
        bucket_value(BUCKETS - 1)
    };
    let clamped = |q: f64| quantile(q).clamp(min, max.max(min));
    (clamped(0.50), clamped(0.90), clamped(0.99))
}

/// A point-in-time summary of one [`Histogram`]: sample count, sum, exact
/// min/max, log-linear-estimated quantiles (≤ ~1.6% off), and the sparse
/// bucket counts the quantiles were computed from.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Smallest sample (exact; 0 when empty).
    pub min: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Sparse `(bucket index, samples)` pairs, ascending by index; only
    /// non-empty buckets appear.
    pub buckets: Vec<(u32, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_support::with_enabled;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for shift in 0..60 {
            for off in [0u64, 1, 7] {
                let v = (1u64 << shift) + off;
                let est = bucket_value(bucket_index(v));
                let err = (est as f64 - v as f64).abs() / v.max(1) as f64;
                assert!(err <= 0.016, "v={v} est={est} err={err}");
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2] {
                let idx = bucket_index(probe);
                assert!(idx < BUCKETS);
                assert!(idx >= last, "index regressed at {probe}");
                last = idx;
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let _off = with_enabled(false);
        let c = Counter::new();
        c.inc();
        assert_eq!(c.get(), 0);
        let h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let _on = with_enabled(true);
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        for (q, expect) in [(s.p50, 5_000.0), (s.p90, 9_000.0), (s.p99, 9_900.0)] {
            let err = (q as f64 - expect).abs() / expect;
            assert!(err < 0.02, "quantile {q} vs {expect}: err {err}");
        }
    }

    #[test]
    fn gauge_tracks_level_across_threads() {
        let _on = with_enabled(true);
        let g = Gauge::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        g.add(3);
                        g.sub(3);
                    }
                    g.add(5);
                });
            }
        });
        assert_eq!(g.get(), 20);
    }
}
