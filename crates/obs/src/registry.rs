//! The metrics registry: named, labelled counters, gauges, and
//! log-bucketed histograms.
//!
//! Registration (`Metrics::counter`/`gauge`/`histogram`) takes a mutex
//! and interns the instrument in a `BTreeMap` keyed by `(name, sorted
//! labels)`, so snapshots enumerate in a stable order. The returned
//! handles are `Arc`-backed: recording is one or two atomic operations,
//! lock-free and safe from any thread. Registering the same name+labels
//! twice returns a handle to the same underlying instrument.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
use crate::time::Stopwatch;

/// Number of logarithmic histogram buckets. Bucket `i` (for `i >= 1`)
/// holds observations whose nanosecond value has bit length `i`, i.e.
/// the range `[2^(i-1), 2^i - 1]` ns; bucket 0 holds exact zeros and
/// the last bucket absorbs everything from ~4.6 s upward.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Key under which an instrument is interned: name plus label pairs
/// sorted by label key.
type Key = (String, Vec<(String, String)>);

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// A monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float sample (stored as `f64` bits in an atomic).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed latency histogram recording durations in nanoseconds.
///
/// Buckets are powers of two (see [`HISTOGRAM_BUCKETS`]), which keeps
/// recording to four relaxed atomic ops and still resolves p50/p90/p99
/// to within a factor of two — plenty for "where does the wall-clock
/// go" questions. The exact maximum is tracked separately, and quantile
/// estimates are clamped to it.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// Bucket index for an observation of `nanos`: its bit length, capped
/// at the last bucket.
#[inline]
pub(crate) fn bucket_index(nanos: u64) -> usize {
    (u64::BITS - nanos.leading_zeros()).min(HISTOGRAM_BUCKETS as u32 - 1) as usize
}

/// Inclusive upper bound, in nanoseconds, of bucket `i` (the largest
/// value with bit length `i` is `2^i - 1`); `None` means +Inf.
pub(crate) fn bucket_upper_nanos(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

impl Histogram {
    /// Records a duration expressed in whole nanoseconds.
    #[inline]
    pub fn observe_nanos(&self, nanos: u64) {
        let core = &*self.0;
        core.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        core.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records a duration expressed in seconds (negative and non-finite
    /// values clamp to zero; oversized ones saturate).
    #[inline]
    pub fn observe_secs(&self, secs: f64) {
        let nanos = if secs.is_finite() && secs > 0.0 {
            let n = secs * 1e9;
            if n >= u64::MAX as f64 {
                u64::MAX
            } else {
                n as u64
            }
        } else {
            0
        };
        self.observe_nanos(nanos);
    }

    /// Records the elapsed time of a running [`Stopwatch`].
    #[inline]
    pub fn observe(&self, sw: &Stopwatch) {
        self.observe_nanos(sw.elapsed_nanos());
    }

    /// Observations recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.0.sum_nanos.load(Ordering::Relaxed)
    }

    /// Largest single observation, nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.0.max_nanos.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos() as f64 * 1e-9
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q <= 1) in
    /// nanoseconds: the upper edge of the first bucket whose cumulative
    /// count reaches `ceil(q * count)`, clamped to the exact maximum.
    /// Returns 0 when empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        let core = &*self.0;
        let count = core.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let max = self.max_nanos();
        let mut cum = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            cum += core.buckets[i].load(Ordering::Relaxed);
            if cum >= target {
                return match bucket_upper_nanos(i) {
                    Some(le) => le.min(max),
                    None => max,
                };
            }
        }
        max
    }

    /// Per-bucket counts (non-cumulative), for snapshotting.
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

/// The instrument registry. See the crate docs for the threading model.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<BTreeMap<Key, Slot>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, BTreeMap<Key, Slot>> {
        // A poisoned registry mutex only means another thread panicked
        // mid-registration; the map itself is always consistent.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    /// If `name{labels}` is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = key(name, labels);
        let mut map = self.locked();
        let slot = map
            .entry(key)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => panic!("metric `{name}` already registered as a non-counter"),
        }
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    /// If `name{labels}` is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = key(name, labels);
        let mut map = self.locked();
        let slot = map
            .entry(key)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match slot {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => panic!("metric `{name}` already registered as a non-gauge"),
        }
    }

    /// Returns (registering on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    /// If `name{labels}` is already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = key(name, labels);
        let mut map = self.locked();
        let slot = map
            .entry(key)
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCore::new())));
        match slot {
            Slot::Histogram(h) => Histogram(Arc::clone(h)),
            _ => panic!("metric `{name}` already registered as a non-histogram"),
        }
    }

    /// Sum of every registered counter named `name`, across all label
    /// sets; `None` if no such counter exists. Used by progress
    /// heartbeats to derive e.g. rounds/sec without holding handles.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let map = self.locked();
        let mut found = false;
        let mut total = 0u64;
        for ((n, _), slot) in map.iter() {
            if n == name {
                if let Slot::Counter(c) = slot {
                    found = true;
                    total = total.saturating_add(c.load(Ordering::Relaxed));
                }
            }
        }
        found.then_some(total)
    }

    /// A point-in-time copy of every instrument, in stable
    /// name-then-labels order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.locked();
        let mut snap = MetricsSnapshot::default();
        for ((name, labels), slot) in map.iter() {
            match slot {
                Slot::Counter(c) => snap.counters.push(CounterSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.load(Ordering::Relaxed),
                }),
                Slot::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: f64::from_bits(g.load(Ordering::Relaxed)),
                }),
                Slot::Histogram(h) => {
                    let h = Histogram(Arc::clone(h));
                    snap.histograms.push(HistogramSample {
                        name: name.clone(),
                        labels: labels.clone(),
                        count: h.count(),
                        sum_nanos: h.sum_nanos(),
                        max_nanos: h.max_nanos(),
                        p50_nanos: h.quantile_nanos(0.50),
                        p90_nanos: h.quantile_nanos(0.90),
                        p99_nanos: h.quantile_nanos(0.99),
                        buckets: h.bucket_counts().to_vec(),
                    });
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let m = Metrics::new();
        let a = m.counter("rounds_total", &[]);
        let b = m.counter("rounds_total", &[]);
        a.inc();
        b.add(4);
        assert_eq!(a.value(), 5, "both handles hit the same instrument");
        assert_eq!(m.counter_value("rounds_total"), Some(5));
        assert_eq!(m.counter_value("missing"), None);
    }

    #[test]
    fn counter_value_sums_across_label_sets() {
        let m = Metrics::new();
        m.counter("trials", &[("figure", "a")]).add(3);
        m.counter("trials", &[("figure", "b")]).add(9);
        assert_eq!(m.counter_value("trials"), Some(12));
    }

    #[test]
    fn gauges_store_floats() {
        let m = Metrics::new();
        let g = m.gauge("throughput", &[("figure", "fig3-3")]);
        assert_eq!(g.value(), 0.0);
        g.set(12.75);
        assert_eq!(g.value(), 12.75);
        g.set(-1.5);
        assert_eq!(g.value(), -1.5);
    }

    #[test]
    fn label_order_does_not_split_instruments() {
        let m = Metrics::new();
        let a = m.counter("c", &[("x", "1"), ("y", "2")]);
        let b = m.counter("c", &[("y", "2"), ("x", "1")]);
        a.inc();
        assert_eq!(b.value(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let m = Metrics::new();
        m.counter("clash", &[]);
        m.gauge("clash", &[]);
    }

    #[test]
    fn bucket_boundaries_follow_bit_length() {
        // Zero gets its own bucket.
        assert_eq!(bucket_index(0), 0);
        // Powers of two sit at the *bottom* of their bucket: bit length
        // of 2^k is k+1.
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(1025), 11);
        // The top of the range saturates into the last bucket.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1 << 62), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_are_inclusive_edges() {
        assert_eq!(bucket_upper_nanos(0), Some(0));
        assert_eq!(bucket_upper_nanos(1), Some(1));
        assert_eq!(bucket_upper_nanos(11), Some(2047));
        assert_eq!(bucket_upper_nanos(HISTOGRAM_BUCKETS - 1), None);
        // Each finite edge is exactly the largest value of its bucket:
        // bucket_index(edge) == i and bucket_index(edge + 1) == i + 1.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let edge = bucket_upper_nanos(i).expect("finite edge");
            assert_eq!(bucket_index(edge), i, "edge {edge} not in bucket {i}");
            assert_eq!(bucket_index(edge + 1), i + 1, "edge {edge} not maximal");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_and_max() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[]);
        h.observe_nanos(100);
        h.observe_nanos(300);
        h.observe_secs(1e-6);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_nanos(), 1400);
        assert_eq!(h.max_nanos(), 1000);
        assert!((h.sum_secs() - 1400e-9).abs() < 1e-15);
    }

    #[test]
    fn observe_secs_clamps_garbage_to_zero() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[]);
        h.observe_secs(-4.0);
        h.observe_secs(f64::NAN);
        h.observe_secs(f64::INFINITY);
        h.observe_secs(1e300);
        // -4, NaN and +Inf land in the zero bucket; a finite duration
        // too large for u64 nanoseconds saturates into the top bucket.
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket_counts()[0], 3);
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_are_ordered_and_clamped_to_max() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[]);
        assert_eq!(h.quantile_nanos(0.5), 0, "empty histogram");
        for nanos in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5000] {
            h.observe_nanos(nanos);
        }
        let p50 = h.quantile_nanos(0.50);
        let p90 = h.quantile_nanos(0.90);
        let p99 = h.quantile_nanos(0.99);
        let max = h.max_nanos();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        // 9 of 10 observations are <= 90ns (bucket edge 127ns); the p99
        // must reach the outlier's bucket but never exceed the true max.
        assert!(p50 <= 127, "p50 {p50} too high");
        assert!(p99 > 127, "p99 {p99} missed the outlier");
        assert_eq!(max, 5000);
        assert_eq!(h.quantile_nanos(1.0), 5000, "p100 is the exact max");
    }

    #[test]
    fn single_observation_quantile_equals_max() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[]);
        h.observe_nanos(777);
        // The bucket edge (1023ns) exceeds the true max, so the clamp
        // must kick in for every quantile.
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile_nanos(q), 777, "q={q}");
        }
    }

    #[test]
    fn handles_record_from_worker_threads() {
        let m = Metrics::new();
        let c = m.counter("work", &[]);
        let h = m.histogram("lat", &[]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        c.inc();
                        h.observe_nanos(i);
                    }
                });
            }
        });
        assert_eq!(c.value(), 400);
        assert_eq!(h.count(), 400);
    }
}
