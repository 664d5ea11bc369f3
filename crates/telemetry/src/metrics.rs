//! Metric instruments: atomic counters, gauges, log-bucketed
//! histograms, and the registry that names them.
//!
//! Every instrument is a cheap cloneable handle around an `Arc`'d core
//! (or nothing at all for the no-op variant handed out by a disabled
//! [`crate::Telemetry`]). Writers never lock: counters and histograms
//! are relaxed atomics.
//!
//! Reads are snapshots: [`Registry::snapshot`] walks the sorted
//! instrument map, so exports are deterministic in ordering regardless
//! of registration order or thread timing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
///
/// Handles are cheap clones sharing one atomic; a handle built by
/// [`Counter::noop`] drops every write and reads zero (the
/// disabled-telemetry path).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    core: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that drops writes and reads zero.
    pub fn noop() -> Counter {
        Counter { core: None }
    }

    /// A counter not attached to any registry.
    pub fn standalone() -> Counter {
        Counter {
            core: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Whether writes are recorded (false for no-op handles).
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.core {
            core.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        match &self.core {
            Some(core) => core.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// A last-value-wins signed gauge (queue depths, resident counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    core: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A handle that drops writes and reads zero.
    pub fn noop() -> Gauge {
        Gauge { core: None }
    }

    /// A gauge not attached to any registry.
    pub fn standalone() -> Gauge {
        Gauge {
            core: Some(Arc::new(AtomicI64::new(0))),
        }
    }

    /// Set the current value.
    pub fn set(&self, v: i64) {
        if let Some(core) = &self.core {
            core.store(v, Ordering::Relaxed);
        }
    }

    /// Adjust the current value by `delta`.
    pub fn adjust(&self, delta: i64) {
        if let Some(core) = &self.core {
            core.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        match &self.core {
            Some(core) => core.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// Bucket count of the log-bucketed histogram: one bucket per power of
/// two of the recorded `u64` value, plus one for zero.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Index of the bucket covering `v`: bucket 0 holds zero, bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i - 1]`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the value a quantile reports).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log-bucketed histogram of `u64` samples (typically latencies in
/// microseconds): lock-free recording into power-of-two buckets, with
/// p50/p95/p99/max read out of a [`HistogramSnapshot`].
///
/// Quantiles are bucket upper bounds, so they over-report by at most 2×
/// — the right trade for a dependency-free hot-path instrument.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket upper bound, capped at `max`).
    pub p50: u64,
    /// 95th percentile (bucket upper bound, capped at `max`).
    pub p95: u64,
    /// 99th percentile (bucket upper bound, capped at `max`).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Histogram {
    /// A handle that drops samples and snapshots to zeros.
    pub fn noop() -> Histogram {
        Histogram { core: None }
    }

    /// A histogram not attached to any registry.
    pub fn standalone() -> Histogram {
        Histogram {
            core: Some(Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })),
        }
    }

    /// Whether samples are recorded (false for no-op handles).
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.core {
            core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
            core.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Snapshot counts and quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(core) = &self.core else {
            return HistogramSnapshot::default();
        };
        let counts: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max = core.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return bucket_upper(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named map of instruments with get-or-register semantics and
/// deterministically ordered snapshots.
///
/// Registration takes a short lock; the returned handles write lock-free
/// afterwards. Re-registering a name returns the existing handle (a
/// kind mismatch returns a no-op handle rather than panicking — the
/// registry never takes a process down).
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

/// Deterministic point-in-time view of a whole registry: every vector is
/// sorted by instrument name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, summed value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Whether nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Counter::standalone()))
        {
            Instrument::Counter(c) => c.clone(),
            _ => Counter::noop(),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Gauge::standalone()))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => Gauge::noop(),
        }
    }

    /// Get or register a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Histogram::standalone()))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => Histogram::noop(),
        }
    }

    /// Snapshot every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.instruments.lock().expect("registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Instrument::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Instrument::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_is_consistent_under_threads() {
        let c = Counter::standalone();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(c.is_enabled());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_005);
    }

    #[test]
    fn noop_counter_drops_writes() {
        let c = Counter::noop();
        c.inc();
        c.add(99);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
    }

    #[test]
    fn counter_handles_share_one_core() {
        let a = Counter::standalone();
        let b = a.clone();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn gauge_sets_and_adjusts() {
        let g = Gauge::standalone();
        g.set(10);
        g.adjust(-3);
        assert_eq!(g.get(), 7);
        let noop = Gauge::noop();
        noop.set(5);
        assert_eq!(noop.get(), 0);
    }

    #[test]
    fn histogram_buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let h = Histogram::standalone();
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 10_000);
        assert_eq!(s.sum, 90 * 100 + 10 * 10_000);
        // p50 lands in the bucket of 100 ([64, 127] → upper 127).
        assert_eq!(s.p50, 127);
        // p95 and p99 land in the slow bucket, capped at the true max.
        assert_eq!(s.p95, 10_000);
        assert_eq!(s.p99, 10_000);
        assert!((s.mean() - 1090.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_noop_histograms_snapshot_to_zero() {
        assert_eq!(
            Histogram::standalone().snapshot(),
            HistogramSnapshot::default()
        );
        let noop = Histogram::noop();
        noop.record(42);
        assert_eq!(noop.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_is_idempotent_and_sorted() {
        let r = Registry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.gauge("m.gauge").set(-4);
        r.histogram("h.lat").record(3);
        // Re-registering returns the same underlying counter.
        r.counter("a.first").add(3);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 5), ("z.last".to_string(), 1)]
        );
        assert_eq!(snap.gauges, vec![("m.gauge".to_string(), -4)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counter("a.first"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn registry_kind_mismatch_yields_noop() {
        let r = Registry::new();
        r.counter("x");
        let g = r.gauge("x");
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = r.histogram("x");
        assert!(!h.is_enabled());
    }
}
