//! Lock-light metrics registry: named counters, gauges and fixed-bucket
//! histograms.
//!
//! Registration — the only path that takes a lock — interns each name once
//! and hands back a `&'static` handle; call sites cache those handles (a
//! `OnceLock` probe struct is the usual idiom) so steady-state updates are
//! single relaxed atomic operations with no map lookup. Handles are leaked
//! deliberately: the set of metric names is a small code-controlled
//! vocabulary, so the leak is bounded and buys lock-free hot paths.
//!
//! Histograms use fixed power-of-two buckets over `u64` samples (latencies
//! in nanoseconds, sizes in raw counts). Recording is two relaxed
//! fetch-adds; quantiles are estimated at snapshot time from the bucket
//! upper bounds, which is plenty for p50/p95/p99 dashboards and keeps the
//! record path branch-free.

use crate::json::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous signed level (queue depths, pool occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Move the level by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Number of power-of-two buckets: bucket 0 holds the sample `0`, bucket
/// `i >= 1` holds samples in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample (a latency in nanoseconds, a size in items, ...).
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Freeze the current contents into a [`HistogramSnapshot`]. The bucket
    /// reads are not a consistent cut across concurrent writers; for
    /// telemetry that tolerance is the price of a lock-free record path.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of bucket i: 2^i - 1 (bucket 0 holds 0).
                    return if i == 0 { 0 } else { ((1u128 << i) - 1) as u64 };
                }
            }
            u64::MAX
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Frozen view of one [`Histogram`]: totals plus bucket-resolution
/// quantile estimates (each pXX is the upper bound of the power-of-two
/// bucket holding that rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (same unit as the samples).
    pub sum: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
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

/// The process-wide name → instrument map. One global instance lives behind
/// [`registry()`]; separate instances exist only in tests.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    let mut map = map.lock().expect("telemetry registry poisoned");
    if let Some(existing) = map.get(name) {
        return existing;
    }
    let leaked: &'static T = Box::leak(Box::default());
    map.insert(name.to_string(), leaked);
    leaked
}

impl Registry {
    /// Fetch (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        intern(&self.counters, name)
    }

    /// Fetch (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        intern(&self.gauges, name)
    }

    /// Fetch (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        intern(&self.histograms, name)
    }

    /// Freeze every registered instrument into a [`TelemetrySnapshot`]
    /// (names in lexicographic order, so the JSON is deterministic).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: crate::enabled(),
            counters: self
                .counters
                .lock()
                .expect("telemetry registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("telemetry registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("telemetry registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

/// Shorthand for `registry().snapshot()`.
pub fn snapshot() -> TelemetrySnapshot {
    registry().snapshot()
}

/// A point-in-time copy of every registered metric, with a JSON rendering.
/// This is the surface the benchmark and the `distill-serve`
/// introspection call read.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Whether probes were live when the snapshot was taken.
    pub enabled: bool,
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, frozen view)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Level of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Frozen view of the histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// How much the counter named `name` grew since `earlier` (counters
    /// registered after `earlier` count from zero).
    pub fn counter_delta(&self, earlier: &TelemetrySnapshot, name: &str) -> u64 {
        self.counter(name)
            .unwrap_or(0)
            .saturating_sub(earlier.counter(name).unwrap_or(0))
    }

    /// Render the snapshot as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"enabled\":{}", self.enabled);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape(name, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape(name, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape(name, &mut out);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.p50, h.p95, h.p99
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The escaper `to_json` writes names with, as a standalone string.
    fn json_string(s: &str) -> String {
        let mut out = String::new();
        escape(s, &mut out);
        out
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::default();
        let c = reg.counter("t.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same handle.
        assert_eq!(reg.counter("t.count").get(), 5);
        let g = reg.gauge("t.depth");
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.count"), Some(5));
        assert_eq!(snap.gauge("t.depth"), Some(-2));
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_buckets() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1105);
        // Rank 3 of 6 is the second `1`: bucket 1, upper bound 1.
        assert_eq!(s.p50, 1);
        // p99 -> rank 6 -> 1000 lives in [512, 1024): upper bound 1023.
        assert_eq!(s.p99, 1023);
        assert!(s.p95 >= s.p50 && s.p99 >= s.p95);
        assert!((s.mean() - 1105.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn counter_delta_handles_late_registration() {
        let reg = Registry::default();
        reg.counter("t.a").add(2);
        let before = reg.snapshot();
        reg.counter("t.a").add(3);
        reg.counter("t.late").add(7);
        let after = reg.snapshot();
        assert_eq!(after.counter_delta(&before, "t.a"), 3);
        assert_eq!(after.counter_delta(&before, "t.late"), 7);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_escaped() {
        let reg = Registry::default();
        reg.counter("b.second").inc();
        reg.counter("a.first").inc();
        reg.histogram("h.lat_ns").record(7);
        let json = reg.snapshot().to_json();
        // Lexicographic name order regardless of registration order.
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b);
        assert!(json.contains("\"h.lat_ns\":{\"count\":1,\"sum\":7"));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
