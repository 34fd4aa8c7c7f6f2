//! Atomics-backed metrics registry and its snapshot types.
//!
//! The registry keeps three read-mostly maps (counters, gauges,
//! histograms) keyed by `&'static str` metric names. Recording takes a
//! read lock plus one relaxed atomic operation; the write lock is taken
//! only the first time a name is seen, so a warmed registry never
//! allocates on the hot path. `BTreeMap` keeps export order
//! deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use super::Recorder;

/// Default histogram bucket upper bounds, in seconds. Tuned for control
/// round phases: microseconds (small rigs, single phases) up to a few
/// seconds (giant rigs, full simulated steps).
pub const DEFAULT_BUCKETS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
    5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5,
];

/// One histogram's live cells.
#[derive(Debug)]
struct HistogramCell {
    /// Finite bucket upper bounds, ascending.
    bounds: &'static [f64],
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` slots, the
    /// last standing in for `+Inf`.
    buckets: Box<[AtomicU64]>,
    /// Bit pattern of the running `f64` sum, updated by CAS loop.
    sum_bits: AtomicU64,
    /// Total number of observations.
    count: AtomicU64,
}

impl HistogramCell {
    /// Fresh zeroed cell over `bounds`.
    fn new(bounds: &'static [f64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCell {
            bounds,
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    fn observe(&self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }
}

/// Thread-safe metrics registry implementing [`Recorder`].
///
/// Attach one to a `ControlPlane`, `WorkerDeployment`, or
/// `InvariantTracker` (they all take `Arc<dyn Recorder>`), then export
/// with [`snapshot`](MetricsRegistry::snapshot) +
/// [`prometheus::render`](super::prometheus::render) or
/// [`json::snapshot`](super::json::snapshot).
///
/// Snapshots taken while writers are active are weakly consistent: each
/// cell is read atomically but the set of cells is not frozen as one
/// unit. For the in-repo single-writer uses this is exact.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Bucket bounds handed to newly registered histograms.
    bounds: &'static [f64],
    /// Monotonic counters.
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    /// Gauges, stored as `f64` bit patterns.
    gauges: RwLock<BTreeMap<&'static str, AtomicU64>>,
    /// Fixed-bucket histograms.
    histograms: RwLock<BTreeMap<&'static str, HistogramCell>>,
}

impl MetricsRegistry {
    /// Empty registry using [`DEFAULT_BUCKETS`] for histograms.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Empty registry whose histograms use `bounds` (finite, ascending)
    /// as bucket upper bounds; a `+Inf` overflow bucket is implicit.
    pub(crate) fn with_buckets(bounds: &'static [f64]) -> Self {
        MetricsRegistry {
            bounds,
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Copy the current values of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&name, cell)| CounterSample {
                name: name.to_string(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&name, cell)| GaugeSample {
                name: name.to_string(),
                value: f64::from_bits(cell.load(Ordering::Relaxed)),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(&name, cell)| {
                let mut cumulative = 0u64;
                let buckets = cell
                    .bounds
                    .iter()
                    .enumerate()
                    .map(|(i, &le)| {
                        cumulative += cell.buckets[i].load(Ordering::Relaxed);
                        BucketSample {
                            le,
                            cumulative,
                        }
                    })
                    .collect();
                HistogramSample {
                    name: name.to_string(),
                    buckets,
                    sum: f64::from_bits(cell.sum_bits.load(Ordering::Relaxed)),
                    count: cell.count.load(Ordering::Relaxed),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(cell) = self.counters.read().expect("metrics lock poisoned").get(name) {
            cell.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        self.counters
            .write()
            .expect("metrics lock poisoned")
            .entry(name)
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(cell) = self.gauges.read().expect("metrics lock poisoned").get(name) {
            cell.store(value.to_bits(), Ordering::Relaxed);
            return;
        }
        self.gauges
            .write()
            .expect("metrics lock poisoned")
            .entry(name)
            .or_insert_with(|| AtomicU64::new(0))
            .store(value.to_bits(), Ordering::Relaxed);
    }

    fn observe(&self, name: &'static str, value: f64) {
        if let Some(cell) = self
            .histograms
            .read()
            .expect("metrics lock poisoned")
            .get(name)
        {
            cell.observe(value);
            return;
        }
        self.histograms
            .write()
            .expect("metrics lock poisoned")
            .entry(name)
            .or_insert_with(|| HistogramCell::new(self.bounds))
            .observe(value);
    }
}

/// One counter's exported value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Full metric name (may embed a label set).
    pub name: String,
    /// Current cumulative value.
    pub value: u64,
}

/// One gauge's exported value.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Full metric name (may embed a label set).
    pub name: String,
    /// Latest value set.
    pub value: f64,
}

/// One histogram bucket in cumulative (Prometheus) form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSample {
    /// Upper bound of the bucket (finite; `+Inf` is implied by
    /// [`HistogramSample::count`]).
    pub le: f64,
    /// Observations with value ≤ `le`.
    pub cumulative: u64,
}

/// One histogram's exported state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Full metric name (may embed a label set).
    pub name: String,
    /// Cumulative finite buckets, ascending by bound.
    pub buckets: Vec<BucketSample>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observation count (the implicit `+Inf` bucket).
    pub count: u64,
}

/// Point-in-time copy of a registry, ready for export. Produced by
/// [`MetricsRegistry::snapshot`]; consumed by the `prometheus` and
/// `json` exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_register_once() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a_total", 2);
        reg.counter_add("a_total", 3);
        reg.counter_add("b_total", 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].name, "a_total");
        assert_eq!(snap.counters[0].value, 5);
        assert_eq!(snap.counters[1].value, 0);
    }

    #[test]
    fn gauges_keep_last_value() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("g", 1.5);
        reg.gauge_set("g", -2.25);
        assert_eq!(reg.snapshot().gauges[0].value, -2.25);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_includes_overflow() {
        let reg = MetricsRegistry::with_buckets(&[1.0, 2.0]);
        for v in [0.5, 0.5, 1.5, 10.0] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.buckets.len(), 2);
        assert_eq!(h.buckets[0], BucketSample { le: 1.0, cumulative: 2 });
        assert_eq!(h.buckets[1], BucketSample { le: 2.0, cumulative: 3 });
        assert_eq!(h.count, 4);
        assert!((h.sum - 12.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_observation_lands_in_lower_bucket() {
        let reg = MetricsRegistry::with_buckets(&[1.0, 2.0]);
        reg.observe("h", 1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].buckets[0].cumulative, 1);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter_add("z", 1);
        reg.counter_add("a", 1);
        reg.counter_add("m", 1);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        reg.counter_add("t", 0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.counter_add("t", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().counters[0].value, 4000);
    }
}
