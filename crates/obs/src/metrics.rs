//! The metrics registry: counters, gauges, and log-linear histograms.
//!
//! Recording is a relaxed atomic operation on a shared handle; handles are
//! registered by name and cloning one is free. Reading happens through
//! [`MetricsRegistry::snapshot`], which freezes every series into a
//! [`MetricsSnapshot`] whose [`merge`](MetricsSnapshot::merge) is
//! commutative and associative: counters and histogram buckets add, gauges
//! take the max. That is what makes folding per-shard snapshots
//! order- and parallelism-invariant.
//!
//! # Histogram layout
//!
//! Values below 64 land in width-1 buckets (`index == value`), so small
//! distributions are stored — and their quantiles reported — *exactly*.
//! From 64 up, each power-of-two range splits into 32 sub-buckets
//! (log-linear, ~3% worst-case relative error), 1920 buckets total,
//! covering the full `u64` range. A quantile is the lower bound of the
//! bucket holding the rank-`ceil(q·count)` sample (rank clamped to
//! `[1, count]`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::escape;

/// Width-1 buckets below this value (exact storage).
const LINEAR_BUCKETS: usize = 64;
/// Sub-buckets per power-of-two range above the linear range.
const SUB_BUCKETS: usize = 32;
/// Total bucket count: 64 linear + 32 per octave for octaves 6..=63.
const BUCKETS: usize = LINEAR_BUCKETS + (64 - 6) * SUB_BUCKETS;

/// Bucket index for a recorded value.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        v as usize
    } else {
        let k = 63 - v.leading_zeros() as usize; // k >= 6
        let sub = ((v >> (k - 5)) & (SUB_BUCKETS as u64 - 1)) as usize;
        LINEAR_BUCKETS + (k - 6) * SUB_BUCKETS + sub
    }
}

/// Smallest value mapping to bucket `idx` (the value a quantile reports).
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS {
        idx as u64
    } else {
        let k = 6 + (idx - LINEAR_BUCKETS) / SUB_BUCKETS;
        let sub = ((idx - LINEAR_BUCKETS) % SUB_BUCKETS) as u64;
        (1u64 << k) + (sub << (k - 5))
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle. Merging snapshots keeps the max, so gauges are best
/// used for high-water marks ([`Gauge::set_max`]).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A histogram handle (values are unitless `u64`s; by convention this
/// workspace records microseconds on the `SimTime` axis).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        let c = &*self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn freeze(&self) -> HistogramSnapshot {
        let c = &*self.0;
        let count = c.count.load(Ordering::Relaxed);
        let buckets = c
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u16, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state: totals plus the sparse non-empty buckets.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` pairs, ascending by index, counts > 0.
    buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket holding the sample of rank `ceil(q·count)` (clamped to
    /// `[1, count]`). Exact for values below 64; within ~3% above.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(idx as usize);
            }
        }
        self.max
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds `other`'s observations into `self` (bucket-wise; commutative
    /// and associative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u16, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *merged.entry(idx).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// One frozen series.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge level.
    Gauge(u64),
    /// A histogram.
    Histogram(HistogramSnapshot),
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named series. Cloning shares the underlying series;
/// registration is idempotent (asking for an existing name returns a
/// handle to the same series).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        project: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        let metric = map.entry(name.to_string()).or_insert_with(make);
        match project(metric) {
            Some(handle) => handle,
            None => panic!("metric {name:?} already registered as a {}", metric.kind()),
        }
    }

    /// Returns (registering if needed) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.register(
            name,
            || Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Returns (registering if needed) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.register(
            name,
            || Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Returns (registering if needed) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.register(
            name,
            || Metric::Histogram(Histogram(Arc::new(HistogramCore::new()))),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Freezes every series into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().expect("metrics registry poisoned");
        let series = map
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.freeze()),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { series }
    }
}

/// A frozen view of a registry, mergeable across shards/resolvers and
/// exportable as Prometheus text or JSON.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Series by name (BTreeMap: exporters emit in deterministic order).
    pub series: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, gauges keep the max,
    /// histograms add bucket-wise. Series missing on either side are
    /// carried over. Commutative and associative, so any fold order over
    /// any sharding of the same recordings yields the same snapshot.
    ///
    /// # Panics
    ///
    /// If the same name has different metric types on the two sides.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, theirs) in &other.series {
            match self.series.get_mut(name) {
                None => {
                    self.series.insert(name.clone(), theirs.clone());
                }
                Some(mine) => match (mine, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (mine, _) => {
                        panic!("snapshot merge type mismatch for {name:?}: {mine:?} vs incoming")
                    }
                },
            }
        }
    }

    /// The counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.series.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.series.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.series.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Prometheus text exposition: counters and gauges as-is, histograms
    /// as summaries (`{quantile="…"}` series plus `_sum`/`_count`) with a
    /// companion `_max` gauge.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.series {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{label}\"}} {}\n",
                            h.quantile(q)
                        ));
                    }
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                    out.push_str(&format!("# TYPE {name}_max gauge\n{name}_max {}\n", h.max));
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, min, max, p50, p90, p99}}}`.
    pub fn to_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, value) in &self.series {
            let key = escape(name);
            match value {
                MetricValue::Counter(v) => counters.push(format!("    \"{key}\": {v}")),
                MetricValue::Gauge(v) => gauges.push(format!("    \"{key}\": {v}")),
                MetricValue::Histogram(h) => histograms.push(format!(
                    "    \"{key}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99)
                )),
            }
        }
        format!(
            "{{\n  \"counters\": {{\n{}\n  }},\n  \"gauges\": {{\n{}\n  }},\n  \"histograms\": {{\n{}\n  }}\n}}\n",
            counters.join(",\n"),
            gauges.join(",\n"),
            histograms.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..64u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for idx in 1..BUCKETS {
            let lb = bucket_lower_bound(idx);
            assert!(lb > prev, "idx={idx}");
            prev = lb;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bucket's lower bound maps back to that bucket.
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(idx)), idx, "idx={idx}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 1_000, 65_537, 1_000_000, u64::MAX / 3] {
            let lb = bucket_lower_bound(bucket_index(v));
            assert!(lb <= v);
            let err = (v - lb) as f64 / v as f64;
            assert!(err < 1.0 / 32.0 + 1e-9, "v={v} err={err}");
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total");
        c.inc();
        c.add(6);
        let g = reg.gauge("g");
        g.set(3);
        g.set_max(10);
        g.set_max(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total"), Some(7));
        assert_eq!(snap.gauge("g"), Some(10));
        // Same-name registration returns the same series.
        reg.counter("c_total").inc();
        assert_eq!(reg.snapshot().counter("c_total"), Some(8));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_quantiles_exact_in_linear_range() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us");
        for v in 1..=50u64 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat_us").unwrap();
        assert_eq!(hs.count, 50);
        assert_eq!(hs.min, 1);
        assert_eq!(hs.max, 50);
        assert_eq!(hs.quantile(0.5), 25);
        assert_eq!(hs.quantile(0.9), 45);
        assert_eq!(hs.quantile(0.99), 50);
        assert_eq!(hs.quantile(0.0), 1);
        assert_eq!(hs.quantile(1.0), 50);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let reg = MetricsRegistry::new();
        reg.histogram("h");
        let snap = reg.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!((hs.count, hs.sum, hs.min, hs.max), (0, 0, 0, 0));
        assert_eq!(hs.quantile(0.5), 0);
    }

    #[test]
    fn merge_adds_counters_and_buckets_and_maxes_gauges() {
        let a = MetricsRegistry::new();
        a.counter("c").add(3);
        a.gauge("g").set(5);
        a.histogram("h").record(10);
        let b = MetricsRegistry::new();
        b.counter("c").add(4);
        b.gauge("g").set(2);
        b.histogram("h").record(20);
        b.histogram("h").record(10);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("c"), Some(7));
        assert_eq!(m.gauge("g"), Some(5));
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 40);
        assert_eq!((h.min, h.max), (10, 20));
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(1.0), 20);
    }

    #[test]
    fn merge_carries_disjoint_series() {
        let a = MetricsRegistry::new();
        a.counter("only_a").add(1);
        let b = MetricsRegistry::new();
        b.counter("only_b").add(2);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("only_a"), Some(1));
        assert_eq!(m.counter("only_b"), Some(2));
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("requests_total").add(2);
        reg.gauge("depth").set(4);
        let h = reg.histogram("lat_us");
        h.record(10);
        h.record(30);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE requests_total counter\nrequests_total 2\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth 4\n"));
        assert!(text.contains("# TYPE lat_us summary\n"));
        assert!(text.contains("lat_us{quantile=\"0.5\"} 10\n"));
        assert!(text.contains("lat_us_sum 40\n"));
        assert!(text.contains("lat_us_count 2\n"));
        assert!(text.contains("lat_us_max 30\n"));
    }

    #[test]
    fn json_snapshot_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total").add(2);
        reg.gauge("g").set(4);
        reg.histogram("h_us").record(12);
        let text = reg.snapshot().to_json();
        let v = crate::json::parse(&text).expect("valid JSON");
        let obj = v.as_object().unwrap();
        assert!(obj.contains_key("counters"));
        assert!(obj.contains_key("gauges"));
        assert!(obj.contains_key("histograms"));
    }
}
