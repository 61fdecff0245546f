//! Lock-free metrics core: sharded counters, gauges, fixed-bucket
//! histograms, and a registry with snapshot/merge plus Prometheus
//! text-format exposition.
//!
//! Counters are the hot-path primitive (the buffer manager bumps one per
//! eviction, the temp-file layer per spill write), so they are sharded
//! across cache-line-padded atomic cells: each thread picks a home shard
//! once and increments it with a single relaxed `fetch_add`; reads sum the
//! shards. Gauges and histograms sit on slow paths (admission, per-query
//! summaries) and use plain atomics.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of counter shards. A small power of two: enough to keep a
/// machine's worth of worker threads off each other's cache lines without
/// bloating every counter.
const SHARDS: usize = 16;

/// One cache line per shard so two threads bumping adjacent shards never
/// false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Round-robin home-shard assignment: each thread gets a stable shard index
/// the first time it touches any counter.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    HOME.with(|h| *h)
}

struct CounterInner {
    shards: [PaddedU64; SHARDS],
}

/// Monotonically increasing counter, sharded per thread.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same value.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    pub fn new() -> Self {
        Counter(Arc::new(CounterInner {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }))
    }

    /// Add `n` to the calling thread's home shard (one relaxed RMW).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value: the sum of every shard. Monotone across calls even
    /// while other threads are adding.
    pub fn get(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Signed gauge: set / add / sub, read with `get`.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

struct HistogramInner {
    /// Upper bounds of each bucket (exclusive of the implicit `+Inf`).
    bounds: Vec<f64>,
    /// Cumulative-from-zero counts are computed at read time; each cell
    /// here counts observations that landed in exactly that bucket.
    buckets: Vec<AtomicU64>,
    /// Count of observations above the last bound (the `+Inf` bucket).
    overflow: AtomicU64,
    /// Total observations. Each `observe` bumps its bucket cell, then this,
    /// both with `Release`; readers load with `Acquire`. So a reader never
    /// sees the cells sum to less than an earlier-read `count`, nor to more
    /// than a later-read `count` plus one per writer mid-`observe`.
    count: AtomicU64,
    /// Sum of observed values, stored as f64 bits and updated by CAS.
    /// Histograms live on per-query slow paths, so contention is nil.
    sum_bits: AtomicU64,
}

/// Fixed-bucket histogram in the Prometheus style: per-bucket counts, a
/// running sum, and a total count. Bucket bounds are fixed at creation.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// `bounds` must be finite and strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Default duration buckets (seconds): 1ms … 60s, roughly ×4 apart.
    pub fn duration_bounds() -> &'static [f64] {
        &[0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 15.0, 60.0]
    }

    pub fn observe(&self, v: f64) {
        let inner = &self.0;
        match inner.bounds.iter().position(|&b| v <= b) {
            Some(i) => inner.buckets[i].fetch_add(1, Ordering::Release),
            None => inner.overflow.fetch_add(1, Ordering::Release),
        };
        inner.count.fetch_add(1, Ordering::Release);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Acquire)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, cumulative_count)` pairs ending with the implicit
    /// `+Inf` bucket, Prometheus-style.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let inner = &self.0;
        let mut out = Vec::with_capacity(inner.bounds.len() + 1);
        let mut acc = 0u64;
        for (b, cell) in inner.bounds.iter().zip(&inner.buckets) {
            acc += cell.load(Ordering::Acquire);
            out.push((*b, acc));
        }
        acc += inner.overflow.load(Ordering::Acquire);
        out.push((f64::INFINITY, acc));
        out
    }
}

/// What a registered metric is, for exposition type lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn type_line(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Registered {
    help: String,
    metric: Metric,
}

/// Point-in-time value of one metric, as captured by
/// [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram {
        /// `(upper_bound, cumulative_count)`, ending with `+Inf`.
        buckets: Vec<(f64, u64)>,
        sum: f64,
        count: u64,
    },
}

/// A consistent-enough point-in-time capture of every registered metric.
/// (Each metric is read atomically; the set is read without a global lock
/// on writers, which is the intended trade-off for monitoring data.)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    pub fn get_counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    pub fn get_gauge(&self, name: &str) -> i64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Merge another snapshot into this one: counters and histogram cells
    /// add, gauges add (merging per-process shards sums them). Merge is
    /// associative and commutative, which the shard-merge test asserts.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.values {
            match self.values.get_mut(name) {
                None => {
                    self.values.insert(name.clone(), v.clone());
                }
                Some(mine) => match (mine, v) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (
                        MetricValue::Histogram {
                            buckets: ba,
                            sum: sa,
                            count: ca,
                        },
                        MetricValue::Histogram {
                            buckets: bb,
                            sum: sb,
                            count: cb,
                        },
                    ) => {
                        assert_eq!(ba.len(), bb.len(), "merge: bucket layout mismatch");
                        for (a, b) in ba.iter_mut().zip(bb) {
                            debug_assert_eq!(a.0.to_bits(), b.0.to_bits());
                            a.1 += b.1;
                        }
                        *sa += sb;
                        *ca += cb;
                    }
                    _ => panic!("merge: metric {name:?} has mismatched kinds"),
                },
            }
        }
    }
}

/// Named registry of counters/gauges/histograms. Registration takes a
/// short lock; the returned handles are lock-free. Registering the same
/// name twice returns the existing metric (handles are shared), so layers
/// can idempotently declare the metrics they touch.
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Registered>>,
}

impl MetricsRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry {
            metrics: Mutex::new(BTreeMap::new()),
        })
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Metric,
    ) -> Result<Metric, MetricNameError> {
        // Enforced unconditionally (not a debug_assert): a name with
        // spaces, quotes, or newlines would render as corrupt Prometheus
        // exposition text — every scrape of the registry breaks, not just
        // the offending series.
        if !valid_metric_name(name) {
            return Err(MetricNameError {
                name: name.to_string(),
            });
        }
        let mut map = self.metrics.lock();
        if let Some(existing) = map.get(name) {
            return Ok(existing.metric.clone());
        }
        let metric = make();
        map.insert(
            name.to_string(),
            Registered {
                help: help.to_string(),
                metric: metric.clone(),
            },
        );
        Ok(metric)
    }

    /// Get-or-create a counter. Panics on an invalid name or if `name` is
    /// registered as another kind (programming errors, not runtime
    /// conditions); use [`try_counter`](Self::try_counter) for dynamic
    /// names.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.try_counter(name, help).unwrap()
    }

    /// Get-or-create a counter, rejecting names that would corrupt the
    /// Prometheus exposition output.
    pub fn try_counter(&self, name: &str, help: &str) -> Result<Counter, MetricNameError> {
        match self.register(name, help, || Metric::Counter(Counter::new()))? {
            Metric::Counter(c) => Ok(c),
            m => panic!("{name:?} already registered as {:?}", m.kind()),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.try_gauge(name, help).unwrap()
    }

    /// Fallible [`gauge`](Self::gauge): typed error on an invalid name.
    pub fn try_gauge(&self, name: &str, help: &str) -> Result<Gauge, MetricNameError> {
        match self.register(name, help, || Metric::Gauge(Gauge::new()))? {
            Metric::Gauge(g) => Ok(g),
            m => panic!("{name:?} already registered as {:?}", m.kind()),
        }
    }

    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.try_histogram(name, help, bounds).unwrap()
    }

    /// Fallible [`histogram`](Self::histogram): typed error on an invalid
    /// name.
    pub fn try_histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
    ) -> Result<Histogram, MetricNameError> {
        match self.register(name, help, || Metric::Histogram(Histogram::new(bounds)))? {
            Metric::Histogram(h) => Ok(h),
            m => panic!("{name:?} already registered as {:?}", m.kind()),
        }
    }

    /// Capture the current value of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock();
        let values = map
            .iter()
            .map(|(name, reg)| {
                let v = match &reg.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        buckets: h.cumulative_buckets(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Render every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` lines followed by samples,
    /// histograms as `_bucket{le=...}` / `_sum` / `_count` series.
    pub fn render_prometheus(&self) -> String {
        let map = self.metrics.lock();
        let mut out = String::new();
        for (name, reg) in map.iter() {
            if !reg.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&reg.help));
            }
            let _ = writeln!(out, "# TYPE {name} {}", reg.metric.kind().type_line());
            match &reg.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    for (bound, cum) in h.cumulative_buckets() {
                        let le = if bound.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            format_f64(bound)
                        };
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_sum {}", format_f64(h.sum()));
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.metrics.lock().len())
            .finish()
    }
}

/// A metric name was rejected at registration: it does not match the
/// Prometheus name grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`, so rendering it
/// would corrupt the text exposition output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricNameError {
    /// The offending name, verbatim.
    pub name: String,
}

impl std::fmt::Display for MetricNameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid Prometheus metric name {:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*",
            self.name
        )
    }
}

impl std::error::Error for MetricNameError {}

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Shortest round-trip decimal for a sample value (Prometheus accepts any
/// float syntax; avoid trailing `.0` noise on integral values).
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        let clone = c.clone();
        clone.add(8);
        assert_eq!(c.get(), 50);
    }

    #[test]
    fn counter_multithreaded_sum() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_basics() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(20);
        assert_eq!(g.get(), -8);
    }

    #[test]
    fn histogram_bucketing() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.0).abs() < 1e-9);
        let buckets = h.cumulative_buckets();
        // le=1 captures 0.5 and the boundary value 1.0 (le is inclusive).
        assert_eq!(buckets[0], (1.0, 2));
        assert_eq!(buckets[1], (2.0, 3));
        assert_eq!(buckets[2], (4.0, 4));
        assert!(buckets[3].0.is_infinite());
        assert_eq!(buckets[3].1, 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_idempotent_registration() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("rexa_test_total", "help");
        let b = reg.counter("rexa_test_total", "help");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(reg.snapshot().get_counter("rexa_test_total"), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let reg = MetricsRegistry::new();
        reg.counter("rexa_x", "");
        reg.gauge("rexa_x", "");
    }

    #[test]
    fn snapshot_merge_associative_commutative() {
        // Build three snapshots with overlapping names and check
        // (a+b)+c == a+(b+c) and a+b == b+a.
        let make = |n: u64| {
            let reg = MetricsRegistry::new();
            reg.counter("c", "").add(n);
            reg.gauge("g", "").set(n as i64);
            let h = reg.histogram("h", "", &[1.0, 10.0]);
            h.observe(n as f64);
            reg.snapshot()
        };
        let (a, b, c) = (make(1), make(5), make(20));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        assert_eq!(left.get_counter("c"), 26);
        assert_eq!(left.get_gauge("g"), 26);
        match &left.values["h"] {
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!(*count, 3);
                assert!((sum - 26.0).abs() < 1e-9);
                assert_eq!(buckets[0], (1.0, 1)); // 1
                assert_eq!(buckets[1], (10.0, 2)); // +5
                assert_eq!(buckets[2].1, 3); // +20 in +Inf
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    /// Sets the flag when dropped, so a panicking assert inside
    /// `thread::scope` still stops the spawned loops the scope joins.
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    /// Snapshots taken while writers hammer the registry must observe
    /// monotone counter values and histograms whose `count` and `+Inf`
    /// cumulative bucket stay within what two separate atomics allow.
    #[test]
    fn snapshot_during_update_stress() {
        const WRITERS: u64 = 4;
        let reg = MetricsRegistry::new();
        let c = reg.counter("stress_total", "");
        let h = reg.histogram("stress_hist", "", &[0.5]);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let _stop_writers = StopOnDrop(&stop);
            for _ in 0..WRITERS {
                let (c, h, stop) = (c.clone(), h.clone(), &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        c.incr();
                        h.observe(0.25);
                    }
                });
            }
            let mut last = 0u64;
            for _ in 0..200 {
                let count_before = h.count();
                let snap = reg.snapshot();
                let v = snap.get_counter("stress_total");
                assert!(v >= last, "counter went backwards: {last} -> {v}");
                last = v;
                match &snap.values["stress_hist"] {
                    MetricValue::Histogram { buckets, count, .. } => {
                        let inf = buckets.last().unwrap().1;
                        // A writer bumps its bucket, then `count`, and both
                        // only grow. The snapshot reads the buckets before
                        // `count`: they already hold everything counted
                        // before the snapshot began, and lead the `count`
                        // read after them by at most the writers caught
                        // between their two increments. (`count` itself may
                        // run arbitrarily far ahead while the reader is
                        // descheduled between the reads — no bound there.)
                        assert!(
                            count_before <= inf && inf <= *count + WRITERS,
                            "histogram inconsistent: count_before={count_before} \
                             inf={inf} count={count}"
                        );
                    }
                    other => panic!("wrong kind: {other:?}"),
                }
            }
        });
    }

    #[test]
    fn prometheus_exposition_golden() {
        let reg = MetricsRegistry::new();
        reg.counter("rexa_spills_total", "Total spill events.")
            .add(3);
        reg.gauge("rexa_queue_depth", "Queued queries.").set(2);
        let h = reg.histogram("rexa_query_seconds", "Query latency.", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = reg.render_prometheus();
        let expected = "\
# HELP rexa_query_seconds Query latency.
# TYPE rexa_query_seconds histogram
rexa_query_seconds_bucket{le=\"0.1\"} 1
rexa_query_seconds_bucket{le=\"1.0\"} 2
rexa_query_seconds_bucket{le=\"+Inf\"} 3
rexa_query_seconds_sum 5.55
rexa_query_seconds_count 3
# HELP rexa_queue_depth Queued queries.
# TYPE rexa_queue_depth gauge
rexa_queue_depth 2
# HELP rexa_spills_total Total spill events.
# TYPE rexa_spills_total counter
rexa_spills_total 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("rexa_spills_total"));
        assert!(valid_metric_name("_x:y_1"));
        assert!(!valid_metric_name("1abc"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn registration_rejects_adversarial_names() {
        // Every one of these would corrupt the exposition text if it ever
        // reached render_prometheus: embedded newlines forge extra sample
        // lines, quotes/braces break label parsing, spaces split the
        // sample into garbage tokens.
        let adversarial = [
            "",
            "1starts_with_digit",
            "has space",
            "has-dash",
            "quote\"inside",
            "brace{le=\"0.1\"}",
            "newline\ninjected_metric 42",
            "unicode_héllo",
            "tab\tseparated",
        ];
        let reg = MetricsRegistry::new();
        for name in adversarial {
            let err = reg.try_counter(name, "help").unwrap_err();
            assert_eq!(err.name, name);
            assert!(err.to_string().contains("invalid Prometheus metric name"));
            assert!(reg.try_gauge(name, "help").is_err(), "gauge {name:?}");
            assert!(
                reg.try_histogram(name, "help", &[1.0]).is_err(),
                "histogram {name:?}"
            );
        }
        // Nothing was registered: the render stays empty and well-formed.
        assert_eq!(reg.render_prometheus(), "");
        assert!(reg.snapshot().values.is_empty());

        // Valid names still register through the fallible paths and the
        // infallible wrappers agree (same underlying handle).
        let c = reg.try_counter("rexa_ok_total", "help").unwrap();
        c.add(2);
        assert_eq!(reg.counter("rexa_ok_total", "help").get(), 2);
    }
}
