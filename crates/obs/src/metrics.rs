//! The metrics registry: typed counters, gauges and histograms under stable
//! dotted names with label sets, recorded lock-free on the hot path and
//! rendered in two exposition formats (Prometheus-style text and JSON).
//!
//! Handles returned by [`Registry`] are cheap `Arc` clones around atomics:
//! recording is one or two relaxed atomic ops and never takes the registry
//! lock.  The lock guards only registration and snapshotting — both cold.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::{self, JsonValue};

/// Number of power-of-two histogram buckets; bucket `i` counts samples
/// `< 2^i` (the last bucket absorbs everything larger).
pub const HISTOGRAM_BUCKETS: usize = 24;

/// Returns the bucket index for a sample: zero lands in bucket 0,
/// `2^i..2^(i+1)` in `i+1`, and everything from `2^22` up in the last.
pub fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
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

/// A gauge that can move in both directions (e.g. in-flight requests).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (saturating via wrapping discipline: callers pair every
    /// `dec` with a prior `inc`).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistoCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl HistoCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A power-of-two histogram handle; recording is two relaxed atomic adds.
#[derive(Clone)]
pub struct Histogram(Arc<HistoCore>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies the current bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }
}

/// A metric's identity: dotted name plus sorted `(key, value)` label pairs.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `serve.map.latency`.
    pub name: String,
    /// Label pairs, sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    GaugeFn(GaugeFn),
    Histogram(Arc<HistoCore>),
}

struct Entry {
    key: MetricKey,
    instrument: Instrument,
}

/// The value captured for one metric at snapshot time.
#[derive(Clone, PartialEq, Debug)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading (stored or callback).
    Gauge(u64),
    /// Histogram reading: bucket counts and the running sum.
    Histogram {
        /// Per-bucket counts (`buckets[i]` counts samples `< 2^i`).
        buckets: [u64; HISTOGRAM_BUCKETS],
        /// Sum of all recorded samples.
        sum: u64,
    },
}

/// One metric in a [`Snapshot`].
#[derive(Clone, PartialEq, Debug)]
pub struct MetricSnapshot {
    /// The metric's identity.
    pub key: MetricKey,
    /// The captured value.
    pub value: MetricValue,
}

/// A point-in-time capture of every registered metric, sorted by key.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Snapshot {
    /// Captured metrics in canonical (sorted) order.
    pub metrics: Vec<MetricSnapshot>,
}

/// The registry: create via [`Registry::new`], clone freely (shared handle).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

#[derive(Default)]
struct RegistryInner {
    entries: Vec<Entry>,
    index: HashMap<MetricKey, usize>,
}

impl RegistryInner {
    /// Finds or inserts the entry for `key`, building the instrument with
    /// `make` on first registration.  Returns the entry index.
    fn register(&mut self, key: MetricKey, make: impl FnOnce() -> Instrument) -> usize {
        if let Some(&idx) = self.index.get(&key) {
            return idx;
        }
        let idx = self.entries.len();
        self.entries.push(Entry {
            key: key.clone(),
            instrument: make(),
        });
        self.index.insert(key, idx);
        idx
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter under `name` with `labels`.
    ///
    /// Registration is idempotent: the same name + label set always yields a
    /// handle onto the same underlying cell.  Registering a name that already
    /// exists with a different instrument type panics — metric families must
    /// be homogeneous.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut inner = lock(&self.inner);
        let idx = inner.register(key, || Instrument::Counter(Arc::new(AtomicU64::new(0))));
        match &inner.entries[idx].instrument {
            Instrument::Counter(cell) => Counter(Arc::clone(cell)),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers (or retrieves) a gauge under `name` with `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut inner = lock(&self.inner);
        let idx = inner.register(key, || Instrument::Gauge(Arc::new(AtomicU64::new(0))));
        match &inner.entries[idx].instrument {
            Instrument::Gauge(cell) => Gauge(Arc::clone(cell)),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers a callback gauge evaluated at snapshot time.  Useful for
    /// pulling counters owned by another subsystem without coupling it to
    /// this crate.  Re-registering the same key replaces the callback.
    pub fn gauge_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let key = MetricKey::new(name, labels);
        let mut inner = lock(&self.inner);
        let idx = inner.register(key, || Instrument::GaugeFn(Box::new(|| 0)));
        match &mut inner.entries[idx].instrument {
            Instrument::GaugeFn(slot) => *slot = Box::new(f),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers (or retrieves) a power-of-two histogram under `name`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut inner = lock(&self.inner);
        let idx = inner.register(key, || Instrument::Histogram(Arc::new(HistoCore::new())));
        match &inner.entries[idx].instrument {
            Instrument::Histogram(core) => Histogram(Arc::clone(core)),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Captures every registered metric, sorted by key for deterministic
    /// output.
    pub fn snapshot(&self) -> Snapshot {
        let inner = lock(&self.inner);
        let mut metrics: Vec<MetricSnapshot> = inner
            .entries
            .iter()
            .map(|entry| {
                let value = match &entry.instrument {
                    Instrument::Counter(cell) => MetricValue::Counter(cell.load(Ordering::Relaxed)),
                    Instrument::Gauge(cell) => MetricValue::Gauge(cell.load(Ordering::Relaxed)),
                    Instrument::GaugeFn(f) => MetricValue::Gauge(f()),
                    Instrument::Histogram(core) => MetricValue::Histogram {
                        buckets: std::array::from_fn(|i| core.buckets[i].load(Ordering::Relaxed)),
                        sum: core.sum.load(Ordering::Relaxed),
                    },
                };
                MetricSnapshot {
                    key: entry.key.clone(),
                    value,
                }
            })
            .collect();
        metrics.sort_by(|a, b| a.key.cmp(&b.key));
        Snapshot { metrics }
    }

    /// Zeroes every counter and histogram.  Gauges and callback gauges are
    /// left alone — they describe current state (open connections, cache
    /// occupancy), not accumulated traffic.
    pub fn reset(&self) {
        let inner = lock(&self.inner);
        for entry in &inner.entries {
            match &entry.instrument {
                Instrument::Counter(cell) => cell.store(0, Ordering::Relaxed),
                Instrument::Gauge(_) | Instrument::GaugeFn(_) => {}
                Instrument::Histogram(core) => {
                    for bucket in &core.buckets {
                        bucket.store(0, Ordering::Relaxed);
                    }
                    core.sum.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Renders the current state as Prometheus-style text.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Renders the current state as JSON.
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Maps a dotted metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots become underscores, anything else
/// outside the grammar is folded to `_`, and a leading digit gains a `_`
/// prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else if ok {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn prometheus_label_value(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn prometheus_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&prometheus_name(k));
        out.push('=');
        prometheus_label_value(out, v);
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        prometheus_label_value(out, v);
    }
    out.push('}');
}

/// Upper bound (exclusive power of two) such that at least fraction `q` of
/// the recorded samples fall below it; `None` when the histogram is empty or
/// the quantile lands in the unbounded last bucket.
pub fn quantile_upper_bound(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let threshold = (total as f64 * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= threshold.max(1) {
            if i == HISTOGRAM_BUCKETS - 1 {
                return None;
            }
            return Some(1u64 << i);
        }
    }
    None
}

impl Snapshot {
    /// The captured value of the metric `name` with exactly the label set
    /// `labels` (in any order); `None` when the snapshot holds no such
    /// metric.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let key = MetricKey::new(name, labels);
        self.metrics
            .iter()
            .find(|metric| metric.key == key)
            .map(|metric| &metric.value)
    }

    /// Renders as Prometheus-style text: one `# TYPE` line per family, then
    /// one sample line per labelled series.  Histograms expose cumulative
    /// `_bucket` lines (`le` = exclusive power-of-two upper bound), `_sum`,
    /// `_count`, and — when non-empty — synthetic `_p50`/`_p99`
    /// quantile-upper-bound gauge lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for metric in &self.metrics {
            let family = prometheus_name(&metric.key.name);
            match &metric.value {
                MetricValue::Counter(v) => {
                    if family != last_family {
                        let _ = writeln!(out, "# TYPE {family} counter");
                        last_family = family.clone();
                    }
                    out.push_str(&family);
                    prometheus_labels(&mut out, &metric.key.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Gauge(v) => {
                    if family != last_family {
                        let _ = writeln!(out, "# TYPE {family} gauge");
                        last_family = family.clone();
                    }
                    out.push_str(&family);
                    prometheus_labels(&mut out, &metric.key.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Histogram { buckets, sum } => {
                    if family != last_family {
                        let _ = writeln!(out, "# TYPE {family} histogram");
                        last_family = family.clone();
                    }
                    let mut cumulative = 0u64;
                    for (i, &count) in buckets.iter().enumerate() {
                        cumulative += count;
                        let le = if i == HISTOGRAM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            (1u64 << i).to_string()
                        };
                        let _ = write!(out, "{family}_bucket");
                        prometheus_labels(&mut out, &metric.key.labels, Some(("le", &le)));
                        let _ = writeln!(out, " {cumulative}");
                    }
                    let _ = write!(out, "{family}_sum");
                    prometheus_labels(&mut out, &metric.key.labels, None);
                    let _ = writeln!(out, " {sum}");
                    let _ = write!(out, "{family}_count");
                    prometheus_labels(&mut out, &metric.key.labels, None);
                    let _ = writeln!(out, " {cumulative}");
                    if cumulative > 0 {
                        for (suffix, q) in [("_p50", 0.5), ("_p99", 0.99)] {
                            // The last bucket is unbounded; fall back to the
                            // largest finite bound so the line stays nonzero.
                            let bound = quantile_upper_bound(buckets, q)
                                .unwrap_or(1u64 << (HISTOGRAM_BUCKETS - 1));
                            let _ = write!(out, "{family}{suffix}");
                            prometheus_labels(&mut out, &metric.key.labels, None);
                            let _ = writeln!(out, " {bound}");
                        }
                    }
                }
            }
        }
        out
    }

    /// Renders as JSON: `{"metrics":[{name, labels, type, ...}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::escape_into(&mut out, &metric.key.name);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in metric.key.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::escape_into(&mut out, k);
                out.push(':');
                json::escape_into(&mut out, v);
            }
            out.push('}');
            match &metric.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
                }
                MetricValue::Histogram { buckets, sum } => {
                    let _ = write!(out, ",\"type\":\"histogram\",\"sum\":{sum},\"buckets\":[");
                    for (j, b) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`] back into a
    /// snapshot (used by tooling that diffs two scrapes, and by the
    /// round-trip property tests).
    ///
    /// # Errors
    /// A message describing the first structural problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let root = doc.as_object().ok_or("root is not an object")?;
        let metrics_json = root
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("missing `metrics` array")?;
        let mut metrics = Vec::with_capacity(metrics_json.len());
        for item in metrics_json {
            let obj = item.as_object().ok_or("metric is not an object")?;
            let name = obj
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric missing `name`")?
                .to_string();
            let mut labels: Vec<(String, String)> = obj
                .get("labels")
                .and_then(JsonValue::as_object)
                .ok_or("metric missing `labels`")?
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or("label value is not a string")
                })
                .collect::<Result<_, _>>()?;
            labels.sort();
            let kind = obj
                .get("type")
                .and_then(JsonValue::as_str)
                .ok_or("metric missing `type`")?;
            let value = match kind {
                "counter" => MetricValue::Counter(
                    obj.get("value")
                        .and_then(JsonValue::as_u64)
                        .ok_or("counter missing `value`")?,
                ),
                "gauge" => MetricValue::Gauge(
                    obj.get("value")
                        .and_then(JsonValue::as_u64)
                        .ok_or("gauge missing `value`")?,
                ),
                "histogram" => {
                    let sum = obj
                        .get("sum")
                        .and_then(JsonValue::as_u64)
                        .ok_or("histogram missing `sum`")?;
                    let raw = obj
                        .get("buckets")
                        .and_then(JsonValue::as_array)
                        .ok_or("histogram missing `buckets`")?;
                    if raw.len() != HISTOGRAM_BUCKETS {
                        return Err(format!("histogram has {} buckets", raw.len()));
                    }
                    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                    for (slot, item) in buckets.iter_mut().zip(raw) {
                        *slot = item.as_u64().ok_or("bucket is not a number")?;
                    }
                    MetricValue::Histogram { buckets, sum }
                }
                other => return Err(format!("unknown metric type `{other}`")),
            };
            metrics.push(MetricSnapshot {
                key: MetricKey { name, labels },
                value,
            });
        }
        Ok(Snapshot { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let reg = Registry::new();
        let c = reg.counter("serve.accepted", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("serve.in_flight", &[]);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        // Idempotent registration returns the same cell.
        assert_eq!(reg.counter("serve.accepted", &[]).get(), 5);
    }

    #[test]
    fn histogram_matches_wire_bucket_law() {
        let h = Registry::new().histogram("serve.map.latency", &[]);
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1023); // bucket 10
        h.record(1 << 30); // clamped to last bucket
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[10], 1);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 6 + 1023 + (1 << 30));
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn get_matches_name_and_exact_label_set() {
        let reg = Registry::new();
        reg.counter("serve.served", &[("outcome", "ok")]).add(3);
        reg.counter("serve.served", &[("outcome", "err")]).add(1);
        reg.gauge("shard.open", &[("shard", "0"), ("kind", "tcp")])
            .set(2);
        reg.histogram("serve.map.latency", &[]).record(5);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("serve.served", &[("outcome", "ok")]),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            snap.get("serve.served", &[("outcome", "err")]),
            Some(&MetricValue::Counter(1))
        );
        // Label order does not matter; the label set must match exactly.
        assert_eq!(
            snap.get("shard.open", &[("kind", "tcp"), ("shard", "0")]),
            Some(&MetricValue::Gauge(2))
        );
        assert_eq!(snap.get("shard.open", &[("shard", "0")]), None);
        assert_eq!(snap.get("serve.served", &[]), None);
        assert_eq!(snap.get("serve.servd", &[("outcome", "ok")]), None);
        assert!(matches!(
            snap.get("serve.map.latency", &[]),
            Some(MetricValue::Histogram { sum: 5, .. })
        ));
        // A scrape parsed back from JSON answers the same lookups.
        let parsed = Snapshot::from_json(&snap.to_json()).expect("round-trip");
        assert_eq!(
            parsed.get("serve.served", &[("outcome", "ok")]),
            Some(&MetricValue::Counter(3))
        );
    }

    #[test]
    fn gauge_fn_evaluates_at_snapshot() {
        let reg = Registry::new();
        let cell = Arc::new(AtomicU64::new(7));
        let peek = Arc::clone(&cell);
        reg.gauge_fn("cache.entries", &[], move || peek.load(Ordering::Relaxed));
        let find = |snap: &Snapshot| match &snap
            .metrics
            .iter()
            .find(|m| m.key.name == "cache.entries")
            .expect("registered")
            .value
        {
            MetricValue::Gauge(v) => *v,
            other => panic!("unexpected value {other:?}"),
        };
        assert_eq!(find(&reg.snapshot()), 7);
        cell.store(11, Ordering::Relaxed);
        assert_eq!(find(&reg.snapshot()), 11);
    }

    #[test]
    fn reset_zeroes_counters_but_keeps_gauges() {
        let reg = Registry::new();
        let c = reg.counter("serve.accepted", &[]);
        let g = reg.gauge("serve.open", &[]);
        let h = reg.histogram("serve.lat", &[]);
        c.add(9);
        g.set(3);
        h.record(100);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 3);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn prometheus_text_has_expected_lines() {
        let reg = Registry::new();
        reg.counter("serve.served", &[("outcome", "ok")]).add(3);
        let h = reg.histogram("serve.queue.wait", &[]);
        h.record(5);
        h.record(9);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE serve_served counter"));
        assert!(text.contains("serve_served{outcome=\"ok\"} 3"));
        assert!(text.contains("# TYPE serve_queue_wait histogram"));
        assert!(text.contains("serve_queue_wait_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_queue_wait_sum 14"));
        assert!(text.contains("serve_queue_wait_count 2"));
        assert!(text.contains("serve_queue_wait_p99 16"));
    }

    #[test]
    fn empty_histogram_emits_no_quantiles() {
        let reg = Registry::new();
        reg.histogram("serve.queue.wait", &[]);
        let text = reg.render_prometheus();
        assert!(text.contains("serve_queue_wait_count 0"));
        assert!(!text.contains("_p99"));
    }

    #[test]
    fn json_roundtrips() {
        let reg = Registry::new();
        reg.counter("a.b", &[("k", "v with \"quotes\"")]).add(42);
        reg.gauge("c.d", &[]).set(7);
        reg.histogram("e.f", &[("shard", "0")]).record(100);
        let snap = reg.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).expect("round-trip");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn quantile_bounds_follow_distribution() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[3] = 99; // 99 samples < 8
        buckets[10] = 1; // 1 sample in [512, 1024)
        assert_eq!(quantile_upper_bound(&buckets, 0.5), Some(8));
        assert_eq!(quantile_upper_bound(&buckets, 0.999), Some(1 << 10));
        // q = 1.0 reports the bound of the highest occupied bucket.
        assert_eq!(quantile_upper_bound(&buckets, 1.0), Some(1 << 10));
        assert_eq!(quantile_upper_bound(&[0; HISTOGRAM_BUCKETS], 0.5), None);
        // A sample in the overflow bucket has no finite bound to report.
        buckets[HISTOGRAM_BUCKETS - 1] = 1;
        assert_eq!(quantile_upper_bound(&buckets, 1.0), None);
        assert_eq!(quantile_upper_bound(&buckets, 0.5), Some(8));
    }
}
