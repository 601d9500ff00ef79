//! The metrics registry: atomic counters, gauges and histograms keyed by
//! dotted string names.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed and
//! cheap to clone; instrumented code fetches them once per phase (e.g. at
//! `HliQuery::new` or at scheduler entry) and then pays one atomic RMW per
//! event. The registry itself is only locked at handle-fetch and snapshot
//! time, never on the hot path.
//!
//! Key namespace (documented in DESIGN.md): `frontend.*` for ITEMGEN /
//! TBLCONST, `backend.*` for lowering, mapping, DDG (`backend.ddg.*`),
//! scheduling and the maintenance passes, `machine.*` for the executor and
//! the two timing models, and `hli.*` for the format itself (query calls,
//! serialization sizes, maintenance operations).

use crate::json::{escape_into, push_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucket histogram over `u64` observations.
///
/// Bucket `i` counts values whose bit length is `i` (bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2–3, ...), which is precise
/// enough for occupancy/pressure distributions at a fixed 65-slot cost.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistInner>);

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl Default for HistInner {
    fn default() -> Self {
        HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Record `n` observations of the value `v` at once: the same state
    /// as `n` calls of [`Histogram::observe`], and nothing when `n` is 0.
    pub fn observe_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let h = &self.0;
        h.count.fetch_add(n, Ordering::Relaxed);
        h.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistSnapshot {
        let h = &self.0;
        let mut buckets = Vec::new();
        for (i, b) in h.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                // Lower bound of the bucket: 0, 1, 2, 4, 8, ...
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                buckets.push((lo, n));
            }
        }
        HistSnapshot {
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `(bucket lower bound, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the lower bound of the power-of-two bucket
    /// holding the `q`-th observation (so `quantile(1.0)` can undershoot
    /// `max` by up to one bucket). 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lo, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lo;
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for &(lo, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&lo, |b| b.0) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (lo, n)),
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. One global instance exists for the
/// process; the harness additionally creates short-lived instances scoped
/// to a worker thread (see [`scoped`]).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch-or-create the counter named `key`.
    ///
    /// Panics if `key` is already registered as a different metric kind —
    /// keys are compile-time constants in the instrumented crates, so a
    /// mismatch is a bug, not an input condition.
    pub fn counter(&self, key: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(key.to_string()).or_insert_with(|| Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{key}` is not a counter"),
        }
    }

    /// Fetch-or-create the gauge named `key` (same kind rule as `counter`).
    pub fn gauge(&self, key: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(key.to_string()).or_insert_with(|| Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{key}` is not a gauge"),
        }
    }

    /// Fetch-or-create the histogram named `key` (same kind rule).
    pub fn histogram(&self, key: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(key.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{key}` is not a histogram"),
        }
    }

    /// Freeze current values into a snapshot (deterministic key order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (k, v) in m.iter() {
            match v {
                Metric::Counter(c) => {
                    snap.counters.insert(k.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(k.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(k.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Merge a snapshot into this registry: counters and histograms add,
    /// gauges take the snapshot's value. This is how worker-scoped
    /// registries fold into the global one.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (k, &v) in &snap.counters {
            self.counter(k).add(v);
        }
        for (k, &v) in &snap.gauges {
            self.gauge(k).set(v);
        }
        for (k, h) in &snap.histograms {
            let dst = self.histogram(k);
            // The bucket lower bound maps back to the same bucket index.
            for &(lo, n) in &h.buckets {
                dst.0.buckets[bucket_of(lo)].fetch_add(n, Ordering::Relaxed);
            }
            dst.0.count.fetch_add(h.count, Ordering::Relaxed);
            dst.0.sum.fetch_add(h.sum, Ordering::Relaxed);
            dst.0.max.fetch_max(h.max, Ordering::Relaxed);
        }
    }
}

/// Frozen values of a whole registry. `Clone + PartialEq` so reports can
/// carry and compare them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters under a dotted prefix (`backend.` matches
    /// `backend.ddg.tests` but not `backendx.y`).
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Merge another snapshot into this one (same rules as
    /// [`MetricsRegistry::absorb`]).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Human-readable table, one metric per line, keys sorted.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<44} {v:>14}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k:<44} {v:>14}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{k:<44} count={} mean={:.2} p50={} p95={} p99={} max={}",
                h.count,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            );
        }
        out
    }

    /// The JSON form the `--stats json` flags emit. Carries the artifact
    /// [`crate::SCHEMA_VERSION`] so differs can reject stale baselines.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema_version\": {},\n  \"counters\": {{",
            crate::SCHEMA_VERSION
        );
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape_into(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape_into(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            escape_into(&mut out, k);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": ",
                h.count, h.sum, h.max
            );
            push_f64(&mut out, h.mean());
            let _ = write!(
                out,
                ", \"p50\": {}, \"p95\": {}, \"p99\": {}",
                h.p50(),
                h.p95(),
                h.p99()
            );
            out.push_str(", \"buckets\": [");
            for (j, (lo, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{lo}, {n}]");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// The process-global registry.
pub fn global() -> Arc<MetricsRegistry> {
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())).clone()
}

thread_local! {
    static SCOPED: std::cell::RefCell<Vec<Arc<MetricsRegistry>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The registry instrumented code should write to: the innermost
/// thread-scoped registry if one is installed, else the global one.
pub fn cur() -> Arc<MetricsRegistry> {
    SCOPED.with(|s| s.borrow().last().cloned()).unwrap_or_else(global)
}

/// Install `reg` as this thread's current registry until the guard drops.
pub fn scoped(reg: Arc<MetricsRegistry>) -> ScopedRegistry {
    SCOPED.with(|s| s.borrow_mut().push(reg));
    ScopedRegistry { _priv: () }
}

/// RAII guard returned by [`scoped`].
pub struct ScopedRegistry {
    _priv: (),
}

impl Drop for ScopedRegistry {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = MetricsRegistry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        // Second fetch returns the same underlying cell.
        r.counter("a.b").inc();
        assert_eq!(r.counter("a.b").get(), 6);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.b"), 6);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = MetricsRegistry::new();
        let g = r.gauge("x");
        g.set(10);
        g.add(-3);
        assert_eq!(r.snapshot().gauges["x"], 7);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h");
        for v in [0, 1, 2, 3, 9, 1000] {
            h.observe(v);
        }
        let s = &r.snapshot().histograms["h"];
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1015);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 1015.0 / 6.0).abs() < 1e-9);
        // 0 → bucket 0; 1 → bucket lo=1; 2,3 → lo=2; 9 → lo=8; 1000 → lo=512.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (8, 1), (512, 1)]);
    }

    #[test]
    fn observe_n_equals_n_single_observes() {
        let (batched, single) = (MetricsRegistry::new(), MetricsRegistry::new());
        for (v, n) in [(0u64, 3u64), (7, 1), (31, 5), (1 << 40, 2), (9, 0)] {
            batched.histogram("h").observe_n(v, n);
            for _ in 0..n {
                single.histogram("h").observe(v);
            }
        }
        assert_eq!(batched.snapshot(), single.snapshot());
        // n = 0 leaves a fresh histogram untouched: no count, sum or max.
        let r = MetricsRegistry::new();
        r.histogram("z").observe_n(u64::MAX, 0);
        assert_eq!(r.snapshot().histograms["z"], HistSnapshot::default());
    }

    #[test]
    fn histogram_percentiles_from_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h");
        // 98 small values and 2 big ones: the tail only shows up past p95.
        for _ in 0..98 {
            h.observe(1);
        }
        h.observe(1000);
        h.observe(1500);
        let s = &r.snapshot().histograms["h"];
        assert_eq!(s.p50(), 1);
        assert_eq!(s.p95(), 1);
        assert_eq!(s.p99(), 512); // lower bound of the 512..1024 bucket
        assert_eq!(s.quantile(1.0), 1024);
        assert_eq!(HistSnapshot::default().p99(), 0);
        let text = r.snapshot().to_text();
        assert!(text.contains("p50=1 p95=1 p99=512"), "text was: {text}");
        let v = crate::json::parse(&r.snapshot().to_json()).unwrap();
        let hj = v.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(hj.get("p99").unwrap().as_num(), Some(512.0));
        assert_eq!(hj.get("p50").unwrap().as_num(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.gauge("k");
        r.counter("k");
    }

    #[test]
    fn absorb_adds_counters_and_merges_histograms() {
        let a = MetricsRegistry::new();
        a.counter("c").add(5);
        a.histogram("h").observe(4);
        let b = MetricsRegistry::new();
        b.counter("c").add(2);
        b.histogram("h").observe(100);
        a.absorb(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.counter("c"), 7);
        assert_eq!(s.histograms["h"].count, 2);
        assert_eq!(s.histograms["h"].sum, 104);
        assert_eq!(s.histograms["h"].max, 100);
    }

    #[test]
    fn snapshot_merge_matches_absorb() {
        let a = MetricsRegistry::new();
        a.counter("x").add(1);
        let b = MetricsRegistry::new();
        b.counter("x").add(2);
        b.counter("y").add(3);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter("x"), 3);
        assert_eq!(s.counter("y"), 3);
    }

    #[test]
    fn prefix_sum_respects_dotted_namespace() {
        let r = MetricsRegistry::new();
        r.counter("backend.ddg.tests").add(4);
        r.counter("backend.lower.insns").add(6);
        r.counter("machine.exec.loads").add(100);
        let s = r.snapshot();
        assert_eq!(s.counter_prefix_sum("backend."), 10);
        assert_eq!(s.counter_prefix_sum("machine."), 100);
    }

    #[test]
    fn scoped_registry_shadows_global_on_this_thread() {
        let local = Arc::new(MetricsRegistry::new());
        {
            let _g = scoped(local.clone());
            cur().counter("scoped.only").inc();
        }
        assert_eq!(local.snapshot().counter("scoped.only"), 1);
        assert_eq!(global().snapshot().counter("scoped.only"), 0);
        // Other threads are unaffected while a scope is active.
        let local2 = Arc::new(MetricsRegistry::new());
        let _g = scoped(local2.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                cur().counter("scoped.other_thread").inc();
            });
        });
        assert_eq!(local2.snapshot().counter("scoped.other_thread"), 0);
    }

    #[test]
    fn json_emission_parses_with_validator() {
        let r = MetricsRegistry::new();
        r.counter("a\"weird\\key").add(1);
        r.gauge("g").set(-5);
        r.histogram("h").observe(7);
        let text = r.snapshot().to_json();
        let v = crate::json::parse(&text).expect("emitted JSON must parse");
        assert_eq!(
            v.get("counters").unwrap().get("a\"weird\\key").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(v.get("gauges").unwrap().get("g").unwrap().as_num(), Some(-5.0));
        assert_eq!(
            v.get("histograms").unwrap().get("h").unwrap().get("count").unwrap().as_num(),
            Some(1.0)
        );
    }
}
