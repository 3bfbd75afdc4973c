//! `obs` — the suite's dependency-free self-observability layer.
//!
//! A process-wide telemetry registry of atomic counters, gauges and
//! fixed-bucket latency histograms, plus a bounded ring-buffer event /
//! slow-query log. The hot path is lock-free: instrumented code holds
//! cloned [`Counter`]/[`Gauge`]/[`Histogram`] handles (an `Arc` around
//! the atomic cells) and never touches the registry lock after
//! registration. Snapshots iterate `BTreeMap`s, so rendering order is
//! deterministic (suplint R2) and [`render_prometheus`] output is
//! byte-stable for a given set of observations.
//!
//! Metric naming scheme: `snake_case` with a layer prefix
//! (`pipeline_`, `tsdb_`, `serve_`, `warehouse_`), `_total` suffix for
//! counters, `_micros` for latency histograms. Label sets are encoded
//! into the registered name itself — `serve_requests_total{endpoint="v1_series"}`
//! — which keeps the registry a flat string map while still rendering
//! as real Prometheus labels.
//!
//! See DESIGN.md § "Self-observability" for the overhead budget and
//! the full metric catalogue.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Histogram bucket upper bounds: a 1-2-5 ladder from 1 µs to 1000 s.
/// Every histogram in the process shares this ladder, which is what
/// makes [`HistSnapshot::merge`] element-wise (and thus associative
/// and commutative) by construction.
pub const BUCKET_BOUNDS: [u64; 28] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
];

const NBUCKETS: usize = BUCKET_BOUNDS.len();

/// Recover from a poisoned lock instead of propagating the panic: the
/// protected state (telemetry cells, ring buffer) stays structurally
/// valid even if a holder panicked mid-update.
macro_rules! unpoison {
    ($guard:expr) => {
        $guard.unwrap_or_else(|e| e.into_inner())
    };
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Monotonically increasing event tally. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, open connections, bytes
/// resident). Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; NBUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Fixed-bucket latency histogram over [`BUCKET_BOUNDS`]. Values are
/// dimensionless `u64`s; by convention the suite records microseconds.
/// Cloning shares the cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        let idx = BUCKET_BOUNDS.partition_point(|b| *b < v);
        match self.cells.buckets.get(idx) {
            Some(b) => b.fetch_add(1, Ordering::Relaxed),
            None => self.cells.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record an elapsed [`Timer`] in microseconds.
    pub fn observe_timer(&self, t: Timer) {
        self.observe(t.elapsed_micros());
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.cells.buckets[i].load(Ordering::Relaxed)),
            overflow: self.cells.overflow.load(Ordering::Relaxed),
            count: self.cells.count.load(Ordering::Relaxed),
            sum: self.cells.sum.load(Ordering::Relaxed),
        }
    }
}

/// Wall-clock stopwatch for feeding histograms.
#[derive(Clone, Copy, Debug)]
pub struct Timer(Instant);

impl Timer {
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram. Per-bucket (non-cumulative)
/// counts; Prometheus rendering derives the cumulative form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; NBUCKETS],
    pub overflow: u64,
    pub count: u64,
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { buckets: [0; NBUCKETS], overflow: 0, count: 0, sum: 0 }
    }
}

impl HistSnapshot {
    /// Element-wise sum — the merge of two disjoint observation sets.
    /// Associative and commutative because every histogram shares
    /// [`BUCKET_BOUNDS`] and all fields add independently (wrapping on
    /// the astronomically unlikely overflow, so merge never panics).
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_add(other.buckets[i])),
            overflow: self.overflow.wrapping_add(other.overflow),
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

/// One entry in the bounded event / slow-query log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Process-wide monotonically increasing sequence number; survives
    /// ring-buffer eviction, so gaps reveal dropped events.
    pub seq: u64,
    /// Machine-readable category: `"slow_query"`, `"deprecation"`, …
    pub kind: String,
    /// Human-readable detail line.
    pub detail: String,
}

/// Point-in-time copy of the whole registry, in deterministic
/// (lexicographic) metric order.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Oldest-first surviving events.
    pub events: Vec<Event>,
    /// Events evicted from the ring buffer since process start.
    pub events_dropped: u64,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

// ---------------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------------

/// Bounded ring buffer of [`Event`]s. Push is O(1), never panics, and
/// evicts the oldest entry once `capacity` is reached (a capacity of 0
/// records nothing but still counts sequence numbers and drops).
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<VecDeque<Event>>,
}

impl EventLog {
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            capacity,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    pub fn push(&self, kind: &str, detail: impl Into<String>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ev = Event { seq, kind: to_owned_kind(kind), detail: detail.into() };
        let mut buf = unpoison!(self.buf.lock());
        while buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev);
    }

    /// Oldest-first copy of the surviving entries.
    pub fn entries(&self) -> Vec<Event> {
        unpoison!(self.buf.lock()).iter().cloned().collect()
    }

    /// The `n` most recent entries, oldest-first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let buf = unpoison!(self.buf.lock());
        let skip = buf.len().saturating_sub(n);
        buf.iter().skip(skip).cloned().collect()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        unpoison!(self.buf.lock()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn to_owned_kind(kind: &str) -> String {
    kind.to_string()
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Shared handle to a registry — what gets threaded through
/// `PipelineOptions` / `ServeOptions` / `Tsdb::open_with_obs`.
pub type ObsHandle = Arc<ObsRegistry>;

/// Process-wide telemetry registry. Registration takes a write lock
/// once per metric name; after that, instrumented code operates on the
/// returned handles without touching the registry again.
#[derive(Debug)]
pub struct ObsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    events: EventLog,
}

impl Default for ObsRegistry {
    fn default() -> Self {
        ObsRegistry::new()
    }
}

impl ObsRegistry {
    pub fn new() -> ObsRegistry {
        ObsRegistry::with_event_capacity(1024)
    }

    pub fn with_event_capacity(capacity: usize) -> ObsRegistry {
        ObsRegistry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            events: EventLog::new(capacity),
        }
    }

    /// Register (or look up) a counter. Idempotent: the same name
    /// always resolves to the same underlying cell.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = unpoison!(self.counters.read()).get(name) {
            return c.clone();
        }
        unpoison!(self.counters.write()).entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = unpoison!(self.gauges.read()).get(name) {
            return g.clone();
        }
        unpoison!(self.gauges.write()).entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = unpoison!(self.histograms.read()).get(name) {
            return h.clone();
        }
        unpoison!(self.histograms.write()).entry(name.to_string()).or_default().clone()
    }

    /// The event / slow-query ring buffer.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Append an event; convenience for `events().push(..)`.
    pub fn event(&self, kind: &str, detail: impl Into<String>) {
        self.events.push(kind, detail);
    }

    /// Deterministic point-in-time copy: metrics in lexicographic
    /// order, events oldest-first.
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            unpoison!(self.counters.read()).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let gauges =
            unpoison!(self.gauges.read()).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms = unpoison!(self.histograms.read())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            events: self.events.entries(),
            events_dropped: self.events.dropped(),
        }
    }
}

/// The process-wide default registry. Layers fall back to this when no
/// explicit [`ObsHandle`] is threaded in; tests that need isolation
/// construct their own `ObsRegistry` instead.
pub fn global() -> ObsHandle {
    static GLOBAL: OnceLock<ObsHandle> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(ObsRegistry::new())).clone()
}

// ---------------------------------------------------------------------------
// Prometheus text rendering
// ---------------------------------------------------------------------------

/// Split `name{labels}` into the base name and the brace-less label
/// body (if any).
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.strip_suffix('}').unwrap_or(rest))),
        None => (name, None),
    }
}

fn label_line(
    out: &mut String,
    base: &str,
    suffix: &str,
    labels: Option<&str>,
    extra: Option<&str>,
) {
    out.push_str(base);
    out.push_str(suffix);
    match (labels, extra) {
        (None, None) => {}
        (l, e) => {
            out.push('{');
            if let Some(l) = l {
                out.push_str(l);
                if e.is_some() {
                    out.push(',');
                }
            }
            if let Some(e) = e {
                out.push_str(e);
            }
            out.push('}');
        }
    }
    out.push(' ');
}

/// Render a [`Snapshot`] in the Prometheus text exposition format.
/// Output is byte-deterministic for a given snapshot: metric order is
/// the snapshot's (lexicographic) order and every number is an
/// integer. `# TYPE` headers are emitted once per base metric name.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_type: Option<String> = None;
    let mut type_header = |out: &mut String, base: &str, kind: &str| {
        if last_type.as_deref() != Some(base) {
            out.push_str("# TYPE ");
            out.push_str(base);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_type = Some(base.to_string());
        }
    };

    for (name, v) in &snap.counters {
        let (base, labels) = split_labels(name);
        type_header(&mut out, base, "counter");
        label_line(&mut out, base, "", labels, None);
        out.push_str(&v.to_string());
        out.push('\n');
    }
    for (name, v) in &snap.gauges {
        let (base, labels) = split_labels(name);
        type_header(&mut out, base, "gauge");
        label_line(&mut out, base, "", labels, None);
        out.push_str(&v.to_string());
        out.push('\n');
    }
    for (name, h) in &snap.histograms {
        let (base, labels) = split_labels(name);
        type_header(&mut out, base, "histogram");
        let mut cum = 0u64;
        for (i, b) in h.buckets.iter().enumerate() {
            cum = cum.wrapping_add(*b);
            let le = format!("le=\"{}\"", BUCKET_BOUNDS[i]);
            label_line(&mut out, base, "_bucket", labels, Some(&le));
            out.push_str(&cum.to_string());
            out.push('\n');
        }
        label_line(&mut out, base, "_bucket", labels, Some("le=\"+Inf\""));
        out.push_str(&h.count.to_string());
        out.push('\n');
        label_line(&mut out, base, "_sum", labels, None);
        out.push_str(&h.sum.to_string());
        out.push('\n');
        label_line(&mut out, base, "_count", labels, None);
        out.push_str(&h.count.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = ObsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x_total").get(), 3);
        assert_eq!(reg.snapshot().counter("x_total"), Some(3));
    }

    #[test]
    fn gauge_set_add_sub() {
        let reg = ObsRegistry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        assert_eq!(reg.snapshot().gauge("depth"), Some(12));
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::default();
        h.observe(0); // below first bound → bucket 0
        h.observe(1); // == bound 1 → bucket 0 (le semantics)
        h.observe(2); // bucket 1
        h.observe(1_000_000_000); // last bucket
        h.observe(1_000_000_001); // overflow
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[NBUCKETS - 1], 1);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2_000_000_004);
    }

    #[test]
    fn snapshot_order_is_lexicographic() {
        let reg = ObsRegistry::new();
        reg.counter("zeta_total").inc();
        reg.counter("alpha_total").inc();
        reg.counter("mid_total").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha_total", "mid_total", "zeta_total"]);
    }

    #[test]
    fn event_log_bounded_overflow() {
        let log = EventLog::new(3);
        for i in 0..10 {
            log.push("k", format!("e{i}"));
        }
        let got = log.entries();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].detail, "e7");
        assert_eq!(got[2].detail, "e9");
        assert_eq!(got[2].seq, 9);
        assert_eq!(log.dropped(), 7);
    }

    #[test]
    fn event_log_zero_capacity_never_stores() {
        let log = EventLog::new(0);
        log.push("k", "x");
        log.push("k", "y");
        assert!(log.entries().is_empty());
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn recent_returns_tail() {
        let log = EventLog::new(8);
        for i in 0..5 {
            log.push("k", format!("e{i}"));
        }
        let tail = log.recent(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].detail, "e3");
        assert_eq!(tail[1].detail, "e4");
    }

    #[test]
    fn merge_is_elementwise() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.observe(5);
        a.observe(100);
        b.observe(5);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 110);
        let both = Histogram::default();
        both.observe(5);
        both.observe(100);
        both.observe(5);
        assert_eq!(m, both.snapshot());
    }

    #[test]
    fn prometheus_render_golden() {
        let reg = ObsRegistry::new();
        reg.counter("req_total{endpoint=\"a\"}").add(2);
        reg.counter("req_total{endpoint=\"b\"}").inc();
        reg.gauge("conns").set(4);
        reg.histogram("lat_micros").observe(3);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.starts_with("# TYPE req_total counter\n"));
        assert!(text.contains("req_total{endpoint=\"a\"} 2\n"));
        assert!(text.contains("req_total{endpoint=\"b\"} 1\n"));
        // TYPE header emitted once for the shared base name.
        assert_eq!(text.matches("# TYPE req_total").count(), 1);
        assert!(text.contains("# TYPE conns gauge\nconns 4\n"));
        assert!(text.contains("lat_micros_bucket{le=\"5\"} 1\n"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_micros_sum 3\n"));
        assert!(text.contains("lat_micros_count 1\n"));
    }

    #[test]
    fn prometheus_render_histogram_labels_merge_with_le() {
        let reg = ObsRegistry::new();
        reg.histogram("lat_micros{endpoint=\"q\"}").observe(2);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("lat_micros_bucket{endpoint=\"q\",le=\"2\"} 1\n"));
        assert!(text.contains("lat_micros_sum{endpoint=\"q\"} 2\n"));
        assert!(text.contains("lat_micros_count{endpoint=\"q\"} 1\n"));
    }

    #[test]
    fn render_is_byte_deterministic() {
        let build = || {
            let reg = ObsRegistry::new();
            reg.counter("b_total").add(7);
            reg.counter("a_total").add(1);
            reg.histogram("h_micros").observe(42);
            reg.gauge("g").set(-3);
            render_prometheus(&reg.snapshot())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn concurrent_increments_all_land() {
        let reg = Arc::new(ObsRegistry::new());
        let mut joins = Vec::new();
        for _ in 0..8 {
            let c = reg.counter("c_total");
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for j in joins {
            let _ = j.join();
        }
        assert_eq!(reg.counter("c_total").get(), 8000);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global();
        a.counter("obs_selftest_total").inc();
        assert!(global().snapshot().counter("obs_selftest_total").is_some());
    }
}
