//! Lock-free metrics: named counters, gauges and log-scale latency
//! histograms behind a get-or-create [`Registry`].
//!
//! Registration (name → handle) takes a short `RwLock` critical section and
//! happens once per call site; every increment after that is a relaxed
//! atomic operation on a cheap-clone handle. Names follow the
//! `tv_<crate>_<name>` convention (see DESIGN.md §8); durations are exposed
//! in seconds, stored internally at microsecond resolution.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// Monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sum of the distinct cells exported under one counter name.
pub(crate) fn sum(cells: &[Counter]) -> u64 {
    cells.iter().map(Counter::get).sum()
}

/// Signed instantaneous value (pool sizes, queue depths, ...).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i` covers `(2^(i-1), 2^i]`
/// microseconds (bucket 0 covers `[0, 1]`µs); the last bucket is +Inf.
pub const HIST_BUCKETS: usize = 32;

#[derive(Default)]
struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    exemplars: crate::exemplar::ExemplarSlots,
}

/// Fixed-bucket log2-scale latency histogram. Observations are recorded in
/// microseconds; quantile extraction returns the upper bound of the bucket
/// holding the requested rank, so results are exact to within one power of
/// two — enough to tell a 2ms cache hit from a 200ms remote round trip.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a value in microseconds.
    pub fn bucket_index(micros: u64) -> usize {
        if micros <= 1 {
            0
        } else {
            (64 - (micros - 1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` in microseconds
    /// (`u64::MAX` for the overflow bucket).
    pub fn bucket_upper(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    pub fn observe(&self, d: Duration) {
        self.observe_micros(d.as_micros().min(u64::MAX as u128) as u64);
    }

    pub fn observe_micros(&self, micros: u64) {
        let inner = &*self.0;
        let bucket = Self::bucket_index(micros);
        inner.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_micros.fetch_add(micros, Ordering::Relaxed);
        // Exemplar capture: observations made inside a query trace stamp
        // their bucket with the trace id; untraced observations (startup,
        // tests, maintenance outside a trace) leave the slots empty.
        if let Some(trace_id) = crate::trace::active_trace_id() {
            inner.exemplars.record(bucket, trace_id, micros);
        }
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum_micros(&self) -> u64 {
        self.0.sum_micros.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile sample,
    /// or `None` when the histogram is empty. `q` is clamped to `[0, 1]`.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for i in 0..HIST_BUCKETS {
            cum += self.0.buckets[i].load(Ordering::Relaxed);
            if cum >= rank {
                return Some(Self::bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    /// Raw per-bucket counts (non-cumulative). Public so the federation
    /// layer can merge histograms bucket-wise — exact, because every
    /// histogram in the workspace shares the same log2 bucket edges.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.0.buckets[i].load(Ordering::Relaxed);
        }
        out
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_micros: self.sum_micros(),
            p50_micros: self.quantile_micros(0.50),
            p95_micros: self.quantile_micros(0.95),
            p99_micros: self.quantile_micros(0.99),
        }
    }

    /// The exemplar stamped on bucket `i`, if any traced observation
    /// landed there.
    pub fn exemplar(&self, i: usize) -> Option<crate::exemplar::Exemplar> {
        self.0.exemplars.get(i)
    }

    /// Exemplar for the bucket holding the `q`-quantile sample — the
    /// "show me a trace that *is* the p99" accessor.
    pub fn quantile_exemplar(&self, q: f64) -> Option<crate::exemplar::Exemplar> {
        let upper = self.quantile_micros(q)?;
        let bucket = if upper == u64::MAX {
            HIST_BUCKETS - 1
        } else {
            Self::bucket_index(upper)
        };
        self.exemplar(bucket)
    }
}

/// Point-in-time view of a histogram with pre-extracted quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_micros: u64,
    pub p50_micros: Option<u64>,
    pub p95_micros: Option<u64>,
    pub p99_micros: Option<u64>,
}

/// One metric's value in a [`Registry::snapshot`].
#[derive(Clone, Debug)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

#[derive(Clone)]
pub(crate) enum MetricEntry {
    /// Every cell exported under the name; its value is their sum.
    Counter(Vec<Counter>),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double-quote and newline must be escaped inside the quoted
/// value (the same rules HELP text follows, plus the quote).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Streaming writer for the Prometheus text format that understands
/// labels. Emits each family's `# HELP` / `# TYPE` header exactly once and
/// drops duplicate samples (same name + label set), which matters once
/// federation folds several per-node registries into one exposition.
pub struct TextEmitter {
    out: String,
    families: std::collections::HashSet<String>,
    seen: std::collections::HashSet<String>,
    /// Samples dropped because an identical series was already emitted.
    duplicates: usize,
}

impl Default for TextEmitter {
    fn default() -> Self {
        TextEmitter::new()
    }
}

impl TextEmitter {
    pub fn new() -> Self {
        TextEmitter {
            out: String::new(),
            families: std::collections::HashSet::new(),
            seen: std::collections::HashSet::new(),
            duplicates: 0,
        }
    }

    /// Emit the `# HELP` / `# TYPE` header for `family` once; repeat calls
    /// are no-ops so interleaved emitters can stay simple.
    pub fn family(&mut self, family: &str, kind: &str, help: &str) {
        if !self.families.insert(family.to_string()) {
            return;
        }
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.out, "# HELP {family} {help}");
        let _ = writeln!(self.out, "# TYPE {family} {kind}");
    }

    /// Emit one sample line. Label values are escaped here; `value` is
    /// pre-formatted by the caller (counters/gauges as integers, histogram
    /// series following [`Registry::render_text`]'s conventions). Returns
    /// `false` when the series (name + labels) was already written — the
    /// duplicate is suppressed rather than emitted twice.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) -> bool {
        let series = if labels.is_empty() {
            name.to_string()
        } else {
            let body: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                .collect();
            format!("{name}{{{}}}", body.join(","))
        };
        if !self.seen.insert(series.clone()) {
            self.duplicates += 1;
            return false;
        }
        let _ = writeln!(self.out, "{series} {value}");
        true
    }

    pub fn duplicates(&self) -> usize {
        self.duplicates
    }

    pub fn into_text(self) -> String {
        self.out
    }
}

/// Named metric registry. Cheap to clone (shared interior); get-or-create
/// lookups return handles whose increments never touch the registry lock.
///
/// Asking for an existing name with a different kind returns a fresh
/// *detached* handle rather than panicking: the caller's increments still
/// work, they just aren't exported. Keeps instrumentation from ever being
/// able to take the system down.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<RwLock<HashMap<String, MetricEntry>>>,
    help: Arc<RwLock<HashMap<String, String>>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Attach help text to a metric name, exposed as the `# HELP` line in
    /// [`Registry::render_text`]. Metrics never described get a generated
    /// default so every exposed family still carries a HELP line.
    pub fn describe(&self, name: &str, help: &str) {
        self.help.write().insert(name.to_string(), help.to_string());
    }

    /// Get-or-create: a handle whose increments `name` exports. When
    /// components registered cells under `name`, this is the first of them.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(MetricEntry::Counter(cells)) = self.metrics.read().get(name) {
            return cells[0].clone();
        }
        let mut map = self.metrics.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| MetricEntry::Counter(vec![Counter::new()]))
        {
            MetricEntry::Counter(cells) => cells[0].clone(),
            _ => Counter::new(),
        }
    }

    /// Export a cell its component already owns under `name`: the component
    /// keeps counting on its own handle, and [`Registry::snapshot`] reads
    /// that same atomic. Several components (one processor's pools) may
    /// register under one name; the name then exports the sum of their
    /// distinct cells. Registering a cell twice adds nothing, and a cell
    /// stays counted after its component is gone, so the sum never drops.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        let mut map = self.metrics.write();
        match map.get_mut(name) {
            Some(MetricEntry::Counter(cells)) => {
                if !cells.iter().any(|c| Arc::ptr_eq(&c.0, &counter.0)) {
                    cells.push(counter.clone());
                }
            }
            _ => {
                map.insert(
                    name.to_string(),
                    MetricEntry::Counter(vec![counter.clone()]),
                );
            }
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(MetricEntry::Gauge(g)) = self.metrics.read().get(name) {
            return g.clone();
        }
        let mut map = self.metrics.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| MetricEntry::Gauge(Gauge::new()))
        {
            MetricEntry::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(MetricEntry::Histogram(h)) = self.metrics.read().get(name) {
            return h.clone();
        }
        let mut map = self.metrics.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| MetricEntry::Histogram(Histogram::new()))
        {
            MetricEntry::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// Stable, sorted point-in-time view of every registered metric.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        self.metrics
            .read()
            .iter()
            .map(|(name, entry)| {
                let value = match entry {
                    MetricEntry::Counter(cells) => MetricValue::Counter(sum(cells)),
                    MetricEntry::Gauge(g) => MetricValue::Gauge(g.get()),
                    MetricEntry::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Sorted clone of the entry map — the federation layer walks this to
    /// merge several registries without holding any registry lock.
    pub(crate) fn entries(&self) -> BTreeMap<String, MetricEntry> {
        self.metrics
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Distinct trace ids currently referenced by any histogram exemplar
    /// slot in this registry. The flight recorder uses this as the pin
    /// set: a trace whose id is exported here must stay resolvable.
    pub fn exemplar_trace_ids(&self) -> std::collections::HashSet<u64> {
        let mut out = std::collections::HashSet::new();
        for entry in self.metrics.read().values() {
            if let MetricEntry::Histogram(h) = entry {
                h.0.exemplars.trace_ids(&mut out);
            }
        }
        out
    }

    /// HELP text for `name` (described, or the generated default), raw —
    /// escaping is the emitter's job.
    pub(crate) fn help_for(&self, name: &str) -> String {
        self.help
            .read()
            .get(name)
            .cloned()
            .unwrap_or_else(|| format!("tabviz metric {name}"))
    }

    /// Prometheus-style text exposition. Every family gets `# HELP` and
    /// `# TYPE` lines (help text set via [`Registry::describe`], or a
    /// generated default); histogram buckets and sums are in seconds,
    /// cumulative, with a final `+Inf` bucket. Label values (when a caller
    /// routes labeled series through the shared [`TextEmitter`]) are
    /// escaped and duplicate series dropped.
    pub fn render_text(&self) -> String {
        let mut emitter = TextEmitter::new();
        self.render_into(&mut emitter, &[]);
        emitter.into_text()
    }

    /// Render every metric into `emitter`, attaching `labels` to each
    /// sample. `render_text` calls this with no labels; federation calls
    /// it once per node with `[("node", name)]`.
    pub(crate) fn render_into(&self, emitter: &mut TextEmitter, labels: &[(&str, &str)]) {
        for (name, entry) in self.entries() {
            let help = self.help_for(&name);
            match entry {
                MetricEntry::Counter(cells) => {
                    emitter.family(&name, "counter", &help);
                    emitter.sample(&name, labels, &sum(&cells).to_string());
                }
                MetricEntry::Gauge(g) => {
                    emitter.family(&name, "gauge", &help);
                    emitter.sample(&name, labels, &g.get().to_string());
                }
                MetricEntry::Histogram(h) => {
                    emitter.family(&name, "histogram", &help);
                    emit_histogram_series(
                        emitter,
                        &name,
                        labels,
                        &h.bucket_counts(),
                        h.sum_micros(),
                        h.count(),
                        &|i| h.exemplar(i),
                    );
                }
            }
        }
    }
}

/// Shared histogram exposition: cumulative buckets in seconds (zero-count
/// buckets skipped for compactness, `+Inf` always closing the family),
/// then `_sum` / `_count`. Used by both [`Registry::render_text`] and the
/// federation's merged series so the two stay byte-compatible.
///
/// `exemplar_at` supplies the per-bucket exemplar (if any): an occupied
/// bucket's line gains an OpenMetrics-style ` # {trace_id="..."} <secs>`
/// suffix linking that latency band to a flight-recorder trace.
pub(crate) fn emit_histogram_series(
    emitter: &mut TextEmitter,
    name: &str,
    labels: &[(&str, &str)],
    counts: &[u64; HIST_BUCKETS],
    sum_micros: u64,
    count: u64,
    exemplar_at: &dyn Fn(usize) -> Option<crate::exemplar::Exemplar>,
) {
    let bucket_name = format!("{name}_bucket");
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        if *c == 0 && i < HIST_BUCKETS - 1 {
            continue; // keep the exposition compact
        }
        let le = if i >= HIST_BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            format!("{}", Histogram::bucket_upper(i) as f64 / 1e6)
        };
        let mut all_labels: Vec<(&str, &str)> = labels.to_vec();
        all_labels.push(("le", le.as_str()));
        let mut value = cum.to_string();
        if *c > 0 {
            if let Some(ex) = exemplar_at(i) {
                value.push_str(&ex.suffix());
            }
        }
        emitter.sample(&bucket_name, &all_labels, &value);
    }
    emitter.sample(
        &format!("{name}_sum"),
        labels,
        &format!("{}", sum_micros as f64 / 1e6),
    );
    emitter.sample(&format!("{name}_count"), labels, &count.to_string());
}
