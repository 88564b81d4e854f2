//! The query flight recorder: a bounded store of recently completed
//! cross-thread traces plus automatic capture of slow queries.
//!
//! A [`RecordedTrace`] is the one per-query record: the paper's Sect. 3
//! pipeline stages (cache lookup → compile → pool acquire → remote
//! execution → local post-processing) as one timeline, with the terminal
//! [`ProfileOutcome`]; retry counts, injected-fault attribution and the
//! rendered timeline are read off its events.
//!
//! Recording happens once per query, after execution completes (the cold
//! path); the hot path — spans on executing threads — never touches the
//! recorder. Memory is bounded three ways: per-trace event caps
//! ([`crate::trace::TRACE_EVENT_CAPACITY`]), ring capacities for the
//! recent and slow stores, and an approximate total-bytes budget. Evicted
//! traces increment a counter; retained bytes are exported through the
//! `tv_obs_recorder_bytes` gauge.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::metrics::{Counter, Gauge, Registry};
use crate::span::SpanEvent;
use crate::stage;
use crate::trace::FinishedTrace;

/// How a query was ultimately answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfileOutcome {
    /// Served from a cache (intelligent or literal).
    Hit,
    /// Served by post-processing a widened query's remote result.
    Derived,
    /// Executed against the remote backend.
    Remote,
    /// Backend unavailable; a stale cached result was served.
    DegradedStale,
    /// The query returned an error.
    Failed,
}

impl fmt::Display for ProfileOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProfileOutcome::Hit => "hit",
            ProfileOutcome::Derived => "derived",
            ProfileOutcome::Remote => "remote",
            ProfileOutcome::DegradedStale => "degraded_stale",
            ProfileOutcome::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// An injected fault that fired during a query (see `FaultPlan`): `site`
/// names the injection site, `ordinal` is the seed-roll index — together
/// with the plan seed they reproduce the exact fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultTag {
    pub site: &'static str,
    pub ordinal: u64,
}

/// One completed query's flight record: identity, outcome, and the full
/// cross-thread event tree.
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    pub trace_id: u64,
    /// Enclosing trace (batch / maintenance pass), if any.
    pub parent_trace: Option<u64>,
    /// Canonical query text.
    pub query: String,
    /// Data source name.
    pub source: String,
    /// Query-class key for baseline fingerprint joins (see
    /// [`crate::analyze::ClassBaselines`]); empty when unclassified.
    pub class: String,
    pub outcome: ProfileOutcome,
    pub total: Duration,
    pub started: Instant,
    /// Entry-ordered, depth-annotated event tree (see
    /// [`crate::trace::FinishedTrace`]).
    pub events: Vec<SpanEvent>,
    /// Events lost to the per-trace buffer cap.
    pub dropped_events: u64,
}

impl RecordedTrace {
    /// Build a record from a finished trace plus query identity.
    pub fn from_finished(
        finished: FinishedTrace,
        query: impl Into<String>,
        source: impl Into<String>,
        outcome: ProfileOutcome,
    ) -> Self {
        RecordedTrace {
            trace_id: finished.trace_id,
            parent_trace: finished.parent_trace,
            query: query.into(),
            source: source.into(),
            class: String::new(),
            outcome,
            total: finished.total,
            started: finished.started,
            events: finished.events,
            dropped_events: finished.dropped,
        }
    }

    /// Attach the query-class key used for baseline fingerprint joins.
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = class.into();
        self
    }

    /// Approximate retained heap footprint, used for the bytes budget.
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.query.len()
            + self.source.len()
            + self.class.len()
            + self.events.capacity() * std::mem::size_of::<SpanEvent>()) as u64
    }

    /// All decision reason codes attributed to this query, in entry order.
    pub fn reasons(&self) -> Vec<&'static str> {
        self.events.iter().filter_map(|e| e.reason).collect()
    }

    /// First event for a stage, if any.
    pub fn stage(&self, name: &str) -> Option<&SpanEvent> {
        self.events.iter().find(|e| e.stage == name)
    }

    pub fn has_stage(&self, name: &str) -> bool {
        self.stage(name).is_some()
    }

    /// Sum of durations over all events with this stage name.
    pub fn stage_total(&self, name: &str) -> Duration {
        self.events
            .iter()
            .filter(|e| e.stage == name)
            .map(|e| e.dur)
            .sum()
    }

    /// Transient-failure retries spent by this query.
    pub fn retries(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.stage == stage::RETRY && e.label == Some("transient"))
            .count() as u64
    }

    /// Injected faults observed while this query ran (events of stage
    /// [`stage::FAULT_INJECTED`]: label = site, detail = seed-roll ordinal).
    pub fn faults(&self) -> Vec<FaultTag> {
        self.events
            .iter()
            .filter(|e| e.stage == stage::FAULT_INJECTED)
            .map(|e| FaultTag {
                site: e.label.unwrap_or("unknown"),
                ordinal: e.detail.unwrap_or(0),
            })
            .collect()
    }

    /// Human-readable timeline, one stage per line, indented by depth.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query [{}] {:?} retries={} :: {}",
            self.outcome,
            self.total,
            self.retries(),
            self.query
        );
        for e in &self.events {
            let _ = write!(
                out,
                "  {:>9.3}ms {}{}",
                e.start
                    .saturating_duration_since(self.started)
                    .as_secs_f64()
                    * 1e3,
                "  ".repeat(e.depth as usize),
                e.stage
            );
            if let Some(l) = e.label {
                let _ = write!(out, "/{l}");
            }
            if let Some(d) = e.detail {
                let _ = write!(out, " #{d}");
            }
            if let Some(r) = e.reason {
                let _ = write!(out, " [{r}]");
            }
            let _ = writeln!(out, " {:>9.3}ms", e.dur.as_secs_f64() * 1e3);
        }
        for f in self.faults() {
            let _ = writeln!(out, "  fault {}#{}", f.site, f.ordinal);
        }
        out
    }

    /// Distinct thread lanes that contributed events.
    pub fn lanes(&self) -> Vec<u64> {
        let mut lanes: Vec<u64> = self.events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }
}

/// Tunables for a [`FlightRecorder`].
#[derive(Clone, Copy, Debug)]
pub struct FlightRecorderConfig {
    /// Completed traces retained in the recent ring.
    pub recent_capacity: usize,
    /// Slow traces retained in the slow ring.
    pub slow_capacity: usize,
    /// Queries at or above this total duration are also captured in the
    /// slow ring (surviving recent-ring eviction).
    pub slow_threshold: Duration,
    /// Approximate total bytes budget across both rings; oldest recent
    /// traces are evicted first when exceeded.
    pub max_bytes: u64,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            recent_capacity: 64,
            slow_capacity: 32,
            slow_threshold: Duration::from_millis(500),
            max_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Bounded store of completed query traces; see the module docs.
pub struct FlightRecorder {
    cfg: FlightRecorderConfig,
    slow_threshold_micros: AtomicU64,
    recent: Mutex<VecDeque<Arc<RecordedTrace>>>,
    slow: Mutex<VecDeque<Arc<RecordedTrace>>>,
    /// Traces evicted from a ring while a histogram exemplar still exports
    /// their id (see [`Registry::exemplar_trace_ids`]): parked here so the
    /// exported id keeps resolving, released when the exemplar rotates out.
    pinned: Mutex<std::collections::HashMap<u64, Arc<RecordedTrace>>>,
    /// Registry whose exemplar slots define the pin set.
    pin_registry: Option<Registry>,
    bytes: AtomicU64,
    bytes_gauge: Gauge,
    pinned_gauge: Gauge,
    evictions: Counter,
}

impl FlightRecorder {
    pub fn new(cfg: FlightRecorderConfig) -> Self {
        let slow_micros = cfg.slow_threshold.as_micros().min(u64::MAX as u128) as u64;
        FlightRecorder {
            cfg,
            slow_threshold_micros: AtomicU64::new(slow_micros),
            recent: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
            pinned: Mutex::new(std::collections::HashMap::new()),
            pin_registry: None,
            bytes: AtomicU64::new(0),
            bytes_gauge: Gauge::new(),
            pinned_gauge: Gauge::new(),
            evictions: Counter::new(),
        }
    }

    /// [`FlightRecorder::new`] with the bytes / pinned gauges and the
    /// eviction counter registered on `registry` (`tv_obs_recorder_bytes`,
    /// `tv_obs_recorder_pinned`, `tv_obs_recorder_evictions_total`), and —
    /// the other direction of the same contract — `registry`'s histogram
    /// exemplar slots adopted as this recorder's pin set: a trace whose id
    /// those slots export survives ring eviction until the exemplar
    /// rotates out.
    pub fn with_registry(cfg: FlightRecorderConfig, registry: &Registry) -> Self {
        let mut rec = FlightRecorder::new(cfg);
        registry.describe(
            "tv_obs_recorder_bytes",
            "Approximate bytes retained by the query flight recorder",
        );
        registry.describe(
            "tv_obs_recorder_evictions_total",
            "Traces evicted from the flight recorder rings",
        );
        registry.describe(
            "tv_obs_recorder_pinned",
            "Evicted traces kept alive because a histogram exemplar still references them",
        );
        rec.bytes_gauge = registry.gauge("tv_obs_recorder_bytes");
        rec.evictions = registry.counter("tv_obs_recorder_evictions_total");
        rec.pinned_gauge = registry.gauge("tv_obs_recorder_pinned");
        rec.pin_registry = Some(registry.clone());
        rec
    }

    pub fn set_slow_threshold(&self, t: Duration) {
        self.slow_threshold_micros.store(
            t.as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    pub fn slow_threshold(&self) -> Duration {
        Duration::from_micros(self.slow_threshold_micros.load(Ordering::Relaxed))
    }

    /// The current pin set: trace ids a registry exemplar slot exports.
    fn pin_set(&self) -> std::collections::HashSet<u64> {
        self.pin_registry
            .as_ref()
            .map(|r| r.exemplar_trace_ids())
            .unwrap_or_default()
    }

    /// Store a completed trace (no-op when the trace captured nothing).
    /// Cold path: called once per query after execution.
    pub fn record(&self, trace: RecordedTrace) {
        if trace.trace_id == 0 {
            return;
        }
        // A ring-evicted trace still referenced by an exemplar is parked
        // (bytes stay held, id stays resolvable) instead of dropped.
        fn park_or_free(
            pins: &std::collections::HashSet<u64>,
            pinned: &mut std::collections::HashMap<u64, Arc<RecordedTrace>>,
            freed: &mut u64,
            old: Arc<RecordedTrace>,
        ) {
            let b = old.approx_bytes();
            if pins.contains(&old.trace_id) {
                // A second ring's copy of an already-parked trace frees
                // its share; the park holds exactly one copy's bytes.
                if pinned.insert(old.trace_id, old).is_some() {
                    *freed += b;
                }
            } else {
                *freed += b;
            }
        }
        let is_slow = trace.total >= self.slow_threshold();
        let bytes = trace.approx_bytes();
        let trace = Arc::new(trace);
        let pins = self.pin_set();
        let mut freed = 0u64;
        let mut pinned = self.pinned.lock();
        // Exemplar rotation: a parked trace whose id left every exemplar
        // slot is no longer reachable from any exposition — release it.
        pinned.retain(|id, t| {
            if pins.contains(id) {
                true
            } else {
                freed += t.approx_bytes();
                false
            }
        });
        {
            let mut recent = self.recent.lock();
            recent.push_back(trace.clone());
            while recent.len() > self.cfg.recent_capacity {
                if let Some(old) = recent.pop_front() {
                    self.evictions.inc();
                    park_or_free(&pins, &mut pinned, &mut freed, old);
                }
            }
            // Bytes budget: evict oldest recent traces first.
            let mut held = (self.bytes.load(Ordering::Relaxed) + bytes).saturating_sub(freed);
            while held > self.cfg.max_bytes && recent.len() > 1 {
                if let Some(old) = recent.pop_front() {
                    let b = old.approx_bytes();
                    self.evictions.inc();
                    let before = freed;
                    park_or_free(&pins, &mut pinned, &mut freed, old);
                    held -= (freed - before).min(held).min(b);
                }
            }
        }
        let mut slow_bytes = 0u64;
        if is_slow {
            let mut slow = self.slow.lock();
            slow.push_back(trace);
            slow_bytes += bytes;
            while slow.len() > self.cfg.slow_capacity {
                if let Some(old) = slow.pop_front() {
                    self.evictions.inc();
                    park_or_free(&pins, &mut pinned, &mut freed, old);
                }
            }
        }
        self.pinned_gauge.set(pinned.len() as i64);
        drop(pinned);
        let added = bytes + slow_bytes;
        let prev = self.bytes.load(Ordering::Relaxed);
        let next = (prev + added).saturating_sub(freed);
        self.bytes.store(next, Ordering::Relaxed);
        self.bytes_gauge.set(next.min(i64::MAX as u64) as i64);
    }

    /// Retained traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<RecordedTrace>> {
        self.recent.lock().iter().cloned().collect()
    }

    /// Auto-captured slow traces, oldest first.
    pub fn slow(&self) -> Vec<Arc<RecordedTrace>> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Look a trace up by id (slow ring first — it outlives the recent
    /// ring; the exemplar-pinned park outlives both).
    pub fn get(&self, trace_id: u64) -> Option<Arc<RecordedTrace>> {
        if let Some(t) = self
            .slow
            .lock()
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
        {
            return Some(t);
        }
        if let Some(t) = self
            .recent
            .lock()
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
        {
            return Some(t);
        }
        self.pinned.lock().get(&trace_id).cloned()
    }

    /// Most recently recorded trace.
    pub fn last(&self) -> Option<Arc<RecordedTrace>> {
        self.recent.lock().back().cloned()
    }

    /// Most recent retained trace whose `parent_trace` links to
    /// `trace_id` — e.g. the node-side child of a cluster trace.
    pub fn get_child_of(&self, trace_id: u64) -> Option<Arc<RecordedTrace>> {
        if let Some(t) = self
            .slow
            .lock()
            .iter()
            .rev()
            .find(|t| t.parent_trace == Some(trace_id))
            .cloned()
        {
            return Some(t);
        }
        if let Some(t) = self
            .recent
            .lock()
            .iter()
            .rev()
            .find(|t| t.parent_trace == Some(trace_id))
            .cloned()
        {
            return Some(t);
        }
        self.pinned
            .lock()
            .values()
            .find(|t| t.parent_trace == Some(trace_id))
            .cloned()
    }

    /// The `k` slowest retained traces (both rings, deduplicated), slowest
    /// first.
    pub fn slowest(&self, k: usize) -> Vec<Arc<RecordedTrace>> {
        let mut all: Vec<Arc<RecordedTrace>> = self.recent.lock().iter().cloned().collect();
        all.extend(self.slow.lock().iter().cloned());
        all.sort_by(|a, b| b.total.cmp(&a.total).then(a.trace_id.cmp(&b.trace_id)));
        all.dedup_by_key(|t| t.trace_id);
        all.truncate(k);
        all
    }

    pub fn len(&self) -> usize {
        self.recent.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.recent.lock().is_empty()
    }

    /// Approximate retained bytes across both rings.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Traces evicted from either ring since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Evicted-but-exemplar-referenced traces currently parked.
    pub fn pinned_count(&self) -> usize {
        self.pinned.lock().len()
    }

    pub fn clear(&self) {
        self.recent.lock().clear();
        self.slow.lock().clear();
        self.pinned.lock().clear();
        self.pinned_gauge.set(0);
        self.bytes.store(0, Ordering::Relaxed);
        self.bytes_gauge.set(0);
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightRecorderConfig::default())
    }
}

/// One processor's observability surface: a metrics [`Registry`] and the
/// query [`FlightRecorder`]. Deliberately per-instance rather than global
/// so concurrent processors (and tests) never pollute each other.
pub struct Obs {
    pub registry: Registry,
    pub recorder: FlightRecorder,
    /// Streaming per-query-class latency fingerprints; the root-cause
    /// analyzer diffs a slow trace against its class baseline.
    pub baselines: crate::analyze::ClassBaselines,
}

impl Default for Obs {
    fn default() -> Self {
        let registry = Registry::new();
        let recorder = FlightRecorder::with_registry(FlightRecorderConfig::default(), &registry);
        Obs {
            registry,
            recorder,
            baselines: crate::analyze::ClassBaselines::new(),
        }
    }
}

impl Obs {
    pub fn new() -> Self {
        Obs::default()
    }
}
