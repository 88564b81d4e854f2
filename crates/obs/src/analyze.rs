//! Tail-latency root-cause analysis: turn a recorded trace into an answer
//! to "why was *this* query slow?".
//!
//! Three cooperating pieces:
//!
//! - [`critical_path`]: walk the cross-lane span tree of a finished trace
//!   (morsel workers, batch zones, sched queue, pool acquire, cache
//!   probes, backend round trip) and extract the self-time-attributed
//!   critical path — at each node, descend into the longest child; the
//!   time a node holds *beyond* its children is its self time.
//! - [`ClassBaselines`] / [`Fingerprint`]: streaming per-query-class
//!   baselines of stage *share* (fraction of wall time per pipeline
//!   stage), so an outlier diffs against its own class's normal shape
//!   rather than a global average.
//! - [`diagnose`]: classify a tail outlier with a structured [`Verdict`]
//!   (`queue_wait`, `backend_slow`, `cache_miss_storm`, ...) using the
//!   existing span reason codes as hard evidence and the fingerprint
//!   deviation as the tiebreaker.
//!
//! The analysis pass is entirely off the hot path: it reads completed
//! [`RecordedTrace`]s from the flight recorder. The only hot-path touch is
//! the per-query baseline update (a handful of duration sums and a mutex'd
//! map update), gated by [`set_enabled`] so the e25 drill can measure its
//! overhead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::recorder::RecordedTrace;
use crate::span::SpanEvent;
use crate::{reason, stage};

/// Global analysis gate. When off, [`ClassBaselines::observe`] is a no-op —
/// the e25 drill flips this to measure the warm-path overhead of the
/// baseline-maintenance pass.
static ENABLED: AtomicBool = AtomicBool::new(true);

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Structured slow-query verdicts, ordered roughly by how actionable they
/// are for an operator. Each maps to the subsystem that owns the fix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Time went to the admission controller's queue: concurrency limit,
    /// not execution, is the bottleneck.
    QueueWait,
    /// Time went to waiting for a pooled backend connection.
    PoolAcquire,
    /// The pool circuit breaker fast-failed the query.
    BreakerFastfail,
    /// The backend round trip itself dominated, and going remote is normal
    /// for this class: the backend (or network) is slow.
    BackendSlow,
    /// The query went remote *because* the cache missed, in a class that
    /// normally serves from cache — an invalidation/purge storm signature.
    CacheMissStorm,
    /// Served via the shared L2 tier (miss in L1, hit + promote in L2):
    /// slower than L1 but far cheaper than the backend.
    L2MissPromote,
    /// The local scan did far less block pruning than usual for a scan of
    /// this shape — zone maps stopped helping.
    PruneRegression,
    /// A stale-while-revalidate serve was slow: contention with the
    /// background revalidation lane.
    SwrRevalidateContention,
    /// No dominant signal; the trace is slow but evenly so.
    Unclassified,
}

impl Verdict {
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::QueueWait => "queue_wait",
            Verdict::PoolAcquire => "pool_acquire",
            Verdict::BreakerFastfail => "breaker_fastfail",
            Verdict::BackendSlow => "backend_slow",
            Verdict::CacheMissStorm => "cache_miss_storm",
            Verdict::L2MissPromote => "l2_miss_promote",
            Verdict::PruneRegression => "prune_regression",
            Verdict::SwrRevalidateContention => "swr_revalidate_contention",
            Verdict::Unclassified => "unclassified",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One step of a critical path.
#[derive(Clone, Debug)]
pub struct PathStep {
    pub span_id: u64,
    pub stage: &'static str,
    pub label: Option<&'static str>,
    pub reason: Option<&'static str>,
    /// Duration clamped so a child never outlasts its parent on the path
    /// (cross-thread clock skew cannot inflate the attribution).
    pub dur: Duration,
    /// Time this step holds beyond the sum of its children: the step's own
    /// contribution to end-to-end latency.
    pub self_time: Duration,
    pub lane: u64,
}

/// The self-time-attributed critical path of one trace, root to leaf.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    pub steps: Vec<PathStep>,
    /// Trace wall time the attribution is normalized against.
    pub total: Duration,
    /// Sum of self times along the path; always ≤ `total`.
    pub attributed: Duration,
}

impl CriticalPath {
    /// The step holding the most self time (excluding the synthetic root
    /// when any real stage carries time).
    pub fn dominant(&self) -> Option<&PathStep> {
        let non_root = self
            .steps
            .iter()
            .skip(1)
            .max_by_key(|s| (s.self_time, std::cmp::Reverse(s.span_id)));
        non_root.or_else(|| self.steps.first())
    }

    /// One-line rendering: `query 12ms > remote_exec 11ms (self 10.5ms)`.
    pub fn render(&self) -> String {
        let mut parts = Vec::with_capacity(self.steps.len());
        for s in &self.steps {
            let label = s.label.map(|l| format!(":{l}")).unwrap_or_default();
            parts.push(format!(
                "{}{label} {:.2}ms(self {:.2})",
                s.stage,
                s.dur.as_secs_f64() * 1e3,
                s.self_time.as_secs_f64() * 1e3
            ));
        }
        parts.join(" > ")
    }
}

/// Extract the critical path from an entry-ordered span tree (see
/// [`crate::trace::FinishedTrace`]). The walk starts at the root (the
/// synthetic `query` span — smallest span id with no parent), descends
/// into the longest child at every level (ties broken by smallest span id,
/// so the path is deterministic), and attributes to each step the time it
/// holds beyond its children. Durations are clamped top-down, so the
/// attributed total never exceeds the trace wall time even when parallel
/// lanes overlap or clocks skew.
pub fn critical_path(events: &[SpanEvent], total: Duration) -> CriticalPath {
    let mut by_id: HashMap<u64, &SpanEvent> = HashMap::with_capacity(events.len());
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for e in events {
        by_id.entry(e.span_id).or_insert(e);
        if let Some(p) = e.parent {
            children.entry(p).or_default().push(e.span_id);
        }
    }
    let root = events
        .iter()
        .filter(|e| e.parent.is_none())
        .map(|e| e.span_id)
        .min();
    let Some(mut cur) = root else {
        return CriticalPath {
            total,
            ..CriticalPath::default()
        };
    };
    let mut steps = Vec::new();
    let mut attributed = Duration::ZERO;
    let mut visited = std::collections::HashSet::new();
    // Effective duration budget for the current node: the root's is the
    // trace wall time; each descent clamps to the parent's budget.
    let mut budget = total;
    loop {
        if !visited.insert(cur) {
            break; // malformed parent links (cycle): stop rather than spin
        }
        let ev = by_id[&cur];
        let eff = if steps.is_empty() {
            total
        } else {
            ev.dur.min(budget)
        };
        let kids = children.get(&cur);
        let kid_sum: Duration = kids
            .map(|k| k.iter().map(|id| by_id[id].dur.min(eff)).sum())
            .unwrap_or(Duration::ZERO);
        let self_time = eff.saturating_sub(kid_sum);
        steps.push(PathStep {
            span_id: ev.span_id,
            stage: ev.stage,
            label: ev.label,
            reason: ev.reason,
            dur: eff,
            self_time,
            lane: ev.lane,
        });
        attributed += self_time;
        let next = kids.and_then(|k| {
            k.iter()
                .copied()
                .filter(|id| *id != cur)
                .min_by_key(|id| (std::cmp::Reverse(by_id[id].dur), *id))
        });
        match next {
            Some(n) => {
                budget = by_id[&n].dur.min(eff);
                cur = n;
            }
            None => break,
        }
    }
    CriticalPath {
        steps,
        total,
        attributed,
    }
}

/// The pipeline stages whose wall-time share forms a class fingerprint.
/// Order is the index order of [`Fingerprint::shares`].
pub const FINGERPRINT_STAGES: [&str; 8] = [
    stage::SCHED_QUEUE,
    stage::POOL_ACQUIRE,
    stage::REMOTE_EXEC,
    stage::TDE_EXEC,
    stage::CACHE_LOOKUP,
    stage::CACHE_TIER,
    stage::POST_PROCESS,
    stage::CACHE_STORE,
];

/// Per-stage share of wall time for one trace's events: `Σ dur(stage) /
/// total`, clamped to `[0, 1]` per stage (overlapping lanes can sum past
/// the wall clock; share is a shape signal, not an exact decomposition).
pub fn stage_shares(events: &[SpanEvent], total: Duration) -> [f64; FINGERPRINT_STAGES.len()] {
    let mut out = [0.0; FINGERPRINT_STAGES.len()];
    let denom = total.as_secs_f64().max(1e-9);
    for (i, name) in FINGERPRINT_STAGES.iter().enumerate() {
        let sum: Duration = events
            .iter()
            .filter(|e| e.stage == *name)
            .map(|e| e.dur)
            .sum();
        out[i] = (sum.as_secs_f64() / denom).clamp(0.0, 1.0);
    }
    out
}

/// Streaming mean of one class's latency shape.
#[derive(Clone, Debug, Default)]
pub struct Fingerprint {
    /// Mean stage shares, indexed like [`FINGERPRINT_STAGES`].
    pub shares: [f64; FINGERPRINT_STAGES.len()],
    pub samples: u64,
    pub mean_total_micros: f64,
}

impl Fingerprint {
    fn absorb(&mut self, shares: &[f64; FINGERPRINT_STAGES.len()], total: Duration) {
        self.samples += 1;
        let n = self.samples as f64;
        for (mean, x) in self.shares.iter_mut().zip(shares.iter()) {
            *mean += (x - *mean) / n;
        }
        self.mean_total_micros += (total.as_micros() as f64 - self.mean_total_micros) / n;
    }

    /// Mean share of the named stage, 0.0 if untracked.
    pub fn share(&self, stage_name: &str) -> f64 {
        FINGERPRINT_STAGES
            .iter()
            .position(|s| *s == stage_name)
            .map(|i| self.shares[i])
            .unwrap_or(0.0)
    }
}

/// Streaming per-class latency fingerprints. A "class" is a query-shape
/// key (source + grouping + aggregate shape — the dashboard zone, in
/// paper terms), so an outlier diffs against queries that *should* look
/// like it.
#[derive(Default)]
pub struct ClassBaselines {
    classes: Mutex<HashMap<String, Fingerprint>>,
}

impl ClassBaselines {
    pub fn new() -> Self {
        ClassBaselines::default()
    }

    /// Fold one completed query into its class baseline. No-op while the
    /// global analysis gate ([`set_enabled`]) is off.
    pub fn observe(&self, class: &str, events: &[SpanEvent], total: Duration) {
        if !enabled() || total.is_zero() {
            return;
        }
        let shares = stage_shares(events, total);
        let mut classes = self.classes.lock();
        let fp = classes.entry(class.to_string()).or_default();
        fp.absorb(&shares, total);
    }

    pub fn get(&self, class: &str) -> Option<Fingerprint> {
        self.classes.lock().get(class).cloned()
    }

    pub fn len(&self) -> usize {
        self.classes.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.lock().is_empty()
    }
}

/// A classified tail outlier: the verdict plus the evidence trail that
/// produced it.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    pub verdict: Verdict,
    /// The stage the verdict pins the time on.
    pub culprit_stage: &'static str,
    /// That stage's share of this trace's wall time.
    pub share: f64,
    /// The class baseline's share for the same stage (0 when no baseline).
    pub baseline_share: f64,
    /// Reason codes that served as evidence.
    pub evidence: Vec<&'static str>,
    pub path: CriticalPath,
}

impl Diagnosis {
    /// One-line operator rendering for the slow-query log.
    pub fn render(&self) -> String {
        let ev = if self.evidence.is_empty() {
            String::new()
        } else {
            format!(" evidence={}", self.evidence.join(","))
        };
        format!(
            "verdict={} stage={} share={:.2} baseline={:.2}{ev} path: {}",
            self.verdict,
            self.culprit_stage,
            self.share,
            self.baseline_share,
            self.path.render()
        )
    }
}

/// Share of scanned blocks the zone maps pruned for this trace, from the
/// `scan_prune` counters the TDE emits — `None` when the trace did not
/// reach a local scan.
fn prune_skip_fraction(trace: &RecordedTrace) -> Option<(u64, u64)> {
    let mut skipped = 0u64;
    let mut total = 0u64;
    let mut saw = false;
    for e in &trace.events {
        if e.stage != stage::SCAN_PRUNE {
            continue;
        }
        match e.label {
            Some("blocks_skipped") => {
                skipped += e.detail.unwrap_or(0);
                saw = true;
            }
            Some("blocks_total") => {
                total += e.detail.unwrap_or(0);
                saw = true;
            }
            _ => {}
        }
    }
    saw.then_some((skipped, total))
}

/// Classify a slow trace. Hard evidence (breaker trips, pool timeouts)
/// wins outright; otherwise the stage with the largest share *deviation*
/// from the class baseline (or raw share when the class is unseen) names
/// the culprit, and reason codes refine the verdict within that stage.
pub fn diagnose(trace: &RecordedTrace, baseline: Option<&Fingerprint>) -> Diagnosis {
    let reasons = trace.reasons();
    let has = |r: &str| reasons.contains(&r);
    let path = critical_path(&trace.events, trace.total);
    let shares = stage_shares(&trace.events, trace.total);
    let baseline_shares: [f64; FINGERPRINT_STAGES.len()] =
        baseline.map(|f| f.shares).unwrap_or_default();
    let mk = |verdict: Verdict, culprit: &'static str, evidence: Vec<&'static str>| {
        let idx = FINGERPRINT_STAGES.iter().position(|s| *s == culprit);
        Diagnosis {
            verdict,
            culprit_stage: culprit,
            share: idx.map(|i| shares[i]).unwrap_or(0.0),
            baseline_share: idx.map(|i| baseline_shares[i]).unwrap_or(0.0),
            evidence,
            path: path.clone(),
        }
    };

    // Hard evidence: terminal pool verdicts short-circuit everything else.
    if has(reason::POOL_BREAKER_OPEN) {
        return mk(
            Verdict::BreakerFastfail,
            stage::POOL_ACQUIRE,
            vec![reason::POOL_BREAKER_OPEN],
        );
    }
    if has(reason::POOL_TIMEOUT) {
        return mk(
            Verdict::PoolAcquire,
            stage::POOL_ACQUIRE,
            vec![reason::POOL_TIMEOUT],
        );
    }

    // Rank tracked stages by deviation from the class baseline.
    let mut ranked: Vec<(usize, f64)> = shares
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s - baseline_shares[i]))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let cache_miss = reasons
        .iter()
        .copied()
        .find(|r| r.starts_with("cache_miss_"));
    let l2 = has(reason::CACHE_L2_PROMOTE) || has(reason::CACHE_L2_HIT);
    let swr = has(reason::CACHE_SWR_SERVE);

    for (i, dev) in ranked {
        // A culprit stage must actually hold meaningful time.
        if shares[i] < 0.10 || (dev <= 0.0 && baseline.is_some() && shares[i] < 0.25) {
            continue;
        }
        match FINGERPRINT_STAGES[i] {
            s if s == stage::SCHED_QUEUE => {
                let mut ev = vec![];
                if has(reason::SCHED_QUEUED) {
                    ev.push(reason::SCHED_QUEUED);
                }
                return mk(Verdict::QueueWait, stage::SCHED_QUEUE, ev);
            }
            s if s == stage::POOL_ACQUIRE => {
                return mk(Verdict::PoolAcquire, stage::POOL_ACQUIRE, vec![]);
            }
            s if s == stage::REMOTE_EXEC => {
                // Going remote on a miss is only news when this class
                // normally serves from cache.
                let base_remote = baseline.map(|f| f.share(stage::REMOTE_EXEC)).unwrap_or(1.0);
                if let Some(miss) = cache_miss {
                    if base_remote < 0.15 {
                        return mk(Verdict::CacheMissStorm, stage::REMOTE_EXEC, vec![miss]);
                    }
                }
                return mk(
                    Verdict::BackendSlow,
                    stage::REMOTE_EXEC,
                    cache_miss.into_iter().collect(),
                );
            }
            s if s == stage::TDE_EXEC => {
                if let Some((skipped, total)) = prune_skip_fraction(trace) {
                    if total >= 4 && (skipped as f64) < 0.25 * total as f64 {
                        return mk(Verdict::PruneRegression, stage::TDE_EXEC, vec![]);
                    }
                }
                // Local compute dominated with no structural cause on
                // file: keep scanning lower-ranked stages for a signal.
                continue;
            }
            s if s == stage::CACHE_LOOKUP || s == stage::CACHE_TIER => {
                if l2 {
                    return mk(
                        Verdict::L2MissPromote,
                        FINGERPRINT_STAGES[i],
                        vec![reason::CACHE_L2_HIT],
                    );
                }
                if swr {
                    return mk(
                        Verdict::SwrRevalidateContention,
                        FINGERPRINT_STAGES[i],
                        vec![reason::CACHE_SWR_SERVE],
                    );
                }
                continue;
            }
            _ => continue,
        }
    }

    // No stage stood out; fall back to reason-only signals.
    if swr {
        return mk(
            Verdict::SwrRevalidateContention,
            stage::CACHE_LOOKUP,
            vec![reason::CACHE_SWR_SERVE],
        );
    }
    if l2 {
        return mk(
            Verdict::L2MissPromote,
            stage::CACHE_LOOKUP,
            vec![reason::CACHE_L2_HIT],
        );
    }
    mk(
        Verdict::Unclassified,
        path.dominant().map(|s| s.stage).unwrap_or(stage::QUERY),
        vec![],
    )
}
