//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! The paper's promise is *bounded* user response time; measuring latency
//! (PR 2/5) is not the same as enforcing it. This module closes the loop
//! the way SRE practice does: each objective (interactive p95 ≤ X,
//! availability ≥ 99.9%, degraded-serve fraction ≤ Y) defines an **error
//! budget**, and the tracker watches the rate at which serves burn that
//! budget over two sliding windows — a fast window that reacts to sharp
//! brown-outs and a slow window that filters out blips. An alert fires
//! only when *both* windows burn faster than the `fire_burn` multiple of
//! budget, and clears only when both drop under the lower `clear_burn`
//! bound (hysteresis, so a boundary-riding signal cannot flap).
//!
//! Time is explicit (`now_ms`), so the tracker runs in simulated time in
//! tests and wall-clock time in the cluster: the "5-min fast /
//! 1-h slow" production shape maps onto sim-scale windows via
//! [`SloConfig`].

use crate::metrics::Registry;
use crate::{Counter, Gauge, Histogram, HIST_BUCKETS};

/// Window and threshold shape for every objective in a tracker.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Ring-buffer bucket width, ms. Windows are quantized to this.
    pub bucket_ms: u64,
    /// Fast ("5-minute analogue") burn window, ms.
    pub fast_window_ms: u64,
    /// Slow ("1-hour analogue") burn window, ms.
    pub slow_window_ms: u64,
    /// Fire when both windows burn at ≥ this multiple of budget.
    pub fire_burn: f64,
    /// Clear only when both windows burn at ≤ this multiple (hysteresis:
    /// must be < `fire_burn`).
    pub clear_burn: f64,
    /// Minimum events in the fast window before an alert may fire —
    /// guards against a single bad serve in an empty window reading as a
    /// 100% burn.
    pub min_events: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            bucket_ms: 250,
            fast_window_ms: 5_000,
            slow_window_ms: 60_000,
            fire_burn: 2.0,
            clear_burn: 1.0,
            min_events: 8,
        }
    }
}

/// What an objective bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjectiveKind {
    /// Windowed p95 latency must stay ≤ `max_micros`. A serve is "bad"
    /// when it exceeds the bound; the budget is the 5% of serves the p95
    /// statistic tolerates by construction.
    LatencyP95 { max_micros: u64 },
    /// Fraction of successful serves must stay ≥ `min` (e.g. 0.999).
    /// Budget = `1 - min`.
    Availability { min: f64 },
    /// Fraction of degraded serves (stale cache data, shed-then-served
    /// fallbacks) must stay ≤ `max`. Budget = `max`.
    DegradedFraction { max: f64 },
}

/// One declared objective.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Short snake-case name; becomes part of `tv_slo_*` metric names.
    pub name: &'static str,
    pub kind: ObjectiveKind,
}

impl Objective {
    pub fn latency_p95(name: &'static str, max_micros: u64) -> Self {
        Objective {
            name,
            kind: ObjectiveKind::LatencyP95 { max_micros },
        }
    }

    pub fn availability(name: &'static str, min: f64) -> Self {
        Objective {
            name,
            kind: ObjectiveKind::Availability { min },
        }
    }

    pub fn degraded_fraction(name: &'static str, max: f64) -> Self {
        Objective {
            name,
            kind: ObjectiveKind::DegradedFraction { max },
        }
    }

    /// The error budget: tolerable bad fraction.
    fn budget(&self) -> f64 {
        match self.kind {
            ObjectiveKind::LatencyP95 { .. } => 0.05,
            ObjectiveKind::Availability { min } => (1.0 - min).max(1e-9),
            ObjectiveKind::DegradedFraction { max } => max.max(1e-9),
        }
    }
}

/// One served request, as the SLO plane sees it.
#[derive(Debug, Clone, Copy)]
pub struct ServeEvent {
    pub latency_micros: u64,
    /// `false` = the request errored or was shed without an answer.
    pub ok: bool,
    /// Served, but degraded (stale data, replica fallback, ...).
    pub degraded: bool,
}

/// Per-bucket tallies. `bad[i]` counts serves that violated objective `i`.
#[derive(Clone)]
struct Bucket {
    start_ms: u64,
    count: u64,
    bad: Vec<u64>,
    latency: [u64; HIST_BUCKETS],
}

impl Bucket {
    fn new(start_ms: u64, objectives: usize) -> Self {
        Bucket {
            start_ms,
            count: 0,
            bad: vec![0; objectives],
            latency: [0u64; HIST_BUCKETS],
        }
    }

    fn reset(&mut self, start_ms: u64) {
        self.start_ms = start_ms;
        self.count = 0;
        self.bad.iter_mut().for_each(|b| *b = 0);
        self.latency = [0u64; HIST_BUCKETS];
    }
}

/// Point-in-time status of one objective.
#[derive(Debug, Clone)]
pub struct SloStatus {
    pub name: &'static str,
    /// Currently in the alerting state.
    pub firing: bool,
    /// Transitioned into alerting on this evaluation.
    pub just_fired: bool,
    /// Transitioned out of alerting on this evaluation.
    pub just_cleared: bool,
    /// Burn multiple over the fast window (bad_fraction / budget).
    pub fast_burn: f64,
    /// Burn multiple over the slow window.
    pub slow_burn: f64,
    /// Events in the fast window.
    pub fast_events: u64,
    /// Windowed p95 over the slow window, µs (latency objectives).
    pub window_p95_micros: Option<u64>,
    /// Lifetime count of fire transitions.
    pub times_fired: u64,
}

struct ObjectiveState {
    objective: Objective,
    firing: bool,
    times_fired: u64,
    burn_fast_gauge: Option<Gauge>,
    burn_slow_gauge: Option<Gauge>,
    firing_gauge: Option<Gauge>,
    fired_total: Option<Counter>,
}

/// The tracker: a bucketed time ring covering the slow window, plus
/// per-objective alert state. Not thread-safe by itself — callers wrap it
/// in a mutex (`record` is a few adds; `evaluate` only does real work
/// when the clock enters a new bucket).
pub struct SloTracker {
    config: SloConfig,
    objectives: Vec<ObjectiveState>,
    ring: Vec<Bucket>,
    last_eval_bucket: u64,
    alerts_total: Option<Counter>,
    windowed_latency: Option<Histogram>,
}

impl SloTracker {
    pub fn new(config: SloConfig, objectives: Vec<Objective>) -> Self {
        let slots = (config.slow_window_ms / config.bucket_ms).max(1) as usize + 1;
        let n = objectives.len();
        SloTracker {
            config,
            objectives: objectives
                .into_iter()
                .map(|objective| ObjectiveState {
                    objective,
                    firing: false,
                    times_fired: 0,
                    burn_fast_gauge: None,
                    burn_slow_gauge: None,
                    firing_gauge: None,
                    fired_total: None,
                })
                .collect(),
            ring: (0..slots).map(|_| Bucket::new(u64::MAX, n)).collect(),
            last_eval_bucket: 0,
            alerts_total: None,
            windowed_latency: None,
        }
    }

    /// Register `tv_slo_*` series on `registry`. Objective names are
    /// embedded in metric names (the registry is label-free); burn rates
    /// export as ×1000 integer gauges.
    pub fn bind_obs(&mut self, registry: &Registry) {
        registry.describe(
            "tv_slo_burn_alerts_total",
            "SLO burn-rate alert fire transitions across all objectives",
        );
        self.alerts_total = Some(registry.counter("tv_slo_burn_alerts_total"));
        registry.describe(
            "tv_slo_serve_latency_seconds",
            "serve latency as observed by the SLO plane",
        );
        self.windowed_latency = Some(registry.histogram("tv_slo_serve_latency_seconds"));
        for st in &mut self.objectives {
            let name = st.objective.name;
            let fast = format!("tv_slo_{name}_burn_fast_x1000");
            registry.describe(&fast, "fast-window burn multiple x1000");
            st.burn_fast_gauge = Some(registry.gauge(&fast));
            let slow = format!("tv_slo_{name}_burn_slow_x1000");
            registry.describe(&slow, "slow-window burn multiple x1000");
            st.burn_slow_gauge = Some(registry.gauge(&slow));
            let firing = format!("tv_slo_{name}_firing");
            registry.describe(&firing, "1 while the burn-rate alert is firing");
            st.firing_gauge = Some(registry.gauge(&firing));
            let fired = format!("tv_slo_{name}_fired_total");
            registry.describe(&fired, "fire transitions for this objective");
            st.fired_total = Some(registry.counter(&fired));
        }
    }

    pub fn objectives(&self) -> Vec<Objective> {
        self.objectives
            .iter()
            .map(|s| s.objective.clone())
            .collect()
    }

    fn bucket_slot(&self, now_ms: u64) -> usize {
        ((now_ms / self.config.bucket_ms) as usize) % self.ring.len()
    }

    /// Record one serve at `now_ms`.
    pub fn record(&mut self, now_ms: u64, ev: ServeEvent) {
        let bucket_start = now_ms - (now_ms % self.config.bucket_ms);
        let slot = self.bucket_slot(now_ms);
        let bucket = &mut self.ring[slot];
        if bucket.start_ms != bucket_start {
            bucket.reset(bucket_start);
        }
        bucket.count += 1;
        bucket.latency[Histogram::bucket_index(ev.latency_micros)] += 1;
        for (i, st) in self.objectives.iter().enumerate() {
            let bad = match st.objective.kind {
                ObjectiveKind::LatencyP95 { max_micros } => {
                    !ev.ok || ev.latency_micros > max_micros
                }
                ObjectiveKind::Availability { .. } => !ev.ok,
                ObjectiveKind::DegradedFraction { .. } => ev.degraded,
            };
            if bad {
                bucket.bad[i] += 1;
            }
        }
        if let Some(h) = &self.windowed_latency {
            h.observe_micros(ev.latency_micros);
        }
    }

    fn window_tally(&self, now_ms: u64, window_ms: u64, objective: usize) -> (u64, u64) {
        let from = now_ms.saturating_sub(window_ms);
        let mut count = 0u64;
        let mut bad = 0u64;
        for b in &self.ring {
            if b.start_ms != u64::MAX && b.start_ms >= from && b.start_ms <= now_ms {
                count += b.count;
                bad += b.bad[objective];
            }
        }
        (count, bad)
    }

    fn window_p95(&self, now_ms: u64, window_ms: u64) -> Option<u64> {
        let from = now_ms.saturating_sub(window_ms);
        let mut counts = [0u64; HIST_BUCKETS];
        let mut total = 0u64;
        for b in &self.ring {
            if b.start_ms != u64::MAX && b.start_ms >= from && b.start_ms <= now_ms {
                for (slot, c) in counts.iter_mut().zip(b.latency.iter()) {
                    *slot += c;
                }
                total += b.count;
            }
        }
        if total == 0 {
            return None;
        }
        let rank = ((0.95 * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Histogram::bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    /// Evaluate every objective at `now_ms`, driving alert transitions.
    /// Cheap to call per-query: full evaluation only happens when the
    /// clock has entered a new bucket since the last call (pass
    /// `force = true` to bypass the throttle, e.g. from tests or a final
    /// end-of-run check).
    pub fn evaluate(&mut self, now_ms: u64, force: bool) -> Vec<SloStatus> {
        let bucket = now_ms / self.config.bucket_ms;
        if !force && bucket == self.last_eval_bucket {
            return Vec::new();
        }
        self.last_eval_bucket = bucket;
        let mut out = Vec::with_capacity(self.objectives.len());
        let window_p95 = self.window_p95(now_ms, self.config.slow_window_ms);
        for i in 0..self.objectives.len() {
            let (fast_count, fast_bad) = self.window_tally(now_ms, self.config.fast_window_ms, i);
            let (slow_count, slow_bad) = self.window_tally(now_ms, self.config.slow_window_ms, i);
            let st = &mut self.objectives[i];
            let budget = st.objective.budget();
            let frac = |bad: u64, count: u64| {
                if count == 0 {
                    0.0
                } else {
                    bad as f64 / count as f64
                }
            };
            let fast_burn = frac(fast_bad, fast_count) / budget;
            let slow_burn = frac(slow_bad, slow_count) / budget;
            let mut just_fired = false;
            let mut just_cleared = false;
            if !st.firing
                && fast_count >= self.config.min_events
                && fast_burn >= self.config.fire_burn
                && slow_burn >= self.config.fire_burn
            {
                st.firing = true;
                st.times_fired += 1;
                just_fired = true;
                if let Some(c) = &st.fired_total {
                    c.inc();
                }
                if let Some(c) = &self.alerts_total {
                    c.inc();
                }
            } else if st.firing
                && fast_burn <= self.config.clear_burn
                && slow_burn <= self.config.clear_burn
            {
                st.firing = false;
                just_cleared = true;
            }
            if let Some(g) = &st.burn_fast_gauge {
                g.set((fast_burn * 1000.0) as i64);
            }
            if let Some(g) = &st.burn_slow_gauge {
                g.set((slow_burn * 1000.0) as i64);
            }
            if let Some(g) = &st.firing_gauge {
                g.set(st.firing as i64);
            }
            out.push(SloStatus {
                name: st.objective.name,
                firing: st.firing,
                just_fired,
                just_cleared,
                fast_burn,
                slow_burn,
                fast_events: fast_count,
                window_p95_micros: window_p95,
                times_fired: st.times_fired,
            });
        }
        out
    }

    /// Current status without advancing alert state (no transitions).
    pub fn status(&self, now_ms: u64) -> Vec<SloStatus> {
        let window_p95 = self.window_p95(now_ms, self.config.slow_window_ms);
        self.objectives
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let (fast_count, fast_bad) =
                    self.window_tally(now_ms, self.config.fast_window_ms, i);
                let (slow_count, slow_bad) =
                    self.window_tally(now_ms, self.config.slow_window_ms, i);
                let budget = st.objective.budget();
                let frac = |bad: u64, count: u64| {
                    if count == 0 {
                        0.0
                    } else {
                        bad as f64 / count as f64
                    }
                };
                SloStatus {
                    name: st.objective.name,
                    firing: st.firing,
                    just_fired: false,
                    just_cleared: false,
                    fast_burn: frac(fast_bad, fast_count) / budget,
                    slow_burn: frac(slow_bad, slow_count) / budget,
                    fast_events: fast_count,
                    window_p95_micros: window_p95,
                    times_fired: st.times_fired,
                }
            })
            .collect()
    }

    pub fn config(&self) -> &SloConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> SloTracker {
        SloTracker::new(
            SloConfig {
                bucket_ms: 100,
                fast_window_ms: 1_000,
                slow_window_ms: 5_000,
                fire_burn: 2.0,
                clear_burn: 1.0,
                min_events: 4,
            },
            vec![
                Objective::availability("availability", 0.95),
                Objective::degraded_fraction("degraded", 0.10),
            ],
        )
    }

    #[test]
    fn empty_window_never_fires() {
        let mut t = tracker();
        let statuses = t.evaluate(10_000, true);
        assert!(statuses.iter().all(|s| !s.firing && s.fast_burn == 0.0));
    }

    #[test]
    fn full_error_window_fires_and_clears_with_hysteresis() {
        let mut t = tracker();
        // 100% errors: availability budget 0.05 → burn 20x in both windows.
        for ms in (0..2_000).step_by(50) {
            t.record(
                ms,
                ServeEvent {
                    latency_micros: 1_000,
                    ok: false,
                    degraded: false,
                },
            );
        }
        let st = t.evaluate(2_000, true);
        let avail = st.iter().find(|s| s.name == "availability").unwrap();
        assert!(avail.firing && avail.just_fired, "{avail:?}");
        assert_eq!(avail.times_fired, 1);
        let degraded = st.iter().find(|s| s.name == "degraded").unwrap();
        assert!(!degraded.firing, "only the violated objective fires");

        // Healthy traffic pushes the windows back under clear_burn.
        for ms in (2_000..9_000).step_by(20) {
            t.record(
                ms,
                ServeEvent {
                    latency_micros: 1_000,
                    ok: true,
                    degraded: false,
                },
            );
        }
        let st = t.evaluate(9_000, true);
        let avail = st.iter().find(|s| s.name == "availability").unwrap();
        assert!(!avail.firing && avail.just_cleared, "{avail:?}");
        assert_eq!(avail.times_fired, 1, "exactly one fire across the episode");
    }

    #[test]
    fn boundary_riding_burn_does_not_flap() {
        // Bad fraction parked between clear (1.0x) and fire (2.0x) burn:
        // ~6.25% bad on a 5% budget = 1.25x, spread evenly so no window
        // alignment spikes over the fire bound. Never fires, and had it
        // been firing it would not clear — the band absorbs oscillation.
        let mut t = SloTracker::new(
            SloConfig {
                bucket_ms: 100,
                fast_window_ms: 1_000,
                slow_window_ms: 5_000,
                fire_burn: 2.0,
                clear_burn: 1.0,
                min_events: 24,
            },
            vec![Objective::availability("availability", 0.95)],
        );
        let mut transitions = 0;
        for i in 0..400u64 {
            let ms = i * 25;
            t.record(
                ms,
                ServeEvent {
                    latency_micros: 500,
                    ok: i % 16 != 8, // one error per 16 serves
                    degraded: false,
                },
            );
            for s in t.evaluate(ms, false) {
                if s.just_fired || s.just_cleared {
                    transitions += 1;
                }
            }
        }
        assert_eq!(transitions, 0, "mid-band burn must not transition");
    }

    #[test]
    fn min_events_guards_sparse_windows() {
        let mut t = tracker();
        // One catastrophic serve in an otherwise empty window.
        t.record(
            50,
            ServeEvent {
                latency_micros: 10_000_000,
                ok: false,
                degraded: true,
            },
        );
        let st = t.evaluate(100, true);
        assert!(
            st.iter().all(|s| !s.firing),
            "a single event cannot fire an alert: {st:?}"
        );
    }

    #[test]
    fn latency_objective_tracks_windowed_p95() {
        let mut t = SloTracker::new(
            SloConfig {
                bucket_ms: 100,
                fast_window_ms: 1_000,
                slow_window_ms: 4_000,
                fire_burn: 2.0,
                clear_burn: 1.0,
                min_events: 4,
            },
            vec![Objective::latency_p95("interactive", 2_000)],
        );
        // 50% of serves at 10ms >> 2ms bound: burn = 0.5/0.05 = 10x.
        for i in 0..100u64 {
            t.record(
                i * 10,
                ServeEvent {
                    latency_micros: if i % 2 == 0 { 500 } else { 10_000 },
                    ok: true,
                    degraded: false,
                },
            );
        }
        let st = t.evaluate(1_000, true);
        let s = &st[0];
        assert!(s.firing, "{s:?}");
        assert!(s.window_p95_micros.unwrap() >= 8_192, "{s:?}");
    }
}
