//! Open-loop cluster traffic: a replayable "storm" of dashboard sessions.
//!
//! Models server-scale load the way the paper's Sect. 3.2 deployment sees
//! it: thousands of viewer sessions arriving over a horizon, dashboard
//! popularity Zipf-distributed (a few public dashboards soak most of the
//! traffic), arrival intensity following a diurnal curve. The generator is
//! *open-loop* — arrival times are fixed up front, independent of how fast
//! the system answers — and **pure**: every draw is a stateless
//! [`tabviz_common::hash`] roll keyed by `(seed, site, session, step)`, so
//! one seed always yields the byte-identical schedule regardless of
//! generation order, thread count, or what ran before. That property is
//! what makes cluster storms replayable and their tests assertable.

use tabviz_common::hash::{mix3, roll, unit_f64};

/// Sites for the stateless rolls (disjoint from the backend fault sites by
/// construction — the generator owns its own seed).
const SITE_DASHBOARD: u64 = 0x57_01;
const SITE_START: u64 = 0x57_02;
const SITE_GAP: u64 = 0x57_03;
const SITE_KIND: u64 = 0x57_04;
const SITE_DETAIL: u64 = 0x57_05;

/// Storm shape. All fields feed the pure schedule function; equal configs
/// produce equal schedules.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Concurrent viewer sessions generated over the horizon.
    pub sessions: usize,
    /// Distinct published dashboards sessions can open.
    pub dashboards: usize,
    /// Zipf skew of dashboard popularity (1.0–1.5 is web-like; 0 uniform).
    pub zipf_s: f64,
    /// Virtual horizon the session start times spread over, in ms.
    pub horizon_ms: u64,
    /// Diurnal modulation depth in `[0, 1)`: 0 = flat arrivals, larger
    /// values concentrate session starts around the mid-horizon peak.
    pub diurnal_amplitude: f64,
    /// Interactions per session (the first is always the initial load).
    pub steps_per_session: usize,
    /// Mean think time between a session's interactions, in ms.
    pub mean_think_ms: f64,
    /// Master seed; the only source of randomness.
    pub seed: u64,
}

impl StormConfig {
    /// Virtual timestamp at `num/den` of the horizon — the idiom fault
    /// drivers use to place mid-storm events ("kill at 2/5, revive at
    /// 3/4") so the scenario rescales with the horizon instead of baking
    /// in absolute times.
    pub fn at_fraction(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0, "fraction denominator must be positive");
        self.horizon_ms * num / den
    }
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            sessions: 1_000,
            dashboards: 100,
            zipf_s: 1.1,
            horizon_ms: 60_000,
            diurnal_amplitude: 0.6,
            steps_per_session: 4,
            mean_think_ms: 1_500.0,
            seed: 0,
        }
    }
}

/// What a scheduled interaction does, in dataset-agnostic terms; the
/// experiment driver maps these onto concrete client queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StormStep {
    /// Initial dashboard load (the dominant class on public servers).
    Load,
    /// Drill into one of the dashboard's dimensions (new group-by).
    Drill { dimension: u32 },
    /// Narrow a filter; `selector` picks the predicate value.
    Filter { selector: u32 },
    /// Re-sort / top-N a zone.
    TopN { n: u32 },
}

/// One scheduled interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time from storm start, in ms.
    pub at_ms: u64,
    /// Session ordinal (stable across runs).
    pub session: u32,
    /// Dashboard the session opened (Zipf-popular).
    pub dashboard: u32,
    /// Step index within the session (0 = load).
    pub step: u32,
    pub kind: StormStep,
}

/// Normalized Zipf weights over `n` ranks: `w_i ∝ 1/(i+1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Inverse-CDF pick over `weights` given a uniform draw `u`.
fn zipf_pick(weights: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i;
        }
    }
    weights.len().saturating_sub(1)
}

/// Warp a uniform draw so start times follow a diurnal intensity curve
/// peaking mid-horizon: `t/H = u + (a/2π)·sin(2πu)` — monotone for
/// `a < 1`, identity at the endpoints, arrival density `∝ 1/(1 + a·cos 2πu)`
/// (highest where the cosine bottoms out, the mid-horizon "afternoon").
fn diurnal_warp(u: f64, amplitude: f64) -> f64 {
    use std::f64::consts::TAU;
    (u + amplitude / TAU * (TAU * u).sin()).clamp(0.0, 1.0)
}

/// The aggregate share of traffic the top `ceil(1%)` most popular
/// dashboards should receive under this config's Zipf skew — the analytic
/// value the replay tests compare the empirical schedule against.
pub fn expected_top1pct_share(cfg: &StormConfig) -> f64 {
    let weights = zipf_weights(cfg.dashboards, cfg.zipf_s);
    let k = cfg.dashboards.div_ceil(100);
    weights.iter().take(k).sum()
}

/// Generate the full storm schedule: every session's arrivals, merged and
/// sorted by `(at_ms, session, step)`. Pure function of the config.
pub fn generate_storm(cfg: &StormConfig) -> Vec<Arrival> {
    let weights = zipf_weights(cfg.dashboards.max(1), cfg.zipf_s);
    let mut out = Vec::with_capacity(cfg.sessions * cfg.steps_per_session.max(1));
    for s in 0..cfg.sessions as u64 {
        let dashboard = zipf_pick(&weights, roll(cfg.seed, SITE_DASHBOARD, s)) as u32;
        let start_u = diurnal_warp(roll(cfg.seed, SITE_START, s), cfg.diurnal_amplitude);
        let mut at = (start_u * cfg.horizon_ms as f64) as u64;
        for step in 0..cfg.steps_per_session.max(1) as u64 {
            let ordinal = (s << 20) | step;
            if step > 0 {
                // Exponential think time from a stateless draw.
                let u = roll(cfg.seed, SITE_GAP, ordinal);
                let gap = -(1.0 - u).max(f64::MIN_POSITIVE).ln() * cfg.mean_think_ms;
                at += gap as u64;
            }
            let kind = if step == 0 {
                StormStep::Load
            } else {
                let detail = mix3(cfg.seed, SITE_DETAIL, ordinal);
                match (unit_f64(mix3(cfg.seed, SITE_KIND, ordinal)) * 3.0) as u32 {
                    0 => StormStep::Drill {
                        dimension: (detail % 4) as u32,
                    },
                    1 => StormStep::Filter {
                        selector: (detail % 1024) as u32,
                    },
                    _ => StormStep::TopN {
                        n: 3 + (detail % 8) as u32,
                    },
                }
            };
            out.push(Arrival {
                at_ms: at,
                session: s as u32,
                dashboard,
                step: step as u32,
                kind,
            });
        }
    }
    out.sort_by_key(|a| (a.at_ms, a.session, a.step));
    out
}

/// Order-sensitive digest of a schedule — two byte-identical timelines
/// (and only those) share a digest.
pub fn schedule_digest(schedule: &[Arrival]) -> u64 {
    let mut h: u64 = 0x5707_0000;
    for a in schedule {
        let kind = match &a.kind {
            StormStep::Load => 0u64,
            StormStep::Drill { dimension } => 1 | ((*dimension as u64) << 8),
            StormStep::Filter { selector } => 2 | ((*selector as u64) << 8),
            StormStep::TopN { n } => 3 | ((*n as u64) << 8),
        };
        h = mix3(
            h,
            a.at_ms ^ (a.session as u64) << 32,
            (a.step as u64) << 48 | (a.dashboard as u64) << 16 | kind,
        );
    }
    h
}

/// Aggregate schedule statistics (for replay assertions and reports).
#[derive(Debug, Clone, PartialEq)]
pub struct StormStats {
    pub arrivals: usize,
    pub sessions: usize,
    /// Arrivals per dashboard, indexed by dashboard id.
    pub per_dashboard: Vec<u64>,
    /// Empirical share of arrivals hitting the top `ceil(1%)` dashboards.
    pub top1pct_share: f64,
    /// Arrivals in each tenth of the observed time range (diurnal shape).
    pub per_decile: [u64; 10],
}

pub fn storm_stats(cfg: &StormConfig, schedule: &[Arrival]) -> StormStats {
    let mut per_dashboard = vec![0u64; cfg.dashboards.max(1)];
    for a in schedule {
        per_dashboard[a.dashboard as usize] += 1;
    }
    let mut by_popularity = per_dashboard.clone();
    by_popularity.sort_unstable_by(|a, b| b.cmp(a));
    let k = cfg.dashboards.div_ceil(100);
    let top: u64 = by_popularity.iter().take(k).sum();
    let total = schedule.len().max(1) as u64;
    let span = schedule.last().map(|a| a.at_ms + 1).unwrap_or(1);
    let mut per_decile = [0u64; 10];
    for a in schedule {
        per_decile[((a.at_ms * 10) / span).min(9) as usize] += 1;
    }
    StormStats {
        arrivals: schedule.len(),
        sessions: cfg.sessions,
        per_dashboard,
        top1pct_share: top as f64 / total as f64,
        per_decile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_fraction_scales_with_horizon() {
        let cfg = StormConfig {
            horizon_ms: 4_000,
            ..Default::default()
        };
        assert_eq!(cfg.at_fraction(2, 5), 1_600);
        assert_eq!(cfg.at_fraction(3, 4), 3_000);
        assert_eq!(cfg.at_fraction(0, 7), 0);
        assert_eq!(cfg.at_fraction(1, 1), cfg.horizon_ms);
    }

    #[test]
    fn schedule_is_sorted_and_sized() {
        let cfg = StormConfig {
            sessions: 50,
            steps_per_session: 3,
            ..Default::default()
        };
        let s = generate_storm(&cfg);
        assert_eq!(s.len(), 150);
        assert!(s.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(s
            .iter()
            .filter(|a| a.step == 0)
            .all(|a| a.kind == StormStep::Load));
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = StormConfig {
            sessions: 200,
            ..Default::default()
        };
        let a = generate_storm(&cfg);
        let b = generate_storm(&cfg);
        assert_eq!(a, b);
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        let other = generate_storm(&StormConfig {
            seed: 1,
            ..cfg.clone()
        });
        assert_ne!(schedule_digest(&a), schedule_digest(&other));
    }

    #[test]
    fn zipf_concentrates_popularity() {
        let cfg = StormConfig {
            sessions: 4_000,
            dashboards: 200,
            zipf_s: 1.2,
            ..Default::default()
        };
        let s = generate_storm(&cfg);
        let stats = storm_stats(&cfg, &s);
        let expected = expected_top1pct_share(&cfg);
        assert!(
            (stats.top1pct_share - expected).abs() < 0.05,
            "top-1% share {} vs expected {expected}",
            stats.top1pct_share
        );
        assert!(stats.top1pct_share > 0.05, "skew should concentrate mass");
    }

    #[test]
    fn diurnal_peaks_mid_horizon() {
        let cfg = StormConfig {
            sessions: 5_000,
            steps_per_session: 1,
            diurnal_amplitude: 0.8,
            ..Default::default()
        };
        let s = generate_storm(&cfg);
        let stats = storm_stats(&cfg, &s);
        let edges = stats.per_decile[0] + stats.per_decile[9];
        let middle = stats.per_decile[4] + stats.per_decile[5];
        assert!(
            middle > 2 * edges,
            "diurnal shape missing: edges={edges} middle={middle}"
        );
    }
}
