//! Anomaly-driven node health scoring: EWMA baselines + hysteresis.
//!
//! Hard node death is easy — the PR 6 router already skips downed nodes.
//! The failure mode that actually erodes user response times is the
//! *brown-out*: a node that still answers, just 20× slower (saturated
//! backend, failing disk, noisy neighbor). This module detects it the way
//! anomaly detectors do: a **fast** EWMA tracks what latency looks like
//! right now, a **slow** EWMA remembers what it normally looks like, and
//! the ratio between them (plus error and degraded-serve rates) collapses
//! into a 0–100 health score. The router demotes a node whose score falls
//! below `DEMOTE_BELOW` and only restores it above `RESTORE_ABOVE` — a
//! hysteresis band wide enough that a score oscillating around either
//! bound cannot flap routing.

// Tuning shared by every node's scorer.

/// Fast EWMA smoothing (per observation).
const ALPHA_FAST: f64 = 0.25;
/// Fast EWMA smoothing while demoted, for observations *slower* than the
/// current EWMA: probes are sparse (1 in N routes), so evidence that the
/// node is still sick should register immediately.
const ALPHA_FAST_DEMOTED: f64 = 0.5;
/// Fast EWMA smoothing while demoted, for observations *faster* than the
/// current EWMA. Deliberately smaller (peak-hold decay): a browned-out node
/// still answers cached queries in microseconds, and a short run of lucky
/// fast probes must not restore it — only a sustained run of fast serves
/// decays the EWMA below the floor.
const ALPHA_FAST_DEMOTED_DOWN: f64 = 0.2;
/// Slow baseline EWMA smoothing.
const ALPHA_SLOW: f64 = 0.02;
/// Observations before the score is trusted (no demotions earlier).
const MIN_SAMPLES: u64 = 16;
/// Absolute latency floor, µs: while the fast EWMA sits under this, the
/// node is fast in absolute terms and ratio anomalies are ignored (a 50µs
/// cache hit being 5× a 10µs one is not a brown-out).
const LATENCY_FLOOR_MICROS: f64 = 15_000.0;
/// Fast/slow ratio up to which the latency subscore stays 1.0.
const RATIO_GRACE: f64 = 2.5;
/// Ratio at which the latency subscore reaches 0.
const RATIO_ZERO: f64 = 8.0;
/// Error-rate EWMA weight in the score (errors are worse than slow).
const ALPHA_ERR: f64 = 0.15;
/// Demote when score < this.
const DEMOTE_BELOW: f64 = 40.0;
/// Restore only when score > this (hysteresis: > `DEMOTE_BELOW`).
const RESTORE_ABOVE: f64 = 70.0;

/// Routing-visible state derived from the score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    #[default]
    Healthy,
    /// Score under the demotion bound: the router avoids this node while
    /// alternatives exist, probing it occasionally for recovery.
    Demoted,
}

/// How a serve ended, as the scorer cares about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Ok,
    /// Answered, but degraded (stale data, replica fallback).
    Degraded,
    /// Errored or shed without an answer.
    Error,
}

/// Per-node scorer. Not thread-safe; wrap in a mutex.
#[derive(Default)]
pub struct HealthScorer {
    samples: u64,
    ewma_fast: f64,
    ewma_slow: f64,
    err_rate: f64,
    degraded_rate: f64,
    state: HealthState,
    demotions: u64,
    restorations: u64,
}

impl HealthScorer {
    /// Fold in one serve. Returns `Some(new_state)` on a demote/restore
    /// transition, `None` otherwise.
    pub fn observe(&mut self, latency_micros: u64, kind: ServeKind) -> Option<HealthState> {
        let lat = latency_micros as f64;
        self.samples += 1;
        if self.samples == 1 {
            self.ewma_fast = lat;
            self.ewma_slow = lat;
        } else {
            let alpha = if self.state == HealthState::Demoted {
                if lat > self.ewma_fast {
                    ALPHA_FAST_DEMOTED
                } else {
                    ALPHA_FAST_DEMOTED_DOWN
                }
            } else {
                ALPHA_FAST
            };
            self.ewma_fast += alpha * (lat - self.ewma_fast);
            // The slow baseline only learns from non-anomalous serves:
            // during a brown-out it must keep remembering "normal", not
            // chase the anomaly until the ratio looks fine again.
            let ratio = self.ewma_fast / self.ewma_slow.max(1.0);
            if ratio < RATIO_GRACE || self.ewma_fast < LATENCY_FLOOR_MICROS {
                self.ewma_slow += ALPHA_SLOW * (lat - self.ewma_slow);
            }
        }
        let (err, degraded) = match kind {
            ServeKind::Ok => (0.0, 0.0),
            ServeKind::Degraded => (0.0, 1.0),
            ServeKind::Error => (1.0, 0.0),
        };
        self.err_rate += ALPHA_ERR * (err - self.err_rate);
        self.degraded_rate += ALPHA_ERR * (degraded - self.degraded_rate);

        if self.samples < MIN_SAMPLES {
            return None;
        }
        let score = self.score();
        match self.state {
            HealthState::Healthy if score < DEMOTE_BELOW => {
                self.state = HealthState::Demoted;
                self.demotions += 1;
                Some(HealthState::Demoted)
            }
            HealthState::Demoted if score > RESTORE_ABOVE => {
                self.state = HealthState::Healthy;
                self.restorations += 1;
                Some(HealthState::Healthy)
            }
            _ => None,
        }
    }

    /// 0–100: product of latency-anomaly, error-rate and degraded-rate
    /// subscores. 100 = indistinguishable from its own baseline.
    pub fn score(&self) -> f64 {
        if self.samples == 0 {
            return 100.0;
        }
        let lat_sub = if self.ewma_fast < LATENCY_FLOOR_MICROS {
            1.0
        } else {
            let ratio = self.ewma_fast / self.ewma_slow.max(1.0);
            if ratio <= RATIO_GRACE {
                1.0
            } else if ratio >= RATIO_ZERO {
                0.0
            } else {
                1.0 - (ratio - RATIO_GRACE) / (RATIO_ZERO - RATIO_GRACE)
            }
        };
        // Errors hit the score hard (2x weight), degraded serves gently.
        let err_sub = (1.0 - 2.0 * self.err_rate).max(0.0);
        let degraded_sub = (1.0 - 0.5 * self.degraded_rate).max(0.0);
        100.0 * lat_sub * err_sub * degraded_sub
    }

    pub fn state(&self) -> HealthState {
        self.state
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn ewma_fast_micros(&self) -> f64 {
        self.ewma_fast
    }

    pub fn ewma_slow_micros(&self) -> f64 {
        self.ewma_slow
    }

    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    pub fn restorations(&self) -> u64 {
        self.restorations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scorer() -> HealthScorer {
        HealthScorer::default()
    }

    #[test]
    fn healthy_traffic_scores_high() {
        let mut s = scorer();
        for _ in 0..200 {
            s.observe(5_000, ServeKind::Ok);
        }
        assert!(s.score() > 95.0, "score {}", s.score());
        assert_eq!(s.state(), HealthState::Healthy);
    }

    #[test]
    fn brownout_demotes_then_recovery_restores() {
        let mut s = scorer();
        for _ in 0..100 {
            s.observe(5_000, ServeKind::Ok);
        }
        // Brown-out: 40x slower, still answering.
        let mut demoted_after = None;
        for i in 0..100 {
            if s.observe(200_000, ServeKind::Ok) == Some(HealthState::Demoted) {
                demoted_after = Some(i);
                break;
            }
        }
        let demoted_after = demoted_after.expect("brown-out must demote");
        assert!(demoted_after < 30, "detected in {demoted_after} serves");
        assert_eq!(s.state(), HealthState::Demoted);

        // Recovery: latency returns to baseline; probes restore the node.
        let mut restored = false;
        for _ in 0..300 {
            if s.observe(5_000, ServeKind::Ok) == Some(HealthState::Healthy) {
                restored = true;
                break;
            }
        }
        assert!(restored, "recovery must restore (score {})", s.score());
        assert_eq!(s.demotions(), 1);
        assert_eq!(s.restorations(), 1);
    }

    #[test]
    fn fast_in_absolute_terms_is_never_anomalous() {
        let mut s = scorer();
        for _ in 0..100 {
            s.observe(10, ServeKind::Ok); // 10µs cache hits
        }
        for _ in 0..100 {
            // 100x ratio, but still far under the absolute floor.
            assert_eq!(s.observe(1_000, ServeKind::Ok), None);
        }
        assert_eq!(s.state(), HealthState::Healthy);
    }

    #[test]
    fn error_burst_demotes() {
        let mut s = scorer();
        for _ in 0..100 {
            s.observe(5_000, ServeKind::Ok);
        }
        let mut demoted = false;
        for _ in 0..40 {
            if s.observe(5_000, ServeKind::Error) == Some(HealthState::Demoted) {
                demoted = true;
                break;
            }
        }
        assert!(demoted, "sustained errors demote (score {})", s.score());
    }

    #[test]
    fn lucky_fast_probes_do_not_restore_mid_brownout() {
        let mut s = scorer();
        for _ in 0..100 {
            s.observe(5_000, ServeKind::Ok);
        }
        for _ in 0..20 {
            s.observe(200_000, ServeKind::Ok);
        }
        assert_eq!(s.state(), HealthState::Demoted);
        // While the node is still sick, most probes that hit its cache come
        // back in microseconds. Short lucky runs of them must not restore:
        // the peak-hold decay only forgets the anomaly over a sustained
        // all-fast stretch.
        for _ in 0..10 {
            for _ in 0..4 {
                s.observe(50, ServeKind::Ok);
            }
            s.observe(200_000, ServeKind::Ok);
        }
        assert_eq!(s.state(), HealthState::Demoted);
        assert_eq!(s.restorations(), 0);
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        let mut s = scorer();
        for _ in 0..100 {
            s.observe(5_000, ServeKind::Ok);
        }
        // Drive the score into the band and oscillate around the demote
        // bound: transitions must not alternate per observation.
        let mut transitions = 0;
        for i in 0..400 {
            let lat = if i % 2 == 0 { 40_000 } else { 90_000 };
            if s.observe(lat, ServeKind::Ok).is_some() {
                transitions += 1;
            }
        }
        assert!(
            transitions <= 2,
            "oscillating latency caused {transitions} transitions"
        );
    }
}
