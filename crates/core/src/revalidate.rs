//! The background maintenance lane: stale-cache revalidation.
//!
//! Degraded serving (PR: fault model) keeps dashboards rendering from
//! stale-marked cache entries while a backend is down — but nothing ever
//! refreshed them, so a recovered source kept serving old data until the
//! next organic miss. This module closes that hole: entries stale past a
//! configurable budget are re-fetched at [`tabviz_sched::Priority::Background`] — through
//! the same admission queue as everything else, so revalidation can never
//! crowd out interactive work (under overload the scheduler sheds it
//! first).
//!
//! [`revalidate_pass`] is a single synchronous sweep (deterministic, used
//! directly by tests); [`MaintenanceLane`] runs passes on an interval in a
//! background thread.

use crate::processor::{ExecOutcome, QueryProcessor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tabviz_sched::AdmitRequest;

/// Tuning for a revalidation sweep.
#[derive(Debug, Clone)]
pub struct RevalidateOptions {
    /// Entries stale for at least this long are re-fetched. Zero means
    /// "revalidate anything stale".
    pub staleness_budget: Duration,
    /// Upper bound on re-fetches per pass, so one sweep cannot monopolize
    /// even the Background class.
    pub max_jobs: usize,
    /// Fairness session the background tickets are accounted under.
    pub session: String,
}

impl Default for RevalidateOptions {
    fn default() -> Self {
        RevalidateOptions {
            staleness_budget: Duration::from_secs(60),
            max_jobs: 32,
            session: "maintenance".to_string(),
        }
    }
}

/// What one sweep did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RevalidateReport {
    /// Stale entries inspected.
    pub examined: usize,
    /// Entries younger than the budget, left alone.
    pub within_budget: usize,
    /// Entries refreshed with a live backend result.
    pub refreshed: usize,
    /// Entries whose source is still down (re-fetch failed or degraded).
    pub still_stale: usize,
}

/// One synchronous revalidation sweep over the processor's stale cache
/// entries, oldest first. Each overdue entry is re-executed at
/// `Background` priority; a success stores a fresh result that supersedes
/// the stale entry. Sources still down leave their entries stale for the
/// next pass (still available for degraded serving meanwhile).
pub fn revalidate_pass(processor: &QueryProcessor, opts: &RevalidateOptions) -> RevalidateReport {
    let revalidations = processor
        .obs
        .registry
        .counter("tv_sched_revalidations_total");
    let failures = processor
        .obs
        .registry
        .counter("tv_sched_revalidation_failures_total");
    let mut report = RevalidateReport::default();
    // The sweep is one maintenance span; each overdue refresh runs inside
    // it, so the refresh queries' traces record this pass as their parent
    // and carry the maintenance attribution.
    let mut mspan = tabviz_obs::span(tabviz_obs::stage::MAINTENANCE);
    mspan.reason(tabviz_obs::reason::MAINT_REFRESH);
    for (spec, age) in processor.caches.stale_entries() {
        report.examined += 1;
        if age < opts.staleness_budget {
            report.within_budget += 1;
            continue;
        }
        if report.refreshed + report.still_stale >= opts.max_jobs {
            break;
        }
        let req = AdmitRequest::background(opts.session.clone());
        match processor.execute_as(&spec, &req) {
            // A genuinely fresh answer (remote fetch, or answered from an
            // already-revalidated fresh entry) retires the stale one.
            Ok((_, ExecOutcome::DegradedStale)) => {
                report.still_stale += 1;
                failures.inc();
            }
            Ok(_) => {
                report.refreshed += 1;
                revalidations.inc();
            }
            Err(_) => {
                report.still_stale += 1;
                failures.inc();
            }
        }
    }
    mspan.detail(report.refreshed as u64);
    report
}

/// A stop handle for the background maintenance thread. Dropping it stops
/// and joins the thread.
pub struct MaintenanceLane {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MaintenanceLane {
    /// Run `pass` every `interval` until stopped. The closure is the sweep
    /// (typically `revalidate_pass` over a shared processor); keeping it a
    /// closure lets callers own the processor however they like.
    pub fn spawn(
        interval: Duration,
        pass: impl FnMut() -> RevalidateReport + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut pass = pass;
        let handle = std::thread::Builder::new()
            .name("tabviz-maintenance".to_string())
            .spawn(move || {
                // Poll the stop flag at a finer grain than the interval so
                // shutdown is prompt even with long intervals.
                let tick = interval
                    .min(Duration::from_millis(20))
                    .max(Duration::from_millis(1));
                let mut elapsed = Duration::ZERO;
                loop {
                    if stop2.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        let _ = pass();
                    }
                }
            })
            .expect("spawn maintenance thread");
        MaintenanceLane {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MaintenanceLane {
    fn drop(&mut self) {
        self.shutdown();
    }
}
