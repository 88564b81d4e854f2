//! OpenMetrics-style histogram exemplars: each latency bucket remembers
//! the trace id of a recent occupant, so the p99 bucket in a metrics
//! exposition links directly to a readable flight-recorder trace.
//!
//! Capture is automatic: [`crate::metrics::Histogram::observe_micros`]
//! consults [`crate::trace::active_trace_id`] — if the observing thread is
//! inside a query trace, the observation's bucket slot is overwritten with
//! that trace id (last writer wins, one slot per bucket). Observations made
//! outside any trace leave the slots untouched, which keeps expositions
//! from non-traced contexts byte-identical to the pre-exemplar format.
//!
//! Emission rides on the shared histogram exposition
//! (`metrics::emit_histogram_series`): a populated bucket line
//! gains a ` # {trace_id="..."} <seconds>` suffix. The suffix starts with
//! `#` mid-line (never at line start, so comment parsing is unaffected) and
//! ends with the exemplar value in seconds (so "last token parses as f64"
//! scrapers keep working).
//!
//! The flight recorder closes the loop: [`crate::FlightRecorder`] pins
//! evicted traces that are still referenced by a registry's exemplar slots,
//! so an exported trace id never dangles (see `recorder.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::HIST_BUCKETS;

/// One bucket's exemplar: the trace id of a recent occupant plus the
/// observed value that landed it there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    pub trace_id: u64,
    pub value_micros: u64,
}

impl Exemplar {
    /// The mid-line exposition suffix: ` # {trace_id="..."} <seconds>`.
    pub fn suffix(&self) -> String {
        format!(
            " # {{trace_id=\"{}\"}} {}",
            self.trace_id,
            self.value_micros as f64 / 1e6
        )
    }
}

/// Per-bucket exemplar slots for one histogram. Trace id 0 means "empty"
/// (real trace ids start at 1). Id and value are stored as independent
/// relaxed atomics: a torn pair under contention can at worst mislabel the
/// value of a *real* trace id — it can never fabricate a dangling id.
#[derive(Default)]
pub(crate) struct ExemplarSlots {
    ids: [AtomicU64; HIST_BUCKETS],
    values: [AtomicU64; HIST_BUCKETS],
}

impl ExemplarSlots {
    pub(crate) fn record(&self, bucket: usize, trace_id: u64, value_micros: u64) {
        self.values[bucket].store(value_micros, Ordering::Relaxed);
        self.ids[bucket].store(trace_id, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, bucket: usize) -> Option<Exemplar> {
        let trace_id = self.ids[bucket].load(Ordering::Relaxed);
        if trace_id == 0 {
            return None;
        }
        Some(Exemplar {
            trace_id,
            value_micros: self.values[bucket].load(Ordering::Relaxed),
        })
    }

    /// Distinct trace ids currently referenced by any bucket slot.
    pub(crate) fn trace_ids(&self, out: &mut std::collections::HashSet<u64>) {
        for slot in &self.ids {
            let id = slot.load(Ordering::Relaxed);
            if id != 0 {
                out.insert(id);
            }
        }
    }
}

/// Parse every exemplar suffix out of a rendered exposition, returning
/// `(family_bucket_series, trace_id)` pairs. Operator tooling (and the e25
/// drill) uses this to check that exported ids resolve against a recorder.
pub fn scrape_exemplars(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, suffix)) = line.split_once(" # {trace_id=\"") else {
            continue;
        };
        let Some((id, _)) = suffix.split_once('"') else {
            continue;
        };
        if let Ok(id) = id.parse::<u64>() {
            let name = series.split_whitespace().next().unwrap_or(series);
            out.push((name.to_string(), id));
        }
    }
    out
}
