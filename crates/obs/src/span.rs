//! Span tracer: RAII stage guards recorded into the active per-query trace.
//!
//! Every pipeline stage a query passes through opens a [`Span`] with a
//! static stage name (see [`crate::stage`]); dropping the guard moves one
//! [`SpanEvent`] into the trace active on this thread (see
//! [`crate::trace`]: [`crate::trace::begin_trace`] on the query's driver
//! thread, or a propagated [`crate::trace::TraceCtx`] installed on a
//! worker). The trace buffer is the only sink: spans recorded on
//! short-lived worker threads survive the thread and assemble into one tree
//! keyed by trace id, and a span or event outside a trace records nothing.

use std::time::{Duration, Instant};

use crate::trace;

/// A completed (or instantaneous) stage observation.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Static stage name (`cache_lookup`, `remote_exec`, ...).
    pub stage: &'static str,
    /// Optional static refinement (`"intelligent"` vs `"literal"`, ...).
    pub label: Option<&'static str>,
    /// Optional numeric payload (attempt number, fault ordinal, rows, ...).
    pub detail: Option<u64>,
    /// Structured decision attribution: *why* this stage went the way it
    /// did (see [`crate::reason`] for the taxonomy). `None` when the stage
    /// carries no decision.
    pub reason: Option<&'static str>,
    /// When the span was entered.
    pub start: Instant,
    /// Zero for instantaneous events.
    pub dur: Duration,
    /// Nesting depth in the trace tree; 0 for the root span. Derived from
    /// parent links when the trace is assembled
    /// ([`crate::trace::TraceHandle::finish`]).
    pub depth: u32,
    /// Owning trace.
    pub trace_id: u64,
    /// Trace-wide span id, allocated at entry from the trace's counter so
    /// that sorting by `span_id` reconstructs the cross-thread timeline
    /// (parents before children).
    pub span_id: u64,
    /// Enclosing span id within the trace (`None` for the trace root).
    pub parent: Option<u64>,
    /// Stable per-thread lane id (the `tid` in Chrome exports).
    pub lane: u64,
}

/// RAII guard for a pipeline stage; records a [`SpanEvent`] on drop. Inert
/// (no slot, nothing recorded) when no trace was active at entry.
pub struct Span {
    stage: &'static str,
    label: Option<&'static str>,
    detail: Option<u64>,
    reason: Option<&'static str>,
    start: Instant,
    slot: Option<trace::Slot>,
}

impl Span {
    /// Attach a static refinement label, visible in the recorded event.
    pub fn label(&mut self, label: &'static str) {
        self.label = Some(label);
    }

    /// Attach a numeric payload, visible in the recorded event.
    pub fn detail(&mut self, detail: u64) {
        self.detail = Some(detail);
    }

    /// Attach a decision reason code (see [`crate::reason`]), visible in
    /// the recorded event and in trace exports.
    pub fn reason(&mut self, reason: &'static str) {
        self.reason = Some(reason);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else { return };
        let ev = SpanEvent {
            stage: self.stage,
            label: self.label,
            detail: self.detail,
            reason: self.reason,
            start: self.start,
            dur: self.start.elapsed(),
            depth: 0,
            trace_id: slot.trace_id(),
            span_id: slot.span_id(),
            parent: slot.parent(),
            lane: trace::lane_id(),
        };
        trace::exit_span(slot, ev);
    }
}

/// Enter a stage. The returned guard records the span when dropped.
pub fn span(stage: &'static str) -> Span {
    Span {
        stage,
        label: None,
        detail: None,
        reason: None,
        start: Instant::now(),
        slot: trace::enter_span(),
    }
}

/// Record an instantaneous event (a retry, an injected fault, ...) under
/// the innermost open span.
pub fn event(stage: &'static str, label: Option<&'static str>, detail: Option<u64>) {
    event_with(stage, label, detail, None);
}

/// [`event`] with a decision reason code attached (see [`crate::reason`]).
pub fn event_with(
    stage: &'static str,
    label: Option<&'static str>,
    detail: Option<u64>,
    reason: Option<&'static str>,
) {
    sink(stage, label, detail, reason, Duration::ZERO);
}

/// Record a completed observation with an explicit duration — for work
/// accumulated across many calls (e.g. an operator's busy time summed over
/// its `next()` calls) where a RAII guard would also count time spent
/// blocked in children.
pub fn record(
    stage: &'static str,
    label: Option<&'static str>,
    detail: Option<u64>,
    dur: Duration,
) {
    sink(stage, label, detail, None, dur);
}

fn sink(
    stage: &'static str,
    label: Option<&'static str>,
    detail: Option<u64>,
    reason: Option<&'static str>,
    dur: Duration,
) {
    let Some(slot) = trace::instant_slot() else {
        return;
    };
    let ev = SpanEvent {
        stage,
        label,
        detail,
        reason,
        start: Instant::now(),
        dur,
        depth: 0,
        trace_id: slot.trace_id(),
        span_id: slot.span_id(),
        parent: slot.parent(),
        lane: trace::lane_id(),
    };
    trace::sink_instant(slot, ev);
}
