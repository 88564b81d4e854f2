//! Cross-thread trace assembly: a propagatable per-query trace context.
//!
//! A query does not execute wholly on one thread (morsel-parallel scans,
//! batch zone workers, the maintenance lane), so spans are
//! collected per *trace*: a shared, bounded event buffer keyed by trace id,
//! plus a thread-local "active trace" that spans join automatically. It is
//! the only place a [`crate::span::SpanEvent`] is stored.
//!
//! - [`begin_trace`] opens a trace on the current thread (the query's
//!   driver) and makes it active; every [`crate::span::span`] /
//!   [`crate::span::event`] on this thread is written into the trace.
//! - [`TraceCtx::current`] captures a cheap handle (trace + the span open
//!   right now) to move into a worker closure; [`TraceCtx::install`] adopts
//!   the trace on the worker thread, parenting the worker's spans under the
//!   captured span. Because events are written into the shared buffer at
//!   completion, spans on short-lived worker threads survive the thread.
//! - [`TraceHandle::finish`] closes the trace, appends the root span, sorts
//!   by span id (allocation order: parents before children, across
//!   threads) and recomputes depths from parent links — yielding one
//!   connected tree per query.
//!
//! Span ids are allocated from a per-trace atomic counter; the shared
//! buffer is a short per-trace mutex contended only by that query's own
//! workers (the global hot path stays lock-free). The buffer is bounded at
//! [`TRACE_EVENT_CAPACITY`] events; overflow increments a drop counter
//! rather than growing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::span::SpanEvent;
use crate::stage;

/// Maximum events buffered per trace; overflow is counted, not stored, so
/// a runaway query cannot grow the recorder without bound.
pub const TRACE_EVENT_CAPACITY: usize = 16_384;

/// Span id of the synthetic root span appended by [`TraceHandle::finish`].
pub const ROOT_SPAN_ID: u64 = 1;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_LANE_ID: AtomicU64 = AtomicU64::new(1);
static CAPTURE: AtomicBool = AtomicBool::new(true);

/// Globally enable / disable trace capture (the e20 overhead experiment's
/// "off" arm). When off, [`begin_trace`] returns an inert handle and spans
/// record nothing.
pub fn set_capture(on: bool) {
    CAPTURE.store(on, Ordering::Relaxed);
}

/// Whether trace capture is globally enabled.
pub fn capture_enabled() -> bool {
    CAPTURE.load(Ordering::Relaxed)
}

thread_local! {
    static LANE_ID: u64 = NEXT_LANE_ID.fetch_add(1, Ordering::Relaxed);
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Stable per-thread lane id (used as the `tid` in Chrome exports).
pub fn lane_id() -> u64 {
    LANE_ID.with(|l| *l)
}

/// Trace id active on this thread, if any (diagnostics / tests).
pub fn active_trace_id() -> Option<u64> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|at| at.inner.trace_id))
}

pub(crate) struct TraceInner {
    trace_id: u64,
    parent_trace: Option<u64>,
    started: Instant,
    next_span: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
}

impl TraceInner {
    fn sink(&self, ev: SpanEvent) {
        let mut buf = self.events.lock();
        if buf.len() >= TRACE_EVENT_CAPACITY {
            drop(buf);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.push(ev);
        }
    }
}

struct ActiveTrace {
    inner: Arc<TraceInner>,
    /// Span ids currently open on this thread, outermost first. Seeded
    /// with the adopted parent span on [`TraceCtx::install`] (the seed is
    /// never popped — it belongs to another thread).
    open: Vec<u64>,
}

/// Ids allocated for a span (or instantaneous event) joining the active
/// trace; held by the [`crate::span::Span`] guard so completion can reach
/// the shared buffer even if the thread's active trace changed meanwhile.
pub(crate) struct Slot {
    trace: Arc<TraceInner>,
    span_id: u64,
    parent: Option<u64>,
}

impl Slot {
    pub(crate) fn trace_id(&self) -> u64 {
        self.trace.trace_id
    }

    pub(crate) fn span_id(&self) -> u64 {
        self.span_id
    }

    pub(crate) fn parent(&self) -> Option<u64> {
        self.parent
    }
}

/// Allocate ids for a span entered on this thread and push it on the open
/// stack. `None` when no trace is active.
pub(crate) fn enter_span() -> Option<Slot> {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let at = a.as_mut()?;
        let span_id = at.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = at.open.last().copied();
        at.open.push(span_id);
        Some(Slot {
            trace: at.inner.clone(),
            span_id,
            parent,
        })
    })
}

/// Complete a span: pop it from the open stack (when this thread still has
/// the same trace active) and sink the event into the trace buffer.
pub(crate) fn exit_span(slot: Slot, ev: SpanEvent) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(at) = a.as_mut() {
            if Arc::ptr_eq(&at.inner, &slot.trace) {
                if let Some(pos) = at.open.iter().rposition(|&id| id == slot.span_id) {
                    at.open.remove(pos);
                }
            }
        }
    });
    slot.trace.sink(ev);
}

/// Allocate ids for an instantaneous / pre-timed event (not pushed on the
/// open stack). `None` when no trace is active.
pub(crate) fn instant_slot() -> Option<Slot> {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let at = a.as_mut()?;
        let span_id = at.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = at.open.last().copied();
        Some(Slot {
            trace: at.inner.clone(),
            span_id,
            parent,
        })
    })
}

/// Sink an instantaneous event allocated via [`instant_slot`].
pub(crate) fn sink_instant(slot: Slot, ev: SpanEvent) {
    slot.trace.sink(ev);
}

/// A cheap, cloneable handle to an in-flight trace plus the span under
/// which work spawned from here should parent. Capture with
/// [`TraceCtx::current`] before handing work to another thread; install on
/// the worker with [`TraceCtx::install`].
#[derive(Clone)]
pub struct TraceCtx {
    inner: Arc<TraceInner>,
    parent: Option<u64>,
}

impl TraceCtx {
    /// Capture the trace active on this thread (and the innermost open
    /// span) for propagation. `None` when no trace is active.
    pub fn current() -> Option<TraceCtx> {
        ACTIVE.with(|a| {
            let a = a.borrow();
            a.as_ref().map(|at| TraceCtx {
                inner: at.inner.clone(),
                parent: at.open.last().copied(),
            })
        })
    }

    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// Adopt this trace on the current thread. Spans opened while the
    /// guard lives join the trace, parented under the captured span; the
    /// previously active trace (if any) is restored when the guard drops.
    pub fn install(&self) -> TraceGuard {
        let prev = ACTIVE.with(|a| {
            a.borrow_mut().replace(ActiveTrace {
                inner: self.inner.clone(),
                open: self.parent.into_iter().collect(),
            })
        });
        TraceGuard {
            prev: Some(prev),
            _not_send: PhantomData,
        }
    }
}

/// Restores the previously active trace on drop; see [`TraceCtx::install`].
pub struct TraceGuard {
    prev: Option<Option<ActiveTrace>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
}

/// Start a new trace rooted on this thread and make it active. Finish (or
/// drop) the handle on the same thread. When capture is globally disabled
/// the handle is inert and [`TraceHandle::finish`] returns an empty trace.
pub fn begin_trace() -> TraceHandle {
    if !capture_enabled() {
        return TraceHandle {
            inner: None,
            prev: None,
            installed: false,
            finished: false,
            _not_send: PhantomData,
        };
    }
    let parent_trace = ACTIVE.with(|a| a.borrow().as_ref().map(|at| at.inner.trace_id));
    let inner = Arc::new(TraceInner {
        trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        parent_trace,
        started: Instant::now(),
        next_span: AtomicU64::new(ROOT_SPAN_ID + 1),
        events: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    });
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(ActiveTrace {
            inner: inner.clone(),
            open: vec![ROOT_SPAN_ID],
        })
    });
    TraceHandle {
        inner: Some(inner),
        prev: Some(prev),
        installed: true,
        finished: false,
        _not_send: PhantomData,
    }
}

/// Owner of an in-flight trace; closing it assembles the tree.
pub struct TraceHandle {
    inner: Option<Arc<TraceInner>>,
    prev: Option<Option<ActiveTrace>>,
    installed: bool,
    finished: bool,
    _not_send: PhantomData<*const ()>,
}

impl TraceHandle {
    /// Whether this handle is actually capturing (capture globally on).
    pub fn is_capturing(&self) -> bool {
        self.inner.is_some()
    }

    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.trace_id)
    }

    /// Context for propagating this trace to workers spawned directly
    /// under the root (most callers should use [`TraceCtx::current`] at
    /// the spawn site instead, which parents under the innermost span).
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.inner.as_ref().map(|i| TraceCtx {
            inner: i.clone(),
            parent: Some(ROOT_SPAN_ID),
        })
    }

    fn restore(&mut self) {
        if self.installed {
            self.installed = false;
            if let Some(prev) = self.prev.take() {
                ACTIVE.with(|a| *a.borrow_mut() = prev);
            }
        }
    }

    /// Close the trace: restore the previously active trace, append the
    /// root span (stage [`crate::stage::QUERY`], duration `total`), sort
    /// events into entry order and recompute depths from parent links.
    pub fn finish(mut self, total: Duration) -> FinishedTrace {
        self.finished = true;
        self.restore();
        let Some(inner) = self.inner.take() else {
            return FinishedTrace {
                trace_id: 0,
                parent_trace: None,
                started: Instant::now(),
                total,
                events: Vec::new(),
                dropped: 0,
            };
        };
        let mut events = std::mem::take(&mut *inner.events.lock());
        events.push(SpanEvent {
            stage: stage::QUERY,
            label: None,
            detail: None,
            reason: None,
            start: inner.started,
            dur: total,
            depth: 0,
            trace_id: inner.trace_id,
            span_id: ROOT_SPAN_ID,
            parent: None,
            lane: lane_id(),
        });
        events.sort_by_key(|e| e.span_id);
        recompute_depths(&mut events);
        FinishedTrace {
            trace_id: inner.trace_id,
            parent_trace: inner.parent_trace,
            started: inner.started,
            total,
            events,
            dropped: inner.dropped.load(Ordering::Relaxed),
        }
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        if !self.finished {
            self.restore();
        }
    }
}

/// Fill in tree depths derived from parent links (events must be sorted by
/// `span_id`, so parents precede children).
fn recompute_depths(events: &mut [SpanEvent]) {
    let mut depth_of: HashMap<u64, u32> = HashMap::with_capacity(events.len());
    for ev in events.iter_mut() {
        let depth = match ev.parent {
            Some(p) => depth_of.get(&p).map(|d| d + 1).unwrap_or(0),
            None => 0,
        };
        ev.depth = depth;
        depth_of.insert(ev.span_id, depth);
    }
}

/// A closed trace: one connected tree of events in entry order.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// 0 when capture was disabled (events empty).
    pub trace_id: u64,
    /// Trace active on the driver thread when this one began (a batch or
    /// maintenance pass enclosing this query), if any.
    pub parent_trace: Option<u64>,
    pub started: Instant,
    pub total: Duration,
    /// Sorted by `span_id` (entry order across threads; parents before
    /// children), depths recomputed from parent links.
    pub events: Vec<SpanEvent>,
    /// Events discarded because the trace buffer hit
    /// [`TRACE_EVENT_CAPACITY`].
    pub dropped: u64,
}

impl FinishedTrace {
    pub fn is_captured(&self) -> bool {
        self.trace_id != 0
    }
}
