//! Span nesting and ordering determinism: events reach the trace at span
//! *completion* (children before parents), but a finished trace restores
//! entry order and exact depths. Outside a trace, spans are inert.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use tabviz_obs::trace::{active_trace_id, TRACE_EVENT_CAPACITY};
use tabviz_obs::{begin_trace, event, record, span, stage, ProfileOutcome, RecordedTrace};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations per thread, so `cargo test`'s parallel threads do not
/// disturb each other's counts.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn nesting_depths_and_entry_order_are_deterministic() {
    let trace = begin_trace();
    {
        let _root = span(stage::REMOTE_EXEC);
        {
            let mut acquire = span(stage::POOL_ACQUIRE);
            acquire.label("opened");
        }
        {
            let mut post = span(stage::POST_PROCESS);
            post.detail(42);
            let _inner = span(stage::TDE_EXEC);
        }
    }
    let events = trace.finish(Duration::from_secs(1)).events;
    let shape: Vec<(&str, u32)> = events.iter().map(|e| (e.stage, e.depth)).collect();
    assert_eq!(
        shape,
        [
            (stage::QUERY, 0),
            (stage::REMOTE_EXEC, 1),
            (stage::POOL_ACQUIRE, 2),
            (stage::POST_PROCESS, 2),
            (stage::TDE_EXEC, 3),
        ]
    );
    assert_eq!(events[2].label, Some("opened"));
    assert_eq!(events[3].detail, Some(42));
    // Entry order is strictly increasing even though completion order was
    // child-first.
    for w in events.windows(2) {
        assert!(w[0].span_id < w[1].span_id);
    }
    // The parent span encloses its children in time.
    assert!(events[1].dur >= events[2].dur + events[4].dur);
}

#[test]
fn instantaneous_events_interleave_in_order() {
    let trace = begin_trace();
    {
        let _s = span(stage::REMOTE_EXEC);
        event(stage::RETRY, None, Some(1));
        event(
            stage::FAULT_INJECTED,
            Some("transient_query_failure"),
            Some(7),
        );
    }
    let events = trace.finish(Duration::from_secs(1)).events;
    let stages: Vec<&str> = events.iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        [
            stage::QUERY,
            stage::REMOTE_EXEC,
            stage::RETRY,
            stage::FAULT_INJECTED
        ]
    );
    assert_eq!(events[2].depth, 2);
    assert_eq!(events[2].dur, Duration::ZERO);
    assert_eq!(events[3].label, Some("transient_query_failure"));
    assert_eq!(events[3].detail, Some(7));
}

#[test]
fn traces_scope_collection_and_nest() {
    {
        let _old = span(stage::CACHE_LOOKUP);
    }
    let outer = begin_trace();
    {
        let _a = span(stage::COMPILE);
    }
    let inner = begin_trace();
    {
        let _b = span(stage::WIDEN);
    }
    // The inner trace sees only the span entered while it was active and
    // links back to the trace that enclosed it.
    let inner = inner.finish(Duration::from_secs(1));
    let stages: Vec<&str> = inner.events.iter().map(|e| e.stage).collect();
    assert_eq!(stages, [stage::QUERY, stage::WIDEN]);
    assert_eq!(inner.parent_trace, outer.trace_id());
    // Finishing it made the outer trace active again; the span from before
    // any trace began was never collected.
    {
        let _c = span(stage::CACHE_STORE);
    }
    let outer = outer.finish(Duration::from_secs(1));
    let stages: Vec<&str> = outer.events.iter().map(|e| e.stage).collect();
    assert_eq!(stages, [stage::QUERY, stage::COMPILE, stage::CACHE_STORE]);
}

#[test]
fn spans_and_events_outside_a_trace_are_inert() {
    assert!(active_trace_id().is_none());
    let before = ALLOCS.with(Cell::get);
    {
        let mut s = span(stage::COMPILE);
        s.label("untraced");
        s.detail(1);
        event(stage::RETRY, Some("transient"), Some(1));
        record(stage::TDE_EXEC, None, None, Duration::from_millis(1));
    }
    assert_eq!(ALLOCS.with(Cell::get), before, "an untraced span allocated");
    // Nothing was kept anywhere a later trace could pick it up.
    let events = begin_trace().finish(Duration::ZERO).events;
    let stages: Vec<&str> = events.iter().map(|e| e.stage).collect();
    assert_eq!(stages, [stage::QUERY]);
}

#[test]
fn trace_buffer_is_bounded() {
    let trace = begin_trace();
    for _ in 0..(TRACE_EVENT_CAPACITY + 100) {
        event(stage::RETRY, None, None);
    }
    let finished = trace.finish(Duration::from_secs(1));
    // The buffer's worth of events plus the root span appended at finish.
    assert_eq!(finished.events.len(), TRACE_EVENT_CAPACITY + 1);
    let recorded = RecordedTrace::from_finished(finished, "q", "s", ProfileOutcome::Remote);
    assert_eq!(recorded.dropped_events, 100);
}

#[test]
fn recorded_trace_reads_retries_faults_and_renders() {
    let trace = begin_trace();
    {
        let _root = span(stage::REMOTE_EXEC);
        event(stage::FAULT_INJECTED, Some("connection_drop"), Some(3));
        event(stage::RETRY, Some("transient"), Some(1));
    }
    let p = RecordedTrace::from_finished(
        trace.finish(Duration::from_millis(5)),
        "(scan flights)",
        "faa",
        ProfileOutcome::Remote,
    );
    assert_eq!(p.outcome, ProfileOutcome::Remote);
    assert!(p.has_stage(stage::REMOTE_EXEC));
    assert_eq!(p.retries(), 1);
    let faults = p.faults();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].site, "connection_drop");
    assert_eq!(faults[0].ordinal, 3);
    assert!(p.render().contains("fault connection_drop#3"));
    assert!(p.render().contains("retries=1"));
}
