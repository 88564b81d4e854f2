//! Spans recorded by the harness around its own calls into the program.
//!
//! Spans live in memory (one [`Lane`] per thread, no locks on the hot path)
//! and are written as JSON lines when the workload ends. A span's self time
//! is its duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tabviz::obs::json::escape;

#[derive(Debug, Clone)]
pub enum Attr {
    Num(f64),
    Text(String),
    Flag(bool),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent (a root).
    pub parent: u64,
    /// The interaction / query / probe this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, Attr)>,
}

/// Shared clock and id source for every lane of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }
}

impl Tracer {
    pub fn lane(&self) -> Lane<'_> {
        Lane {
            tracer: self,
            spans: Vec::new(),
            on: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle to an open span; `None` inside when the lane was off.
#[derive(Clone, Copy)]
pub struct SpanRef(Option<usize>);

impl SpanRef {
    pub const NONE: SpanRef = SpanRef(None);
}

/// One thread's span buffer.
pub struct Lane<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
    on: bool,
}

impl Lane<'_> {
    /// Switch recording on or off; while off every call is a no-op, so the
    /// untraced run and the untraced half of a traced run pay one branch.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, parent: SpanRef, op: u64, name: &'static str) -> SpanRef {
        if !self.on {
            return SpanRef(None);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = parent.0.map_or(0, |i| self.spans[i].id);
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.tracer.now_ns(),
            end_ns: 0,
            attrs: Vec::new(),
        });
        SpanRef(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, span: SpanRef) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.tracer.now_ns();
        }
    }

    pub fn attr(&mut self, span: SpanRef, key: &'static str, value: Attr) {
        if let Some(i) = span.0 {
            self.spans[i].attrs.push((key, value));
        }
    }

    /// Time `f` under a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: SpanRef,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(parent, op, name);
        let out = f();
        self.end(span);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One JSON object per line: `{id, parent, op, name, start_ns, end_ns, attrs}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
            s.id,
            s.parent,
            s.op,
            escape(s.name),
            s.start_ns,
            s.end_ns
        );
        for (i, (k, v)) in s.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape(k));
            match v {
                Attr::Num(n) => {
                    let _ = write!(out, "{n}");
                }
                Attr::Text(t) => {
                    let _ = write!(out, "\"{}\"", escape(t));
                }
                Attr::Flag(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        out.push_str("}}\n");
    }
    out
}

/// Total duration and total self time (duration minus children) per span
/// name, in nanoseconds, plus the span count.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_time.entry(s.parent).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
        let slot = out.entry(s.name).or_insert((0, 0, 0));
        slot.0 += dur;
        slot.1 += own;
        slot.2 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::default();
        let mut lane = tracer.lane();
        lane.set_on(true);
        let root = lane.begin(SpanRef::NONE, 7, "op");
        lane.time(root, 7, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        lane.attr(root, "ok", Attr::Flag(true));
        lane.end(root);
        let spans = lane.into_spans();
        let by_name = self_time_by_name(&spans);
        let (op_total, op_self, n) = by_name["op"];
        assert_eq!(n, 1);
        assert_eq!(op_total - op_self, by_name["child"].0);
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            tabviz::obs::json::parse(line).expect("valid json line");
        }
    }

    #[test]
    fn off_lane_records_nothing() {
        let tracer = Tracer::default();
        let mut lane = tracer.lane();
        let root = lane.begin(SpanRef::NONE, 1, "op");
        lane.end(root);
        assert!(lane.into_spans().is_empty());
    }
}
