//! The literal query cache.
//!
//! Sect. 3.2: "The literal query cache contains low-level queries ...; it is
//! keyed on the query text. It is used to match internal queries that end up
//! having the same textual representation but where a match could not be
//! proven upfront without performing complete query compilation. Predicate
//! simplification based on domains or join culling are some examples of this
//! scenario."

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tabviz_common::Chunk;
use tabviz_obs::{stage, Counter, Histogram, Registry};

struct Entry {
    result: Chunk,
    bytes: usize,
    created: Instant,
    last_used: Instant,
    use_count: u64,
    cost: Duration,
    /// Marked by [`LiteralCache::mark_source_stale`]: hidden from normal
    /// lookups, still available for degraded serving.
    stale: bool,
    /// Dependency tags (see [`crate::tags`]) for precise invalidation.
    tags: Vec<String>,
}

impl Entry {
    fn score(&self, now: Instant) -> f64 {
        let age = now.duration_since(self.created).as_secs_f64() + 1.0;
        let idle = now.duration_since(self.last_used).as_secs_f64() + 1.0;
        let cost = self.cost.as_secs_f64() * 1e3 + 1.0;
        cost * (self.use_count as f64 + 1.0) / (age * idle)
    }
}

#[derive(Debug, Clone, Default)]
pub struct LiteralStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Degraded lookups answered from an entry marked stale.
    pub stale_serves: u64,
}

/// Live counters, one cell each, outside the entry-map mutex (see the
/// matching comment in `intelligent.rs`); [`LiteralCache::bind_obs`] exports
/// these same cells.
#[derive(Default)]
struct Counters {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    evictions: Counter,
    stale_serves: Counter,
}

impl Counters {
    /// Every cell with the name it is exported under.
    fn named(&self) -> [(&'static str, &Counter); 5] {
        [
            ("tv_cache_literal_hits_total", &self.hits),
            ("tv_cache_literal_misses_total", &self.misses),
            ("tv_cache_literal_inserts_total", &self.inserts),
            ("tv_cache_literal_evictions_total", &self.evictions),
            ("tv_cache_literal_stale_serves_total", &self.stale_serves),
        ]
    }
}

struct Inner {
    entries: HashMap<String, Entry>,
    bytes: usize,
}

/// Text-keyed result cache. Keys include the source name so identical SQL
/// against different servers never collides.
pub struct LiteralCache {
    capacity_bytes: usize,
    inner: Mutex<Inner>,
    counters: Counters,
    /// The cross-cache `tv_cache_stale_age_seconds` histogram, once bound.
    stale_age: OnceLock<Histogram>,
}

impl Default for LiteralCache {
    fn default() -> Self {
        Self::new(64 << 20)
    }
}

impl LiteralCache {
    pub fn new(capacity_bytes: usize) -> Self {
        LiteralCache {
            capacity_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                bytes: 0,
            }),
            counters: Counters::default(),
            stale_age: OnceLock::new(),
        }
    }

    /// Export this cache's counters under their `tv_cache_literal_*` names
    /// and resolve the shared `tv_cache_stale_age_seconds` histogram (the
    /// first registry bound keeps receiving the histogram samples).
    pub fn bind_obs(&self, registry: &Registry) {
        for (name, cell) in self.counters.named() {
            registry.register_counter(name, cell);
        }
        let _ = self
            .stale_age
            .set(registry.histogram("tv_cache_stale_age_seconds"));
    }

    fn key(source: &str, text: &str) -> String {
        format!("{source}\u{1}{text}")
    }

    pub fn get(&self, source: &str, text: &str) -> Option<Chunk> {
        self.get_explained(source, text).0
    }

    /// [`LiteralCache::get`] with decision attribution: also returns the
    /// verdict reason code (see [`tabviz_obs::reason`]).
    pub fn get_explained(&self, source: &str, text: &str) -> (Option<Chunk>, &'static str) {
        let mut inner = self.inner.lock();
        let key = Self::key(source, text);
        match inner.entries.get_mut(&key) {
            Some(e) if !e.stale => {
                e.use_count += 1;
                e.last_used = Instant::now();
                let out = e.result.clone();
                self.counters.hits.inc();
                (Some(out), tabviz_obs::reason::LITERAL_HIT)
            }
            _ => {
                self.counters.misses.inc();
                (None, tabviz_obs::reason::LITERAL_MISS)
            }
        }
    }

    /// Degraded-path lookup: serves entries even when stale. Counts as a
    /// `stale_serves` hit, never as a miss (the normal lookup already
    /// recorded the miss).
    pub fn get_stale(&self, source: &str, text: &str) -> Option<Chunk> {
        let mut inner = self.inner.lock();
        let key = Self::key(source, text);
        let e = inner.entries.get_mut(&key)?;
        e.use_count += 1;
        e.last_used = Instant::now();
        let out = e.result.clone();
        let age = e.created.elapsed();
        self.counters.stale_serves.inc();
        if let Some(h) = self.stale_age.get() {
            h.observe(age);
        }
        tabviz_obs::event_with(
            stage::STALE_SERVE,
            Some("literal"),
            Some(age.as_micros().min(u64::MAX as u128) as u64),
            Some(tabviz_obs::reason::LITERAL_STALE),
        );
        Some(out)
    }

    pub fn put(&self, source: &str, text: &str, result: Chunk, cost: Duration) {
        self.put_tagged(
            source,
            text,
            result,
            cost,
            vec![crate::tags::source_tag(source)],
        );
    }

    /// [`LiteralCache::put`] with explicit dependency tags (the caller
    /// knows which tables the query reads; a bare `put` only carries the
    /// source tag).
    pub fn put_tagged(
        &self,
        source: &str,
        text: &str,
        result: Chunk,
        cost: Duration,
        tags: Vec<String>,
    ) {
        let bytes = result.approx_bytes();
        let mut inner = self.inner.lock();
        let key = Self::key(source, text);
        let now = Instant::now();
        if let Some(old) = inner.entries.insert(
            key,
            Entry {
                result,
                bytes,
                created: now,
                last_used: now,
                use_count: 0,
                cost,
                stale: false,
                tags,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        self.counters.inserts.inc();
        while inner.bytes > self.capacity_bytes && inner.entries.len() > 1 {
            let now = Instant::now();
            let victim = inner
                .entries
                .iter()
                .min_by(|a, b| {
                    a.1.score(now)
                        .partial_cmp(&b.1.score(now))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            if let Some(e) = inner.entries.remove(&k) {
                inner.bytes -= e.bytes;
                self.counters.evictions.inc();
            }
        }
    }

    /// Mark every entry of a source stale (refresh while the backend is
    /// unreachable). Returns how many entries were newly marked.
    pub fn mark_source_stale(&self, source: &str) -> usize {
        let mut inner = self.inner.lock();
        let prefix = format!("{source}\u{1}");
        let mut marked = 0;
        for (k, e) in inner.entries.iter_mut() {
            if k.starts_with(&prefix) && !e.stale {
                e.stale = true;
                marked += 1;
            }
        }
        marked
    }

    pub fn purge_source(&self, source: &str) {
        let mut inner = self.inner.lock();
        let prefix = format!("{source}\u{1}");
        let keys: Vec<String> = inner
            .entries
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        for k in keys {
            if let Some(e) = inner.entries.remove(&k) {
                inner.bytes -= e.bytes;
            }
        }
    }

    /// Mark every entry carrying `tag` stale. Returns how many were newly
    /// marked.
    pub fn mark_tag_stale(&self, tag: &str) -> usize {
        let mut inner = self.inner.lock();
        let mut marked = 0;
        for e in inner.entries.values_mut() {
            if !e.stale && e.tags.iter().any(|t| t == tag) {
                e.stale = true;
                marked += 1;
            }
        }
        marked
    }

    /// Remove every entry carrying `tag`; returns how many were removed.
    pub fn purge_tag(&self, tag: &str) -> usize {
        let mut inner = self.inner.lock();
        let keys: Vec<String> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.tags.iter().any(|t| t == tag))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &keys {
            if let Some(e) = inner.entries.remove(k) {
                inner.bytes -= e.bytes;
            }
        }
        keys.len()
    }

    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.bytes = 0;
    }

    /// Lock-free snapshot of the live counters.
    pub fn stats(&self) -> LiteralStats {
        let c = &self.counters;
        LiteralStats {
            hits: c.hits.get(),
            misses: c.misses.get(),
            inserts: c.inserts.get(),
            evictions: c.evictions.get(),
            stale_serves: c.stale_serves.get(),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Snapshot entries as `(source, text, chunk, cost)` for persistence.
    pub fn snapshot(&self) -> Vec<(String, String, Chunk, Duration)> {
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .map(|(k, e)| {
                let (source, text) = k.split_once('\u{1}').unwrap_or(("", k));
                (
                    source.to_string(),
                    text.to_string(),
                    e.result.clone(),
                    e.cost,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema, Value};

    fn chunk(n: usize) -> Chunk {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i as i64)]).collect();
        Chunk::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn hit_and_miss() {
        let c = LiteralCache::default();
        assert!(c.get("s", "SELECT 1").is_none());
        c.put("s", "SELECT 1", chunk(1), Duration::from_millis(5));
        assert_eq!(c.get("s", "SELECT 1").unwrap().len(), 1);
        let st = c.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn sources_are_isolated() {
        let c = LiteralCache::default();
        c.put("s1", "Q", chunk(1), Duration::from_millis(5));
        assert!(c.get("s2", "Q").is_none());
        c.purge_source("s1");
        assert!(c.get("s1", "Q").is_none());
    }

    #[test]
    fn replacement_updates_bytes() {
        let c = LiteralCache::default();
        c.put("s", "Q", chunk(100), Duration::from_millis(5));
        let b1 = c.bytes();
        c.put("s", "Q", chunk(10), Duration::from_millis(5));
        assert!(c.bytes() < b1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_prefers_cheap_idle_entries() {
        let c = LiteralCache::new(4000);
        c.put("s", "expensive", chunk(100), Duration::from_secs(2));
        for i in 0..20 {
            c.put(
                "s",
                &format!("cheap{i}"),
                chunk(100),
                Duration::from_micros(10),
            );
        }
        assert!(c.stats().evictions > 0);
        assert!(
            c.get("s", "expensive").is_some(),
            "high re-evaluation cost should survive eviction"
        );
    }
}
