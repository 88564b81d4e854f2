//! The literal query cache.
//!
//! Sect. 3.2: "The literal query cache contains low-level queries ...; it is
//! keyed on the query text. It is used to match internal queries that end up
//! having the same textual representation but where a match could not be
//! proven upfront without performing complete query compilation. Predicate
//! simplification based on domains or join culling are some examples of this
//! scenario."
//!
//! The literal level is a second way to *find* a cached result, not a second
//! store: it reads the intelligent cache's entries through their text key
//! (`(source, compiled text)`, set by [`crate::QueryCaches::store`]). Each
//! result is held, admitted, evicted and invalidated once, by the
//! intelligent cache; this module keeps the level's lookups and counters.

use crate::intelligent::{IntelligentCache, TextIndex};
use std::sync::OnceLock;
use tabviz_common::Chunk;
use tabviz_obs::{stage, Counter, Histogram, Registry};

#[derive(Debug, Clone, Default)]
pub struct LiteralStats {
    pub hits: u64,
    pub misses: u64,
    /// Text keys stored with an admitted entry.
    pub inserts: u64,
    /// Text keys lost with an evicted entry.
    pub evictions: u64,
    /// Degraded lookups answered from an entry marked stale.
    pub stale_serves: u64,
}

/// Text-keyed lookups over the intelligent cache's entries.
pub struct LiteralCache {
    index: TextIndex,
    hits: Counter,
    misses: Counter,
    stale_serves: Counter,
    /// The cross-cache `tv_cache_stale_age_seconds` histogram, once bound.
    stale_age: OnceLock<Histogram>,
}

impl LiteralCache {
    /// The literal level over `intelligent`'s entries.
    pub(crate) fn over(intelligent: &IntelligentCache) -> Self {
        LiteralCache {
            index: intelligent.text_index(),
            hits: Counter::default(),
            misses: Counter::default(),
            stale_serves: Counter::default(),
            stale_age: OnceLock::new(),
        }
    }

    /// Every counter cell with the name it is exported under.
    fn named(&self) -> [(&'static str, &Counter); 5] {
        let text = &self.index.counters;
        [
            ("tv_cache_literal_hits_total", &self.hits),
            ("tv_cache_literal_misses_total", &self.misses),
            ("tv_cache_literal_inserts_total", &text.inserts),
            ("tv_cache_literal_evictions_total", &text.evictions),
            ("tv_cache_literal_stale_serves_total", &self.stale_serves),
        ]
    }

    /// Export this level's counters under their `tv_cache_literal_*` names
    /// and resolve the shared `tv_cache_stale_age_seconds` histogram (the
    /// first registry bound keeps receiving the histogram samples).
    pub fn bind_obs(&self, registry: &Registry) {
        for (name, cell) in self.named() {
            registry.register_counter(name, cell);
        }
        let _ = self
            .stale_age
            .set(registry.histogram("tv_cache_stale_age_seconds"));
    }

    pub fn get(&self, source: &str, text: &str) -> Option<Chunk> {
        self.get_explained(source, text).0
    }

    /// [`LiteralCache::get`] with decision attribution: also returns the
    /// verdict reason code (see [`tabviz_obs::reason`]). A stale entry
    /// misses here.
    pub fn get_explained(&self, source: &str, text: &str) -> (Option<Chunk>, &'static str) {
        match self.index.get(source, text, false) {
            Some((out, _)) => {
                self.hits.inc();
                (Some(out), tabviz_obs::reason::LITERAL_HIT)
            }
            None => {
                self.misses.inc();
                (None, tabviz_obs::reason::LITERAL_MISS)
            }
        }
    }

    /// Degraded-path lookup: serves entries even when stale. Counts as a
    /// `stale_serves` hit, never as a miss (the normal lookup already
    /// recorded the miss).
    pub fn get_stale(&self, source: &str, text: &str) -> Option<Chunk> {
        let (out, created) = self.index.get(source, text, true)?;
        let age = created.elapsed();
        self.stale_serves.inc();
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

    /// Lock-free snapshot of the live counters.
    pub fn stats(&self) -> LiteralStats {
        let text = &self.index.counters;
        LiteralStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: text.inserts.get(),
            evictions: text.evictions.get(),
            stale_serves: self.stale_serves.get(),
        }
    }

    /// How many text keys are held: at most one per cached result.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use crate::intelligent::CacheConfig;
    use crate::{QueryCaches, QuerySpec};
    use std::sync::Arc;
    use std::time::Duration;
    use tabviz_common::{Chunk, DataType, Field, Schema, Value};
    use tabviz_tql::{AggCall, AggFunc, LogicalPlan};

    fn chunk(n: usize) -> Chunk {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i as i64)]).collect();
        Chunk::from_rows(schema, &rows).unwrap()
    }

    /// A distinct spec per `table`, so only the text key can match.
    fn spec(source: &str, table: &str) -> QuerySpec {
        QuerySpec::new(source, LogicalPlan::scan(table)).agg(AggCall::new(
            AggFunc::Count,
            None,
            "x",
        ))
    }

    fn caches(capacity_bytes: usize) -> QueryCaches {
        QueryCaches::new(CacheConfig {
            capacity_bytes,
            min_cost: Duration::ZERO,
            ..Default::default()
        })
    }

    #[test]
    fn hit_and_miss() {
        let c = caches(1 << 20);
        assert!(c.literal.get("s", "SELECT 1").is_none());
        c.store(
            spec("s", "t"),
            "SELECT 1",
            &chunk(1),
            Duration::from_millis(5),
        );
        assert_eq!(c.literal.get("s", "SELECT 1").unwrap().len(), 1);
        let st = c.literal.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.inserts, 1);
    }

    #[test]
    fn sources_are_isolated() {
        let c = caches(1 << 20);
        c.store(spec("s1", "t"), "Q", &chunk(1), Duration::from_millis(5));
        assert!(c.literal.get("s2", "Q").is_none());
        c.purge_source("s1");
        assert!(c.literal.get("s1", "Q").is_none());
        assert!(c.literal.is_empty());
    }

    #[test]
    fn replacement_updates_bytes() {
        // Two specs compiled to one text: the newest store owns the key, and
        // the older entry keeps serving by spec without it.
        let c = caches(1 << 20);
        c.store(spec("s", "a"), "Q", &chunk(100), Duration::from_millis(5));
        c.store(spec("s", "b"), "Q", &chunk(10), Duration::from_millis(5));
        assert_eq!(c.literal.len(), 1);
        assert_eq!(c.literal.get("s", "Q").unwrap().len(), 10);
        assert_eq!(c.purge_table("s", "b"), 1);
        assert!(c.literal.get("s", "Q").is_none());
        assert!(c.intelligent.get(&spec("s", "a")).is_some());
        assert!(c.literal.is_empty());
    }

    #[test]
    fn eviction_prefers_cheap_idle_entries() {
        let c = caches(4000);
        c.store(
            spec("s", "expensive"),
            "expensive",
            &chunk(100),
            Duration::from_secs(2),
        );
        for i in 0..20 {
            let text = format!("cheap{i}");
            c.store(
                spec("s", &text),
                &text,
                &chunk(100),
                Duration::from_micros(10),
            );
        }
        assert!(c.literal.stats().evictions > 0);
        assert_eq!(c.literal.len(), c.intelligent.len());
        assert!(
            c.literal.get("s", "expensive").is_some(),
            "high re-evaluation cost should survive eviction"
        );
    }
}
