//! The two cache levels combined.
//!
//! The lookup path mirrors Sect. 3.2: structural (intelligent) matching
//! first; if that fails the query is compiled to text and the literal cache
//! is consulted; only then does the query go to the backend. Both levels are
//! populated on the way back.
//!
//! Together the pair forms **L1** of the multi-tier hierarchy. An optional
//! shared **L2** ([`crate::tier::L2Cache`]) can be attached with
//! [`QueryCaches::set_l2`]: the processor consults it after both L1 probes
//! miss, promotes L2 hits into L1, and publishes fresh backend results to
//! both tiers with dependency tags (see [`crate::tags`]).

use crate::intelligent::{CacheConfig, IntelligentCache, IntelligentStats};
use crate::literal::{LiteralCache, LiteralStats};
use crate::spec::QuerySpec;
use crate::tier::L2Cache;
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;
use tabviz_common::Chunk;
use tabviz_obs::{Counter, Registry};

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    IntelligentHit,
    LiteralHit,
    Miss,
}

/// Lock-free snapshot of the tier-boundary counters: traffic crossing the
/// L1→L2 seam plus precise-invalidation and warm-start work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// L2 probes that returned (and decoded) a value.
    pub l2_hits: u64,
    /// L2 probes that came back empty (or undecodable).
    pub l2_misses: u64,
    /// L2 hits copied forward into L1.
    pub promotes: u64,
    /// Fresh backend results published to L2.
    pub l2_stores: u64,
    /// Entries removed by tag-scoped purges (both tiers summed).
    pub tag_purged: u64,
    /// Entries seeded into L1 by cache warming (node join / restart).
    pub warmed: u64,
}

/// The live seam counters, one cell each; [`QueryCaches::bind_obs`] exports
/// these same cells.
#[derive(Default)]
struct TierCounters {
    l2_hits: Counter,
    l2_misses: Counter,
    promotes: Counter,
    l2_stores: Counter,
    tag_purged: Counter,
    warmed: Counter,
}

impl TierCounters {
    /// Every cell with the name it is exported under.
    fn named(&self) -> [(&'static str, &Counter); 6] {
        [
            ("tv_cache_tier_l2_hits_total", &self.l2_hits),
            ("tv_cache_tier_l2_misses_total", &self.l2_misses),
            ("tv_cache_tier_promotes_total", &self.promotes),
            ("tv_cache_tier_stores_total", &self.l2_stores),
            ("tv_cache_tier_tag_purged_total", &self.tag_purged),
            ("tv_cache_tier_warmed_total", &self.warmed),
        ]
    }
}

/// Intelligent + literal cache pair (L1), with an optional shared L2 tier.
#[derive(Default)]
pub struct QueryCaches {
    pub intelligent: IntelligentCache,
    pub literal: LiteralCache,
    l2: RwLock<Option<Arc<dyn L2Cache>>>,
    tier: TierCounters,
}

impl QueryCaches {
    pub fn new(config: CacheConfig, literal_capacity: usize) -> Self {
        QueryCaches {
            intelligent: IntelligentCache::new(config),
            literal: LiteralCache::new(literal_capacity),
            l2: RwLock::new(None),
            tier: TierCounters::default(),
        }
    }

    /// Export both levels' `tv_cache_*` counters (plus the `tv_cache_tier_*`
    /// seam counters) on a registry: the cells [`QueryCaches::stats`] and
    /// [`QueryCaches::tier_stats`] read, so counts made before binding show.
    pub fn bind_obs(&self, registry: &Registry) {
        self.intelligent.bind_obs(registry);
        self.literal.bind_obs(registry);
        for (name, cell) in self.tier.named() {
            registry.register_counter(name, cell);
        }
    }

    /// Attach (or replace) the shared L2 tier. Standalone deployments use
    /// [`crate::tier::SingleStoreL2`]; the cluster injects its ring-routed
    /// peer tier at node attach time.
    pub fn set_l2(&self, l2: Arc<dyn L2Cache>) {
        *self.l2.write() = Some(l2);
    }

    /// The attached L2 tier, if any.
    pub fn l2(&self) -> Option<Arc<dyn L2Cache>> {
        self.l2.read().clone()
    }

    pub fn has_l2(&self) -> bool {
        self.l2.read().is_some()
    }

    /// The L2 key for a spec: its full canonical text (source included).
    /// RLS is preserved because [`QuerySpec`] carries the user's row-level
    /// filters folded into `filters` — users with different entitlements
    /// canonicalize to different keys, equivalent ones share.
    pub fn l2_key(spec: &QuerySpec) -> String {
        spec.canonical_text()
    }

    /// Probe L2 for an exact canonical match. Counts a hit only when the
    /// payload also decodes; transport faults and codec damage both read as
    /// misses so the caller can fall through to the backend.
    pub fn l2_lookup(&self, spec: &QuerySpec) -> Option<Chunk> {
        let l2 = self.l2()?;
        match l2
            .get(&Self::l2_key(spec))
            .and_then(|raw| crate::distributed::decode_chunk(&raw).ok())
        {
            Some(chunk) => {
                self.tier.l2_hits.inc();
                Some(chunk)
            }
            None => {
                self.tier.l2_misses.inc();
                None
            }
        }
    }

    /// Copy an L2 hit forward into both L1 levels so the next request on
    /// this node is answered locally (and subsumption can reuse it).
    pub fn l2_promote(&self, spec: QuerySpec, text: &str, result: &Chunk, cost: Duration) {
        self.tier.promotes.inc();
        self.store(spec, text, result, cost);
    }

    /// Publish a fresh backend result to L2 under its canonical key, tagged
    /// with its source + table dependencies. No-op without an attached L2.
    pub fn l2_store(&self, spec: &QuerySpec, result: &Chunk) {
        let Some(l2) = self.l2() else { return };
        let Ok(raw) = crate::distributed::encode_chunk(result) else {
            return;
        };
        l2.put(&Self::l2_key(spec), raw, &crate::tags::tags_for_spec(spec));
        self.tier.l2_stores.inc();
    }

    /// Seed L1 with an entry replayed from another node's hot set (cache
    /// warming on node join). Counted separately from organic stores.
    pub fn warm(&self, spec: QuerySpec, result: &Chunk, cost: Duration) {
        self.tier.warmed.inc();
        self.intelligent.put(spec, result.clone(), cost);
    }

    /// Purge every entry (both tiers) that depends on `source.table` —
    /// the precise replacement for wholesale source purges when a single
    /// table refreshes. Returns entries removed.
    pub fn purge_table(&self, source: &str, table: &str) -> usize {
        self.purge_tag(&crate::tags::table_tag(source, table))
    }

    /// Demote (to stale) every L1 entry depending on `source.table`,
    /// keeping it available for degraded/SWR serving, and purge the L2
    /// copies (L2 has no stale state — a dropped entry is just a miss).
    pub fn mark_table_stale(&self, source: &str, table: &str) -> usize {
        let tag = crate::tags::table_tag(source, table);
        let marked = self.intelligent.mark_tag_stale(&tag) + self.literal.mark_tag_stale(&tag);
        if let Some(l2) = self.l2() {
            let purged = l2.purge_tag(&tag);
            self.count_tag_purged(purged);
        }
        marked
    }

    /// Purge every entry carrying `tag` from both tiers. Returns entries
    /// removed.
    pub fn purge_tag(&self, tag: &str) -> usize {
        let mut purged = self.intelligent.purge_tag(tag) + self.literal.purge_tag(tag);
        if let Some(l2) = self.l2() {
            purged += l2.purge_tag(tag);
        }
        self.count_tag_purged(purged);
        purged
    }

    fn count_tag_purged(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.tier.tag_purged.add(n as u64);
    }

    /// Tier-boundary counters snapshot.
    pub fn tier_stats(&self) -> TierStats {
        let t = &self.tier;
        TierStats {
            l2_hits: t.l2_hits.get(),
            l2_misses: t.l2_misses.get(),
            promotes: t.promotes.get(),
            l2_stores: t.l2_stores.get(),
            tag_purged: t.tag_purged.get(),
            warmed: t.warmed.get(),
        }
    }

    /// Two-level lookup. `text` is the compiled query text (produced anyway
    /// before dispatch, so the literal probe is free).
    pub fn lookup(&self, spec: &QuerySpec, text: &str) -> (Option<Chunk>, CacheOutcome) {
        if let Some(hit) = self.intelligent.get(spec) {
            return (Some(hit), CacheOutcome::IntelligentHit);
        }
        if let Some(hit) = self.literal.get(&spec.source, text) {
            return (Some(hit), CacheOutcome::LiteralHit);
        }
        (None, CacheOutcome::Miss)
    }

    /// Record a freshly computed result in both levels, tagged with the
    /// spec's source + table dependencies so either tag scope can find it.
    pub fn store(&self, spec: QuerySpec, text: &str, result: &Chunk, cost: Duration) {
        let tags = crate::tags::tags_for_spec(&spec);
        self.literal
            .put_tagged(&spec.source, text, result.clone(), cost, tags);
        self.intelligent.put(spec, result.clone(), cost);
    }

    /// Degraded two-level lookup: consulted only after the backend failed,
    /// it also serves entries marked stale. The caller is responsible for
    /// flagging the answer as stale to the user.
    pub fn lookup_stale(&self, spec: &QuerySpec, text: &str) -> Option<Chunk> {
        if let Some(hit) = self.intelligent.get_stale(spec) {
            return Some(hit);
        }
        self.literal.get_stale(&spec.source, text)
    }

    /// Source refreshed while its backend is unreachable: demote both
    /// levels' entries to stale instead of purging, keeping them available
    /// for degraded serving. Returns how many entries were marked.
    pub fn mark_source_stale(&self, source: &str) -> usize {
        self.intelligent.mark_source_stale(source) + self.literal.mark_source_stale(source)
    }

    /// Stale intelligent-cache entries (spec + age), oldest first — the
    /// revalidation lane's work list. Literal entries are not listed: a
    /// revalidated spec refreshes the literal level as a side effect.
    pub fn stale_entries(&self) -> Vec<(QuerySpec, std::time::Duration)> {
        self.intelligent.stale_entries()
    }

    /// Connection closed/refreshed: purge both L1 levels for the source,
    /// and the shared L2 via its source tag.
    pub fn purge_source(&self, source: &str) {
        self.intelligent.purge_source(source);
        self.literal.purge_source(source);
        if let Some(l2) = self.l2() {
            let purged = l2.purge_tag(&crate::tags::source_tag(source));
            self.count_tag_purged(purged);
        }
    }

    pub fn clear(&self) {
        self.intelligent.clear();
        self.literal.clear();
    }

    pub fn stats(&self) -> (IntelligentStats, LiteralStats) {
        (self.intelligent.stats(), self.literal.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_tql::expr::col;
    use tabviz_tql::{AggCall, AggFunc, LogicalPlan};

    fn spec() -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    }

    fn chunk() -> Chunk {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("n", DataType::Int),
            ])
            .unwrap(),
        );
        Chunk::from_rows(schema, &[vec!["AA".into(), Value::Int(7)]]).unwrap()
    }

    #[test]
    fn lookup_order_intelligent_first() {
        let caches = QueryCaches::new(
            CacheConfig {
                min_cost: Duration::ZERO,
                ..Default::default()
            },
            1 << 20,
        );
        let (none, outcome) = caches.lookup(&spec(), "SQL");
        assert!(none.is_none());
        assert_eq!(outcome, CacheOutcome::Miss);
        caches.store(spec(), "SQL", &chunk(), Duration::from_millis(5));
        let (hit, outcome) = caches.lookup(&spec(), "SQL");
        assert!(hit.is_some());
        assert_eq!(outcome, CacheOutcome::IntelligentHit);
    }

    #[test]
    fn literal_catches_post_compilation_collisions() {
        let caches = QueryCaches::new(
            CacheConfig {
                min_cost: Duration::ZERO,
                ..Default::default()
            },
            1 << 20,
        );
        caches.store(spec(), "SELECT ...", &chunk(), Duration::from_millis(5));
        // A structurally different spec (different relation ⇒ intelligent
        // miss) that compiled to the same text — e.g. after join culling.
        let other = QuerySpec::new("faa", LogicalPlan::scan("flights_joined"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let (hit, outcome) = caches.lookup(&other, "SELECT ...");
        assert!(hit.is_some());
        assert_eq!(outcome, CacheOutcome::LiteralHit);
    }

    #[test]
    fn purge_source_affects_both() {
        let caches = QueryCaches::new(
            CacheConfig {
                min_cost: Duration::ZERO,
                ..Default::default()
            },
            1 << 20,
        );
        caches.store(spec(), "SQL", &chunk(), Duration::from_millis(5));
        caches.purge_source("faa");
        let (hit, _) = caches.lookup(&spec(), "SQL");
        assert!(hit.is_none());
    }

    #[test]
    fn stale_entries_hide_from_lookup_but_serve_degraded() {
        let caches = QueryCaches::new(
            CacheConfig {
                min_cost: Duration::ZERO,
                ..Default::default()
            },
            1 << 20,
        );
        caches.store(spec(), "SQL", &chunk(), Duration::from_millis(5));
        assert_eq!(caches.mark_source_stale("faa"), 2); // both levels
                                                        // Normal lookup refuses stale data.
        let (hit, outcome) = caches.lookup(&spec(), "SQL");
        assert!(hit.is_none());
        assert_eq!(outcome, CacheOutcome::Miss);
        // The degraded path still serves it.
        let stale = caches.lookup_stale(&spec(), "SQL").unwrap();
        assert_eq!(stale.row(0)[1], Value::Int(7));
        assert_eq!(caches.intelligent.stats().stale_serves, 1);
        // A fresh store supersedes the stale entry for normal lookups.
        caches.store(spec(), "SQL", &chunk(), Duration::from_millis(5));
        let (hit, _) = caches.lookup(&spec(), "SQL");
        assert!(hit.is_some());
        // Other sources are untouched by the marking.
        let other = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        caches.store(other.clone(), "W", &chunk(), Duration::from_millis(5));
        caches.mark_source_stale("faa");
        let (hit, _) = caches.lookup(&other, "W");
        assert!(hit.is_some());
    }

    #[test]
    fn literal_stale_marking() {
        let c = crate::literal::LiteralCache::default();
        c.put("s", "Q", chunk(), Duration::from_millis(5));
        assert_eq!(c.mark_source_stale("s"), 1);
        assert_eq!(c.mark_source_stale("s"), 0, "already stale");
        assert!(c.get("s", "Q").is_none());
        assert!(c.get_stale("s", "Q").is_some());
        assert!(c.get_stale("s", "missing").is_none());
        assert_eq!(c.stats().stale_serves, 1);
    }

    #[test]
    fn l2_round_trip_promote_and_tag_purge() {
        use crate::distributed::ExternalStore;
        use crate::tier::SingleStoreL2;
        let caches = QueryCaches::new(
            CacheConfig {
                min_cost: Duration::ZERO,
                ..Default::default()
            },
            1 << 20,
        );
        // No L2 attached: probe is a no-op, not a counted miss.
        assert!(caches.l2_lookup(&spec()).is_none());
        assert_eq!(caches.tier_stats(), TierStats::default());

        let store = Arc::new(ExternalStore::new(Duration::ZERO));
        caches.set_l2(Arc::new(SingleStoreL2::new(store)));
        assert!(caches.l2_lookup(&spec()).is_none());
        assert_eq!(caches.tier_stats().l2_misses, 1);

        caches.l2_store(&spec(), &chunk());
        let hit = caches.l2_lookup(&spec()).expect("published to L2");
        assert_eq!(hit.row(0)[1], Value::Int(7));
        caches.l2_promote(spec(), "SQL", &hit, Duration::from_millis(5));
        let (l1, outcome) = caches.lookup(&spec(), "SQL");
        assert!(l1.is_some());
        assert_eq!(outcome, CacheOutcome::IntelligentHit);
        let stats = caches.tier_stats();
        assert_eq!((stats.l2_hits, stats.l2_stores, stats.promotes), (1, 1, 1));

        // A table-scoped purge clears both tiers.
        assert!(caches.purge_table("faa", "flights") >= 2);
        assert!(caches.l2_lookup(&spec()).is_none());
        let (l1, _) = caches.lookup(&spec(), "SQL");
        assert!(l1.is_none());
        assert!(caches.tier_stats().tag_purged >= 2);
    }

    #[test]
    fn mark_table_stale_keeps_l1_for_degraded_serving() {
        use crate::distributed::ExternalStore;
        use crate::tier::SingleStoreL2;
        let caches = QueryCaches::new(
            CacheConfig {
                min_cost: Duration::ZERO,
                ..Default::default()
            },
            1 << 20,
        );
        caches.set_l2(Arc::new(SingleStoreL2::new(Arc::new(ExternalStore::new(
            Duration::ZERO,
        )))));
        caches.store(spec(), "SQL", &chunk(), Duration::from_millis(5));
        caches.l2_store(&spec(), &chunk());
        assert_eq!(caches.mark_table_stale("faa", "flights"), 2);
        // L1 demoted, still reachable degraded; L2 copy dropped outright.
        let (hit, _) = caches.lookup(&spec(), "SQL");
        assert!(hit.is_none());
        assert!(caches.lookup_stale(&spec(), "SQL").is_some());
        assert!(caches.l2_lookup(&spec()).is_none());
    }

    #[test]
    fn agg_arg_reuse_via_avg() {
        // A stored SUM+COUNT query answers a later AVG request — the paper's
        // "query processor might choose to adjust queries before sending, in
        // order to make the results more useful for future reuse".
        let caches = QueryCaches::new(
            CacheConfig {
                min_cost: Duration::ZERO,
                ..Default::default()
            },
            1 << 20,
        );
        let stored = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "s"))
            .agg(AggCall::new(AggFunc::Count, Some(col("delay")), "c"));
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("s", DataType::Int),
                Field::new("c", DataType::Int),
            ])
            .unwrap(),
        );
        let data = Chunk::from_rows(
            schema,
            &[vec!["AA".into(), Value::Int(100), Value::Int(20)]],
        )
        .unwrap();
        caches.store(stored, "Q1", &data, Duration::from_millis(5));
        let avg_req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Avg, Some(col("delay")), "a"));
        let (hit, outcome) = caches.lookup(&avg_req, "Q2");
        assert_eq!(outcome, CacheOutcome::IntelligentHit);
        assert_eq!(hit.unwrap().row(0)[1], Value::Real(5.0));
    }
}
