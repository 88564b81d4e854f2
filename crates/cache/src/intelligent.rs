//! The intelligent (view-matching) query cache.
//!
//! Sect. 3.2: "The intelligent cache can be treated as a database
//! view-matching component. It keeps the application highly responsive as
//! long as covering data is available and can be post-processed. ... The
//! latter includes roll-up, filtering, calculation projection, and column
//! restriction."
//!
//! Matching rules (sound under the ASP query model):
//! * same source and identical relation (FROM) subtree;
//! * every cached filter conjunct is implied by some requested conjunct;
//! * the requested grouping is a subset of the cached grouping (roll-up);
//! * every requested aggregate is derivable: identical call when groupings
//!   match, a roll-up function otherwise (`SUM` of `SUM`s, `SUM` of
//!   `COUNT`s, `MIN`/`MAX` of themselves, `AVG` from cached `SUM`+`COUNT`);
//!   `COUNTD` only at identical grouping;
//! * residual filter conjuncts reference cached *group* columns only (a
//!   detail-level filter cannot be applied to aggregated rows);
//! * a cached Top-N result is reusable only for the structurally identical
//!   request (truncation loses rows).
//!
//! Post-processing executes a real TDE plan over the cached chunk, reusing
//! the tested engine rather than a second aggregation path.

use crate::implication::implies;
use crate::spec::QuerySpec;
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tabviz_common::{Chunk, Result, TvError};
use tabviz_obs::{stage, Counter, Histogram, Registry};
use tabviz_storage::{Database, Table};
use tabviz_tde::{ExecOptions, Tde};
use tabviz_tql::expr::{and_all, bin, col, lit, Expr, ScalarFunc};
use tabviz_tql::{write_expr, AggCall, AggFunc, BinOp, LogicalPlan};

/// How a requested aggregate is produced from the cached columns.
#[derive(Debug, Clone)]
enum AggSource {
    /// Same grouping: copy the cached column.
    Column(String),
    /// Coarser grouping: re-aggregate the cached column with this function.
    Rollup(AggFunc, String),
    /// AVG at coarser grouping: SUM(sum_col) / SUM(count_col).
    AvgOf { sum_col: String, cnt_col: String },
}

/// A successful match, ready for post-processing.
#[derive(Debug, Clone)]
struct MatchPlan {
    residual: Vec<Expr>,
    same_grouping: bool,
    sources: Vec<AggSource>,
}

/// One cached result.
struct Entry {
    /// Normalized, and kept inline: the bucket walk reads it per entry.
    spec: QuerySpec,
    /// Its key in the exact-spec index.
    spec_hash: u64,
    /// Shared so a lookup can take it out from under the lock for the
    /// price of a reference count.
    result: Arc<Chunk>,
    bytes: usize,
    created: Instant,
    last_used: Instant,
    use_count: u64,
    /// What re-evaluating this query cost (eviction prefers keeping
    /// expensive entries).
    cost: Duration,
    /// Set when the source was refreshed while its backend was unreachable:
    /// the entry no longer serves normal lookups but remains available for
    /// degraded (stale) serving until a fresh result replaces it.
    stale: bool,
    /// When the entry went stale. Within [`CacheConfig::swr_grace`] of this
    /// instant, a stale entry still serves *normal* lookups
    /// (stale-while-revalidate) while the maintenance lane refreshes it.
    stale_since: Option<Instant>,
    /// Dependency tags (see [`crate::tags`]) for precise invalidation.
    tags: Vec<String>,
}

impl Entry {
    /// Eviction score: higher = more worth keeping. "Cache entries ... are
    /// purged based upon a combination of entry age, usage, and the expense
    /// of re-evaluating the query."
    fn score(&self, now: Instant) -> f64 {
        let age = now.duration_since(self.created).as_secs_f64() + 1.0;
        let idle = now.duration_since(self.last_used).as_secs_f64() + 1.0;
        let cost = self.cost.as_secs_f64() * 1e3 + 1.0;
        cost * (self.use_count as f64 + 1.0) / (age * idle)
    }
}

/// Counters for experiments.
#[derive(Debug, Clone, Default)]
pub struct IntelligentStats {
    pub exact_hits: u64,
    pub subsumption_hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub rejected_inserts: u64,
    pub evictions: u64,
    /// Degraded lookups answered from an entry marked stale.
    pub stale_serves: u64,
    /// Normal lookups answered from a stale entry inside the SWR grace
    /// window (served immediately, refreshed in the background).
    pub swr_serves: u64,
}

/// Live counters, one cell each, kept OUTSIDE the entry-map mutex so
/// hot-path bookkeeping and [`IntelligentCache::stats`] snapshots never
/// contend with lookups holding the lock. [`IntelligentCache::bind_obs`]
/// exports these same cells, so `stats()` and the registry read one atomic.
#[derive(Default)]
struct Counters {
    exact_hits: Counter,
    subsumption_hits: Counter,
    misses: Counter,
    inserts: Counter,
    rejected_inserts: Counter,
    evictions: Counter,
    stale_serves: Counter,
    swr_serves: Counter,
}

impl Counters {
    /// Every cell with the name it is exported under.
    fn named(&self) -> [(&'static str, &Counter); 8] {
        [
            ("tv_cache_intelligent_exact_hits_total", &self.exact_hits),
            (
                "tv_cache_intelligent_subsumption_hits_total",
                &self.subsumption_hits,
            ),
            ("tv_cache_intelligent_misses_total", &self.misses),
            ("tv_cache_intelligent_inserts_total", &self.inserts),
            (
                "tv_cache_intelligent_rejected_inserts_total",
                &self.rejected_inserts,
            ),
            ("tv_cache_intelligent_evictions_total", &self.evictions),
            (
                "tv_cache_intelligent_stale_serves_total",
                &self.stale_serves,
            ),
            ("tv_cache_intelligent_swr_serves_total", &self.swr_serves),
        ]
    }
}

/// Cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total result-byte budget.
    pub capacity_bytes: usize,
    /// "we cache all the query results unless ... the results are
    /// excessively large".
    pub max_entry_bytes: usize,
    /// "... unless computation time is comparable with a cache lookup time".
    pub min_cost: Duration,
    /// Accept the first match instead of ranking by post-processing effort
    /// (the paper's shipped 9.0 behavior; ranking is its stated plan).
    pub first_match: bool,
    /// Stale-while-revalidate grace window: a stale entry younger (as
    /// stale) than this still answers normal lookups immediately — flagged
    /// with the `cache_swr_serve` reason — while the Background-priority
    /// revalidation lane refreshes it. `ZERO` disables SWR: stale entries
    /// then only serve the explicit degraded path, the pre-hierarchy
    /// behavior.
    pub swr_grace: Duration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 64 << 20,
            max_entry_bytes: 8 << 20,
            min_cost: Duration::from_micros(50),
            first_match: false,
            swr_grace: Duration::ZERO,
        }
    }
}

struct Inner {
    /// bucket key → entry ids (the relation-level index).
    buckets: HashMap<String, Vec<u64>>,
    /// Hash of a normalized spec → the entries stored under a spec with
    /// that hash: one, since `put` supersedes, bar hash collisions (hence a
    /// list, checked by equality). What a store replaces and what an exact
    /// lookup finds without walking the bucket.
    exact: HashMap<u64, Vec<u64>>,
    hasher: RandomState,
    entries: HashMap<u64, Entry>,
    next_id: u64,
    bytes: usize,
}

impl Inner {
    /// The entry stored under exactly this (normalized) spec.
    fn exact_id(&self, spec: &QuerySpec) -> Option<u64> {
        let ids = self.exact.get(&self.hasher.hash_one(spec))?;
        ids.iter()
            .copied()
            .find(|id| self.entries.get(id).is_some_and(|e| e.spec == *spec))
    }

    /// Take one entry out of the map and the exact-spec index. Its bucket
    /// is the caller's to fix.
    fn take(&mut self, id: u64) -> Option<Entry> {
        let e = self.entries.remove(&id)?;
        self.bytes -= e.bytes;
        if let Some(ids) = self.exact.get_mut(&e.spec_hash) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.exact.remove(&e.spec_hash);
            }
        }
        Some(e)
    }

    /// Take one entry out of the map, the exact-spec index and its bucket.
    fn remove(&mut self, id: u64) -> Option<Entry> {
        let e = self.take(id)?;
        let bucket = e.spec.bucket_key();
        if let Some(ids) = self.buckets.get_mut(&bucket) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.buckets.remove(&bucket);
            }
        }
        Some(e)
    }
}

/// The intelligent cache. Thread-safe.
pub struct IntelligentCache {
    config: CacheConfig,
    inner: Mutex<Inner>,
    counters: Counters,
    /// Age-at-serve of every degraded (stale) answer — the data the
    /// stale-TTL policy needs. Registry-only: unbound caches skip it.
    stale_age: OnceLock<Histogram>,
    /// Test seam: runs just before a candidate is post-processed, so a test
    /// can hold a roll-up open and check what else proceeds meanwhile.
    #[cfg(test)]
    before_post_process: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl Default for IntelligentCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl IntelligentCache {
    pub fn new(config: CacheConfig) -> Self {
        IntelligentCache {
            config,
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                exact: HashMap::new(),
                hasher: RandomState::new(),
                entries: HashMap::new(),
                next_id: 0,
                bytes: 0,
            }),
            counters: Counters::default(),
            stale_age: OnceLock::new(),
            #[cfg(test)]
            before_post_process: Mutex::new(None),
        }
    }

    /// Export this cache's counters under their `tv_cache_intelligent_*`
    /// names and resolve the shared `tv_cache_stale_age_seconds` histogram
    /// (the first registry bound keeps receiving the histogram samples).
    pub fn bind_obs(&self, registry: &Registry) {
        for (name, cell) in self.counters.named() {
            registry.register_counter(name, cell);
        }
        let _ = self
            .stale_age
            .set(registry.histogram("tv_cache_stale_age_seconds"));
    }

    /// Lock-free snapshot of the live counters.
    pub fn stats(&self) -> IntelligentStats {
        let c = &self.counters;
        IntelligentStats {
            exact_hits: c.exact_hits.get(),
            subsumption_hits: c.subsumption_hits.get(),
            misses: c.misses.get(),
            inserts: c.inserts.get(),
            rejected_inserts: c.rejected_inserts.get(),
            evictions: c.evictions.get(),
            stale_serves: c.stale_serves.get(),
            swr_serves: c.swr_serves.get(),
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

    /// Look up a query; on a subsumption hit the cached chunk is
    /// post-processed into the requested shape.
    ///
    /// The paper's shipped version "accept\[s\] the first match"; its stated
    /// plan — "choose the entry that requires the least post-processing" —
    /// is implemented here (and is the default): all matches in the bucket
    /// are ranked by post-processing effort (exact < project/filter <
    /// roll-up, ties broken by fewer cached rows) and the cheapest wins.
    /// Set [`CacheConfig::first_match`] to reproduce the paper's shipped
    /// behavior.
    pub fn get(&self, spec: &QuerySpec) -> Option<Chunk> {
        self.lookup(spec, false, false).0
    }

    /// [`IntelligentCache::get`] with decision attribution: also returns
    /// the verdict reason code (see [`tabviz_obs::reason`]) — which kind of
    /// hit, or for a miss *which subsumption check* rejected the closest
    /// candidate.
    pub fn get_explained(&self, spec: &QuerySpec) -> (Option<Chunk>, &'static str) {
        self.lookup(spec, false, false)
    }

    /// [`IntelligentCache::get_explained`] with stale-within-grace (SWR)
    /// serving disabled: only genuinely fresh entries answer. This is the
    /// lookup the Background revalidation lane must use — it *is* the
    /// refresh SWR serving counts on, so letting a grace-window entry
    /// answer it would mark stale data fresh and the entry would never
    /// actually revalidate.
    pub fn get_explained_fresh_only(&self, spec: &QuerySpec) -> (Option<Chunk>, &'static str) {
        self.lookup(spec, false, true)
    }

    /// Degraded-path lookup: also considers entries marked stale by
    /// [`IntelligentCache::mark_source_stale`]. Used when the backend is
    /// unreachable and a stale answer beats a failed dashboard. Serves count
    /// as `stale_serves`; misses here do not inflate the miss counter (the
    /// normal lookup already recorded one).
    pub fn get_stale(&self, spec: &QuerySpec) -> Option<Chunk> {
        self.lookup(spec, true, false).0
    }

    /// Whether a fresh entry could answer `spec` right now — the matching
    /// half of a lookup, with no post-processing, usage accounting or
    /// counters. Batch planning asks this before it prices a query as a
    /// backend trip.
    pub fn can_answer(&self, spec: &QuerySpec) -> bool {
        let inner = self.inner.lock();
        inner.buckets.get(&spec.bucket_key()).is_some_and(|ids| {
            ids.iter()
                .filter_map(|id| inner.entries.get(id))
                .any(|e| !e.stale && match_specs(&e.spec, spec).is_some())
        })
    }

    /// Matching runs under the entry-map lock; post-processing (a table
    /// encode plus a TDE execution) does not, so a roll-up never stalls the
    /// node's other lookups and stores. Candidates are taken out under the
    /// lock (shared chunks, no copy), and the lock is retaken only to
    /// record the use of each entry tried.
    fn lookup(
        &self,
        spec: &QuerySpec,
        allow_stale: bool,
        fresh_only: bool,
    ) -> (Option<Chunk>, &'static str) {
        let inner = self.inner.lock();
        // Decision attribution: remember the furthest-advancing rejection
        // across candidates, so a miss names the subsumption check that
        // failed on the *closest* entry rather than an arbitrary one.
        let mut miss_reason = tabviz_obs::reason::CACHE_MISS_NO_CANDIDATE;
        // Collect candidate matches (most recent first — interactions tend
        // to refine the latest view, so recency breaks exact ties). The
        // final bool marks SWR candidates: stale, but inside the grace
        // window, so servable on the normal path while revalidation runs.
        let grace = self.config.swr_grace;
        struct Candidate {
            id: u64,
            plan: MatchPlan,
            effort: u32,
            swr: bool,
            /// Taken out so post-processing can run with the lock dropped.
            cached: Arc<Chunk>,
            created: Instant,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        // The entry stored under this very spec, when it may answer as it
        // stands, is what the walk below would rank first (were an
        // equivalent entry spelled differently also cached, this prefers the
        // verbatim one). A stale one is left to the walk's SWR rules.
        if !self.config.first_match && spec.topn.is_none() && spec.order.is_empty() {
            let normalized;
            let key = if spec.is_normalized() {
                spec
            } else {
                normalized = {
                    let mut s = spec.clone();
                    s.normalize();
                    s
                };
                &normalized
            };
            let hit = inner
                .exact_id(key)
                .and_then(|id| Some((id, inner.entries.get(&id)?)));
            if let Some((id, entry)) = hit.filter(|(_, e)| !e.stale || allow_stale) {
                candidates.push(Candidate {
                    id,
                    plan: MatchPlan {
                        residual: Vec::new(),
                        same_grouping: true,
                        sources: Vec::new(),
                    },
                    effort: 0,
                    swr: false,
                    cached: Arc::clone(&entry.result),
                    created: entry.created,
                });
            }
        }
        // An index hit needs no walk, and no bucket key built for one.
        let ids: &[u64] = if candidates.is_empty() {
            inner
                .buckets
                .get(&spec.bucket_key())
                .map_or(&[], Vec::as_slice)
        } else {
            &[]
        };
        for &id in ids.iter().rev() {
            let entry = match inner.entries.get(&id) {
                Some(e) => e,
                None => continue,
            };
            let swr = entry.stale
                && !allow_stale
                && !fresh_only
                && !grace.is_zero()
                && entry.stale_since.is_some_and(|t| t.elapsed() <= grace);
            if entry.stale && !allow_stale && !swr {
                continue;
            }
            let plan = match match_specs_explained(&entry.spec, spec) {
                Ok(plan) => plan,
                Err(why) => {
                    if miss_rank(why) > miss_rank(miss_reason) {
                        miss_reason = why;
                    }
                    continue;
                }
            };
            // Exact only if the cached chunk is column-for-column the
            // requested shape: same groups and the same aggregates in the
            // same order (a fused/widened superset entry must be projected,
            // not returned verbatim with its extra or permuted columns).
            let exact = plan.residual.is_empty()
                && plan.same_grouping
                && spec.topn.is_none()
                && spec.order.is_empty()
                && entry.spec.aggs == spec.aggs
                && entry.spec.group_by == spec.group_by;
            // Post-processing effort rank.
            let effort: u32 = if exact {
                0
            } else if plan.same_grouping {
                1 + u32::from(!plan.residual.is_empty())
            } else {
                3 + u32::from(!plan.residual.is_empty())
            };
            candidates.push(Candidate {
                id,
                plan,
                effort,
                swr,
                cached: Arc::clone(&entry.result),
                created: entry.created,
            });
            if self.config.first_match || (effort == 0 && !swr) {
                break;
            }
        }
        // Fresh entries before SWR ones, then least post-processing first;
        // among equals, the smaller input.
        candidates.sort_by_key(|c| (c.swr, c.effort, c.cached.len()));
        drop(inner);

        for Candidate {
            id,
            plan,
            effort,
            swr,
            cached,
            created,
        } in candidates
        {
            // Usage accounting for every candidate tried; an entry evicted
            // or replaced since the lock was dropped has none to update.
            if let Some(e) = self.inner.lock().entries.get_mut(&id) {
                e.use_count += 1;
                e.last_used = Instant::now();
            }
            if effort == 0 {
                let exact = Chunk::clone(&cached);
                if allow_stale || swr {
                    return (Some(exact), self.observe_stale_serve(created, swr));
                }
                self.counters.exact_hits.inc();
                return (Some(exact), tabviz_obs::reason::CACHE_HIT_EXACT);
            }
            let same_grouping = plan.same_grouping;
            #[cfg(test)]
            if let Some(hook) = self.before_post_process.lock().clone() {
                hook();
            }
            match post_process(&cached, spec, &plan) {
                Ok(out) => {
                    if allow_stale || swr {
                        return (Some(out), self.observe_stale_serve(created, swr));
                    }
                    self.counters.subsumption_hits.inc();
                    let why = if same_grouping {
                        tabviz_obs::reason::CACHE_HIT_RESIDUAL
                    } else {
                        tabviz_obs::reason::CACHE_HIT_ROLLUP
                    };
                    return (Some(out), why);
                }
                Err(_) => continue, // be conservative: treat as non-match
            }
        }
        if !allow_stale {
            self.counters.misses.inc();
        }
        (None, miss_reason)
    }

    /// A stale entry answered a lookup: count it, record its age-at-serve
    /// (the data a future stale-TTL policy needs), tag the current trace and
    /// return the reason code. `swr` marks a normal lookup served inside the
    /// grace window — immediate, while the entry stays on the stale list for
    /// the maintenance lane to revalidate in the Background class; otherwise
    /// this is the degraded path (`swr` is never set under `allow_stale`).
    fn observe_stale_serve(&self, created: Instant, swr: bool) -> &'static str {
        let (cell, label, reason) = if swr {
            (
                &self.counters.swr_serves,
                "swr",
                tabviz_obs::reason::CACHE_SWR_SERVE,
            )
        } else {
            (
                &self.counters.stale_serves,
                "intelligent",
                tabviz_obs::reason::CACHE_HIT_STALE,
            )
        };
        cell.inc();
        let age = created.elapsed();
        if let Some(h) = self.stale_age.get() {
            h.observe(age);
        }
        tabviz_obs::event_with(
            stage::STALE_SERVE,
            Some(label),
            Some(age.as_micros().min(u64::MAX as u128) as u64),
            Some(reason),
        );
        reason
    }

    /// Insert a result. `cost` is what computing it took.
    pub fn put(&self, spec: QuerySpec, result: Chunk, cost: Duration) {
        let bytes = result.approx_bytes();
        if bytes > self.config.max_entry_bytes || cost < self.config.min_cost {
            self.counters.rejected_inserts.inc();
            return;
        }
        let mut inner = self.inner.lock();
        let mut spec = spec;
        spec.normalize();
        // A fresh result replaces the existing entry for the same spec:
        // a stale one by the revalidation contract ("until a fresh result
        // replaces it"), a fresh one so concurrent threads racing to store
        // the same (e.g. widened) result converge on one entry instead of
        // accumulating duplicates — put is idempotent per spec.
        if let Some(old) = inner.exact_id(&spec) {
            inner.remove(old);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let now = Instant::now();
        let tags = crate::tags::tags_for_spec(&spec);
        let bucket = spec.bucket_key();
        let spec_hash = inner.hasher.hash_one(&spec);
        inner.exact.entry(spec_hash).or_default().push(id);
        inner.entries.insert(
            id,
            Entry {
                spec,
                spec_hash,
                result: Arc::new(result),
                bytes,
                created: now,
                last_used: now,
                use_count: 0,
                cost,
                stale: false,
                stale_since: None,
                tags,
            },
        );
        inner.buckets.entry(bucket).or_default().push(id);
        inner.bytes += bytes;
        self.counters.inserts.inc();
        self.enforce_capacity(&mut inner);
    }

    fn enforce_capacity(&self, inner: &mut Inner) {
        while inner.bytes > self.config.capacity_bytes && inner.entries.len() > 1 {
            let now = Instant::now();
            let victim = inner
                .entries
                .iter()
                .min_by(|a, b| {
                    a.1.score(now)
                        .partial_cmp(&b.1.score(now))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(id, _)| *id);
            let Some(id) = victim else { break };
            if inner.remove(id).is_some() {
                self.counters.evictions.inc();
            }
        }
    }

    /// Mark every entry of a source stale instead of purging it: the data
    /// may be outdated (refresh signalled while the backend was unreachable)
    /// but is still worth serving in degraded mode. Returns how many entries
    /// were newly marked.
    pub fn mark_source_stale(&self, source: &str) -> usize {
        let mut inner = self.inner.lock();
        let prefix = format!("{source}\u{1}");
        let ids: Vec<u64> = inner
            .buckets
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        let mut marked = 0;
        let now = Instant::now();
        for id in ids {
            if let Some(e) = inner.entries.get_mut(&id) {
                if !e.stale {
                    e.stale = true;
                    e.stale_since = Some(now);
                    marked += 1;
                }
            }
        }
        marked
    }

    /// Mark every entry carrying `tag` stale (see [`crate::tags`]) — the
    /// SWR-friendly half of tag invalidation: dependents keep serving
    /// inside the grace window while revalidation refreshes them. Returns
    /// how many entries were newly marked.
    pub fn mark_tag_stale(&self, tag: &str) -> usize {
        let mut inner = self.inner.lock();
        let now = Instant::now();
        let mut marked = 0;
        for e in inner.entries.values_mut() {
            if !e.stale && e.tags.iter().any(|t| t == tag) {
                e.stale = true;
                e.stale_since = Some(now);
                marked += 1;
            }
        }
        marked
    }

    /// Remove every entry carrying `tag`; returns how many were removed.
    /// This is the precise replacement for wholesale [`purge_source`]: a
    /// table refresh purges exactly its dependents.
    ///
    /// [`purge_source`]: IntelligentCache::purge_source
    pub fn purge_tag(&self, tag: &str) -> usize {
        let mut inner = self.inner.lock();
        let victims: Vec<u64> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.tags.iter().any(|t| t == tag))
            .map(|(id, _)| *id)
            .collect();
        for id in &victims {
            inner.remove(*id);
        }
        victims.len()
    }

    /// Purge every entry belonging to a source ("entries are also purged
    /// when a connection to a data source is closed or refreshed").
    pub fn purge_source(&self, source: &str) {
        let mut inner = self.inner.lock();
        let prefix = format!("{source}\u{1}");
        let buckets: Vec<String> = inner
            .buckets
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        for b in buckets {
            if let Some(ids) = inner.buckets.remove(&b) {
                for id in ids {
                    inner.take(id);
                }
            }
        }
    }

    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.buckets.clear();
        inner.exact.clear();
        inner.entries.clear();
        inner.bytes = 0;
    }

    /// Stale entries with their age since creation, oldest first — the
    /// work list for the background revalidation lane. (Age is measured
    /// from entry creation: an entry that outlives the staleness budget is
    /// overdue for a re-fetch regardless of when the refresh happened.)
    pub fn stale_entries(&self) -> Vec<(QuerySpec, Duration)> {
        let inner = self.inner.lock();
        let now = Instant::now();
        let mut out: Vec<(QuerySpec, Duration)> = inner
            .entries
            .values()
            .filter(|e| e.stale)
            .map(|e| (e.spec.clone(), now.duration_since(e.created)))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1));
        out
    }

    /// Snapshot all entries (persistence).
    pub fn snapshot(&self) -> Vec<(QuerySpec, Chunk, Duration)> {
        let inner = self.inner.lock();
        inner
            .entries
            .values()
            .map(|e| (e.spec.clone(), Chunk::clone(&e.result), e.cost))
            .collect()
    }

    /// The top-`k` fresh entries by use count (ties: higher eviction score
    /// first) — the popularity list cache warming replays into a joining
    /// node's L1.
    pub fn hot_entries(&self, k: usize) -> Vec<(QuerySpec, Chunk, Duration)> {
        let inner = self.inner.lock();
        let now = Instant::now();
        let mut hot: Vec<&Entry> = inner.entries.values().filter(|e| !e.stale).collect();
        hot.sort_by(|a, b| {
            b.use_count.cmp(&a.use_count).then(
                b.score(now)
                    .partial_cmp(&a.score(now))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        hot.truncate(k);
        hot.iter()
            .map(|e| (e.spec.clone(), Chunk::clone(&e.result), e.cost))
            .collect()
    }
}

/// Public subsumption test: can a (hypothetical) cached result of `cached`
/// answer `req` after post-processing? Used by the batch processor to build
/// the Fig. 3 cache-hit-opportunity graph ("the latter is determined by the
/// matching logic of the intelligent query cache", Sect. 3.3).
pub fn subsumes(cached: &QuerySpec, req: &QuerySpec) -> bool {
    match_specs(cached, req).is_some()
}

/// Try to match a cached spec against a request.
fn match_specs(cached: &QuerySpec, req: &QuerySpec) -> Option<MatchPlan> {
    match_specs_explained(cached, req).ok()
}

/// How far a rejection got through the subsumption checks — used to pick
/// the most informative miss reason across candidates.
fn miss_rank(reason: &'static str) -> u32 {
    use tabviz_obs::reason as r;
    match reason {
        r::CACHE_MISS_NO_CANDIDATE => 0,
        r::CACHE_MISS_TOPN => 1,
        r::CACHE_MISS_GROUP_NOT_SUBSET => 2,
        r::CACHE_MISS_FILTER_NOT_IMPLIED => 3,
        r::CACHE_MISS_RESIDUAL_COLUMN => 4,
        r::CACHE_MISS_AGG_NOT_DERIVABLE => 5,
        _ => 0,
    }
}

/// [`match_specs`] with the failed check named: `Err` carries the
/// [`tabviz_obs::reason`] code of the first subsumption rule that rejected
/// this candidate.
fn match_specs_explained(
    cached: &QuerySpec,
    req: &QuerySpec,
) -> std::result::Result<MatchPlan, &'static str> {
    use tabviz_obs::reason as why;
    if cached.source != req.source {
        return Err(why::CACHE_MISS_NO_CANDIDATE);
    }
    // Top-N cached results only serve identical requests.
    if cached.topn.is_some() && cached.canonical_text() != req.canonical_text() {
        return Err(why::CACHE_MISS_TOPN);
    }
    // Grouping must coarsen: every requested group column is cached.
    if !req.group_by.iter().all(|g| cached.group_by.contains(g)) {
        return Err(why::CACHE_MISS_GROUP_NOT_SUBSET);
    }
    let same_grouping = req.group_by.len() == cached.group_by.len();

    // Filters: every cached conjunct must be implied by some requested one.
    for c in &cached.filters {
        if !req.filters.iter().any(|r| implies(r, c)) {
            return Err(why::CACHE_MISS_FILTER_NOT_IMPLIED);
        }
    }
    // Residual: requested conjuncts not already enforced verbatim.
    let cached_texts: Vec<String> = cached.filters.iter().map(write_expr).collect();
    let residual: Vec<Expr> = req
        .filters
        .iter()
        .filter(|r| !cached_texts.contains(&write_expr(r)))
        .cloned()
        .collect();
    // Residual conjuncts must be evaluable on the aggregated cache rows:
    // they may touch cached group columns only.
    for r in &residual {
        if !r.columns().iter().all(|c| cached.group_by.contains(c)) {
            return Err(why::CACHE_MISS_RESIDUAL_COLUMN);
        }
    }

    // Aggregates.
    let not_derivable = why::CACHE_MISS_AGG_NOT_DERIVABLE;
    let mut sources = Vec::with_capacity(req.aggs.len());
    for a in &req.aggs {
        let found = cached
            .aggs
            .iter()
            .find(|c| c.func == a.func && c.arg == a.arg);
        let source = match (found, same_grouping) {
            (Some(c), true) => AggSource::Column(c.alias.clone()),
            (Some(c), false) => match a.func.rollup_func() {
                Some(f) => AggSource::Rollup(f, c.alias.clone()),
                None if a.func == AggFunc::Avg => avg_parts(cached, a).ok_or(not_derivable)?,
                None => return Err(not_derivable), // COUNTD at coarser grouping
            },
            // AVG derivable from cached SUM+COUNT even when AVG itself is
            // not cached (at either grouping).
            (None, _) if a.func == AggFunc::Avg => avg_parts(cached, a).ok_or(not_derivable)?,
            (None, _) => return Err(not_derivable),
        };
        sources.push(source);
    }
    Ok(MatchPlan {
        residual,
        same_grouping,
        sources,
    })
}

/// Locate cached SUM(arg) and COUNT(arg) columns for deriving an AVG.
fn avg_parts(cached: &QuerySpec, avg: &AggCall) -> Option<AggSource> {
    let sum = cached
        .aggs
        .iter()
        .find(|c| c.func == AggFunc::Sum && c.arg == avg.arg)?;
    let cnt = cached
        .aggs
        .iter()
        .find(|c| c.func == AggFunc::Count && c.arg == avg.arg)?;
    Some(AggSource::AvgOf {
        sum_col: sum.alias.clone(),
        cnt_col: cnt.alias.clone(),
    })
}

/// Execute the post-processing (filter → roll-up → project → order/top-n)
/// over the cached chunk with a throwaway TDE.
fn post_process(cached: &Chunk, req: &QuerySpec, mp: &MatchPlan) -> Result<Chunk> {
    let db = Arc::new(Database::new("__cache"));
    db.put(Table::from_chunk("__cached", cached, &[])?)?;
    let mut plan = LogicalPlan::scan("__cached");
    if !mp.residual.is_empty() {
        plan = plan.select(and_all(mp.residual.clone()));
    }
    if mp.same_grouping {
        // Pure filter + projection.
        let mut exprs: Vec<(Expr, String)> = req
            .group_by
            .iter()
            .map(|g| (col(g.clone()), g.clone()))
            .collect();
        for (a, src) in req.aggs.iter().zip(&mp.sources) {
            let e = match src {
                AggSource::Column(c) => col(c.clone()),
                AggSource::AvgOf { sum_col, cnt_col } => {
                    bin(BinOp::Div, col(sum_col.clone()), col(cnt_col.clone()))
                }
                AggSource::Rollup(..) => {
                    return Err(TvError::Plan("rollup with same grouping".into()))
                }
            };
            exprs.push((e, a.alias.clone()));
        }
        plan = plan.project(exprs);
    } else {
        // Roll up to the coarser grouping.
        let group_by: Vec<(Expr, String)> = req
            .group_by
            .iter()
            .map(|g| (col(g.clone()), g.clone()))
            .collect();
        // An ungrouped aggregate over no rows still yields one row, in which
        // COUNT is 0 — but the SUM of no partial counts is NULL.
        let ungrouped = req.group_by.is_empty();
        let mut calls: Vec<AggCall> = Vec::new();
        // The final projection, needed only when some output is not a plain
        // re-aggregated column.
        let mut exprs = group_by.clone();
        let mut fixups = false;
        for (a, src) in req.aggs.iter().zip(&mp.sources) {
            match src {
                AggSource::Rollup(f, c) => {
                    calls.push(AggCall::new(*f, Some(col(c.clone())), a.alias.clone()));
                    let out = if ungrouped && a.func == AggFunc::Count {
                        fixups = true;
                        Expr::Func {
                            func: ScalarFunc::IfNull,
                            args: vec![col(&a.alias), lit(0i64)],
                        }
                    } else {
                        col(&a.alias)
                    };
                    exprs.push((out, a.alias.clone()));
                }
                AggSource::AvgOf { sum_col, cnt_col } => {
                    let s_alias = format!("__{}_s", a.alias);
                    let c_alias = format!("__{}_c", a.alias);
                    calls.push(AggCall::new(
                        AggFunc::Sum,
                        Some(col(sum_col.clone())),
                        s_alias.clone(),
                    ));
                    calls.push(AggCall::new(
                        AggFunc::Sum,
                        Some(col(cnt_col.clone())),
                        c_alias.clone(),
                    ));
                    fixups = true;
                    exprs.push((bin(BinOp::Div, col(s_alias), col(c_alias)), a.alias.clone()));
                }
                AggSource::Column(_) => {
                    return Err(TvError::Plan(
                        "column passthrough at coarser grouping".into(),
                    ))
                }
            }
        }
        plan = plan.aggregate(group_by, calls);
        if fixups {
            plan = plan.project(exprs);
        }
    }
    if !req.order.is_empty() {
        plan = plan.order(req.order.clone());
    }
    if let Some(n) = req.topn {
        plan = match plan {
            LogicalPlan::Order { input, keys } => input.topn(n, keys),
            other => other.topn(n, req.order.clone()),
        };
    }
    Tde::new(db).execute_plan(&plan, &ExecOptions::serial())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_tql::expr::lit;
    use tabviz_tql::SortKey;

    /// Ten rows per (carrier, origin) pair over 3 carriers × 2 origins.
    fn detail_chunk() -> Chunk {
        let schema = StdArc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("origin", DataType::Str),
                Field::new("n", DataType::Int),
                Field::new("total", DataType::Int),
                Field::new("cnt", DataType::Int),
            ])
            .unwrap(),
        );
        // Pre-aggregated at (carrier, origin): n = COUNT, total = SUM(delay),
        // cnt = COUNT(delay).
        let mut rows = Vec::new();
        for c in ["AA", "DL", "WN"] {
            for o in ["JFK", "LAX"] {
                let base = (c.len() + o.len()) as i64;
                rows.push(vec![
                    Value::Str(c.into()),
                    Value::Str(o.into()),
                    Value::Int(10),
                    Value::Int(base * 10),
                    Value::Int(10),
                ]);
            }
        }
        Chunk::from_rows(schema, &rows).unwrap()
    }

    fn cached_spec() -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .group("origin")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
            .agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "total"))
            .agg(AggCall::new(AggFunc::Count, Some(col("delay")), "cnt"))
    }

    fn cache_with_entry() -> IntelligentCache {
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            ..Default::default()
        });
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(100));
        cache
    }

    #[test]
    fn exact_hit() {
        let cache = cache_with_entry();
        let out = cache.get(&cached_spec()).unwrap();
        assert_eq!(out.len(), 6);
        let st = cache.stats();
        assert_eq!(st.exact_hits, 1);
        assert_eq!(st.subsumption_hits, 0);
    }

    #[test]
    fn filter_on_group_column_subsumes() {
        // Fig. 1 scenario: deselecting filter values is answered locally
        // "as long as the filtering columns are included".
        let cache = cache_with_entry();
        let req = cached_spec().filter(bin(BinOp::Eq, col("origin"), lit("JFK")));
        let out = cache.get(&req).unwrap();
        assert_eq!(out.len(), 3);
        for r in out.to_rows() {
            assert_eq!(r[1], Value::Str("JFK".into()));
        }
        assert_eq!(cache.stats().subsumption_hits, 1);
    }

    #[test]
    fn rollup_to_coarser_grouping() {
        let cache = cache_with_entry();
        let req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
            .agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "total"));
        let out = cache.get(&req).unwrap();
        assert_eq!(out.len(), 3);
        let rows = out.to_rows();
        let aa = rows
            .iter()
            .find(|r| r[0] == Value::Str("AA".into()))
            .unwrap();
        // COUNT rolls up as SUM: 10 + 10 = 20.
        assert_eq!(aa[1], Value::Int(20));
        // SUM(delay): AA bases: (2+3)*10 + (2+3)*10 = 100.
        assert_eq!(aa[2], Value::Int(100));
    }

    #[test]
    fn avg_derived_from_sum_and_count() {
        let cache = cache_with_entry();
        let req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Avg, Some(col("delay")), "avg_delay"));
        let out = cache.get(&req).unwrap();
        let rows = out.to_rows();
        let aa = rows
            .iter()
            .find(|r| r[0] == Value::Str("AA".into()))
            .unwrap();
        assert_eq!(aa[1], Value::Real(5.0)); // 100 / 20
    }

    #[test]
    fn narrower_filter_via_implication() {
        let cache = cache_with_entry();
        // delay > 5 implies the cached delay > 0 — but it is a residual
        // referencing a NON-group column, so it cannot be applied.
        let req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(5i64)))
            .group("carrier")
            .group("origin")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        assert!(cache.get(&req).is_none(), "detail-level residual must miss");
    }

    #[test]
    fn wider_filter_misses() {
        let cache = cache_with_entry();
        // delay > -5 does NOT imply cached delay > 0.
        let req = cached_spec();
        let mut req = req;
        req.filters = vec![bin(BinOp::Gt, col("delay"), lit(-5i64))];
        assert!(cache.get(&req).is_none());
    }

    #[test]
    fn countd_never_rolls_up() {
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            ..Default::default()
        });
        let spec = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group("carrier")
            .group("origin")
            .agg(AggCall::new(AggFunc::CountD, Some(col("dest")), "nd"));
        let schema = StdArc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("origin", DataType::Str),
                Field::new("nd", DataType::Int),
            ])
            .unwrap(),
        );
        let chunk =
            Chunk::from_rows(schema, &[vec!["AA".into(), "JFK".into(), Value::Int(5)]]).unwrap();
        cache.put(spec.clone(), chunk, Duration::from_millis(10));
        // Same grouping: fine.
        assert!(cache.get(&spec).is_some());
        // Coarser: COUNTD cannot re-aggregate.
        let coarse = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::CountD, Some(col("dest")), "nd"));
        assert!(cache.get(&coarse).is_none());
    }

    #[test]
    fn topn_entries_only_serve_identical_requests() {
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            ..Default::default()
        });
        let spec = cached_spec().order_by(vec![SortKey::desc("n")]).top(2);
        cache.put(
            spec.clone(),
            detail_chunk().slice(0, 2),
            Duration::from_millis(10),
        );
        assert!(cache.get(&spec).is_some());
        let broader = cached_spec();
        assert!(
            cache.get(&broader).is_none(),
            "truncated result must not serve supersets"
        );
    }

    #[test]
    fn request_with_order_post_processes() {
        let cache = cache_with_entry();
        let req = cached_spec().order_by(vec![SortKey::desc("total")]).top(2);
        let out = cache.get(&req).unwrap();
        assert_eq!(out.len(), 2);
        let t0 = out.row(0)[3].as_int().unwrap();
        let t1 = out.row(1)[3].as_int().unwrap();
        assert!(t0 >= t1);
    }

    #[test]
    fn different_relation_or_source_misses() {
        let cache = cache_with_entry();
        let other_rel = QuerySpec::new("faa", LogicalPlan::scan("airports"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .group("origin")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        assert!(cache.get(&other_rel).is_none());
        let mut other_src = cached_spec();
        other_src.source = "other".into();
        assert!(cache.get(&other_src).is_none());
    }

    #[test]
    fn insert_policy_rejects_cheap_and_huge() {
        let cache = IntelligentCache::new(CacheConfig {
            capacity_bytes: 1 << 20,
            max_entry_bytes: 64,
            min_cost: Duration::from_millis(1),
            first_match: false,
            swr_grace: Duration::ZERO,
        });
        cache.put(cached_spec(), detail_chunk(), Duration::from_micros(1)); // too cheap
        assert_eq!(cache.len(), 0);
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(5)); // too big (>64B)
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().rejected_inserts, 2);
    }

    #[test]
    fn eviction_under_pressure() {
        let cache = IntelligentCache::new(CacheConfig {
            capacity_bytes: 600,
            max_entry_bytes: 1 << 20,
            min_cost: Duration::ZERO,
            first_match: false,
            swr_grace: Duration::ZERO,
        });
        for i in 0..10 {
            let spec = QuerySpec::new("faa", LogicalPlan::scan(format!("t{i}")))
                .group("carrier")
                .agg(AggCall::new(AggFunc::Count, None, "n"));
            cache.put(spec, detail_chunk(), Duration::from_millis(10));
        }
        assert!(cache.bytes() <= 600 || cache.len() == 1);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn best_match_prefers_least_post_processing() {
        // Two entries can answer the same request: a fine-grained one that
        // needs a roll-up, and an exact one. Least-effort ranking must pick
        // the exact entry even though the fine one is more recent.
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            ..Default::default()
        });
        let coarse_req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        // Exact result for the coarse request: marker value 777 lets us see
        // which entry served the answer.
        let coarse_schema = StdArc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("n", DataType::Int),
            ])
            .unwrap(),
        );
        let exact_chunk = Chunk::from_rows(
            StdArc::clone(&coarse_schema),
            &[vec!["AA".into(), Value::Int(777)]],
        )
        .unwrap();
        cache.put(coarse_req.clone(), exact_chunk, Duration::from_millis(10));
        // The fine entry (would roll up to n=20 for AA) inserted AFTER, so
        // first-match-by-recency would pick it.
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(10));

        let out = cache.get(&coarse_req).unwrap();
        assert_eq!(out.row(0)[1], Value::Int(777), "exact entry must win");

        // With first_match (the paper's shipped behavior) the most recent
        // matching entry — the fine one — answers via roll-up instead.
        let shipped = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            first_match: true,
            ..Default::default()
        });
        let exact_chunk2 =
            Chunk::from_rows(coarse_schema, &[vec!["AA".into(), Value::Int(777)]]).unwrap();
        shipped.put(coarse_req.clone(), exact_chunk2, Duration::from_millis(10));
        shipped.put(cached_spec(), detail_chunk(), Duration::from_millis(10));
        let out2 = shipped.get(&coarse_req).unwrap();
        let aa = out2
            .to_rows()
            .into_iter()
            .find(|r| r[0] == Value::Str("AA".into()))
            .unwrap();
        assert_eq!(aa[1], Value::Int(20), "first-match rolls up the fine entry");
    }

    #[test]
    fn superset_entry_is_projected_not_returned_verbatim() {
        // A fused/widened entry caches MORE aggregate columns than the
        // request asks for; the answer must be projected down to exactly
        // the requested shape, never served verbatim with extra columns.
        let cache = cache_with_entry();
        let req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .group("origin")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let out = cache.get(&req).unwrap();
        assert_eq!(
            out.schema().fields().len(),
            3,
            "got columns {:?}",
            out.schema().fields()
        );
        assert_eq!(out.len(), 6);
        for r in out.to_rows() {
            assert_eq!(r[2], Value::Int(10));
        }
    }

    #[test]
    fn permuted_entry_is_projected_into_the_requested_column_order() {
        // Fusion appends aggregates in batch order, so a fused entry can hold
        // exactly a request's columns in another order (found by
        // tests/batch_cover_oracle.rs).
        let cache = cache_with_entry();
        let mut req = cached_spec();
        req.aggs.rotate_left(1);
        let out = cache.get(&req).unwrap();
        assert_eq!(
            out.schema().names(),
            ["carrier", "origin", "total", "cnt", "n"]
        );
        assert_eq!(cache.stats().exact_hits, 0);
    }

    #[test]
    fn concurrent_lookups_keep_stats_consistent() {
        // Stats live outside the entry-map mutex; hammer lookups from many
        // threads (with concurrent lock-free stats reads) and check the
        // atomically-counted totals add up exactly.
        let cache = StdArc::new(cache_with_entry());
        let threads = 8;
        let per_thread = 50;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = StdArc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        if (t + i) % 2 == 0 {
                            assert!(cache.get(&cached_spec()).is_some());
                        } else {
                            let miss = QuerySpec::new("faa", LogicalPlan::scan("nowhere"))
                                .group("carrier")
                                .agg(AggCall::new(AggFunc::Count, None, "n"));
                            assert!(cache.get(&miss).is_none());
                        }
                        // Lock-free snapshot must never block or tear.
                        let _ = cache.stats();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = cache.stats();
        let total = (threads * per_thread) as u64;
        assert_eq!(st.exact_hits + st.misses, total);
        assert_eq!(st.exact_hits, total / 2);
        assert_eq!(st.misses, total / 2);
    }

    #[test]
    fn slow_rollup_does_not_block_other_specs() {
        use std::sync::mpsc;
        let cache = StdArc::new(cache_with_entry());
        let other = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        // Hold the roll-up open at the point where post-processing starts.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        *cache.before_post_process.lock() = Some(StdArc::new(move || {
            entered_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
        }));
        let rollup = {
            let cache = StdArc::clone(&cache);
            std::thread::spawn(move || {
                let req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
                    .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Count, None, "n"));
                cache.get_explained(&req)
            })
        };
        entered_rx.recv().unwrap();
        // The roll-up is mid-flight. A store and a lookup of another spec
        // must complete now; run them on a thread so that a cache that holds
        // its lock across post-processing fails the test instead of hanging.
        let (done_tx, done_rx) = mpsc::channel();
        let worker = {
            let (cache, other) = (StdArc::clone(&cache), other.clone());
            std::thread::spawn(move || {
                cache.put(other.clone(), detail_chunk(), Duration::from_millis(10));
                done_tx.send(cache.get(&other).is_some()).unwrap();
            })
        };
        let unblocked = done_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        assert_eq!(unblocked, Ok(true), "put/get waited for the roll-up");
        worker.join().unwrap();
        let (hit, why) = rollup.join().unwrap();
        assert_eq!(hit.unwrap().len(), 3);
        assert_eq!(why, tabviz_obs::reason::CACHE_HIT_ROLLUP);
        let st = cache.stats();
        assert_eq!((st.subsumption_hits, st.exact_hits, st.misses), (1, 1, 0));
    }

    #[test]
    fn put_is_idempotent_per_spec() {
        let cache = cache_with_entry();
        assert_eq!(cache.len(), 1);
        // Concurrent threads racing to store the same result must converge
        // on one entry, not accumulate duplicates.
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(100));
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(100));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn exact_index_follows_every_store_and_removal() {
        let consistent = |cache: &IntelligentCache| {
            let inner = cache.inner.lock();
            let indexed: usize = inner.exact.values().map(Vec::len).sum();
            assert_eq!(indexed, inner.entries.len());
            for (id, e) in &inner.entries {
                assert_eq!(inner.exact_id(&e.spec), Some(*id));
            }
        };
        let spec_on = |source: &str, table: &str| {
            QuerySpec::new(source, LogicalPlan::scan(table))
                .group("carrier")
                .agg(AggCall::new(AggFunc::Count, None, "n"))
        };
        let chunk_bytes = detail_chunk().approx_bytes();
        let cache = IntelligentCache::new(CacheConfig {
            capacity_bytes: 3 * chunk_bytes,
            min_cost: Duration::ZERO,
            ..Default::default()
        });
        // A conjunct order the index must see through, stored twice.
        let two = |a: i64, b: i64| {
            cached_spec()
                .filter(bin(BinOp::Lt, col("delay"), lit(a)))
                .filter(bin(BinOp::Lt, col("delay"), lit(b)))
        };
        cache.put(two(90, 80), detail_chunk(), Duration::from_millis(5));
        cache.put(two(80, 90), detail_chunk(), Duration::from_millis(5));
        assert_eq!(cache.len(), 1, "supersede found the entry by its spec");
        consistent(&cache);
        let (hit, why) = cache.get_explained(&two(90, 80));
        assert!(hit.is_some());
        assert_eq!(why, tabviz_obs::reason::CACHE_HIT_EXACT);
        let uses: Vec<u64> = cache
            .inner
            .lock()
            .entries
            .values()
            .map(|e| e.use_count)
            .collect();
        assert_eq!(uses, [1], "the index hit is accounted like a walked one");
        // Eviction, tag purge, source purge and clear each drop their keys.
        for t in ["a", "b", "c", "d"] {
            cache.put(spec_on("faa", t), detail_chunk(), Duration::from_millis(5));
        }
        assert!(cache.stats().evictions > 0);
        consistent(&cache);
        cache.put(
            spec_on("warehouse", "w"),
            detail_chunk(),
            Duration::from_millis(5),
        );
        cache.purge_tag(&crate::tags::table_tag("faa", "d"));
        consistent(&cache);
        assert!(cache.get(&spec_on("faa", "d")).is_none());
        cache.purge_source("faa");
        consistent(&cache);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&spec_on("warehouse", "w")).is_some());
        cache.clear();
        consistent(&cache);
        assert!(cache.get(&spec_on("warehouse", "w")).is_none());
    }

    #[test]
    fn swr_grace_serves_stale_then_hides() {
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            swr_grace: Duration::from_millis(80),
            ..Default::default()
        });
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(100));
        assert_eq!(cache.mark_source_stale("faa"), 1);
        // Inside the grace window the NORMAL path serves, flagged SWR.
        let (hit, why) = cache.get_explained(&cached_spec());
        assert!(hit.is_some());
        assert_eq!(why, tabviz_obs::reason::CACHE_SWR_SERVE);
        assert_eq!(cache.stats().swr_serves, 1);
        // The entry stays on the revalidation work list meanwhile.
        assert_eq!(cache.stale_entries().len(), 1);
        std::thread::sleep(Duration::from_millis(100));
        // Past the grace window: normal lookups miss, degraded still works.
        assert!(cache.get(&cached_spec()).is_none());
        assert!(cache.get_stale(&cached_spec()).is_some());
    }

    #[test]
    fn tag_purge_hits_only_dependents() {
        let cache = cache_with_entry(); // reads faa / flights
        let other = QuerySpec::new("faa", LogicalPlan::scan("airports"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        cache.put(other.clone(), detail_chunk(), Duration::from_millis(10));
        let purged = cache.purge_tag(&crate::tags::table_tag("faa", "flights"));
        assert_eq!(purged, 1);
        assert!(cache.get(&cached_spec()).is_none());
        assert!(cache.get(&other).is_some(), "airports entry must survive");
    }

    #[test]
    fn purge_source_clears_only_that_source() {
        let cache = cache_with_entry();
        let other = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        cache.put(other.clone(), detail_chunk(), Duration::from_millis(10));
        cache.purge_source("faa");
        assert!(cache.get(&cached_spec()).is_none());
        assert!(cache.get(&other).is_some());
    }
}
