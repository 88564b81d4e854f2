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
//! * every requested aggregate is derivable by the one aggregate algebra of
//!   `tabviz_tql::agg`: an identical call when groupings match, otherwise
//!   every part of the call, re-aggregated (`SUM` of `SUM`s, `SUM` of
//!   `COUNT`s, `MIN`/`MAX` of themselves, `AVG` from cached `SUM`+`COUNT`);
//!   `COUNTD` has no parts, so it is derivable only at identical grouping;
//! * residual filter conjuncts reference cached *group* columns only (a
//!   detail-level filter cannot be applied to aggregated rows);
//! * a cached Top-N result is reusable only for the structurally identical
//!   request (truncation loses rows).
//!
//! A probe does not walk its bucket: the candidate index (DESIGN.md §19)
//! hands the matcher only entries the grouping and residual-column rules
//! leave. Post-processing works on the cached chunk itself — a selection,
//! expression evaluation, the engine's chunk-level aggregate and a sort —
//! with no table built and no plan run.

use crate::implication::implies;
use crate::spec::QuerySpec;
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tabviz_common::{Chunk, Result};
use tabviz_obs::{stage, Counter, Histogram, Registry};
use tabviz_tde::aggregate_chunk;
use tabviz_tde::physical::project_schema;
use tabviz_tql::agg::{self, Merge, Regroup};
use tabviz_tql::expr::{and_all, col, Expr};
use tabviz_tql::write_expr;

/// A roll-up of an entry at least this large to a request with no filter is
/// kept as an entry of its own. Rolling a storm's widened 2 961-row
/// `(carrier, distance)` entry up to `carrier` takes about 55 µs (release
/// build, 2-core host), against 12 µs for the average hit on `public_storm`
/// before widening (`cache.lookup_hit_us`); a smaller entry rolls up cheaply
/// enough to repeat.
const KEEP_ROLLUP_MIN_ROWS: usize = 1_024;

/// A successful match, ready for post-processing.
#[derive(Debug, Clone)]
struct MatchPlan {
    residual: Vec<Expr>,
    same_grouping: bool,
    /// How the requested aggregates are re-formed from the cached columns.
    merge: Merge,
}

/// One cached result.
struct Entry {
    /// Normalized, and kept inline: the matcher reads it per candidate.
    spec: QuerySpec,
    /// The text of each of `spec`'s filter conjuncts, rendered once here:
    /// the residual test compares them and the candidate index posts them.
    conjuncts: Vec<String>,
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
    /// Its key in the text index ([`text_key`]), while it owns that key;
    /// shared with the index's copy.
    text: Option<Arc<str>>,
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

/// Intelligent-cache counters (a point-in-time copy).
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

/// The cells of the literal level's counters that a store or an eviction
/// moves; [`crate::literal::LiteralCache`] exports these same cells.
#[derive(Default, Clone)]
pub(crate) struct TextCounters {
    /// Text keys stored with an admitted entry.
    pub(crate) inserts: Counter,
    /// Text keys lost with an evicted entry.
    pub(crate) evictions: Counter,
}

/// The text-index key of a query's compiled text: the source is part of it,
/// so identical SQL against different servers never collides.
fn text_key(source: &str, text: &str) -> String {
    format!("{source}\u{1}{text}")
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
            swr_grace: Duration::ZERO,
        }
    }
}

/// The entries of one (source, relation) bucket that share a grouping
/// set: one level of the candidate index.
struct Slot {
    /// The grouping columns, sorted and deduplicated.
    grouping: Vec<String>,
    /// Entry ids, oldest first (ids only grow).
    ids: Vec<u64>,
    /// Conjunct text → the ids (oldest first) of the entries that cache
    /// that conjunct verbatim.
    postings: HashMap<String, Vec<u64>>,
}

/// The sorted, deduplicated grouping set a slot is keyed by.
fn grouping_set(spec: &QuerySpec) -> Vec<String> {
    let mut g = spec.group_by.clone();
    g.sort_unstable();
    g.dedup();
    g
}

/// Retire `id` from an ascending id list.
fn drop_id(ids: &mut Vec<u64>, id: u64) {
    if let Ok(k) = ids.binary_search(&id) {
        ids.remove(k);
    }
}

/// A request's filter conjuncts as a probe reads them: each one's text,
/// rendered once per probe rather than once per candidate, and the columns
/// it references.
struct Conjuncts {
    texts: Vec<String>,
    columns: Vec<BTreeSet<String>>,
}

impl Conjuncts {
    fn of(spec: &QuerySpec) -> Self {
        Conjuncts {
            texts: spec.filters.iter().map(write_expr).collect(),
            columns: spec.filters.iter().map(Expr::columns).collect(),
        }
    }
}

/// The more informative of two miss reasons (see [`miss_rank`]).
fn further(a: &'static str, b: &'static str) -> &'static str {
    if miss_rank(b) > miss_rank(a) {
        b
    } else {
        a
    }
}

/// How a probe picks the entries it matches: their ids, most recent first,
/// and the miss reason for the entries it left out.
type Probe = fn(&Inner, &QuerySpec, &Conjuncts) -> (Vec<u64>, &'static str);

struct Inner {
    /// Bucket key → one slot per grouping set: the candidate index, and
    /// the only per-bucket list of entries.
    index: HashMap<String, Vec<Slot>>,
    /// Hash of a normalized spec → the entries stored under a spec with
    /// that hash: one, since `put` supersedes, bar hash collisions (hence a
    /// list, checked by equality). What a store replaces and what an exact
    /// lookup finds without consulting the candidate index.
    exact: HashMap<u64, Vec<u64>>,
    hasher: RandomState,
    entries: HashMap<u64, Entry>,
    /// The literal level (Sect. 3.2): [`text_key`] → the entry stored under
    /// that compiled text, the newest when two specs compiled to one text.
    texts: HashMap<Arc<str>, u64>,
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

    /// The candidate index's answer for `req`: the entries of its bucket
    /// that can pass [`match_specs_explained`], most recent first.
    ///
    /// Only slots whose grouping covers the request's are visited. Inside
    /// one, a request conjunct that reads an ungrouped column cannot be a
    /// residual (the residual-column rule), so every match caches it
    /// verbatim: the shortest posting among such conjuncts bounds the
    /// candidates, and with none of them every entry of the slot is one.
    /// The reason returned names the rule that pruned the rest.
    fn candidates(&self, req: &QuerySpec, conj: &Conjuncts) -> (Vec<u64>, &'static str) {
        use tabviz_obs::reason as why;
        let Some(slots) = self.index.get(&req.bucket_key()) else {
            return (Vec::new(), why::CACHE_MISS_NO_CANDIDATE);
        };
        let mut pruned = why::CACHE_MISS_NO_CANDIDATE;
        let mut ids = Vec::new();
        for slot in slots {
            let grouped = |c: &String| slot.grouping.binary_search(c).is_ok();
            if !req.group_by.iter().all(grouped) {
                pruned = further(pruned, why::CACHE_MISS_GROUP_NOT_SUBSET);
                continue;
            }
            let mut shortest: &[u64] = &slot.ids;
            for (text, cols) in conj.texts.iter().zip(&conj.columns) {
                if !cols.iter().all(grouped) {
                    let posting = slot.postings.get(text).map_or(&[][..], Vec::as_slice);
                    if posting.len() < shortest.len() {
                        shortest = posting;
                    }
                }
            }
            if shortest.len() < slot.ids.len() {
                pruned = further(pruned, why::CACHE_MISS_RESIDUAL_COLUMN);
            }
            ids.extend_from_slice(shortest);
        }
        ids.sort_unstable_by(|a, b| b.cmp(a));
        (ids, pruned)
    }

    /// Index a new entry under its bucket and grouping slot.
    fn add_to_index(&mut self, id: u64, spec: &QuerySpec, conjuncts: &[String]) {
        let grouping = grouping_set(spec);
        let slots = self.index.entry(spec.bucket_key()).or_default();
        let k = match slots.iter().position(|s| s.grouping == grouping) {
            Some(k) => k,
            None => {
                slots.push(Slot {
                    grouping,
                    ids: Vec::new(),
                    postings: HashMap::new(),
                });
                slots.len() - 1
            }
        };
        let slot = &mut slots[k];
        slot.ids.push(id);
        for text in conjuncts {
            let posting = slot.postings.entry(text.clone()).or_default();
            if posting.last() != Some(&id) {
                posting.push(id);
            }
        }
    }

    /// Take one entry out of the map, the exact-spec index and the text
    /// index. Its slot is the caller's to fix.
    fn take(&mut self, id: u64) -> Option<Entry> {
        let e = self.entries.remove(&id)?;
        self.bytes -= e.bytes;
        if let Some(key) = &e.text {
            self.texts.remove(&**key);
        }
        if let Some(ids) = self.exact.get_mut(&e.spec_hash) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.exact.remove(&e.spec_hash);
            }
        }
        Some(e)
    }

    /// Take one entry out of the map, the exact-spec index and its slot.
    fn remove(&mut self, id: u64) -> Option<Entry> {
        let e = self.take(id)?;
        let bucket = e.spec.bucket_key();
        let Some(slots) = self.index.get_mut(&bucket) else {
            return Some(e);
        };
        let grouping = grouping_set(&e.spec);
        if let Some(k) = slots.iter().position(|s| s.grouping == grouping) {
            let slot = &mut slots[k];
            drop_id(&mut slot.ids, id);
            for text in &e.conjuncts {
                if let Some(posting) = slot.postings.get_mut(text) {
                    drop_id(posting, id);
                    if posting.is_empty() {
                        slot.postings.remove(text);
                    }
                }
            }
            if slot.ids.is_empty() {
                slots.swap_remove(k);
            }
        }
        if slots.is_empty() {
            self.index.remove(&bucket);
        }
        Some(e)
    }
}

/// The literal level's handle on the entry store: the same entries, found
/// by `(source, compiled text)` instead of by spec. Built by
/// [`IntelligentCache::text_index`], so both levels hold, admit, evict and
/// invalidate each result once, under one lock.
pub(crate) struct TextIndex {
    inner: Arc<Mutex<Inner>>,
    pub(crate) counters: TextCounters,
}

impl TextIndex {
    /// The result stored under this compiled text, and when it was stored.
    /// A stale entry answers only when `allow_stale`.
    pub(crate) fn get(
        &self,
        source: &str,
        text: &str,
        allow_stale: bool,
    ) -> Option<(Chunk, Instant)> {
        let key = text_key(source, text);
        let mut inner = self.inner.lock();
        let id = *inner.texts.get(key.as_str())?;
        let e = inner
            .entries
            .get_mut(&id)
            .filter(|e| allow_stale || !e.stale)?;
        e.use_count += 1;
        e.last_used = Instant::now();
        let (result, created) = (Arc::clone(&e.result), e.created);
        drop(inner);
        Some((Chunk::clone(&result), created))
    }

    /// How many text keys are held.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().texts.len()
    }
}

/// The intelligent cache. Thread-safe.
pub struct IntelligentCache {
    config: CacheConfig,
    /// Shared with the literal level's [`TextIndex`].
    inner: Arc<Mutex<Inner>>,
    counters: Counters,
    text_counters: TextCounters,
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
            inner: Arc::new(Mutex::new(Inner {
                index: HashMap::new(),
                exact: HashMap::new(),
                hasher: RandomState::new(),
                entries: HashMap::new(),
                texts: HashMap::new(),
                next_id: 0,
                bytes: 0,
            })),
            counters: Counters::default(),
            text_counters: TextCounters::default(),
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

    /// A handle on these entries by compiled text: the literal level.
    pub(crate) fn text_index(&self) -> TextIndex {
        TextIndex {
            inner: Arc::clone(&self.inner),
            counters: self.text_counters.clone(),
        }
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
    /// is implemented here: every matching candidate is ranked by
    /// post-processing effort (exact < project/filter < roll-up, ties
    /// broken by fewer cached rows) and the cheapest wins. Only the
    /// candidate index's entries are read; they hold every entry of the
    /// bucket that could match.
    pub fn get(&self, spec: &QuerySpec) -> Option<Chunk> {
        self.lookup(spec, false, false).0
    }

    /// [`IntelligentCache::get`] with decision attribution: also returns
    /// the verdict reason code (see [`tabviz_obs::reason`]) — which kind of
    /// hit, or for a miss *which subsumption check* rejected the closest
    /// candidate (or pruned every entry out of the candidate set).
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
    /// [`IntelligentCache::mark_tag_stale`]. Used when the backend is
    /// unreachable and a stale answer beats a failed dashboard. Serves count
    /// as `stale_serves`; misses here do not inflate the miss counter (the
    /// normal lookup already recorded one).
    pub fn get_stale(&self, spec: &QuerySpec) -> Option<Chunk> {
        self.lookup(spec, true, false).0
    }

    /// Whether a fresh entry could answer `spec` right now — the matching
    /// half of a lookup over the same candidates, with no post-processing,
    /// usage accounting or counters. Batch planning asks this before it
    /// prices a query as a backend trip.
    pub fn can_answer(&self, spec: &QuerySpec) -> bool {
        let conj = Conjuncts::of(spec);
        let inner = self.inner.lock();
        let (ids, _) = inner.candidates(spec, &conj);
        ids.iter()
            .filter_map(|id| inner.entries.get(id))
            .any(|e| !e.stale && match_specs_explained(&e.spec, &e.conjuncts, spec, &conj).is_ok())
    }

    fn lookup(
        &self,
        spec: &QuerySpec,
        allow_stale: bool,
        fresh_only: bool,
    ) -> (Option<Chunk>, &'static str) {
        self.lookup_via(spec, allow_stale, fresh_only, Inner::candidates)
    }

    /// Matching runs under the entry-map lock; post-processing does not, so
    /// a roll-up never stalls the node's other lookups and stores.
    /// Candidates are taken out under the lock (shared chunks, no copy), and
    /// the lock is retaken only to record the use of each entry tried.
    /// `probe` picks the entries to match when the exact-spec index has
    /// none ([`Inner::candidates`]; tests compare it with a bucket walk).
    fn lookup_via(
        &self,
        spec: &QuerySpec,
        allow_stale: bool,
        fresh_only: bool,
        probe: Probe,
    ) -> (Option<Chunk>, &'static str) {
        let conj = Conjuncts::of(spec);
        let inner = self.inner.lock();
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
            cost: Duration,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        // The entry stored under this very spec, when it may answer as it
        // stands, is what the candidate walk below would rank first (were
        // an equivalent entry spelled differently also cached, this prefers
        // the verbatim one). A stale one is left to the walk's SWR rules.
        if spec.topn.is_none() && spec.order.is_empty() {
            let normalized;
            // Normalized already when the conjunct texts strictly ascend.
            let key = if conj.texts.windows(2).all(|w| w[0] < w[1]) {
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
                        merge: Merge::default(),
                    },
                    effort: 0,
                    swr: false,
                    cached: Arc::clone(&entry.result),
                    created: entry.created,
                    cost: entry.cost,
                });
            }
        }
        // An exact hit needs no candidate walk, and no bucket key built for
        // one. Otherwise a miss names the furthest-advancing rejection: the
        // rule that pruned entries from the candidate set, or the check
        // that failed on the closest candidate.
        let (ids, mut miss_reason) = if candidates.is_empty() {
            probe(&inner, spec, &conj)
        } else {
            (Vec::new(), tabviz_obs::reason::CACHE_MISS_NO_CANDIDATE)
        };
        for id in ids {
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
            let plan = match match_specs_explained(&entry.spec, &entry.conjuncts, spec, &conj) {
                Ok(plan) => plan,
                Err(why) => {
                    miss_reason = further(miss_reason, why);
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
                cost: entry.cost,
            });
            if effort == 0 && !swr {
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
            cost,
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
                        // A view of the whole relation at a coarser grain
                        // than a large entry (a storm's Load beside its
                        // widened filter result) is asked again verbatim:
                        // keep it, at the source's cost, so the repeats are
                        // exact hits instead of roll-ups. A filtered view
                        // (one range of an exploration) is not kept.
                        if spec.filters.is_empty() && cached.len() >= KEEP_ROLLUP_MIN_ROWS {
                            self.insert(spec.clone(), out.clone(), cost, Some(id), None);
                        }
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
    ///
    /// A fresh result always retires a stale entry stored under the same
    /// spec — the revalidation contract ("until a fresh result replaces
    /// it"): it takes the entry's place when admissible, and when it is
    /// rejected (too cheap or too large to keep) the stale entry goes all
    /// the same, so revalidation never leaves stale data serving. A fresh
    /// entry is replaced only by an admissible result, so that concurrent
    /// threads racing to store the same (e.g. widened) result converge on
    /// one entry instead of accumulating duplicates — put is idempotent per
    /// spec.
    pub fn put(&self, spec: QuerySpec, result: Chunk, cost: Duration) {
        self.insert(spec, result, cost, None, None);
    }

    /// [`IntelligentCache::put`] that also keys the entry by `text`, the
    /// query's compiled text, for the literal level. The newest admitted
    /// store owns a text key.
    pub(crate) fn put_keyed(
        &self,
        spec: QuerySpec,
        text: Option<&str>,
        result: Chunk,
        cost: Duration,
    ) {
        self.insert(spec, result, cost, None, text);
    }

    /// [`IntelligentCache::put_keyed`] of a result rolled up from entry
    /// `source`, when given: nothing is inserted once that entry is gone or
    /// stale (a purge or refresh landed between the roll-up and this insert).
    fn insert(
        &self,
        spec: QuerySpec,
        result: Chunk,
        cost: Duration,
        source: Option<u64>,
        text: Option<&str>,
    ) {
        let bytes = result.approx_bytes();
        let admissible = bytes <= self.config.max_entry_bytes && cost >= self.config.min_cost;
        let mut spec = spec;
        spec.normalize();
        let text: Option<Arc<str>> = text.map(|t| text_key(&spec.source, t).into());
        let mut inner = self.inner.lock();
        if source.is_some_and(|id| inner.entries.get(&id).is_none_or(|e| e.stale)) {
            return;
        }
        if let Some(old) = inner.exact_id(&spec) {
            if admissible || inner.entries.get(&old).is_some_and(|e| e.stale) {
                inner.remove(old);
            }
        }
        if !admissible {
            self.counters.rejected_inserts.inc();
            return;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let now = Instant::now();
        let tags = crate::tags::tags_for_spec(&spec);
        let conjuncts: Vec<String> = spec.filters.iter().map(write_expr).collect();
        let spec_hash = inner.hasher.hash_one(&spec);
        inner.exact.entry(spec_hash).or_default().push(id);
        inner.add_to_index(id, &spec, &conjuncts);
        if let Some(key) = &text {
            if let Some(old) = inner.texts.insert(Arc::clone(key), id) {
                if let Some(e) = inner.entries.get_mut(&old) {
                    e.text = None;
                }
            }
            self.text_counters.inserts.inc();
        }
        inner.entries.insert(
            id,
            Entry {
                spec,
                conjuncts,
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
                text,
            },
        );
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
            if let Some(e) = inner.remove(id) {
                self.counters.evictions.inc();
                if e.text.is_some() {
                    self.text_counters.evictions.inc();
                }
            }
        }
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

    /// Remove every entry carrying `tag`; returns how many were removed. A
    /// table refresh purges exactly its dependents; the source tag
    /// ([`crate::tags::source_tag`]) purges the whole source.
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

    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.index.clear();
        inner.exact.clear();
        inner.entries.clear();
        inner.texts.clear();
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

    /// Snapshot all entries, each with the compiled text it owns, if any
    /// (persistence).
    pub fn snapshot(&self) -> Vec<(QuerySpec, Option<String>, Chunk, Duration)> {
        let inner = self.inner.lock();
        inner
            .entries
            .values()
            .map(|e| {
                let text = e
                    .text
                    .as_ref()
                    .map(|k| k[e.spec.source.len() + 1..].to_string());
                (e.spec.clone(), text, Chunk::clone(&e.result), e.cost)
            })
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
    let cached_texts: Vec<String> = cached.filters.iter().map(write_expr).collect();
    match_specs_explained(cached, &cached_texts, req, &Conjuncts::of(req)).is_ok()
}

/// Answer `req` from a result of `cached` held outside the cache (one the
/// cache may have declined to admit), by the matching and post-processing a
/// lookup applies. `None` when `cached` does not subsume `req`.
pub fn derive(cached: &QuerySpec, result: &Chunk, req: &QuerySpec) -> Option<Chunk> {
    let cached_texts: Vec<String> = cached.filters.iter().map(write_expr).collect();
    let plan = match_specs_explained(cached, &cached_texts, req, &Conjuncts::of(req)).ok()?;
    post_process(result, req, &plan).ok()
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

/// Try to match a cached spec against a request; `Err` carries the
/// [`tabviz_obs::reason`] code of the first subsumption rule that rejected
/// this candidate. `cached_texts` are the texts of `cached`'s conjuncts and
/// `conj` describes `req`'s, so no expression is rendered per candidate.
fn match_specs_explained(
    cached: &QuerySpec,
    cached_texts: &[String],
    req: &QuerySpec,
    conj: &Conjuncts,
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
    // Residual: requested conjuncts not already enforced verbatim. They
    // must be evaluable on the aggregated cache rows: they may touch cached
    // group columns only.
    let mut residual: Vec<Expr> = Vec::new();
    for ((r, text), cols) in req.filters.iter().zip(&conj.texts).zip(&conj.columns) {
        if cached_texts.contains(text) {
            continue;
        }
        if !cols.iter().all(|c| cached.group_by.contains(c)) {
            return Err(why::CACHE_MISS_RESIDUAL_COLUMN);
        }
        residual.push(r.clone());
    }

    // Aggregates: at the same grouping an equal cached call is copied;
    // otherwise every part of the call must be cached (COUNTD has none).
    let regroup = if same_grouping {
        Regroup::Same
    } else {
        Regroup::Rollup {
            ungrouped: req.group_by.is_empty(),
        }
    };
    let merge = agg::merge(&req.aggs, regroup, |func, arg| {
        let c = cached
            .aggs
            .iter()
            .find(|c| c.func == func && c.arg.as_ref() == arg)?;
        Some(c.alias.clone())
    })
    .ok_or(why::CACHE_MISS_AGG_NOT_DERIVABLE)?;
    Ok(MatchPlan {
        residual,
        same_grouping,
        merge,
    })
}

/// Post-process the cached chunk into the requested shape: residual
/// filter → projection or roll-up → order/top-n, directly on the chunk
/// under one `post_process` span.
fn post_process(cached: &Chunk, req: &QuerySpec, mp: &MatchPlan) -> Result<Chunk> {
    let mut span = tabviz_obs::span(stage::POST_PROCESS);
    span.label("cache");
    let filtered;
    let mut input = cached;
    if !mp.residual.is_empty() {
        let sel = and_all(mp.residual.clone()).eval_predicate_sel(cached)?;
        if !sel.is_all() {
            filtered = cached.take(&sel.iter().collect::<Vec<_>>());
            input = &filtered;
        }
    }
    let group_cols = || req.group_by.iter().map(|g| (col(g.clone()), g.clone()));
    let outputs = || {
        group_cols()
            .chain(mp.merge.outputs.iter().cloned())
            .collect::<Vec<_>>()
    };
    let mut out = if mp.same_grouping {
        // Pure filter + projection.
        project(input, &outputs())?
    } else {
        // Roll up to the coarser grouping, projecting only when some output
        // is not a plain re-aggregated column.
        let group_by: Vec<(Expr, String)> = group_cols().collect();
        let rolled = aggregate_chunk(input, &group_by, &mp.merge.rollup)?;
        if mp.merge.is_plain() {
            rolled
        } else {
            project(&rolled, &outputs())?
        }
    };
    if !req.order.is_empty() {
        let keys = req
            .order
            .iter()
            .map(|k| Ok((out.schema().index_of(&k.column)?, k.asc)))
            .collect::<Result<Vec<_>>>()?;
        out = out.sort_by(&keys);
    }
    if let Some(n) = req.topn {
        out = out.slice(0, n.min(out.len()));
    }
    span.detail(out.len() as u64);
    Ok(out.compact_strings())
}

/// Evaluate `(expr, name)` pairs over `chunk`, typed as the engine's
/// projection types them.
fn project(chunk: &Chunk, exprs: &[(Expr, String)]) -> Result<Chunk> {
    let schema = project_schema(chunk.schema(), exprs)?;
    let cols = exprs
        .iter()
        .map(|(e, _)| e.eval(chunk))
        .collect::<Result<_>>()?;
    Chunk::new(schema, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc as StdArc;
    use tabviz_common::{Collation, DataType, Field, Schema, Value};
    use tabviz_storage::{Database, Table};
    use tabviz_tde::{ExecOptions, Tde};
    use tabviz_tql::expr::{bin, lit};
    use tabviz_tql::{AggCall, AggFunc, BinOp, LogicalPlan, SortKey};

    /// The post-processing the cache ran before it worked on chunks: the
    /// cached chunk stored as a table and the request planned and run by a
    /// throwaway TDE. The reference [`post_process`] is checked against.
    fn reference_post_process(cached: &Chunk, req: &QuerySpec, mp: &MatchPlan) -> Result<Chunk> {
        let db = Arc::new(Database::new("__cache"));
        db.put(Table::from_chunk("__cached", cached, &[])?)?;
        let mut plan = LogicalPlan::scan("__cached");
        if !mp.residual.is_empty() {
            plan = plan.select(and_all(mp.residual.clone()));
        }
        let mut exprs: Vec<(Expr, String)> = req
            .group_by
            .iter()
            .map(|g| (col(g.clone()), g.clone()))
            .collect();
        if !mp.same_grouping {
            plan = plan.aggregate(exprs.clone(), mp.merge.rollup.clone());
        }
        exprs.extend(mp.merge.outputs.iter().cloned());
        plan = plan.project(exprs);
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

    /// [`Inner::candidates`]'s reference: every entry of the request's
    /// bucket, most recent first — the walk the index replaced.
    fn bucket_walk(inner: &Inner, req: &QuerySpec, _: &Conjuncts) -> (Vec<u64>, &'static str) {
        let mut ids: Vec<u64> = inner
            .index
            .get(&req.bucket_key())
            .into_iter()
            .flatten()
            .flat_map(|slot| slot.ids.iter().copied())
            .collect();
        ids.sort_unstable_by(|a, b| b.cmp(a));
        (ids, tabviz_obs::reason::CACHE_MISS_NO_CANDIDATE)
    }

    /// Detail rows for the oracles: a case-insensitive `origin` and a
    /// NULL-heavy `delay` and `dest`. Stored as `flights` and `flights2`.
    fn oracle_db() -> Arc<Database> {
        let schema = StdArc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("origin", DataType::Str).with_collation(Collation::CaseInsensitive),
                Field::new("dest", DataType::Str),
                Field::new("distance", DataType::Int),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let carriers = ["AA", "DL", "WN"];
        let origins = ["JFK", "jfk", "LAX", "SFO"];
        let dests = ["BOS", "ORD", "DEN"];
        let rows: Vec<Vec<Value>> = (0..60i64)
            .map(|i| {
                let u = i as usize;
                vec![
                    Value::Str(carriers[u % 3].into()),
                    Value::Str(origins[(u * 7) % 4].into()),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Str(dests[(u * 5) % 3].into())
                    },
                    Value::Int(100 + (i * 37) % 900),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int((i * 13) % 41 - 10)
                    },
                ]
            })
            .collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let db = Arc::new(Database::new("faa"));
        for name in ["flights", "flights2"] {
            db.put(Table::from_chunk(name, &chunk, &[]).unwrap())
                .unwrap();
        }
        db
    }

    /// A conjunct over a grouped-or-not column, by index into a fixed pool:
    /// equality, `IN` and ranges on group columns and on `distance`/`delay`,
    /// which no oracle spec groups by.
    fn conjunct(k: usize) -> Expr {
        let s = |v: &str| Value::Str(v.into());
        let in_list = |c: &str, vals: &[&str]| Expr::In {
            expr: Box::new(col(c)),
            list: vals.iter().map(|v| s(v)).collect(),
            negated: false,
        };
        let between = |lo: i64, hi: i64| Expr::Between {
            expr: Box::new(col("distance")),
            low: Value::Int(lo),
            high: Value::Int(hi),
        };
        match k % 12 {
            0 => bin(BinOp::Eq, col("carrier"), lit("AA")),
            1 => in_list("carrier", &["AA", "DL"]),
            2 => bin(BinOp::Eq, col("origin"), lit("JFK")),
            3 => in_list("origin", &["jfk", "LAX"]),
            4 => in_list("dest", &["BOS", "ORD"]),
            5 => bin(BinOp::Eq, col("carrier"), lit("ZZ")),
            6 => between(100, 600),
            7 => between(300, 800),
            8 => between(350, 500),
            9 => bin(BinOp::Gt, col("delay"), lit(0i64)),
            10 => bin(BinOp::Ge, col("delay"), lit(5i64)),
            _ => bin(BinOp::Le, col("distance"), lit(700i64)),
        }
    }

    const GROUP_COLS: [&str; 3] = ["carrier", "origin", "dest"];

    /// A spec over `table` from drawn bits: grouping, conjuncts, aggregates
    /// and an optional order / top-n.
    fn oracle_spec(
        table: &str,
        groups: u8,
        conjuncts: &[usize],
        aggs: u8,
        topn: Option<u8>,
    ) -> QuerySpec {
        let mut spec = QuerySpec::new("faa", LogicalPlan::scan(table));
        for (i, g) in GROUP_COLS.iter().enumerate() {
            if groups & (1 << i) != 0 {
                spec = spec.group(*g);
            }
        }
        for &k in conjuncts {
            spec = spec.filter(conjunct(k));
        }
        let calls = [
            AggCall::new(AggFunc::Count, None, "n"),
            AggCall::new(AggFunc::Sum, Some(col("delay")), "total"),
            AggCall::new(AggFunc::Count, Some(col("delay")), "cnt"),
            AggCall::new(AggFunc::Avg, Some(col("delay")), "avg"),
            AggCall::new(AggFunc::Min, Some(col("delay")), "lo"),
            AggCall::new(AggFunc::Max, Some(col("distance")), "far"),
            AggCall::new(AggFunc::CountD, Some(col("dest")), "dests"),
            AggCall::new(AggFunc::Avg, Some(col("delay")), "avg2"),
        ];
        for (i, call) in calls.into_iter().enumerate() {
            if aggs & (1 << i) != 0 {
                spec = spec.agg(call);
            }
        }
        if spec.aggs.is_empty() {
            spec = spec.agg(AggCall::new(AggFunc::Count, None, "n"));
        }
        if let Some(t) = topn {
            let key = spec.output_columns()[t as usize % spec.output_columns().len()].clone();
            let key = if t % 2 == 0 {
                SortKey::asc(key)
            } else {
                SortKey::desc(key)
            };
            spec = spec.order_by(vec![key]);
            if t % 3 != 0 {
                spec = spec.top(1 + (t as usize % 4));
            }
        }
        spec
    }

    type SpecBits = (u8, Vec<usize>, u8, Option<u8>);

    fn spec_bits() -> impl Strategy<Value = SpecBits> {
        (
            0u8..8,
            proptest::collection::vec(0usize..12, 0..4),
            0u8..=255,
            proptest::option::of(0u8..=255),
        )
    }

    /// A chunk's fields and rows: what two post-processing paths must agree
    /// on, whatever string tables they built along the way.
    fn row_view(chunk: &Chunk) -> (Vec<Field>, Vec<Vec<Value>>) {
        (chunk.schema().fields().to_vec(), chunk.to_rows())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Index completeness: over random contents (groupings, `=`/`IN`/range
        /// conjuncts on grouped and ungrouped columns, top-n and stale
        /// entries), the indexed probe answers every request as the bucket
        /// walk does, and `can_answer` agrees with the walk.
        #[test]
        fn indexed_lookup_matches_the_bucket_walk(
            stored in proptest::collection::vec((spec_bits(), any::<bool>(), any::<bool>()), 1..14),
            requests in proptest::collection::vec((spec_bits(), any::<bool>(), 0usize..64, proptest::option::of(0usize..6)), 1..10),
            stale_mode in 0u8..3,
        ) {
            let db = oracle_db();
            let tde = Tde::new(Arc::clone(&db));
            let cache = IntelligentCache::new(CacheConfig {
                min_cost: Duration::ZERO,
                swr_grace: if stale_mode == 2 { Duration::from_secs(60) } else { Duration::ZERO },
                ..Default::default()
            });
            let table = |other: bool| if other { "flights2" } else { "flights" };
            for ((g, f, a, t), other, _) in &stored {
                let spec = oracle_spec(table(*other), *g, f, *a, *t);
                let out = tde.execute_plan(&spec.to_plan().unwrap(), &ExecOptions::serial()).unwrap();
                cache.put(spec, out, Duration::from_millis(1));
            }
            if stale_mode > 0 {
                cache.mark_tag_stale(&crate::tags::table_tag("faa", "flights2"));
            }
            for ((g, f, a, t), other, pick, extra) in &requests {
                // Half the requests refine a stored entry (coarser grouping,
                // fewer aggregates, an extra conjunct), so that hits occur.
                let req = if pick % 2 == 0 {
                    let ((sg, sf, sa, st), s_other, _) = &stored[pick / 2 % stored.len()];
                    let mut sf = sf.clone();
                    sf.extend(extra);
                    let t = if g % 2 == 0 { *st } else { *t };
                    oracle_spec(table(*s_other), sg & (g | 1), &sf, sa & (a | 1), t)
                } else {
                    oracle_spec(table(*other), *g, f, *a, *t)
                };
                for (allow_stale, fresh_only) in [(false, false), (true, false), (false, true)] {
                    let (hit, why) = cache.lookup_via(&req, allow_stale, fresh_only, Inner::candidates);
                    let (want, want_why) = cache.lookup_via(&req, allow_stale, fresh_only, bucket_walk);
                    prop_assert_eq!(hit.as_ref().map(row_view), want.as_ref().map(row_view), "{}", req.canonical_text());
                    if want.is_some() {
                        prop_assert_eq!(why, want_why);
                    }
                }
                let walk = {
                    let conj = Conjuncts::of(&req);
                    let inner = cache.inner.lock();
                    bucket_walk(&inner, &req, &conj).0.iter().filter_map(|id| inner.entries.get(id)).any(|e| {
                        !e.stale && match_specs_explained(&e.spec, &e.conjuncts, &req, &conj).is_ok()
                    })
                };
                prop_assert_eq!(cache.can_answer(&req), walk);
            }
        }

        /// Post-process differential: chunk-level post-processing equals the
        /// table-and-plan reference for residuals, roll-ups, AVG from
        /// SUM+COUNT, ungrouped COUNT over no rows, NULL-heavy and
        /// case-insensitive group columns, and order + top-n.
        #[test]
        fn chunk_post_process_matches_the_engine(
            cached_bits in (1u8..8, proptest::collection::vec(6usize..12, 0..3)),
            req_bits in (0u8..8, proptest::collection::vec(0usize..6, 0..3), 0u8..=255, proptest::option::of(0u8..=255)),
        ) {
            let db = oracle_db();
            let tde = Tde::new(db);
            let (g, f) = cached_bits;
            // Every aggregate but the two AVGs is cached, so they have to be
            // derived.
            let cached = oracle_spec("flights", g, &f, 0b0111_0111, None);
            let chunk = tde.execute_plan(&cached.to_plan().unwrap(), &ExecOptions::serial()).unwrap();
            let (rg, rf, ra, rt) = req_bits;
            let rg = rg & g;
            // Residuals on cached group columns, so that they stay evaluable
            // (`carrier = 'ZZ'` leaves an ungrouped request no rows); COUNTD
            // only where the grouping does not change.
            let grouped = |k: &usize| {
                let c = conjunct(*k).columns();
                c.iter().all(|c| GROUP_COLS.iter().position(|col| col == c).is_some_and(|i| g & (1 << i) != 0))
            };
            let rf: Vec<usize> = rf.into_iter().filter(grouped).collect();
            let ra = if rg == g { ra } else { ra & 0b1011_1111 };
            let mut req = oracle_spec("flights", rg, &rf, ra, rt);
            req.filters.extend(cached.filters.iter().cloned());
            let conj = Conjuncts::of(&req);
            let texts: Vec<String> = cached.filters.iter().map(write_expr).collect();
            let Ok(plan) = match_specs_explained(&cached, &texts, &req, &conj) else {
                return Ok(());
            };
            let got = post_process(&chunk, &req, &plan).map(|c| row_view(&c));
            let want = reference_post_process(&chunk, &req, &plan).map(|c| row_view(&c));
            prop_assert_eq!(got.as_ref().ok(), want.as_ref().ok(), "{}", req.canonical_text());
            // And both equal direct evaluation (as row sets: a top-n may
            // break ties either way).
            if rt.is_none() {
                let direct = tde.execute_plan(&req.to_plan().unwrap(), &ExecOptions::serial()).unwrap();
                let mut rows = got.unwrap().1;
                let mut direct = direct.to_rows();
                rows.sort();
                direct.sort();
                prop_assert_eq!(rows, direct, "{}", req.canonical_text());
            }
        }
    }

    #[test]
    fn ungrouped_count_over_no_rows_is_zero_on_both_paths() {
        let tde = Tde::new(oracle_db());
        let cached = oracle_spec("flights", 0b001, &[], 0b000_0011, None);
        let chunk = tde
            .execute_plan(&cached.to_plan().unwrap(), &ExecOptions::serial())
            .unwrap();
        let req = oracle_spec("flights", 0, &[5], 0b000_0011, None);
        let conj = Conjuncts::of(&req);
        let plan = match_specs_explained(&cached, &[], &req, &conj).unwrap();
        let got = post_process(&chunk, &req, &plan).unwrap();
        assert_eq!(got.to_rows(), [[Value::Int(0), Value::Null]]);
        let want = reference_post_process(&chunk, &req, &plan).unwrap();
        assert_eq!(row_view(&got), row_view(&want));
    }

    #[test]
    fn pruned_probes_name_the_rule() {
        use tabviz_obs::reason as why;
        let cache = cache_with_entry();
        // Nothing cached over this relation.
        let mut req = cached_spec();
        req.relation = LogicalPlan::scan("elsewhere");
        assert_eq!(cache.get_explained(&req).1, why::CACHE_MISS_NO_CANDIDATE);
        // No slot groups by `dest`.
        let req = cached_spec().group("dest");
        assert_eq!(
            cache.get_explained(&req).1,
            why::CACHE_MISS_GROUP_NOT_SUBSET
        );
        // The slot covers the grouping, but no entry caches `delay > 5`.
        let req = cached_spec().filter(bin(BinOp::Gt, col("delay"), lit(5i64)));
        assert_eq!(cache.get_explained(&req).1, why::CACHE_MISS_RESIDUAL_COLUMN);
        let inner = cache.inner.lock();
        let conj = Conjuncts::of(&req);
        assert!(inner.candidates(&req, &conj).0.is_empty());
    }

    #[test]
    fn fresh_result_below_min_cost_retires_the_stale_entry() {
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::from_micros(50),
            swr_grace: Duration::from_secs(10),
            ..Default::default()
        });
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(100));
        assert_eq!(cache.mark_tag_stale(&crate::tags::source_tag("faa")), 1);
        // The revalidated result is cheap, so the cache will not keep it —
        // but it must not keep serving the stale six rows either.
        let fresh = detail_chunk().slice(0, 1);
        cache.put(cached_spec(), fresh.clone(), Duration::from_micros(10));
        let (hit, why) = cache.get_explained(&cached_spec());
        assert!(hit.is_none(), "stale rows served after revalidation: {why}");
        assert!(cache.stale_entries().is_empty());
        assert_eq!(cache.stats().rejected_inserts, 1);
        // An admissible fresh result takes the stale entry's place.
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(100));
        cache.mark_tag_stale(&crate::tags::source_tag("faa"));
        cache.put(cached_spec(), fresh, Duration::from_millis(100));
        let (hit, why) = cache.get_explained(&cached_spec());
        assert_eq!(hit.map(|c| c.len()), Some(1));
        assert_eq!(why, tabviz_obs::reason::CACHE_HIT_EXACT);
        assert!(cache.stale_entries().is_empty());
        // A cheap result leaves a fresh entry alone.
        cache.put(cached_spec(), detail_chunk(), Duration::from_micros(10));
        assert_eq!(cache.get(&cached_spec()).map(|c| c.len()), Some(1));
    }

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
        let exact_chunk =
            Chunk::from_rows(coarse_schema, &[vec!["AA".into(), Value::Int(777)]]).unwrap();
        cache.put(coarse_req.clone(), exact_chunk, Duration::from_millis(10));
        // The fine entry (would roll up to n=20 for AA) inserted AFTER, so
        // a match by recency would pick it.
        cache.put(cached_spec(), detail_chunk(), Duration::from_millis(10));

        let out = cache.get(&coarse_req).unwrap();
        assert_eq!(out.row(0)[1], Value::Int(777), "exact entry must win");
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

    /// `cached_spec()`'s shape at 3 carriers × 400 origins (1 200 rows),
    /// with its filter or without.
    fn large_entry(filtered: bool) -> IntelligentCache {
        let cache = IntelligentCache::new(CacheConfig::default());
        let mut rows = Vec::new();
        for c in ["AA", "DL", "WN"] {
            for o in 0..400 {
                let (c, o) = (Value::from(c), Value::Str(format!("O{o}")));
                rows.push(vec![c, o, Value::Int(2), Value::Int(9), Value::Int(2)]);
            }
        }
        let chunk = Chunk::from_rows(StdArc::clone(detail_chunk().schema()), &rows).unwrap();
        let mut spec = cached_spec();
        if !filtered {
            spec.filters.clear();
        }
        cache.put(spec, chunk, Duration::from_millis(100));
        cache
    }

    fn by_carrier(filters: Vec<Expr>) -> QuerySpec {
        let mut spec = QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        spec.filters = filters;
        spec
    }

    #[test]
    fn unfiltered_rollup_of_a_large_entry_is_kept() {
        let cache = large_entry(false);
        let (first, why) = cache.get_explained(&by_carrier(vec![]));
        assert_eq!(why, tabviz_obs::reason::CACHE_HIT_ROLLUP);
        assert_eq!(cache.len(), 2, "the roll-up is kept");
        let (again, why) = cache.get_explained(&by_carrier(vec![]));
        assert_eq!(why, tabviz_obs::reason::CACHE_HIT_EXACT);
        assert_eq!(again.unwrap().to_rows(), first.unwrap().to_rows());
        // A filtered view is not kept, with a residual or without one.
        cache
            .get(&by_carrier(vec![bin(BinOp::Eq, col("origin"), lit("O7"))]))
            .unwrap();
        assert_eq!(cache.len(), 2);
        let filtered = large_entry(true);
        filtered
            .get(&by_carrier(vec![bin(BinOp::Gt, col("delay"), lit(0i64))]))
            .unwrap();
        assert_eq!(filtered.len(), 1);
        // Nor is the roll-up of a small entry.
        let small = IntelligentCache::new(CacheConfig::default());
        let mut small_spec = cached_spec();
        small_spec.filters.clear();
        small.put(small_spec, detail_chunk(), Duration::from_millis(100));
        small.get(&by_carrier(vec![])).unwrap();
        assert_eq!(small.len(), 1);
    }

    #[test]
    fn rollup_of_an_entry_purged_meanwhile_is_not_kept() {
        let cache = StdArc::new(large_entry(false));
        let purger = StdArc::downgrade(&cache);
        *cache.before_post_process.lock() = Some(StdArc::new(move || {
            if let Some(cache) = purger.upgrade() {
                cache.purge_tag(&crate::tags::source_tag("faa"));
            }
        }));
        assert!(cache.get(&by_carrier(vec![])).is_some());
        assert_eq!(
            cache.len(),
            0,
            "a purged entry's roll-up must not come back"
        );
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
            // The candidate index holds every entry once, under its bucket
            // and grouping, and posts exactly its conjuncts.
            let mut slotted = 0;
            for (bucket, slots) in &inner.index {
                assert!(!slots.is_empty());
                for slot in slots {
                    assert!(!slot.ids.is_empty());
                    slotted += slot.ids.len();
                    for id in &slot.ids {
                        let e = &inner.entries[id];
                        assert_eq!(&e.spec.bucket_key(), bucket);
                        assert_eq!(grouping_set(&e.spec), slot.grouping);
                        for text in &e.conjuncts {
                            assert!(slot.postings[text].contains(id));
                        }
                    }
                    for (text, ids) in &slot.postings {
                        assert!(!ids.is_empty());
                        assert!(ids
                            .iter()
                            .all(|id| inner.entries[id].conjuncts.contains(text)));
                    }
                }
            }
            assert_eq!(slotted, inner.entries.len());
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
        cache.purge_tag(&crate::tags::source_tag("faa"));
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
        assert_eq!(cache.mark_tag_stale(&crate::tags::source_tag("faa")), 1);
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
        cache.purge_tag(&crate::tags::source_tag("faa"));
        assert!(cache.get(&cached_spec()).is_none());
        assert!(cache.get(&other).is_some());
    }
}
