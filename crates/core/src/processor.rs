//! The cached query execution pipeline.
//!
//! Per query (Sect. 3.1–3.2): probe the intelligent cache on the internal
//! structure; compile to the backend dialect; probe the literal cache on the
//! text; otherwise acquire a pooled connection, materialize any required
//! temp tables in the session (falling back to inline compilation when temp
//! creation fails, as the Data Server does in Sect. 5.3), execute remotely,
//! apply local post-processing, and populate both cache levels.

use crate::compile::{apply_local_post, compile_spec, CompiledQuery};
use crate::registry::{ManagedSource, SourceRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabviz_backend::Capabilities;
use tabviz_cache::{QueryCaches, QuerySpec};
use tabviz_common::{Chunk, Result, TvError};
use tabviz_obs::{stage, Counter, Histogram, Obs, ProfileOutcome};
use tabviz_sched::{AdmitRequest, Priority, SchedConfig, Scheduler};

/// How a query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    IntelligentHit,
    LiteralHit,
    /// Both L1 levels missed but the shared L2 tier held the canonical
    /// result; it was promoted into L1 on the way back.
    L2Hit,
    Remote,
    /// The backend was unavailable; the answer came from a cache entry
    /// marked stale. Degraded but rendered — the caller should flag it.
    DegradedStale,
}

/// Cumulative processor counters (a point-in-time copy; see
/// [`QueryProcessor::stats`]). `remote_time` is the sum of the
/// `tv_core_remote_seconds` histogram, so it has microsecond resolution.
#[derive(Debug, Clone, Default)]
pub struct ProcessorStats {
    pub intelligent_hits: u64,
    pub literal_hits: u64,
    /// Queries answered from the shared L2 tier after both L1 levels missed.
    pub l2_hits: u64,
    pub remote_queries: u64,
    /// Remote queries that were widened for reuse before dispatch.
    pub widened_queries: u64,
    pub temp_table_fallbacks: u64,
    pub remote_time: Duration,
    /// Remote attempts repeated after a transient failure.
    pub transient_retries: u64,
    /// Queries answered from a stale cache entry after the backend failed.
    pub degraded_serves: u64,
}

/// The processor's live cells (`tv_core_*`), resolved against its registry
/// once at construction. [`QueryProcessor::stats`] snapshots these same
/// atomics, so the stats struct and the exposition can never disagree, and
/// concurrent batch workers never serialize on bookkeeping.
struct CoreMetrics {
    queries: Counter,
    intelligent_hits: Counter,
    literal_hits: Counter,
    l2_hits: Counter,
    remote_queries: Counter,
    widened_queries: Counter,
    transient_retries: Counter,
    degraded_serves: Counter,
    temp_table_fallbacks: Counter,
    timeouts: Counter,
    query_time: Histogram,
    remote_time: Histogram,
}

impl CoreMetrics {
    fn bind(registry: &tabviz_obs::Registry) -> Self {
        CoreMetrics {
            queries: registry.counter("tv_core_queries_total"),
            intelligent_hits: registry.counter("tv_core_intelligent_hits_total"),
            literal_hits: registry.counter("tv_core_literal_hits_total"),
            l2_hits: registry.counter("tv_core_l2_hits_total"),
            remote_queries: registry.counter("tv_core_remote_queries_total"),
            widened_queries: registry.counter("tv_core_widened_queries_total"),
            transient_retries: registry.counter("tv_core_transient_retries_total"),
            degraded_serves: registry.counter("tv_core_degraded_serves_total"),
            temp_table_fallbacks: registry.counter("tv_core_temp_table_fallbacks_total"),
            timeouts: registry.counter("tv_core_timeouts_total"),
            query_time: registry.histogram("tv_core_query_seconds"),
            remote_time: registry.histogram("tv_core_remote_seconds"),
        }
    }
}

/// Feature switches (each is an experiment baseline).
#[derive(Debug, Clone, Copy)]
pub struct ProcessorOptions {
    pub use_intelligent_cache: bool,
    pub use_literal_cache: bool,
    /// Consult the shared L2 tier (when one is attached) after both L1
    /// levels miss, and publish fresh backend results to it.
    pub use_l2_cache: bool,
    /// Sect. 3.2: "The query processor might choose to adjust queries before
    /// sending, in order to make the results more useful for future reuse."
    /// On a miss, single-value-set filters are folded into the grouping of
    /// the remote query; the original is then answered (and every future
    /// filter variation served) from the widened cached result.
    pub widen_for_reuse: bool,
    /// Cap on extra grouping columns widening may add (cardinality guard).
    pub widen_max_extra_columns: usize,
    /// Per-remote-query deadline; a backend that cannot answer in time
    /// returns [`TvError::Timeout`] instead of hanging the dashboard.
    pub query_timeout: Option<Duration>,
    /// Extra attempts after a transient remote failure (dropped connection,
    /// refused connect). Timeouts are not retried: the budget is spent.
    pub transient_retries: usize,
    /// When the backend stays down after retries, serve a matching cache
    /// entry even if marked stale (degraded rendering) instead of failing.
    pub serve_stale_on_failure: bool,
}

impl Default for ProcessorOptions {
    fn default() -> Self {
        ProcessorOptions {
            use_intelligent_cache: true,
            use_literal_cache: true,
            use_l2_cache: true,
            widen_for_reuse: true,
            widen_max_extra_columns: 2,
            query_timeout: Some(Duration::from_secs(30)),
            transient_retries: 2,
            serve_stale_on_failure: true,
        }
    }
}

/// Filters widening may lift into the grouping: *categorical* single-column
/// constraints (`=` / `IN`) — the dashboard quick-filter shapes. Range
/// filters stay put: folding a continuous column into the grouping would
/// explode cardinality.
fn widenable_column(f: &tabviz_tql::Expr) -> Option<String> {
    use tabviz_tql::{BinOp, Expr};
    match f {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Literal(_)) | (Expr::Literal(_), Expr::Column(c)) => {
                Some(c.clone())
            }
            _ => None,
        },
        // Small enumerations only: large IN-lists are the temp-table
        // externalization case (Sect. 3.1), not the widening case.
        Expr::In {
            expr,
            list,
            negated: false,
        } if list.len() <= WIDEN_MAX_IN_LIST => match expr.as_ref() {
            Expr::Column(c) => Some(c.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// IN-lists above this size are left for externalization instead of being
/// folded into the grouping.
const WIDEN_MAX_IN_LIST: usize = 16;

/// Build the widened variant of a spec, or `None` when widening does not
/// apply (no liftable filters, COUNTD present, or too many extra columns).
fn widen_spec(spec: &QuerySpec, max_extra: usize) -> Option<QuerySpec> {
    use tabviz_tql::AggFunc;
    if spec.aggs.iter().any(|a| a.func == AggFunc::CountD) {
        return None; // COUNTD cannot roll back up
    }
    let mut extra: Vec<String> = Vec::new();
    let mut lifted = 0usize;
    for f in &spec.filters {
        if let Some(c) = widenable_column(f) {
            if !spec.group_by.contains(&c) {
                if !extra.contains(&c) {
                    extra.push(c);
                }
                lifted += 1;
            }
        }
    }
    if lifted == 0 || extra.len() > max_extra {
        return None;
    }
    let mut widened = spec.clone();
    widened.order.clear();
    widened.topn = None;
    // Drop the lifted filters; their columns join the grouping so the cache
    // can re-apply them (and any future variant) as residuals.
    widened
        .filters
        .retain(|f| widenable_column(f).is_none_or(|c| spec.group_by.contains(&c)));
    widened.group_by.extend(extra);
    // AVG needs its SUM/COUNT decomposition cached alongside for roll-up.
    let mut additions = Vec::new();
    for a in &spec.aggs {
        if a.func == AggFunc::Avg {
            let has = |f: AggFunc| widened.aggs.iter().any(|x| x.func == f && x.arg == a.arg);
            if !has(AggFunc::Sum) {
                additions.push(tabviz_tql::AggCall::new(
                    AggFunc::Sum,
                    a.arg.clone(),
                    format!("__w_{}_sum", a.alias),
                ));
            }
            if !has(AggFunc::Count) {
                additions.push(tabviz_tql::AggCall::new(
                    AggFunc::Count,
                    a.arg.clone(),
                    format!("__w_{}_cnt", a.alias),
                ));
            }
        }
    }
    widened.aggs.extend(additions);
    widened.normalize();
    Some(widened)
}

/// RAII slot in the single-flight widen set: acquired when this thread is
/// the first in flight for a widened canonical text, released (even on
/// panic or early return) when dropped.
struct WidenGate<'a> {
    set: &'a std::sync::Mutex<std::collections::HashSet<String>>,
    key: String,
}

impl<'a> WidenGate<'a> {
    fn try_acquire(
        set: &'a std::sync::Mutex<std::collections::HashSet<String>>,
        key: String,
    ) -> Option<Self> {
        let mut guard = set.lock().unwrap_or_else(|p| p.into_inner());
        if guard.insert(key.clone()) {
            Some(WidenGate { set, key })
        } else {
            None
        }
    }
}

impl Drop for WidenGate<'_> {
    fn drop(&mut self) {
        self.set
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.key);
    }
}

/// The query processor: sources + caches + observability.
pub struct QueryProcessor {
    pub registry: SourceRegistry,
    pub caches: QueryCaches,
    pub options: ProcessorOptions,
    /// Per-processor observability: metrics registry + flight recorder.
    pub obs: Arc<Obs>,
    /// Optional admission controller. When set, every backend-bound query
    /// acquires a [`tabviz_sched::Ticket`] before touching a pool; cache
    /// hits are never queued.
    scheduler: Option<Arc<Scheduler>>,
    /// Widened canonical texts currently being computed. Concurrent misses
    /// on the same reusable shape elect one widener; the rest run their
    /// original query directly instead of racing duplicate widened scans
    /// against the backend.
    widen_inflight: std::sync::Mutex<std::collections::HashSet<String>>,
    metrics: CoreMetrics,
}

impl Default for QueryProcessor {
    fn default() -> Self {
        Self::new(QueryCaches::default())
    }
}

impl QueryProcessor {
    pub fn new(caches: QueryCaches) -> Self {
        let obs = Arc::new(Obs::new());
        caches.bind_obs(&obs.registry);
        let registry = SourceRegistry::new();
        registry.set_obs(obs.registry.clone());
        let metrics = CoreMetrics::bind(&obs.registry);
        QueryProcessor {
            registry,
            caches,
            options: ProcessorOptions::default(),
            obs,
            scheduler: None,
            widen_inflight: std::sync::Mutex::new(std::collections::HashSet::new()),
            metrics,
        }
    }

    /// Attach a workload scheduler. All subsequent backend-bound queries
    /// pass through its admission queue; its `tv_sched_*` metrics land in
    /// this processor's registry.
    pub fn set_scheduler(&mut self, scheduler: Arc<Scheduler>) {
        scheduler.bind_obs(&self.obs.registry);
        self.scheduler = Some(scheduler);
    }

    /// Attach a scheduler sized from the registered pools (one running
    /// ticket per pooled connection). Call after registering sources.
    pub fn enable_scheduler(&mut self) -> Arc<Scheduler> {
        let capacity = self.registry.total_pool_capacity().max(1);
        let mut config = SchedConfig::for_pool_capacity(capacity);
        // Per-source ceilings at each backend's pool size: one saturated
        // backend queues its own tickets while the rest of the global
        // budget keeps serving healthy backends.
        for (name, cap) in self.registry.pool_capacities() {
            config = config.with_source_limit(name, cap.max(1));
        }
        let scheduler = Arc::new(Scheduler::new(config));
        self.set_scheduler(Arc::clone(&scheduler));
        scheduler
    }

    pub fn scheduler(&self) -> Option<&Arc<Scheduler>> {
        self.scheduler.as_ref()
    }

    pub fn stats(&self) -> ProcessorStats {
        let m = &self.metrics;
        ProcessorStats {
            intelligent_hits: m.intelligent_hits.get(),
            literal_hits: m.literal_hits.get(),
            l2_hits: m.l2_hits.get(),
            remote_queries: m.remote_queries.get(),
            widened_queries: m.widened_queries.get(),
            temp_table_fallbacks: m.temp_table_fallbacks.get(),
            remote_time: Duration::from_micros(m.remote_time.sum_micros()),
            transient_retries: m.transient_retries.get(),
            degraded_serves: m.degraded_serves.get(),
        }
    }

    /// The query-class key used for latency-fingerprint baselines: the
    /// dashboard-zone shape (source + grouping + aggregate aliases),
    /// excluding filter literals — so interactions over the same zone
    /// (filter sliders, cross-filters) share one class.
    pub fn query_class(spec: &QuerySpec) -> String {
        let aggs: Vec<&str> = spec.aggs.iter().map(|a| a.alias.as_str()).collect();
        format!(
            "{}|g:{}|a:{}",
            spec.source,
            spec.group_by.join(","),
            aggs.join(",")
        )
    }

    /// Execute one internal query through the full pipeline, recording one
    /// [`tabviz_obs::RecordedTrace`] (timeline of stages, retries, fault
    /// attribution, outcome) into [`Self::obs`]'s flight recorder.
    pub fn execute(&self, spec: &QuerySpec) -> Result<(Chunk, ExecOutcome)> {
        self.execute_as(spec, &AdmitRequest::interactive("internal"))
    }

    /// [`QueryProcessor::execute`] under an explicit workload class: the
    /// admission request names the priority, fairness session, weight and
    /// queue deadline used if this query needs backend work.
    pub fn execute_as(&self, spec: &QuerySpec, req: &AdmitRequest) -> Result<(Chunk, ExecOutcome)> {
        let started = Instant::now();
        // A cross-thread trace assembles this query's spans — including
        // those recorded on morsel scan workers — into one tree.
        let trace = tabviz_obs::begin_trace();
        let result = self.execute_inner(spec, req);
        let total = started.elapsed();
        self.metrics.queries.inc();
        self.metrics.query_time.observe(total);
        if matches!(result, Err(TvError::Timeout(_))) {
            self.metrics.timeouts.inc();
        }
        let finished = trace.finish(total);
        // Nothing below runs when trace capture is globally off (the e20
        // overhead arm): the query leaves counters behind, no record.
        if finished.is_captured() {
            let outcome = match &result {
                Ok((_, _, profile_outcome)) => *profile_outcome,
                Err(_) => ProfileOutcome::Failed,
            };
            // Fold this query into its class's latency fingerprint so the
            // root-cause analyzer can diff tail outliers against the
            // class's normal stage shape.
            let class = Self::query_class(spec);
            self.obs.baselines.observe(&class, &finished.events, total);
            self.obs.recorder.record(
                tabviz_obs::RecordedTrace::from_finished(
                    finished,
                    spec.canonical_text().replace('\u{1}', " "),
                    spec.source.clone(),
                    outcome,
                )
                .with_class(class),
            );
        }
        result.map(|(chunk, exec, _)| (chunk, exec))
    }

    /// The untraced pipeline body. Returns the public [`ExecOutcome`] plus
    /// the finer-grained [`ProfileOutcome`] (widened serves are `Derived`,
    /// not `Remote`).
    fn execute_inner(
        &self,
        spec: &QuerySpec,
        req: &AdmitRequest,
    ) -> Result<(Chunk, ExecOutcome, ProfileOutcome)> {
        let managed = self.registry.get(&spec.source)?;
        if self.options.use_intelligent_cache {
            let hit = {
                let mut s = tabviz_obs::span(stage::CACHE_LOOKUP);
                s.label("intelligent");
                // Background work is the revalidation lane SWR serving
                // depends on: it must see through grace-window entries to
                // the backend, or stale data would revalidate itself.
                let (hit, why) = if req.priority == Priority::Background {
                    self.caches.intelligent.get_explained_fresh_only(spec)
                } else {
                    self.caches.intelligent.get_explained(spec)
                };
                s.reason(why);
                hit
            };
            if let Some(hit) = hit {
                self.metrics.intelligent_hits.inc();
                tabviz_obs::event_with(
                    stage::CACHE_TIER,
                    Some("l1"),
                    Some(hit.len() as u64),
                    Some(tabviz_obs::reason::CACHE_L1_HIT),
                );
                return Ok((hit, ExecOutcome::IntelligentHit, ProfileOutcome::Hit));
            }
        }
        let compiled = {
            let _s = tabviz_obs::span(stage::COMPILE);
            compile_spec(spec, managed.capabilities(), &managed.compile_options)?
        };
        if self.options.use_literal_cache {
            let hit = {
                let mut s = tabviz_obs::span(stage::CACHE_LOOKUP);
                s.label("literal");
                let (hit, why) = self
                    .caches
                    .literal
                    .get_explained(&spec.source, &compiled.remote.text);
                s.reason(why);
                hit
            };
            if let Some(hit) = hit {
                self.metrics.literal_hits.inc();
                tabviz_obs::event_with(
                    stage::CACHE_TIER,
                    Some("l1"),
                    Some(hit.len() as u64),
                    Some(tabviz_obs::reason::CACHE_L1_HIT),
                );
                return Ok((hit, ExecOutcome::LiteralHit, ProfileOutcome::Hit));
            }
        }
        // Both L1 levels missed: consult the shared L2 tier before paying
        // the backend round trip, and promote a hit into L1 for next time.
        if self.options.use_l2_cache && self.caches.has_l2() {
            let hit = {
                let mut s = tabviz_obs::span(stage::CACHE_TIER);
                s.label("get");
                match self.caches.l2_lookup(spec) {
                    Some(chunk) => {
                        s.detail(chunk.len() as u64);
                        s.reason(tabviz_obs::reason::CACHE_L2_HIT);
                        Some(chunk)
                    }
                    None => None,
                }
            };
            if let Some(chunk) = hit {
                self.metrics.l2_hits.inc();
                {
                    let mut s = tabviz_obs::span(stage::CACHE_TIER);
                    s.label("promote");
                    s.reason(tabviz_obs::reason::CACHE_L2_PROMOTE);
                    // Nominal insert cost: the entry already proved itself
                    // worth caching when the producing node stored it.
                    self.caches.l2_promote(
                        spec.clone(),
                        &compiled.remote.text,
                        &chunk,
                        Duration::from_millis(1),
                    );
                }
                return Ok((chunk, ExecOutcome::L2Hit, ProfileOutcome::Hit));
            }
        }
        // Widening: send a more reusable remote query and answer this (and
        // future filter variations) from its cached result.
        if self.options.widen_for_reuse && self.options.use_intelligent_cache {
            if let Some(widened) = widen_spec(spec, self.options.widen_max_extra_columns) {
                // Single-flight: only one concurrent miss per widened shape
                // runs the widened query; losers fall through to a direct
                // remote execution of their original spec.
                let gate = WidenGate::try_acquire(&self.widen_inflight, widened.canonical_text());
                if gate.is_some() {
                    let _w = tabviz_obs::span(stage::WIDEN);
                    if let Ok(compiled_w) =
                        compile_spec(&widened, managed.capabilities(), &managed.compile_options)
                    {
                        let t0 = Instant::now();
                        if let Ok(chunk_w) =
                            self.run_remote_admitted(&managed, &widened, &compiled_w, req)
                        {
                            let cost = t0.elapsed();
                            self.metrics.remote_queries.inc();
                            self.metrics.widened_queries.inc();
                            self.metrics.remote_time.observe(cost);
                            {
                                let _s = tabviz_obs::span(stage::CACHE_STORE);
                                self.caches.intelligent.put(
                                    widened.clone(),
                                    chunk_w.clone(),
                                    cost.max(Duration::from_millis(1)),
                                );
                            }
                            if self.options.use_l2_cache && self.caches.has_l2() {
                                let mut s = tabviz_obs::span(stage::CACHE_TIER);
                                s.label("put");
                                s.detail(chunk_w.len() as u64);
                                self.caches.l2_store(&widened, &chunk_w);
                            }
                            let hit = {
                                let mut s = tabviz_obs::span(stage::CACHE_LOOKUP);
                                s.label("intelligent");
                                let (hit, why) = self.caches.intelligent.get_explained(spec);
                                s.reason(why);
                                hit
                            };
                            if let Some(hit) = hit {
                                return Ok((hit, ExecOutcome::Remote, ProfileOutcome::Derived));
                            }
                            // Fall through: the widened entry unexpectedly failed
                            // to cover the original; execute it directly.
                        }
                    }
                }
            }
        }
        let t0 = Instant::now();
        let chunk = match self.run_remote_admitted(&managed, spec, &compiled, req) {
            Ok(chunk) => chunk,
            Err(e) if e.is_degradable() && self.options.serve_stale_on_failure => {
                // Degraded rendering: a stale cached answer beats a failed
                // dashboard when the backend is unavailable.
                match self.caches.lookup_stale(spec, &compiled.remote.text) {
                    Some(stale) => {
                        self.metrics.degraded_serves.inc();
                        return Ok((
                            stale,
                            ExecOutcome::DegradedStale,
                            ProfileOutcome::DegradedStale,
                        ));
                    }
                    None => return Err(e),
                }
            }
            Err(e) => return Err(e),
        };
        let cost = t0.elapsed();
        self.metrics.remote_queries.inc();
        self.metrics.remote_time.observe(cost);
        if self.options.use_literal_cache || self.options.use_intelligent_cache {
            let _s = tabviz_obs::span(stage::CACHE_STORE);
            if self.options.use_literal_cache {
                // Tagged with source + table dependencies so a table
                // refresh purges literal entries as precisely as
                // intelligent ones.
                self.caches.literal.put_tagged(
                    &spec.source,
                    &compiled.remote.text,
                    chunk.clone(),
                    cost,
                    tabviz_cache::tags_for_spec(spec),
                );
            }
            if self.options.use_intelligent_cache {
                self.caches
                    .intelligent
                    .put(spec.clone(), chunk.clone(), cost);
            }
        }
        if self.options.use_l2_cache && self.caches.has_l2() {
            let mut s = tabviz_obs::span(stage::CACHE_TIER);
            s.label("put");
            s.detail(chunk.len() as u64);
            self.caches.l2_store(spec, &chunk);
        }
        Ok((chunk, ExecOutcome::Remote, ProfileOutcome::Remote))
    }

    /// Admission-gated backend execution: with a scheduler attached, the
    /// query queues for a concurrency slot here — a ticket shed by load
    /// shedding or an expired queue deadline fails with
    /// [`TvError::Timeout`] *before* any pool/backend work, which the
    /// caller may degrade into a stale cache serve. The ticket is held
    /// across transient retries so a retry never re-queues.
    fn run_remote_admitted(
        &self,
        managed: &Arc<ManagedSource>,
        spec: &QuerySpec,
        compiled: &CompiledQuery,
        req: &AdmitRequest,
    ) -> Result<Chunk> {
        let _ticket = match &self.scheduler {
            Some(sched) => {
                let mut s = tabviz_obs::span(stage::SCHED_QUEUE);
                s.label(req.priority.name());
                // Name the backend so the per-source gate applies; an
                // explicitly sourced request keeps its own attribution.
                let sourced;
                let req = if req.source.is_none() {
                    sourced = req.clone().with_source(spec.source.clone());
                    &sourced
                } else {
                    req
                };
                let ticket = sched.admit(req)?;
                s.detail(ticket.queued_for().as_micros() as u64);
                s.reason(ticket.grant_reason());
                Some(ticket)
            }
            None => None,
        };
        self.run_remote_resilient(managed, spec, compiled)
    }

    /// [`QueryProcessor::run_remote`] with bounded retries on transient
    /// failures. The backoff shares the pool's deterministic jitter salt.
    fn run_remote_resilient(
        &self,
        managed: &Arc<ManagedSource>,
        spec: &QuerySpec,
        compiled: &CompiledQuery,
    ) -> Result<Chunk> {
        let mut attempt = 0usize;
        loop {
            match self.run_remote(managed, spec, compiled) {
                Ok(chunk) => return Ok(chunk),
                Err(e) if e.is_transient() && attempt < self.options.transient_retries => {
                    self.metrics.transient_retries.inc();
                    tabviz_obs::event(stage::RETRY, Some("transient"), Some(attempt as u64));
                    std::thread::sleep(managed.pool.next_backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Acquire a session (preferring one that already holds the needed temp
    /// structure), materialize temp tables, execute, post-process.
    ///
    /// A session that turns unhealthy (dropped mid-query) is automatically
    /// discarded by the pool guard on drop, so errors here never leak a
    /// poisoned connection to a later acquirer.
    fn run_remote(
        &self,
        managed: &Arc<ManagedSource>,
        spec: &QuerySpec,
        compiled: &CompiledQuery,
    ) -> Result<Chunk> {
        let preferred = compiled.temp_tables.first().map(|(n, _)| n.as_str());
        let mut conn = managed.pool.acquire_preferring(preferred)?;
        if !compiled.temp_tables.is_empty() {
            let mut tspan = tabviz_obs::span(stage::TEMP_TABLES);
            tspan.detail(compiled.temp_tables.len() as u64);
            for (name, data) in &compiled.temp_tables {
                if conn.has_temp_table(name) {
                    tspan.label("reused");
                    continue;
                }
                if let Err(e) = conn.create_temp_table(name, data) {
                    // "If the Data Server fails to create a temporary table on
                    // the database, the query is rewritten to produce a query
                    // that can be evaluated without it" (Sect. 5.3).
                    tspan.label("inline_fallback");
                    drop(tspan);
                    drop(conn);
                    self.metrics.temp_table_fallbacks.inc();
                    let inline_caps = Capabilities {
                        supports_temp_tables: false,
                        ..managed.capabilities().clone()
                    };
                    let inline = compile_spec(spec, &inline_caps, &managed.compile_options)?;
                    if !inline.temp_tables.is_empty() {
                        return Err(TvError::Exec(format!(
                            "inline recompilation still requires temp tables: {e}"
                        )));
                    }
                    let mut conn = managed.pool.acquire()?;
                    let chunk = {
                        let _s = tabviz_obs::span(stage::REMOTE_EXEC);
                        conn.execute(&self.with_deadline(&inline.remote))?
                    };
                    let _p = tabviz_obs::span(stage::POST_PROCESS);
                    return Ok(apply_local_post(chunk, &inline.local_post));
                }
            }
        }
        let chunk = {
            let mut s = tabviz_obs::span(stage::REMOTE_EXEC);
            let chunk = conn.execute(&self.with_deadline(&compiled.remote))?;
            s.detail(chunk.len() as u64);
            chunk
        };
        let _p = tabviz_obs::span(stage::POST_PROCESS);
        Ok(apply_local_post(chunk, &compiled.local_post))
    }

    /// Stamp the configured per-query deadline onto an outgoing query.
    fn with_deadline(&self, rq: &tabviz_backend::RemoteQuery) -> tabviz_backend::RemoteQuery {
        let mut rq = rq.clone();
        rq.timeout = self.options.query_timeout;
        rq
    }

    /// Refresh a data source while its backend is unreachable: instead of
    /// purging, demote its cache entries to stale so they remain available
    /// for degraded serving. Returns how many entries were marked.
    pub fn mark_source_stale(&self, name: &str) -> usize {
        self.caches.mark_source_stale(name)
    }

    /// Close a data source: release pooled sessions and purge cache entries
    /// ("entries are also purged when a connection to a data source is
    /// closed or refreshed").
    pub fn close_source(&self, name: &str) -> Result<()> {
        self.registry.close(name)?;
        self.caches.purge_source(name);
        Ok(())
    }

    /// One table refreshed at the source: purge only its tagged dependents
    /// — across both tiers — instead of the wholesale source purge a
    /// connection close performs. Returns entries removed.
    pub fn refresh_table(&self, source: &str, table: &str) -> usize {
        self.forget_table_meta(source, table);
        let purged = self.caches.purge_table(source, table);
        tabviz_obs::event_with(
            stage::CACHE_TIER,
            Some("purge"),
            Some(purged as u64),
            Some(tabviz_obs::reason::CACHE_TAG_PURGE),
        );
        purged
    }

    /// [`QueryProcessor::refresh_table`] in degraded form: demote L1
    /// dependents to stale (still servable under SWR or outage) and drop
    /// the L2 copies. Returns entries marked.
    pub fn mark_table_stale(&self, source: &str, table: &str) -> usize {
        self.forget_table_meta(source, table);
        self.caches.mark_table_stale(source, table)
    }

    /// A refreshed table's row and distinct counts are out of date too.
    fn forget_table_meta(&self, source: &str, table: &str) {
        if let Ok(managed) = self.registry.get(source) {
            managed.forget_table(table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_backend::{SimConfig, SimDb};
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_storage::{Database, Table};
    use tabviz_tql::expr::{bin, col, lit, BinOp, Expr};
    use tabviz_tql::{AggCall, AggFunc, LogicalPlan};

    fn flights_db(rows: usize) -> Arc<Database> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("market", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Str(["AA", "DL", "WN"][i % 3].into()),
                    Value::Str(format!("M{}", i % 50)),
                    Value::Int((i % 100) as i64),
                ]
            })
            .collect();
        let db = Arc::new(Database::new("remote"));
        db.put(
            Table::from_chunk("flights", &Chunk::from_rows(schema, &data).unwrap(), &[]).unwrap(),
        )
        .unwrap();
        db
    }

    fn processor_with_sim(rows: usize) -> (QueryProcessor, SimDb) {
        let sim = SimDb::new("warehouse", flights_db(rows), SimConfig::default());
        let mut qp = QueryProcessor::default();
        // Most tests here pin the externalization path; widening would lift
        // the big IN filters into the grouping instead.
        qp.options.widen_for_reuse = false;
        qp.registry.register(Arc::new(sim.clone()), 4);
        (qp, sim)
    }

    fn count_by_carrier() -> QuerySpec {
        QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    }

    #[test]
    fn remote_then_cached() {
        let (qp, sim) = processor_with_sim(300);
        let (out1, o1) = qp.execute(&count_by_carrier()).unwrap();
        assert_eq!(o1, ExecOutcome::Remote);
        assert_eq!(out1.len(), 3);
        let (out2, o2) = qp.execute(&count_by_carrier()).unwrap();
        assert_eq!(o2, ExecOutcome::IntelligentHit);
        assert_eq!(out2.to_rows(), out1.to_rows());
        assert_eq!(
            sim.stats().queries,
            1,
            "second answer must not hit the backend"
        );
    }

    #[test]
    fn subsumption_avoids_remote() {
        let (qp, sim) = processor_with_sim(300);
        let fine = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .group("carrier")
            .group("market")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        qp.execute(&fine).unwrap();
        // Coarser query + group-column filter: answered locally.
        let coarse = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Eq, col("carrier"), lit("AA")))
            .group("market")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let (out, outcome) = qp.execute(&coarse).unwrap();
        assert_eq!(outcome, ExecOutcome::IntelligentHit);
        assert_eq!(out.len(), 50);
        assert_eq!(sim.stats().queries, 1);
    }

    #[test]
    fn large_filter_creates_and_reuses_temp_table() {
        let (qp, sim) = processor_with_sim(600);
        let markets: Vec<Value> = (0..40).map(|i| Value::Str(format!("M{i}"))).collect();
        let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(Expr::In {
                expr: Box::new(col("market")),
                list: markets.clone(),
                negated: false,
            })
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let (out, _) = qp.execute(&spec).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(sim.stats().temp_tables_created, 1);
        // Different aggregates, same filter: temp table reused via affinity.
        let spec2 = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(Expr::In {
                expr: Box::new(col("market")),
                list: markets,
                negated: false,
            })
            .group("carrier")
            .agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "total"));
        qp.execute(&spec2).unwrap();
        assert_eq!(
            sim.stats().temp_tables_created,
            1,
            "no duplicate temp table"
        );
    }

    #[test]
    fn temp_table_failure_falls_back_to_inline() {
        let (qp, sim) = processor_with_sim(600);
        sim.set_fail_temp_tables(true);
        let markets: Vec<Value> = (0..40).map(|i| Value::Str(format!("M{i}"))).collect();
        let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(Expr::In {
                expr: Box::new(col("market")),
                list: markets,
                negated: false,
            })
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let (out, _) = qp.execute(&spec).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(qp.stats().temp_table_fallbacks, 1);
        assert_eq!(sim.stats().temp_tables_created, 0);
    }

    #[test]
    fn results_match_between_inline_and_externalized() {
        let (qp, _) = processor_with_sim(600);
        let markets: Vec<Value> = (0..40).map(|i| Value::Str(format!("M{i}"))).collect();
        let make = |list: Vec<Value>| {
            QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
                .filter(Expr::In {
                    expr: Box::new(col("market")),
                    list,
                    negated: false,
                })
                .group("carrier")
                .agg(AggCall::new(AggFunc::Count, None, "n"))
        };
        let (ext, _) = qp.execute(&make(markets.clone())).unwrap();

        // Processor without temp-table support (inline IN-list).
        let sim2 = SimDb::new(
            "warehouse",
            flights_db(600),
            SimConfig {
                capabilities: Capabilities {
                    supports_temp_tables: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let qp2 = QueryProcessor::default();
        qp2.registry.register(Arc::new(sim2), 4);
        let (inline, _) = qp2.execute(&make(markets)).unwrap();
        let mut a = ext.to_rows();
        let mut b = inline.to_rows();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn widening_serves_future_filter_variations() {
        // Sect. 3.2: the processor "adjusts queries before sending" — the
        // first filtered query is widened, so *different* filter subsets
        // afterwards never touch the backend.
        let sim = SimDb::new("warehouse", flights_db(600), SimConfig::default());
        let qp = QueryProcessor::default(); // widening on by default
        qp.registry.register(Arc::new(sim.clone()), 4);
        let with_filter = |subset: &[&str]| {
            QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
                .filter(Expr::In {
                    expr: Box::new(col("carrier")),
                    list: subset.iter().map(|&s| Value::from(s)).collect(),
                    negated: false,
                })
                .group("market")
                .agg(AggCall::new(AggFunc::Count, None, "n"))
                .agg(AggCall::new(AggFunc::Avg, Some(col("delay")), "avg"))
        };
        let (out1, o1) = qp.execute(&with_filter(&["AA", "DL"])).unwrap();
        assert_eq!(o1, ExecOutcome::Remote);
        assert_eq!(qp.stats().widened_queries, 1);
        // A different subset: pure cache work.
        let (out2, o2) = qp.execute(&with_filter(&["WN"])).unwrap();
        assert_eq!(o2, ExecOutcome::IntelligentHit);
        assert_eq!(
            sim.stats().queries,
            1,
            "one widened backend query serves all"
        );
        // Correctness: widened-path answers equal direct execution.
        let mut qp2 = QueryProcessor::default();
        qp2.options.widen_for_reuse = false;
        qp2.options.use_intelligent_cache = false;
        qp2.options.use_literal_cache = false;
        let sim2 = SimDb::new("warehouse", flights_db(600), SimConfig::default());
        qp2.registry.register(Arc::new(sim2), 4);
        for (subset, widened_out) in [(vec!["AA", "DL"], &out1), (vec!["WN"], &out2)] {
            let (direct, _) = qp2.execute(&with_filter(&subset)).unwrap();
            let mut a = widened_out.to_rows();
            let mut b = direct.to_rows();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn widening_skips_countd_and_range_filters() {
        let sim = SimDb::new("warehouse", flights_db(300), SimConfig::default());
        let qp = QueryProcessor::default();
        qp.registry.register(Arc::new(sim.clone()), 4);
        // Range filter only: nothing liftable.
        let range_spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(10i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        qp.execute(&range_spec).unwrap();
        assert_eq!(qp.stats().widened_queries, 0);
        // COUNTD blocks widening even with a categorical filter.
        let countd_spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Eq, col("market"), lit("M1")))
            .group("carrier")
            .agg(AggCall::new(AggFunc::CountD, Some(col("delay")), "nd"));
        qp.execute(&countd_spec).unwrap();
        assert_eq!(qp.stats().widened_queries, 0);
    }

    #[test]
    fn transient_failures_are_retried_then_typed() {
        use tabviz_backend::FaultPlan;
        let (qp, sim) = processor_with_sim(300);
        let mut plan = FaultPlan::seeded(5);
        plan.transient_query_failure = 1.0; // every attempt fails
        sim.set_fault_plan(Some(plan));
        let err = qp.execute(&count_by_carrier()).expect_err("must fail");
        assert!(err.is_transient(), "got: {err}");
        // Default budget: 1 initial attempt + 2 retries.
        assert_eq!(qp.stats().transient_retries, 2);
        assert_eq!(sim.stats().transient_faults, 3);
        // Clearing the faults heals the source with no other intervention.
        sim.set_fault_plan(None);
        let (out, o) = qp.execute(&count_by_carrier()).unwrap();
        assert_eq!(o, ExecOutcome::Remote);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn backend_outage_serves_stale_cache_degraded() {
        use tabviz_backend::FaultPlan;
        let (qp, sim) = processor_with_sim(300);
        // Healthy pass populates both cache levels.
        let (fresh, _) = qp.execute(&count_by_carrier()).unwrap();
        // A refresh arrives while the backend starts dropping every
        // connection mid-query.
        assert!(qp.mark_source_stale("warehouse") >= 1);
        let mut plan = FaultPlan::seeded(9);
        plan.connection_drop = 1.0;
        sim.set_fault_plan(Some(plan));
        let (out, outcome) = qp.execute(&count_by_carrier()).unwrap();
        assert_eq!(outcome, ExecOutcome::DegradedStale);
        assert_eq!(out.to_rows(), fresh.to_rows(), "stale answer, right data");
        assert_eq!(qp.stats().degraded_serves, 1);
        // With stale serving disabled the same outage is a hard error.
        let (mut qp2, sim2) = processor_with_sim(300);
        qp2.options.serve_stale_on_failure = false;
        qp2.execute(&count_by_carrier()).unwrap();
        qp2.mark_source_stale("warehouse");
        let mut plan2 = FaultPlan::seeded(9);
        plan2.connection_drop = 1.0;
        sim2.set_fault_plan(Some(plan2));
        assert!(qp2.execute(&count_by_carrier()).is_err());
    }

    #[test]
    fn slow_backend_times_out_instead_of_hanging() {
        use tabviz_backend::FaultPlan;
        let (mut qp, sim) = processor_with_sim(300);
        qp.options.query_timeout = Some(Duration::from_millis(40));
        qp.options.serve_stale_on_failure = false;
        let mut plan = FaultPlan::seeded(2);
        plan.slow_query = 1.0;
        plan.slow_query_delay = Duration::from_secs(60); // would hang a minute
        sim.set_fault_plan(Some(plan));
        let t0 = Instant::now();
        let err = qp.execute(&count_by_carrier()).expect_err("must time out");
        assert!(matches!(err, TvError::Timeout(_)), "got: {err}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "deadline must bound the wait"
        );
        assert_eq!(qp.stats().transient_retries, 0, "timeouts are not retried");
    }

    #[test]
    fn close_source_purges() {
        let (qp, _) = processor_with_sim(300);
        qp.execute(&count_by_carrier()).unwrap();
        qp.close_source("warehouse").unwrap();
        assert!(qp.execute(&count_by_carrier()).is_err()); // source gone
    }

    #[test]
    fn caches_can_be_disabled() {
        let (mut qp_holder, sim) = processor_with_sim(300);
        qp_holder.options = ProcessorOptions {
            use_intelligent_cache: false,
            use_literal_cache: false,
            ..Default::default()
        };
        let qp = qp_holder;
        qp.execute(&count_by_carrier()).unwrap();
        qp.execute(&count_by_carrier()).unwrap();
        assert_eq!(sim.stats().queries, 2);
    }
}
