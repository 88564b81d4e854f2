//! Observability for the tabviz stack: where does user response time go?
//!
//! The paper's whole argument (Sect. 3) is a decomposition of dashboard
//! latency into pipeline stages — cache lookup, batch partitioning,
//! connection acquire, remote execution, local post-processing. This crate
//! makes that decomposition measurable per query:
//!
//! - [`mod@span`] / [`Span`]: RAII stage guards; dropping one moves a
//!   [`SpanEvent`] into the trace active on the thread (and records
//!   nothing outside one).
//! - [`trace`]: cross-thread trace assembly, the only span sink —
//!   [`begin_trace`] opens a per-query trace, [`TraceCtx`] propagates it
//!   into morsel workers, batch zone threads, prefetch and the maintenance
//!   lane, and [`TraceHandle::finish`] yields one connected tree per query.
//! - [`reason`]: the decision-attribution taxonomy — structured reason
//!   codes spans carry to say *why* a cache missed, a query queued, a
//!   connection dialed.
//! - [`FlightRecorder`]: a bounded store of the last N completed traces
//!   plus auto-captured slow queries, exportable as Chrome `trace_event`
//!   JSON via [`to_chrome_trace`]. A [`RecordedTrace`] is the one
//!   per-query record: nesting, retry count, fault attribution and the
//!   terminal [`ProfileOutcome`] are all read off it.
//! - [`Registry`]: lock-free named counters, gauges and log-scale latency
//!   histograms (p50/p95/p99), with [`Registry::snapshot`] (stable sorted
//!   map) and [`Registry::render_text`] (Prometheus-style exposition with
//!   HELP/TYPE lines).
//! - [`Obs`]: the per-processor bundle of registry and recorder, threaded
//!   through pools, caches, the simulated backend, the TDE and the data
//!   server.
//!
//! Offline-safe by construction: std atomics plus the vendored
//! `parking_lot` only — no external dependencies.

pub mod analyze;
pub mod chrome;
pub mod exemplar;
pub mod federation;
pub mod health;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod span;
pub mod trace;

pub use analyze::{
    critical_path, diagnose, ClassBaselines, CriticalPath, Diagnosis, Fingerprint, PathStep,
    Verdict,
};
pub use chrome::{to_chrome_trace, validate_chrome_trace};
pub use exemplar::{scrape_exemplars, Exemplar};
pub use federation::{Federation, MergedHistogram};
pub use health::{HealthConfig, HealthScorer, HealthState, ServeKind};
pub use json::JsonValue;
pub use metrics::{
    escape_label_value, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry,
    TextEmitter, HIST_BUCKETS,
};
pub use recorder::{
    FaultTag, FlightRecorder, FlightRecorderConfig, Obs, ProfileOutcome, RecordedTrace,
};
pub use slo::{Objective, ObjectiveKind, ServeEvent, SloConfig, SloStatus, SloTracker};
pub use span::{event, event_with, record, span, Span, SpanEvent};
pub use trace::{begin_trace, FinishedTrace, TraceCtx, TraceGuard, TraceHandle};

/// The process-wide default [`Registry`]. Execution-layer counters with no
/// natural [`Obs`] owner (e.g. the TDE scan's blocks-skipped / rows-prefiltered
/// counts) register here, so experiments and tests can read them via
/// [`Registry::snapshot`] without threading a registry through every operator.
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Static stage names used across the workspace. Using these constants
/// (rather than ad-hoc strings) keeps traces joinable across crates.
pub mod stage {
    /// Synthetic root span of a per-query trace (see [`crate::trace`]).
    pub const QUERY: &str = "query";
    /// Cache probe (label: `"intelligent"` or `"literal"`).
    pub const CACHE_LOOKUP: &str = "cache_lookup";
    /// TQL compilation / query rewriting.
    pub const COMPILE: &str = "compile";
    /// Query-widening remote execution for reuse (Sect. 5.2).
    pub const WIDEN: &str = "widen";
    /// Batch opportunity-graph partition into zones.
    pub const BATCH_PARTITION: &str = "batch_partition";
    /// Query fusion pass over a batch.
    pub const FUSION: &str = "fusion";
    /// Waiting for / opening a pooled backend connection.
    pub const POOL_ACQUIRE: &str = "pool_acquire";
    /// Temporary-table setup on the remote session.
    pub const TEMP_TABLES: &str = "temp_tables";
    /// The remote round trip itself.
    pub const REMOTE_EXEC: &str = "remote_exec";
    /// Local post-processing of a cached/widened/remote result.
    pub const POST_PROCESS: &str = "post_process";
    /// TDE compile-optimize-plan-execute of a logical plan.
    pub const TDE_EXEC: &str = "tde_exec";
    /// Storing a result into the caches.
    pub const CACHE_STORE: &str = "cache_store";
    /// Instantaneous: a transient failure consumed one retry
    /// (detail = attempt number).
    pub const RETRY: &str = "retry";
    /// Instantaneous: an injected fault fired
    /// (label = site, detail = seed-roll ordinal).
    pub const FAULT_INJECTED: &str = "fault_injected";
    /// Instantaneous: a stale cache entry was served degraded
    /// (detail = age at serve, µs).
    pub const STALE_SERVE: &str = "stale_serve";
    /// Waiting in the admission controller's queue for a concurrency slot
    /// (label = priority class).
    pub const SCHED_QUEUE: &str = "sched_queue";
    /// Instantaneous: per-query scan pruning counters (label =
    /// `"blocks_skipped"` / `"blocks_total"` / `"rows_prefiltered"`,
    /// detail = count).
    pub const SCAN_PRUNE: &str = "scan_prune";
    /// One maintenance-lane revalidation pass.
    pub const MAINTENANCE: &str = "maintenance";
    /// One speculative prefetch batch.
    pub const PREFETCH: &str = "prefetch";
    /// Cluster routing decision for one client query (label =
    /// `"primary"` / `"failover"`, detail = chosen node index).
    pub const CLUSTER_ROUTE: &str = "cluster_route";
    /// Instantaneous: an SLO evaluation produced an alert transition
    /// (reason = `slo_burn_alert` / `slo_alert_cleared`, detail =
    /// objective ordinal).
    pub const SLO_CHECK: &str = "slo_check";
    /// Instantaneous: a node's health score crossed the demote/restore
    /// band (detail = score at transition).
    pub const NODE_HEALTH: &str = "node_health";
    /// Instantaneous: a keyed operator (hash agg / hash join) chose its
    /// kernel implementation at construction (reason =
    /// `kernel_fastpath` / `kernel_fallback_*`, label = operator stage).
    pub const KERNEL_SELECT: &str = "kernel_select";
    /// Shared L2 result-tier interaction on the node-local lookup path
    /// (label = `"get"` / `"put"` / `"promote"` / `"purge"` / `"warm"`,
    /// detail = payload bytes or purged-entry count).
    pub const CACHE_TIER: &str = "cache_tier";
}

/// Decision reason codes: *why* a stage went the way it did, attached to
/// spans via [`crate::Span::reason`] / [`crate::event_with`] and surfaced
/// in profiles, flight-recorder traces and Chrome exports. Grouped by
/// subsystem; see DESIGN.md §11 for the full taxonomy.
pub mod reason {
    // --- intelligent cache verdicts -------------------------------------
    /// Exact hit: an entry matched the spec verbatim.
    pub const CACHE_HIT_EXACT: &str = "cache_hit_exact";
    /// Hit on a same-grouping entry with a residual filter applied.
    pub const CACHE_HIT_RESIDUAL: &str = "cache_hit_residual";
    /// Hit by rolling a finer-grained entry up to the requested grouping.
    pub const CACHE_HIT_ROLLUP: &str = "cache_hit_rollup";
    /// A stale entry was served degraded (backend unavailable).
    pub const CACHE_HIT_STALE: &str = "cache_hit_stale";
    /// Miss: no cached entry exists for this data source at all.
    pub const CACHE_MISS_NO_CANDIDATE: &str = "cache_miss_no_candidate";
    /// Miss: closest candidate had a different TOP-N / ordering clause.
    pub const CACHE_MISS_TOPN: &str = "cache_miss_topn_mismatch";
    /// Miss: requested group-by is not a subset of any entry's grouping.
    pub const CACHE_MISS_GROUP_NOT_SUBSET: &str = "cache_miss_group_not_subset";
    /// Miss: the entry's filter does not imply the requested filter.
    pub const CACHE_MISS_FILTER_NOT_IMPLIED: &str = "cache_miss_filter_not_implied";
    /// Miss: the residual filter touches a column absent from the entry's
    /// grouping, so it cannot be evaluated over the cached rows.
    pub const CACHE_MISS_RESIDUAL_COLUMN: &str = "cache_miss_residual_column";
    /// Miss: a requested aggregate cannot be derived from the entry
    /// (COUNTD over a coarser grouping, missing aggregate, no AVG parts).
    pub const CACHE_MISS_AGG_NOT_DERIVABLE: &str = "cache_miss_agg_not_derivable";

    // --- literal cache verdicts -----------------------------------------
    pub const LITERAL_HIT: &str = "literal_hit";
    pub const LITERAL_MISS: &str = "literal_miss";
    pub const LITERAL_STALE: &str = "literal_stale";

    // --- scheduler verdicts ---------------------------------------------
    /// Admitted without queueing (slot free, queue empty).
    pub const SCHED_ADMITTED: &str = "sched_admitted_immediate";
    /// Admitted after waiting in the class queue.
    pub const SCHED_QUEUED: &str = "sched_queued";
    /// Admitted immediately by evicting lower-priority queued work.
    pub const SCHED_ADMITTED_EVICTING: &str = "sched_admitted_evicting";
    /// A reserved interactive slot was granted to batch work after the
    /// configured interactive-idle window elapsed (work conservation).
    pub const SCHED_RESERVED_GRANT: &str = "sched_reserved_grant_to_batch";
    /// Shed on arrival: total queue depth over the class watermark.
    pub const SCHED_SHED_WATERMARK: &str = "sched_shed_watermark";
    /// Shed while queued: evicted to admit higher-priority work.
    pub const SCHED_SHED_EVICTED: &str = "sched_shed_evicted";
    /// Shed while queued: the queue deadline expired before a grant.
    pub const SCHED_DEADLINE_EXPIRED: &str = "sched_deadline_expired";

    // --- pool verdicts ---------------------------------------------------
    /// Reused the connection that already holds this query's temp tables.
    pub const POOL_TEMP_AFFINITY: &str = "pool_temp_affinity";
    /// Reused an idle pooled connection.
    pub const POOL_REUSED: &str = "pool_reused";
    /// Dialed a fresh connection.
    pub const POOL_DIALED: &str = "pool_dialed";
    /// Fast-failed: the circuit breaker is open.
    pub const POOL_BREAKER_OPEN: &str = "pool_breaker_fast_fail";
    /// Dial failed after retries.
    pub const POOL_CONNECT_FAILED: &str = "pool_connect_failed";
    /// Acquire deadline expired waiting for a slot.
    pub const POOL_TIMEOUT: &str = "pool_acquire_timeout";

    // --- background lanes -------------------------------------------------
    /// Query issued by the maintenance lane to refresh a stale entry.
    pub const MAINT_REFRESH: &str = "maintenance_refresh";
    /// Query issued speculatively by the prefetcher.
    pub const PREFETCH_SPECULATIVE: &str = "prefetch_speculative";

    // --- cluster routing ---------------------------------------------------
    /// Routed to the session's affinity node (a healthy replica owner).
    pub const ROUTE_PRIMARY: &str = "route_primary";
    /// Affinity node down: failed over to the next healthy replica.
    pub const ROUTE_FAILOVER: &str = "route_failover";
    /// Every replica owner down: walked the ring to any healthy node.
    pub const ROUTE_ALL_REPLICAS_DOWN: &str = "route_all_replicas_down";

    // --- scheduler per-source gate ---------------------------------------
    /// A grant waited because its backend was at its per-source limit.
    pub const SCHED_SOURCE_SATURATED: &str = "sched_source_saturated";

    // --- SLO plane / health routing ---------------------------------------
    /// A burn-rate alert fired: both windows burned over the fire bound.
    pub const SLO_BURN_ALERT: &str = "slo_burn_alert";
    /// A firing alert cleared: both windows back under the clear bound.
    pub const SLO_ALERT_CLEARED: &str = "slo_alert_cleared";
    /// Routing skipped a health-demoted owner (brown-out avoidance).
    pub const ROUTE_HEALTH_DEMOTED: &str = "route_health_demoted";
    /// Routing deliberately sent a probe through a demoted owner so its
    /// score keeps getting fresh observations (recovery detection).
    pub const ROUTE_HEALTH_PROBE: &str = "route_health_probe";

    // --- vectorized execution kernels -------------------------------------
    /// A keyed operator selected the typed `KeyBuf` fast path: every key
    /// column packs into one fixed-width word per row.
    pub const KERNEL_FASTPATH: &str = "kernel_fastpath";
    /// Fallback to the `Value`-row path: kernels disabled by options.
    pub const KERNEL_FALLBACK_DISABLED: &str = "kernel_fallback_disabled";
    /// Fallback to the `Value`-row path: the composite key is wider than
    /// the packed-key column budget.
    pub const KERNEL_FALLBACK_WIDE_KEY: &str = "kernel_fallback_wide_key";

    // --- multi-tier cache hierarchy ---------------------------------------
    /// Served from the node-local L1 (intelligent or literal) cache.
    pub const CACHE_L1_HIT: &str = "cache_l1_hit";
    /// L1 missed; the shared, ring-routed L2 tier held the result.
    pub const CACHE_L2_HIT: &str = "cache_l2_hit";
    /// An L2 hit was copied into this node's L1 for future local serves.
    pub const CACHE_L2_PROMOTE: &str = "cache_l2_promote";
    /// A stale-within-grace entry was served immediately while a
    /// Background-priority revalidation refreshes it (SWR).
    pub const CACHE_SWR_SERVE: &str = "cache_swr_serve";
    /// A tag-scoped invalidation purged dependent entries (detail =
    /// entries removed across tiers).
    pub const CACHE_TAG_PURGE: &str = "cache_tag_purge";
}
