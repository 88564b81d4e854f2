//! The Data Server proxy and client sessions.
//!
//! "Clients can directly connect to databases or connect to data sources
//! published to Data Server, which acts as a proxy between clients and the
//! underlying database. When a client connects to a published data source,
//! it receives metadata ... As fields are dragged to the visualization,
//! queries are dispatched from the client to Data Server" (Sect. 5.2).
//!
//! Temporary tables (Sect. 5.3–5.4): a client uploads a large value set
//! *once* (`define_set`); the in-memory definition is shared across client
//! connections by reference count; later queries reference it by name,
//! cutting client→server traffic. During evaluation the definition is
//! incorporated into the query — and pushed down to the backing database as
//! a session temp table by the shared compilation pipeline, with the inline
//! rewrite as fallback. In-memory temp tables can be disabled, trading
//! network traffic for unchanged database-side behavior.

use crate::published::PublishedSource;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use tabviz_cache::QuerySpec;
use tabviz_common::{Chunk, Result, TvError, Value};
use tabviz_core::processor::QueryProcessor;
use tabviz_core::revalidate::{
    revalidate_pass, MaintenanceLane, RevalidateOptions, RevalidateReport,
};
use tabviz_core::{AdmitRequest, ExecOutcome, Priority};
use tabviz_tql::expr::Expr;
use tabviz_tql::{AggCall, SortKey};

/// What a client sends per query: fields only — the client never sees the
/// underlying relation or dialect.
#[derive(Debug, Clone, Default)]
pub struct ClientQuery {
    pub filters: Vec<Expr>,
    pub group_by: Vec<String>,
    pub aggs: Vec<AggCall>,
    pub order: Vec<SortKey>,
    pub topn: Option<usize>,
    /// Named value-set references (server-held temp definitions).
    pub set_refs: Vec<String>,
}

impl ClientQuery {
    /// Approximate client→server wire size of this request.
    pub fn wire_bytes(&self) -> usize {
        let mut n = 0;
        for f in &self.filters {
            n += tabviz_tql::write_expr(f).len();
        }
        for g in &self.group_by {
            n += g.len();
        }
        for a in &self.aggs {
            n += a.alias.len() + 8;
        }
        n += self.set_refs.iter().map(|s| s.len() + 4).sum::<usize>();
        n + 16
    }
}

/// A shared in-memory value-set definition ("temporary table definitions
/// are shared across client connections ... removed when all references to
/// them are removed", Sect. 5.4).
struct SetDef {
    column: String,
    values: Vec<Value>,
    refs: usize,
}

/// Server-side counters.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    pub queries: u64,
    pub client_bytes_in: u64,
    pub client_bytes_out: u64,
    pub set_definitions: u64,
    pub answered_from_memory: u64,
    /// Client queries answered from a stale cache entry because the backing
    /// database was unavailable (degraded rendering).
    pub degraded_serves: u64,
}

/// The Data Server.
pub struct DataServer {
    pub processor: QueryProcessor,
    published: RwLock<HashMap<String, Arc<PublishedSource>>>,
    sets: Mutex<HashMap<String, SetDef>>,
    stats: Mutex<ServerStats>,
    /// "If desired, in-memory temporary tables on Data Server can be
    /// disabled."
    pub enable_memory_temp_tables: bool,
    /// This server's identity within a cluster ("node-0", …). Standalone
    /// servers are simply "server"; the cluster layer names its members so
    /// diagnostics and routing traces attribute work to a node.
    node_name: String,
}

impl DataServer {
    /// Wrap a processor. A server always runs with admission control: if
    /// the processor has no scheduler yet, one is attached sized from the
    /// pools registered so far (register sources first).
    pub fn new(processor: QueryProcessor) -> Self {
        Self::named(processor, "server")
    }

    /// [`DataServer::new`] with a cluster node identity.
    pub fn named(processor: QueryProcessor, node_name: impl Into<String>) -> Self {
        let mut processor = processor;
        if processor.scheduler().is_none() {
            processor.enable_scheduler();
        }
        DataServer {
            processor,
            published: RwLock::new(HashMap::new()),
            sets: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServerStats::default()),
            enable_memory_temp_tables: true,
            node_name: node_name.into(),
        }
    }

    /// This server's node identity ("server" when standalone).
    pub fn node_name(&self) -> &str {
        &self.node_name
    }

    pub fn publish(&self, source: PublishedSource) -> Arc<PublishedSource> {
        let arc = Arc::new(source);
        self.published
            .write()
            .insert(arc.name.clone(), Arc::clone(&arc));
        arc
    }

    /// Names of every published source on this server, sorted.
    pub fn published_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.published.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn published(&self, name: &str) -> Result<Arc<PublishedSource>> {
        self.published
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| TvError::Bind(format!("unknown published source '{name}'")))
    }

    pub fn stats(&self) -> ServerStats {
        self.stats.lock().clone()
    }

    /// The node's live metrics registry — the federation hook: a cluster
    /// scrapes each member through this accessor and merges the snapshots
    /// (see `tabviz_obs::Federation`). Handles are cheap clones over shared
    /// atomics, so a federation holding this registry always reads current
    /// values, never a stale copy.
    pub fn registry(&self) -> &tabviz_obs::Registry {
        &self.processor.obs.registry
    }

    /// Prometheus-style exposition of every metric the server's processor
    /// (and the pools, caches and backends beneath it) has registered, plus
    /// the process-wide registry (the TDE's kernel-selection counters
    /// `tv_tde_kernel_fastpath_total` / `tv_tde_kernel_fallback_total` live
    /// there — executor code has no handle to a per-server registry).
    pub fn metrics_text(&self) -> String {
        let mut text = self.processor.obs.registry.render_text();
        let global = tabviz_obs::global().render_text();
        if !global.is_empty() {
            text.push_str(&global);
        }
        text
    }

    /// Stable sorted snapshot of the same metrics, for programmatic checks.
    pub fn metrics_snapshot(&self) -> std::collections::BTreeMap<String, tabviz_obs::MetricValue> {
        self.processor.obs.registry.snapshot()
    }

    /// The server's query flight recorder: the last N completed traces plus
    /// auto-captured slow queries (see [`tabviz_obs::FlightRecorder`]).
    pub fn flight_recorder(&self) -> &tabviz_obs::FlightRecorder {
        &self.processor.obs.recorder
    }

    /// Export one recorded trace as Chrome `trace_event` JSON, loadable in
    /// `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self, trace_id: u64) -> Option<String> {
        self.processor
            .obs
            .recorder
            .get(trace_id)
            .map(|t| tabviz_obs::to_chrome_trace(&t))
    }

    /// Root-cause one recorded trace: the structured verdict, the
    /// self-time-attributed critical path, and the class baseline it was
    /// diffed against. `None` when the id no longer resolves. This is the
    /// operator's "why was my query slow?" call — feed it a trace id from
    /// a histogram exemplar or the slow-query log.
    pub fn why_slow(&self, trace_id: u64) -> Option<String> {
        let trace = self.processor.obs.recorder.get(trace_id)?;
        let baseline = self.processor.obs.baselines.get(&trace.class);
        let d = tabviz_obs::diagnose(&trace, baseline.as_ref());
        Some(format!(
            "trace={} {:.3}ms [{}] source={} {}",
            trace.trace_id,
            trace.total.as_secs_f64() * 1e3,
            trace.outcome,
            trace.source,
            d.render(),
        ))
    }

    /// The node-local slow-query log: the top-K slowest retained traces,
    /// each with its root-cause verdict.
    pub fn slow_query_verdicts(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (rank, t) in self
            .processor
            .obs
            .recorder
            .slowest(top_k)
            .iter()
            .enumerate()
        {
            let baseline = self.processor.obs.baselines.get(&t.class);
            let d = tabviz_obs::diagnose(t, baseline.as_ref());
            let _ = writeln!(
                out,
                "#{} trace={} {:>9.3}ms {}",
                rank + 1,
                t.trace_id,
                t.total.as_secs_f64() * 1e3,
                d.render(),
            );
        }
        out
    }

    /// Human-readable diagnostics: the top-K slowest recorded queries with
    /// per-stage time breakdown and the decision reason codes that explain
    /// them (why the cache missed, whether the query queued, how the pool
    /// answered), followed by cache / scheduler / pool / scan rollups.
    pub fn diagnostics_report(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let recorder = &self.processor.obs.recorder;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== data server diagnostics [{}]: {} trace(s) held, {} KiB, {} evicted, slow >= {:?} ===",
            self.node_name,
            recorder.len(),
            recorder.bytes() / 1024,
            recorder.evictions(),
            recorder.slow_threshold(),
        );
        let slow = recorder.slowest(top_k);
        if slow.is_empty() {
            let _ = writeln!(out, "(no traces recorded yet)");
        }
        for (rank, trace) in slow.iter().enumerate() {
            let query = if trace.query.chars().count() > 96 {
                let cut: String = trace.query.chars().take(96).collect();
                format!("{cut}…")
            } else {
                trace.query.clone()
            };
            let _ = writeln!(
                out,
                "#{} {:>9.3}ms [{}] trace={} source={} lanes={} :: {}",
                rank + 1,
                trace.total.as_secs_f64() * 1e3,
                trace.outcome,
                trace.trace_id,
                trace.source,
                trace.lanes().len(),
                query,
            );
            // Stage breakdown: total busy time per stage, entry order.
            let mut order: Vec<&'static str> = Vec::new();
            let mut by_stage: HashMap<&'static str, (u64, std::time::Duration)> = HashMap::new();
            for e in &trace.events {
                let slot = by_stage.entry(e.stage).or_insert_with(|| {
                    order.push(e.stage);
                    (0, std::time::Duration::ZERO)
                });
                slot.0 += 1;
                slot.1 += e.dur;
            }
            for stage in &order {
                let (n, dur) = by_stage[stage];
                let _ = writeln!(
                    out,
                    "    {:<16} x{:<3} {:>9.3}ms",
                    stage,
                    n,
                    dur.as_secs_f64() * 1e3
                );
            }
            let reasons = trace.reasons();
            if !reasons.is_empty() {
                let _ = writeln!(out, "    causes: {}", reasons.join(", "));
            }
            if trace.dropped_events > 0 {
                let _ = writeln!(out, "    ({} events dropped)", trace.dropped_events);
            }
        }
        // Subsystem rollups. Scan pruning counters live in the global
        // registry (no per-processor owner); everything else is ours.
        let snap = self.processor.obs.registry.snapshot();
        let global = tabviz_obs::global().snapshot();
        for (title, source, prefixes) in [
            ("cache", &snap, &["tv_cache_"][..]),
            ("scheduler", &snap, &["tv_sched_"][..]),
            ("pool", &snap, &["tv_backend_"][..]),
            ("scan", &global, &["tv_tde_"][..]),
        ] {
            let mut lines = Vec::new();
            for (name, value) in source {
                if !prefixes.iter().any(|p| name.starts_with(p)) {
                    continue;
                }
                match value {
                    tabviz_obs::MetricValue::Counter(0) => {}
                    tabviz_obs::MetricValue::Counter(c) => lines.push(format!("{name}={c}")),
                    tabviz_obs::MetricValue::Gauge(g) => lines.push(format!("{name}={g}")),
                    tabviz_obs::MetricValue::Histogram(h) if h.count > 0 => {
                        lines.push(format!(
                            "{name}: n={} p50={}us p95={}us",
                            h.count,
                            h.p50_micros.unwrap_or(0),
                            h.p95_micros.unwrap_or(0)
                        ));
                    }
                    tabviz_obs::MetricValue::Histogram(_) => {}
                }
            }
            if !lines.is_empty() {
                let _ = writeln!(out, "--- {title} ---");
                for l in lines {
                    let _ = writeln!(out, "  {l}");
                }
            }
        }
        out
    }

    /// A client connects: receives metadata (the schema of the published
    /// relation and whether temp structures are available — "this
    /// information is conveyed back to the client", Sect. 5.3).
    pub fn connect(
        self: &Arc<Self>,
        published_name: &str,
        user: impl Into<String>,
    ) -> Result<ClientSession> {
        let published = self.published(published_name)?;
        // Verify the backing source exists.
        self.processor.registry.get(&published.backing)?;
        let user = user.into();
        let session_id = format!("{user}@{published_name}");
        Ok(ClientSession {
            server: Arc::clone(self),
            published,
            user,
            session_id,
            priority: Priority::Interactive,
            weight: 1.0,
            my_sets: Vec::new(),
            queries: AtomicU64::new(0),
            degraded_serves: AtomicU64::new(0),
        })
    }

    /// One synchronous stale-cache revalidation sweep (see
    /// [`tabviz_core::revalidate_pass`]).
    pub fn revalidate_now(&self, opts: &RevalidateOptions) -> RevalidateReport {
        revalidate_pass(&self.processor, opts)
    }

    /// Start the background maintenance lane: a thread sweeping stale cache
    /// entries every `interval`, re-fetching entries older than the
    /// staleness budget at `Background` priority. Stop by dropping (or
    /// calling [`MaintenanceLane::stop`] on) the returned handle.
    pub fn start_maintenance(
        self: &Arc<Self>,
        interval: std::time::Duration,
        opts: RevalidateOptions,
    ) -> MaintenanceLane {
        let server = Arc::clone(self);
        MaintenanceLane::spawn(interval, move || revalidate_pass(&server.processor, &opts))
    }

    /// A published source's data was refreshed while its backing database is
    /// unreachable: demote the cached results to stale instead of purging so
    /// clients keep rendering (flagged) until the backend recovers. Returns
    /// how many cache entries were marked.
    pub fn mark_backing_stale(&self, published_name: &str) -> Result<usize> {
        let published = self.published(published_name)?;
        Ok(self.processor.mark_source_stale(&published.backing))
    }

    fn build_spec(
        &self,
        published: &PublishedSource,
        user: &str,
        query: &ClientQuery,
    ) -> Result<QuerySpec> {
        let mut spec = QuerySpec::new(published.backing.clone(), published.relation.clone());
        for f in &query.filters {
            spec = spec.filter(published.substitute(f));
        }
        // Mandatory row-level security filter.
        if let Some(f) = published.user_filter(user) {
            spec = spec.filter(published.substitute(&f));
        }
        // Incorporate referenced set definitions as IN filters; the shared
        // compilation pipeline will externalize them into backing-DB temp
        // tables (or inline them if that fails).
        {
            let sets = self.sets.lock();
            for name in &query.set_refs {
                let def = sets
                    .get(name)
                    .ok_or_else(|| TvError::Bind(format!("unknown set definition '{name}'")))?;
                spec = spec.filter(Expr::In {
                    expr: Box::new(Expr::Column(def.column.clone())),
                    list: def.values.clone(),
                    negated: false,
                });
            }
        }
        for g in &query.group_by {
            spec = spec.group(g.clone());
        }
        for a in &query.aggs {
            let mut call = a.clone();
            call.arg = call.arg.map(|e| published.substitute(&e));
            spec = spec.agg(call);
        }
        if !query.order.is_empty() {
            spec = spec.order_by(query.order.clone());
        }
        if let Some(n) = query.topn {
            spec = spec.top(n);
        }
        Ok(spec)
    }
}

/// One client's connection to one published source.
pub struct ClientSession {
    server: Arc<DataServer>,
    published: Arc<PublishedSource>,
    user: String,
    /// Admission fairness domain (user + published source): sessions share
    /// backend capacity by deficit round-robin within their class.
    session_id: String,
    /// Admission class; [`Priority::Interactive`] unless demoted.
    priority: Priority,
    /// Fair-queuing weight within the class.
    weight: f64,
    my_sets: Vec<String>,
    queries: AtomicU64,
    /// Queries this session had answered from stale cache entries while the
    /// backing database was down — the client-facing "outdated data" badge.
    degraded_serves: AtomicU64,
}

impl ClientSession {
    /// The published source's schema, as the client's data window sees it.
    pub fn metadata(&self) -> Result<tabviz_common::SchemaRef> {
        let managed = self
            .server
            .processor
            .registry
            .get(&self.published.backing)?;
        let catalog = ManagedCatalog(&managed);
        self.published.relation.schema(&catalog)
    }

    /// Whether the session may use named sets (server memory temp tables).
    pub fn supports_sets(&self) -> bool {
        self.server.enable_memory_temp_tables
    }

    /// Upload a value set once; returns its name. Subsequent queries
    /// reference it without resending the values.
    pub fn define_set(&mut self, column: &str, values: Vec<Value>) -> Result<String> {
        if !self.server.enable_memory_temp_tables {
            return Err(TvError::Unsupported(
                "in-memory temp tables are disabled on this Data Server".into(),
            ));
        }
        let name = tabviz_core::compile::temp_table_name(column, &values);
        let bytes: usize = values.iter().map(|v| v.to_literal().len()).sum();
        let mut sets = self.server.sets.lock();
        match sets.get_mut(&name) {
            Some(def) => def.refs += 1,
            None => {
                sets.insert(
                    name.clone(),
                    SetDef {
                        column: column.to_string(),
                        values,
                        refs: 1,
                    },
                );
                let mut st = self.server.stats.lock();
                st.set_definitions += 1;
                st.client_bytes_in += bytes as u64;
            }
        }
        self.my_sets.push(name.clone());
        Ok(name)
    }

    /// The domain of a defined set — answered from Data Server memory, no
    /// database interaction ("in some cases, the query may be evaluated
    /// without interacting with the underlying database").
    pub fn set_domain(&self, name: &str) -> Result<Vec<Value>> {
        let sets = self.server.sets.lock();
        let def = sets
            .get(name)
            .ok_or_else(|| TvError::Bind(format!("unknown set definition '{name}'")))?;
        self.server.stats.lock().answered_from_memory += 1;
        Ok(def.values.clone())
    }

    /// Evaluate a client query through the unified pipeline.
    pub fn query(&self, query: &ClientQuery) -> Result<(Chunk, ExecOutcome)> {
        let reg = &self.server.processor.obs.registry;
        let wire_in = query.wire_bytes() as u64;
        {
            let mut st = self.server.stats.lock();
            st.queries += 1;
            st.client_bytes_in += wire_in;
        }
        self.queries.fetch_add(1, Relaxed);
        reg.counter("tv_dataserver_queries_total").inc();
        reg.counter("tv_dataserver_client_bytes_in_total")
            .add(wire_in);
        let spec = self.server.build_spec(&self.published, &self.user, query)?;
        let admit =
            AdmitRequest::new(self.priority, self.session_id.clone()).with_weight(self.weight);
        let (chunk, outcome) = self.server.processor.execute_as(&spec, &admit)?;
        let wire_out = chunk.approx_bytes() as u64;
        {
            let mut st = self.server.stats.lock();
            st.client_bytes_out += wire_out;
            if outcome == ExecOutcome::DegradedStale {
                st.degraded_serves += 1;
            }
        }
        reg.counter("tv_dataserver_client_bytes_out_total")
            .add(wire_out);
        if outcome == ExecOutcome::DegradedStale {
            self.degraded_serves.fetch_add(1, Relaxed);
            reg.counter("tv_dataserver_degraded_serves_total").inc();
        }
        Ok((chunk, outcome))
    }

    /// Demote (or restore) this session's admission class — e.g. a
    /// reporting client that should yield to humans runs at
    /// [`Priority::Batch`].
    pub fn set_priority(&mut self, priority: Priority) {
        self.priority = priority;
    }

    /// Set this session's fair-queuing weight (1.0 = normal share).
    pub fn set_weight(&mut self, weight: f64) {
        self.weight = weight;
    }

    /// Queries this session has submitted.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Relaxed)
    }

    /// How many of this session's answers were served degraded (stale).
    pub fn degraded_serves(&self) -> u64 {
        self.degraded_serves.load(Relaxed)
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        // "This state is maintained while the client connection to Data
        // Server remains active; it is reclaimed when the connection is
        // closed. ... The definitions are removed when all references to
        // them are removed."
        let mut sets = self.server.sets.lock();
        for name in &self.my_sets {
            if let Some(def) = sets.get_mut(name) {
                def.refs -= 1;
                if def.refs == 0 {
                    sets.remove(name);
                }
            }
        }
    }
}

/// Catalog adapter over a managed source's metadata.
struct ManagedCatalog<'a>(&'a Arc<tabviz_core::ManagedSource>);

impl tabviz_tql::Catalog for ManagedCatalog<'_> {
    fn table_meta(&self, name: &str) -> Result<tabviz_tql::TableMeta> {
        self.0.source.table_meta(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_backend::{SimConfig, SimDb};
    use tabviz_common::{DataType, Field, Schema};
    use tabviz_storage::{Database, Table};
    use tabviz_tql::expr::{bin, col, lit, BinOp};
    use tabviz_tql::{AggFunc, LogicalPlan};

    fn sales_db() -> Arc<Database> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("region", DataType::Str),
                Field::new("customer", DataType::Str),
                Field::new("revenue", DataType::Int),
                Field::new("cost", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = (0..400)
            .map(|i| {
                vec![
                    Value::Str(["west", "east"][i % 2].into()),
                    Value::Str(format!("C{}", i % 100)),
                    Value::Int((i * 7 % 500) as i64),
                    Value::Int((i * 3 % 200) as i64),
                ]
            })
            .collect();
        let db = Arc::new(Database::new("crm"));
        db.put(
            Table::from_chunk("orders", &Chunk::from_rows(schema, &rows).unwrap(), &[]).unwrap(),
        )
        .unwrap();
        db
    }

    fn server() -> (Arc<DataServer>, SimDb) {
        let sim = SimDb::new("warehouse", sales_db(), SimConfig::default());
        let qp = QueryProcessor::default();
        qp.registry.register(Arc::new(sim.clone()), 4);
        let server = Arc::new(DataServer::new(qp));
        let p = PublishedSource::new("sales", "warehouse", LogicalPlan::scan("orders"));
        p.define_calculation("margin", bin(BinOp::Sub, col("revenue"), col("cost")));
        p.set_user_filter("alice", bin(BinOp::Eq, col("region"), lit("west")));
        p.set_user_filter("bob", bin(BinOp::Eq, col("region"), lit("east")));
        server.publish(p);
        (server, sim)
    }

    fn revenue_by_region() -> ClientQuery {
        ClientQuery {
            group_by: vec!["region".into()],
            aggs: vec![AggCall::new(AggFunc::Sum, Some(col("revenue")), "rev")],
            ..Default::default()
        }
    }

    #[test]
    fn metadata_handout() {
        let (server, _) = server();
        let session = server.connect("sales", "manager").unwrap();
        let schema = session.metadata().unwrap();
        assert_eq!(
            schema.names(),
            vec!["region", "customer", "revenue", "cost"]
        );
        assert!(session.supports_sets());
    }

    #[test]
    fn row_level_security_applies() {
        let (server, _) = server();
        let alice = server.connect("sales", "alice").unwrap();
        let (out, _) = alice.query(&revenue_by_region()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[0], Value::Str("west".into()));
        // A user with no filter sees everything.
        let manager = server.connect("sales", "manager").unwrap();
        let (all, _) = manager.query(&revenue_by_region()).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn security_filters_never_leak_across_users() {
        let (server, _) = server();
        let manager = server.connect("sales", "manager").unwrap();
        manager.query(&revenue_by_region()).unwrap(); // caches the full result
        let bob = server.connect("sales", "bob").unwrap();
        let (out, _) = bob.query(&revenue_by_region()).unwrap();
        // Bob's result is east-only even though the full result was cached
        // (the mandatory filter is part of the cache key / post-processing).
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[0], Value::Str("east".into()));
    }

    #[test]
    fn shared_calculation_used_in_query() {
        let (server, _) = server();
        let s = server.connect("sales", "manager").unwrap();
        let q = ClientQuery {
            group_by: vec!["region".into()],
            aggs: vec![AggCall::new(AggFunc::Sum, Some(col("margin")), "m")],
            ..Default::default()
        };
        let (out, _) = s.query(&q).unwrap();
        assert_eq!(out.len(), 2);
        // margin = revenue - cost; verify against direct computation.
        let q2 = ClientQuery {
            group_by: vec!["region".into()],
            aggs: vec![AggCall::new(
                AggFunc::Sum,
                Some(bin(BinOp::Sub, col("revenue"), col("cost"))),
                "m",
            )],
            ..Default::default()
        };
        let (out2, _) = s.query(&q2).unwrap();
        let mut a = out.to_rows();
        let mut b = out2.to_rows();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn set_definition_reduces_traffic_and_pushes_down() {
        let (server, sim) = server();
        let mut s = server.connect("sales", "manager").unwrap();
        let customers: Vec<Value> = (0..60).map(|i| Value::Str(format!("C{i}"))).collect();
        let set = s.define_set("customer", customers.clone()).unwrap();
        let base_in = server.stats().client_bytes_in;

        let q = ClientQuery {
            group_by: vec!["region".into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
            set_refs: vec![set.clone()],
            ..Default::default()
        };
        s.query(&q).unwrap();
        let after_one = server.stats().client_bytes_in;
        // Referencing the set costs far less than re-uploading 60 values.
        assert!(
            (after_one - base_in) < 200,
            "wire cost {}",
            after_one - base_in
        );
        // The set was pushed down as a temp table on the backing database.
        assert_eq!(sim.stats().temp_tables_created, 1);

        // Inline equivalent gives identical rows.
        let q_inline = ClientQuery {
            filters: vec![Expr::In {
                expr: Box::new(col("customer")),
                list: customers,
                negated: false,
            }],
            group_by: vec!["region".into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
            ..Default::default()
        };
        let (a, _) = s.query(&q).unwrap();
        let (b, _) = s.query(&q_inline).unwrap();
        let mut ar = a.to_rows();
        let mut br = b.to_rows();
        ar.sort();
        br.sort();
        assert_eq!(ar, br);
    }

    #[test]
    fn set_definitions_shared_and_refcounted() {
        let (server, _) = server();
        let mut s1 = server.connect("sales", "alice").unwrap();
        let mut s2 = server.connect("sales", "bob").unwrap();
        let values: Vec<Value> = (0..40).map(|i| Value::Str(format!("C{i}"))).collect();
        let n1 = s1.define_set("customer", values.clone()).unwrap();
        let n2 = s2.define_set("customer", values).unwrap();
        assert_eq!(n1, n2, "identical definitions share one entry");
        assert_eq!(server.stats().set_definitions, 1);
        assert_eq!(s2.set_domain(&n2).unwrap().len(), 40);
        drop(s1);
        // Still alive: s2 holds a reference.
        assert!(s2.set_domain(&n2).is_ok());
        let name = n2.clone();
        drop(s2);
        // All references gone → definition removed.
        let s3 = server.connect("sales", "manager").unwrap();
        assert!(s3.set_domain(&name).is_err());
    }

    #[test]
    fn memory_temp_tables_can_be_disabled() {
        let (server, _) = server();
        let mut server_mut = Arc::try_unwrap(server)
            .map_err(|_| ())
            .unwrap_or_else(|_| panic!());
        server_mut.enable_memory_temp_tables = false;
        let server = Arc::new(server_mut);
        let mut s = server.connect("sales", "manager").unwrap();
        assert!(!s.supports_sets());
        let err = s.define_set("customer", vec![Value::Str("C1".into())]);
        assert!(matches!(err, Err(TvError::Unsupported(_))));
    }

    #[test]
    fn outage_serves_stale_results_to_clients() {
        use tabviz_backend::FaultPlan;
        use tabviz_core::ExecOutcome;
        let (server, sim) = server();
        let s = server.connect("sales", "manager").unwrap();
        let (fresh, _) = s.query(&revenue_by_region()).unwrap();
        // Data refresh arrives while the warehouse starts dropping every
        // connection mid-query.
        assert!(server.mark_backing_stale("sales").unwrap() >= 1);
        let mut plan = FaultPlan::seeded(8);
        plan.connection_drop = 1.0;
        sim.set_fault_plan(Some(plan));
        let (out, outcome) = s.query(&revenue_by_region()).unwrap();
        assert_eq!(outcome, ExecOutcome::DegradedStale);
        assert_eq!(out.to_rows(), fresh.to_rows());
        assert_eq!(server.stats().degraded_serves, 1);
        // Backend heals: the next query is fresh again and re-caches.
        sim.set_fault_plan(None);
        let (_, outcome) = s.query(&revenue_by_region()).unwrap();
        assert_ne!(outcome, ExecOutcome::DegradedStale);
    }

    #[test]
    fn unknown_published_source_and_set() {
        let (server, _) = server();
        assert!(server.connect("nope", "u").is_err());
        let s = server.connect("sales", "u").unwrap();
        let q = ClientQuery {
            group_by: vec!["region".into()],
            set_refs: vec!["missing".into()],
            ..Default::default()
        };
        assert!(s.query(&q).is_err());
    }
}
