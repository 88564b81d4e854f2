//! Simulated remote databases.
//!
//! The paper evaluates against dozens of proprietary backends; this module
//! substitutes a configurable server simulation whose *timing semantics*
//! carry the phenomena Sect. 3.5 describes: connection-open cost (why pools
//! exist), per-query dispatch overhead (why fusion reduces latency),
//! thread-per-query CPU allocation (why multiple connections help, and by
//! how much), query throttling, connection limits,
//! and session-scoped temporary tables. Queries *really* execute — results
//! come from an embedded serial TDE over shared base tables — so every
//! higher layer is tested for correctness, not just latency.

use crate::capability::Capabilities;
use crate::source::{Connection, DataSource, RemoteQuery};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabviz_common::{Chunk, Result, TvError};
use tabviz_storage::{Database, Table};
use tabviz_tde::{ExecOptions, Tde};
use tabviz_tql::{Catalog, TableMeta};

/// Time costs of talking to this server.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Opening a connection (+ metadata retrieval): "the process of opening
    /// a connection, retrieving configuration information and metadata are
    /// costly" (Sect. 3.5).
    pub connect: Duration,
    /// Fixed per-query overhead (parse/plan/dispatch).
    pub dispatch: Duration,
    /// Server CPU time per 1000 rows scanned (divided by allocated cores).
    pub scan_per_kilorow: Duration,
    /// Network transfer per 1000 result rows.
    pub transfer_per_kilorow: Duration,
}

impl LatencyModel {
    /// No artificial delays (unit tests).
    pub fn instant() -> Self {
        LatencyModel {
            connect: Duration::ZERO,
            dispatch: Duration::ZERO,
            scan_per_kilorow: Duration::ZERO,
            transfer_per_kilorow: Duration::ZERO,
        }
    }

    /// A nearby warehouse on the LAN.
    pub fn lan() -> Self {
        LatencyModel {
            connect: Duration::from_millis(20),
            dispatch: Duration::from_millis(2),
            scan_per_kilorow: Duration::from_micros(150),
            transfer_per_kilorow: Duration::from_micros(400),
        }
    }

    /// A cloud database across a WAN.
    pub fn wan() -> Self {
        LatencyModel {
            connect: Duration::from_millis(120),
            dispatch: Duration::from_millis(15),
            scan_per_kilorow: Duration::from_micros(150),
            transfer_per_kilorow: Duration::from_millis(2),
        }
    }
}

/// Cumulative counters, for experiment reporting.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    pub connects: usize,
    pub queries: usize,
    pub rows_returned: u64,
    pub bytes_uploaded: u64,
    pub bytes_downloaded: u64,
    pub temp_tables_created: usize,
    /// Total server-core busy time (for utilization accounting).
    pub busy: Duration,
    /// Injected faults, by kind (all zero without a [`FaultPlan`]).
    pub connect_faults: usize,
    pub transient_faults: usize,
    pub dropped_connections: usize,
    pub slow_queries: usize,
    pub temp_table_faults: usize,
    /// Queries that exceeded their [`RemoteQuery::timeout`] deadline.
    pub timeouts: usize,
}

/// A deterministic fault-injection schedule for a simulated backend.
///
/// Each probability is evaluated against a pure hash of
/// `(seed, fault site, operation ordinal)`, **not** a shared mutable RNG:
/// the n-th connect attempt (or n-th query on the server) behaves
/// identically on every run regardless of thread interleaving, which is
/// what makes the fault-tolerance suite repeatable. Ordinals are
/// per-server, assigned by atomic counters.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability a connect attempt fails with a transient error (after
    /// paying the connect latency, like a real refused/reset handshake).
    pub connect_failure: f64,
    /// Probability a query fails with a transient error after dispatch.
    pub transient_query_failure: f64,
    /// Probability a query is slowed by `slow_query_delay` (models a
    /// stuck/overloaded server; with a [`RemoteQuery::timeout`] this becomes
    /// a bounded timeout instead of a hang).
    pub slow_query: f64,
    pub slow_query_delay: Duration,
    /// Probability the connection drops mid-query: the query fails
    /// transiently and the session is permanently poisoned
    /// ([`Connection::healthy`] turns false).
    pub connection_drop: f64,
    /// Probability a temp-table creation fails transiently (on top of the
    /// unconditional [`SimDb::set_fail_temp_tables`] switch).
    pub temp_table_failure: f64,
    /// Probability a distributed-cache operation lands on an unreachable
    /// node: gets come back empty, puts are silently dropped (exactly the
    /// contract of a best-effort external KV layer).
    pub cache_node_outage: f64,
    /// Probability a distributed-cache operation hits a slow node and pays
    /// `cache_slow_delay` on top of the normal round trip.
    pub cache_slow_node: f64,
    pub cache_slow_delay: Duration,
}

impl FaultPlan {
    /// No faults; the identity plan.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            connect_failure: 0.0,
            transient_query_failure: 0.0,
            slow_query: 0.0,
            slow_query_delay: Duration::ZERO,
            connection_drop: 0.0,
            temp_table_failure: 0.0,
            cache_node_outage: 0.0,
            cache_slow_node: 0.0,
            cache_slow_delay: Duration::ZERO,
        }
    }

    /// All-zero plan carrying a seed, for builder-style setup.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Deterministic [0, 1) roll for this plan at decision `site`, operation
    /// `ordinal` — the primitive every fault consumer shares.
    pub fn roll(&self, site: u64, ordinal: u64) -> f64 {
        fault_roll(self.seed, site, ordinal)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Fault decision sites (salts for the deterministic roll). Public so other
/// layers (e.g. the distributed cache) draw from the same schedule without
/// colliding with the backend's sites.
pub const SITE_CONNECT: u64 = 1;
pub const SITE_QUERY_TRANSIENT: u64 = 2;
pub const SITE_QUERY_SLOW: u64 = 3;
pub const SITE_QUERY_DROP: u64 = 4;
pub const SITE_TEMP_TABLE: u64 = 5;
pub const SITE_CACHE_GET: u64 = 6;
pub const SITE_CACHE_PUT: u64 = 7;

/// Uniform [0, 1) roll from `(seed, site, ordinal)` via SplitMix64 mixing
/// (the shared [`tabviz_common::hash`] primitives — the cluster ring and
/// traffic generator draw from the same well).
pub fn fault_roll(seed: u64, site: u64, n: u64) -> f64 {
    tabviz_common::hash::roll(seed, site, n)
}

/// A counting semaphore (parking_lot has none; this is the classic
/// mutex+condvar formulation).
struct Semaphore {
    count: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            count: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self, n: usize) {
        let mut c = self.count.lock();
        while *c < n {
            self.cv.wait(&mut c);
        }
        *c -= n;
    }

    fn release(&self, n: usize) {
        let mut c = self.count.lock();
        *c += n;
        self.cv.notify_all();
    }
}

/// Server cores contended by concurrent queries. The server runs one thread
/// per query (Sect. 3.5: "the way a database allocates CPU in the single
/// query execution substantially affects performance"), so a lone query
/// uses one core and a serial batch leaves the rest idle.
const SERVER_CORES: usize = 8;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub capabilities: Capabilities,
    pub latency: LatencyModel,
    /// Deterministic fault injection (none by default).
    pub faults: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            capabilities: Capabilities::default(),
            latency: LatencyModel::instant(),
            faults: None,
        }
    }
}

struct SimInner {
    name: String,
    config: SimConfig,
    db: Arc<Database>,
    cores: Semaphore,
    throttle: Option<Semaphore>,
    open_connections: AtomicUsize,
    stats: Mutex<SimStats>,
    /// Failure injection: next CREATE TEMP TABLE fails (exercises the Data
    /// Server's rewrite-without-temp-table fallback, Sect. 5.3).
    fail_temp_tables: AtomicBool,
    /// Installed fault plan (from config, or replaced via
    /// [`SimDb::set_fault_plan`]).
    faults: Mutex<Option<FaultPlan>>,
    /// Per-site operation ordinals driving the deterministic fault rolls.
    connect_ops: AtomicU64,
    query_ops: AtomicU64,
    temp_ops: AtomicU64,
}

/// Human-readable fault-site name (event labels, error attribution).
fn site_name(site: u64) -> &'static str {
    match site {
        SITE_CONNECT => "connect_failure",
        SITE_QUERY_TRANSIENT => "transient_query_failure",
        SITE_QUERY_SLOW => "slow_query",
        SITE_QUERY_DROP => "connection_drop",
        SITE_TEMP_TABLE => "temp_table_failure",
        _ => "unknown",
    }
}

impl SimInner {
    /// Deterministic decision for the `n`-th operation at a fault site.
    fn fault_fires(&self, site: u64, n: u64, pick: impl Fn(&FaultPlan) -> f64) -> bool {
        self.fault_fires_tagged(site, n, pick).is_some()
    }

    /// Like [`Self::fault_fires`], but when the fault fires it also records
    /// a trace event naming the site and seed-roll ordinal — so a query
    /// profile (or a failing test's error text) can name the exact fault —
    /// and returns the plan seed for error attribution.
    fn fault_fires_tagged(
        &self,
        site: u64,
        n: u64,
        pick: impl Fn(&FaultPlan) -> f64,
    ) -> Option<u64> {
        let faults = self.faults.lock();
        let plan = faults.as_ref()?;
        let p = pick(plan);
        if p > 0.0 && fault_roll(plan.seed, site, n) < p {
            tabviz_obs::event(
                tabviz_obs::stage::FAULT_INJECTED,
                Some(site_name(site)),
                Some(n),
            );
            Some(plan.seed)
        } else {
            None
        }
    }

    fn slow_query_delay(&self) -> Duration {
        self.faults
            .lock()
            .as_ref()
            .map(|p| p.slow_query_delay)
            .unwrap_or(Duration::ZERO)
    }
}

/// A simulated remote database server. Cheap to clone (shared internals).
#[derive(Clone)]
pub struct SimDb {
    inner: Arc<SimInner>,
}

impl SimDb {
    pub fn new(name: impl Into<String>, db: Arc<Database>, config: SimConfig) -> Self {
        let throttle = (config.capabilities.max_concurrent_queries > 0)
            .then(|| Semaphore::new(config.capabilities.max_concurrent_queries));
        SimDb {
            inner: Arc::new(SimInner {
                name: name.into(),
                cores: Semaphore::new(SERVER_CORES),
                throttle,
                open_connections: AtomicUsize::new(0),
                stats: Mutex::new(SimStats::default()),
                fail_temp_tables: AtomicBool::new(false),
                faults: Mutex::new(config.faults.clone()),
                connect_ops: AtomicU64::new(0),
                query_ops: AtomicU64::new(0),
                temp_ops: AtomicU64::new(0),
                config,
                db,
            }),
        }
    }

    pub fn stats(&self) -> SimStats {
        self.inner.stats.lock().clone()
    }

    /// Make subsequent `create_temp_table` calls fail (until unset).
    pub fn set_fail_temp_tables(&self, fail: bool) {
        self.inner.fail_temp_tables.store(fail, Ordering::SeqCst);
    }

    /// Install (or clear) a fault plan at runtime. Operation ordinals are
    /// not reset, so a replaced plan continues the deterministic schedule
    /// from the current position.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.faults.lock() = plan;
    }

    pub fn open_connection_count(&self) -> usize {
        self.inner.open_connections.load(Ordering::SeqCst)
    }

    /// The shared base database (for test setup).
    pub fn base_database(&self) -> &Arc<Database> {
        &self.inner.db
    }
}

impl DataSource for SimDb {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn capabilities(&self) -> &Capabilities {
        &self.inner.config.capabilities
    }

    fn connect(&self) -> Result<Box<dyn Connection>> {
        let max = self.inner.config.capabilities.max_connections;
        if max > 0 {
            // Reserve a slot atomically.
            let prev = self.inner.open_connections.fetch_add(1, Ordering::SeqCst);
            if prev >= max {
                self.inner.open_connections.fetch_sub(1, Ordering::SeqCst);
                return Err(TvError::Backend(format!(
                    "{}: connection limit ({max}) reached",
                    self.inner.name
                )));
            }
        } else {
            self.inner.open_connections.fetch_add(1, Ordering::SeqCst);
        }
        sleep(self.inner.config.latency.connect);
        // Connect-time fault: the handshake latency is paid (as with a real
        // refused/reset connection) but no session comes back.
        let n = self.inner.connect_ops.fetch_add(1, Ordering::SeqCst);
        if let Some(seed) = self
            .inner
            .fault_fires_tagged(SITE_CONNECT, n, |p| p.connect_failure)
        {
            self.inner.open_connections.fetch_sub(1, Ordering::SeqCst);
            self.inner.stats.lock().connect_faults += 1;
            return Err(TvError::Transient(format!(
                "{}: connect attempt refused (fault connect_failure#{n} seed {seed})",
                self.inner.name
            )));
        }
        {
            let mut st = self.inner.stats.lock();
            st.connects += 1;
        }
        let session_db = Arc::new(
            self.inner
                .db
                .session_view(format!("{}-session", self.inner.name)),
        );
        // A generic SQL server evaluates exactly the query it is sent: no
        // Tableau-style join culling, which assumes referential integrity
        // (that belongs to the client-side query processor).
        let mut exec = ExecOptions::serial();
        exec.optimizer.enable_join_culling = false;
        Ok(Box::new(SimConnection {
            server: Arc::clone(&self.inner),
            tde: Tde::new(Arc::clone(&session_db)),
            session_db,
            exec,
            dropped: false,
        }))
    }

    fn table_meta(&self, table: &str) -> Result<TableMeta> {
        tabviz_tde::TdeCatalog::new(Arc::clone(&self.inner.db)).table_meta(table)
    }
}

fn sleep(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// Sleep for `d`, but never past `deadline`. `Err(())` means the full
/// duration did not fit: the simulated work would still be running when the
/// statement timeout fires, so the caller must report a timeout. This is
/// what keeps an injected slow-query "hang" bounded instead of wedging the
/// whole batch.
fn sleep_within(d: Duration, deadline: Option<Instant>) -> std::result::Result<(), ()> {
    match deadline {
        None => {
            sleep(d);
            Ok(())
        }
        Some(dl) => {
            let remaining = dl.saturating_duration_since(Instant::now());
            if d <= remaining {
                sleep(d);
                Ok(())
            } else {
                sleep(remaining);
                Err(())
            }
        }
    }
}

struct SimConnection {
    server: Arc<SimInner>,
    session_db: Arc<Database>,
    tde: Tde,
    exec: ExecOptions,
    /// Set when a connection-drop fault fires; the session is then dead.
    dropped: bool,
}

impl SimConnection {
    /// Rows the server will touch to answer this plan: base + temp tables.
    fn scan_rows(&self, plan: &tabviz_tql::LogicalPlan) -> usize {
        plan.tables()
            .iter()
            .filter_map(|t| self.session_db.resolve(t).ok())
            .map(|t| t.row_count())
            .sum()
    }
}

impl SimConnection {
    fn timeout_err(&self, query: &RemoteQuery) -> TvError {
        self.server.stats.lock().timeouts += 1;
        TvError::Timeout(format!(
            "{}: query exceeded its {:?} deadline",
            self.server.name,
            query.timeout.unwrap_or_default()
        ))
    }
}

impl Connection for SimConnection {
    fn execute(&mut self, query: &RemoteQuery) -> Result<Chunk> {
        if self.dropped {
            return Err(TvError::Transient(format!(
                "{}: connection is dropped",
                self.server.name
            )));
        }
        let cfg = &self.server.config;
        let deadline = query.timeout.map(|t| Instant::now() + t);
        {
            let mut st = self.server.stats.lock();
            st.queries += 1;
            st.bytes_uploaded += query.upload_bytes() as u64;
        }
        let n = self.server.query_ops.fetch_add(1, Ordering::SeqCst);
        if sleep_within(cfg.latency.dispatch, deadline).is_err() {
            return Err(self.timeout_err(query));
        }
        // Mid-query connection drop: the query fails transiently AND the
        // session is poisoned — later use of this connection also fails, and
        // the pool must not recycle it.
        if let Some(seed) = self
            .server
            .fault_fires_tagged(SITE_QUERY_DROP, n, |p| p.connection_drop)
        {
            self.dropped = true;
            self.server.stats.lock().dropped_connections += 1;
            return Err(TvError::Transient(format!(
                "{}: connection dropped mid-query (fault connection_drop#{n} seed {seed})",
                self.server.name
            )));
        }
        if let Some(seed) = self
            .server
            .fault_fires_tagged(SITE_QUERY_TRANSIENT, n, |p| p.transient_query_failure)
        {
            self.server.stats.lock().transient_faults += 1;
            return Err(TvError::Transient(format!(
                "{}: transient server error (fault transient_query_failure#{n} seed {seed})",
                self.server.name
            )));
        }

        if let Some(t) = &self.server.throttle {
            t.acquire(1);
        }
        // Thread per query: each query runs on one of the server's cores.
        self.server.cores.acquire(1);

        let scan_rows = self.scan_rows(&query.plan);
        let mut busy = Duration::from_nanos(
            (cfg.latency.scan_per_kilorow.as_nanos() as u64).saturating_mul(scan_rows as u64)
                / 1000,
        );
        // Injected slow query: the server stalls for an extra delay (GC
        // pause, lock wait, overloaded I/O). Without a query timeout this
        // is simply slow; with one it surfaces as a bounded Timeout.
        if self
            .server
            .fault_fires(SITE_QUERY_SLOW, n, |p| p.slow_query)
        {
            busy += self.server.slow_query_delay();
            self.server.stats.lock().slow_queries += 1;
        }
        let timed_out = sleep_within(busy, deadline).is_err();
        let result = if timed_out {
            Err(self.timeout_err(query))
        } else {
            self.tde
                .execute_plan(&query.plan, &self.exec)
                .map_err(|e| TvError::Backend(format!("{}: {e}", self.server.name)))
        };

        self.server.cores.release(1);
        if let Some(t) = &self.server.throttle {
            t.release(1);
        }
        let chunk = result?;

        let transfer = Duration::from_nanos(
            (cfg.latency.transfer_per_kilorow.as_nanos() as u64).saturating_mul(chunk.len() as u64)
                / 1000,
        );
        if sleep_within(transfer, deadline).is_err() {
            return Err(self.timeout_err(query));
        }
        {
            let mut st = self.server.stats.lock();
            st.rows_returned += chunk.len() as u64;
            st.bytes_downloaded += chunk.approx_bytes() as u64;
            st.busy += busy.max(Duration::from_nanos(1));
        }
        Ok(chunk)
    }

    fn create_temp_table(&mut self, name: &str, data: &Chunk) -> Result<()> {
        if self.dropped {
            return Err(TvError::Transient(format!(
                "{}: connection is dropped",
                self.server.name
            )));
        }
        if !self.server.config.capabilities.supports_temp_tables {
            return Err(TvError::Unsupported(format!(
                "{} does not support temporary tables",
                self.server.name
            )));
        }
        if self.server.fail_temp_tables.load(Ordering::SeqCst) {
            return Err(TvError::Backend(format!(
                "{}: temp table creation failed",
                self.server.name
            )));
        }
        let n = self.server.temp_ops.fetch_add(1, Ordering::SeqCst);
        if let Some(seed) = self
            .server
            .fault_fires_tagged(SITE_TEMP_TABLE, n, |p| p.temp_table_failure)
        {
            self.server.stats.lock().temp_table_faults += 1;
            return Err(TvError::Transient(format!(
                "{}: temp table creation failed transiently (fault temp_table_failure#{n} seed {seed})",
                self.server.name
            )));
        }
        sleep(self.server.config.latency.dispatch);
        // Uploading the rows costs transfer time in the other direction.
        let upload = Duration::from_nanos(
            (self.server.config.latency.transfer_per_kilorow.as_nanos() as u64)
                .saturating_mul(data.len() as u64)
                / 1000,
        );
        sleep(upload);
        self.session_db
            .put_temp(Table::from_chunk(name, data, &[])?)?;
        let mut st = self.server.stats.lock();
        st.temp_tables_created += 1;
        st.bytes_uploaded += data.approx_bytes() as u64;
        Ok(())
    }

    fn drop_temp_table(&mut self, name: &str) -> Result<()> {
        self.session_db
            .drop_table(tabviz_storage::database::TEMP_SCHEMA, name)
    }

    fn has_temp_table(&self, name: &str) -> bool {
        self.session_db
            .get_table(tabviz_storage::database::TEMP_SCHEMA, name)
            .is_ok()
    }

    fn temp_tables(&self) -> Vec<String> {
        self.session_db
            .table_names(tabviz_storage::database::TEMP_SCHEMA)
    }

    fn healthy(&self) -> bool {
        !self.dropped
    }
}

impl Drop for SimConnection {
    fn drop(&mut self) {
        self.server.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_tql::parse_plan;

    fn base_db(rows: usize) -> Arc<Database> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Str(["AA", "DL", "WN"][i % 3].into()),
                    Value::Int(i as i64),
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

    fn query(text: &str) -> RemoteQuery {
        RemoteQuery::new(text.to_string(), parse_plan(text).unwrap())
    }

    #[test]
    fn executes_real_results() {
        let sim = SimDb::new("sql1", base_db(300), SimConfig::default());
        let mut conn = sim.connect().unwrap();
        let out = conn
            .execute(&query(
                "(aggregate ((carrier)) ((count as n)) (scan flights))",
            ))
            .unwrap();
        assert_eq!(out.len(), 3);
        let st = sim.stats();
        assert_eq!(st.queries, 1);
        assert_eq!(st.connects, 1);
        assert_eq!(st.rows_returned, 3);
        assert!(st.bytes_uploaded > 0);
    }

    #[test]
    fn session_temp_tables_are_isolated() {
        let sim = SimDb::new("sql1", base_db(10), SimConfig::default());
        let mut c1 = sim.connect().unwrap();
        let mut c2 = sim.connect().unwrap();
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Str)]).unwrap());
        let data = Chunk::from_rows(schema, &[vec!["AA".into()]]).unwrap();
        c1.create_temp_table("filter1", &data).unwrap();
        assert!(c1.has_temp_table("filter1"));
        assert!(!c2.has_temp_table("filter1"));
        // c1 can join against its temp.
        let q = query("(aggregate () ((count as n)) (join inner ((carrier v)) (scan flights) (scan filter1)))");
        let out = c1.execute(&q).unwrap();
        assert_eq!(out.row(0)[0], Value::Int(4)); // AA appears at i%3==0 → 4 of 10
        assert!(c2.execute(&q).is_err()); // c2's session has no such table
        c1.drop_temp_table("filter1").unwrap();
        assert!(!c1.has_temp_table("filter1"));
    }

    #[test]
    fn connection_limit_enforced() {
        let mut cfg = SimConfig::default();
        cfg.capabilities.max_connections = 2;
        let sim = SimDb::new("limited", base_db(5), cfg);
        let c1 = sim.connect().unwrap();
        let _c2 = sim.connect().unwrap();
        assert!(sim.connect().is_err());
        drop(c1);
        assert!(sim.connect().is_ok());
    }

    #[test]
    fn temp_table_failure_injection() {
        let sim = SimDb::new("flaky", base_db(5), SimConfig::default());
        let mut conn = sim.connect().unwrap();
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]).unwrap());
        let data = Chunk::from_rows(schema, &[vec![Value::Int(1)]]).unwrap();
        sim.set_fail_temp_tables(true);
        assert!(conn.create_temp_table("t", &data).is_err());
        sim.set_fail_temp_tables(false);
        assert!(conn.create_temp_table("t", &data).is_ok());
    }

    #[test]
    fn unsupported_temp_tables() {
        let mut caps = Capabilities::limited();
        caps.max_connections = 0;
        let cfg = SimConfig {
            capabilities: caps,
            ..Default::default()
        };
        let sim = SimDb::new("old", base_db(5), cfg);
        let mut conn = sim.connect().unwrap();
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]).unwrap());
        let data = Chunk::from_rows(schema, &[vec![Value::Int(1)]]).unwrap();
        assert!(matches!(
            conn.create_temp_table("t", &data),
            Err(TvError::Unsupported(_))
        ));
    }

    #[test]
    fn concurrency_beats_serial_on_thread_per_query() {
        // 4 queries, each ~25ms of server CPU, thread-per-query, 8 cores:
        // serial ≈ 100ms, concurrent ≈ 25ms.
        let mut cfg = SimConfig::default();
        cfg.latency.scan_per_kilorow = Duration::from_millis(5);
        let sim = SimDb::new("warehouse", base_db(5_000), cfg);
        let q = "(aggregate ((carrier)) ((count as n)) (scan flights))";

        let t0 = std::time::Instant::now();
        let mut conn = sim.connect().unwrap();
        for _ in 0..4 {
            conn.execute(&query(q)).unwrap();
        }
        let serial = t0.elapsed();

        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sim = sim.clone();
                s.spawn(move || {
                    let mut c = sim.connect().unwrap();
                    c.execute(&query(q)).unwrap();
                });
            }
        });
        let parallel = t0.elapsed();
        assert!(
            parallel < serial,
            "parallel {parallel:?} should beat serial {serial:?}"
        );
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let plan = FaultPlan {
            transient_query_failure: 0.4,
            connection_drop: 0.1,
            ..FaultPlan::seeded(7)
        };
        let outcomes = |seed: u64| {
            let mut plan = plan.clone();
            plan.seed = seed;
            let cfg = SimConfig {
                faults: Some(plan),
                ..Default::default()
            };
            let sim = SimDb::new("flaky", base_db(50), cfg);
            let q = query("(aggregate ((carrier)) ((count as n)) (scan flights))");
            (0..32)
                .map(|_| {
                    // Fresh connection per query so a drop doesn't cascade.
                    let mut c = sim.connect().unwrap();
                    match c.execute(&q) {
                        Ok(_) => 'o',
                        Err(TvError::Transient(_)) => 't',
                        Err(_) => 'x',
                    }
                })
                .collect::<String>()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "same seed, same schedule");
        assert_ne!(a, outcomes(8), "different seed, different schedule");
        assert!(a.contains('t'), "faults actually fire: {a}");
        assert!(a.contains('o'), "not everything fails: {a}");
    }

    #[test]
    fn connect_failures_fire_and_release_the_slot() {
        let mut cfg = SimConfig::default();
        cfg.capabilities.max_connections = 2;
        cfg.faults = Some(FaultPlan {
            connect_failure: 0.5,
            ..FaultPlan::seeded(3)
        });
        let sim = SimDb::new("flaky", base_db(5), cfg);
        let mut failures = 0;
        for _ in 0..20 {
            match sim.connect() {
                Ok(c) => drop(c),
                Err(TvError::Transient(_)) => failures += 1,
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
        assert!(failures > 0);
        assert_eq!(sim.stats().connect_faults, failures);
        // Failed attempts must not leak connection-limit slots.
        sim.set_fault_plan(None);
        let _a = sim.connect().unwrap();
        let _b = sim.connect().unwrap();
    }

    #[test]
    fn dropped_connection_is_poisoned() {
        let cfg = SimConfig {
            faults: Some(FaultPlan {
                connection_drop: 1.0,
                ..FaultPlan::seeded(1)
            }),
            ..Default::default()
        };
        let sim = SimDb::new("flaky", base_db(10), cfg);
        let mut conn = sim.connect().unwrap();
        assert!(conn.healthy());
        let q = query("(aggregate () ((count as n)) (scan flights))");
        assert!(matches!(conn.execute(&q), Err(TvError::Transient(_))));
        assert!(!conn.healthy(), "drop poisons the session");
        // Every later use fails too — without consuming more fault ordinals.
        assert!(matches!(conn.execute(&q), Err(TvError::Transient(_))));
        assert_eq!(sim.stats().dropped_connections, 1);
    }

    #[test]
    fn slow_query_bounded_by_timeout() {
        let cfg = SimConfig {
            faults: Some(FaultPlan {
                slow_query: 1.0,
                slow_query_delay: Duration::from_secs(30),
                ..FaultPlan::seeded(2)
            }),
            ..Default::default()
        };
        let sim = SimDb::new("stuck", base_db(10), cfg);
        let mut conn = sim.connect().unwrap();
        let q = query("(aggregate () ((count as n)) (scan flights))")
            .with_timeout(Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        let err = conn.execute(&q).unwrap_err();
        assert!(matches!(err, TvError::Timeout(_)), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "a 30s stall must be cut off by the 30ms deadline"
        );
        assert_eq!(sim.stats().timeouts, 1);
        assert!(conn.healthy(), "a timeout does not poison the session");
    }

    #[test]
    fn throttle_limits_concurrency() {
        let mut cfg = SimConfig::default();
        cfg.latency.scan_per_kilorow = Duration::from_millis(4);
        cfg.capabilities.max_concurrent_queries = 1;
        let sim = SimDb::new("throttled", base_db(5_000), cfg);
        let q = "(aggregate ((carrier)) ((count as n)) (scan flights))";
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let sim = sim.clone();
                s.spawn(move || {
                    let mut c = sim.connect().unwrap();
                    c.execute(&query(q)).unwrap();
                });
            }
        });
        let elapsed = t0.elapsed();
        // Three ~20ms queries forced serial by the throttle: ≥ 50ms.
        assert!(elapsed >= Duration::from_millis(50), "{elapsed:?}");
    }
}
