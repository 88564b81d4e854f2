//! Connection pooling.
//!
//! Sect. 3.5: "Tableau manages a certain number of active connections to
//! each data source to implement concurrent execution of remote queries. The
//! process of opening a connection ... \[is\] costly, therefore, connections
//! are pooled and kept around even if idle. In addition, connection pooling
//! plays an important role in preserving and reusing temporary structures
//! stored in remote sessions. ... An age-wise eviction policy is used in
//! case of local memory pressure or to release remote resources unused for
//! longer periods of time."

use crate::source::{Connection, DataSource};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tabviz_common::{Result, TvError};
use tabviz_obs::{stage, Counter, Gauge, Histogram, Registry};

/// Pre-resolved metric handles (`tv_backend_pool_*`), bound once via
/// [`ConnectionPool::bind_obs`]; the hot path pays one `OnceLock` load plus
/// relaxed atomic increments.
struct PoolMetrics {
    opened: Counter,
    reused: Counter,
    waited: Counter,
    evicted: Counter,
    poisoned: Counter,
    connect_retries: Counter,
    acquire_timeouts: Counter,
    acquire_wait: Histogram,
    breaker_state: Gauge,
    breaker_trips: Counter,
    breaker_fast_fails: Counter,
}

impl PoolMetrics {
    fn bind(registry: &Registry) -> Self {
        PoolMetrics {
            opened: registry.counter("tv_backend_pool_opened_total"),
            reused: registry.counter("tv_backend_pool_reused_total"),
            waited: registry.counter("tv_backend_pool_waited_total"),
            evicted: registry.counter("tv_backend_pool_evicted_total"),
            poisoned: registry.counter("tv_backend_pool_poisoned_total"),
            connect_retries: registry.counter("tv_backend_pool_connect_retries_total"),
            acquire_timeouts: registry.counter("tv_backend_pool_acquire_timeouts_total"),
            acquire_wait: registry.histogram("tv_backend_pool_acquire_wait_seconds"),
            breaker_state: registry.gauge("tv_pool_breaker_state"),
            breaker_trips: registry.counter("tv_pool_breaker_trips_total"),
            breaker_fast_fails: registry.counter("tv_pool_breaker_fast_fails_total"),
        }
    }
}

/// Circuit-breaker position for a pool's backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; connect attempts go to the backend.
    #[default]
    Closed,
    /// Cooldown elapsed; exactly one probe acquire is dialing the backend
    /// while everyone else still fails fast.
    HalfOpen,
    /// Too many consecutive connect failures; acquires that would dial the
    /// backend fail fast until the cooldown elapses.
    Open,
}

impl BreakerState {
    /// Value exported through the `tv_pool_breaker_state` gauge
    /// (0 = closed, 1 = half-open, 2 = open).
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// Pool counters.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Connections physically opened (connect cost paid).
    pub opened: usize,
    /// Acquisitions served from an idle pooled connection.
    pub reused: usize,
    /// Acquisitions that had to wait for a connection to come back.
    pub waited: usize,
    /// Connections discarded by age-wise eviction.
    pub evicted: usize,
    /// Unhealthy connections discarded instead of being recycled.
    pub poisoned: usize,
    /// Transient connect failures that were retried.
    pub connect_retries: usize,
    /// Acquisitions that gave up because the acquire deadline elapsed.
    pub acquire_timeouts: usize,
    /// Times the circuit breaker transitioned to open (including re-opens
    /// after a failed half-open probe).
    pub breaker_trips: usize,
    /// Acquisitions rejected without dialing because the breaker was open.
    pub breaker_fast_fails: usize,
    /// Current breaker position.
    pub breaker_state: BreakerState,
}

/// Retry/backoff/deadline policy for the pool.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra connect attempts after a transient failure (0 = fail fast).
    pub connect_retries: usize,
    /// First backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// How long an acquisition may block waiting for a free connection
    /// before returning [`TvError::Timeout`]. `None` waits forever (the
    /// pre-resilience behavior).
    pub acquire_timeout: Option<Duration>,
    /// Consecutive connect failures that trip the circuit breaker open
    /// (0 disables the breaker).
    pub breaker_threshold: usize,
    /// How long an open breaker fails acquires fast before allowing a
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_retries: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(250),
            acquire_timeout: Some(Duration::from_secs(30)),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// Exponential backoff with deterministic jitter for the `attempt`-th
    /// retry (0-based). Jitter (0–50% of the step) decorrelates contending
    /// acquirers; deriving it from a counter keeps runs reproducible.
    fn backoff(&self, attempt: usize, salt: u64) -> Duration {
        let step = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16) as u32)
            .min(self.backoff_cap);
        // SplitMix64 finalizer over the salt.
        let mut z = salt.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        let frac = ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        step + Duration::from_secs_f64(step.as_secs_f64() * 0.5 * frac)
    }
}

struct Idle {
    conn: Box<dyn Connection>,
    last_used: Instant,
}

struct PoolInner {
    idle: Vec<Idle>,
    /// Connections currently handed out.
    in_use: usize,
    stats: PoolStats,
    /// Connect failures since the last successful connect.
    consecutive_connect_failures: usize,
    /// When the breaker last tripped open; `None` while closed.
    breaker_opened_at: Option<Instant>,
    /// A half-open probe acquire is currently dialing.
    breaker_probing: bool,
}

/// A pool of connections to one data source.
pub struct ConnectionPool {
    source: Arc<dyn DataSource>,
    max_size: usize,
    policy: RetryPolicy,
    /// Monotonic salt for deterministic backoff jitter.
    backoff_salt: AtomicU64,
    inner: Mutex<PoolInner>,
    cv: Condvar,
    metrics: OnceLock<PoolMetrics>,
}

/// RAII guard: returns the connection to the pool on drop — unless the
/// session is unhealthy (or explicitly poisoned), in which case it is
/// discarded so no later acquirer receives a dead connection.
pub struct PooledConnection<'a> {
    pool: &'a ConnectionPool,
    conn: Option<Box<dyn Connection>>,
    poisoned: bool,
}

impl PooledConnection<'_> {
    /// Force-discard this connection on drop even if it reports healthy
    /// (e.g. the caller observed a protocol error the backend missed).
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

impl std::ops::Deref for PooledConnection<'_> {
    type Target = Box<dyn Connection>;
    fn deref(&self) -> &Self::Target {
        self.conn.as_ref().expect("connection present until drop")
    }
}

impl std::ops::DerefMut for PooledConnection<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.conn.as_mut().expect("connection present until drop")
    }
}

impl Drop for PooledConnection<'_> {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            let mut inner = self.pool.inner.lock();
            inner.in_use -= 1;
            if self.poisoned || !conn.healthy() {
                // Dropping the boxed connection closes the session; the
                // freed capacity lets a waiter open a fresh one.
                inner.stats.poisoned += 1;
                if let Some(m) = self.pool.obs() {
                    m.poisoned.inc();
                }
            } else {
                inner.idle.push(Idle {
                    conn,
                    last_used: Instant::now(),
                });
            }
            self.pool.cv.notify_one();
        }
    }
}

impl ConnectionPool {
    /// Create a pool with at most `max_size` connections. A backend's own
    /// connection limit further caps the effective size.
    pub fn new(source: Arc<dyn DataSource>, max_size: usize) -> Self {
        let caps_max = source.capabilities().max_connections;
        let max_size = if caps_max > 0 {
            max_size.min(caps_max)
        } else {
            max_size
        }
        .max(1);
        ConnectionPool {
            source,
            max_size,
            policy: RetryPolicy::default(),
            backoff_salt: AtomicU64::new(0),
            inner: Mutex::new(PoolInner {
                idle: Vec::new(),
                in_use: 0,
                stats: PoolStats::default(),
                consecutive_connect_failures: 0,
                breaker_opened_at: None,
                breaker_probing: false,
            }),
            cv: Condvar::new(),
            metrics: OnceLock::new(),
        }
    }

    /// Resolve this pool's `tv_backend_pool_*` metrics against a registry.
    /// Idempotent; the first binding wins.
    pub fn bind_obs(&self, registry: &Registry) {
        let _ = self.metrics.set(PoolMetrics::bind(registry));
    }

    fn obs(&self) -> Option<&PoolMetrics> {
        self.metrics.get()
    }

    /// Replace the retry/deadline policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Backoff duration for an external retry loop's `attempt`-th retry,
    /// advancing the shared jitter salt (query-level retries and connect
    /// retries stay decorrelated but deterministic).
    pub fn next_backoff(&self, attempt: usize) -> Duration {
        let salt = self.backoff_salt.fetch_add(1, Ordering::Relaxed);
        self.policy.backoff(attempt, salt)
    }

    pub fn max_size(&self) -> usize {
        self.max_size
    }

    pub fn source(&self) -> &Arc<dyn DataSource> {
        &self.source
    }

    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats.clone()
    }

    /// Acquire a connection, preferring one that already holds the given
    /// temp table ("queries ... are multiplexed across connections
    /// regardless of their remote state", but routing to a session that has
    /// the structure avoids re-creating it). Blocks at most the policy's
    /// `acquire_timeout`.
    pub fn acquire_preferring(&self, temp_table: Option<&str>) -> Result<PooledConnection<'_>> {
        self.acquire_within(temp_table, self.policy.acquire_timeout)
    }

    /// Acquire with an explicit deadline override (`None` = wait forever).
    pub fn acquire_within(
        &self,
        temp_table: Option<&str>,
        timeout: Option<Duration>,
    ) -> Result<PooledConnection<'_>> {
        let wait_start = Instant::now();
        let mut span = tabviz_obs::span(stage::POOL_ACQUIRE);
        let deadline = timeout.map(|t| wait_start + t);
        let mut inner = self.inner.lock();
        loop {
            // 0. Sessions that died while idle are discarded, never reused.
            let before = inner.idle.len();
            inner.idle.retain(|i| i.conn.healthy());
            let culled = before - inner.idle.len();
            inner.stats.poisoned += culled;
            if let Some(m) = self.obs() {
                m.poisoned.add(culled as u64);
            }

            // 1. An idle connection holding the wanted temp structure.
            if let Some(name) = temp_table {
                if let Some(pos) = inner.idle.iter().position(|i| i.conn.has_temp_table(name)) {
                    let idle = inner.idle.remove(pos);
                    inner.in_use += 1;
                    inner.stats.reused += 1;
                    span.label("temp_affinity");
                    span.reason(tabviz_obs::reason::POOL_TEMP_AFFINITY);
                    self.observe_acquire(|m| &m.reused, wait_start);
                    return Ok(PooledConnection {
                        pool: self,
                        conn: Some(idle.conn),
                        poisoned: false,
                    });
                }
            }
            // 2. Any idle connection (most recently used first, to keep the
            //    working set warm and let old ones age out).
            if let Some(idle) = inner.idle.pop() {
                inner.in_use += 1;
                inner.stats.reused += 1;
                span.label("reused");
                span.reason(tabviz_obs::reason::POOL_REUSED);
                self.observe_acquire(|m| &m.reused, wait_start);
                return Ok(PooledConnection {
                    pool: self,
                    conn: Some(idle.conn),
                    poisoned: false,
                });
            }
            // 3. Open a new one if under the cap, retrying transient connect
            //    failures with exponential backoff + deterministic jitter.
            //    The circuit breaker gates this step only: idle connections
            //    (steps 1–2) keep flowing while the backend's dial path is
            //    known bad.
            if inner.in_use < self.max_size {
                if let Err(e) = self.breaker_admit(&mut inner) {
                    span.label("breaker_open");
                    span.reason(tabviz_obs::reason::POOL_BREAKER_OPEN);
                    return Err(e);
                }
                inner.in_use += 1;
                inner.stats.opened += 1;
                drop(inner);
                let mut attempt = 0usize;
                loop {
                    match self.source.connect() {
                        Ok(conn) => {
                            self.breaker_on_connect_success();
                            span.label("opened");
                            span.reason(tabviz_obs::reason::POOL_DIALED);
                            self.observe_acquire(|m| &m.opened, wait_start);
                            return Ok(PooledConnection {
                                pool: self,
                                conn: Some(conn),
                                poisoned: false,
                            });
                        }
                        Err(e) => {
                            let tripped = self.breaker_on_connect_failure();
                            if e.is_transient()
                                && !tripped
                                && attempt < self.policy.connect_retries
                                && deadline.is_none_or(|d| Instant::now() < d)
                            {
                                let salt = self.backoff_salt.fetch_add(1, Ordering::Relaxed);
                                self.inner.lock().stats.connect_retries += 1;
                                if let Some(m) = self.obs() {
                                    m.connect_retries.inc();
                                }
                                tabviz_obs::event(
                                    stage::RETRY,
                                    Some("connect"),
                                    Some(attempt as u64),
                                );
                                std::thread::sleep(self.policy.backoff(attempt, salt));
                                attempt += 1;
                            } else {
                                let mut inner = self.inner.lock();
                                inner.in_use -= 1;
                                inner.stats.opened -= 1;
                                self.cv.notify_one();
                                span.label("connect_failed");
                                span.reason(tabviz_obs::reason::POOL_CONNECT_FAILED);
                                return Err(e);
                            }
                        }
                    }
                }
            }
            // 4. Wait for a connection to come back, up to the deadline.
            inner.stats.waited += 1;
            if let Some(m) = self.obs() {
                m.waited.inc();
            }
            match deadline {
                None => self.cv.wait(&mut inner),
                Some(d) => {
                    if Instant::now() >= d {
                        inner.stats.acquire_timeouts += 1;
                        span.label("timeout");
                        span.reason(tabviz_obs::reason::POOL_TIMEOUT);
                        if let Some(m) = self.obs() {
                            m.acquire_timeouts.inc();
                            m.acquire_wait.observe(wait_start.elapsed());
                        }
                        return Err(TvError::Timeout(format!(
                            "acquiring a '{}' connection exceeded {:?} (pool size {})",
                            self.source.name(),
                            timeout.unwrap_or_default(),
                            self.max_size
                        )));
                    }
                    self.cv.wait_until(&mut inner, d);
                }
            }
        }
    }

    /// Gate for step 3 (dialing the backend). While the breaker is open the
    /// acquire fails fast with a transient error — callers fall back to
    /// degraded serving instead of paying the connect timeout. After the
    /// cooldown exactly one caller is let through as the half-open probe;
    /// its outcome decides whether the breaker closes or re-opens.
    fn breaker_admit(&self, inner: &mut PoolInner) -> Result<()> {
        if self.policy.breaker_threshold == 0 {
            return Ok(());
        }
        let Some(opened_at) = inner.breaker_opened_at else {
            return Ok(());
        };
        if opened_at.elapsed() < self.policy.breaker_cooldown || inner.breaker_probing {
            inner.stats.breaker_fast_fails += 1;
            if let Some(m) = self.obs() {
                m.breaker_fast_fails.inc();
            }
            return Err(TvError::Transient(format!(
                "circuit breaker open for '{}' after {} consecutive connect failures",
                self.source.name(),
                inner.consecutive_connect_failures
            )));
        }
        inner.breaker_probing = true;
        self.set_breaker_state(inner, BreakerState::HalfOpen);
        Ok(())
    }

    /// A physical connect succeeded: close the breaker and reset the
    /// consecutive-failure count.
    fn breaker_on_connect_success(&self) {
        if self.policy.breaker_threshold == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.consecutive_connect_failures = 0;
        inner.breaker_probing = false;
        if inner.breaker_opened_at.take().is_some() {
            self.set_breaker_state(&mut inner, BreakerState::Closed);
        }
    }

    /// A physical connect failed. Trips the breaker at the threshold (or
    /// immediately re-opens it when a half-open probe fails) and returns
    /// whether it is now open, in which case the caller stops retrying.
    fn breaker_on_connect_failure(&self) -> bool {
        if self.policy.breaker_threshold == 0 {
            return false;
        }
        let mut inner = self.inner.lock();
        inner.consecutive_connect_failures += 1;
        let failed_probe = std::mem::take(&mut inner.breaker_probing);
        if failed_probe || inner.consecutive_connect_failures >= self.policy.breaker_threshold {
            inner.breaker_opened_at = Some(Instant::now());
            inner.stats.breaker_trips += 1;
            if let Some(m) = self.obs() {
                m.breaker_trips.inc();
            }
            self.set_breaker_state(&mut inner, BreakerState::Open);
            true
        } else {
            false
        }
    }

    fn set_breaker_state(&self, inner: &mut PoolInner, state: BreakerState) {
        inner.stats.breaker_state = state;
        if let Some(m) = self.obs() {
            m.breaker_state.set(state.as_gauge());
        }
    }

    /// Current circuit-breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.inner.lock().stats.breaker_state
    }

    /// Record a successful acquisition: bump the path's counter and observe
    /// how long the caller waited.
    fn observe_acquire(&self, which: impl Fn(&PoolMetrics) -> &Counter, wait_start: Instant) {
        if let Some(m) = self.obs() {
            which(m).inc();
            m.acquire_wait.observe(wait_start.elapsed());
        }
    }

    /// Acquire any connection.
    pub fn acquire(&self) -> Result<PooledConnection<'_>> {
        self.acquire_preferring(None)
    }

    /// Drop idle connections unused for longer than `max_age` (the age-wise
    /// eviction policy). Returns how many were closed.
    pub fn evict_idle(&self, max_age: Duration) -> usize {
        let mut inner = self.inner.lock();
        let now = Instant::now();
        let before = inner.idle.len();
        inner
            .idle
            .retain(|i| now.duration_since(i.last_used) <= max_age);
        let evicted = before - inner.idle.len();
        inner.stats.evicted += evicted;
        if let Some(m) = self.obs() {
            m.evicted.add(evicted as u64);
        }
        evicted
    }

    /// Close every idle connection (connection refresh / data source close —
    /// which also purges the remote temp state those sessions held).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let n = inner.idle.len();
        inner.idle.clear();
        inner.stats.evicted += n;
        if let Some(m) = self.obs() {
            m.evicted.add(n as u64);
        }
    }

    pub fn idle_count(&self) -> usize {
        self.inner.lock().idle.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FaultPlan, SimConfig, SimDb};
    use std::sync::Arc;
    use tabviz_common::{Chunk, DataType, Field, Schema, Value};
    use tabviz_storage::{Database, Table};

    fn source() -> Arc<dyn DataSource> {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let db = Arc::new(Database::new("d"));
        db.put(Table::from_chunk("t", &Chunk::from_rows(schema, &rows).unwrap(), &[]).unwrap())
            .unwrap();
        Arc::new(SimDb::new("s", db, SimConfig::default()))
    }

    #[test]
    fn reuses_connections() {
        let pool = ConnectionPool::new(source(), 4);
        {
            let _c = pool.acquire().unwrap();
        }
        {
            let _c = pool.acquire().unwrap();
        }
        let st = pool.stats();
        assert_eq!(st.opened, 1);
        assert_eq!(st.reused, 1);
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn blocks_at_capacity_until_release() {
        let pool = Arc::new(ConnectionPool::new(source(), 1));
        let c1 = pool.acquire().unwrap();
        let p2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let _c = p2.acquire().unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "should be blocked at capacity");
        drop(c1);
        waiter.join().unwrap();
        assert!(pool.stats().waited >= 1);
    }

    #[test]
    fn respects_backend_connection_limit() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let db = Arc::new(Database::new("d"));
        db.put(
            Table::from_chunk(
                "t",
                &Chunk::from_rows(schema, &[vec![Value::Int(1)]]).unwrap(),
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let mut cfg = SimConfig::default();
        cfg.capabilities.max_connections = 2;
        let src: Arc<dyn DataSource> = Arc::new(SimDb::new("s", db, cfg));
        let pool = ConnectionPool::new(src, 16);
        assert_eq!(pool.max_size(), 2);
    }

    #[test]
    fn temp_table_affinity() {
        let pool = ConnectionPool::new(source(), 4);
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]).unwrap());
        let data = Chunk::from_rows(schema, &[vec![Value::Int(1)]]).unwrap();
        {
            let mut c = pool.acquire().unwrap();
            c.create_temp_table("big_filter", &data).unwrap();
        }
        {
            // Open a second connection (no temp) and return it last, so it
            // sits on top of the idle stack.
            let c_a = pool.acquire_preferring(Some("big_filter")).unwrap();
            assert!(c_a.has_temp_table("big_filter"));
            let c_b = pool.acquire().unwrap();
            assert!(!c_b.has_temp_table("big_filter"));
            drop(c_a);
            drop(c_b);
        }
        // Preferring the temp table picks the right session even though it
        // is not on top.
        let c = pool.acquire_preferring(Some("big_filter")).unwrap();
        assert!(c.has_temp_table("big_filter"));
    }

    #[test]
    fn stress_many_threads_share_a_small_pool() {
        use tabviz_tql::parse_plan;
        let pool = Arc::new(ConnectionPool::new(source(), 3));
        let q = "(aggregate () ((count as n)) (scan t))";
        let plan = parse_plan(q).unwrap();
        std::thread::scope(|s| {
            for _ in 0..16 {
                let pool = Arc::clone(&pool);
                let plan = plan.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        let mut c = pool.acquire().unwrap();
                        let out = c
                            .execute(&crate::source::RemoteQuery::new(q.into(), plan.clone()))
                            .unwrap();
                        assert_eq!(out.row(0)[0], tabviz_common::Value::Int(10));
                    }
                });
            }
        });
        let st = pool.stats();
        assert!(st.opened <= 3, "never more than the cap: {}", st.opened);
        assert_eq!(st.opened + st.reused, 16 * 5);
        // (whether acquisitions had to wait is timing-dependent on a fast
        // backend; the cap and the accounting are the invariants)
    }

    fn faulty_sim(plan: FaultPlan) -> Arc<SimDb> {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let db = Arc::new(Database::new("d"));
        db.put(Table::from_chunk("t", &Chunk::from_rows(schema, &rows).unwrap(), &[]).unwrap())
            .unwrap();
        let cfg = SimConfig {
            faults: Some(plan),
            ..Default::default()
        };
        Arc::new(SimDb::new("s", db, cfg))
    }

    fn faulty_source(plan: FaultPlan) -> Arc<dyn DataSource> {
        faulty_sim(plan)
    }

    fn fast_retry_policy(retries: usize) -> RetryPolicy {
        RetryPolicy {
            connect_retries: retries,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
            acquire_timeout: Some(Duration::from_secs(5)),
            // These tests pin down retry-exhaustion semantics; the breaker
            // has its own tests below.
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(500),
        }
    }

    fn breaker_policy(threshold: usize, cooldown: Duration) -> RetryPolicy {
        RetryPolicy {
            connect_retries: 0, // one dial per acquire: failure counts are exact
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
            acquire_timeout: Some(Duration::from_secs(5)),
            breaker_threshold: threshold,
            breaker_cooldown: cooldown,
        }
    }

    #[test]
    fn dropped_connection_is_discarded_not_reused() {
        use tabviz_tql::parse_plan;
        let mut plan = FaultPlan::seeded(7);
        plan.connection_drop = 1.0; // every query drops the session
        let pool = ConnectionPool::new(faulty_source(plan), 4);
        {
            let mut c = pool.acquire().unwrap();
            let q = "(aggregate () ((count as n)) (scan t))";
            let rq = crate::source::RemoteQuery::new(q.into(), parse_plan(q).unwrap());
            let err = c.execute(&rq).unwrap_err();
            assert!(err.is_transient());
            assert!(!c.healthy());
        }
        // The poisoned session must not land back in the idle set.
        assert_eq!(pool.idle_count(), 0);
        assert_eq!(pool.stats().poisoned, 1);
        let _c2 = pool.acquire().unwrap();
        assert_eq!(pool.stats().opened, 2);
    }

    #[test]
    fn explicit_poison_discards_a_healthy_connection() {
        let pool = ConnectionPool::new(source(), 4);
        {
            let mut c = pool.acquire().unwrap();
            c.poison();
        }
        assert_eq!(pool.idle_count(), 0);
        assert_eq!(pool.stats().poisoned, 1);
    }

    #[test]
    fn connect_retries_exhaust_with_typed_error() {
        let mut plan = FaultPlan::seeded(3);
        plan.connect_failure = 1.0; // connects never succeed
        let pool = ConnectionPool::new(faulty_source(plan), 4).with_policy(fast_retry_policy(2));
        let err = pool.acquire().err().expect("acquire should fail");
        assert!(err.is_transient(), "unexpected error: {err}");
        let st = pool.stats();
        assert_eq!(st.connect_retries, 2);
        // The failed slot was released: a later acquire still gets to try.
        assert_eq!(st.opened, 0);
    }

    #[test]
    fn connect_retries_recover_from_transient_failures() {
        let mut plan = FaultPlan::seeded(11);
        plan.connect_failure = 0.7; // deterministic per-ordinal outcomes
        let pool = ConnectionPool::new(faulty_source(plan), 4).with_policy(fast_retry_policy(20));
        let _c = pool.acquire().unwrap();
        let st = pool.stats();
        assert!(st.connect_retries >= 1, "expected at least one retry");
        assert_eq!(st.opened, 1);
    }

    #[test]
    fn acquire_times_out_when_pool_is_exhausted() {
        let pool = ConnectionPool::new(source(), 1);
        let _held = pool.acquire().unwrap();
        let err = pool
            .acquire_within(None, Some(Duration::from_millis(30)))
            .err()
            .expect("acquire should time out");
        assert!(matches!(err, TvError::Timeout(_)), "got: {err}");
        assert_eq!(pool.stats().acquire_timeouts, 1);
    }

    #[test]
    fn age_wise_eviction() {
        let pool = ConnectionPool::new(source(), 4);
        {
            let _c = pool.acquire().unwrap();
        }
        assert_eq!(pool.idle_count(), 1);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.evict_idle(Duration::from_millis(5)), 1);
        assert_eq!(pool.idle_count(), 0);
        assert_eq!(pool.stats().evicted, 1);
        // clear() also counts as eviction
        {
            let _c = pool.acquire().unwrap();
        }
        pool.clear();
        assert_eq!(pool.idle_count(), 0);
    }

    fn down_plan() -> FaultPlan {
        let mut plan = FaultPlan::seeded(5);
        plan.connect_failure = 1.0;
        plan
    }

    #[test]
    fn breaker_trips_after_consecutive_connect_failures() {
        let pool = ConnectionPool::new(faulty_source(down_plan()), 4)
            .with_policy(breaker_policy(3, Duration::from_secs(60)));
        for _ in 0..3 {
            assert!(pool.acquire().is_err());
        }
        let st = pool.stats();
        assert_eq!(st.breaker_trips, 1);
        assert_eq!(st.breaker_state, BreakerState::Open);
        assert_eq!(st.breaker_fast_fails, 0, "all three dialed the backend");
        // While open, acquires fail fast without dialing.
        let err = pool.acquire().err().expect("fast fail");
        assert!(err.is_transient(), "got: {err}");
        assert!(err.to_string().contains("circuit breaker open"), "{err}");
        let st = pool.stats();
        assert_eq!(st.breaker_fast_fails, 1);
        assert_eq!(st.breaker_trips, 1, "fast fails do not re-trip");
    }

    #[test]
    fn breaker_below_threshold_stays_closed() {
        let pool = ConnectionPool::new(faulty_source(down_plan()), 4)
            .with_policy(breaker_policy(3, Duration::from_secs(60)));
        assert!(pool.acquire().is_err());
        assert!(pool.acquire().is_err());
        let st = pool.stats();
        assert_eq!(st.breaker_trips, 0);
        assert_eq!(st.breaker_state, BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_success_closes_breaker() {
        let sim = faulty_sim(down_plan());
        let src: Arc<dyn DataSource> = Arc::clone(&sim) as _;
        let pool =
            ConnectionPool::new(src, 4).with_policy(breaker_policy(2, Duration::from_millis(10)));
        assert!(pool.acquire().is_err());
        assert!(pool.acquire().is_err());
        assert_eq!(pool.breaker_state(), BreakerState::Open);
        // Backend recovers; after the cooldown the next acquire is the probe.
        sim.set_fault_plan(None);
        std::thread::sleep(Duration::from_millis(15));
        let c = pool.acquire().expect("half-open probe should succeed");
        drop(c);
        let st = pool.stats();
        assert_eq!(st.breaker_state, BreakerState::Closed);
        assert_eq!(st.breaker_trips, 1);
        assert_eq!(st.opened, 1);
        // Closed again: later failures start counting from zero.
        sim.set_fault_plan(Some(down_plan()));
        let _held = pool.acquire().expect("idle connection still served");
    }

    #[test]
    fn half_open_probe_failure_reopens_breaker() {
        let pool = ConnectionPool::new(faulty_source(down_plan()), 4)
            .with_policy(breaker_policy(2, Duration::from_millis(10)));
        assert!(pool.acquire().is_err());
        assert!(pool.acquire().is_err());
        assert_eq!(pool.breaker_state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        // The probe dials, fails, and re-opens for a fresh cooldown.
        assert!(pool.acquire().is_err());
        let st = pool.stats();
        assert_eq!(st.breaker_state, BreakerState::Open);
        assert_eq!(st.breaker_trips, 2, "re-open counts as a trip");
        // Immediately after the failed probe we are inside the new cooldown.
        assert!(pool.acquire().is_err());
        assert_eq!(pool.stats().breaker_fast_fails, 1);
    }

    #[test]
    fn open_breaker_still_serves_idle_connections() {
        let sim = faulty_sim(FaultPlan::none());
        let src: Arc<dyn DataSource> = Arc::clone(&sim) as _;
        let pool =
            ConnectionPool::new(src, 4).with_policy(breaker_policy(1, Duration::from_secs(60)));
        let healthy = pool.acquire().unwrap();
        // Backend dial path goes down; the next dial trips the breaker.
        sim.set_fault_plan(Some(down_plan()));
        assert!(pool.acquire().is_err());
        assert_eq!(pool.breaker_state(), BreakerState::Open);
        // A returned healthy connection is still reusable while open.
        drop(healthy);
        let c = pool.acquire().expect("idle reuse bypasses the breaker");
        drop(c);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn breaker_exports_gauge_and_counters() {
        let registry = Registry::new();
        let pool = ConnectionPool::new(faulty_source(down_plan()), 4)
            .with_policy(breaker_policy(2, Duration::from_secs(60)));
        pool.bind_obs(&registry);
        assert!(pool.acquire().is_err());
        assert!(pool.acquire().is_err());
        assert!(pool.acquire().is_err()); // fast fail
        assert_eq!(registry.gauge("tv_pool_breaker_state").get(), 2);
        assert_eq!(registry.counter("tv_pool_breaker_trips_total").get(), 1);
        assert_eq!(
            registry.counter("tv_pool_breaker_fast_fails_total").get(),
            1
        );
    }
}
