//! Managed data sources.
//!
//! Each registered source carries its connection pool (Sect. 3.5) and the
//! capability profile the compiler consults (Sect. 3.1).

use crate::compile::CompileOptions;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tabviz_backend::{Capabilities, ConnectionPool, DataSource};
use tabviz_common::{Result, TvError};
use tabviz_tql::TableMeta;

/// A data source plus its pool.
pub struct ManagedSource {
    pub name: String,
    pub source: Arc<dyn DataSource>,
    pub pool: ConnectionPool,
    pub compile_options: CompileOptions,
    /// Table metadata already fetched from the source, by table name.
    table_meta: Mutex<HashMap<String, Arc<TableMeta>>>,
}

impl ManagedSource {
    pub fn capabilities(&self) -> &Capabilities {
        self.source.capabilities()
    }

    /// Metadata of one of the source's tables, fetched once and kept until
    /// [`ManagedSource::forget_table`]: batch planning reads row and distinct
    /// counts on every dashboard load, and a metadata call to a real
    /// warehouse is a round trip of its own.
    pub fn table_meta(&self, table: &str) -> Result<Arc<TableMeta>> {
        if let Some(meta) = self.table_meta.lock().get(table) {
            return Ok(Arc::clone(meta));
        }
        let meta = Arc::new(self.source.table_meta(table)?);
        self.table_meta
            .lock()
            .insert(table.to_string(), Arc::clone(&meta));
        Ok(meta)
    }

    /// Drop the kept metadata of a table whose data changed.
    pub fn forget_table(&self, table: &str) {
        self.table_meta.lock().remove(table);
    }
}

/// All sources known to a query processor.
#[derive(Default)]
pub struct SourceRegistry {
    sources: RwLock<HashMap<String, Arc<ManagedSource>>>,
    /// Metrics registry pools are bound to at registration (set once by the
    /// owning processor; sources registered before that stay unbound).
    obs: std::sync::OnceLock<tabviz_obs::Registry>,
}

impl SourceRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach the metrics registry every subsequently registered source's
    /// pool reports into. First call wins.
    pub fn set_obs(&self, registry: tabviz_obs::Registry) {
        let _ = self.obs.set(registry);
    }

    /// Register a source with a pool of `pool_size` connections.
    pub fn register(&self, source: Arc<dyn DataSource>, pool_size: usize) -> Arc<ManagedSource> {
        let name = source.name().to_string();
        let pool = ConnectionPool::new(Arc::clone(&source), pool_size);
        if let Some(registry) = self.obs.get() {
            pool.bind_obs(registry);
        }
        let managed = Arc::new(ManagedSource {
            name: name.clone(),
            pool,
            source,
            compile_options: CompileOptions::default(),
            table_meta: Mutex::new(HashMap::new()),
        });
        self.sources.write().insert(name, Arc::clone(&managed));
        managed
    }

    pub fn get(&self, name: &str) -> Result<Arc<ManagedSource>> {
        self.sources
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| TvError::Bind(format!("unknown data source '{name}'")))
    }

    pub fn names(&self) -> Vec<String> {
        self.sources.read().keys().cloned().collect()
    }

    /// Sum of pool sizes over all registered sources — the natural global
    /// concurrency limit for an admission scheduler (admitting more queries
    /// than pooled connections just moves the queue into the pools).
    pub fn total_pool_capacity(&self) -> usize {
        self.sources
            .read()
            .values()
            .map(|m| m.pool.max_size())
            .sum()
    }

    /// Per-source pool sizes — the natural per-source admission limits
    /// (one running ticket per pooled connection *per backend*, so a
    /// saturated backend queues its own work instead of the whole server).
    pub fn pool_capacities(&self) -> Vec<(String, usize)> {
        let mut caps: Vec<(String, usize)> = self
            .sources
            .read()
            .values()
            .map(|m| (m.name.clone(), m.pool.max_size()))
            .collect();
        caps.sort();
        caps
    }

    /// Close a source: drop its pooled connections (which releases remote
    /// session state). The caller is responsible for purging caches.
    pub fn close(&self, name: &str) -> Result<()> {
        let managed = self.get(name)?;
        managed.pool.clear();
        self.sources.write().remove(name);
        Ok(())
    }

    /// Run age-wise idle eviction across every pool.
    pub fn evict_idle(&self, max_age: Duration) -> usize {
        self.sources
            .read()
            .values()
            .map(|m| m.pool.evict_idle(max_age))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_backend::{SimConfig, SimDb};
    use tabviz_storage::Database;

    fn sim() -> Arc<dyn DataSource> {
        Arc::new(SimDb::new(
            "warehouse",
            Arc::new(Database::new("d")),
            SimConfig::default(),
        ))
    }

    #[test]
    fn register_and_lookup() {
        let reg = SourceRegistry::new();
        reg.register(sim(), 4);
        assert!(reg.get("warehouse").is_ok());
        assert!(reg.get("nope").is_err());
        assert_eq!(reg.names(), vec!["warehouse"]);
    }

    #[test]
    fn close_removes() {
        let reg = SourceRegistry::new();
        reg.register(sim(), 4);
        reg.close("warehouse").unwrap();
        assert!(reg.get("warehouse").is_err());
    }
}
