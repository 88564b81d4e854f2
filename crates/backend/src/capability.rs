//! Backend capability descriptions.
//!
//! "The query compiler incorporates information about ... overall
//! capabilities of the data source, such as support for subqueries,
//! temporary table creation and indexing" (Sect. 3.1). The query processor
//! consults these flags when compiling, when deciding whether to externalize
//! large IN-lists into temp tables, and when sizing connection pools.

/// SQL dialect family for text generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dialect {
    /// `LIMIT n`, standard quoting.
    #[default]
    AnsiSql,
    /// `SELECT TOP n`, bracket quoting — the SQL-Server-flavored variant.
    LegacySql,
    /// The TDE's own logical-tree text.
    Tql,
}

/// What a backend supports and how it must be addressed.
#[derive(Debug, Clone)]
pub struct Capabilities {
    pub dialect: Dialect,
    /// Whether `CREATE TEMPORARY TABLE` works (drives filter
    /// externalization, Sect. 3.1 / 5.3).
    pub supports_temp_tables: bool,
    pub supports_subqueries: bool,
    /// Whether TopN can be pushed (otherwise post-processed locally).
    pub supports_topn: bool,
    /// Hard cap on simultaneously open connections (0 = unlimited), the
    /// Sect. 3.5 "limitations on the overall number of connections".
    pub max_connections: usize,
    /// Server-side throttle on concurrently *executing* queries
    /// (0 = unlimited).
    pub max_concurrent_queries: usize,
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities {
            dialect: Dialect::AnsiSql,
            supports_temp_tables: true,
            supports_subqueries: true,
            supports_topn: true,
            max_connections: 0,
            max_concurrent_queries: 0,
        }
    }
}

impl Capabilities {
    /// A deliberately limited backend (for fallback-path tests): no temp
    /// tables, no TopN pushdown, few connections.
    pub fn limited() -> Self {
        Capabilities {
            dialect: Dialect::LegacySql,
            supports_temp_tables: false,
            supports_subqueries: false,
            supports_topn: false,
            max_connections: 2,
            max_concurrent_queries: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_permissive() {
        let c = Capabilities::default();
        assert!(c.supports_temp_tables);
        assert_eq!(c.max_connections, 0);
        assert_eq!(c.dialect, Dialect::AnsiSql);
    }

    #[test]
    fn limited_profile() {
        let c = Capabilities::limited();
        assert!(!c.supports_temp_tables);
        assert_eq!(c.max_connections, 2);
        assert_eq!(c.max_concurrent_queries, 1);
    }
}
