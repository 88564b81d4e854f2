//! Catalog abstraction: how logical plans see table metadata.
//!
//! The query compiler "incorporates information about cardinalities, domains,
//! and overall capabilities of the data source" (Sect. 3.1); the TDE's
//! parallel planner "relies on metadata, such as data volume stored in a
//! table" (Sect. 4.2.2). This trait is that metadata surface, implemented by
//! the TDE over its `tabviz_storage::Database` and by backends over their
//! simulated schemas.

use std::collections::{BTreeMap, BTreeSet};
use tabviz_common::{Result, SchemaRef};

/// Metadata for one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub schema: SchemaRef,
    pub row_count: usize,
    /// Names of the columns the table is sorted by, in order (possibly empty).
    pub sort_key: Vec<String>,
    /// Columns known to hold unique (candidate-key) values — the property
    /// that licenses join culling (Sect. 4.1.2).
    pub unique_columns: BTreeSet<String>,
    /// Distinct non-null values per column, where the catalog knows them —
    /// the "cardinalities, domains" input of Sect. 3.1. Level-of-detail
    /// fusion prices a cover query's result size with these.
    pub distinct_counts: BTreeMap<String, usize>,
}

impl TableMeta {
    pub fn new(schema: SchemaRef, row_count: usize) -> Self {
        TableMeta {
            schema,
            row_count,
            sort_key: vec![],
            unique_columns: BTreeSet::new(),
            distinct_counts: BTreeMap::new(),
        }
    }
}

/// Resolve table names to metadata.
pub trait Catalog {
    fn table_meta(&self, name: &str) -> Result<TableMeta>;
}

/// A trivial in-memory catalog for tests and planning without a database.
#[derive(Debug, Default)]
pub struct MemoryCatalog {
    tables: std::collections::BTreeMap<String, TableMeta>,
}

impl MemoryCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, name: impl Into<String>, meta: TableMeta) {
        self.tables.insert(name.into(), meta);
    }
}

impl Catalog for MemoryCatalog {
    fn table_meta(&self, name: &str) -> Result<TableMeta> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| tabviz_common::TvError::Bind(format!("unknown table '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema};

    #[test]
    fn memory_catalog_lookup() {
        let mut cat = MemoryCatalog::new();
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        cat.add("t", TableMeta::new(schema, 10));
        assert_eq!(cat.table_meta("t").unwrap().row_count, 10);
        assert!(cat.table_meta("missing").is_err());
    }
}
