//! The TDE's catalog over its storage database.

use std::sync::Arc;
use tabviz_common::Result;
use tabviz_storage::Database;
use tabviz_tql::{Catalog, TableMeta};

/// Catalog implementation backed by a [`Database`].
///
/// Derives the metadata the optimizer feeds on: row counts (parallel-plan
/// degree decisions, Sect. 4.2.2), sort keys (range partitioning and
/// streaming aggregates, Sect. 4.2.3–4.2.4), unique columns (join culling,
/// Sect. 4.1.2) and per-column distinct counts (cover-query sizing in the
/// query processor) — all from statistics computed at load time.
pub struct TdeCatalog {
    db: Arc<Database>,
}

impl TdeCatalog {
    pub fn new(db: Arc<Database>) -> Self {
        TdeCatalog { db }
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }
}

impl Catalog for TdeCatalog {
    fn table_meta(&self, name: &str) -> Result<TableMeta> {
        let table = self.db.resolve(name)?;
        let schema = Arc::clone(table.schema());
        let sort_key = table
            .sort_key()
            .iter()
            .map(|&i| schema.field(i).name.clone())
            .collect();
        let unique_columns = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|&(i, _)| table.column(i).stats.is_unique() && table.row_count() > 0)
            .map(|(_, f)| f.name.clone())
            .collect();
        let distinct_counts = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), table.column(i).stats.distinct))
            .collect();
        Ok(TableMeta {
            schema,
            row_count: table.row_count(),
            sort_key,
            unique_columns,
            distinct_counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::{Chunk, DataType, Field, Schema, Value};
    use tabviz_storage::Table;

    #[test]
    fn derives_metadata_from_stats() {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("code", DataType::Str),
                Field::new("pop", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = [("AA", 1), ("DL", 1), ("WN", 2)]
            .iter()
            .map(|&(c, p)| vec![Value::Str(c.into()), Value::Int(p)])
            .collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let db = Arc::new(Database::new("d"));
        db.put(Table::from_chunk("carriers", &chunk, &["code"]).unwrap())
            .unwrap();
        let cat = TdeCatalog::new(db);
        let meta = cat.table_meta("carriers").unwrap();
        assert_eq!(meta.row_count, 3);
        assert_eq!(meta.sort_key, vec!["code"]);
        assert!(meta.unique_columns.contains("code"));
        assert!(!meta.unique_columns.contains("pop"));
        assert_eq!(meta.distinct_counts["code"], 3);
        assert_eq!(meta.distinct_counts["pop"], 2);
        assert!(cat.table_meta("missing").is_err());
    }
}
