//! The TDE as a data source.
//!
//! "In both cases Tableau treats the TDE like any other supported database"
//! (Sect. 4.1.4) — the Extract path goes through the same `DataSource`
//! boundary as remote servers, with no network costs and full parallel-plan
//! execution.

use crate::capability::{Capabilities, Dialect};
use crate::source::{Connection, DataSource, RemoteQuery};
use std::sync::Arc;
use tabviz_common::{Chunk, Result};
use tabviz_storage::{Database, Table};
use tabviz_tde::{ExecOptions, Tde, TdeCatalog};
use tabviz_tql::{Catalog, TableMeta};

/// A local TDE exposed through the backend interface.
pub struct TdeDataSource {
    name: String,
    db: Arc<Database>,
    capabilities: Capabilities,
}

impl TdeDataSource {
    pub fn new(name: impl Into<String>, db: Arc<Database>) -> Self {
        TdeDataSource {
            name: name.into(),
            db,
            capabilities: Capabilities {
                dialect: Dialect::Tql,
                ..Default::default()
            },
        }
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }
}

impl DataSource for TdeDataSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> &Capabilities {
        &self.capabilities
    }

    fn connect(&self) -> Result<Box<dyn Connection>> {
        let session_db = Arc::new(self.db.session_view(format!("{}-session", self.name)));
        Ok(Box::new(TdeConnection {
            tde: Tde::new(Arc::clone(&session_db)),
            session_db,
            options: ExecOptions::default(),
        }))
    }

    fn table_meta(&self, table: &str) -> Result<TableMeta> {
        TdeCatalog::new(Arc::clone(&self.db)).table_meta(table)
    }
}

struct TdeConnection {
    session_db: Arc<Database>,
    tde: Tde,
    options: ExecOptions,
}

impl Connection for TdeConnection {
    fn execute(&mut self, query: &RemoteQuery) -> Result<Chunk> {
        self.tde.execute_plan(&query.plan, &self.options)
    }

    fn create_temp_table(&mut self, name: &str, data: &Chunk) -> Result<()> {
        self.session_db
            .put_temp(Table::from_chunk(name, data, &[])?)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_tql::parse_plan;

    #[test]
    fn tde_behind_the_source_interface() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let db = Arc::new(Database::new("extract"));
        db.put(Table::from_chunk("t", &Chunk::from_rows(schema, &rows).unwrap(), &[]).unwrap())
            .unwrap();
        let src = TdeDataSource::new("extract", db);
        assert_eq!(src.capabilities().dialect, Dialect::Tql);
        assert_eq!(src.table_meta("t").unwrap().row_count, 10);
        let mut conn = src.connect().unwrap();
        let q = "(aggregate () ((sum x as s)) (scan t))";
        let out = conn
            .execute(&RemoteQuery::new(q.into(), parse_plan(q).unwrap()))
            .unwrap();
        assert_eq!(out.row(0)[0], Value::Int(45));
    }
}
