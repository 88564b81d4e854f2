//! Fixtures shared by the criterion stand-in benches.

use std::sync::Arc;
use tabviz::prelude::*;
use tabviz::workloads::{carriers_dim, generate_flights, FaaConfig};

/// Build the FAA database (flights sorted by carrier+date, plus the carriers
/// dimension).
pub fn faa_db(rows: usize) -> Arc<Database> {
    let flights = generate_flights(&FaaConfig::with_rows(rows)).expect("generate");
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier", "date"]).expect("flights"))
        .expect("put flights");
    db.put(Table::from_chunk("carriers", &carriers_dim().expect("dim"), &["code"]).expect("dim"))
        .expect("put carriers");
    db
}

/// A query processor over one simulated warehouse.
pub fn processor_over(
    db: Arc<Database>,
    config: SimConfig,
    pool: usize,
) -> (QueryProcessor, SimDb) {
    let sim = SimDb::new("warehouse", db, config);
    let qp = QueryProcessor::default();
    qp.registry.register(Arc::new(sim.clone()), pool);
    (qp, sim)
}
