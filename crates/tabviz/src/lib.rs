//! # tabviz
//!
//! A from-scratch Rust reproduction of the systems described in
//! *"On Improving User Response Times in Tableau"* (Terlecki et al.,
//! SIGMOD 2015): the dashboard query processor with its two-level query
//! caches, query fusion and batch processing; the Tableau Data Engine
//! column store with parallel plans and RLE index scans; shadow extracts for
//! text files; connection pooling over capability-described backends; and
//! the Data Server proxy with shared calculations, row-level security and
//! temporary tables.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tabviz::prelude::*;
//!
//! // 1. Generate FAA-style flight data and load it into a TDE database.
//! let flights = tabviz::workloads::generate_flights(
//!     &tabviz::workloads::FaaConfig::with_rows(10_000),
//! ).unwrap();
//! let db = Arc::new(Database::new("faa"));
//! db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap()).unwrap();
//!
//! // 2. Query it through the engine with TQL.
//! let tde = Tde::new(Arc::clone(&db));
//! let top = tde.query(
//!     "(topn 3 ((flights desc))
//!        (aggregate ((carrier)) ((count as flights)) (scan flights)))",
//! ).unwrap();
//! assert_eq!(top.len(), 3);
//!
//! // 3. Or drive a cached, pooled query processor over it.
//! let qp = QueryProcessor::default();
//! qp.registry.register(Arc::new(SimDb::new("faa", db, SimConfig::default())), 4);
//! let spec = QuerySpec::new("faa", LogicalPlan::scan("flights"))
//!     .group("carrier")
//!     .agg(AggCall::new(AggFunc::Count, None, "n"));
//! let (result, outcome) = qp.execute(&spec).unwrap();
//! assert_eq!(result.len(), 12);
//! assert_eq!(outcome, ExecOutcome::Remote);
//! let (_, again) = qp.execute(&spec).unwrap();
//! assert_eq!(again, ExecOutcome::IntelligentHit);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! experiment index mapping each paper claim to a bench target.

pub use tabviz_backend as backend;
pub use tabviz_cache as cache;
pub use tabviz_cluster as cluster;
pub use tabviz_common as common;
pub use tabviz_core as core;
pub use tabviz_dataserver as dataserver;
pub use tabviz_obs as obs;
pub use tabviz_sched as sched;
pub use tabviz_storage as storage;
pub use tabviz_tde as tde;
pub use tabviz_textscan as textscan;
pub use tabviz_tql as tql;
pub use tabviz_workloads as workloads;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use tabviz_backend::{
        Capabilities, ConnectionPool, DataSource, Dialect, FaultPlan, LatencyModel, RemoteQuery,
        SimConfig, SimDb, TdeDataSource,
    };
    pub use tabviz_cache::{CacheOutcome, QueryCaches, QuerySpec};
    pub use tabviz_cluster::{Cluster, ClusterConfig, ClusterSession, HashRing, RouteKind};
    pub use tabviz_common::{
        Chunk, Collation, DataType, Field, Result, Schema, SchemaRef, TvError, Value,
    };
    pub use tabviz_core::{
        execute_batch, revalidate_pass, BatchOptions, Dashboard, DashboardState, ExecOutcome,
        FilterAction, MaintenanceLane, QueryProcessor, RevalidateOptions, Zone,
    };
    pub use tabviz_dataserver::{ClientQuery, DataServer, PublishedSource};
    pub use tabviz_obs::{ProfileOutcome, Registry};
    pub use tabviz_sched::{AdmitRequest, Priority, SchedConfig, Scheduler};
    pub use tabviz_storage::{Database, Table};
    pub use tabviz_tde::{ExecOptions, Tde};
    pub use tabviz_textscan::{CsvOptions, ShadowExtracts};
    pub use tabviz_tql::{
        expr::{bin, col, lit},
        parse_plan, AggCall, AggFunc, BinOp, Expr, JoinType, LogicalPlan, SortKey,
    };
}
