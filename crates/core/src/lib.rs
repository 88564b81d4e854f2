//! The query processor for dashboards — the paper's primary contribution
//! (Sect. 3).
//!
//! * [`compile`] — single-query processing (Sect. 3.1): simplification,
//!   capability-aware compilation, externalization of large IN-lists into
//!   remote temporary tables, dialect text generation, and local
//!   post-processing for operations the backend cannot run;
//! * [`registry`] — managed data sources with connection pools;
//! * [`processor`] — the cached execution pipeline: intelligent cache →
//!   literal cache → remote execution → populate L1 once, under both keys
//!   (Sect. 3.2);
//! * [`fusion`] — query fusion (Sect. 3.4): queries over the same relation
//!   differing only in their projection lists collapse into one;
//! * [`batch`] — query batch processing (Sect. 3.3): the cache-hit
//!   opportunity graph, remote/local partitioning, and concurrent
//!   submission;
//! * [`dashboard`] — zones, interactive filter actions, and the multi-pass
//!   render loop of Fig. 2;
//! * [`revalidate`] — the background maintenance lane: stale cache entries
//!   past their staleness budget are re-fetched at `Background` priority
//!   once their source recovers (Sect. 3.5 workload management).

pub mod batch;
pub mod compile;
pub mod dashboard;
pub mod fusion;
pub mod processor;
pub mod registry;
pub mod revalidate;

pub use batch::{execute_batch, BatchOptions, BatchResult};
pub use compile::{compile_spec, CompileOptions, CompiledQuery};
pub use dashboard::{Dashboard, DashboardState, FilterAction, RenderReport, Zone};
pub use processor::{ExecOutcome, QueryProcessor};
pub use registry::{ManagedSource, SourceRegistry};
pub use revalidate::{revalidate_pass, MaintenanceLane, RevalidateOptions, RevalidateReport};

pub use tabviz_cache::QuerySpec;
pub use tabviz_sched::{AdmitRequest, Priority, SchedConfig, Scheduler, Ticket};
