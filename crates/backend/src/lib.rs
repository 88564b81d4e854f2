//! Data-source abstraction and simulated remote databases.
//!
//! "Tableau communicates with remote data sources by means of connections"
//! (Sect. 3.1); capabilities, stability and efficiency "of the many supported
//! back-ends often vary dramatically" (Sect. 3.5). The paper's measurements
//! run against 40+ proprietary databases; this crate substitutes a
//! configurable simulation (see DESIGN.md): each simulated server has a
//! latency model (connect / dispatch / per-row costs), one thread per query
//! over a fixed core budget, optional query throttling and connection
//! limits, per-session temporary tables, and faithful result semantics
//! (queries actually execute, against an embedded TDE).
//!
//! * [`capability`] — what a backend can do (drives query compilation);
//! * [`source`] — the `DataSource` / `Connection` traits and `RemoteQuery`;
//! * [`sim`] — the simulated remote database;
//! * [`local`] — the TDE-as-a-backend adapter (the Extract path);
//! * [`pool`] — connection pooling with age-wise eviction (Sect. 3.5);
//! * [`sql`] — dialect-aware text generation (Sect. 3.1's "textual queries
//!   in appropriate dialects").

pub mod capability;
pub mod local;
pub mod pool;
pub mod sim;
pub mod source;
pub mod sql;

pub use capability::{Capabilities, Dialect};
pub use local::TdeDataSource;
pub use pool::{BreakerState, ConnectionPool, PoolStats, RetryPolicy};
pub use sim::{
    fault_roll, FaultPlan, LatencyModel, SimConfig, SimDb, SimStats, SITE_CACHE_GET, SITE_CACHE_PUT,
};
pub use source::{Connection, DataSource, RemoteQuery};
