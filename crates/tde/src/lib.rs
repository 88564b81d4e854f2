//! The Tableau Data Engine (TDE) reproduction.
//!
//! Sect. 4 of the paper: "a read-only column store ... specially tuned for
//! interactive analysis of complicated analytical queries." This crate builds
//! everything above the storage layer:
//!
//! * [`catalog`] — the engine's [`tabviz_tql::Catalog`] over a
//!   [`tabviz_storage::Database`];
//! * [`compile`] — the classic compiler rewrites (DISTINCT → GROUP BY,
//!   constant folding, predicate simplification);
//! * [`optimize`] — the rule-based optimizer: filter/project push-down, join
//!   culling, redundant-order removal, property derivation (Sect. 4.1.2);
//! * [`physical`] — physical plan construction, including the RLE
//!   IndexTable range-skipping scan (Sect. 4.3);
//! * [`parallel`] — bottom-up parallel plan generation with Exchange /
//!   SharedTable / FractionTable, local/global aggregation and
//!   range-partitioned aggregation (Sect. 4.2);
//! * [`exec`] — the chunked Volcano execution operators (Sect. 4.1.3);
//! * [`engine`] — the [`engine::Tde`] façade: TQL text in, chunks out.

pub mod catalog;
pub mod compile;
pub mod cost;
pub mod engine;
pub mod exec;
pub mod optimize;
pub mod parallel;
pub mod physical;
pub mod props;

pub use catalog::TdeCatalog;
pub use engine::{ExecOptions, Tde};
pub use exec::agg::aggregate_chunk;
