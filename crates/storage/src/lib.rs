//! Storage layer of the Tableau Data Engine reproduction.
//!
//! Sect. 4.1.1 of the paper: a three-layer namespace (schema / table /
//! column), dictionary compression for strings ("heap compression") and
//! fixed-length values ("array compression"), lightweight *encodings*
//! (run-length, delta) for fixed-width data, column-level collated strings,
//! and the ability to "compact a database into a single file".
//!
//! * [`mod@column`] — encoded columns ([`column::StoredColumn`]) with
//!   dictionary compression and RLE/delta encodings, range decoding (the
//!   basis of Sect. 4.3 range skipping), and RLE run enumeration (the
//!   IndexTable source).
//! * [`table`] — read-only tables with a declared major sort order and
//!   fraction-wise parallel scans (the `FractionTable` substrate).
//! * [`database`] — the schema/table/column namespace plus temp tables.
//! * [`pack`] — single-file serialization of a whole database.
//! * [`stats`] — per-column statistics used by the optimizer.

pub mod column;
pub mod database;
pub mod pack;
pub mod stats;
pub mod table;

pub use column::{ColumnData, PhysVec, RleRun, StoredColumn};
pub use database::Database;
pub use stats::{BlockStats, ColumnStats, BLOCK_ROWS};
pub use table::Table;
