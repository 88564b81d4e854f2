//! Tableau Query Language (TQL).
//!
//! Sect. 4.1.2 of the paper: "The TDE uses a logical tree style language
//! called Tableau Query Language (TQL). It supports logical operators present
//! in most databases, such as TableScan, Select, Project, Join, Aggregate,
//! Order, and TopN. It has a classic query compiler that accepts a TQL query
//! as text and translates it into some logical operator tree structure."
//!
//! This crate defines:
//! * [`expr`] — scalar expressions with vectorized evaluation over chunks,
//!   SQL three-valued logic, scalar functions, and date part extraction;
//! * [`agg`] — aggregate function descriptors (SUM/COUNT/COUNTD/MIN/MAX/AVG)
//!   and the one algebra of their mergeable parts (used by the parallel
//!   local/global aggregation of Sect. 4.2.3, the intelligent cache's
//!   roll-up of Sect. 3.2, level-of-detail covers and widening);
//! * [`plan`] — the logical operator tree with schema derivation;
//! * [`parser`] — the textual TQL front end (an s-expression grammar,
//!   matching the "logical tree style" description);
//! * [`catalog`] — the trait through which plans see table metadata.

pub mod agg;
pub mod catalog;
pub mod datefn;
pub mod expr;
pub mod parser;
pub mod plan;
pub mod writer;

pub use agg::{AggCall, AggFunc};
pub use catalog::{Catalog, TableMeta};
pub use expr::{BinOp, Expr, ScalarFunc, UnaryOp};
pub use parser::parse_plan;
pub use plan::{JoinType, LogicalPlan, SortKey};
pub use writer::{write_expr, write_plan};
