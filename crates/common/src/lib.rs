//! Shared foundation types for the tabviz engine.
//!
//! This crate defines the value model ([`Value`], [`DataType`]), schemas
//! ([`Schema`], [`Field`]), column-level string [`Collation`] (Sect. 4.1.1 of
//! the paper: "the TDE supports column level collated strings"), and the
//! columnar batch type [`Chunk`] that flows between execution operators.
//!
//! Everything higher in the stack — the storage layer, the TQL compiler, the
//! TDE execution engine, caches and the Data Server — is written against these
//! types.

pub mod chunk;
pub mod collation;
pub mod error;
pub mod hash;
pub mod schema;
pub mod selvec;
pub mod strvec;
pub mod value;

pub use chunk::{Chunk, ColumnVec, NullMask, Values};
pub use collation::Collation;
pub use error::{Result, TvError};
pub use schema::{Field, Schema, SchemaRef};
pub use selvec::SelVec;
pub use strvec::StrVec;
pub use value::{DataType, Value};
