//! Query caching (Sect. 3.2 of the paper).
//!
//! "Tableau incorporates two levels of query caching: intelligent and
//! literal. The intelligent cache maps the internal query structure to a key
//! that is associated with the query results. ... When looking for matches,
//! we attempt to prove that results of the stored query subsume the
//! requested data. ... The literal query cache ... is keyed on the query
//! text."
//!
//! * [`spec`] — the normalized internal query form ([`spec::QuerySpec`])
//!   that both caches and the query processor share;
//! * [`implication`] — the predicate-implication prover behind subsumption;
//! * [`intelligent`] — the view-matching cache with roll-up / filter /
//!   projection post-processing;
//! * [`literal`] — the text-keyed cache;
//! * [`caches`] — the two levels combined, with shared eviction policy;
//! * [`persist`] — Desktop-style cache persistence across sessions;
//! * [`distributed`] — the Server-style external (Redis/Cassandra-like)
//!   store and the chunk wire codec;
//! * [`tier`] — the L2 abstraction composing the node-local caches with a
//!   shared store into a true L1 → L2 hierarchy;
//! * [`tags`] — dependency tags (source + table) for precise invalidation
//!   across both tiers.

pub mod caches;
pub mod distributed;
pub mod implication;
pub mod intelligent;
pub mod literal;
pub mod persist;
pub mod spec;
pub mod tags;
pub mod tier;

pub use caches::{CacheOutcome, QueryCaches, TierStats};
pub use distributed::{decode_chunk, encode_chunk, ExternalStore};
pub use intelligent::{subsumes, IntelligentCache};
pub use literal::LiteralCache;
pub use spec::QuerySpec;
pub use tags::{source_tag, table_tag, tables_of, tags_for_spec};
pub use tier::{L2Cache, SingleStoreL2};

use tabviz_tql::expr::Expr;
use tabviz_tql::BinOp;

/// Split a conjunction into conjuncts (shared by spec decomposition and
/// matching).
pub(crate) fn split_and(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = split_and(left);
            out.extend(split_and(right));
            out
        }
        other => vec![other.clone()],
    }
}
