//! The L2 tier abstraction of the multi-tier cache hierarchy.
//!
//! L1 is the node-local entry store, found by spec (intelligent) or by
//! compiled text (literal) ([`crate::caches::QueryCaches`]); L2 is a shared, byte-valued store
//! reachable from every node — one [`ExternalStore`] standalone, or the
//! cluster's ring-routed replicated peer tier. The processor consults L2
//! only after both L1 probes miss, promotes L2 hits into L1, and publishes
//! fresh backend results to both tiers with dependency tags so one refresh
//! event can purge dependents everywhere (see [`crate::tags`]).
//!
//! The trait lives here (not in the cluster crate) so `tabviz-core` can
//! depend on it without a dependency cycle: the cluster implements it over
//! its ring + peer tier and injects it into each node's caches at attach
//! time.

use bytes::Bytes;

use crate::distributed::ExternalStore;

/// A shared second cache tier keyed by canonical query text. Values are
/// encoded chunks ([`crate::encode_chunk`]); implementations pay their own
/// transport latency and may drop operations under faults — the caller
/// treats every miss identically.
pub trait L2Cache: Send + Sync {
    /// Fetch the encoded result for `key`, if any replica holds it.
    fn get(&self, key: &str) -> Option<Bytes>;

    /// Publish an encoded result under `key` with its dependency tags.
    fn put(&self, key: &str, value: Bytes, tags: &[String]);

    /// Purge every entry carrying `tag` across the tier; returns entries
    /// removed (summed over shards/replicas).
    fn purge_tag(&self, tag: &str) -> usize;

    /// Entries currently held (summed over shards; replicas count once
    /// per shard — used for purge-fraction accounting, not capacity).
    fn entry_count(&self) -> usize;
}

/// The standalone L2: one shared [`ExternalStore`], as a single-node
/// deployment (or a test) would run Redis next to the server.
impl L2Cache for ExternalStore {
    fn get(&self, key: &str) -> Option<Bytes> {
        ExternalStore::get(self, key)
    }

    fn put(&self, key: &str, value: Bytes, tags: &[String]) {
        self.put_tagged(key.to_string(), value, tags);
    }

    fn purge_tag(&self, tag: &str) -> usize {
        ExternalStore::purge_tag(self, tag)
    }

    fn entry_count(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn single_store_round_trip_and_tag_purge() {
        let l2: Arc<dyn L2Cache> = Arc::new(ExternalStore::new(Duration::ZERO));
        let tags = vec!["src:s".to_string(), "tbl:s\u{1}a".to_string()];
        l2.put("k1", Bytes::from_static(b"v1"), &tags);
        l2.put("k2", Bytes::from_static(b"v2"), &["src:s".to_string()]);
        assert_eq!(l2.get("k1").unwrap(), Bytes::from_static(b"v1"));
        assert_eq!(l2.entry_count(), 2);
        // Table-scoped purge removes only the tagged dependent.
        assert_eq!(l2.purge_tag("tbl:s\u{1}a"), 1);
        assert!(l2.get("k1").is_none());
        assert!(l2.get("k2").is_some());
        // Source-scoped purge sweeps the rest.
        assert_eq!(l2.purge_tag("src:s"), 1);
        assert_eq!(l2.entry_count(), 0);
    }
}
