//! The replicated peer cache tier.
//!
//! Each cluster node hosts one [`ExternalStore`] as its *shard* of the
//! shared result cache. The tier owns placement: a result is written to the
//! `R` ring owners of its key and read back in owner order, so any owner
//! that is still up can serve it. Node join/leave triggers an administrative
//! rebalance that migrates only the keys whose owner set changed — the
//! Redis-Cluster slot-migration shape, not a flush.

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;
use tabviz_cache::ExternalStore;
use tabviz_obs::{Counter, Registry};

use crate::ring::HashRing;

/// Where a peer-tier read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHit {
    /// The key's primary owner answered.
    Primary,
    /// A replica answered (owner-order index ≥ 1); the primary was down,
    /// faulted, or had dropped the put.
    Replica(usize),
}

/// Snapshot of the tier-level counters (per-shard stats live on each
/// [`ExternalStore`]).
#[derive(Debug, Clone, Default)]
pub struct PeerTierStats {
    pub gets: u64,
    pub primary_hits: u64,
    pub replica_hits: u64,
    pub misses: u64,
    pub puts: u64,
    /// Individual replicated writes issued (≤ `puts * R`).
    pub put_fanout: u64,
}

/// Outcome of a key-migration pass after ring membership changed.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Distinct keys present in the tier before the pass.
    pub keys_total: usize,
    /// Keys that gained or lost at least one owner shard.
    pub keys_moved: usize,
    /// Keys whose *primary* owner changed — the consistent-hashing bound
    /// (≈ K/N on a single join/leave) is stated over these.
    pub primary_moved: usize,
}

/// The live counters, one cell each; [`PeerTier::bind_obs`] exports these
/// same cells, so [`PeerTier::stats`] and the registry read one atomic.
#[derive(Default)]
struct Counters {
    gets: Counter,
    /// Reads any owner answered, the primary included.
    hits: Counter,
    replica_hits: Counter,
    misses: Counter,
    puts: Counter,
    put_fanout: Counter,
}

pub struct PeerTier {
    replication: usize,
    shards: HashMap<String, Arc<ExternalStore>>,
    counters: Counters,
}

impl PeerTier {
    pub fn new(replication: usize) -> Self {
        PeerTier {
            replication: replication.max(1),
            shards: HashMap::new(),
            counters: Counters::default(),
        }
    }

    /// Export the tier's counters under their `tv_cluster_peer_*` names.
    pub fn bind_obs(&self, registry: &Registry) {
        let c = &self.counters;
        for (name, cell) in [
            ("tv_cluster_peer_gets_total", &c.gets),
            ("tv_cluster_peer_hits_total", &c.hits),
            ("tv_cluster_peer_replica_hits_total", &c.replica_hits),
            ("tv_cluster_peer_misses_total", &c.misses),
            ("tv_cluster_peer_puts_total", &c.puts),
            ("tv_cluster_peer_put_fanout_total", &c.put_fanout),
        ] {
            registry.register_counter(name, cell);
        }
    }

    pub fn replication(&self) -> usize {
        self.replication
    }

    pub fn add_shard(&mut self, name: &str, store: Arc<ExternalStore>) {
        self.shards.insert(name.to_string(), store);
    }

    pub fn remove_shard(&mut self, name: &str) -> Option<Arc<ExternalStore>> {
        self.shards.remove(name)
    }

    pub fn shard(&self, name: &str) -> Option<&Arc<ExternalStore>> {
        self.shards.get(name)
    }

    /// Replicated write: the value goes to every ring owner of the key.
    /// Downed/faulted owners drop their copy silently (their shard counts a
    /// dropped put) — exactly why reads probe the whole owner set.
    pub fn put(&self, ring: &HashRing, key: &str, value: Bytes) {
        self.put_tagged(ring, key, value, &[]);
    }

    /// [`PeerTier::put`] carrying dependency tags; every owner shard
    /// registers them so a later [`PeerTier::purge_tag`] finds the copies.
    pub fn put_tagged(&self, ring: &HashRing, key: &str, value: Bytes, tags: &[String]) {
        let owners = ring.replicas(key, self.replication);
        self.counters.puts.inc();
        self.counters.put_fanout.add(owners.len() as u64);
        for owner in owners {
            if let Some(shard) = self.shards.get(owner) {
                shard.put_tagged(key.to_string(), value.clone(), tags);
            }
        }
    }

    /// Administrative tier-wide purge of every entry carrying `tag`.
    /// Returns entries removed summed over shards (a key replicated to `R`
    /// owners counts `R` times).
    pub fn purge_tag(&self, tag: &str) -> usize {
        self.shards.values().map(|s| s.purge_tag(tag)).sum()
    }

    /// Entries held across all shards (replicas count once per shard).
    pub fn entry_count(&self) -> usize {
        self.shards.values().map(|s| s.len()).sum()
    }

    /// Owner-order read: primary first, then replicas. The first shard that
    /// answers wins; the hit kind records whether failover happened.
    pub fn get(&self, ring: &HashRing, key: &str) -> Option<(Bytes, PeerHit)> {
        let owners = ring.replicas(key, self.replication);
        self.counters.gets.inc();
        for (i, owner) in owners.iter().enumerate() {
            let Some(shard) = self.shards.get(*owner) else {
                continue;
            };
            if let Some(bytes) = shard.get(key) {
                self.counters.hits.inc();
                let hit = if i == 0 {
                    PeerHit::Primary
                } else {
                    self.counters.replica_hits.inc();
                    PeerHit::Replica(i)
                };
                return Some((bytes, hit));
            }
        }
        self.counters.misses.inc();
        None
    }

    /// Migrate keys to their owners under `ring` after a membership change.
    ///
    /// Administrative path: walks every shard's key set directly
    /// (no RTT, no fault rolls, no hit/miss accounting), copies each key to
    /// any owner that lacks it, and drops it from shards that no longer own
    /// it. `old_primary` is evaluated against `old_ring` to report how many
    /// primaries actually changed — the K/N property under test.
    pub fn rebalance(&self, old_ring: &HashRing, ring: &HashRing) -> RebalanceReport {
        // Collect the union of keys with one surviving source copy each
        // (value + dependency tags, so migration preserves purgeability).
        let mut values: HashMap<String, (Bytes, Vec<String>)> = HashMap::new();
        for shard in self.shards.values() {
            for key in shard.keys() {
                if let std::collections::hash_map::Entry::Vacant(e) = values.entry(key) {
                    if let Some(v) = shard.peek(e.key()) {
                        let tags = shard.peek_tags(e.key());
                        e.insert((v, tags));
                    }
                }
            }
        }

        let mut report = RebalanceReport {
            keys_total: values.len(),
            ..Default::default()
        };

        // Deterministic iteration order for the report (map order is not).
        let mut keys: Vec<&String> = values.keys().collect();
        keys.sort();
        for key in keys {
            let owners = ring.replicas(key, self.replication);
            let mut changed = false;
            for (name, shard) in &self.shards {
                let owns = owners.contains(&name.as_str());
                let has = shard.peek(key).is_some();
                if owns && !has {
                    let (value, tags) = &values[key];
                    shard.insert_raw_tagged(key.clone(), value.clone(), tags.clone());
                    changed = true;
                } else if !owns && has {
                    shard.remove(key);
                    changed = true;
                }
            }
            if changed {
                report.keys_moved += 1;
            }
            if old_ring.primary(key) != ring.primary(key) {
                report.primary_moved += 1;
            }
        }
        report
    }

    pub fn stats(&self) -> PeerTierStats {
        let c = &self.counters;
        let replica_hits = c.replica_hits.get();
        PeerTierStats {
            gets: c.gets.get(),
            primary_hits: c.hits.get().saturating_sub(replica_hits),
            replica_hits,
            misses: c.misses.get(),
            puts: c.puts.get(),
            put_fanout: c.put_fanout.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tier(n: usize, r: usize) -> (PeerTier, HashRing) {
        let mut ring = HashRing::new(42, 64);
        let mut tier = PeerTier::new(r);
        for i in 0..n {
            let name = format!("node-{i}");
            ring.add_node(&name);
            tier.add_shard(&name, Arc::new(ExternalStore::new(Duration::ZERO)));
        }
        (tier, ring)
    }

    #[test]
    fn put_replicates_to_r_owners() {
        let (tier, ring) = tier(5, 3);
        tier.put(&ring, "k1", Bytes::from_static(b"v"));
        let holders = ring
            .members()
            .iter()
            .filter(|m| tier.shard(m).unwrap().peek("k1").is_some())
            .count();
        assert_eq!(holders, 3);
        assert_eq!(tier.stats().put_fanout, 3);
    }

    #[test]
    fn downed_primary_fails_over_to_replica() {
        let (tier, ring) = tier(5, 3);
        tier.put(&ring, "k1", Bytes::from_static(b"v"));
        let primary = ring.primary("k1").unwrap().to_string();
        tier.shard(&primary).unwrap().set_down(true);
        let (bytes, hit) = tier.get(&ring, "k1").expect("replica should answer");
        assert_eq!(&bytes[..], b"v");
        assert!(matches!(hit, PeerHit::Replica(_)));
        // Revive: primary answers again, with its data intact.
        tier.shard(&primary).unwrap().set_down(false);
        let (_, hit) = tier.get(&ring, "k1").unwrap();
        assert_eq!(hit, PeerHit::Primary);
    }

    #[test]
    fn rebalance_moves_bounded_fraction() {
        let (mut tier, ring) = tier(4, 2);
        for k in 0..400 {
            tier.put(&ring, &format!("k{k}"), Bytes::from_static(b"v"));
        }
        let old_ring = ring.clone();
        let mut new_ring = ring.clone();
        new_ring.add_node("node-4");
        tier.add_shard("node-4", Arc::new(ExternalStore::new(Duration::ZERO)));
        let report = tier.rebalance(&old_ring, &new_ring);
        assert_eq!(report.keys_total, 400);
        // Expected primary churn K/5 = 80; generous 2x + slack bound.
        assert!(
            report.primary_moved <= 170,
            "primary churn too high: {}",
            report.primary_moved
        );
        // Every key is now fully replicated under the new ring.
        for k in 0..400 {
            let key = format!("k{k}");
            for owner in new_ring.replicas(&key, 2) {
                assert!(tier.shard(owner).unwrap().peek(&key).is_some());
            }
            let holders = new_ring
                .members()
                .iter()
                .filter(|m| tier.shard(m).unwrap().peek(&key).is_some())
                .count();
            assert_eq!(holders, 2, "exactly R owners hold {key}");
        }
    }
}
