//! The Server-side distributed cache layer.
//!
//! Sect. 3.2: "Tableau Server does not persist the caches but it utilizes a
//! distributed layer based on REDIS or Cassandra depending on the
//! configuration. This allows sharing data across nodes in the cluster and
//! keeping data warm regardless of which node handles particular requests.
//! For efficiency, recent entries are also stored in memory on the nodes
//! processing particular queries."
//!
//! [`ExternalStore`] simulates the external key-value service: a shared map
//! with per-operation network latency and serialization (values cross the
//! wire as encoded bytes, exactly like Redis values would). Structural
//! subsumption matching is only possible against the node-local in-memory
//! caches — the external layer is a dumb KV and serves exact (canonical-key)
//! matches, which is how the real deployment behaves. A node reaches it as
//! the L2 under its [`crate::QueryCaches`] (see [`crate::tier`]).

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tabviz_backend::{FaultPlan, SITE_CACHE_GET, SITE_CACHE_PUT};
use tabviz_common::{Chunk, Result};
use tabviz_storage::pack::{pack_table, unpack_table};
use tabviz_storage::Table;

/// Counters for the external KV service.
#[derive(Debug, Clone, Default)]
pub struct ExternalStats {
    pub gets: u64,
    pub get_hits: u64,
    pub puts: u64,
    pub bytes_stored: u64,
    /// Gets that came back empty because the targeted node was unreachable
    /// (the value may well exist on a healthy replica).
    pub outage_misses: u64,
    /// Puts silently dropped by an unreachable node.
    pub dropped_puts: u64,
    /// Operations that paid a slow-node penalty on top of the normal RTT.
    pub slowed_ops: u64,
}

/// The Redis/Cassandra-like shared store. In a cluster each node hosts one
/// of these as its *shard* of the replicated peer tier; the cluster layer
/// owns placement (which shard a key lives on) while the shard owns the KV
/// semantics, latency and fault behavior.
pub struct ExternalStore {
    map: Mutex<HashMap<String, Bytes>>,
    /// Dependency tags per key (see [`crate::tags`]): the shard-local half
    /// of tag-based invalidation. Only tagged keys participate in
    /// [`ExternalStore::purge_tag`].
    tags: Mutex<HashMap<String, Vec<String>>>,
    stats: Mutex<ExternalStats>,
    /// Round-trip latency per operation.
    pub op_latency: Duration,
    /// Deterministic fault schedule (node outage / slow node), same
    /// mechanism as the simulated backends.
    faults: Mutex<Option<FaultPlan>>,
    /// Hard outage switch: a downed shard drops every get/put (the
    /// cluster flips this when it marks the hosting node dead, on top of
    /// any probabilistic [`FaultPlan`] outage).
    down: std::sync::atomic::AtomicBool,
    /// Per-site operation ordinals for the fault rolls.
    get_ordinal: AtomicU64,
    put_ordinal: AtomicU64,
}

impl ExternalStore {
    pub fn new(op_latency: Duration) -> Self {
        ExternalStore {
            map: Mutex::new(HashMap::new()),
            tags: Mutex::new(HashMap::new()),
            stats: Mutex::new(ExternalStats::default()),
            op_latency,
            faults: Mutex::new(None),
            down: std::sync::atomic::AtomicBool::new(false),
            get_ordinal: AtomicU64::new(0),
            put_ordinal: AtomicU64::new(0),
        }
    }

    /// Hard-down this shard (node death) or bring it back. Unlike a
    /// [`FaultPlan`] outage this is total and instantaneous; the data
    /// survives — a revived node serves its old keys again, exactly like a
    /// Redis node rejoining with a warm RDB.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }

    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// Install (or clear) a fault plan at runtime. Like the backend sims,
    /// ordinals are not reset, so a replaced plan continues the
    /// deterministic schedule from the current position.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.faults.lock() = plan;
    }

    fn simulate_rtt(&self) {
        if !self.op_latency.is_zero() {
            std::thread::sleep(self.op_latency);
        }
    }

    /// Fault decision for one operation at `site`: pays the slow-node
    /// penalty inline, returns whether the node is unreachable.
    fn roll_faults(&self, site: u64, ordinal: &AtomicU64) -> bool {
        let plan = self.faults.lock().clone();
        let Some(plan) = plan else {
            return false;
        };
        let n = ordinal.fetch_add(1, Ordering::Relaxed);
        if plan.cache_slow_node > 0.0 && plan.roll(site.wrapping_add(100), n) < plan.cache_slow_node
        {
            self.stats.lock().slowed_ops += 1;
            if !plan.cache_slow_delay.is_zero() {
                std::thread::sleep(plan.cache_slow_delay);
            }
        }
        plan.cache_node_outage > 0.0 && plan.roll(site, n) < plan.cache_node_outage
    }

    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.simulate_rtt();
        if self.is_down() || self.roll_faults(SITE_CACHE_GET, &self.get_ordinal) {
            let mut st = self.stats.lock();
            st.gets += 1;
            st.outage_misses += 1;
            return None;
        }
        let out = self.map.lock().get(key).cloned();
        let mut st = self.stats.lock();
        st.gets += 1;
        if out.is_some() {
            st.get_hits += 1;
        }
        out
    }

    pub fn put(&self, key: String, value: Bytes) {
        self.simulate_rtt();
        if self.is_down() || self.roll_faults(SITE_CACHE_PUT, &self.put_ordinal) {
            let mut st = self.stats.lock();
            st.puts += 1;
            st.dropped_puts += 1;
            return;
        }
        let mut st = self.stats.lock();
        st.puts += 1;
        st.bytes_stored += value.len() as u64;
        drop(st);
        self.map.lock().insert(key, value);
    }

    /// [`ExternalStore::put`] plus dependency-tag registration. Tags are
    /// recorded only when the value actually landed (a dropped put must not
    /// leave a phantom tag entry).
    pub fn put_tagged(&self, key: String, value: Bytes, tags: &[String]) {
        self.simulate_rtt();
        if self.is_down() || self.roll_faults(SITE_CACHE_PUT, &self.put_ordinal) {
            let mut st = self.stats.lock();
            st.puts += 1;
            st.dropped_puts += 1;
            return;
        }
        let mut st = self.stats.lock();
        st.puts += 1;
        st.bytes_stored += value.len() as u64;
        drop(st);
        self.tags.lock().insert(key.clone(), tags.to_vec());
        self.map.lock().insert(key, value);
    }

    /// Remove every key carrying `tag`; returns how many were removed.
    /// Administrative (no RTT, no faults) — invalidation is a control-plane
    /// event fanned out by the owner, not a client operation.
    pub fn purge_tag(&self, tag: &str) -> usize {
        let mut tags = self.tags.lock();
        let victims: Vec<String> = tags
            .iter()
            .filter(|(_, ts)| ts.iter().any(|t| t == tag))
            .map(|(k, _)| k.clone())
            .collect();
        let mut map = self.map.lock();
        for key in &victims {
            tags.remove(key);
            map.remove(key);
        }
        victims.len()
    }

    /// Administrative read of a key's tags (rebalance carries them along
    /// with the value so invalidation survives migration).
    pub fn peek_tags(&self, key: &str) -> Vec<String> {
        self.tags.lock().get(key).cloned().unwrap_or_default()
    }

    /// Administrative raw write including tags (key migration).
    pub fn insert_raw_tagged(&self, key: String, value: Bytes, tags: Vec<String>) {
        if !tags.is_empty() {
            self.tags.lock().insert(key.clone(), tags);
        }
        self.map.lock().insert(key, value);
    }

    /// Every key this shard holds. Administrative (no RTT, no faults):
    /// the cluster's rebalancer walks shards directly, the way a Redis
    /// Cluster migration uses `SCAN` on the node rather than client gets.
    pub fn keys(&self) -> Vec<String> {
        self.map.lock().keys().cloned().collect()
    }

    /// Administrative raw read for key migration — bypasses RTT, fault
    /// rolls and the hit/miss counters.
    pub fn peek(&self, key: &str) -> Option<Bytes> {
        self.map.lock().get(key).cloned()
    }

    /// Administrative removal (rebalance moved the key elsewhere).
    pub fn remove(&self, key: &str) -> Option<Bytes> {
        self.tags.lock().remove(key);
        self.map.lock().remove(key)
    }

    /// Administrative raw write for key migration (no RTT/faults/stats).
    pub fn insert_raw(&self, key: String, value: Bytes) {
        self.map.lock().insert(key, value);
    }

    pub fn stats(&self) -> ExternalStats {
        self.stats.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Wire encoding for a result chunk crossing the peer tier (the pack
/// format the extract layer already speaks).
pub fn encode_chunk(chunk: &Chunk) -> Result<Bytes> {
    Ok(pack_table(&Table::from_chunk("__d", chunk, &[])?))
}

/// Inverse of [`encode_chunk`].
pub fn decode_chunk(bytes: &[u8]) -> Result<Chunk> {
    unpack_table(bytes)?.scan(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema, Value};

    fn chunk() -> Chunk {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("n", DataType::Int),
            ])
            .unwrap(),
        );
        Chunk::from_rows(schema, &[vec!["AA".into(), Value::Int(3)]]).unwrap()
    }

    #[test]
    fn external_values_are_serialized_bytes() {
        let external = ExternalStore::new(Duration::ZERO);
        let bytes = encode_chunk(&chunk()).unwrap();
        external.put("k".into(), bytes.clone());
        assert_eq!(external.len(), 1);
        assert_eq!(external.stats().bytes_stored, bytes.len() as u64);
        assert_eq!(decode_chunk(&external.get("k").unwrap()).unwrap(), chunk());
    }

    #[test]
    fn wire_form_ignores_the_string_table() {
        use tabviz_common::{ColumnVec, NullMask, StrVec, Values};
        // The same three rows ("AA", NULL, "DL") coded against two tables:
        // one interned in row order, one with an unreferenced entry, a
        // duplicate, and an out-of-range placeholder on the null row.
        let rows = [
            vec!["AA".into(), Value::Int(3)],
            vec![Value::Null, Value::Int(4)],
            vec!["DL".into(), Value::Int(5)],
        ];
        let interned = Chunk::from_rows(chunk().schema().clone(), &rows).unwrap();
        let table = Arc::new(vec!["zz".into(), "DL".into(), "AA".into(), "DL".into()]);
        let recoded = Chunk::new(
            chunk().schema().clone(),
            vec![
                ColumnVec::new(
                    Values::Str(StrVec::new(table, vec![2, 99, 3])),
                    NullMask::from_valid_bits(vec![true, false, true]),
                ),
                interned.column(1).clone(),
            ],
        )
        .unwrap();
        assert_eq!(interned, recoded);
        let bytes = encode_chunk(&interned).unwrap();
        assert_eq!(bytes, encode_chunk(&recoded).unwrap());
        // The decoded chunk carries yet another table (the sorted wire
        // dictionary) and is still the chunk that went in.
        let back = decode_chunk(&bytes).unwrap();
        assert_eq!(back, interned);
        assert_eq!(back, recoded);
    }

    #[test]
    fn latency_is_charged_per_operation() {
        let external = Arc::new(ExternalStore::new(Duration::from_millis(5)));
        let t0 = std::time::Instant::now();
        external.get("missing");
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn node_outage_drops_puts_and_blinds_gets() {
        let external = ExternalStore::new(Duration::ZERO);
        let mut plan = FaultPlan::seeded(9);
        plan.cache_node_outage = 1.0;
        external.set_fault_plan(Some(plan));
        // The publish is dropped by the unreachable node...
        external.put("q".into(), encode_chunk(&chunk()).unwrap());
        assert!(external.is_empty());
        assert_eq!(external.stats().dropped_puts, 1);
        // ...and even a value that made it in earlier is invisible.
        external.set_fault_plan(None);
        external.put("k".into(), Bytes::from_static(b"v"));
        let mut plan = FaultPlan::seeded(9);
        plan.cache_node_outage = 1.0;
        external.set_fault_plan(Some(plan));
        assert!(external.get("k").is_none());
        assert_eq!(external.stats().outage_misses, 1);
        // Recovery restores the shared layer.
        external.set_fault_plan(None);
        assert!(external.get("k").is_some());
    }

    #[test]
    fn outage_schedule_is_deterministic() {
        let outcomes = |seed: u64| {
            let external = ExternalStore::new(Duration::ZERO);
            let mut plan = FaultPlan::seeded(seed);
            plan.cache_node_outage = 0.5;
            external.set_fault_plan(Some(plan));
            external.put("k".into(), Bytes::from_static(b"v"));
            (0..32)
                .map(|_| {
                    if external.get("k").is_some() {
                        'h'
                    } else {
                        'm'
                    }
                })
                .collect::<String>()
        };
        let a = outcomes(4);
        assert_eq!(a, outcomes(4), "same seed, same schedule");
        assert_ne!(a, outcomes(5), "different seed, different schedule");
        assert!(
            a.contains('h') && a.contains('m'),
            "both outcomes fire: {a}"
        );
    }

    #[test]
    fn slow_node_pays_the_penalty() {
        let external = ExternalStore::new(Duration::ZERO);
        let mut plan = FaultPlan::seeded(2);
        plan.cache_slow_node = 1.0;
        plan.cache_slow_delay = Duration::from_millis(5);
        external.set_fault_plan(Some(plan));
        let t0 = std::time::Instant::now();
        external.get("missing");
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(external.stats().slowed_ops, 1);
        // Slow is not gone: values still round-trip.
        external.put("k".into(), Bytes::from_static(b"v"));
        assert!(external.get("k").is_some());
    }
}
