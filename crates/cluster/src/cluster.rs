//! The N-node simulated cluster.
//!
//! One [`Cluster`] owns a set of named [`DataServer`] nodes, a consistent-hash
//! [`HashRing`] placing published sources (and cached results) on them, and a
//! replicated [`PeerTier`] built from one [`ExternalStore`] shard per node.
//! Client work enters through [`ClusterSession`]s, which add the two layers a
//! standalone server does not have:
//!
//! - **Routing with session affinity.** A published source is owned by its
//!   `R` ring replicas; a session deterministically rotates that owner list
//!   by its own hash, so different sessions spread across the replicas while
//!   any one session keeps hitting the same node (warm node-local caches).
//!   When the affinity node is marked down, the session fails over to the
//!   next healthy owner — and if every owner is down, to any healthy member.
//! - **A shared result tier, behind the node's own caches.** The peer tier
//!   is every node's L2 (`ClusterL2`): a routed query asks the node's L1
//!   (intelligent, then literal) first, probes the tier once on a miss —
//!   promoting a hit into that L1 — and only then goes to the backend, whose
//!   answer is published once to the `R` ring owners of its canonical text.
//!   Any node's prior work is thus reused cluster-wide, even while the node
//!   that computed it is dead, and a local hit never pays a shard round trip.
//!
//! Every routing decision is attributed: the cluster opens its own trace per
//! query (the node's internal trace nests under it via `parent_trace` and
//! carries the tier probe as [`stage::CACHE_TIER`] spans), emits
//! [`stage::CLUSTER_ROUTE`] events with [`reason`] codes, and records the
//! finished trace in a cluster-level [`FlightRecorder`]. All placement and
//! routing is a pure function of the cluster seed, so a fixed seed replays
//! byte-identically.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tabviz_cache::{ExternalStore, L2Cache};
use tabviz_common::hash::hash_str;
use tabviz_common::{Chunk, Result, TvError};
use tabviz_core::{ExecOutcome, Priority};
use tabviz_dataserver::{ClientQuery, ClientSession, DataServer};
use tabviz_obs::{
    begin_trace, diagnose, event_with, reason, stage, Counter, Diagnosis, Federation,
    FlightRecorder, FlightRecorderConfig, Gauge, HealthConfig, HealthScorer, HealthState,
    Objective, ProfileOutcome, RecordedTrace, Registry, ServeEvent, ServeKind, SloConfig,
    SloStatus, SloTracker,
};

use crate::peer::{PeerHit, PeerTier, PeerTierStats, RebalanceReport};
use crate::ring::HashRing;

/// Cluster-wide tunables. Everything that influences placement or routing
/// is derived from `seed`, so two clusters built with equal configs and
/// equal node sets behave identically.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Nodes created at build time, named `node-0` … `node-{n-1}`.
    pub nodes: usize,
    /// Replica owners per key (published sources and peer-tier entries).
    pub replication: usize,
    /// Virtual nodes per member on the ring.
    pub vnodes: usize,
    /// Master seed for ring placement, session rotation and fault rolls.
    pub seed: u64,
    /// Simulated round-trip per peer-tier shard operation.
    pub peer_op_latency: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            replication: 2,
            vnodes: 64,
            seed: 0,
            peer_op_latency: Duration::ZERO,
        }
    }
}

/// How often routing deliberately sends a query *through* a demoted owner
/// so its health score keeps receiving fresh observations — without the
/// probe, a demoted node would starve of traffic and never be restored.
const HEALTH_PROBE_EVERY: u64 = 8;

/// How many hot L1 entries cache warming replays into a joining node
/// (top-K by use count across the existing members).
const WARM_TOP_K: usize = 16;

/// The cluster's shared L2 cache tier: entries are ring-placed onto their
/// `R` owner shards and reachable from every node. One instance per node is
/// injected into that node's processor caches at attach time; all instances
/// share the same ring + peer tier, so a result computed anywhere is an L2
/// hit everywhere (and one tag purge clears every shard). This is the only
/// reader and writer of the tier on the query path.
struct ClusterL2 {
    ring: Arc<RwLock<HashRing>>,
    peer: Arc<RwLock<PeerTier>>,
}

impl L2Cache for ClusterL2 {
    fn get(&self, key: &str) -> Option<Bytes> {
        let ring = self.ring.read();
        self.peer.read().get(&ring, key).map(|(bytes, _)| bytes)
    }

    fn put(&self, key: &str, value: Bytes, tags: &[String]) {
        let ring = self.ring.read();
        self.peer.read().put_tagged(&ring, key, value, tags);
    }

    fn purge_tag(&self, tag: &str) -> usize {
        self.peer.read().purge_tag(tag)
    }

    fn entry_count(&self) -> usize {
        self.peer.read().entry_count()
    }
}

/// One member: a named [`DataServer`] plus its peer-tier shard, liveness
/// flag and brown-out health scorer.
pub struct ClusterNode {
    pub name: String,
    pub server: Arc<DataServer>,
    shard: Arc<ExternalStore>,
    up: AtomicBool,
    queries: AtomicU64,
    degraded_serves: AtomicU64,
    /// EWMA anomaly scorer over this node's serves.
    health: Mutex<HealthScorer>,
    /// Routing-visible mirror of the scorer's state (lock-free read on
    /// the route hot path).
    demoted: AtomicBool,
    /// Round-robin tick deciding which skipped routes probe the node.
    probe_rr: AtomicU64,
    /// `tv_cluster_health_<node>_score`, resolved once at attach.
    health_gauge: Gauge,
}

impl ClusterNode {
    pub fn is_up(&self) -> bool {
        self.up.load(Relaxed)
    }

    /// Health-demoted: answering, but anomalously slow or error-prone.
    pub fn is_demoted(&self) -> bool {
        self.demoted.load(Relaxed)
    }

    /// Current 0–100 health score.
    pub fn health_score(&self) -> f64 {
        self.health.lock().score()
    }

    /// Queries routed to this node.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Relaxed)
    }

    /// Serves this node answered degraded (stale data).
    pub fn degraded_count(&self) -> u64 {
        self.degraded_serves.load(Relaxed)
    }

    /// This node's peer-tier shard.
    pub fn shard(&self) -> &Arc<ExternalStore> {
        &self.shard
    }
}

/// How a query reached its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// The session's affinity owner answered.
    Primary,
    /// The affinity owner was down; a healthy replica owner took it.
    Failover,
    /// Every replica owner was down; any healthy member took it.
    AllReplicasDown,
}

/// One routing decision — a pure function of `(ring, up-set, health-set,
/// session, probe ticks)`.
#[derive(Debug, Clone)]
pub struct Route {
    pub node: String,
    pub kind: RouteKind,
    /// Index into `candidates` that was chosen (0 = affinity owner).
    pub owner_rank: usize,
    /// The session's rotated owner list for the published source.
    pub candidates: Vec<String>,
    /// Owners skipped because their health score demoted them (up, but
    /// browned out) — the pre-death failover the SLO plane exists for.
    pub demoted_skipped: usize,
    /// This route deliberately passed through a demoted owner to keep its
    /// health score fed (1 in `HEALTH_PROBE_EVERY` skips).
    pub probe: bool,
}

/// One answered cluster query.
pub struct ClusterResponse {
    pub chunk: Chunk,
    pub outcome: ExecOutcome,
    /// Node that served the query.
    pub node: String,
    pub route: RouteKind,
    /// Always `None`: the peer tier answers as the node's L2
    /// ([`ExecOutcome::L2Hit`]), never in front of it. The field goes when
    /// the `benchmark` package, which builds this struct's shape, next changes.
    pub peer_hit: Option<PeerHit>,
}

/// The cluster's own hot-path `tv_cluster_*` series, resolved once at build
/// so a query touches cells, never the registry's name map.
struct Counters {
    queries: Counter,
    unroutable: Counter,
    failovers: Counter,
    all_replicas_down: Counter,
    health_reroutes: Counter,
    health_probes: Counter,
    health_demotions: Counter,
    health_restorations: Counter,
    nodes_up: Gauge,
}

impl Counters {
    fn new(registry: &Registry) -> Self {
        Counters {
            queries: registry.counter("tv_cluster_queries_total"),
            unroutable: registry.counter("tv_cluster_unroutable_total"),
            failovers: registry.counter("tv_cluster_failovers_total"),
            all_replicas_down: registry.counter("tv_cluster_all_replicas_down_total"),
            health_reroutes: registry.counter("tv_cluster_health_reroutes_total"),
            health_probes: registry.counter("tv_cluster_health_probes_total"),
            health_demotions: registry.counter("tv_cluster_health_demotions_total"),
            health_restorations: registry.counter("tv_cluster_health_restorations_total"),
            nodes_up: registry.gauge("tv_cluster_nodes_up"),
        }
    }
}

type NodeFactory = dyn Fn(&str) -> Result<Arc<DataServer>> + Send + Sync;

/// The simulated multi-node Data Server deployment.
pub struct Cluster {
    config: ClusterConfig,
    ring: Arc<RwLock<HashRing>>,
    nodes: RwLock<HashMap<String, Arc<ClusterNode>>>,
    peer: Arc<RwLock<PeerTier>>,
    factory: Box<NodeFactory>,
    /// Cluster-level flight recorder: one trace per routed query, carrying
    /// the routing events; the node's own trace nests beneath it.
    pub recorder: FlightRecorder,
    /// Cluster-level metrics (`tv_cluster_*`).
    pub registry: Registry,
    counters: Counters,
    /// SLO tracker over every serve the cluster answers (sim-time driven
    /// off `epoch`).
    slo: Mutex<SloTracker>,
    /// Health-scorer tuning applied to every node (existing and joined).
    health_config: HealthConfig,
    /// Cluster birth; `epoch.elapsed()` is the SLO plane's clock.
    epoch: Instant,
}

impl Cluster {
    /// Build `config.nodes` members, each produced by `factory(name)` —
    /// the factory registers sources and publishes on the server it
    /// returns (identical publications per node, like a fleet provisioned
    /// from one image).
    pub fn build(
        config: ClusterConfig,
        factory: impl Fn(&str) -> Result<Arc<DataServer>> + Send + Sync + 'static,
    ) -> Result<Arc<Cluster>> {
        let registry = Registry::new();
        let mut slo = SloTracker::new(
            SloConfig::default(),
            vec![
                Objective::availability("availability", 0.999),
                Objective::degraded_fraction("degraded", 0.05),
            ],
        );
        slo.bind_obs(&registry);
        // The recorder adopts the cluster registry's exemplar slots as its
        // pin set: a trace id exported from a cluster-scope histogram
        // (e.g. `tv_slo_serve_latency_seconds`) stays resolvable here.
        let recorder = FlightRecorder::with_registry(FlightRecorderConfig::default(), &registry);
        let peer = PeerTier::new(config.replication);
        peer.bind_obs(&registry);
        let cluster = Cluster {
            ring: Arc::new(RwLock::new(HashRing::new(config.seed, config.vnodes))),
            nodes: RwLock::new(HashMap::new()),
            peer: Arc::new(RwLock::new(peer)),
            factory: Box::new(factory),
            recorder,
            counters: Counters::new(&registry),
            registry,
            slo: Mutex::new(slo),
            health_config: HealthConfig::default(),
            epoch: Instant::now(),
            config,
        };
        let n = cluster.config.nodes;
        for i in 0..n {
            cluster.attach_node(&format!("node-{i}"))?;
        }
        cluster.counters.nodes_up.set(n as i64);
        Ok(Arc::new(cluster))
    }

    /// Replace the SLO tracker (window shape + objectives). Experiments
    /// call this right after build, before traffic, so the sim-time
    /// windows match their compressed horizon.
    pub fn configure_slo(&self, config: SloConfig, objectives: Vec<Objective>) {
        let mut tracker = SloTracker::new(config, objectives);
        tracker.bind_obs(&self.registry);
        *self.slo.lock() = tracker;
    }

    /// Add one objective to the live tracker (e.g. a latency bound
    /// calibrated from a healthy baseline run).
    pub fn add_objective(&self, objective: Objective) {
        self.slo
            .lock()
            .add_objective(objective, Some(&self.registry));
    }

    /// Milliseconds since the cluster was built — the SLO plane's clock.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Current SLO status for every objective (no alert transitions).
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.slo.lock().status(self.now_ms())
    }

    fn attach_node(&self, name: &str) -> Result<()> {
        let server = (self.factory)(name)?;
        let shard = Arc::new(ExternalStore::new(self.config.peer_op_latency));
        self.peer.write().add_shard(name, Arc::clone(&shard));
        self.ring.write().add_node(name);
        // Make the replicated peer tier this node's L2: both L1 levels miss
        // → ring-routed probe, promote on hit, tagged publish on store.
        server.processor.caches.set_l2(Arc::new(ClusterL2 {
            ring: Arc::clone(&self.ring),
            peer: Arc::clone(&self.peer),
        }));
        self.nodes.write().insert(
            name.to_string(),
            Arc::new(ClusterNode {
                name: name.to_string(),
                server,
                shard,
                up: AtomicBool::new(true),
                queries: AtomicU64::new(0),
                degraded_serves: AtomicU64::new(0),
                health: Mutex::new(HealthScorer::new(self.health_config.clone())),
                demoted: AtomicBool::new(false),
                probe_rr: AtomicU64::new(0),
                health_gauge: self.registry.gauge(&format!(
                    "tv_cluster_health_{}_score",
                    name.replace('-', "_")
                )),
            }),
        );
        Ok(())
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn node(&self, name: &str) -> Option<Arc<ClusterNode>> {
        self.nodes.read().get(name).cloned()
    }

    /// All members, sorted by name.
    pub fn nodes(&self) -> Vec<Arc<ClusterNode>> {
        let mut v: Vec<_> = self.nodes.read().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    pub fn nodes_up(&self) -> usize {
        self.nodes.read().values().filter(|n| n.is_up()).count()
    }

    /// Mark a node dead: routing skips it and its peer shard stops
    /// answering. Its data survives for [`Cluster::revive`] — the model is
    /// a crashed process, not a decommission (that is
    /// [`Cluster::remove_node`]).
    pub fn kill(&self, name: &str) -> bool {
        let Some(node) = self.node(name) else {
            return false;
        };
        node.up.store(false, Relaxed);
        node.shard.set_down(true);
        self.registry.counter("tv_cluster_kills_total").inc();
        self.counters.nodes_up.set(self.nodes_up() as i64);
        true
    }

    /// Bring a killed node back; its shard serves its old keys again.
    pub fn revive(&self, name: &str) -> bool {
        let Some(node) = self.node(name) else {
            return false;
        };
        node.up.store(true, Relaxed);
        node.shard.set_down(false);
        self.counters.nodes_up.set(self.nodes_up() as i64);
        true
    }

    /// Provision and join a new member, then migrate peer-tier keys so
    /// every key lives on exactly its `R` owners under the new ring, and
    /// warm the joiner's L1 from the existing members' hot sets.
    pub fn add_node(&self, name: &str) -> Result<RebalanceReport> {
        if self.nodes.read().contains_key(name) {
            return Err(TvError::Bind(format!("node '{name}' already exists")));
        }
        let donors = self.nodes();
        let old_ring = self.ring.read().clone();
        self.attach_node(name)?;
        let new_ring = self.ring.read().clone();
        let report = self.peer.read().rebalance(&old_ring, &new_ring);
        self.counters.nodes_up.set(self.nodes_up() as i64);
        self.registry
            .counter("tv_cluster_keys_migrated_total")
            .add(report.keys_moved as u64);
        let warmed = self.warm_node(name, &donors);
        self.registry
            .counter("tv_cluster_entries_warmed_total")
            .add(warmed as u64);
        Ok(report)
    }

    /// Cache warming: replay the existing members' hottest intelligent-cache
    /// entries (top-[`WARM_TOP_K`] by use count, deduplicated by canonical
    /// text) into a joining node's L1 so its first dashboards hit locally
    /// instead of walking to L2 or the backend. Returns entries seeded.
    fn warm_node(&self, name: &str, donors: &[Arc<ClusterNode>]) -> usize {
        let Some(target) = self.node(name) else {
            return 0;
        };
        // Gather each donor's ranked hot list, then merge by interleaving
        // rank order — rank r from every donor before rank r+1 anywhere —
        // so the global top-K approximates popularity without raw counts.
        let lists: Vec<_> = donors
            .iter()
            .filter(|d| d.name != name)
            .map(|d| {
                d.server
                    .processor
                    .caches
                    .intelligent
                    .hot_entries(WARM_TOP_K)
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut warmed = 0usize;
        let max_rank = lists.iter().map(Vec::len).max().unwrap_or(0);
        'outer: for rank in 0..max_rank {
            for list in &lists {
                let Some((spec, chunk, cost)) = list.get(rank) else {
                    continue;
                };
                if !seen.insert(spec.canonical_text()) {
                    continue;
                }
                target
                    .server
                    .processor
                    .caches
                    .warm(spec.clone(), chunk, *cost);
                warmed += 1;
                if warmed >= WARM_TOP_K {
                    break 'outer;
                }
            }
        }
        if warmed > 0 {
            event_with(stage::CACHE_TIER, Some("warm"), Some(warmed as u64), None);
        }
        warmed
    }

    /// One table refreshed at its source: purge only the tagged dependents
    /// — every node's L1 plus the shared L2 — instead of flushing whole
    /// sources. Returns entries removed cluster-wide.
    pub fn refresh_table(&self, source: &str, table: &str) -> usize {
        let mut purged = 0usize;
        for node in self.nodes() {
            purged += node.server.processor.refresh_table(source, table);
        }
        self.registry.counter("tv_cluster_tag_purges_total").inc();
        self.registry
            .counter("tv_cluster_tag_purged_entries_total")
            .add(purged as u64);
        event_with(
            stage::CACHE_TIER,
            Some("purge"),
            Some(purged as u64),
            Some(reason::CACHE_TAG_PURGE),
        );
        purged
    }

    /// Gracefully decommission a member: its peer-tier keys are migrated to
    /// the surviving owners *before* the node and its shard are dropped.
    pub fn remove_node(&self, name: &str) -> Result<RebalanceReport> {
        if !self.nodes.read().contains_key(name) {
            return Err(TvError::Bind(format!("unknown node '{name}'")));
        }
        let old_ring = self.ring.read().clone();
        let mut new_ring = old_ring.clone();
        new_ring.remove_node(name);
        if new_ring.is_empty() {
            return Err(TvError::Unsupported(
                "cannot remove the last cluster node".into(),
            ));
        }
        // Migrate with the leaving shard still present as a source copy.
        let report = self.peer.read().rebalance(&old_ring, &new_ring);
        *self.ring.write() = new_ring;
        self.peer.write().remove_shard(name);
        self.nodes.write().remove(name);
        self.counters.nodes_up.set(self.nodes_up() as i64);
        self.registry
            .counter("tv_cluster_keys_migrated_total")
            .add(report.keys_moved as u64);
        Ok(report)
    }

    /// Route one session's query on `published`: rotate the owner list by
    /// the session hash, take the first *healthy* candidate — up **and**
    /// not health-demoted — then fall back in order of preference: any
    /// healthy non-owner member (cold caches beat a browned-out node),
    /// an up-but-demoted owner (slow beats unavailable), any up member.
    ///
    /// The owner list is recomputed from the live ring on every call —
    /// affinity is *lazily* derived, never cached on the session — so a
    /// node joined after a session opened absorbs that session on its very
    /// next query (see `join_absorbs_existing_sessions` in
    /// `tests/cluster_sim.rs`).
    ///
    /// Demoted owners still see 1 in `HEALTH_PROBE_EVERY` of the routes
    /// that would have skipped them (`probe = true`), so their scores keep
    /// getting observations and recovery is detectable.
    pub fn route(&self, published: &str, session_key: &str) -> Result<Route> {
        let owners: Vec<String> = {
            let ring = self.ring.read();
            ring.replicas(published, self.config.replication)
                .into_iter()
                .map(str::to_string)
                .collect()
        };
        if owners.is_empty() {
            return Err(TvError::Exec("cluster has no nodes".into()));
        }
        let rot = (hash_str(self.config.seed ^ 0x5e55_10af, session_key) as usize) % owners.len();
        let candidates: Vec<String> = (0..owners.len())
            .map(|i| owners[(rot + i) % owners.len()].clone())
            .collect();
        let nodes = self.nodes.read();
        let kind_for = |rank: usize| {
            if rank == 0 {
                RouteKind::Primary
            } else {
                RouteKind::Failover
            }
        };
        let mut demoted_skipped = 0usize;
        let mut first_up_demoted: Option<usize> = None;
        for (rank, name) in candidates.iter().enumerate() {
            let Some(node) = nodes.get(name) else {
                continue;
            };
            if !node.is_up() {
                continue;
            }
            if node.is_demoted() {
                if node.probe_rr.fetch_add(1, Relaxed) % HEALTH_PROBE_EVERY == 0 {
                    return Ok(Route {
                        node: name.clone(),
                        kind: kind_for(rank),
                        owner_rank: rank,
                        candidates,
                        demoted_skipped,
                        probe: true,
                    });
                }
                first_up_demoted.get_or_insert(rank);
                demoted_skipped += 1;
                continue;
            }
            return Ok(Route {
                node: name.clone(),
                kind: kind_for(rank),
                owner_rank: rank,
                candidates,
                demoted_skipped,
                probe: false,
            });
        }
        let members: Vec<String> = self.ring.read().members().to_vec();
        if let Some(rank) = first_up_demoted {
            // Owners exist but are browned out: prefer a healthy
            // non-owner, accept the demoted owner only as last resort.
            for name in &members {
                if candidates.contains(name) {
                    continue;
                }
                if nodes
                    .get(name)
                    .is_some_and(|n| n.is_up() && !n.is_demoted())
                {
                    return Ok(Route {
                        node: name.clone(),
                        kind: RouteKind::Failover,
                        owner_rank: candidates.len(),
                        candidates,
                        demoted_skipped,
                        probe: false,
                    });
                }
            }
            let name = candidates[rank].clone();
            return Ok(Route {
                node: name,
                kind: kind_for(rank),
                owner_rank: rank,
                candidates,
                demoted_skipped: demoted_skipped.saturating_sub(1),
                probe: false,
            });
        }
        // Every owner is down: deterministic sweep over all members,
        // healthy ones first.
        for demoted_ok in [false, true] {
            for name in &members {
                if nodes
                    .get(name)
                    .is_some_and(|n| n.is_up() && (demoted_ok || !n.is_demoted()))
                {
                    return Ok(Route {
                        node: name.clone(),
                        kind: RouteKind::AllReplicasDown,
                        owner_rank: candidates.len(),
                        candidates,
                        demoted_skipped,
                        probe: false,
                    });
                }
            }
        }
        Err(TvError::Exec("no healthy node in cluster".into()))
    }

    /// Stable ordinal of a node within the sorted membership (used as the
    /// numeric `detail` on routing trace events).
    fn node_ordinal(&self, name: &str) -> u64 {
        self.ring
            .read()
            .members()
            .iter()
            .position(|m| m == name)
            .unwrap_or(usize::MAX) as u64
    }

    /// Byte-stable routing table: the full ring digest plus, per published
    /// source, its replica owners in order. Two clusters with equal seed
    /// and membership render identical tables — the determinism tests
    /// compare these strings verbatim.
    pub fn routing_table(&self) -> String {
        use std::fmt::Write as _;
        let ring = self.ring.read();
        let mut out = ring.digest();
        let mut published: Vec<String> = Vec::new();
        for node in self.nodes.read().values() {
            for name in node.server.published_names() {
                if !published.contains(&name) {
                    published.push(name);
                }
            }
        }
        published.sort();
        for name in &published {
            let owners = ring.replicas(name, self.config.replication);
            let _ = writeln!(out, "published {name} -> {}", owners.join(","));
        }
        out
    }

    pub fn ring_digest(&self) -> String {
        self.ring.read().digest()
    }

    pub fn peer_stats(&self) -> PeerTierStats {
        self.peer.read().stats()
    }

    /// Per-node executed-query counts, sorted by name (load-balance checks).
    pub fn node_query_counts(&self) -> Vec<(String, u64)> {
        self.nodes()
            .iter()
            .map(|n| (n.name.clone(), n.query_count()))
            .collect()
    }

    /// Per-node health scores, sorted by name.
    pub fn health_scores(&self) -> Vec<(String, f64, HealthState)> {
        self.nodes()
            .iter()
            .map(|n| {
                let h = n.health.lock();
                (n.name.clone(), h.score(), h.state())
            })
            .collect()
    }

    /// Fold one serve into the SLO plane: the node's health scorer (when the
    /// query was routable) and the cluster SLO windows. Emits
    /// `node_health` / `slo_check` events onto the current trace on every
    /// transition, so brown-out detection is attributable per query.
    fn observe_serve(&self, executed_on: Option<&ClusterNode>, latency: Duration, kind: ServeKind) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        if let Some(node) = executed_on {
            if kind == ServeKind::Degraded {
                node.degraded_serves.fetch_add(1, Relaxed);
            }
            let (transition, score) = {
                let mut health = node.health.lock();
                let t = health.observe(micros, kind);
                if t.is_some() {
                    node.demoted
                        .store(health.state() == HealthState::Demoted, Relaxed);
                }
                (t, health.score())
            };
            match transition {
                Some(HealthState::Demoted) => {
                    self.counters.health_demotions.inc();
                    event_with(
                        stage::NODE_HEALTH,
                        Some("demoted"),
                        Some(score as u64),
                        Some(reason::ROUTE_HEALTH_DEMOTED),
                    );
                }
                Some(HealthState::Healthy) => {
                    self.counters.health_restorations.inc();
                    event_with(
                        stage::NODE_HEALTH,
                        Some("restored"),
                        Some(score as u64),
                        None,
                    );
                }
                None => {}
            }
            node.health_gauge.set(score as i64);
        }
        let now_ms = self.now_ms();
        let mut slo = self.slo.lock();
        slo.record(
            now_ms,
            ServeEvent {
                latency_micros: micros,
                ok: kind != ServeKind::Error,
                degraded: kind == ServeKind::Degraded,
            },
        );
        for (i, status) in slo.evaluate(now_ms, false).into_iter().enumerate() {
            if status.just_fired {
                event_with(
                    stage::SLO_CHECK,
                    Some(status.name),
                    Some(i as u64),
                    Some(reason::SLO_BURN_ALERT),
                );
            } else if status.just_cleared {
                event_with(
                    stage::SLO_CHECK,
                    Some(status.name),
                    Some(i as u64),
                    Some(reason::SLO_ALERT_CLEARED),
                );
            }
        }
    }

    /// A [`Federation`] over every node's registry (rebuilt per call so
    /// membership changes are always reflected).
    pub fn federation(&self) -> Federation {
        let mut fed = Federation::new();
        for node in self.nodes() {
            fed.add_node(&node.name, node.server.registry());
        }
        fed
    }

    /// Prometheus text exposition for the whole cluster: the cluster's own
    /// `tv_cluster_*` / `tv_slo_*` series, then every node's series with a
    /// `node` label plus merged cluster-scope aggregates.
    pub fn metrics_text(&self) -> String {
        let mut out = self.registry.render_text();
        out.push_str(&self.federation().render_text());
        out
    }

    /// One-call cluster state: membership and health, routing and peer
    /// tier counters, SLO status, federated latency quantiles, and the
    /// slowest recorded cluster traces.
    pub fn diagnostics_report(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== cluster diagnostics: {} nodes ({} up) ===",
            self.nodes().len(),
            self.nodes_up()
        );
        for node in self.nodes() {
            let health = node.health.lock();
            let _ = writeln!(
                out,
                "  {}: {} health={:.0} ({:?}) queries={} degraded={}",
                node.name,
                if node.is_up() { "up" } else { "DOWN" },
                health.score(),
                health.state(),
                node.query_count(),
                node.degraded_count(),
            );
        }
        let c = &self.counters;
        let _ = writeln!(
            out,
            "routing: queries={} failovers={} all_replicas_down={} health_reroutes={} probes={}",
            c.queries.get(),
            c.failovers.get(),
            c.all_replicas_down.get(),
            c.health_reroutes.get(),
            c.health_probes.get(),
        );
        let peer = self.peer_stats();
        let _ = writeln!(
            out,
            "peer tier: gets={} primary_hits={} replica_hits={} misses={} puts={} fanout={}",
            peer.gets,
            peer.primary_hits,
            peer.replica_hits,
            peer.misses,
            peer.puts,
            peer.put_fanout,
        );
        for status in self.slo_status() {
            let _ = writeln!(
                out,
                "slo {}: {} fast_burn={:.2} slow_burn={:.2} fired={} window_p95={}",
                status.name,
                if status.firing { "FIRING" } else { "ok" },
                status.fast_burn,
                status.slow_burn,
                status.times_fired,
                status
                    .window_p95_micros
                    .map(|us| format!("{:.1}ms", us as f64 / 1e3))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        if let Some(h) = self.federation().merged_histogram("tv_core_query_seconds") {
            let s = h.snapshot();
            let fmt = |us: Option<u64>| {
                us.map(|us| format!("{:.1}ms", us as f64 / 1e3))
                    .unwrap_or_else(|| "-".into())
            };
            let _ = writeln!(
                out,
                "federated query latency: count={} p50={} p95={} p99={}",
                s.count,
                fmt(s.p50_micros),
                fmt(s.p95_micros),
                fmt(s.p99_micros),
            );
        }
        let traces = self.recorder.slowest(top_k);
        if !traces.is_empty() {
            let _ = writeln!(out, "--- {} slowest cluster traces ---", traces.len());
            for (rank, t) in traces.iter().enumerate() {
                let mut reasons = t.reasons();
                reasons.dedup();
                let _ = writeln!(
                    out,
                    "#{} {:>9.3}ms [{}] trace={} source={} reasons={}",
                    rank + 1,
                    t.total.as_secs_f64() * 1e3,
                    t.outcome,
                    t.trace_id,
                    t.source,
                    reasons.join(","),
                );
            }
            // The slow-query log: each tail trace classified with a
            // structured verdict (see `obs::analyze`).
            let _ = writeln!(out, "--- slow-query verdicts ---");
            for (rank, t) in traces.iter().enumerate() {
                let d = self.diagnose_trace(t);
                let _ = writeln!(
                    out,
                    "#{} trace={} {:>9.3}ms {}",
                    rank + 1,
                    t.trace_id,
                    t.total.as_secs_f64() * 1e3,
                    d.render(),
                );
            }
        }
        out
    }

    /// Root-cause one recorded cluster trace. The node that executed the
    /// query opened its *own* trace (linked back via `parent_trace`), and
    /// that child holds the pipeline stages — so the join walks node
    /// recorders for the child and diagnoses it against the node's class
    /// baseline. A trace whose child is gone (unroutable, or evicted from
    /// the node's recorder) is diagnosed from its own routing spans.
    pub fn diagnose_trace(&self, t: &RecordedTrace) -> Diagnosis {
        for node in self.nodes() {
            let rec = node.server.flight_recorder();
            let child = rec.get_child_of(t.trace_id);
            if let Some(child) = child {
                let baseline = node.server.processor.obs.baselines.get(&child.class);
                return diagnose(&child, baseline.as_ref());
            }
        }
        diagnose(t, None)
    }

    /// Open a cluster session for `user` on `published`. The session key
    /// (`user@published`) is the affinity domain: it picks the rotation of
    /// the owner list and the per-node admission session.
    pub fn open_session(
        self: &Arc<Self>,
        published: &str,
        user: impl Into<String>,
    ) -> Result<ClusterSession> {
        let user = user.into();
        // Fail fast on unknown published names (any node can answer this).
        let nodes = self.nodes();
        let node = nodes
            .first()
            .ok_or_else(|| TvError::Exec("cluster has no nodes".into()))?;
        node.server.published(published)?;
        let session_key = format!("{user}@{published}");
        Ok(ClusterSession {
            cluster: Arc::clone(self),
            published: published.to_string(),
            user,
            session_key,
            priority: Priority::Interactive,
            weight: 1.0,
            node_sessions: Mutex::new(HashMap::new()),
            failovers: AtomicU64::new(0),
        })
    }
}

/// A client's connection to the cluster: routes to the affinity node,
/// fails over when nodes die.
pub struct ClusterSession {
    cluster: Arc<Cluster>,
    published: String,
    user: String,
    session_key: String,
    priority: Priority,
    weight: f64,
    /// Lazily opened per-node admission sessions (affinity means usually
    /// one; failover adds more).
    node_sessions: Mutex<HashMap<String, Arc<ClientSession>>>,
    failovers: AtomicU64,
}

impl ClusterSession {
    pub fn session_key(&self) -> &str {
        &self.session_key
    }

    /// The node this session is affine to while it is healthy.
    pub fn affinity_node(&self) -> Result<String> {
        Ok(self
            .cluster
            .route(&self.published, &self.session_key)?
            .candidates[0]
            .clone())
    }

    /// Times this session was served by a non-affinity node.
    pub fn failover_count(&self) -> u64 {
        self.failovers.load(Relaxed)
    }

    /// Demote/restore the admission class (applies to nodes contacted from
    /// now on; cached per-node sessions are reopened).
    pub fn set_priority(&mut self, priority: Priority) {
        self.priority = priority;
        self.node_sessions.lock().clear();
    }

    pub fn set_weight(&mut self, weight: f64) {
        self.weight = weight;
        self.node_sessions.lock().clear();
    }

    /// Evaluate one client query through the cluster: route → the node's
    /// pipeline (L1 → shared tier → backend, one tagged publish); fully
    /// traced and recorded.
    pub fn query(&self, query: &ClientQuery) -> Result<ClusterResponse> {
        let cluster = &self.cluster;
        let t0 = Instant::now();
        let trace = begin_trace();
        cluster.counters.queries.inc();

        let route = match cluster.route(&self.published, &self.session_key) {
            Ok(r) => r,
            Err(e) => {
                drop(trace);
                cluster.counters.unroutable.inc();
                cluster.observe_serve(None, t0.elapsed(), ServeKind::Error);
                return Err(e);
            }
        };
        let (label, why) = match route.kind {
            RouteKind::Primary => ("primary", reason::ROUTE_PRIMARY),
            RouteKind::Failover => ("failover", reason::ROUTE_FAILOVER),
            RouteKind::AllReplicasDown => ("failover", reason::ROUTE_ALL_REPLICAS_DOWN),
        };
        event_with(
            stage::CLUSTER_ROUTE,
            Some(label),
            Some(cluster.node_ordinal(&route.node)),
            Some(why),
        );
        if route.demoted_skipped > 0 {
            cluster.counters.health_reroutes.inc();
            event_with(
                stage::CLUSTER_ROUTE,
                Some("health"),
                Some(route.demoted_skipped as u64),
                Some(reason::ROUTE_HEALTH_DEMOTED),
            );
        }
        if route.probe {
            cluster.counters.health_probes.inc();
            event_with(
                stage::CLUSTER_ROUTE,
                Some("probe"),
                Some(cluster.node_ordinal(&route.node)),
                Some(reason::ROUTE_HEALTH_PROBE),
            );
        }
        if route.kind != RouteKind::Primary {
            self.failovers.fetch_add(1, Relaxed);
            cluster.counters.failovers.inc();
            if route.kind == RouteKind::AllReplicasDown {
                cluster.counters.all_replicas_down.inc();
            }
        }

        // Execute on the routed node (its own trace nests under ours).
        let node = cluster
            .node(&route.node)
            .ok_or_else(|| TvError::Exec(format!("routed to unknown node '{}'", route.node)))?;
        node.queries.fetch_add(1, Relaxed);
        let (chunk, outcome) = match self.query_on(&node, query) {
            Ok(v) => v,
            Err(e) => {
                cluster.observe_serve(Some(&node), t0.elapsed(), ServeKind::Error);
                self.finish_trace(trace, t0, query, ProfileOutcome::Remote);
                return Err(e);
            }
        };
        let (serve, profile_outcome) = match outcome {
            ExecOutcome::IntelligentHit | ExecOutcome::LiteralHit | ExecOutcome::L2Hit => {
                (ServeKind::Ok, ProfileOutcome::Hit)
            }
            ExecOutcome::Remote => (ServeKind::Ok, ProfileOutcome::Remote),
            ExecOutcome::DegradedStale => (ServeKind::Degraded, ProfileOutcome::DegradedStale),
        };
        cluster.observe_serve(Some(&node), t0.elapsed(), serve);
        self.finish_trace(trace, t0, query, profile_outcome);
        Ok(ClusterResponse {
            chunk,
            outcome,
            node: route.node,
            route: route.kind,
            peer_hit: None,
        })
    }

    /// Run the query through a node's admission session, opening (and
    /// caching) one on first contact. The map lock covers only the lookup:
    /// a backend trip must not hold up the session's other queries.
    fn query_on(&self, node: &ClusterNode, query: &ClientQuery) -> Result<(Chunk, ExecOutcome)> {
        let session = {
            let mut sessions = self.node_sessions.lock();
            match sessions.get(&node.name) {
                Some(s) => Arc::clone(s),
                None => {
                    let mut s = node.server.connect(&self.published, self.user.clone())?;
                    s.set_priority(self.priority);
                    s.set_weight(self.weight);
                    let s = Arc::new(s);
                    sessions.insert(node.name.clone(), Arc::clone(&s));
                    s
                }
            }
        };
        session.query(query)
    }

    fn finish_trace(
        &self,
        trace: tabviz_obs::TraceHandle,
        t0: Instant,
        query: &ClientQuery,
        outcome: ProfileOutcome,
    ) {
        let total = t0.elapsed();
        let finished = trace.finish(total);
        if finished.is_captured() {
            let text = format!(
                "[{}] group_by={:?} aggs={} filters={}",
                self.session_key,
                query.group_by,
                query.aggs.len(),
                query.filters.len()
            );
            // Same shape key as the node-side class (filters excluded).
            let class = format!(
                "{}|g:{}|a:{}",
                self.published,
                query.group_by.join(","),
                query.aggs.len()
            );
            self.cluster.recorder.record(
                RecordedTrace::from_finished(finished, text, &self.published, outcome)
                    .with_class(class),
            );
        }
    }
}
