//! Simulated multi-node Tableau Server deployment.
//!
//! Sect. 3.2 of the paper describes Tableau Server as a cluster of worker
//! processes sharing a distributed cache layer "based on REDIS or Cassandra"
//! so "data \[stays\] warm regardless of which node handles particular
//! requests". This crate models that deployment shape on top of the
//! single-node stack:
//!
//! - [`HashRing`]: consistent-hash placement with virtual nodes — published
//!   sources and cached results map to `R` replica owners; membership
//!   changes re-map only ~`K/N` keys.
//! - [`PeerTier`]: the distributed cache promoted to a real peer tier — one
//!   [`tabviz_cache::ExternalStore`] shard per node, replicated writes,
//!   owner-order reads with replica failover, administrative key migration
//!   on join/leave.
//! - [`Cluster`] / [`ClusterSession`]: N named [`tabviz_dataserver::DataServer`]
//!   nodes behind a router with session affinity, node kill/revive, graceful
//!   join/leave, cluster-level metrics (`tv_cluster_*`) and a flight
//!   recorder attributing every routing and peer-cache decision.
//!
//! Everything is deterministic per seed: ring placement, session rotation
//! and routing are pure functions of `(seed, membership, session)`, so a
//! fixed seed replays byte-identically — the cluster test harness asserts
//! this by comparing routing tables and per-query node assignments across
//! runs.
//!
//! PR 7 adds the **SLO plane** on top: per-node health scorers
//! ([`tabviz_obs::HealthScorer`]) feed a health-aware router that demotes
//! browned-out nodes before they die, a cluster [`tabviz_obs::SloTracker`]
//! fires multi-window burn-rate alerts, and [`Cluster::metrics_text`] /
//! [`Cluster::diagnostics_report`] federate every node's registry into one
//! cluster-scope exposition ([`tabviz_obs::Federation`]).

pub mod cluster;
pub mod peer;
pub mod ring;

pub use cluster::{
    Cluster, ClusterConfig, ClusterNode, ClusterResponse, ClusterSession, Route, RouteKind,
};
pub use peer::{PeerHit, PeerTier, PeerTierStats, RebalanceReport};
pub use ring::HashRing;
