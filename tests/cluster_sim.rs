//! Deterministic cluster harness: same seed ⇒ identical routing tables and
//! per-query node assignment; node kill mid-storm ⇒ sessions fail over and
//! complete; ring membership changes re-map a bounded fraction of keys.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tabviz::cluster::{Cluster, ClusterConfig, ClusterSession, HashRing, RouteKind};
use tabviz::prelude::*;
use tabviz::workloads::{generate_storm, schedule_digest, StormConfig, StormStep};

const DASHBOARDS: usize = 12;

fn sample_db() -> Arc<Database> {
    let flights =
        tabviz::workloads::generate_flights(&tabviz::workloads::FaaConfig::with_rows(2_000))
            .expect("generate");
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).expect("table"))
        .expect("put");
    db
}

/// Each node's simulated backend, by node name.
type Sims = Arc<Mutex<HashMap<String, Arc<SimDb>>>>;

fn build_cluster_over(
    db: &Arc<Database>,
    nodes: usize,
    seed: u64,
    sim: SimConfig,
) -> (Arc<Cluster>, Sims) {
    let db = Arc::clone(db);
    let sims: Sims = Arc::default();
    let node_sims = Arc::clone(&sims);
    let cluster = Cluster::build(
        ClusterConfig {
            nodes,
            replication: 2,
            vnodes: 32,
            seed,
            peer_op_latency: std::time::Duration::ZERO,
        },
        move |name| {
            let sim = Arc::new(SimDb::new("warehouse", Arc::clone(&db), sim.clone()));
            node_sims
                .lock()
                .unwrap()
                .insert(name.to_string(), Arc::clone(&sim));
            let qp = QueryProcessor::default();
            qp.registry.register(sim, 4);
            let server = Arc::new(DataServer::named(qp, name));
            for d in 0..DASHBOARDS {
                server.publish(PublishedSource::new(
                    format!("dash-{d}"),
                    "warehouse",
                    LogicalPlan::scan("flights"),
                ));
            }
            Ok(server)
        },
    )
    .expect("build cluster");
    (cluster, sims)
}

/// A backend whose every query takes at least `dispatch_ms`: dear enough
/// that the node caches always keep the answer.
fn slow_backend(dispatch_ms: u64) -> SimConfig {
    SimConfig {
        latency: LatencyModel {
            dispatch: std::time::Duration::from_millis(dispatch_ms),
            ..LatencyModel::instant()
        },
        ..Default::default()
    }
}

fn build_cluster(db: &Arc<Database>, nodes: usize, seed: u64) -> Arc<Cluster> {
    build_cluster_over(db, nodes, seed, SimConfig::default()).0
}

fn filter_query(selector: i64) -> ClientQuery {
    ClientQuery {
        filters: vec![bin(BinOp::Le, col("distance"), lit(200 + selector % 2200))],
        group_by: vec!["carrier".into()],
        aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
        ..Default::default()
    }
}

/// Shard operations issued so far, summed over the nodes: (gets, hits, puts).
fn shard_ops(cluster: &Cluster) -> (u64, u64, u64) {
    cluster.nodes().iter().fold((0, 0, 0), |(g, h, p), n| {
        let s = n.shard().stats();
        (g + s.gets, h + s.get_hits, p + s.puts)
    })
}

fn backend_queries(sims: &Sims) -> usize {
    sims.lock()
        .unwrap()
        .values()
        .map(|s| s.stats().queries)
        .sum()
}

fn query_for(kind: &StormStep) -> ClientQuery {
    match kind {
        StormStep::Load => ClientQuery {
            group_by: vec!["carrier".into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
            ..Default::default()
        },
        StormStep::Drill { dimension } => ClientQuery {
            group_by: vec![["carrier", "dep_hour", "origin_state", "weekday"]
                [*dimension as usize % 4]
                .into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
            ..Default::default()
        },
        StormStep::Filter { selector } => filter_query(*selector as i64),
        StormStep::TopN { n } => ClientQuery {
            group_by: vec!["market".into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
            order: vec![SortKey {
                column: "n".into(),
                asc: false,
            }],
            topn: Some(*n as usize),
            ..Default::default()
        },
    }
}

fn small_storm(seed: u64) -> StormConfig {
    StormConfig {
        sessions: 40,
        dashboards: DASHBOARDS,
        zipf_s: 1.1,
        horizon_ms: 1_000,
        diurnal_amplitude: 0.4,
        steps_per_session: 3,
        mean_think_ms: 50.0,
        seed,
    }
}

/// Same seed, same membership ⇒ the full routing table (ring points plus
/// per-published owner lists) and every per-query node assignment replay
/// byte-identically; a different seed produces a different placement.
#[test]
fn routing_is_deterministic_per_seed() {
    let db = sample_db();
    let a = build_cluster(&db, 4, 7);
    let b = build_cluster(&db, 4, 7);
    assert_eq!(a.routing_table(), b.routing_table());
    assert_eq!(a.ring_digest(), b.ring_digest());

    let schedule = generate_storm(&small_storm(7));
    assert_eq!(schedule_digest(&schedule), schedule_digest(&schedule));
    let assignments = |cluster: &Arc<Cluster>| -> Vec<String> {
        schedule
            .iter()
            .map(|arr| {
                let published = format!("dash-{}", arr.dashboard);
                let session_key = format!("viewer-{}@{published}", arr.session % 4);
                cluster.route(&published, &session_key).expect("route").node
            })
            .collect()
    };
    assert_eq!(assignments(&a), assignments(&b));

    let c = build_cluster(&db, 4, 8);
    assert_ne!(a.routing_table(), c.routing_table());
}

/// Kill a node mid-storm: every remaining query still completes (served by
/// a replica owner — degraded is allowed, lost answers are not), failovers
/// are attributed, and the routing decisions skip the dead node entirely.
#[test]
fn node_kill_mid_storm_fails_over_and_completes() {
    let db = sample_db();
    let cluster = build_cluster(&db, 4, 11);
    let schedule = generate_storm(&small_storm(11));
    let kill_index = schedule.len() / 3;

    // The victim: whichever node the first post-kill arrival is affine to,
    // so the kill provably forces at least one failover.
    let victim = {
        let arr = &schedule[kill_index];
        let published = format!("dash-{}", arr.dashboard);
        let session_key = format!("viewer-{}@{published}", arr.session % 4);
        cluster.route(&published, &session_key).expect("route").node
    };

    let mut failovers = 0usize;
    let mut completed = 0usize;
    let mut sessions: std::collections::HashMap<u32, tabviz::cluster::ClusterSession> =
        std::collections::HashMap::new();
    for (i, arr) in schedule.iter().enumerate() {
        if i == kill_index {
            assert!(cluster.kill(&victim));
            assert_eq!(cluster.nodes_up(), 3);
        }
        let session = sessions.entry(arr.session).or_insert_with(|| {
            cluster
                .open_session(
                    &format!("dash-{}", arr.dashboard),
                    format!("viewer-{}", arr.session % 4),
                )
                .expect("open")
        });
        let resp = session.query(&query_for(&arr.kind)).expect("cluster query");
        if arr.kind == StormStep::Load {
            assert!(!resp.chunk.is_empty(), "no lost zones: loads render");
        }
        if i >= kill_index {
            assert_ne!(resp.node, victim, "dead node must not serve");
            if resp.route != RouteKind::Primary {
                failovers += 1;
            }
        }
        completed += 1;
    }
    assert_eq!(completed, schedule.len(), "every arrival completes");
    assert!(failovers > 0, "kill must force failovers");
    let snapshot = cluster.registry.snapshot();
    match snapshot.get("tv_cluster_failovers_total") {
        Some(tabviz::obs::MetricValue::Counter(n)) => {
            assert!(*n >= failovers as u64, "failovers attributed in metrics")
        }
        other => panic!("missing failover counter: {other:?}"),
    }

    // Revive: the node serves its affinity sessions again.
    assert!(cluster.revive(&victim));
    assert_eq!(cluster.nodes_up(), 4);
    let arr = &schedule[kill_index];
    let session = &sessions[&arr.session];
    let resp = session.query(&query_for(&arr.kind)).expect("post-revive");
    assert_eq!(resp.node, victim, "affinity returns to the revived node");
    assert_eq!(resp.route, RouteKind::Primary);
}

/// The cluster-level flight recorder attributes routing decisions: traces
/// carry `cluster_route` events with primary/failover reason codes, and the
/// node trace nested beneath carries the shared-tier probe.
#[test]
fn flight_recorder_attributes_routing() {
    let db = sample_db();
    let cluster = build_cluster(&db, 3, 5);
    let session = cluster.open_session("dash-0", "alice").expect("open");
    session
        .query(&query_for(&StormStep::Load))
        .expect("healthy query");
    let affinity = session.affinity_node().expect("affinity");
    cluster.kill(&affinity);
    session
        .query(&query_for(&StormStep::Load))
        .expect("failover query");
    cluster.revive(&affinity);

    let traces = cluster.recorder.recent();
    assert!(traces.len() >= 2, "cluster traces recorded");
    let mut reasons: Vec<&str> = traces.iter().flat_map(|t| t.reasons()).collect();
    reasons.sort_unstable();
    assert!(
        reasons.contains(&"route_primary"),
        "primary route attributed: {reasons:?}"
    );
    assert!(
        reasons.contains(&"route_failover"),
        "failover attributed: {reasons:?}"
    );
    assert!(
        traces.iter().any(|t| t.has_stage("cluster_route")),
        "cluster_route stage present"
    );
    let node_traces = cluster
        .node(&affinity)
        .expect("node")
        .server
        .flight_recorder()
        .recent();
    assert!(
        node_traces.iter().any(|t| t.has_stage("cache_tier")),
        "cache_tier stage present in the node trace"
    );
}

/// The read order, in counts: node L1, then the shared tier once, then the
/// backend and one publish to the R owners.
#[test]
fn shared_tier_is_probed_once_behind_l1() {
    let db = sample_db();
    let (cluster, sims) = build_cluster_over(&db, 4, 13, slow_backend(1));
    let sessions: Vec<ClusterSession> = (0..DASHBOARDS)
        .map(|d| {
            cluster
                .open_session(&format!("dash-{d}"), "alice")
                .expect("open")
        })
        .collect();
    let a = &sessions[0];
    let node_a = a.affinity_node().expect("affinity");
    let b = sessions
        .iter()
        .find(|s| s.affinity_node().expect("affinity") != node_a)
        .expect("some dashboard lives elsewhere");
    let query = filter_query(7);

    // A backend miss: one probe that finds nothing on either owner, one
    // backend trip, exactly R shard puts.
    let before = shard_ops(&cluster);
    let first = a.query(&query).expect("miss");
    assert_eq!(first.outcome, ExecOutcome::Remote);
    assert_eq!(first.node, node_a);
    assert!(first.peer_hit.is_none());
    let after_miss = shard_ops(&cluster);
    assert_eq!(after_miss.0 - before.0, 2, "a miss asks both owners");
    assert_eq!(after_miss.2 - before.2, 2, "one publish to R = 2 owners");
    assert_eq!(backend_queries(&sims), 1);
    assert_eq!(cluster.peer_stats().puts, 1);

    // Repeats are local: no shard operation at all.
    for _ in 0..3 {
        let again = a.query(&query).expect("l1 hit");
        assert_eq!(again.outcome, ExecOutcome::IntelligentHit);
    }
    assert_eq!(
        shard_ops(&cluster),
        after_miss,
        "an L1 answer costs no shard op"
    );

    // Another node's session: the tier answers, once, from the primary
    // owner, with no backend trip — and the answer moves into that node's L1.
    let remote = b.query(&query).expect("l2 hit");
    assert_eq!(remote.outcome, ExecOutcome::L2Hit);
    assert_ne!(remote.node, node_a);
    assert_eq!(remote.chunk.to_rows(), first.chunk.to_rows());
    let after_l2 = shard_ops(&cluster);
    assert_eq!(after_l2.0 - after_miss.0, 1, "one shard get");
    assert_eq!(after_l2.1 - after_miss.1, 1, "and it hit");
    assert_eq!(after_l2.2, after_miss.2, "an L2 hit publishes nothing");
    assert_eq!(backend_queries(&sims), 1);
    let third = b.query(&query).expect("promoted");
    assert!(matches!(
        third.outcome,
        ExecOutcome::IntelligentHit | ExecOutcome::LiteralHit
    ));
    assert_eq!(shard_ops(&cluster), after_l2);

    // The tier's own cells are what the registry exports.
    let peer = cluster.peer_stats();
    assert_eq!((peer.gets, peer.primary_hits, peer.misses), (2, 1, 1));
    let tier_lookups: u64 = cluster
        .nodes()
        .iter()
        .map(|n| {
            let t = n.server.processor.caches.tier_stats();
            t.l2_hits + t.l2_misses
        })
        .sum();
    assert_eq!(peer.gets, tier_lookups);
    let snapshot = cluster.registry.snapshot();
    for (name, want) in [
        ("tv_cluster_peer_hits_total", 1),
        ("tv_cluster_peer_replica_hits_total", 0),
        ("tv_cluster_peer_misses_total", 1),
    ] {
        match snapshot.get(name) {
            Some(tabviz::obs::MetricValue::Counter(n)) => assert_eq!(*n, want, "{name}"),
            other => panic!("missing {name}: {other:?}"),
        }
    }
}

/// Kill the node that computed a result: the failover node answers from the
/// shared tier without a backend trip — from a replica shard when the dead
/// node was the key's primary owner.
#[test]
fn failover_node_answers_from_a_surviving_shard() {
    let db = sample_db();
    let (cluster, sims) = build_cluster_over(&db, 4, 17, slow_backend(1));
    let session = cluster.open_session("dash-0", "alice").expect("open");
    let owner = session.affinity_node().expect("affinity");
    let mut replica_serves = 0;
    for selector in 0..12 {
        let query = filter_query(selector);
        let computed = session.query(&query).expect("compute");
        assert_eq!(computed.outcome, ExecOutcome::Remote);
        assert_eq!(computed.node, owner);
        let trips = backend_queries(&sims);
        let before = cluster.peer_stats();

        assert!(cluster.kill(&owner));
        let failed_over = session.query(&query).expect("failover");
        assert_ne!(failed_over.node, owner);
        assert_eq!(failed_over.outcome, ExecOutcome::L2Hit);
        assert_eq!(failed_over.chunk.to_rows(), computed.chunk.to_rows());
        assert_eq!(backend_queries(&sims), trips, "no backend trip");
        let after = cluster.peer_stats();
        assert_eq!(after.gets - before.gets, 1);
        assert_eq!(
            (after.primary_hits - before.primary_hits) + (after.replica_hits - before.replica_hits),
            1
        );
        replica_serves += after.replica_hits - before.replica_hits;
        assert!(cluster.revive(&owner));
    }
    assert!(
        replica_serves > 0,
        "the dead node was primary owner of no key in twelve"
    );
}

/// One 400 ms backend trip must not hold up the session's other queries: a
/// cached answer completes while the miss is still at the backend.
#[test]
fn cached_query_completes_while_a_miss_is_in_flight() {
    let db = sample_db();
    let (cluster, sims) = build_cluster_over(&db, 2, 19, slow_backend(400));
    let session = cluster.open_session("dash-0", "alice").expect("open");
    let node = session.affinity_node().expect("affinity");
    let sim = Arc::clone(&sims.lock().unwrap()[&node]);
    let cached = filter_query(1);
    session.query(&cached).expect("fill L1");
    assert_eq!(
        session.query(&cached).expect("l1").outcome,
        ExecOutcome::IntelligentHit
    );

    let miss_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let started = sim.stats().queries;
        let miss = scope.spawn(|| {
            let r = session.query(&filter_query(2));
            miss_done.store(true, Ordering::SeqCst);
            r
        });
        // The backend counts a query as it arrives, before its latency.
        while sim.stats().queries == started {
            std::thread::yield_now();
        }
        let hit = session.query(&cached).expect("hit beside the miss");
        let overtook = !miss_done.load(Ordering::SeqCst);
        assert_eq!(hit.outcome, ExecOutcome::IntelligentHit);
        let missed = miss.join().expect("miss thread").expect("miss");
        assert_eq!(missed.outcome, ExecOutcome::Remote);
        assert!(overtook, "the cached query waited for the backend trip");
    });
}

/// Affinity is *lazily* recomputed: `route()` reads the live ring on every
/// call, so a node joined after sessions opened absorbs its share of them
/// on their very next query — no reopen, no pinned stale owner lists.
#[test]
fn join_absorbs_existing_sessions() {
    let db = sample_db();
    let cluster = build_cluster(&db, 3, 9);
    let sessions: Vec<_> = (0..DASHBOARDS)
        .map(|d| {
            cluster
                .open_session(&format!("dash-{d}"), "alice")
                .expect("open")
        })
        .collect();
    let serve_nodes = |sessions: &[tabviz::cluster::ClusterSession]| -> Vec<String> {
        sessions
            .iter()
            .map(|s| s.query(&query_for(&StormStep::Load)).expect("query").node)
            .collect()
    };
    let before = serve_nodes(&sessions);
    assert!(!before.iter().any(|n| n == "node-3"));

    cluster.add_node("node-3").expect("join");
    assert_eq!(cluster.nodes_up(), 4);

    // No session was reopened, yet the next query of each routes on the
    // new ring: the joiner picks up every session whose owner moved.
    let after = serve_nodes(&sessions);
    assert!(
        after.iter().any(|n| n == "node-3"),
        "joiner absorbs existing sessions: {after:?}"
    );
    for (session, node) in sessions.iter().zip(&after) {
        assert_eq!(
            &session.affinity_node().expect("affinity"),
            node,
            "served node matches live-ring affinity"
        );
    }
    // Consistent hashing keeps the move bounded: most sessions stay where
    // their caches are warm.
    let unchanged = before.iter().zip(&after).filter(|(b, a)| b == a).count();
    assert!(
        unchanged * 2 > DASHBOARDS,
        "a join must not reshuffle most sessions ({unchanged}/{DASHBOARDS} unchanged)"
    );
}

/// Brown-out (no hard kill): the victim's backend turns 40ms-slow but keeps
/// answering. The EWMA health scorer demotes it from latency alone, routing
/// steers the session to a healthy replica, 1-in-8 probes keep the victim
/// observed, and once the fault clears those probes restore it to Primary.
#[test]
fn brownout_demotes_reroutes_then_probes_restore() {
    let db = sample_db();
    let (cluster, dbs) = build_cluster_over(&db, 3, 5, SimConfig::default());
    let session = cluster.open_session("dash-0", "alice").expect("open");
    let victim = session.affinity_node().expect("affinity");
    let filter_q = filter_query;

    // Warm the victim's baseline with fast serves (distinct selectors force
    // backend hits, so the scorer sees real latencies, not cache echoes).
    for i in 0..20 {
        let resp = session.query(&filter_q(i)).expect("warm query");
        assert_eq!(resp.node, victim);
    }
    assert!(!cluster.node(&victim).expect("node").is_demoted());

    // Brown-out: every backend query on the victim now takes 40ms.
    dbs.lock().unwrap()[&victim].set_fault_plan(Some(FaultPlan {
        slow_query: 1.0,
        slow_query_delay: std::time::Duration::from_millis(40),
        ..Default::default()
    }));
    let mut demoted_after = None;
    for i in 0..30 {
        session.query(&filter_q(1_000 + i)).expect("brownout query");
        if cluster.node(&victim).expect("node").is_demoted() {
            demoted_after = Some(i + 1);
            break;
        }
    }
    let demoted_after = demoted_after.expect("brown-out must demote the victim");
    assert!(demoted_after <= 10, "demoted after {demoted_after} serves");

    // While demoted, routes avoid the victim except the 1-in-8 probes.
    let mut on_victim = 0usize;
    let mut elsewhere = 0usize;
    for i in 0..24 {
        let resp = session.query(&filter_q(2_000 + i)).expect("demoted query");
        if resp.node == victim {
            on_victim += 1;
        } else {
            assert_ne!(resp.route, RouteKind::Primary, "reroute is attributed");
            elsewhere += 1;
        }
    }
    assert!(elsewhere >= 18, "routing steers around the sick node");
    assert!(
        (1..=5).contains(&on_victim),
        "probes keep observing the victim ({on_victim}/24)"
    );
    let snapshot = cluster.registry.snapshot();
    for counter in [
        "tv_cluster_health_reroutes_total",
        "tv_cluster_health_probes_total",
    ] {
        match snapshot.get(counter) {
            Some(tabviz::obs::MetricValue::Counter(n)) => assert!(*n > 0, "{counter} counted"),
            other => panic!("missing {counter}: {other:?}"),
        }
    }

    // Clear the fault: fast probe serves decay the EWMA and restore the
    // node; the session's very next query is Primary on it again.
    dbs.lock().unwrap()[&victim].set_fault_plan(None);
    let mut restored = false;
    for i in 0..400 {
        session.query(&filter_q(3_000 + i)).expect("recovery query");
        if !cluster.node(&victim).expect("node").is_demoted() {
            restored = true;
            break;
        }
    }
    assert!(restored, "cleared fault must restore the victim");
    let resp = session.query(&filter_q(9_999)).expect("post-restore");
    assert_eq!(resp.node, victim);
    assert_eq!(resp.route, RouteKind::Primary);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Consistent hashing's re-mapping bound, over ring sizes and seeds: a
    /// join moves at most ~K/N_new primary assignments (generous 2x + slack
    /// tolerance for vnode variance), and keys that do move all land on the
    /// joining node.
    #[test]
    fn join_remaps_bounded_key_fraction(nodes in 2usize..8, seed in 0u64..1_000) {
        let mut before = HashRing::new(seed, 48);
        for i in 0..nodes {
            before.add_node(&format!("node-{i}"));
        }
        let mut after = before.clone();
        after.add_node("joiner");

        const KEYS: usize = 600;
        let mut moved = 0usize;
        for k in 0..KEYS {
            let key = format!("key-{k}");
            let (p0, p1) = (before.primary(&key).unwrap(), after.primary(&key).unwrap());
            if p0 != p1 {
                prop_assert_eq!(p1, "joiner", "moved keys land on the joiner");
                moved += 1;
            }
        }
        let bound = 2 * KEYS / (nodes + 1) + KEYS / 20;
        prop_assert!(moved <= bound, "join moved {}/{} keys (bound {})", moved, KEYS, bound);

        // Leave is symmetric: removing the joiner restores the old map.
        let mut restored = after.clone();
        restored.remove_node("joiner");
        for k in 0..KEYS {
            let key = format!("key-{k}");
            prop_assert_eq!(before.primary(&key), restored.primary(&key));
        }
    }
}
