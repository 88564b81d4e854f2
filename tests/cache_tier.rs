//! L1 → L2 cache hierarchy end to end: tiered and flat deployments answer
//! byte-identically, tag invalidation is precise under concurrency, SWR
//! keeps dashboards rendering while Background revalidation refreshes, and
//! nodes joining a cluster arrive with a warm L1.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use tabviz::cache::intelligent::CacheConfig;
use tabviz::cache::{encode_chunk, ExternalStore};
use tabviz::prelude::*;
use tabviz::workloads::{generate_flights, FaaConfig};

fn flights_db() -> Arc<Database> {
    let flights = generate_flights(&FaaConfig::with_rows(5_000)).unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    db
}

/// A simulated warehouse whose every query takes at least a fixed dispatch
/// time, above the intelligent cache's default `min_cost` (50 µs): whether
/// a result is admitted then does not depend on how fast the host runs the
/// instant backend.
fn warehouse(db: &Arc<Database>) -> Arc<SimDb> {
    let config = SimConfig {
        latency: LatencyModel {
            dispatch: Duration::from_micros(200),
            ..LatencyModel::instant()
        },
        ..SimConfig::default()
    };
    Arc::new(SimDb::new("warehouse", Arc::clone(db), config))
}

fn processor_over(db: &Arc<Database>) -> QueryProcessor {
    let qp = QueryProcessor::default();
    qp.registry.register(warehouse(db), 4);
    qp
}

/// Canonical encoding of a result: rows sorted, re-chunked, then run through
/// the wire codec. Two chunks with the same data canonicalize to the same
/// bytes regardless of which tier (or which processor) produced them.
fn canonical_bytes(chunk: &Chunk) -> Vec<u8> {
    let mut rows = chunk.to_rows();
    rows.sort();
    let sorted = Chunk::from_rows(Arc::clone(chunk.schema()), &rows).unwrap();
    encode_chunk(&sorted).unwrap().to_vec()
}

fn spec_strategy() -> impl Strategy<Value = QuerySpec> {
    let dim = proptest::sample::select(vec!["carrier", "origin_state", "weekday"]);
    (dim, proptest::option::of(0i64..2_500), any::<bool>()).prop_map(|(d, bound, use_sum)| {
        let mut spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights")).group(d);
        spec = if use_sum {
            spec.agg(AggCall::new(AggFunc::Sum, Some(col("distance")), "v"))
        } else {
            spec.agg(AggCall::new(AggFunc::Count, None, "n"))
        };
        if let Some(b) = bound {
            spec = spec.filter(bin(BinOp::Le, col("distance"), lit(b)));
        }
        spec
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Equivalence: a flat (L1-only) processor, an L2-attached processor,
    /// and a second L2-attached processor sharing the same store must all
    /// return canonically byte-identical answers for any query sequence —
    /// whether served remote, from L1, or decoded out of L2.
    #[test]
    fn tiered_and_flat_results_are_byte_identical(
        specs in proptest::collection::vec(spec_strategy(), 1..6),
    ) {
        let db = flights_db();
        // Widening produces derived (post-processed) answers on some paths;
        // disable it so every processor runs the same pipeline and the
        // comparison isolates the tier seam itself.
        let mut flat = processor_over(&db);
        flat.options.widen_for_reuse = false;
        let store = Arc::new(ExternalStore::new(Duration::ZERO));
        let mut writer = processor_over(&db);
        writer.options.widen_for_reuse = false;
        writer.caches.set_l2(store.clone());
        let mut reader = processor_over(&db);
        reader.options.widen_for_reuse = false;
        reader.caches.set_l2(store.clone());

        for spec in &specs {
            let (a, _) = flat.execute(spec).unwrap();
            let (b, _) = writer.execute(spec).unwrap();
            let (c, _) = reader.execute(spec).unwrap();
            let bytes = canonical_bytes(&a);
            prop_assert_eq!(&bytes, &canonical_bytes(&b), "flat vs writer on {}", spec.canonical_text());
            prop_assert_eq!(&bytes, &canonical_bytes(&c), "flat vs reader on {}", spec.canonical_text());
        }
        // The reader's first sight of each spec missed L1 but found the
        // writer's store in L2: the hierarchy actually engaged.
        prop_assert!(reader.stats().l2_hits >= 1, "reader must hit L2");
        prop_assert_eq!(flat.stats().l2_hits, 0, "flat deployment never touches L2");
    }
}

/// Two processors over one external store (the standalone deployment):
/// the second node's first sight of a query is one external round trip,
/// its second a node-local hit; an empty store is a counted L2 miss that
/// falls through to the backend.
#[test]
fn single_store_l2_shares_across_processors_and_counts_the_miss_path() {
    let db = flights_db();
    let store = Arc::new(ExternalStore::new(Duration::ZERO));
    let node = || {
        let qp = processor_over(&db);
        qp.caches.set_l2(store.clone());
        qp
    };
    let (node1, node2) = (node(), node());
    let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
        .group("carrier")
        .agg(AggCall::new(AggFunc::Count, None, "n"));

    // Miss path: nothing anywhere, so node 1 probes L2 once and computes.
    let (computed, outcome) = node1.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::Remote);
    assert_eq!(node1.caches.tier_stats().l2_misses, 1);
    assert_eq!(store.stats().get_hits, 0);
    assert!(
        store.stats().bytes_stored > 0,
        "node 1 published the result"
    );

    // Node 2 never saw the query, but the external layer has it.
    let (shared, outcome) = node2.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::L2Hit);
    assert_eq!(canonical_bytes(&shared), canonical_bytes(&computed));
    assert_eq!(node2.stats().l2_hits, 1);
    // The second lookup on node 2 is node-local: still one external hit.
    let (_, outcome) = node2.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::IntelligentHit);
    assert_eq!(node2.stats().intelligent_hits, 1);
    assert_eq!(store.stats().get_hits, 1);
}

fn kv_chunk(val: i64) -> Chunk {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("val", DataType::Int),
        ])
        .unwrap(),
    );
    let data: Vec<Vec<Value>> = (0..300)
        .map(|i| vec![Value::Str(["a", "b", "c"][i % 3].into()), Value::Int(val)])
        .collect();
    Chunk::from_rows(schema, &data).unwrap()
}

fn kv_spec(table: &str) -> QuerySpec {
    QuerySpec::new("warehouse", LogicalPlan::scan(table))
        .group("k")
        .agg(AggCall::new(AggFunc::Sum, Some(col("val")), "s"))
}

/// Tag invalidation under concurrency: once `refresh_table` has purged the
/// refreshed table's dependents from both tiers, *no* concurrent query may
/// see the old data again (SWR is off, so a stale serve would be a bug, not
/// a grace-window serve). Entries of other tables survive untouched.
#[test]
fn concurrent_tag_purge_never_serves_stale() {
    let db = Arc::new(Database::new("kv"));
    db.put(Table::from_chunk("t", &kv_chunk(1), &[]).unwrap())
        .unwrap();
    db.put(Table::from_chunk("other", &kv_chunk(7), &[]).unwrap())
        .unwrap();
    let qp = Arc::new({
        let qp = processor_over(&db);
        qp.caches
            .set_l2(Arc::new(ExternalStore::new(Duration::ZERO)));
        qp
    });

    // Warm both tables' entries; repeat serves come from cache.
    let old = qp.execute(&kv_spec("t")).unwrap().0;
    qp.execute(&kv_spec("other")).unwrap();
    let (_, outcome) = qp.execute(&kv_spec("t")).unwrap();
    assert_eq!(outcome, ExecOutcome::IntelligentHit);

    // The table refreshes: new data lands, dependents are purged. Pooled
    // backend sessions snapshot the database at connect time, so a refresh
    // also recycles them — exactly what a production refresh broker does.
    db.put(Table::from_chunk("t", &kv_chunk(2), &[]).unwrap())
        .unwrap();
    qp.registry.get("warehouse").unwrap().pool.clear();
    let purged = qp.refresh_table("warehouse", "t");
    assert!(purged >= 1, "refresh must purge dependents, got {purged}");
    assert!(qp.caches.tier_stats().tag_purged >= 1);

    let mut fresh_rows = qp.execute(&kv_spec("t")).unwrap().0.to_rows();
    fresh_rows.sort();
    let mut old_rows = old.to_rows();
    old_rows.sort();
    assert_ne!(fresh_rows, old_rows, "the refresh visibly changed the data");

    // Hammer the purged spec from many threads: every answer must be the
    // new one. (The first post-purge query above already repopulated the
    // caches, so hits are expected — stale hits are not.)
    let barrier = Arc::new(std::sync::Barrier::new(8));
    std::thread::scope(|s| {
        for _ in 0..8 {
            let qp = Arc::clone(&qp);
            let barrier = Arc::clone(&barrier);
            let expected = fresh_rows.clone();
            s.spawn(move || {
                barrier.wait();
                for _ in 0..10 {
                    let mut rows = qp.execute(&kv_spec("t")).unwrap().0.to_rows();
                    rows.sort();
                    assert_eq!(rows, expected, "stale serve after tag purge");
                }
            });
        }
    });

    // Precision: the other table's entry was untouched by the purge.
    let (_, outcome) = qp.execute(&kv_spec("other")).unwrap();
    assert_eq!(
        outcome,
        ExecOutcome::IntelligentHit,
        "tag purge must not evict unrelated tables"
    );
}

/// Stale-while-revalidate: inside the grace window a stale-marked entry
/// still answers normal lookups (flagged `cache_swr_serve`), and a
/// Background-priority revalidation pass swaps in fresh data without any
/// caller ever blocking on the backend.
#[test]
fn swr_serves_within_grace_until_revalidated() {
    let db = Arc::new(Database::new("kv"));
    db.put(Table::from_chunk("t", &kv_chunk(1), &[]).unwrap())
        .unwrap();
    let caches = QueryCaches::new(CacheConfig {
        swr_grace: Duration::from_secs(30),
        ..Default::default()
    });
    let qp = QueryProcessor::new(caches);
    qp.registry.register(warehouse(&db), 4);

    let (old, outcome) = qp.execute(&kv_spec("t")).unwrap();
    assert_eq!(outcome, ExecOutcome::Remote);

    // The table refreshes; dependents are demoted to stale, not dropped.
    // (Pooled sessions snapshot at connect; recycle them so the backend
    // serves the new data to the revalidator.)
    db.put(Table::from_chunk("t", &kv_chunk(2), &[]).unwrap())
        .unwrap();
    qp.registry.get("warehouse").unwrap().pool.clear();
    let marked = qp.mark_table_stale("warehouse", "t");
    assert!(marked >= 1, "entries must be stale-marked, got {marked}");

    // Within the grace window the stale entry serves the normal path.
    let (served, outcome) = qp.execute(&kv_spec("t")).unwrap();
    assert_eq!(outcome, ExecOutcome::IntelligentHit, "SWR serve is a hit");
    assert_eq!(
        served.to_rows(),
        old.to_rows(),
        "grace serve is the stale data"
    );
    match qp
        .obs
        .registry
        .snapshot()
        .get("tv_cache_intelligent_swr_serves_total")
    {
        Some(tabviz::obs::MetricValue::Counter(n)) => assert!(*n >= 1),
        other => panic!("missing swr counter: {other:?}"),
    }
    assert!(
        qp.obs
            .recorder
            .recent()
            .iter()
            .any(|t| t.reasons().contains(&"cache_swr_serve")),
        "SWR serve must be attributed in the trace"
    );
    assert!(
        !qp.caches.stale_entries().is_empty(),
        "the entry stays stale for the revalidator"
    );

    // Background revalidation refreshes it; the next serve is fresh.
    let report = revalidate_pass(
        &qp,
        &RevalidateOptions {
            staleness_budget: Duration::ZERO,
            ..Default::default()
        },
    );
    assert!(report.refreshed >= 1, "revalidation refreshed: {report:?}");
    let (fresh, outcome) = qp.execute(&kv_spec("t")).unwrap();
    assert_eq!(outcome, ExecOutcome::IntelligentHit);
    let mut rows = fresh.to_rows();
    rows.sort();
    let mut expected: Vec<Vec<Value>> = vec![
        vec![Value::Str("a".into()), Value::Int(200)],
        vec![Value::Str("b".into()), Value::Int(200)],
        vec![Value::Str("c".into()), Value::Int(200)],
    ];
    expected.sort();
    assert_eq!(rows, expected, "post-revalidation serves the new data");
    assert!(qp.caches.stale_entries().is_empty());
}

fn build_cluster(db: &Arc<Database>, nodes: usize, seed: u64) -> Arc<Cluster> {
    let db = Arc::clone(db);
    Cluster::build(
        ClusterConfig {
            nodes,
            replication: 2,
            vnodes: 32,
            seed,
            peer_op_latency: Duration::ZERO,
        },
        move |name| {
            let sim = SimDb::new("warehouse", Arc::clone(&db), SimConfig::default());
            let qp = QueryProcessor::default();
            qp.registry.register(Arc::new(sim), 4);
            let server = Arc::new(DataServer::named(qp, name));
            for d in 0..8 {
                server.publish(PublishedSource::new(
                    format!("dash-{d}"),
                    "warehouse",
                    LogicalPlan::scan("flights"),
                ));
            }
            Ok(server)
        },
    )
    .expect("build cluster")
}

/// A node joining the cluster is warm-started: the members' hottest
/// intelligent-cache entries are replayed into its L1, and it serves them
/// as local hits from its very first query.
#[test]
fn node_join_receives_warm_entries() {
    let db = flights_db();
    let cluster = build_cluster(&db, 3, 17);
    // Heat the members' L1s: a few dashboards, repeated loads.
    for d in 0..6 {
        let session = cluster
            .open_session(&format!("dash-{d}"), "alice")
            .expect("open");
        let q = ClientQuery {
            group_by: vec!["carrier".into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
            ..Default::default()
        };
        for _ in 0..3 {
            session.query(&q).expect("warm query");
        }
    }

    cluster.add_node("node-3").expect("join");
    let joiner = cluster.node("node-3").expect("node");
    let warmed = joiner.server.processor.caches.intelligent.hot_entries(16);
    assert!(
        !warmed.is_empty(),
        "joiner must arrive with warmed L1 entries"
    );
    assert!(joiner.server.processor.caches.tier_stats().warmed >= 1);
    match cluster
        .registry
        .snapshot()
        .get("tv_cluster_entries_warmed_total")
    {
        Some(tabviz::obs::MetricValue::Counter(n)) => assert!(*n >= 1),
        other => panic!("missing warm counter: {other:?}"),
    }

    // The warmed entry serves locally on the joiner — no backend trip.
    let (spec, _, _) = &warmed[0];
    let (_, outcome) = joiner.server.processor.execute(spec).unwrap();
    assert_eq!(outcome, ExecOutcome::IntelligentHit);
}

/// The tier seam is observable cluster-wide: an L1-cold node answers from
/// the replicated L2 (with promotion), table refreshes purge by tag, and
/// all four tier reason codes plus the `tv_cache_tier_*` counters surface
/// in the cluster's federated metrics text.
#[test]
fn cluster_l2_hit_promote_and_metrics_surface() {
    let db = flights_db();
    let cluster = build_cluster(&db, 2, 23);
    let node_a = cluster.node("node-0").expect("node-0");
    let node_b = cluster.node("node-1").expect("node-1");
    let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
        .group("carrier")
        .agg(AggCall::new(AggFunc::Count, None, "n"));

    // Node A executes remote and publishes to L2; L1-cold node B answers
    // from L2 and promotes into its own L1.
    let (a, outcome) = node_a.server.processor.execute(&spec).unwrap();
    assert!(matches!(
        outcome,
        ExecOutcome::Remote | ExecOutcome::IntelligentHit
    ));
    let (b, outcome) = node_b.server.processor.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::L2Hit, "cold node must hit shared L2");
    assert_eq!(canonical_bytes(&a), canonical_bytes(&b));
    assert!(node_b.server.processor.caches.tier_stats().promotes >= 1);
    // Promoted: the next serve is a local L1 hit.
    let (_, outcome) = node_b.server.processor.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::IntelligentHit);

    // A table refresh purges dependents on every node, by tag.
    let purged = cluster.refresh_table("warehouse", "flights");
    assert!(purged >= 1, "cluster refresh must purge entries: {purged}");
    let (_, outcome) = node_b.server.processor.execute(&spec).unwrap();
    assert!(
        matches!(outcome, ExecOutcome::Remote),
        "post-purge query re-executes, got {outcome:?}"
    );

    // Reason codes in the node traces.
    let reasons: Vec<&str> = node_b
        .server
        .processor
        .obs
        .recorder
        .recent()
        .iter()
        .flat_map(|t| t.reasons())
        .collect();
    for code in ["cache_l2_hit", "cache_l2_promote", "cache_l1_hit"] {
        assert!(
            reasons.contains(&code),
            "missing reason {code}: {reasons:?}"
        );
    }

    // Federated metrics expose the tier counters cluster-wide.
    let text = cluster.metrics_text();
    for metric in [
        "tv_cache_tier_l2_hits_total",
        "tv_cache_tier_l2_misses_total",
        "tv_cache_tier_promotes_total",
        "tv_cache_tier_stores_total",
        "tv_cache_tier_tag_purged_total",
    ] {
        assert!(text.contains(metric), "metrics text missing {metric}");
    }
}
