//! Per-query flight records through the full stack: a cold query shows the
//! remote pipeline stages; the warm repeat shows a cache hit and no remote
//! work. Plus: metrics registry coverage over a dashboard batch, and the
//! registry and the `stats()` structs reading the same cells, summed over
//! a processor's pools.

use std::sync::{Arc, RwLock};
use std::time::Duration;
use tabviz::cache::intelligent::CacheConfig;
use tabviz::cache::ExternalStore;
use tabviz::obs::{stage, MetricValue, ProfileOutcome};
use tabviz::prelude::*;

/// Trace capture is a process-wide switch: tests that read the recorder
/// share this lock, the one test that turns capture off takes it alone.
static CAPTURE: RwLock<()> = RwLock::new(());

/// A simulated `faa` backend over `rows` generated flights.
fn flights_sim(rows: usize) -> SimDb {
    let flights =
        tabviz::workloads::generate_flights(&tabviz::workloads::FaaConfig::with_rows(rows))
            .unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    SimDb::new("faa", db, SimConfig::default())
}

fn flights_processor(rows: usize) -> QueryProcessor {
    let qp = QueryProcessor::default();
    qp.registry.register(Arc::new(flights_sim(rows)), 4);
    qp
}

fn count_by_carrier() -> QuerySpec {
    QuerySpec::new("faa", LogicalPlan::scan("flights"))
        .group("carrier")
        .agg(AggCall::new(AggFunc::Count, None, "n"))
}

#[test]
fn cold_query_profiles_remote_pipeline_warm_query_profiles_hit() {
    let _capturing = CAPTURE.read().unwrap_or_else(|e| e.into_inner());
    let qp = flights_processor(5_000);
    let spec = count_by_carrier();

    // Cold: the full remote pipeline.
    let (_, outcome) = qp.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::Remote);
    let cold = qp.obs.recorder.last().expect("cold profile recorded");
    assert_eq!(cold.outcome, ProfileOutcome::Remote);
    assert_eq!(cold.source, "faa");
    assert_eq!(cold.retries(), 0);
    for required in [
        stage::CACHE_LOOKUP,
        stage::COMPILE,
        stage::POOL_ACQUIRE,
        stage::REMOTE_EXEC,
        stage::POST_PROCESS,
        stage::CACHE_STORE,
    ] {
        assert!(
            cold.has_stage(required),
            "cold profile missing stage '{required}':\n{}",
            cold.render()
        );
    }
    // The remote round trip is nested inside the query, not a root span.
    let remote = cold.stage(stage::REMOTE_EXEC).unwrap();
    assert!(remote.dur <= cold.total);

    // Warm: answered by the intelligent cache, no remote stages at all.
    let (_, outcome) = qp.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::IntelligentHit);
    let warm = qp.obs.recorder.last().expect("warm profile recorded");
    assert_eq!(warm.outcome, ProfileOutcome::Hit);
    let lookup = warm.stage(stage::CACHE_LOOKUP).unwrap();
    assert_eq!(lookup.label, Some("intelligent"));
    for absent in [stage::REMOTE_EXEC, stage::POOL_ACQUIRE, stage::TEMP_TABLES] {
        assert!(
            !warm.has_stage(absent),
            "warm profile must not contain '{absent}':\n{}",
            warm.render()
        );
    }
    assert_eq!(qp.obs.recorder.len(), 2);
}

#[test]
fn dashboard_batch_produces_profiles_and_metrics() {
    let _capturing = CAPTURE.read().unwrap_or_else(|e| e.into_inner());
    let qp = flights_processor(5_000);
    let batch: Vec<(String, QuerySpec)> = vec![
        (
            "by_carrier".into(),
            QuerySpec::new("faa", LogicalPlan::scan("flights"))
                .group("carrier")
                .agg(AggCall::new(AggFunc::Count, None, "n")),
        ),
        (
            "by_carrier_market".into(),
            QuerySpec::new("faa", LogicalPlan::scan("flights"))
                .group("carrier")
                .group("market")
                .agg(AggCall::new(AggFunc::Count, None, "n")),
        ),
        (
            "avg_delay".into(),
            QuerySpec::new("faa", LogicalPlan::scan("flights"))
                .group("carrier")
                .agg(AggCall::new(AggFunc::Avg, Some(col("arr_delay")), "avg")),
        ),
    ];
    let out = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
    assert_eq!(out.results.len(), 3);

    // Every executed query left a profile; together they cover the paper's
    // Sect. 3 stage decomposition.
    let profiles = qp.obs.recorder.recent();
    assert!(!profiles.is_empty());
    for required in [
        stage::CACHE_LOOKUP,
        stage::COMPILE,
        stage::POOL_ACQUIRE,
        stage::REMOTE_EXEC,
        stage::POST_PROCESS,
        stage::CACHE_STORE,
    ] {
        assert!(
            profiles.iter().any(|p| p.has_stage(required)),
            "no batch profile contains stage '{required}'"
        );
    }

    // The registry saw core, cache, pool and batch activity.
    let snap = qp.obs.registry.snapshot();
    for key in [
        "tv_core_queries_total",
        "tv_core_remote_queries_total",
        "tv_core_query_seconds",
        "tv_core_batches_total",
        "tv_backend_pool_opened_total",
        "tv_backend_pool_acquire_wait_seconds",
        "tv_cache_intelligent_misses_total",
        "tv_cache_stale_age_seconds",
    ] {
        assert!(snap.contains_key(key), "metric '{key}' missing: {snap:?}");
    }
    match &snap["tv_core_queries_total"] {
        MetricValue::Counter(n) => assert!(*n >= batch.len() as u64),
        other => panic!("unexpected kind: {other:?}"),
    }

    // Exposition parses as text and mentions the histogram machinery.
    let text = qp.obs.registry.render_text();
    assert!(text.contains("# TYPE tv_core_query_seconds histogram"));
    assert!(text.contains("tv_core_queries_total"));
}

#[test]
fn injected_faults_are_attributed_in_profiles() {
    let _capturing = CAPTURE.read().unwrap_or_else(|e| e.into_inner());
    let spec = count_by_carrier();
    let sim = flights_sim(1_000);
    let qp2 = QueryProcessor::default();
    qp2.registry.register(Arc::new(sim.clone()), 4);
    // Warm the cache, mark stale, then force connection drops.
    qp2.execute(&spec).unwrap();
    qp2.mark_source_stale("faa");
    let mut plan = FaultPlan::seeded(11);
    plan.connection_drop = 1.0;
    sim.set_fault_plan(Some(plan));
    let (_, outcome) = qp2.execute(&spec).unwrap();
    assert_eq!(outcome, ExecOutcome::DegradedStale);
    let prof = qp2.obs.recorder.last().unwrap();
    assert_eq!(prof.outcome, ProfileOutcome::DegradedStale);
    let faults = prof.faults();
    assert!(
        !faults.is_empty(),
        "degraded profile must attribute the injected faults:\n{}",
        prof.render()
    );
    assert!(faults.iter().all(|f| f.site == "connection_drop"));
    // One fault per attempt, each tagged with its own seed-roll ordinal.
    let mut ordinals: Vec<u64> = faults.iter().map(|f| f.ordinal).collect();
    ordinals.dedup();
    assert_eq!(ordinals.len(), faults.len(), "{faults:?}");
    // The default retry budget was spent before degrading.
    assert_eq!(prof.retries(), 2);
    // And the stale serve shows up in the age-at-serve histogram.
    let snap = qp2.obs.registry.snapshot();
    match snap.get("tv_cache_stale_age_seconds") {
        Some(MetricValue::Histogram(h)) => assert!(h.count >= 1),
        other => panic!("stale-age histogram missing: {other:?}"),
    }
}

#[test]
fn capture_off_keeps_answers_and_counters_but_records_nothing() {
    let _exclusive = CAPTURE.write().unwrap_or_else(|e| e.into_inner());
    let spec = count_by_carrier();
    let on = flights_processor(2_000);
    let (traced, _) = on.execute(&spec).unwrap();
    assert_eq!(on.obs.recorder.len(), 1);

    let off = flights_processor(2_000);
    tabviz::obs::trace::set_capture(false);
    let cold = off.execute(&spec);
    let warm = off.execute(&spec);
    tabviz::obs::trace::set_capture(true);

    let (chunk, outcome) = cold.unwrap();
    assert_eq!(outcome, ExecOutcome::Remote);
    assert_eq!(chunk, traced, "capture must not change the answer");
    assert_eq!(warm.unwrap().1, ExecOutcome::IntelligentHit);
    let stats = off.stats();
    assert_eq!((stats.remote_queries, stats.intelligent_hits), (1, 1));
    assert!(off.obs.recorder.is_empty());
    assert_eq!(off.obs.recorder.bytes(), 0);
    assert!(off.obs.baselines.is_empty());
}

/// Every `tv_cache_*` / `tv_core_*` / `tv_backend_pool_*` / `tv_sched_*` /
/// `tv_dataserver_*` counter is the cell its component's `stats()` reads:
/// counts made before the caches were bound to a registry show in the
/// snapshot, and the two views agree field by field.
#[test]
fn stats_and_registry_read_one_cell() {
    let kv_spec = |table: &str| {
        QuerySpec::new("warehouse", LogicalPlan::scan(table))
            .group("k")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    };
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("n", DataType::Int),
        ])
        .unwrap(),
    );
    let chunk = Chunk::from_rows(schema, &[vec!["a".into(), Value::Int(1)]]).unwrap();
    // Room for two results in L1, so a third store evicts.
    let room = chunk.approx_bytes() * 2 + 1;
    let caches = QueryCaches::new(CacheConfig {
        capacity_bytes: room,
        min_cost: Duration::from_millis(1),
        ..Default::default()
    });
    caches.set_l2(Arc::new(ExternalStore::new(Duration::ZERO)));
    // Misses, inserts (one rejected as too cheap), evictions, an exact hit,
    // an L2 store / miss / hit / promote, a warm-up and a tag purge.
    let drive = |caches: &QueryCaches, round: usize| {
        let cost = Duration::from_millis(5);
        for i in 0..3 {
            let spec = kv_spec(&format!("t{round}_{i}"));
            let text = spec.canonical_text();
            assert!(caches.lookup(&spec, &text).0.is_none());
            caches.store(spec.clone(), &text, &chunk, cost);
            caches.l2_store(&spec, &chunk);
        }
        let last = kv_spec(&format!("t{round}_2"));
        assert!(caches.lookup(&last, "").0.is_some());
        caches
            .intelligent
            .put(kv_spec("cheap"), chunk.clone(), Duration::ZERO);
        assert!(caches.l2_lookup(&kv_spec("absent")).is_none());
        let first = kv_spec(&format!("t{round}_0"));
        let hit = caches.l2_lookup(&first).expect("published to L2");
        caches.l2_promote(first.clone(), &first.canonical_text(), &hit, cost);
        caches.warm(kv_spec(&format!("warm{round}")), &chunk, cost);
        assert!(caches.purge_table("warehouse", &format!("t{round}_0")) >= 1);
    };
    drive(&caches, 0);
    assert!(caches.stats().0.evictions > 0, "unbound counts must exist");

    let qp = QueryProcessor::new(caches);
    drive(&qp.caches, 1);
    // The processor's own cells: a remote query, then two answers from the
    // hierarchy — the last one, with L1 cleared, an L2 hit promoted back.
    let sim = flights_sim(1_000);
    qp.registry.register(Arc::new(sim.clone()), 2);
    let spec = count_by_carrier();
    assert_eq!(qp.execute(&spec).unwrap().1, ExecOutcome::Remote);
    assert_ne!(qp.execute(&spec).unwrap().1, ExecOutcome::Remote);
    qp.caches.clear();
    assert_eq!(qp.execute(&spec).unwrap().1, ExecOutcome::L2Hit);

    let snap = qp.obs.registry.snapshot();
    let (i, l) = qp.caches.stats();
    let t = qp.caches.tier_stats();
    let p = qp.stats();
    let pairs = [
        ("tv_cache_intelligent_exact_hits_total", i.exact_hits),
        (
            "tv_cache_intelligent_subsumption_hits_total",
            i.subsumption_hits,
        ),
        ("tv_cache_intelligent_misses_total", i.misses),
        ("tv_cache_intelligent_inserts_total", i.inserts),
        (
            "tv_cache_intelligent_rejected_inserts_total",
            i.rejected_inserts,
        ),
        ("tv_cache_intelligent_evictions_total", i.evictions),
        ("tv_cache_intelligent_stale_serves_total", i.stale_serves),
        ("tv_cache_intelligent_swr_serves_total", i.swr_serves),
        ("tv_cache_literal_hits_total", l.hits),
        ("tv_cache_literal_misses_total", l.misses),
        ("tv_cache_literal_inserts_total", l.inserts),
        ("tv_cache_literal_evictions_total", l.evictions),
        ("tv_cache_literal_stale_serves_total", l.stale_serves),
        ("tv_cache_tier_l2_hits_total", t.l2_hits),
        ("tv_cache_tier_l2_misses_total", t.l2_misses),
        ("tv_cache_tier_promotes_total", t.promotes),
        ("tv_cache_tier_stores_total", t.l2_stores),
        ("tv_cache_tier_tag_purged_total", t.tag_purged),
        ("tv_cache_tier_warmed_total", t.warmed),
        ("tv_core_intelligent_hits_total", p.intelligent_hits),
        ("tv_core_literal_hits_total", p.literal_hits),
        ("tv_core_l2_hits_total", p.l2_hits),
        ("tv_core_remote_queries_total", p.remote_queries),
        ("tv_core_widened_queries_total", p.widened_queries),
        ("tv_core_transient_retries_total", p.transient_retries),
        ("tv_core_degraded_serves_total", p.degraded_serves),
        ("tv_core_temp_table_fallbacks_total", p.temp_table_fallbacks),
    ];
    for (name, stat) in pairs {
        match snap.get(name) {
            Some(MetricValue::Counter(v)) => assert_eq!(*v, stat, "{name}"),
            other => panic!("{name}: {other:?}"),
        }
    }
    // The traffic above really moved the cells the issue names.
    assert!(i.exact_hits >= 2 && i.misses >= 6 && i.inserts >= 6);
    assert!(i.evictions >= 2 && i.rejected_inserts >= 2);
    assert!(l.misses >= 6 && l.evictions >= 2);
    assert!(t.promotes >= 3 && t.tag_purged >= 2 && t.warmed == 2 && t.l2_misses >= 2);
    assert_eq!(p.remote_queries, 1);
    assert_eq!(p.intelligent_hits + p.literal_hits + p.l2_hits, 2);
    assert!(p.l2_hits >= 1);
    match &snap["tv_core_queries_total"] {
        MetricValue::Counter(n) => assert_eq!(*n, 3),
        other => panic!("unexpected kind: {other:?}"),
    }

    // The same processor behind a Data Server, with a scheduler whose
    // Batch / Background classes shed at any queue depth.
    let mut sched_config = SchedConfig::new(2);
    sched_config.shed_depth = [1, 0, 0];
    let sched = Arc::new(Scheduler::new(sched_config));
    let mut qp = qp;
    qp.set_scheduler(Arc::clone(&sched));
    let server = Arc::new(DataServer::new(qp));
    server.publish(PublishedSource::new(
        "flights",
        "faa",
        LogicalPlan::scan("flights"),
    ));

    // Data Server: a set upload, a domain answered from memory, a query
    // referencing the set, then a degraded serve during an outage.
    let mut session = server.connect("flights", "analyst").unwrap();
    let carriers = ["AA", "DL", "WN"].map(|c| Value::Str(c.into())).to_vec();
    let set = session.define_set("carrier", carriers).unwrap();
    assert_eq!(session.set_domain(&set).unwrap().len(), 3);
    let by_carrier = ClientQuery {
        group_by: vec!["carrier".into()],
        aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
        ..Default::default()
    };
    let in_set = ClientQuery {
        set_refs: vec![set],
        ..by_carrier.clone()
    };
    session.query(&in_set).unwrap();
    // Demote the L1 entries to stale and drop the L2 copies.
    assert!(server.processor.mark_table_stale("faa", "flights") >= 1);
    let mut drop_all = FaultPlan::seeded(3);
    drop_all.connection_drop = 1.0;
    sim.set_fault_plan(Some(drop_all));
    let (_, outcome) = session.query(&by_carrier).unwrap();
    assert_eq!(outcome, ExecOutcome::DegradedStale);
    sim.set_fault_plan(None);

    // Scheduler: two grants fill both slots; then an
    // Interactive ticket expires in the queue and a Background and a Batch
    // arrival are shed.
    let background = sched.admit(&AdmitRequest::background("bg")).unwrap();
    let batch = sched.admit(&AdmitRequest::batch("etl")).unwrap();
    let late = AdmitRequest::interactive("late").with_deadline(Duration::from_millis(5));
    assert!(sched.admit(&late).is_err());
    assert!(sched.admit(&AdmitRequest::background("bg2")).is_err());
    assert!(sched.admit(&AdmitRequest::batch("etl2")).is_err());
    drop((background, batch));

    // Pool: a timed-out wait, an explicit poison, a clear, connect retries
    // until the breaker trips, and a fast fail behind it.
    let managed = server.processor.registry.get("faa").unwrap();
    let pool = &managed.pool;
    let held = (pool.acquire().unwrap(), pool.acquire().unwrap());
    assert!(pool
        .acquire_within(None, Some(Duration::from_millis(5)))
        .is_err());
    drop(held);
    pool.acquire().unwrap().poison();
    pool.clear();
    let mut refuse = FaultPlan::seeded(5);
    refuse.connect_failure = 1.0;
    sim.set_fault_plan(Some(refuse));
    for _ in 0..3 {
        assert!(pool.acquire().is_err());
    }
    sim.set_fault_plan(None);

    let snap = server.registry().snapshot();
    let o = pool.stats();
    let q = sched.stats();
    let d = server.stats();
    let mut pairs = vec![
        ("tv_backend_pool_opened_total", o.opened as u64),
        ("tv_backend_pool_reused_total", o.reused as u64),
        ("tv_backend_pool_waited_total", o.waited as u64),
        ("tv_backend_pool_evicted_total", o.evicted as u64),
        ("tv_backend_pool_poisoned_total", o.poisoned as u64),
        (
            "tv_backend_pool_connect_retries_total",
            o.connect_retries as u64,
        ),
        (
            "tv_backend_pool_acquire_timeouts_total",
            o.acquire_timeouts as u64,
        ),
        ("tv_pool_breaker_trips_total", o.breaker_trips as u64),
        (
            "tv_pool_breaker_fast_fails_total",
            o.breaker_fast_fails as u64,
        ),
        ("tv_dataserver_queries_total", d.queries),
        ("tv_dataserver_client_bytes_in_total", d.client_bytes_in),
        ("tv_dataserver_client_bytes_out_total", d.client_bytes_out),
        ("tv_dataserver_set_definitions_total", d.set_definitions),
        (
            "tv_dataserver_answered_from_memory_total",
            d.answered_from_memory,
        ),
        ("tv_dataserver_degraded_serves_total", d.degraded_serves),
    ];
    let per_class: Vec<_> = Priority::ALL
        .iter()
        .flat_map(|p| {
            let (i, c) = (p.idx(), p.name());
            [
                (format!("tv_sched_admitted_total_{c}"), q.admitted[i]),
                (format!("tv_sched_sheds_total_{c}"), q.shed[i]),
                (
                    format!("tv_sched_deadline_sheds_total_{c}"),
                    q.deadline_shed[i],
                ),
            ]
        })
        .collect();
    pairs.extend(per_class.iter().map(|(n, v)| (n.as_str(), *v)));
    let drift: Vec<String> = pairs
        .into_iter()
        .filter_map(|(name, stat)| match snap.get(name) {
            Some(MetricValue::Counter(v)) if *v == stat => None,
            other => Some(format!("{name}: stats {stat}, registry {other:?}")),
        })
        .collect();
    assert!(drift.is_empty(), "stats and registry disagree:\n{drift:#?}");
    // The traffic above really moved the cells the pairs compare.
    assert!(o.opened >= 2 && o.reused >= 1 && o.waited >= 1 && o.evicted >= 1);
    assert!(o.poisoned >= 2 && o.connect_retries >= 3 && o.acquire_timeouts == 1);
    assert_eq!((o.breaker_trips, o.breaker_fast_fails), (1, 1));
    assert_eq!(q.admitted[Priority::Background.idx()], 1);
    assert_eq!(q.admitted[Priority::Batch.idx()], 1);
    assert!(q.admitted[Priority::Interactive.idx()] >= 1);
    assert_eq!(q.shed, [0, 1, 1]);
    assert_eq!(q.deadline_shed, [1, 0, 0]);
    assert_eq!(
        (d.queries, d.set_definitions, d.answered_from_memory),
        (2, 1, 1)
    );
    assert_eq!(d.degraded_serves, 1);
    assert!(d.client_bytes_in > 0 && d.client_bytes_out > 0);
}

/// One processor, two sources: each pool's `stats()` counts only its own
/// connections, the `tv_backend_pool_*` family exports their sum, and
/// re-registering a source (a fresh pool) never lowers the family.
#[test]
fn several_pools_export_one_summed_family() {
    let flights =
        tabviz::workloads::generate_flights(&tabviz::workloads::FaaConfig::with_rows(500)).unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    let sim = |name: &str| Arc::new(SimDb::new(name, Arc::clone(&db), SimConfig::default()));
    let qp = QueryProcessor::default();
    let lake = qp.registry.register(sim("lake"), 1);
    let mart = qp.registry.register(sim("mart"), 3);
    let opened_family = || match qp
        .obs
        .registry
        .snapshot()
        .get("tv_backend_pool_opened_total")
    {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("tv_backend_pool_opened_total: {other:?}"),
    };

    // One query per source opens one connection each; two more held at
    // once on the mart open a second there.
    for source in ["lake", "mart"] {
        let spec = QuerySpec::new(source, LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        assert_eq!(qp.execute(&spec).unwrap().1, ExecOutcome::Remote);
    }
    drop((mart.pool.acquire().unwrap(), mart.pool.acquire().unwrap()));
    assert_eq!((lake.pool.stats().opened, lake.pool.stats().reused), (1, 0));
    assert_eq!((mart.pool.stats().opened, mart.pool.stats().reused), (2, 1));
    assert_eq!(opened_family(), 3);

    // Re-registering "mart" builds a fresh pool; the old pool's count stays
    // in the family and the new pool's connections add to it.
    let mart_again = qp.registry.register(sim("mart"), 3);
    assert_eq!(mart_again.pool.stats().opened, 0);
    assert_eq!(opened_family(), 3);
    drop(mart_again.pool.acquire().unwrap());
    assert_eq!(mart_again.pool.stats().opened, 1);
    assert_eq!(opened_family(), 4);
}
