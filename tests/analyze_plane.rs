//! Tail-latency root-cause analysis plane: critical-path invariants over
//! randomized span trees, verdict classification for every reason code,
//! OpenMetrics exemplar capture/scrape, recorder pinning of
//! exemplar-referenced traces, and the end-to-end slow-query surfaces
//! (`DataServer::why_slow`, `Cluster::diagnostics_report`).

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabviz::cluster::{Cluster, ClusterConfig};
use tabviz::obs::{
    analyze, begin_trace, critical_path, diagnose, reason, scrape_exemplars, stage, ClassBaselines,
    Federation, Fingerprint, FlightRecorder, FlightRecorderConfig, MetricValue, ProfileOutcome,
    RecordedTrace, Registry, SpanEvent, Verdict,
};
use tabviz::prelude::*;

// ---------------------------------------------------------------------------
// synthetic-trace helpers

fn ev(span_id: u64, parent: Option<u64>, stage: &'static str, dur: Duration) -> SpanEvent {
    SpanEvent {
        stage,
        label: None,
        detail: None,
        reason: None,
        start: Instant::now(),
        dur,
        depth: 0,
        trace_id: 1,
        span_id,
        parent,
        lane: 0,
    }
}

fn ev_ms(span_id: u64, parent: Option<u64>, stage: &'static str, ms: u64) -> SpanEvent {
    ev(span_id, parent, stage, Duration::from_millis(ms))
}

fn with_reason(mut e: SpanEvent, r: &'static str) -> SpanEvent {
    e.reason = Some(r);
    e
}

fn with_label(mut e: SpanEvent, l: &'static str, detail: u64) -> SpanEvent {
    e.label = Some(l);
    e.detail = Some(detail);
    e
}

fn trace_of(events: Vec<SpanEvent>, total_ms: u64) -> RecordedTrace {
    RecordedTrace {
        trace_id: 1,
        parent_trace: None,
        query: "q".into(),
        source: "s".into(),
        class: "c".into(),
        outcome: ProfileOutcome::Remote,
        total: Duration::from_millis(total_ms),
        started: Instant::now(),
        events,
        dropped_events: 0,
    }
}

/// A 100ms trace whose root holds one dominant child stage.
fn dominated_by(stage_name: &'static str, ms: u64) -> Vec<SpanEvent> {
    vec![
        ev_ms(1, None, stage::QUERY, 100),
        ev_ms(2, Some(1), stage_name, ms),
        ev_ms(3, Some(1), stage::POST_PROCESS, 4),
    ]
}

// ---------------------------------------------------------------------------
// critical path

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Over arbitrary span trees (random parent links, random durations):
    /// the critical path is connected root-to-leaf, its attributed self
    /// time never exceeds the trace wall time, step durations are
    /// non-increasing along the path, and extraction is deterministic.
    #[test]
    fn critical_path_invariants(
        tree in proptest::collection::vec((0u64..1000, 0u64..5_000_000), 1..40),
        total_micros in 1u64..10_000_000,
    ) {
        const STAGES: [&str; 5] = [
            stage::QUERY,
            stage::SCHED_QUEUE,
            stage::REMOTE_EXEC,
            stage::TDE_EXEC,
            stage::POST_PROCESS,
        ];
        let events: Vec<SpanEvent> = tree
            .iter()
            .enumerate()
            .map(|(i, (pchoice, dur))| {
                let span_id = (i + 1) as u64;
                let parent = (i > 0).then(|| pchoice % i as u64 + 1);
                ev(span_id, parent, STAGES[i % STAGES.len()], Duration::from_micros(*dur))
            })
            .collect();
        let total = Duration::from_micros(total_micros);
        let cp = critical_path(&events, total);
        let again = critical_path(&events, total);
        prop_assert_eq!(
            cp.steps.iter().map(|s| s.span_id).collect::<Vec<_>>(),
            again.steps.iter().map(|s| s.span_id).collect::<Vec<_>>(),
            "extraction must be deterministic"
        );
        prop_assert!(cp.attributed <= cp.total, "attributed {:?} > total {:?}", cp.attributed, cp.total);
        prop_assert_eq!(cp.steps[0].span_id, 1, "path must start at the root");
        for w in cp.steps.windows(2) {
            let child = events.iter().find(|e| e.span_id == w[1].span_id).unwrap();
            prop_assert_eq!(child.parent, Some(w[0].span_id), "path must follow parent links");
            prop_assert!(w[1].dur <= w[0].dur, "clamped durations must not grow downward");
        }
        let last = cp.steps.last().unwrap();
        prop_assert!(
            events.iter().all(|e| e.parent != Some(last.span_id)),
            "path must end at a leaf"
        );
    }
}

#[test]
fn critical_path_attributes_self_time() {
    // query(100) -> remote_exec(80) -> temp_tables(10); post_process(5).
    let events = vec![
        ev_ms(1, None, stage::QUERY, 100),
        ev_ms(2, Some(1), stage::REMOTE_EXEC, 80),
        ev_ms(3, Some(2), stage::TEMP_TABLES, 10),
        ev_ms(4, Some(1), stage::POST_PROCESS, 5),
    ];
    let cp = critical_path(&events, Duration::from_millis(100));
    let path: Vec<&str> = cp.steps.iter().map(|s| s.stage).collect();
    assert_eq!(
        path,
        vec![stage::QUERY, stage::REMOTE_EXEC, stage::TEMP_TABLES]
    );
    // Root holds 100 - (80 + 5) = 15ms beyond its children.
    assert_eq!(cp.steps[0].self_time, Duration::from_millis(15));
    assert_eq!(cp.steps[1].self_time, Duration::from_millis(70));
    assert_eq!(cp.steps[2].self_time, Duration::from_millis(10));
    assert_eq!(cp.attributed, Duration::from_millis(95));
    assert_eq!(cp.dominant().unwrap().stage, stage::REMOTE_EXEC);
    assert!(cp.render().contains("remote_exec"));
}

// ---------------------------------------------------------------------------
// verdict classification: one scenario per reason code

#[test]
fn verdict_queue_wait() {
    let mut events = dominated_by(stage::SCHED_QUEUE, 80);
    events[1] = with_reason(events[1].clone(), reason::SCHED_QUEUED);
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::QueueWait);
    assert_eq!(d.culprit_stage, stage::SCHED_QUEUE);
    assert!(d.evidence.contains(&reason::SCHED_QUEUED));
    assert!(d.share > 0.7, "share {:.2}", d.share);
}

#[test]
fn verdict_breaker_fastfail_wins_over_shares() {
    // Hard evidence beats the share ranking even when another stage holds
    // more time.
    let mut events = dominated_by(stage::REMOTE_EXEC, 80);
    events.push(with_reason(
        ev_ms(4, Some(1), stage::POOL_ACQUIRE, 1),
        reason::POOL_BREAKER_OPEN,
    ));
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::BreakerFastfail);
    assert_eq!(d.culprit_stage, stage::POOL_ACQUIRE);
    assert_eq!(d.evidence, vec![reason::POOL_BREAKER_OPEN]);
}

#[test]
fn verdict_pool_acquire_timeout_and_share() {
    let mut events = dominated_by(stage::TDE_EXEC, 30);
    events.push(with_reason(
        ev_ms(4, Some(1), stage::POOL_ACQUIRE, 2),
        reason::POOL_TIMEOUT,
    ));
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::PoolAcquire);
    assert_eq!(d.evidence, vec![reason::POOL_TIMEOUT]);

    // Share path, no terminal reason: waiting on the pool dominated.
    let d = diagnose(&trace_of(dominated_by(stage::POOL_ACQUIRE, 75), 100), None);
    assert_eq!(d.verdict, Verdict::PoolAcquire);
    assert_eq!(d.culprit_stage, stage::POOL_ACQUIRE);
}

#[test]
fn verdict_backend_slow_vs_cache_miss_storm() {
    let mut events = dominated_by(stage::REMOTE_EXEC, 85);
    events.push(with_reason(
        ev_ms(4, Some(1), stage::CACHE_LOOKUP, 1),
        reason::CACHE_MISS_NO_CANDIDATE,
    ));
    let trace = trace_of(events, 100);

    // Without a baseline, going remote is assumed normal: backend is slow.
    let d = diagnose(&trace, None);
    assert_eq!(d.verdict, Verdict::BackendSlow);
    assert_eq!(d.culprit_stage, stage::REMOTE_EXEC);
    assert_eq!(d.evidence, vec![reason::CACHE_MISS_NO_CANDIDATE]);

    // Same trace, but the class normally serves from cache (remote share
    // ~5%): the miss IS the story.
    let baseline = Fingerprint {
        // [sched, pool, remote, tde, cache_lookup, peer, post, store]
        shares: [0.0, 0.0, 0.05, 0.0, 0.6, 0.0, 0.25, 0.05],
        samples: 20,
        mean_total_micros: 3_000.0,
    };
    let d = diagnose(&trace, Some(&baseline));
    assert_eq!(d.verdict, Verdict::CacheMissStorm);
    assert_eq!(d.evidence, vec![reason::CACHE_MISS_NO_CANDIDATE]);
    assert!(d.baseline_share < 0.1);

    // And when the class already goes remote routinely, a miss stays a
    // slow-backend verdict.
    let remote_class = Fingerprint {
        shares: [0.0, 0.05, 0.7, 0.0, 0.05, 0.0, 0.15, 0.05],
        samples: 20,
        mean_total_micros: 50_000.0,
    };
    let d = diagnose(&trace, Some(&remote_class));
    assert_eq!(d.verdict, Verdict::BackendSlow);
}

#[test]
fn verdict_l2_miss_promote() {
    let mut events = dominated_by(stage::CACHE_LOOKUP, 60);
    events[1] = with_reason(events[1].clone(), reason::CACHE_L2_PROMOTE);
    events.push(with_reason(
        ev_ms(4, Some(2), stage::CACHE_TIER, 40),
        reason::CACHE_L2_HIT,
    ));
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::L2MissPromote);
}

#[test]
fn verdict_swr_revalidate_contention() {
    let mut events = dominated_by(stage::CACHE_LOOKUP, 60);
    events[1] = with_reason(events[1].clone(), reason::CACHE_SWR_SERVE);
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::SwrRevalidateContention);
    assert_eq!(d.evidence, vec![reason::CACHE_SWR_SERVE]);
}

#[test]
fn verdict_prune_regression() {
    let mut events = dominated_by(stage::TDE_EXEC, 80);
    events.push(with_label(
        ev_ms(4, Some(2), stage::SCAN_PRUNE, 0),
        "blocks_skipped",
        0,
    ));
    events.push(with_label(
        ev_ms(5, Some(2), stage::SCAN_PRUNE, 0),
        "blocks_total",
        12,
    ));
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::PruneRegression);

    // The same local-compute-heavy trace with healthy pruning carries no
    // structural cause and stays unclassified rather than inventing one.
    let mut events = dominated_by(stage::TDE_EXEC, 80);
    events.push(with_label(
        ev_ms(4, Some(2), stage::SCAN_PRUNE, 0),
        "blocks_skipped",
        10,
    ));
    events.push(with_label(
        ev_ms(5, Some(2), stage::SCAN_PRUNE, 0),
        "blocks_total",
        12,
    ));
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::Unclassified);
}

#[test]
fn verdict_unclassified_for_flat_traces() {
    let events = vec![
        ev_ms(1, None, stage::QUERY, 100),
        ev_ms(2, Some(1), stage::POST_PROCESS, 5),
    ];
    let d = diagnose(&trace_of(events, 100), None);
    assert_eq!(d.verdict, Verdict::Unclassified);
    assert!(d.render().contains("verdict=unclassified"));
}

#[test]
fn class_baselines_stream_and_gate() {
    let baselines = ClassBaselines::new();
    let events = dominated_by(stage::REMOTE_EXEC, 80);
    baselines.observe("dash|g:carrier|a:n", &events, Duration::from_millis(100));
    baselines.observe("dash|g:carrier|a:n", &events, Duration::from_millis(100));
    let fp = baselines.get("dash|g:carrier|a:n").expect("baseline");
    assert_eq!(fp.samples, 2);
    assert!((fp.share(stage::REMOTE_EXEC) - 0.8).abs() < 1e-9);
    assert!((fp.mean_total_micros - 100_000.0).abs() < 1.0);
    assert!(baselines.get("other").is_none());

    // The global gate makes observe a no-op (the e25 overhead arms rely on
    // this); re-enable before returning so other tests are unaffected.
    analyze::set_enabled(false);
    baselines.observe("gated", &events, Duration::from_millis(100));
    analyze::set_enabled(true);
    assert!(baselines.get("gated").is_none());
}

// ---------------------------------------------------------------------------
// exemplars

#[test]
fn exemplars_capture_inside_traces_only_and_scrape_back() {
    let reg = Registry::new();
    let h = reg.histogram("tv_req_latency_seconds");
    h.observe_micros(1_500);
    let text = reg.render_text();
    assert!(
        !text.contains("# {trace_id="),
        "untraced observations must not emit exemplars:\n{text}"
    );

    let handle = begin_trace();
    let tid = handle.trace_id().expect("capture on");
    h.observe_micros(1_500);
    drop(handle.finish(Duration::from_micros(1_500)));

    let text = reg.render_text();
    assert!(text.contains(&format!("# {{trace_id=\"{tid}\"}}")));
    let scraped = scrape_exemplars(&text);
    assert!(
        scraped
            .iter()
            .any(|(series, id)| *id == tid && series.starts_with("tv_req_latency_seconds_bucket")),
        "scrape must recover the exemplar: {scraped:?}"
    );
    // Exposition hygiene: the suffix never starts a line, and the last
    // token of an exemplar line parses as a float (seconds).
    for line in text.lines().filter(|l| l.contains("# {trace_id=")) {
        assert!(!line.starts_with('#'));
        let last = line.split_whitespace().last().unwrap();
        last.parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable exemplar value in: {line}"));
    }
    assert_eq!(h.quantile_exemplar(0.99).map(|e| e.trace_id), Some(tid));
}

#[test]
fn federation_merged_histograms_carry_exemplars() {
    let reg = Registry::new();
    let h = reg.histogram("tv_fed_latency_seconds");
    let handle = begin_trace();
    let tid = handle.trace_id().expect("capture on");
    h.observe_micros(900);
    drop(handle.finish(Duration::from_micros(900)));

    let mut fed = Federation::new();
    fed.add_node("n0", &reg);
    fed.add_node("n1", &Registry::new());
    let text = fed.render_text();
    let scraped = scrape_exemplars(&text);
    assert!(
        scraped.iter().any(|(_, id)| *id == tid),
        "federated exposition must keep exemplars: {scraped:?}"
    );
}

// ---------------------------------------------------------------------------
// recorder pinning

#[test]
fn exemplar_referenced_trace_survives_eviction_until_rotation() {
    let reg = Registry::new();
    let rec = FlightRecorder::with_registry(
        FlightRecorderConfig {
            recent_capacity: 2,
            slow_capacity: 1,
            slow_threshold: Duration::from_secs(3_600),
            max_bytes: 64 * 1024 * 1024,
        },
        &reg,
    );
    let h = reg.histogram("tv_pin_latency_seconds");
    let run_query = |observe: bool| -> u64 {
        let t = begin_trace();
        let tid = t.trace_id().expect("capture on");
        if observe {
            h.observe_micros(2_000);
        }
        let fin = t.finish(Duration::from_micros(2_000));
        rec.record(
            RecordedTrace::from_finished(fin, "q", "s", ProfileOutcome::Hit).with_class("c"),
        );
        tid
    };

    let pinned_id = run_query(true);
    for _ in 0..4 {
        run_query(false);
    }
    assert!(
        rec.recent().iter().all(|t| t.trace_id != pinned_id),
        "trace must have left the recent ring"
    );
    assert!(
        rec.get(pinned_id).is_some(),
        "exemplar-referenced trace must stay resolvable after ring eviction"
    );
    assert_eq!(rec.pinned_count(), 1);
    match reg.snapshot().get("tv_obs_recorder_pinned") {
        Some(MetricValue::Gauge(g)) => assert_eq!(*g, 1),
        other => panic!("missing pinned gauge: {other:?}"),
    }

    // Rotate the exemplar out: a newer traced observation lands in the same
    // bucket, and the next record() releases the parked trace.
    let newer = run_query(true);
    run_query(false);
    assert_eq!(rec.pinned_count(), 0, "rotated-out trace must be released");
    assert!(rec.get(pinned_id).is_none());
    assert!(rec.get(newer).is_some());
    match reg.snapshot().get("tv_obs_recorder_pinned") {
        Some(MetricValue::Gauge(g)) => assert_eq!(*g, 0),
        other => panic!("missing pinned gauge: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// end-to-end surfaces

fn flights_server() -> Arc<DataServer> {
    let flights =
        tabviz::workloads::generate_flights(&tabviz::workloads::FaaConfig::with_rows(5_000))
            .unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    let qp = QueryProcessor::default();
    qp.registry.register(
        Arc::new(SimDb::new("warehouse", db, SimConfig::default())),
        4,
    );
    let server = Arc::new(DataServer::new(qp));
    server.publish(PublishedSource::new(
        "flights-model",
        "warehouse",
        LogicalPlan::scan("flights"),
    ));
    server
}

#[test]
fn server_why_slow_names_a_verdict() {
    let server = flights_server();
    let session = server.connect("flights-model", "viewer").unwrap();
    let q = ClientQuery {
        group_by: vec!["carrier".into()],
        aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
        ..Default::default()
    };
    for _ in 0..3 {
        session.query(&q).unwrap();
    }
    let last = server
        .flight_recorder()
        .last()
        .expect("query trace recorded");
    assert!(
        !last.class.is_empty(),
        "recorded traces must carry a query-class key"
    );
    let line = server.why_slow(last.trace_id).expect("trace resolvable");
    assert!(line.contains("verdict="), "{line}");
    assert!(line.contains("path:"), "{line}");
    let log = server.slow_query_verdicts(5);
    assert!(log.contains("verdict="), "{log}");
    // The processor folded these queries into a class baseline.
    assert!(!server.processor.obs.baselines.is_empty());
}

#[test]
fn cluster_diagnostics_report_includes_slow_query_verdicts() {
    let flights =
        tabviz::workloads::generate_flights(&tabviz::workloads::FaaConfig::with_rows(2_000))
            .unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    let cluster = Cluster::build(
        ClusterConfig {
            nodes: 2,
            replication: 2,
            vnodes: 16,
            seed: 7,
            peer_op_latency: Duration::ZERO,
        },
        move |name| {
            let sim = SimDb::new("warehouse", Arc::clone(&db), SimConfig::default());
            let qp = QueryProcessor::default();
            qp.registry.register(Arc::new(sim), 4);
            let server = Arc::new(DataServer::named(qp, name));
            server.publish(PublishedSource::new(
                "dash-0",
                "warehouse",
                LogicalPlan::scan("flights"),
            ));
            Ok(server)
        },
    )
    .unwrap();
    let session = cluster.open_session("dash-0", "viewer").unwrap();
    let q = ClientQuery {
        group_by: vec!["carrier".into()],
        aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
        ..Default::default()
    };
    for _ in 0..4 {
        session.query(&q).unwrap();
    }
    let report = cluster.diagnostics_report(3);
    assert!(
        report.contains("slow-query verdicts"),
        "diagnostics must include the verdict log:\n{report}"
    );
    assert!(report.contains("verdict="), "{report}");
    // Every latency histogram family with traffic carries a resolvable
    // exemplar somewhere in the cluster.
    let text = cluster.metrics_text();
    let scraped = scrape_exemplars(&text);
    assert!(
        !scraped.is_empty(),
        "cluster exposition must carry exemplars"
    );
    for (series, id) in &scraped {
        let found = cluster.recorder.get(*id).is_some()
            || cluster
                .nodes()
                .iter()
                .any(|n| n.server.flight_recorder().get(*id).is_some());
        assert!(found, "exemplar {id} of {series} must resolve to a trace");
    }
}
