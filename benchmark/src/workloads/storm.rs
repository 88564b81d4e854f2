//! The two open-loop workloads: a replayed storm of viewer sessions against
//! a four-node cluster, without and with table refreshes beside the reads.
//!
//! Arrivals are sent on schedule whatever the system does, and every
//! latency is taken from the arrival's due time, so a stall delays — and is
//! charged to — the arrivals queued behind it.

use super::closed::{SEGMENTS, SLO_LIMIT_MS};
use super::{
    build_flights_db, digest_step, note_failure, peak_rss_mb, timed_setup, Budget, RunConfig,
    RunOutput, SetupTimes,
};
use crate::metrics::Metrics;
use crate::oracle::Oracle;
use crate::probes::{self, ClusterInputs, ProbeInputs};
use crate::stats::{iqr_fraction, lowest, median, percentile};
use crate::trace::{Attr, Lane, Span, SpanRef, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tabviz::cluster::{ClusterConfig, ClusterResponse};
use tabviz::prelude::*;
// The prelude's one-parameter `Result` alias would shadow this.
use std::result::Result;
use tabviz::workloads::{generate_storm, schedule_digest, Arrival, StormConfig, StormStep};

const NODES: usize = 4;
const DASHBOARDS: usize = 40;
const USERS: u32 = 4;
/// Offered load. At about 4 ms of client time per arrival (most of it asleep
/// in a simulated backend trip) the clients are busy 0.8 threads in total.
const ARRIVALS_PER_S: f64 = 200.0;
const CLIENT_THREADS: usize = 8;
const STEPS_PER_SESSION: usize = 3;
const MEAN_THINK_MS: f64 = 400.0;
const PEER_ROUND_TRIP: Duration = Duration::from_micros(200);
/// Few enough rows that the engine is a few per cent of a backend trip: the
/// trip is then simulated latency, which a busy host cannot stretch.
const ROWS: usize = 5_000;
/// `refresh_storm` refreshes the flights table this often, first at half a
/// period: at the benchmark's 20 s window every 2 s segment holds one, mid-way.
const REFRESH_EVERY_MS: u64 = 2_000;
const SOURCE: &str = "warehouse";

enum Event {
    Query(Arrival),
    Refresh { at_ms: u64 },
}

impl Event {
    fn at_ms(&self) -> u64 {
        match self {
            Event::Query(a) => a.at_ms,
            Event::Refresh { at_ms } => *at_ms,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    L1,
    Peer,
    L2,
    Backend,
}

impl Path {
    const ALL: [Path; 4] = [Path::L1, Path::Peer, Path::L2, Path::Backend];

    /// Label in span attributes, share-of-answers metric, service-time metric.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Path::L1 => ("l1", "cluster.path_l1_fraction", "cluster.path_l1_p50_ms"),
            Path::Peer => (
                "peer",
                "cluster.path_peer_fraction",
                "cluster.path_peer_p50_ms",
            ),
            Path::L2 => ("l2", "cluster.path_l2_fraction", "cluster.path_l2_p50_ms"),
            Path::Backend => (
                "backend",
                "cluster.path_backend_fraction",
                "cluster.path_backend_p50_ms",
            ),
        }
    }

    fn of(response: &ClusterResponse) -> Option<Path> {
        if response.peer_hit.is_some() {
            return Some(Path::Peer);
        }
        match response.outcome {
            ExecOutcome::IntelligentHit | ExecOutcome::LiteralHit => Some(Path::L1),
            ExecOutcome::L2Hit => Some(Path::L2),
            ExecOutcome::Remote => Some(Path::Backend),
            // No workload injects faults, so a stale serve is a failure.
            ExecOutcome::DegradedStale => None,
        }
    }
}

/// One completed event, as the client saw it.
struct Done {
    event: usize,
    traced: bool,
    /// Send time minus due time.
    lag_ms: f64,
    /// Completion minus due time.
    latency_ms: f64,
    /// Completion minus send time.
    service_ms: f64,
    outcome: Outcome,
}

enum Outcome {
    Answer { path: Option<Path>, chunk: Chunk },
    Error(String),
    Refreshed { purged: usize },
}

struct Storm {
    db: Arc<Database>,
    cluster: Arc<Cluster>,
    sims: Arc<Mutex<Vec<SimDb>>>,
}

fn user_of(session: u32) -> String {
    format!("viewer-{}", session % USERS)
}

/// Row-level security: one of the four viewers may not see cancelled flights.
fn user_filter(user: &str) -> Option<Expr> {
    (user == "viewer-0").then(|| bin(BinOp::Eq, col("cancelled"), lit(false)))
}

fn client_query(kind: &StormStep) -> (ClientQuery, &'static str) {
    let count = || AggCall::new(AggFunc::Count, None, "n");
    const DIMENSIONS: [&str; 4] = ["carrier", "dep_hour", "origin_state", "weekday"];
    match kind {
        StormStep::Load => (
            ClientQuery {
                group_by: vec!["carrier".into()],
                aggs: vec![count()],
                ..Default::default()
            },
            "load",
        ),
        StormStep::Drill { dimension } => (
            ClientQuery {
                group_by: vec![DIMENSIONS[*dimension as usize % DIMENSIONS.len()].into()],
                aggs: vec![count()],
                ..Default::default()
            },
            "drill",
        ),
        StormStep::Filter { selector } => (
            ClientQuery {
                filters: vec![bin(
                    BinOp::Le,
                    col("distance"),
                    lit(200 + (*selector as i64 % 2200)),
                )],
                group_by: vec!["carrier".into()],
                aggs: vec![count()],
                ..Default::default()
            },
            "filter",
        ),
        StormStep::TopN { n } => (
            ClientQuery {
                group_by: vec!["dest".into()],
                aggs: vec![count()],
                order: vec![SortKey::desc("n")],
                topn: Some(*n as usize),
                ..Default::default()
            },
            "topn",
        ),
    }
}

/// The query the harness expects the server to evaluate for a client query:
/// the published relation, the user's mandatory filter, the client's parts.
fn reference_spec(user: &str, query: &ClientQuery) -> QuerySpec {
    let mut spec = QuerySpec::new(SOURCE, LogicalPlan::scan("flights"));
    spec.filters = query.filters.clone();
    spec.filters.extend(user_filter(user));
    spec.group_by = query.group_by.clone();
    spec.aggs = query.aggs.clone();
    spec.order = query.order.clone();
    spec.topn = query.topn;
    spec
}

fn build(seed: u64, rows: usize, times: &mut SetupTimes) -> Result<Storm, String> {
    let db = build_flights_db(seed, rows, times)?;
    let sims = Arc::new(Mutex::new(Vec::new()));
    let (node_db, node_sims) = (Arc::clone(&db), Arc::clone(&sims));
    let cluster = Cluster::build(
        ClusterConfig {
            nodes: NODES,
            replication: 2,
            vnodes: 64,
            seed,
            peer_op_latency: PEER_ROUND_TRIP,
        },
        move |name| {
            let sim = SimDb::new(
                SOURCE,
                Arc::clone(&node_db),
                SimConfig {
                    latency: LatencyModel::wan(),
                    ..Default::default()
                },
            );
            node_sims.lock().expect("sims lock").push(sim.clone());
            let mut qp = QueryProcessor::default();
            qp.registry.register(Arc::new(sim), 4);
            qp.enable_scheduler();
            let server = Arc::new(DataServer::named(qp, name));
            for d in 0..DASHBOARDS {
                let published =
                    PublishedSource::new(format!("dash-{d}"), SOURCE, LogicalPlan::scan("flights"));
                for u in 0..USERS {
                    let user = user_of(u);
                    if let Some(filter) = user_filter(&user) {
                        published.set_user_filter(user, filter);
                    }
                }
                server.publish(published);
            }
            Ok(server)
        },
    )
    .map_err(|e| e.to_string())?;
    let storm = Storm { db, cluster, sims };
    // First answer: one session, one initial load.
    let session = storm
        .cluster
        .open_session("dash-0", user_of(1))
        .map_err(|e| e.to_string())?;
    session
        .query(&client_query(&StormStep::Load).0)
        .map_err(|e| format!("first query: {e}"))?;
    Ok(storm)
}

/// Sleep to just before `due`, then spin: a plain sleep overshoots by a
/// timer slack that would be charged to every arrival.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(120);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

type Sessions = Mutex<HashMap<u32, Arc<ClusterSession>>>;

/// Replay `events` open-loop from now; event times are taken relative to
/// `origin_ms`. Each client thread takes the next event, waits until it is
/// due, and issues it.
fn replay(
    storm: &Storm,
    events: &[Event],
    origin_ms: u64,
    sessions: &Sessions,
    tracer: &Tracer,
    traced: bool,
) -> (Vec<Done>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done = Vec::with_capacity(events.len());
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut lane = tracer.lane();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(event) = events.get(i) else { break };
                        let due = start + Duration::from_millis(event.at_ms() - origin_ms);
                        wait_until(due);
                        // Every second event of a traced run records no spans.
                        let on = traced && i.is_multiple_of(2);
                        lane.set_on(on);
                        let sent = Instant::now();
                        let outcome = issue(storm, event, i as u64, sessions, &mut lane);
                        let finished = Instant::now();
                        mine.push(Done {
                            event: i,
                            traced: on,
                            lag_ms: (sent - due).as_secs_f64() * 1e3,
                            latency_ms: (finished - due).as_secs_f64() * 1e3,
                            service_ms: (finished - sent).as_secs_f64() * 1e3,
                            outcome,
                        });
                    }
                    (mine, lane.into_spans())
                })
            })
            .collect();
        for w in workers {
            let (mine, lane_spans) = w.join().expect("client thread panicked");
            done.extend(mine);
            spans.extend(lane_spans);
        }
    });
    done.sort_by_key(|d| d.event);
    (done, spans)
}

fn issue(
    storm: &Storm,
    event: &Event,
    op: u64,
    sessions: &Sessions,
    lane: &mut Lane<'_>,
) -> Outcome {
    let root = lane.begin(SpanRef::NONE, op, "op");
    let outcome = match event {
        Event::Refresh { .. } => {
            let purged = lane.time(root, op, "cluster.refresh_table", || {
                storm.cluster.refresh_table(SOURCE, "flights")
            });
            lane.attr(root, "class", Attr::Text("refresh".into()));
            lane.attr(root, "purged", Attr::Num(purged as f64));
            Outcome::Refreshed { purged }
        }
        Event::Query(a) => {
            let (query, class) = client_query(&a.kind);
            lane.attr(root, "class", Attr::Text(class.into()));
            let session = {
                let mut map = sessions.lock().expect("sessions lock");
                match map.get(&a.session) {
                    Some(s) => Ok(Arc::clone(s)),
                    None => lane
                        .time(root, op, "cluster.open_session", || {
                            storm
                                .cluster
                                .open_session(&format!("dash-{}", a.dashboard), user_of(a.session))
                        })
                        .map(|s| {
                            let s = Arc::new(s);
                            map.insert(a.session, Arc::clone(&s));
                            s
                        }),
                }
            };
            let answer =
                session.and_then(|s| lane.time(root, op, "cluster.query", || s.query(&query)));
            if a.step as usize + 1 == STEPS_PER_SESSION {
                sessions.lock().expect("sessions lock").remove(&a.session);
            }
            match answer {
                Ok(response) => {
                    let path = Path::of(&response);
                    let label = path.map_or("stale", |p| p.names().0);
                    lane.attr(root, "path", Attr::Text(label.into()));
                    Outcome::Answer {
                        path,
                        chunk: response.chunk,
                    }
                }
                Err(e) => Outcome::Error(e.to_string()),
            }
        }
    };
    lane.attr(
        root,
        "ok",
        Attr::Flag(!matches!(outcome, Outcome::Error(_))),
    );
    lane.end(root);
    outcome
}

/// The layers' public counters, summed (peaks: maximum) over the nodes.
#[derive(Default, Clone, Copy)]
struct Counters {
    backend_queries: f64,
    backend_busy_s: f64,
    exact_hits: f64,
    subsumption_hits: f64,
    l1_misses: f64,
    l2_hits: f64,
    l2_misses: f64,
    evictions: f64,
    peer_gets: f64,
    peer_hits: f64,
    shed: f64,
    peak_queued: f64,
    peak_running: f64,
    pool_opened: f64,
    pool_reused: f64,
    pool_waited: f64,
    recorder_bytes: f64,
}

impl Counters {
    fn read(storm: &Storm) -> Counters {
        let mut c = Counters::default();
        for sim in storm.sims.lock().expect("sims lock").iter() {
            let s = sim.stats();
            c.backend_queries += s.queries as f64;
            c.backend_busy_s += s.busy.as_secs_f64();
        }
        for node in storm.cluster.nodes() {
            let qp = &node.server.processor;
            let (intelligent, literal) = qp.caches.stats();
            c.exact_hits += intelligent.exact_hits as f64;
            c.subsumption_hits += intelligent.subsumption_hits as f64;
            c.l1_misses += intelligent.misses as f64;
            c.evictions += (intelligent.evictions + literal.evictions) as f64;
            let tier = qp.caches.tier_stats();
            c.l2_hits += tier.l2_hits as f64;
            c.l2_misses += tier.l2_misses as f64;
            if let Some(s) = qp.scheduler().map(|s| s.stats()) {
                c.shed += s.total_shed() as f64;
                c.peak_queued = c.peak_queued.max(s.peak_queued as f64);
                c.peak_running = c.peak_running.max(s.peak_running as f64);
            }
            if let Ok(managed) = qp.registry.get(SOURCE) {
                let pool = managed.pool.stats();
                c.pool_opened += pool.opened as f64;
                c.pool_reused += pool.reused as f64;
                c.pool_waited += pool.waited as f64;
            }
            c.recorder_bytes += qp.obs.recorder.bytes() as f64;
        }
        c.recorder_bytes += storm.cluster.recorder.bytes() as f64;
        let peer = storm.cluster.peer_stats();
        c.peer_gets = peer.gets as f64;
        c.peer_hits = (peer.primary_hits + peer.replica_hits) as f64;
        c
    }

    /// Report the measured window `before..self` (totals and peaks: as of its end).
    fn report(&self, before: &Counters, m: &mut Metrics, queries: f64, wall_s: f64) {
        let trips = self.backend_queries - before.backend_queries;
        m.set("backend.trips_per_op", trips / queries);
        m.set(
            "backend.sim_busy_fraction",
            (self.backend_busy_s - before.backend_busy_s) / wall_s / NODES as f64,
        );
        let exact = self.exact_hits - before.exact_hits;
        let subsumed = self.subsumption_hits - before.subsumption_hits;
        let lookups = exact + subsumed + self.l1_misses - before.l1_misses;
        m.set("cache.exact_hit_fraction", exact / lookups);
        m.set("cache.subsumption_hit_fraction", subsumed / lookups);
        let l2_hits = self.l2_hits - before.l2_hits;
        m.set(
            "cache.l2_hit_fraction",
            l2_hits / (l2_hits + self.l2_misses - before.l2_misses),
        );
        m.set("cache.evictions", self.evictions);
        m.set(
            "cluster.peer_hit_fraction",
            (self.peer_hits - before.peer_hits) / (self.peer_gets - before.peer_gets),
        );
        m.set("sched.shed", self.shed);
        m.set("sched.peak_queued", self.peak_queued);
        m.set("sched.peak_running", self.peak_running);
        m.set("backend.pool_opened", self.pool_opened);
        m.set("backend.pool_reused", self.pool_reused);
        m.set("backend.pool_waited", self.pool_waited);
        m.set("obs.recorder_bytes", self.recorder_bytes);
    }
}

/// The schedule: the seed's arrivals inside the horizon, plus (with
/// refreshes) one refresh event per period, and its digest.
fn schedule(seed: u64, horizon_ms: u64, with_refresh: bool) -> (Vec<Event>, u64) {
    let storm_cfg = StormConfig {
        sessions: (ARRIVALS_PER_S * horizon_ms as f64 / 1e3 / STEPS_PER_SESSION as f64) as usize,
        dashboards: DASHBOARDS,
        zipf_s: 1.1,
        horizon_ms,
        diurnal_amplitude: 0.0,
        steps_per_session: STEPS_PER_SESSION,
        mean_think_ms: MEAN_THINK_MS,
        seed,
    };
    // Think time carries a session's later steps past the horizon; drop those.
    let arrivals: Vec<Arrival> = generate_storm(&storm_cfg)
        .into_iter()
        .filter(|a| a.at_ms < horizon_ms)
        .collect();
    let mut digest = schedule_digest(&arrivals);
    let mut events: Vec<Event> = arrivals.into_iter().map(Event::Query).collect();
    if with_refresh {
        for at_ms in (REFRESH_EVERY_MS / 2..horizon_ms).step_by(REFRESH_EVERY_MS as usize) {
            events.push(Event::Refresh { at_ms });
            digest = digest_step(digest, at_ms);
        }
        events.sort_by_key(Event::at_ms);
    }
    (events, digest)
}

/// One measured query: its arrival and what the client saw.
type Query<'a> = (&'a Arrival, &'a Done);

fn answered(d: &Done) -> bool {
    matches!(d.outcome, Outcome::Answer { path: Some(_), .. })
}

/// What the clients saw: latencies from due time per segment, misses of the
/// latency limit, generator lag, and (traced) the cost of recording.
fn report_clients(
    m: &mut Metrics,
    queries: &[Query<'_>],
    done: &[Done],
    window: (u64, u64),
    wall_s: f64,
    traced: bool,
) {
    let (origin_ms, segment_ms) = window;
    let mut segments: Vec<Vec<&Done>> = (0..SEGMENTS).map(|_| Vec::new()).collect();
    for (a, d) in queries {
        let s = ((a.at_ms - origin_ms) / segment_ms) as usize;
        segments[s.min(SEGMENTS - 1)].push(d);
    }
    segments.retain(|s| !s.is_empty());
    let per_segment = |f: &dyn Fn(&[f64]) -> f64| -> Vec<f64> {
        segments
            .iter()
            .map(|s| f(&s.iter().map(|d| d.latency_ms).collect::<Vec<_>>()))
            .collect()
    };
    let medians = per_segment(&median);
    let p95s = per_segment(&|l| percentile(l, 0.95));
    eprintln!("segment p50 ms: {medians:.3?}");
    eprintln!("segment p95 ms: {p95s:.3?}");
    m.set("interaction_p50_ms", lowest(&medians));
    m.set("interaction_p95_ms", lowest(&p95s));
    m.set("bench.segment_iqr_fraction", iqr_fraction(&medians));
    let ok = queries.iter().filter(|(_, d)| answered(d)).count();
    m.set("bench.interactions_per_s", ok as f64 / wall_s);
    let miss_fractions: Vec<f64> = segments
        .iter()
        .map(|s| {
            let missed = s
                .iter()
                .filter(|d| !answered(d) || d.latency_ms > SLO_LIMIT_MS)
                .count();
            missed as f64 / s.len() as f64
        })
        .collect();
    m.set("bench.slo_miss_fraction", median(&miss_fractions));
    let lags: Vec<f64> = done.iter().map(|d| d.lag_ms).collect();
    m.set("bench.send_lag_p95_ms", percentile(&lags, 0.95));
    if traced {
        // Paired inside the run, on the commonest path: its service times
        // are the tightest population, so the difference of medians is not
        // drowned by which answers happened to miss.
        let pick = |on: bool| -> Vec<f64> {
            queries
                .iter()
                .filter(|(_, d)| d.traced == on && served_by(d) == Some(Path::L1))
                .map(|(_, d)| d.service_ms)
                .collect()
        };
        let (with, without) = (median(&pick(true)), median(&pick(false)));
        m.set("bench.trace_overhead_fraction", (with - without) / without);
    }
}

fn served_by(d: &Done) -> Option<Path> {
    match d.outcome {
        Outcome::Answer { path, .. } => path,
        _ => None,
    }
}

/// Which path served, how fast, and what the refreshes cost; returns the
/// number of answers per path, in `Path::ALL` order.
fn report_paths(m: &mut Metrics, queries: &[Query<'_>], done: &[Done]) -> [f64; 4] {
    let n = queries.len().max(1) as f64;
    let counts = Path::ALL.map(|path| {
        let service: Vec<f64> = queries
            .iter()
            .filter(|(_, d)| served_by(d) == Some(path))
            .map(|(_, d)| d.service_ms)
            .collect();
        let (_, fraction, p50) = path.names();
        m.set(fraction, service.len() as f64 / n);
        m.set(p50, median(&service));
        service.len() as f64
    });
    let refreshes: Vec<(f64, f64)> = done
        .iter()
        .filter_map(|d| match d.outcome {
            Outcome::Refreshed { purged } => Some((d.service_ms, purged as f64)),
            _ => None,
        })
        .collect();
    let column = |f: fn(&(f64, f64)) -> f64| refreshes.iter().map(f).collect::<Vec<_>>();
    m.set("cluster.refresh_ms", median(&column(|r| r.0)));
    m.set("cluster.refresh_purged", median(&column(|r| r.1)));
    counts
}

/// The oracle: every measured answer against direct evaluation. A refresh
/// purges caches and changes no data, so the reference never changes.
fn check_answers(storm: &Storm, queries: &[Query<'_>], failures: &mut Vec<String>) -> u64 {
    let mut oracle = Oracle::new(Arc::clone(&storm.db));
    let mut failed = 0;
    for (a, d) in queries {
        let verdict = match &d.outcome {
            Outcome::Answer {
                path: Some(_),
                chunk,
            } => {
                let spec = reference_spec(&user_of(a.session), &client_query(&a.kind).0);
                oracle.check(&spec, chunk)
            }
            Outcome::Answer { path: None, .. } => Err("served stale".to_string()),
            Outcome::Error(e) => Err(e.clone()),
            Outcome::Refreshed { .. } => Ok(()),
        };
        if let Err(why) = verdict {
            failed += 1;
            note_failure(failures, format!("arrival {}: {why}", d.event));
        }
    }
    failed
}

/// The probe phase on one node's processor and the cluster, and the time
/// the probes account for.
fn probe(
    cfg: &RunConfig,
    storm: &Storm,
    queries: &[Query<'_>],
    path_counts: [f64; 4],
    lane: &mut Lane<'_>,
    m: &mut Metrics,
) -> Result<(), String> {
    let nodes = storm.cluster.nodes();
    let node = nodes
        .iter()
        .min_by_key(|n| n.name.clone())
        .ok_or("cluster has no nodes")?;
    let sims = storm.sims.lock().expect("sims lock");
    let mut inputs = ProbeInputs {
        db: &storm.db,
        qp: &node.server.processor,
        source: SOURCE,
        batches: Vec::new(),
        answers: Vec::new(),
        sim: sims.first(),
        cluster: None,
    };
    let mut client_queries = Vec::new();
    for (a, d) in queries {
        if let Outcome::Answer { chunk, .. } = &d.outcome {
            let query = client_query(&a.kind).0;
            let spec = reference_spec(&user_of(a.session), &query);
            let known = inputs.answers.len();
            inputs.add_answer(&spec, chunk);
            if inputs.answers.len() > known {
                inputs.batches.push(vec![spec]);
                client_queries.push(query);
            }
        }
    }
    inputs.cluster = Some(ClusterInputs {
        cluster: &storm.cluster,
        published: (0..DASHBOARDS).map(|d| format!("dash-{d}")).collect(),
        users: (0..USERS).map(user_of).collect(),
        queries: client_queries,
    });
    let layer = probes::run(&inputs, &cfg.scale, lane, m);

    // Every query pays a route, a trace and a peer probe (a miss asks both
    // owners); then by serving path: an L1 or L2 answer a processor hit (L2
    // one more peer read), a backend answer the simulated trip, the
    // compile, the cache miss and store, and the publish to the peer tier.
    let n = queries.len().max(1) as f64;
    let service_ms: f64 = queries.iter().map(|(_, d)| d.service_ms).sum();
    let [l1, peer, l2, backend] = path_counts;
    let attributed_ms = n * (layer.route_ns + layer.trace_ns) / 1e6
        + peer * layer.peer_get_us / 1e3
        + (l1 + l2 + backend) * 2.0 * layer.peer_get_us / 1e3
        + (l1 + l2) * layer.execute_hit_us / 1e3
        + l2 * layer.peer_get_us / 1e3
        + backend
            * (layer.sim_query_ms
                + (layer.compile_us + layer.lookup_miss_us + layer.store_us + layer.peer_put_us)
                    / 1e3);
    let trips = m.get("backend.trips_per_op") * n;
    m.set(
        "bench.engine_share",
        layer.tde_execute_ms * trips / service_ms,
    );
    m.set(
        "bench.unattributed_fraction",
        1.0 - attributed_ms / service_ms,
    );
    Ok(())
}

pub fn run(cfg: &RunConfig, with_refresh: bool) -> Result<RunOutput, String> {
    let measured_ms = match cfg.budget {
        Budget::Seconds(s) => (s * 1e3) as u64,
        Budget::Ops(n) => (n as f64 / ARRIVALS_PER_S * 1e3) as u64,
    }
    .max(SEGMENTS as u64);
    // Two extra segments up front fill caches and session tables; they are
    // replayed like the rest and left out of every metric.
    let segment_ms = measured_ms.div_ceil(SEGMENTS as u64);
    let warmup_ms = 2 * segment_ms;
    let (events, schedule_digest) = schedule(cfg.seed, warmup_ms + measured_ms, with_refresh);
    let (warmup, measured) = events.split_at(events.partition_point(|e| e.at_ms() < warmup_ms));

    let rows = ROWS / cfg.scale.divisor;
    let (storm, times) = timed_setup(&cfg.scale, |t| build(cfg.seed, rows, t))?;
    let tracer = Tracer::default();
    let sessions: Sessions = Mutex::new(HashMap::new());
    replay(&storm, warmup, 0, &sessions, &tracer, false);

    let before = Counters::read(&storm);
    let started = Instant::now();
    let (done, mut spans) = replay(&storm, measured, warmup_ms, &sessions, &tracer, cfg.traced);
    let wall_s = started.elapsed().as_secs_f64();
    let after = Counters::read(&storm);

    let queries: Vec<Query<'_>> = done
        .iter()
        .filter_map(|d| match &measured[d.event] {
            Event::Query(a) => Some((a, d)),
            Event::Refresh { .. } => None,
        })
        .collect();
    let mut m = Metrics::default();
    times.report(&mut m);
    m.set("peak_rss_mb", peak_rss_mb());
    report_clients(
        &mut m,
        &queries,
        &done,
        (warmup_ms, segment_ms),
        wall_s,
        cfg.traced,
    );
    let path_counts = report_paths(&mut m, &queries, &done);
    after.report(&before, &mut m, queries.len().max(1) as f64, wall_s);

    let mut failures = Vec::new();
    let failed = check_answers(&storm, &queries, &mut failures);

    if cfg.traced {
        let mut lane = tracer.lane();
        lane.set_on(true);
        probe(cfg, &storm, &queries, path_counts, &mut lane, &mut m)?;
        spans.extend(lane.into_spans());
    }

    Ok(RunOutput {
        attempted: queries.len() as u64,
        failed,
        failures,
        metrics: m,
        schedule_digest,
        spans,
    })
}
