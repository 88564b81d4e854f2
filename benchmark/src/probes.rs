//! The probe phase of a traced run: each layer's public functions, timed
//! from outside on inputs captured from the replay.
//!
//! A probe calls one function repeatedly under `probe.<layer>` spans and
//! reports the median time of one call. Inputs and outputs pass through
//! `black_box`. Functions that take nanoseconds are timed in batches (the
//! span carries a `count` attribute).

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::{Attr, Lane, SpanRef};
use crate::workloads::Scale;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabviz::cache::{decode_chunk, encode_chunk, table_tag, ExternalStore};
use tabviz::cluster::{HashRing, PeerTier};
use tabviz::core::batch::opportunity_graph;
use tabviz::core::compile::compile_spec;
use tabviz::core::fusion::fuse;
use tabviz::obs::{begin_trace, event_with, stage};
use tabviz::prelude::*;
use tabviz::storage::pack::{pack, unpack};
use tabviz::tql::{write_expr, write_plan};

/// How many distinct answers and batches the probes replay.
const MAX_ANSWERS: usize = 24;
const MAX_BATCHES: usize = 8;

/// Inputs captured from the measured replay.
pub struct ProbeInputs<'a> {
    pub db: &'a Arc<Database>,
    /// The workload's processor (a storm passes one node's).
    pub qp: &'a QueryProcessor,
    pub source: &'a str,
    /// Query batches of some interactions (a storm's are single queries).
    pub batches: Vec<Vec<QuerySpec>>,
    /// Distinct queries with the answers the program gave.
    pub answers: Vec<(QuerySpec, Chunk)>,
    /// The simulated warehouse, where the workload has one.
    pub sim: Option<&'a SimDb>,
    /// The cluster, where the workload has one.
    pub cluster: Option<ClusterInputs<'a>>,
}

pub struct ClusterInputs<'a> {
    pub cluster: &'a Arc<Cluster>,
    pub published: Vec<String>,
    pub users: Vec<String>,
    pub queries: Vec<ClientQuery>,
}

impl<'a> ProbeInputs<'a> {
    /// Collect distinct (query, answer) pairs and batches from interactions.
    pub fn from_rendered<'r>(
        db: &'a Arc<Database>,
        qp: &'a QueryProcessor,
        source: &'a str,
        rendered: impl Iterator<Item = (&'r Vec<(String, QuerySpec)>, &'r HashMap<String, Chunk>)>,
    ) -> Self {
        let mut inputs = ProbeInputs {
            db,
            qp,
            source,
            batches: Vec::new(),
            answers: Vec::new(),
            sim: None,
            cluster: None,
        };
        for (queries, results) in rendered {
            if inputs.batches.len() < MAX_BATCHES {
                inputs
                    .batches
                    .push(queries.iter().map(|(_, s)| s.clone()).collect());
            }
            for (name, spec) in queries {
                if let Some(chunk) = results.get(name) {
                    inputs.add_answer(spec, chunk);
                }
            }
            if inputs.answers.len() >= MAX_ANSWERS && inputs.batches.len() >= MAX_BATCHES {
                break;
            }
        }
        inputs
    }

    pub fn add_answer(&mut self, spec: &QuerySpec, chunk: &Chunk) {
        if self.answers.len() < MAX_ANSWERS && !self.answers.iter().any(|(s, _)| s == spec) {
            self.answers.push((spec.clone(), chunk.clone()));
        }
    }
}

/// Median per-call times the workloads need to attribute interaction time.
#[derive(Default)]
pub struct LayerTimes {
    pub tde_execute_ms: f64,
    pub fuse_us: f64,
    pub graph_us: f64,
    pub compile_us: f64,
    pub lookup_miss_us: f64,
    pub store_us: f64,
    pub sim_query_ms: f64,
    pub trace_ns: f64,
    pub route_ns: f64,
    pub peer_get_us: f64,
    pub peer_put_us: f64,
    pub execute_hit_us: f64,
}

struct Prober<'l, 't> {
    lane: &'l mut Lane<'t>,
    scale: Scale,
    layer: SpanRef,
    op: u64,
}

impl Prober<'_, '_> {
    /// Open the parent span of a layer's probes (closing the previous one).
    fn layer(&mut self, name: &'static str) {
        self.lane.end(self.layer);
        self.op += 1;
        self.layer = self.lane.begin(SpanRef::NONE, self.op, name);
    }

    /// Call `f` in spans of `batch` calls until the scale's call and time
    /// floors are met (or its time cap); median nanoseconds per call.
    fn run<T>(&mut self, name: &'static str, batch: usize, mut f: impl FnMut(usize) -> T) -> f64 {
        let mut samples = Vec::new();
        let started = Instant::now();
        let mut k = 0usize;
        loop {
            let elapsed = started.elapsed();
            let enough = k >= self.scale.probe_min_calls
                && elapsed >= Duration::from_millis(self.scale.probe_min_ms);
            if k > 0 && (enough || elapsed >= Duration::from_millis(self.scale.probe_max_ms)) {
                break;
            }
            let span = self.lane.begin(self.layer, self.op, name);
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f(black_box(k)));
                k += 1;
            }
            let ns = t0.elapsed().as_nanos() as f64;
            self.lane.attr(span, "count", Attr::Num(batch as f64));
            self.lane.end(span);
            samples.push(ns / batch as f64);
        }
        median(&samples)
    }
}

/// A filter no generated row satisfies and no cached entry carries: makes a
/// query the caches have never seen out of one they have.
fn unseen(spec: &QuerySpec, k: usize) -> QuerySpec {
    spec.clone()
        .filter(bin(BinOp::Eq, col("distance"), lit(-1 - k as i64)))
}

pub fn run(
    inputs: &ProbeInputs<'_>,
    scale: &Scale,
    lane: &mut Lane<'_>,
    m: &mut Metrics,
) -> LayerTimes {
    let mut times = LayerTimes::default();
    let mut p = Prober {
        lane,
        scale: *scale,
        layer: SpanRef::NONE,
        op: 1 << 48,
    };
    let specs: Vec<&QuerySpec> = inputs.answers.iter().map(|(s, _)| s).collect();
    let plans: Vec<LogicalPlan> = specs.iter().filter_map(|s| s.to_plan().ok()).collect();
    if plans.is_empty() {
        return times;
    }
    let managed = inputs.qp.registry.get(inputs.source).ok();

    // ---- tde
    p.layer("probe.tde");
    let tde = Tde::new(Arc::clone(inputs.db));
    let parallel = ExecOptions::default();
    let serial = ExecOptions::serial();
    let ns = p.run("tde.execute", 1, |k| {
        tde.execute_plan(&plans[k % plans.len()], &parallel)
    });
    times.tde_execute_ms = ns / 1e6;
    m.set("tde.execute_ms", ns / 1e6);
    let rows = inputs.db.resolve("flights").map_or(0, |t| t.row_count());
    m.set("tde.rows_per_s", rows as f64 / (ns / 1e9));
    let ns = p.run("tde.execute_serial", 1, |k| {
        tde.execute_plan(&plans[k % plans.len()], &serial)
    });
    m.set("tde.execute_serial_ms", ns / 1e6);
    let ns = p.run("tde.plan_physical", 10, |k| {
        tde.plan_physical(&plans[k % plans.len()], &parallel)
    });
    m.set("tde.plan_us", ns / 1e3);

    // ---- tql
    p.layer("probe.tql");
    let texts: Vec<String> = plans.iter().map(write_plan).collect();
    let ns = p.run("tql.parse_plan", 20, |k| {
        parse_plan(&texts[k % texts.len()])
    });
    m.set("tql.parse_us", ns / 1e3);
    let ns = p.run("tql.write_plan", 20, |k| {
        write_plan(&plans[k % plans.len()])
    });
    m.set("tql.write_us", ns / 1e3);

    // ---- storage
    p.layer("probe.storage");
    if let Ok(table) = inputs.db.resolve("flights") {
        m.set(
            "storage.encoded_bytes_per_row",
            table.encoded_bytes() as f64 / table.row_count().max(1) as f64,
        );
    }
    let image = pack(inputs.db);
    let mb = image.len() as f64 / 1e6;
    let ns = p.run("storage.pack", 1, |_| pack(inputs.db));
    m.set("storage.pack_mb_s", mb / (ns / 1e9));
    let ns = p.run("storage.unpack", 1, |_| unpack(&image));
    m.set("storage.unpack_mb_s", mb / (ns / 1e9));
    drop(image);

    // ---- core
    p.layer("probe.core");
    if let Some(managed) = &managed {
        let caps = managed.capabilities();
        let ns = p.run("core.compile_spec", 10, |k| {
            compile_spec(specs[k % specs.len()], caps, &managed.compile_options)
        });
        times.compile_us = ns / 1e3;
        m.set("core.compile_us", ns / 1e3);
    }
    if !inputs.batches.is_empty() {
        let batches = &inputs.batches;
        let ns = p.run("core.fuse", 10, |k| fuse(&batches[k % batches.len()]));
        times.fuse_us = ns / 1e3;
        m.set("core.fuse_us", ns / 1e3);
        let fused: Vec<Vec<QuerySpec>> = batches.iter().map(|b| fuse(b).fused).collect();
        let ns = p.run("core.opportunity_graph", 10, |k| {
            opportunity_graph(&fused[k % fused.len()])
        });
        times.graph_us = ns / 1e3;
        m.set("core.graph_us", ns / 1e3);
    }
    // A processor of the harness's own over the same data, no simulated
    // latency: every captured query runs once, then repeats are cache hits.
    let hit_qp = QueryProcessor::default();
    hit_qp.registry.register(
        Arc::new(TdeDataSource::new(inputs.source, Arc::clone(inputs.db))),
        2,
    );
    let mut hit_specs: Vec<QuerySpec> = Vec::new();
    for spec in &specs {
        let mut spec = (*spec).clone();
        spec.source = inputs.source.to_string();
        if hit_qp.execute(&spec).is_ok()
            && matches!(hit_qp.execute(&spec), Ok((_, o)) if o != ExecOutcome::Remote)
        {
            hit_specs.push(spec);
        }
    }
    if !hit_specs.is_empty() {
        let ns = p.run("core.execute_hit", 10, |k| {
            hit_qp.execute(&hit_specs[k % hit_specs.len()])
        });
        times.execute_hit_us = ns / 1e3;
        m.set("core.execute_hit_us", ns / 1e3);
    }

    // ---- cache
    p.layer("probe.cache");
    if let Some(managed) = &managed {
        let caps = managed.capabilities();
        let compiled_text = |spec: &QuerySpec| -> String {
            compile_spec(spec, caps, &managed.compile_options)
                .map(|c| c.remote.text)
                .unwrap_or_default()
        };
        // Lookups against the workload's own caches as the run left them;
        // each call is filed under the outcome it had.
        let caches = &inputs.qp.caches;
        m.set(
            "cache.entries",
            (caches.intelligent.len() + caches.literal.len()) as f64,
        );
        let seen: Vec<(QuerySpec, String)> = specs
            .iter()
            .map(|s| ((*s).clone(), compiled_text(s)))
            .collect();
        let unseen_specs: Vec<(QuerySpec, String)> = specs
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let spec = unseen(s, k);
                let text = compiled_text(&spec);
                (spec, text)
            })
            .collect();
        let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
        p.run("cache.lookup", 1, |k| {
            let (spec, text) = if k % 2 == 0 {
                &seen[(k / 2) % seen.len()]
            } else {
                &unseen_specs[(k / 2) % unseen_specs.len()]
            };
            let t0 = Instant::now();
            let (chunk, outcome) = caches.lookup(black_box(spec), black_box(text));
            let ns = t0.elapsed().as_nanos() as f64;
            if outcome == CacheOutcome::Miss {
                miss_ns.push(ns);
            } else {
                hit_ns.push(ns);
            }
            chunk
        });
        times.lookup_miss_us = median(&miss_ns) / 1e3;
        m.set("cache.lookup_hit_us", median(&hit_ns) / 1e3);
        m.set("cache.lookup_miss_us", times.lookup_miss_us);

        // Stores and purges go to caches of the harness's own.
        let scratch = QueryCaches::default();
        let cost = Duration::from_millis(5);
        let ns = p.run("cache.store", 1, |k| {
            let (spec, chunk) = &inputs.answers[k % inputs.answers.len()];
            scratch.store(unseen(spec, k), &seen[k % seen.len()].1, chunk, cost)
        });
        times.store_us = ns / 1e3;
        m.set("cache.store_us", ns / 1e3);
        let tag = table_tag(inputs.source, "flights");
        let mut purge_ns = Vec::new();
        p.run("cache.purge_tag", 1, |_| {
            let populated = QueryCaches::default();
            for ((spec, chunk), (_, text)) in inputs.answers.iter().zip(&seen) {
                populated.store(spec.clone(), text, chunk, cost);
            }
            let t0 = Instant::now();
            let purged = populated.purge_tag(black_box(&tag));
            purge_ns.push(t0.elapsed().as_nanos() as f64);
            purged
        });
        m.set("cache.purge_tag_us", median(&purge_ns) / 1e3);
    }
    let mut filters: Vec<Expr> = Vec::new();
    for f in specs.iter().flat_map(|s| &s.filters) {
        if filters.len() < 16 && !filters.contains(f) {
            filters.push(f.clone());
        }
    }
    if !filters.is_empty() {
        let n = filters.len();
        let ns = p.run("cache.implies", 1000, |k| {
            tabviz::cache::implication::implies(&filters[k % n], &filters[(k / n) % n])
        });
        m.set("cache.implies_ns", ns);
    }
    let chunks: Vec<&Chunk> = inputs.answers.iter().map(|(_, c)| c).collect();
    let encoded: Vec<_> = chunks.iter().filter_map(|c| encode_chunk(c).ok()).collect();
    if !encoded.is_empty() {
        let mean_mb =
            encoded.iter().map(|b| b.len()).sum::<usize>() as f64 / encoded.len() as f64 / 1e6;
        let ns = p.run("cache.encode_chunk", chunks.len(), |k| {
            encode_chunk(chunks[k % chunks.len()])
        });
        m.set("cache.encode_mb_s", mean_mb / (ns / 1e9));
        let ns = p.run("cache.decode_chunk", encoded.len(), |k| {
            decode_chunk(&encoded[k % encoded.len()])
        });
        m.set("cache.decode_mb_s", mean_mb / (ns / 1e9));
    }

    // ---- sched
    p.layer("probe.sched");
    let scheduler = Scheduler::new(SchedConfig::for_pool_capacity(4));
    let request = AdmitRequest::interactive("probe");
    let ns = p.run("sched.admit_release", 1000, |_| {
        scheduler.admit(&request).is_ok()
    });
    m.set("sched.admit_release_ns", ns);

    // ---- backend
    p.layer("probe.backend");
    let pool = ConnectionPool::new(
        Arc::new(TdeDataSource::new("probe", Arc::clone(inputs.db))),
        2,
    );
    drop(pool.acquire());
    let ns = p.run("backend.pool_acquire", 1000, |_| pool.acquire().is_ok());
    m.set("backend.pool_acquire_ns", ns);
    if let (Some(_), Some(managed)) = (inputs.sim, &managed) {
        let remote: Vec<RemoteQuery> = specs
            .iter()
            .filter_map(|s| compile_spec(s, managed.capabilities(), &managed.compile_options).ok())
            .filter(|c| c.temp_tables.is_empty())
            .map(|c| c.remote)
            .collect();
        if let (Ok(mut conn), false) = (managed.pool.acquire(), remote.is_empty()) {
            let ns = p.run("backend.sim_query", 1, |k| {
                conn.execute(&remote[k % remote.len()])
            });
            times.sim_query_ms = ns / 1e6;
            m.set("backend.sim_query_ms", ns / 1e6);
        }
    }

    // ---- obs
    p.layer("probe.obs");
    let ns = p.run("obs.trace", 1000, |k| {
        let trace = begin_trace();
        for _ in 0..4 {
            event_with(stage::CACHE_LOOKUP, Some("probe"), Some(k as u64), None);
        }
        trace.finish(Duration::from_micros(1)).trace_id
    });
    times.trace_ns = ns;
    m.set("obs.trace_ns", ns);

    if let Some(c) = &inputs.cluster {
        probe_cluster(&mut p, inputs, c, &mut times, m);
    }
    p.lane.end(p.layer);
    times
}

fn probe_cluster(
    p: &mut Prober<'_, '_>,
    inputs: &ProbeInputs<'_>,
    c: &ClusterInputs<'_>,
    times: &mut LayerTimes,
    m: &mut Metrics,
) {
    // ---- dataserver: a stand-alone server over the same data, no latency.
    p.layer("probe.dataserver");
    let qp = QueryProcessor::default();
    qp.registry.register(
        Arc::new(TdeDataSource::new(inputs.source, Arc::clone(inputs.db))),
        2,
    );
    let server = Arc::new(DataServer::new(qp));
    server.publish(PublishedSource::new(
        "probe",
        inputs.source,
        LogicalPlan::scan("flights"),
    ));
    let ns = p.run("dataserver.connect", 10, |_| {
        server.connect("probe", "viewer").is_ok()
    });
    m.set("dataserver.connect_us", ns / 1e3);
    if let Ok(session) = server.connect("probe", "viewer") {
        let warmed: Vec<&ClientQuery> = c
            .queries
            .iter()
            .filter(|q| {
                session.query(q).is_ok()
                    && matches!(session.query(q), Ok((_, o)) if o != ExecOutcome::Remote)
            })
            .collect();
        if !warmed.is_empty() {
            let ns = p.run("dataserver.hit_query", 10, |k| {
                session.query(warmed[k % warmed.len()])
            });
            m.set("dataserver.hit_query_us", ns / 1e3);
        }
    }

    // ---- cluster
    p.layer("probe.cluster");
    let keys: Vec<(String, String)> = c
        .published
        .iter()
        .flat_map(|d| c.users.iter().map(move |u| (d.clone(), format!("{u}@{d}"))))
        .collect();
    let ns = p.run("cluster.route", 100, |k| {
        let (published, session_key) = &keys[k % keys.len()];
        c.cluster.route(published, session_key).is_ok()
    });
    times.route_ns = ns;
    m.set("cluster.route_ns", ns);
    let ns = p.run("cluster.open_session", 10, |k| {
        let (published, _) = &keys[k % keys.len()];
        c.cluster
            .open_session(published, c.users[k % c.users.len()].clone())
            .is_ok()
    });
    m.set("cluster.open_session_us", ns / 1e3);

    // A peer tier of the harness's own: same shape, same simulated round trip.
    let config = c.cluster.config();
    let mut ring = HashRing::new(config.seed, config.vnodes);
    let mut peer = PeerTier::new(config.replication);
    for i in 0..config.nodes {
        let name = format!("node-{i}");
        ring.add_node(&name);
        peer.add_shard(&name, Arc::new(ExternalStore::new(config.peer_op_latency)));
    }
    let values: Vec<_> = inputs
        .answers
        .iter()
        .filter_map(|(_, chunk)| encode_chunk(chunk).ok())
        .collect();
    if values.is_empty() {
        return;
    }
    let tags = vec![table_tag(inputs.source, "flights")];
    let key = |k: usize| format!("probe\u{1}viewer\u{1}{}", write_expr(&lit(k as i64)));
    let stored = 64;
    let ns = p.run("cluster.peer_put", 1, |k| {
        peer.put_tagged(
            &ring,
            &key(k % stored),
            values[k % values.len()].clone(),
            &tags,
        )
    });
    times.peer_put_us = ns / 1e3;
    m.set("cluster.peer_put_us", ns / 1e3);
    for k in 0..stored {
        peer.put_tagged(&ring, &key(k), values[k % values.len()].clone(), &tags);
    }
    let ns = p.run("cluster.peer_get", 1, |k| {
        peer.get(&ring, &key(k % stored)).is_some()
    });
    times.peer_get_us = ns / 1e3;
    m.set("cluster.peer_get_us", ns / 1e3);
}
