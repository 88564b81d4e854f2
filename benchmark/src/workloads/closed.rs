//! The two closed-loop workloads: one client, the next interaction starts
//! when the previous one has rendered.

use super::{
    build_flights_db, digest_step, ms_since, note_failure, peak_rss_mb, timed_setup, Budget, Rng,
    RunConfig, RunOutput, SetupTimes, DIGEST_SEED,
};
use crate::metrics::Metrics;
use crate::oracle::Oracle;
use crate::probes::{self, LayerTimes, ProbeInputs};
use crate::stats::{highest, iqr_fraction, lowest, median, percentile};
use crate::trace::{Attr, Lane, SpanRef, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tabviz::core::batch::BatchReport;
use tabviz::prelude::*;
// The prelude's one-parameter `Result` alias would shadow this.
use std::result::Result;
use tabviz::workloads::{carriers_dim, fig1_dashboard, fig2_dashboard};

/// The fixed latency limit of `bench.slo_miss_fraction`: between a cache
/// path (about 1 ms) and one simulated backend trip (about 20 ms).
pub const SLO_LIMIT_MS: f64 = 5.0;

/// Every run is cut into this many equal segments (2 s each at the
/// benchmark's 20 s). Latencies and throughput are taken per segment, and
/// the run reports its quietest segment: whatever else the shared host is
/// doing only ever adds time, in stretches of seconds, so the best segment is
/// the closest a run gets to the program's own speed.
pub const SEGMENTS: usize = 10;

/// What one interaction returned: the named queries it issued, their
/// answers, and the batch accounting.
struct Rendered {
    queries: Vec<(String, QuerySpec)>,
    results: HashMap<String, Chunk>,
    reports: Vec<BatchReport>,
    error: Option<String>,
}

struct LoopStats {
    latencies_ms: Vec<f64>,
    /// When op `i` completed, in seconds from the start of the window.
    ends_s: Vec<f64>,
    /// Whether op `i` recorded spans (every second one in a traced run).
    traced: Vec<bool>,
    wall_s: f64,
    rendered: Vec<Rendered>,
}

/// Run interactions back to back until the budget is spent.
fn closed_loop(
    budget: Budget,
    traced: bool,
    lane: &mut Lane<'_>,
    mut interact: impl FnMut(u64, &mut Lane<'_>, SpanRef) -> Rendered,
) -> LoopStats {
    let mut stats = LoopStats {
        latencies_ms: Vec::new(),
        ends_s: Vec::new(),
        traced: Vec::new(),
        wall_s: 0.0,
        rendered: Vec::new(),
    };
    let started = Instant::now();
    for i in 0u64.. {
        match budget {
            Budget::Seconds(s) if started.elapsed().as_secs_f64() >= s => break,
            Budget::Ops(n) if i as usize >= n => break,
            _ => {}
        }
        // In a traced run every second interaction records no spans, so the
        // cost of recording is a paired difference inside one run.
        let on = traced && i.is_multiple_of(2);
        lane.set_on(on);
        let root = lane.begin(SpanRef::NONE, i, "op");
        let t0 = Instant::now();
        let rendered = interact(i, lane, root);
        stats.latencies_ms.push(ms_since(t0));
        stats.ends_s.push(started.elapsed().as_secs_f64());
        stats.traced.push(on);
        lane.attr(root, "ok", Attr::Flag(rendered.error.is_none()));
        lane.attr(
            root,
            "remote",
            Attr::Num(sum(&rendered.reports, |r| r.remote)),
        );
        lane.attr(
            root,
            "local",
            Attr::Num(sum(&rendered.reports, |r| r.local)),
        );
        lane.end(root);
        stats.rendered.push(rendered);
    }
    lane.set_on(traced);
    stats.wall_s = started.elapsed().as_secs_f64();
    stats
}

fn sum(reports: &[BatchReport], f: impl Fn(&BatchReport) -> usize) -> f64 {
    reports.iter().map(|r| f(r) as f64).sum()
}

/// One `execute_batch` call, as an interaction.
fn run_batch(
    qp: &QueryProcessor,
    queries: Vec<(String, QuerySpec)>,
    lane: &mut Lane<'_>,
    root: SpanRef,
    op: u64,
) -> Rendered {
    let out = lane.time(root, op, "core.execute_batch", || {
        execute_batch(qp, &queries, &BatchOptions::default())
    });
    match out {
        Ok(out) => Rendered {
            error: out
                .failed
                .iter()
                .next()
                .map(|(zone, e)| format!("zone {zone}: {e}")),
            queries,
            results: out.results,
            reports: vec![out.report],
        },
        Err(e) => Rendered {
            queries,
            results: HashMap::new(),
            reports: Vec::new(),
            error: Some(e.to_string()),
        },
    }
}

/// End-to-end and harness metrics every closed loop reports the same way:
/// like the storms', the per-segment value of the quietest segment.
fn report_loop(m: &mut Metrics, stats: &LoopStats, traced: bool) {
    let lat = &stats.latencies_ms;
    // Equal shares of the interactions, in order (sizes differ by one at most).
    let bounds: Vec<(usize, usize)> = (0..SEGMENTS)
        .map(|k| (k * lat.len() / SEGMENTS, (k + 1) * lat.len() / SEGMENTS))
        .filter(|(from, to)| to > from)
        .collect();
    let per_segment = |f: &dyn Fn(&[f64]) -> f64| -> Vec<f64> {
        bounds.iter().map(|&(from, to)| f(&lat[from..to])).collect()
    };
    let medians = per_segment(&median);
    let p95s = per_segment(&|l| percentile(l, 0.95));
    // Interactions completed in a segment over the time it took.
    let rates: Vec<f64> = bounds
        .iter()
        .map(|&(from, to)| {
            let began = from.checked_sub(1).map_or(0.0, |i| stats.ends_s[i]);
            (to - from) as f64 / (stats.ends_s[to - 1] - began)
        })
        .collect();
    eprintln!("segment p50 ms: {medians:.3?}");
    eprintln!("segment p95 ms: {p95s:.3?}");
    eprintln!("segment 1/s: {rates:.3?}");
    m.set("interaction_p50_ms", lowest(&medians));
    m.set("interaction_p95_ms", lowest(&p95s));
    m.set("bench.interactions_per_s", highest(&rates));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("bench.segment_iqr_fraction", iqr_fraction(&medians));
    let misses = lat
        .iter()
        .zip(&stats.rendered)
        .filter(|(l, r)| **l > SLO_LIMIT_MS || r.error.is_some())
        .count();
    m.set(
        "bench.slo_miss_fraction",
        misses as f64 / lat.len().max(1) as f64,
    );
    if traced {
        let pick = |on: bool| -> Vec<f64> {
            lat.iter()
                .zip(&stats.traced)
                .filter(|(_, &t)| t == on)
                .map(|(l, _)| *l)
                .collect()
        };
        let (with, without) = (median(&pick(true)), median(&pick(false)));
        m.set("bench.trace_overhead_fraction", (with - without) / without);
    }
}

/// Interactions checked against the oracle per run, spread evenly over it
/// (a reference evaluation costs 15 ms at 300 000 rows).
const ORACLE_OPS: usize = 24;

/// Check a sample of interactions against the oracle; returns failed ops.
fn check_results(oracle: &mut Oracle, stats: &LoopStats, failures: &mut Vec<String>) -> u64 {
    let stride = stats.rendered.len().div_ceil(ORACLE_OPS).max(1);
    let mut failed = 0;
    for (i, r) in stats.rendered.iter().enumerate() {
        let mut bad = r.error.clone();
        if bad.is_none() && i % stride == 0 {
            for (name, spec) in &r.queries {
                let verdict = match r.results.get(name) {
                    Some(chunk) => oracle.check(spec, chunk),
                    None => Err("no result".to_string()),
                };
                if let Err(why) = verdict {
                    bad = Some(format!("{name}: {why}"));
                    break;
                }
            }
        }
        if let Some(why) = bad {
            failed += 1;
            note_failure(failures, format!("op {i}: {why}"));
        }
    }
    failed
}

/// Warm-up interactions use indices no measured interaction reaches.
const WARMUP_BASE: u64 = 1 << 40;

/// The system one closed loop drives, as set-up left it.
struct Closed<'a> {
    db: &'a Arc<Database>,
    qp: &'a QueryProcessor,
    /// The processor's one registered source.
    source: &'static str,
    sim: Option<&'a SimDb>,
    /// Interactions before the measured window (set-up ran the first).
    warmups: u64,
    schedule_digest: u64,
    /// How many interactions' queries feed the probes.
    probe_sample: usize,
}

/// Totals the attribution models work from.
struct LoopTotals<'a> {
    ops: f64,
    /// Backend queries issued in the measured window.
    trips: f64,
    reports: Vec<&'a BatchReport>,
}

/// Warm up, measure, report, check and (traced) probe one closed loop.
/// `attributed_ms` is the workload's model of the time the probes account
/// for: probe medians times call counts.
fn measure(
    cfg: &RunConfig,
    mut lane: Lane<'_>,
    times: &SetupTimes,
    sys: &Closed<'_>,
    mut interact: impl FnMut(u64, &mut Lane<'_>, SpanRef) -> Rendered,
    attributed_ms: impl Fn(&LayerTimes, &LoopTotals<'_>) -> f64,
) -> Result<RunOutput, String> {
    for k in 1..sys.warmups {
        interact(WARMUP_BASE + k, &mut lane, SpanRef::NONE);
    }
    let before = sys.qp.stats();
    let busy_before = sys.sim.map(|s| s.stats().busy);
    let (cache_before, _) = sys.qp.caches.stats();
    let stats = closed_loop(cfg.budget, cfg.traced, &mut lane, &mut interact);
    let after = sys.qp.stats();

    let mut m = Metrics::default();
    times.report(&mut m);
    report_loop(&mut m, &stats, cfg.traced);
    let totals = LoopTotals {
        ops: stats.rendered.len().max(1) as f64,
        trips: (after.remote_queries - before.remote_queries) as f64,
        reports: stats.rendered.iter().flat_map(|r| &r.reports).collect(),
    };
    let per_op = |f: fn(&BatchReport) -> usize| -> f64 {
        totals.reports.iter().map(|r| f(r) as f64).sum::<f64>() / totals.ops
    };
    m.set("core.remote_per_op", per_op(|r| r.remote));
    m.set("core.local_per_op", per_op(|r| r.local));
    m.set("core.fused_away_per_op", per_op(|r| r.fused_away));
    m.set("backend.trips_per_op", totals.trips / totals.ops);
    let batch_wall: f64 = totals.reports.iter().map(|r| r.wall.as_secs_f64()).sum();
    m.set(
        "core.overlap_ratio",
        (after.remote_time - before.remote_time).as_secs_f64() / batch_wall,
    );
    if let (Some(sim), Some(busy_before)) = (sys.sim, busy_before) {
        m.set(
            "backend.sim_busy_fraction",
            (sim.stats().busy - busy_before).as_secs_f64() / stats.wall_s,
        );
    }
    report_processor(&mut m, sys.qp, sys.source, &cache_before);

    let mut failures = Vec::new();
    let mut oracle = Oracle::new(Arc::clone(sys.db));
    let failed = check_results(&mut oracle, &stats, &mut failures);

    if cfg.traced {
        let mut inputs = ProbeInputs::from_rendered(
            sys.db,
            sys.qp,
            sys.source,
            stats
                .rendered
                .iter()
                .take(sys.probe_sample)
                .map(|r| (&r.queries, &r.results)),
        );
        inputs.sim = sys.sim;
        let layer = probes::run(&inputs, &cfg.scale, &mut lane, &mut m);
        let op_wall_ms: f64 = stats.latencies_ms.iter().sum();
        m.set(
            "bench.engine_share",
            layer.tde_execute_ms * totals.trips / op_wall_ms,
        );
        m.set(
            "bench.unattributed_fraction",
            1.0 - attributed_ms(&layer, &totals) / op_wall_ms,
        );
    }

    Ok(RunOutput {
        attempted: stats.rendered.len() as u64,
        failed,
        failures,
        metrics: m,
        schedule_digest: sys.schedule_digest,
        spans: lane.into_spans(),
    })
}

/// Hit fractions and evictions from the processor's cache statistics, the
/// pool counters of its one registered source, its recorder and scheduler.
fn report_processor(
    m: &mut Metrics,
    qp: &QueryProcessor,
    source: &str,
    cache_before: &tabviz::cache::intelligent::IntelligentStats,
) {
    let (intelligent, literal) = qp.caches.stats();
    let exact = (intelligent.exact_hits - cache_before.exact_hits) as f64;
    let subsumed = (intelligent.subsumption_hits - cache_before.subsumption_hits) as f64;
    let lookups = exact + subsumed + (intelligent.misses - cache_before.misses) as f64;
    m.set("cache.exact_hit_fraction", exact / lookups);
    m.set("cache.subsumption_hit_fraction", subsumed / lookups);
    let tier = qp.caches.tier_stats();
    m.set(
        "cache.l2_hit_fraction",
        tier.l2_hits as f64 / (tier.l2_hits + tier.l2_misses) as f64,
    );
    m.set(
        "cache.evictions",
        (intelligent.evictions + literal.evictions) as f64,
    );
    if let Ok(managed) = qp.registry.get(source) {
        let pool = managed.pool.stats();
        m.set("backend.pool_opened", pool.opened as f64);
        m.set("backend.pool_reused", pool.reused as f64);
        m.set("backend.pool_waited", pool.waited as f64);
    }
    m.set("obs.recorder_bytes", qp.obs.recorder.bytes() as f64);
    if let Some(sched) = qp.scheduler() {
        let s = sched.stats();
        m.set("sched.shed", s.total_shed() as f64);
        m.set("sched.peak_queued", s.peak_queued as f64);
        m.set("sched.peak_running", s.peak_running as f64);
    }
}

// ------------------------------------------------------- extract_explore --

/// The seeded `distance` range of interaction `i`: a pure function of
/// `(seed, i)`, so the operation list does not depend on how many fit the
/// time budget. `distance` spans 150..2450 in the generated data.
fn explore_range(seed: u64, i: u64) -> (i64, i64) {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
    let lo = rng.range(150, 1650);
    (lo, lo + rng.range(300, 800))
}

/// Fig. 1's zones, each with the interaction's range quick filter.
fn explore_batch(dash: &Dashboard, seed: u64, i: u64) -> Vec<(String, QuerySpec)> {
    let (lo, hi) = explore_range(seed, i);
    dash.batch(&DashboardState::default(), false)
        .into_iter()
        .map(|(zone, spec)| {
            let spec = spec.filter(Expr::Between {
                expr: Box::new(col("distance")),
                low: Value::Int(lo),
                high: Value::Int(hi),
            });
            (zone, spec)
        })
        .collect()
}

struct Extract {
    db: Arc<Database>,
    qp: QueryProcessor,
    dash: Dashboard,
}

pub fn run_extract_explore(cfg: &RunConfig) -> Result<RunOutput, String> {
    let rows = 300_000 / cfg.scale.divisor;
    let tracer = Tracer::default();
    let interact = |sys: &Extract, i: u64, lane: &mut Lane<'_>, root: SpanRef| {
        run_batch(
            &sys.qp,
            explore_batch(&sys.dash, cfg.seed, i),
            lane,
            root,
            i,
        )
    };
    let (sys, times) = timed_setup(&cfg.scale, |t| {
        let db = build_flights_db(cfg.seed, rows, t)?;
        let qp = QueryProcessor::default();
        qp.registry
            .register(Arc::new(TdeDataSource::new("extract", Arc::clone(&db))), 2);
        let sys = Extract {
            db,
            qp,
            dash: fig1_dashboard("extract", "flights"),
        };
        match interact(&sys, WARMUP_BASE, &mut tracer.lane(), SpanRef::NONE).error {
            Some(e) => Err(format!("first interaction: {e}")),
            None => Ok(sys),
        }
    })?;
    let closed = Closed {
        db: &sys.db,
        qp: &sys.qp,
        source: "extract",
        sim: None,
        warmups: (20 / cfg.scale.divisor).max(2) as u64,
        // Over a fixed prefix of the operation list, so it depends on the
        // seed and not on how many interactions fit the budget.
        schedule_digest: (0..64).fold(DIGEST_SEED, |h, i| {
            let (lo, hi) = explore_range(cfg.seed, i);
            digest_step(digest_step(h, lo as u64), hi as u64)
        }),
        probe_sample: usize::MAX,
    };
    measure(
        cfg,
        tracer.lane(),
        &times,
        &closed,
        |i, lane, root| interact(&sys, i, lane, root),
        // Per interaction one fusion pass and one opportunity graph; per
        // engine trip one compile, one cache miss, one store and one engine
        // execution (trips overlap, so this may exceed the wall time).
        |layer, totals| {
            totals.trips * layer.tde_execute_ms
                + totals.ops * (layer.fuse_us + layer.graph_us) / 1e3
                + totals.trips * (layer.compile_us + layer.lookup_miss_us + layer.store_us) / 1e3
        },
    )
}

// -------------------------------------------------------- warehouse_load --

/// Connections to the simulated warehouse.
const POOL: usize = 4;

/// Rows of the warehouse's `flights` table: few enough that the engine's
/// share of a simulated trip is a few per cent, so an interaction's time is
/// the trips' simulated latency and how they overlap, which a busy host
/// cannot stretch, and not processor time, which it can.
const WAREHOUSE_ROWS: usize = 5_000;

struct Warehouse {
    db: Arc<Database>,
    sim: SimDb,
    qp: QueryProcessor,
    fig1: Dashboard,
    fig2: Dashboard,
}

impl Warehouse {
    /// "Open the workbook": with cold caches, render Fig. 1 and Fig. 2 with
    /// their quick-filter domains. One interaction is both renders, so the
    /// latency distribution has one mode.
    fn open_workbook(&self, lane: &mut Lane<'_>, root: SpanRef, op: u64) -> Rendered {
        self.qp.caches.clear();
        let mut rendered = Rendered {
            queries: Vec::new(),
            results: HashMap::new(),
            reports: Vec::new(),
            error: None,
        };
        for (prefix, dash) in [("fig1/", &self.fig1), ("fig2/", &self.fig2)] {
            let mut state = DashboardState::default();
            let out = lane.time(root, op, "core.render", || {
                dash.render(&self.qp, &mut state, &BatchOptions::default(), true)
            });
            match out {
                Ok((results, report)) => {
                    for (name, spec) in dash.batch(&state, true) {
                        rendered.queries.push((format!("{prefix}{name}"), spec));
                    }
                    for (name, chunk) in results {
                        rendered.results.insert(format!("{prefix}{name}"), chunk);
                    }
                    rendered.reports.extend(report.batches);
                }
                Err(e) => rendered.error = Some(format!("{prefix}: {e}")),
            }
        }
        rendered
    }
}

pub fn run_warehouse_load(cfg: &RunConfig) -> Result<RunOutput, String> {
    let rows = WAREHOUSE_ROWS / cfg.scale.divisor;
    let tracer = Tracer::default();
    let (sys, times) = timed_setup(&cfg.scale, |t| {
        let db = build_flights_db(cfg.seed, rows, t)?;
        let carriers = carriers_dim().map_err(|e| e.to_string())?;
        db.put(Table::from_chunk("carriers", &carriers, &["code"]).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let sim = SimDb::new(
            "warehouse",
            Arc::clone(&db),
            SimConfig {
                latency: LatencyModel::wan(),
                ..Default::default()
            },
        );
        let mut qp = QueryProcessor::default();
        qp.registry.register(Arc::new(sim.clone()), POOL);
        qp.enable_scheduler();
        let sys = Warehouse {
            db,
            sim,
            qp,
            fig1: fig1_dashboard("warehouse", "flights"),
            fig2: fig2_dashboard("warehouse", "flights", "carriers"),
        };
        match sys
            .open_workbook(&mut tracer.lane(), SpanRef::NONE, 0)
            .error
        {
            Some(e) => Err(format!("first interaction: {e}")),
            None => Ok(sys),
        }
    })?;
    let closed = Closed {
        db: &sys.db,
        qp: &sys.qp,
        source: "warehouse",
        sim: Some(&sys.sim),
        // An interaction slows from 58 to 64 ms over this processor's first
        // forty and then stays there; the window starts after that.
        warmups: (50 / cfg.scale.divisor).max(2) as u64,
        // Every interaction is the same pair of renders; the seed picks the data.
        schedule_digest: digest_step(digest_step(DIGEST_SEED, cfg.seed), rows as u64),
        probe_sample: 1,
    };
    measure(
        cfg,
        tracer.lane(),
        &times,
        &closed,
        |i, lane, root| sys.open_workbook(lane, root, i),
        // A batch's remote queries go out in waves of the pool's four
        // connections and the batch waits for the last wave: one simulated
        // trip per wave, plus the per-batch and per-trip processor work.
        |layer, totals| {
            let waves: f64 = totals
                .reports
                .iter()
                .map(|r| r.remote.div_ceil(POOL) as f64)
                .sum();
            waves * layer.sim_query_ms
                + totals.reports.len() as f64 * (layer.fuse_us + layer.graph_us) / 1e3
                + totals.trips * (layer.compile_us + layer.lookup_miss_us + layer.store_us) / 1e3
        },
    )
}
