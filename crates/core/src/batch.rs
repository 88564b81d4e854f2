//! Query batch processing (Sect. 3.3).
//!
//! "Consider a query batch B = [q1, .., qn] ... consider a directed graph G
//! with the queries as nodes and edges pointing from qi to qj iff the result
//! of qj can be computed from the results of qi (Fig. 3). ... we process the
//! batch in two phases. First, we analyze it and partition the nodes of G
//! into two sets. One set contains queries that need to be sent to the
//! remote back-ends; they correspond to the source nodes ... The second set
//! contains queries that are cache hits that can be processed locally. In
//! the second phase, remote queries are submitted for execution concurrently
//! and the local ones are processed as soon as any of their predecessors in
//! G finishes."
//!
//! Fusion (Sect. 3.4) brackets the analysis: projection fusion runs first,
//! level-of-detail fusion over the remote set last. Either way originals are
//! recovered from the executed results through the intelligent cache's
//! post-processing.

use crate::fusion::{fuse, synthesize_covers, RelationStats};
use crate::processor::{ExecOutcome, QueryProcessor};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tabviz_cache::{subsumes, QuerySpec};
use tabviz_common::{Chunk, Result, TvError};
use tabviz_sched::{AdmitRequest, Priority};

/// Batch execution strategy (each combination is an E1/E2 data point).
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Apply query fusion before partitioning.
    pub fuse: bool,
    /// Submit remote queries concurrently (vs one at a time).
    pub concurrent: bool,
    /// Build the opportunity graph and run derivable queries locally
    /// (vs sending every query to the backend).
    pub cache_aware: bool,
}

/// Workload class every batch's zones are admitted under.
const BATCH_PRIORITY: Priority = Priority::Batch;

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            fuse: true,
            concurrent: true,
            cache_aware: true,
        }
    }
}

/// Per-batch accounting.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    pub wall: Duration,
    /// Backend trips: the graph's remote nodes (covers included) that were
    /// answered by the backend. A remote node that a sibling's widened
    /// result, or the shared L2 tier, answered first is not counted.
    pub remote: usize,
    /// Queries answered from cache/subsumption locally.
    pub local: usize,
    /// Queries eliminated by fusion.
    pub fused_away: usize,
    /// Zones whose query was folded into a synthesized cover query and
    /// rolled up from its result (level-of-detail fusion).
    pub covered: usize,
    /// Zones rendered from a stale cache entry (backend unavailable).
    pub degraded: usize,
    /// Zones that produced no result at all.
    pub failed: usize,
    /// Zones abandoned because a sibling failed fatally.
    pub cancelled: usize,
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} remote, {} local, {} fused away, {} covered",
            self.remote, self.local, self.fused_away, self.covered
        )
    }
}

/// Results keyed by the caller's names.
///
/// A batch against a faulty backend degrades rather than failing wholesale:
/// every zone lands in exactly one of `results` (fresh or stale — see
/// [`BatchResult::stale`]) or `failed` (typed error). Only infrastructure
/// defects (bookkeeping bugs, poisoned worker threads) abort the whole call.
#[derive(Debug)]
pub struct BatchResult {
    pub results: HashMap<String, Chunk>,
    /// Names in `results` that were answered from a cache entry marked
    /// stale: rendered, but the caller should badge them as outdated.
    pub stale: HashSet<String>,
    /// Names with no usable result, and why. Siblings abandoned after a
    /// fatal failure carry [`TvError::Cancelled`].
    pub failed: HashMap<String, TvError>,
    pub report: BatchReport,
}

impl BatchResult {
    /// Every zone rendered, none of them from stale data.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.stale.is_empty()
    }
}

/// Build the Fig. 3 opportunity graph over deduplicated specs and return,
/// for each node, the indices it can be derived from.
pub fn opportunity_graph(specs: &[QuerySpec]) -> Vec<Vec<usize>> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); specs.len()];
    for i in 0..specs.len() {
        for j in 0..specs.len() {
            if i == j {
                continue;
            }
            if subsumes(&specs[i], &specs[j]) {
                preds[j].push(i);
            }
        }
    }
    preds
}

/// Phase 1b, level-of-detail fusion: where a source's remote nodes need more
/// than one wave of its connection pool, replace some of them by synthesized
/// cover queries (see [`synthesize_covers`]). Covers join `nodes` as remote
/// nodes; the members they stand in for move to the local set, where the
/// cache rolls them up from the cover's result like any other derivable
/// query. Returns the member nodes.
fn plan_covers(
    processor: &QueryProcessor,
    nodes: &mut Vec<QuerySpec>,
    remote_idx: &mut Vec<usize>,
    local_idx: &mut Vec<usize>,
) -> Vec<usize> {
    let mut by_source: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &i in remote_idx.iter() {
        by_source.entry(&nodes[i].source).or_default().push(i);
    }
    let mut members: Vec<usize> = Vec::new();
    let mut covers: Vec<QuerySpec> = Vec::new();
    for (source, idxs) in by_source {
        // An unknown source fails each of its nodes at execution.
        let Ok(managed) = processor.registry.get(source) else {
            continue;
        };
        let slots = managed.pool.max_size();
        if idxs.len() <= slots {
            continue;
        }
        // The graph knows this batch only. A source node that an earlier
        // batch left in the cache takes no connection, so it neither counts
        // toward a wave nor is worth folding into a query that does leave.
        let leaving: Vec<usize> = idxs
            .into_iter()
            .filter(|&i| !processor.caches.intelligent.can_answer(&nodes[i]))
            .collect();
        let specs: Vec<&QuerySpec> = leaving.iter().map(|&i| &nodes[i]).collect();
        for cover in synthesize_covers(&specs, slots, |s| RelationStats::of(&managed, s)) {
            members.extend(cover.members.iter().map(|&m| leaving[m]));
            covers.push(cover.spec);
        }
    }
    remote_idx.retain(|i| !members.contains(i));
    local_idx.extend(&members);
    for spec in covers {
        remote_idx.push(nodes.len());
        nodes.push(spec);
    }
    members
}

/// Execute a named batch of queries.
pub fn execute_batch(
    processor: &QueryProcessor,
    queries: &[(String, QuerySpec)],
    options: &BatchOptions,
) -> Result<BatchResult> {
    let t0 = Instant::now();
    let mut report = BatchReport::default();

    // Identical zone queries collapse first. This is the one place a query's
    // canonical text is computed; from here on queries are carried by index.
    let mut seen: HashMap<String, usize> = HashMap::with_capacity(queries.len());
    let mut distinct: Vec<QuerySpec> = Vec::new();
    let distinct_of: Vec<usize> = queries
        .iter()
        .map(|(_, spec)| {
            *seen.entry(spec.canonical_text()).or_insert_with(|| {
                distinct.push(spec.clone());
                distinct.len() - 1
            })
        })
        .collect();

    // Phase 0: projection fusion. `nodes` are the queries to execute,
    // `node_of` maps each distinct query to the node that answers it.
    let (mut nodes, node_of): (Vec<QuerySpec>, Vec<usize>) = if options.fuse {
        let mut fspan = tabviz_obs::span(tabviz_obs::stage::FUSION);
        fspan.label("projection");
        let plan = fuse(&distinct);
        report.fused_away = queries.len() - plan.fused.len();
        fspan.detail(report.fused_away as u64);
        (plan.fused, plan.assignment)
    } else {
        (distinct.clone(), (0..distinct.len()).collect())
    };

    // Phase 1: partition into remote sources and locally-derivable queries.
    // Remote = nodes with no incoming edge.
    let mut pspan = tabviz_obs::span(tabviz_obs::stage::BATCH_PARTITION);
    let preds = if options.cache_aware {
        opportunity_graph(&nodes)
    } else {
        vec![Vec::new(); nodes.len()]
    };
    let (mut remote_idx, mut local_idx): (Vec<usize>, Vec<usize>) =
        (0..nodes.len()).partition(|&i| preds[i].is_empty());
    pspan.detail(remote_idx.len() as u64);
    drop(pspan);

    // Phase 1b: level-of-detail fusion. Its members are answered through the
    // intelligent cache, like every local node and every fused original.
    if options.fuse && options.cache_aware {
        let mut cspan = tabviz_obs::span(tabviz_obs::stage::FUSION);
        cspan.label("cover");
        let members = plan_covers(processor, &mut nodes, &mut remote_idx, &mut local_idx);
        cspan.detail(members.len() as u64);
        report.covered = distinct_of
            .iter()
            .filter(|&&d| members.contains(&node_of[d]))
            .count();
    }

    // Phase 2: concurrent remote submission. Each remote execution lands in
    // the shared caches, which is what unblocks the local set. A fatal
    // (non-degradable) failure raises the cancel flag so queries that have
    // not started yet are abandoned instead of piling onto a broken batch.
    let cancel = AtomicBool::new(false);
    let admit = AdmitRequest::new(BATCH_PRIORITY, "batch");
    let run_one = |spec: &QuerySpec| -> Result<(Chunk, ExecOutcome)> {
        if cancel.load(Ordering::SeqCst) {
            return Err(TvError::Cancelled(
                "abandoned: a sibling batch query failed fatally".into(),
            ));
        }
        processor.execute_as(spec, &admit).inspect_err(|e| {
            if !e.is_degradable() {
                cancel.store(true, Ordering::SeqCst);
            }
        })
    };

    let mut executed: Vec<Option<Result<(Chunk, ExecOutcome)>>> =
        nodes.iter().map(|_| None).collect();
    if options.concurrent && remote_idx.len() > 1 {
        // Zone workers run on their own threads; carrying the batch
        // caller's trace context over lets each zone query's trace record
        // the enclosing trace as its parent.
        let trace_ctx = tabviz_obs::TraceCtx::current();
        let outputs = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &i in &remote_idx {
                let spec = &nodes[i];
                let run_one = &run_one;
                let ctx = trace_ctx.clone();
                handles.push((
                    i,
                    scope.spawn(move || {
                        let _trace = ctx.map(|c| c.install());
                        run_one(spec)
                    }),
                ));
            }
            handles
                .into_iter()
                .map(|(i, h)| {
                    let r = h
                        .join()
                        .unwrap_or_else(|_| Err(TvError::Exec("batch worker panicked".into())));
                    (i, r)
                })
                .collect::<Vec<_>>()
        });
        for (i, r) in outputs {
            executed[i] = Some(r);
        }
    } else {
        for &i in &remote_idx {
            executed[i] = Some(run_one(&nodes[i]));
        }
    }
    report.remote = remote_idx
        .iter()
        .filter(|&&i| matches!(executed[i], Some(Ok((_, ExecOutcome::Remote)))))
        .count();

    // Local queries: all predecessors are cached now; the processor's
    // intelligent-cache path answers them without touching the backend.
    for &i in &local_idx {
        executed[i] = Some(run_one(&nodes[i]));
    }
    report.local = local_idx.len();

    // Deliver each original query's result: executed specs directly, fused
    // originals projected back out of the fused entry by the cache. A zone
    // whose executing query failed gets one last degraded chance: a stale
    // intelligent-cache entry covering the original (no further remote
    // traffic).
    let mut results = HashMap::with_capacity(queries.len());
    let mut stale: HashSet<String> = HashSet::new();
    let mut failed: HashMap<String, TvError> = HashMap::new();
    for ((name, original), &d) in queries.iter().zip(&distinct_of) {
        let node = node_of[d];
        let outcome = executed[node]
            .as_ref()
            .ok_or_else(|| TvError::Exec("batch bookkeeping lost a result".into()))?;
        match outcome {
            Ok((chunk, o)) if nodes[node] == distinct[d] => {
                results.insert(name.clone(), chunk.clone());
                if *o == ExecOutcome::DegradedStale {
                    stale.insert(name.clone());
                }
            }
            Ok((_, node_outcome)) => match processor.execute_as(original, &admit) {
                Ok((chunk, o)) => {
                    results.insert(name.clone(), chunk);
                    if *node_outcome == ExecOutcome::DegradedStale
                        || o == ExecOutcome::DegradedStale
                    {
                        stale.insert(name.clone());
                    }
                }
                Err(e) => {
                    failed.insert(name.clone(), e);
                }
            },
            Err(e) => match processor
                .options
                .serve_stale_on_failure
                .then(|| processor.caches.intelligent.get_stale(original))
                .flatten()
            {
                Some(chunk) => {
                    results.insert(name.clone(), chunk);
                    stale.insert(name.clone());
                }
                None => {
                    failed.insert(name.clone(), e.clone());
                }
            },
        }
    }

    report.degraded = stale.len();
    report.failed = failed.len();
    report.cancelled = failed
        .values()
        .filter(|e| matches!(e, TvError::Cancelled(_)))
        .count();
    report.wall = t0.elapsed();

    // Per-batch completion metrics (get-or-create is a read-lock fast path).
    let reg = &processor.obs.registry;
    reg.counter("tv_core_batches_total").inc();
    reg.counter("tv_core_batch_zones_total")
        .add(queries.len() as u64);
    reg.counter("tv_core_batch_remote_total")
        .add(report.remote as u64);
    reg.counter("tv_core_batch_local_total")
        .add(report.local as u64);
    reg.counter("tv_core_batch_fused_away_total")
        .add(report.fused_away as u64);
    reg.counter("tv_core_batch_covered_total")
        .add(report.covered as u64);
    reg.counter("tv_core_batch_degraded_total")
        .add(report.degraded as u64);
    reg.counter("tv_core_batch_failed_total")
        .add(report.failed as u64);
    reg.histogram("tv_core_batch_seconds").observe(report.wall);

    Ok(BatchResult {
        results,
        stale,
        failed,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::ExecOutcome;
    use std::sync::Arc;
    use std::time::Duration as StdDuration;
    use tabviz_backend::{LatencyModel, SimConfig, SimDb};
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_storage::{Database, Table};
    use tabviz_tql::expr::{bin, col, lit, BinOp};
    use tabviz_tql::{AggCall, AggFunc, LogicalPlan, SortKey};

    fn flights_db(rows: usize) -> Arc<Database> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("origin", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Str(["AA", "DL", "WN", "UA"][i % 4].into()),
                    Value::Str(["JFK", "LAX", "SFO"][i % 3].into()),
                    Value::Int((i % 120) as i64),
                ]
            })
            .collect();
        let db = Arc::new(Database::new("remote"));
        db.put(
            Table::from_chunk("flights", &Chunk::from_rows(schema, &data).unwrap(), &[]).unwrap(),
        )
        .unwrap();
        db
    }

    fn processor(latency: LatencyModel) -> (QueryProcessor, SimDb) {
        let sim = SimDb::new(
            "warehouse",
            flights_db(3000),
            SimConfig {
                latency,
                ..Default::default()
            },
        );
        let qp = QueryProcessor::default();
        qp.registry.register(Arc::new(sim.clone()), 8);
        (qp, sim)
    }

    /// A Fig. 1-style dashboard batch: several zones sharing filters, one
    /// fine-grained query that subsumes a coarse one.
    fn dashboard_batch() -> Vec<(String, QuerySpec)> {
        let rel = || LogicalPlan::scan("flights");
        let f = || bin(BinOp::Ge, col("delay"), lit(0i64));
        vec![
            (
                "by_carrier_origin".into(),
                QuerySpec::new("warehouse", rel())
                    .filter(f())
                    .group("carrier")
                    .group("origin")
                    .agg(AggCall::new(AggFunc::Count, None, "n"))
                    .agg(AggCall::new(AggFunc::Sum, Some(col("delay")), "total"))
                    .agg(AggCall::new(AggFunc::Count, Some(col("delay")), "cnt")),
            ),
            (
                "by_carrier".into(),
                QuerySpec::new("warehouse", rel())
                    .filter(f())
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Count, None, "n")),
            ),
            (
                "by_origin".into(),
                QuerySpec::new("warehouse", rel())
                    .filter(f())
                    .group("origin")
                    .agg(AggCall::new(AggFunc::Count, None, "n")),
            ),
            (
                "avg_delay_by_carrier".into(),
                QuerySpec::new("warehouse", rel())
                    .filter(f())
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Avg, Some(col("delay")), "avg")),
            ),
            (
                "top_carriers".into(),
                QuerySpec::new("warehouse", rel())
                    .filter(f())
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Count, None, "flights"))
                    .order_by(vec![SortKey::desc("flights")])
                    .top(2),
            ),
        ]
    }

    #[test]
    fn opportunity_graph_edges() {
        let specs: Vec<QuerySpec> = dashboard_batch().into_iter().map(|(_, s)| s).collect();
        let preds = opportunity_graph(&specs);
        // by_carrier (1), by_origin (2), avg (3) derive from the fine query (0).
        assert!(preds[1].contains(&0));
        assert!(preds[2].contains(&0));
        assert!(preds[0].is_empty());
    }

    #[test]
    fn batch_reduces_remote_queries() {
        let (qp, sim) = processor(LatencyModel::instant());
        let batch = dashboard_batch();
        let out = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
        assert_eq!(out.results.len(), 5);
        // All five zones answered with at most 2 remote queries (the fine
        // grouping + the top-n, which can't fuse or derive).
        assert!(
            sim.stats().queries <= 2,
            "remote queries: {}",
            sim.stats().queries
        );
        assert!(out.report.local >= 1);
        // Results are correct.
        let by_carrier = &out.results["by_carrier"];
        assert_eq!(by_carrier.len(), 4);
        let total: i64 = by_carrier
            .to_rows()
            .iter()
            .map(|r| r[1].as_int().unwrap())
            .sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn naive_mode_sends_everything() {
        // The full pre-optimization baseline: no fusion, no graph, and
        // caches that admit nothing (no entry fits a zero-byte budget, so
        // neither level finds one) — every zone query reaches the backend.
        let sim = SimDb::new("warehouse", flights_db(3000), SimConfig::default());
        let no_room = tabviz_cache::intelligent::CacheConfig {
            max_entry_bytes: 0,
            ..Default::default()
        };
        let qp = QueryProcessor::new(tabviz_cache::QueryCaches::new(no_room));
        qp.registry.register(Arc::new(sim.clone()), 8);
        let batch = dashboard_batch();
        let opts = BatchOptions {
            fuse: false,
            concurrent: false,
            cache_aware: false,
        };
        execute_batch(&qp, &batch, &opts).unwrap();
        assert_eq!(sim.stats().queries, 5);
    }

    #[test]
    fn batch_results_identical_across_strategies() {
        let configs = [
            BatchOptions {
                fuse: false,
                concurrent: false,
                cache_aware: false,
            },
            BatchOptions {
                fuse: true,
                concurrent: false,
                cache_aware: false,
            },
            BatchOptions {
                fuse: false,
                concurrent: true,
                cache_aware: true,
            },
            BatchOptions::default(),
        ];
        let mut reference: Option<HashMap<String, Vec<Vec<Value>>>> = None;
        for opts in configs {
            let (qp, _) = processor(LatencyModel::instant());
            let out = execute_batch(&qp, &dashboard_batch(), &opts).unwrap();
            let normalized: HashMap<String, Vec<Vec<Value>>> = out
                .results
                .into_iter()
                .map(|(k, v)| {
                    let mut rows = v.to_rows();
                    rows.sort();
                    (k, rows)
                })
                .collect();
            match &reference {
                None => reference = Some(normalized),
                Some(r) => assert_eq!(r, &normalized, "strategy {opts:?} diverged"),
            }
        }
    }

    #[test]
    fn concurrent_submission_is_faster_with_latency() {
        let mut latency = LatencyModel::instant();
        latency.dispatch = StdDuration::from_millis(15);
        // Distinct relations so nothing fuses or derives: 4 genuine remotes.
        let make_batch = |qp: &QueryProcessor| {
            let db = qp.registry.get("warehouse").unwrap();
            let _ = db;
            (0..4)
                .map(|i| {
                    (
                        format!("q{i}"),
                        QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
                            .filter(bin(
                                BinOp::Eq,
                                col("origin"),
                                lit(["JFK", "LAX", "SFO"][i % 3]),
                            ))
                            .filter(bin(BinOp::Ge, col("delay"), lit(i as i64)))
                            .group("carrier")
                            .agg(AggCall::new(AggFunc::Count, None, "n")),
                    )
                })
                .collect::<Vec<_>>()
        };
        let (mut qp1, _) = processor(latency);
        qp1.options.widen_for_reuse = false;
        let qp1 = qp1;
        let serial = execute_batch(
            &qp1,
            &make_batch(&qp1),
            &BatchOptions {
                concurrent: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (mut qp2, _) = processor(latency);
        qp2.options.widen_for_reuse = false;
        let qp2 = qp2;
        let conc = execute_batch(&qp2, &make_batch(&qp2), &BatchOptions::default()).unwrap();
        assert!(
            conc.report.wall < serial.report.wall,
            "concurrent {:?} vs serial {:?}",
            conc.report.wall,
            serial.report.wall
        );
    }

    #[test]
    fn duplicate_queries_collapse() {
        let (qp, sim) = processor(LatencyModel::instant());
        let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        let batch = vec![
            ("a".to_string(), spec.clone()),
            ("b".to_string(), spec.clone()),
            ("c".to_string(), spec),
        ];
        let out = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
        assert_eq!(out.results.len(), 3);
        assert_eq!(sim.stats().queries, 1);
    }

    /// A remote node answered from a sibling's widened result, which landed
    /// first, is no backend trip: `remote` counts the trips the sim saw.
    #[test]
    fn widened_sibling_answers_a_remote_node() {
        let sim = SimDb::new("warehouse", flights_db(3000), SimConfig::default());
        let config = tabviz_cache::intelligent::CacheConfig {
            min_cost: StdDuration::ZERO,
            ..Default::default()
        };
        let qp = QueryProcessor::new(tabviz_cache::QueryCaches::new(config));
        qp.registry.register(Arc::new(sim.clone()), 8);
        // Neither filter implies the other's answer (`delay` is not grouped),
        // so both zones are remote nodes of the graph.
        let delay_at_most = |k: i64| {
            QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
                .filter(bin(BinOp::Le, col("delay"), lit(k)))
                .group("carrier")
                .agg(AggCall::new(AggFunc::Avg, Some(col("delay")), "avg"))
        };
        let batch = vec![
            ("first".to_string(), delay_at_most(50)),
            ("second".to_string(), delay_at_most(60)),
        ];
        let one_by_one = BatchOptions {
            concurrent: false,
            ..Default::default()
        };
        let out = execute_batch(&qp, &batch, &one_by_one).unwrap();
        assert!(out.is_complete());
        assert_eq!(qp.stats().widened_queries, 1);
        assert_eq!(sim.stats().queries, 1);
        assert_eq!(out.report.remote, sim.stats().queries);
    }

    #[test]
    fn healthy_batch_is_complete() {
        let (qp, _) = processor(LatencyModel::instant());
        let out = execute_batch(&qp, &dashboard_batch(), &BatchOptions::default()).unwrap();
        assert!(out.is_complete());
        assert!(out.stale.is_empty() && out.failed.is_empty());
        assert_eq!(out.report.degraded, 0);
        assert_eq!(out.report.failed, 0);
    }

    #[test]
    fn mid_batch_connection_drops_degrade_to_stale_rendering() {
        use tabviz_backend::FaultPlan;
        let (qp, sim) = processor(LatencyModel::instant());
        let batch = dashboard_batch();
        // A healthy run fills the caches, then a refresh marks them stale.
        let healthy = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
        assert!(healthy.is_complete());
        qp.mark_source_stale("warehouse");
        // Every subsequent query drops its connection mid-flight.
        let mut plan = FaultPlan::seeded(4);
        plan.connection_drop = 1.0;
        sim.set_fault_plan(Some(plan));
        let degraded = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
        // The dashboard still renders: every zone has a result, each marked
        // stale, none hard-failed.
        assert_eq!(degraded.results.len(), batch.len());
        assert!(degraded.failed.is_empty(), "failed: {:?}", degraded.failed);
        assert_eq!(
            degraded.stale.len(),
            batch.len(),
            "stale: {:?}",
            degraded.stale
        );
        assert_eq!(degraded.report.degraded, batch.len());
        // And the stale answers carry the same data the healthy run produced.
        for (name, chunk) in &degraded.results {
            let mut a = chunk.to_rows();
            let mut b = healthy.results[name].to_rows();
            a.sort();
            b.sort();
            assert_eq!(a, b, "zone {name} diverged");
        }
    }

    #[test]
    fn fatal_failure_cancels_remaining_siblings() {
        let (qp, _) = processor(LatencyModel::instant());
        // A spec referencing an unregistered source fails fatally at bind;
        // run serially so the cancel flag is observable deterministically.
        let rel = || LogicalPlan::scan("flights");
        let batch = vec![
            (
                "bad".to_string(),
                QuerySpec::new("no_such_source", rel())
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Count, None, "n")),
            ),
            (
                "late".to_string(),
                QuerySpec::new("warehouse", rel())
                    .group("origin")
                    .agg(AggCall::new(AggFunc::Count, None, "n")),
            ),
        ];
        let opts = BatchOptions {
            concurrent: false,
            ..Default::default()
        };
        let out = execute_batch(&qp, &batch, &opts).unwrap();
        assert!(
            out.results.is_empty(),
            "results: {:?} failed: {:?}",
            out.results.keys(),
            out.failed
        );
        assert_eq!(out.failed.len(), 2);
        assert!(
            !matches!(out.failed["bad"], TvError::Cancelled(_)),
            "the trigger keeps its own error: {:?}",
            out.failed["bad"]
        );
        assert!(matches!(out.failed["late"], TvError::Cancelled(_)));
        assert_eq!(out.report.cancelled, 1);
        assert_eq!(out.report.failed, 2);
    }

    #[test]
    fn transient_outage_without_cache_yields_typed_failures_not_hangs() {
        use tabviz_backend::FaultPlan;
        let (qp, sim) = processor(LatencyModel::instant());
        let mut plan = FaultPlan::seeded(6);
        plan.connection_drop = 1.0;
        sim.set_fault_plan(Some(plan));
        // Cold caches: nothing stale to fall back on.
        let out = execute_batch(&qp, &dashboard_batch(), &BatchOptions::default()).unwrap();
        assert!(
            out.results.is_empty(),
            "results: {:?} failed: {:?}",
            out.results.keys(),
            out.failed
        );
        assert_eq!(out.failed.len(), 5);
        for e in out.failed.values() {
            assert!(
                e.is_degradable() || matches!(e, TvError::Cancelled(_)),
                "unexpected error class: {e:?}"
            );
        }
    }

    /// Sect. 3.4: zones over one relation and one filter that differ only
    /// in their measures travel as one fused remote query.
    #[test]
    fn zones_differing_only_in_measures_fuse_into_one_remote_query() {
        let zone = |alias: &str, func: AggFunc, arg: Option<&str>| {
            let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
                .filter(bin(BinOp::Ge, col("delay"), lit(0i64)))
                .group("carrier")
                .agg(AggCall::new(func, arg.map(col), alias));
            (alias.to_string(), spec)
        };
        let batch = vec![
            zone("n", AggFunc::Count, None),
            zone("total", AggFunc::Sum, Some("delay")),
            zone("lo", AggFunc::Min, Some("delay")),
            zone("hi", AggFunc::Max, Some("delay")),
        ];
        for (fuse, remote) in [(false, 4), (true, 1)] {
            let (qp, sim) = processor(LatencyModel::instant());
            let opts = BatchOptions {
                fuse,
                concurrent: false,
                cache_aware: false,
            };
            let out = execute_batch(&qp, &batch, &opts).unwrap();
            assert_eq!(out.results.len(), 4);
            assert_eq!(sim.stats().queries, remote, "fuse = {fuse}");
            assert_eq!(out.report.fused_away, 4 - remote);
        }
    }

    #[test]
    fn fused_originals_recovered_from_cache() {
        let (qp, _) = processor(LatencyModel::instant());
        let batch = dashboard_batch();
        execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
        // Running an original zone query again is an intelligent hit.
        let (_, outcome) = qp.execute(&batch[3].1).unwrap();
        assert_eq!(outcome, ExecOutcome::IntelligentHit);
    }
}
