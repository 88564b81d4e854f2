//! Whole-batch oracle for level-of-detail fusion: whatever `execute_batch`
//! answers — from a cover query rolled up locally, a fused query projected
//! back, or the query itself — must equal serial evaluation of the zone's own
//! plan, and the backend must see exactly the queries the report says left.
//! Randomized over zone sets, shared filters, pool sizes and backends.

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tabviz::cache::intelligent::CacheConfig;
use tabviz::prelude::*;
use tabviz::workloads::{
    carriers_dim, fig1_dashboard, fig2_dashboard, generate_flights, FaaConfig,
};

/// FAA flights in which `arr_delay` is NULL for every flight of one carrier
/// and into one airport, so whole groups of a zone (and whole cells of a
/// cover) have nothing to sum.
fn database() -> Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    Arc::clone(DB.get_or_init(|| {
        let flights = generate_flights(&FaaConfig {
            rows: 3_000,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let schema = Arc::clone(flights.schema());
        let (carrier, dest, arr_delay) = (
            schema.index_of("carrier").unwrap(),
            schema.index_of("dest").unwrap(),
            schema.index_of("arr_delay").unwrap(),
        );
        let mut rows = flights.to_rows();
        for row in &mut rows {
            if row[carrier] == Value::from("HA") || row[dest] == Value::from("ORD") {
                row[arr_delay] = Value::Null;
            }
        }
        let flights = Chunk::from_rows(schema, &rows).unwrap();
        let db = Arc::new(Database::new("faa"));
        db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
            .unwrap();
        db.put(Table::from_chunk("carriers", &carriers_dim().unwrap(), &["code"]).unwrap())
            .unwrap();
        db
    }))
}

/// A processor over `database()` with `pool` connections. Results of any
/// cost are cached, so that what leaves for the backend depends on the plan
/// and not on how fast this machine answered.
fn processor(pool: usize, simulated: bool) -> (QueryProcessor, Option<SimDb>) {
    let config = CacheConfig {
        min_cost: Duration::ZERO,
        ..Default::default()
    };
    let mut qp = QueryProcessor::new(QueryCaches::new(config));
    // No widening into the grouping: it would let one remote query's result
    // answer a sibling's lookup and make the backend's query count depend on
    // timing. `widen_oracle.rs` checks widened answers.
    qp.options.widen_for_reuse = false;
    if simulated {
        let sim = SimDb::new("faa", database(), SimConfig::default());
        qp.registry.register(Arc::new(sim.clone()), pool);
        (qp, Some(sim))
    } else {
        qp.registry
            .register(Arc::new(TdeDataSource::new("faa", database())), pool);
        (qp, None)
    }
}

fn reference(spec: &QuerySpec) -> Vec<Vec<Value>> {
    let mut rows = Tde::new(database())
        .execute_plan(&spec.to_plan().unwrap(), &ExecOptions::serial())
        .unwrap()
        .to_rows();
    rows.sort();
    rows
}

/// Equal modulo row order, reals to 1e-9 relative (a rolled-up sum adds the
/// same numbers in another order).
fn same_rows(got: &Chunk, expected: &[Vec<Value>]) -> bool {
    let mut rows = got.to_rows();
    rows.sort();
    rows.len() == expected.len()
        && rows.iter().zip(expected).all(|(g, e)| {
            g.len() == e.len()
                && g.iter().zip(e).all(|(x, y)| match (x, y) {
                    (Value::Real(p), Value::Real(q)) => {
                        p == q || (p - q).abs() <= 1e-9 * p.abs().max(q.abs())
                    }
                    _ => x == y,
                })
        })
}

const GROUPS: &[&str] = &[
    "carrier",
    "origin_state",
    "dest_state",
    "dest",
    "weekday",
    "dep_hour",
];

fn measure(i: usize) -> AggCall {
    let alias = format!("m{i}");
    match i {
        0 => AggCall::new(AggFunc::Count, None, alias),
        1 => AggCall::new(AggFunc::Count, Some(col("arr_delay")), alias),
        2 => AggCall::new(AggFunc::Sum, Some(col("arr_delay")), alias),
        3 => AggCall::new(AggFunc::Sum, Some(col("distance")), alias),
        4 => AggCall::new(AggFunc::Min, Some(col("arr_delay")), alias),
        5 => AggCall::new(AggFunc::Max, Some(col("distance")), alias),
        6 => AggCall::new(AggFunc::Avg, Some(col("arr_delay")), alias),
        7 => AggCall::new(AggFunc::Avg, Some(col("distance")), alias),
        8 => AggCall::new(AggFunc::CountD, Some(col("dest")), alias),
        // A second AVG of `arr_delay`, beside its SUM and COUNT.
        _ => AggCall::new(AggFunc::Avg, Some(col("arr_delay")), alias),
    }
}

/// Filters the processor sends as they are (see [`processor`]).
fn shared_filter(i: usize) -> Option<Expr> {
    let between = |lo: i64, hi: i64| Expr::Between {
        expr: Box::new(col("distance")),
        low: Value::Int(lo),
        high: Value::Int(hi),
    };
    match i {
        0 => None,
        1 => Some(between(-10, -5)), // selects nothing
        2 => Some(between(300, 900)),
        3 => Some(bin(BinOp::Ge, col("dep_hour"), lit(12i64))),
        // Selects nothing, and as a residual on a zone grouped by
        // `dep_hour` leaves an ungrouped sibling no rows to count.
        _ => Some(bin(BinOp::Lt, col("dep_hour"), lit(0i64))),
    }
}

/// (group columns, measures, carries the shared filter)
type ZoneShape = (Vec<&'static str>, Vec<usize>, bool);

fn arb_zone() -> impl Strategy<Value = ZoneShape> {
    (
        proptest::sample::subsequence(GROUPS.to_vec(), 0..=2),
        proptest::sample::subsequence((0..10).collect::<Vec<usize>>(), 1..=3),
        // Mostly filtered alike, as a dashboard's zones are.
        (0u8..5).prop_map(|k| k > 0),
    )
}

fn batch_of(zones: &[ZoneShape], filter: usize) -> Vec<(String, QuerySpec)> {
    zones
        .iter()
        .enumerate()
        .map(|(z, (groups, measures, filtered))| {
            let mut spec = QuerySpec::new("faa", LogicalPlan::scan("flights"));
            if let Some(f) = shared_filter(filter).filter(|_| *filtered) {
                spec = spec.filter(f);
            }
            for g in groups {
                spec = spec.group(*g);
            }
            for &m in measures {
                spec = spec.agg(measure(m));
            }
            (format!("zone{z}"), spec)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(32), ..ProptestConfig::default() })]

    #[test]
    fn every_zone_equals_serial_evaluation(
        zones in proptest::collection::vec(arb_zone(), 3..=9),
        filter in 0usize..5,
        pool in proptest::sample::select(vec![1usize, 2, 4, 8]),
        simulated in any::<bool>(),
    ) {
        let batch = batch_of(&zones, filter);
        let (qp, sim) = processor(pool, simulated);
        let out = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
        prop_assert!(out.is_complete(), "failed {:?} stale {:?}", out.failed, out.stale);
        for (name, spec) in &batch {
            prop_assert!(
                same_rows(&out.results[name], &reference(spec)),
                "{name} {spec:?}\ngot {:?} {:?}\nexpected {:?}\nreport {:?}\nbatch {batch:#?}",
                out.results[name].schema().names(), out.results[name].to_rows(), reference(spec), out.report
            );
        }
        if let Some(sim) = sim {
            prop_assert_eq!(sim.stats().queries, out.report.remote, "{:?}", out.report);
        }
    }
}

fn render(
    dash: &Dashboard,
    qp: &QueryProcessor,
    options: &BatchOptions,
) -> tabviz::core::batch::BatchReport {
    let (results, report) = dash
        .render(qp, &mut DashboardState::default(), options, true)
        .unwrap();
    for (name, spec) in dash.batch(&DashboardState::default(), true) {
        assert!(same_rows(&results[&name], &reference(&spec)), "{name}");
    }
    assert_eq!(report.batches.len(), 1);
    report.batches[0].clone()
}

#[test]
fn fig1_fits_one_wave_of_four_connections() {
    let fig1 = fig1_dashboard("faa", "flights");
    // Six group-bys and two waves become two pair covers, the two queries
    // nothing can merge with (COUNTD; a cover too close to the table) and
    // one wave.
    let (qp, sim) = processor(4, true);
    let report = render(&fig1, &qp, &BatchOptions::default());
    assert_eq!((report.remote, report.fused_away), (4, 1));
    // Four single-dimension zones, one of them two zones fused.
    assert_eq!(report.covered, 5);
    assert_eq!(sim.unwrap().stats().queries, 4);
    assert_eq!(
        qp.obs.registry.counter("tv_core_batch_covered_total").get(),
        5
    );

    // Six queries fit eight connections: nothing to gain, nothing merged.
    let (qp, sim) = processor(8, true);
    let report = render(&fig1, &qp, &BatchOptions::default());
    assert_eq!((report.remote, report.covered), (6, 0));
    assert_eq!(sim.unwrap().stats().queries, 6);

    // One switch for both fusions.
    let (qp, _) = processor(4, true);
    let unfused = BatchOptions {
        fuse: false,
        ..Default::default()
    };
    let report = render(&fig1, &qp, &unfused);
    assert_eq!(
        (report.remote, report.fused_away, report.covered),
        (6, 0, 0)
    );
}

#[test]
fn fig2_already_fits_and_is_left_alone() {
    let (qp, sim) = processor(4, true);
    let report = render(
        &fig2_dashboard("faa", "flights", "carriers"),
        &qp,
        &BatchOptions::default(),
    );
    assert_eq!((report.remote, report.covered), (3, 0));
    assert_eq!(sim.unwrap().stats().queries, 3);
}

#[test]
fn a_warm_cache_is_not_asked_to_fetch_covers() {
    // Zones cached one by one (no batch, no cover): a later batch of the same
    // zones has six graph sources on four connections, but none of them
    // leaves, so no cover is worth sending.
    let fig1 = fig1_dashboard("faa", "flights");
    let (qp, sim) = processor(4, true);
    let batch = fig1.batch(&DashboardState::default(), true);
    for (_, spec) in &batch {
        qp.execute(spec).unwrap();
    }
    let sim = sim.unwrap();
    let before = sim.stats().queries;
    let out = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
    assert_eq!(out.report.covered, 0);
    assert_eq!(sim.stats().queries, before);
    // And the covers of a cold load answer the load after it.
    qp.caches.clear();
    render(&fig1, &qp, &BatchOptions::default());
    let before = sim.stats().queries;
    let report = render(&fig1, &qp, &BatchOptions::default());
    assert_eq!(report.covered, 0);
    assert_eq!(sim.stats().queries, before);
}
