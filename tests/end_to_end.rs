//! End-to-end integration: FAA data → TDE extract → simulated warehouse →
//! query processor → dashboards, crossing every crate boundary.

use std::sync::Arc;
use tabviz::prelude::*;
use tabviz::workloads::{
    carriers_dim, fig1_dashboard, fig2_dashboard, generate_flights, FaaConfig,
};

fn warehouse(rows: usize) -> (QueryProcessor, SimDb, Arc<Database>) {
    let flights = generate_flights(&FaaConfig::with_rows(rows)).unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    db.put(Table::from_chunk("carriers", &carriers_dim().unwrap(), &["code"]).unwrap())
        .unwrap();
    let sim = SimDb::new("warehouse", Arc::clone(&db), SimConfig::default());
    let qp = QueryProcessor::default();
    qp.registry.register(Arc::new(sim.clone()), 8);
    (qp, sim, db)
}

#[test]
fn tde_and_processor_agree_on_results() {
    let (qp, _, db) = warehouse(20_000);
    // The same question through the raw TDE and through the full pipeline.
    let tde = Tde::new(db);
    let direct = tde
        .query("(aggregate ((carrier)) ((count as n) (sum distance as dist)) (scan flights))")
        .unwrap();
    let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
        .group("carrier")
        .agg(AggCall::new(AggFunc::Count, None, "n"))
        .agg(AggCall::new(AggFunc::Sum, Some(col("distance")), "dist"));
    let (through_pipeline, _) = qp.execute(&spec).unwrap();
    let mut a = direct.to_rows();
    let mut b = through_pipeline.to_rows();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn both_paper_dashboards_render_and_interact() {
    let (qp, sim, _) = warehouse(30_000);
    let fig1 = fig1_dashboard("warehouse", "flights");
    let mut state = DashboardState::default();
    let (r1, _) = fig1
        .render(&qp, &mut state, &BatchOptions::default(), true)
        .unwrap();
    assert_eq!(r1["TotalVisible"].row(0)[0], Value::Int(30_000));
    assert_eq!(r1["__domain_carrier"].len(), 12);
    assert_eq!(r1["CancellationsByWeekday"].len(), 7);

    // Interact: state selection narrows the slaves but not the masters.
    state.select("OriginsByState", Value::Str("TX".into()));
    let (r2, _) = fig1
        .render(&qp, &mut state, &BatchOptions::default(), false)
        .unwrap();
    let visible = r2["TotalVisible"].row(0)[0].as_int().unwrap();
    assert!(visible > 0 && visible < 30_000);
    assert_eq!(r2["OriginsByState"].len(), r1["OriginsByState"].len());

    let fig2 = fig2_dashboard("warehouse", "flights", "carriers");
    let mut state2 = DashboardState::default();
    let (r3, _) = fig2
        .render(&qp, &mut state2, &BatchOptions::default(), false)
        .unwrap();
    assert_eq!(r3["Carrier"].len(), 5);
    assert!(sim.stats().queries > 0);
}

#[test]
fn repeat_renders_generate_no_backend_traffic() {
    let (qp, sim, _) = warehouse(10_000);
    let dash = fig1_dashboard("warehouse", "flights");
    let mut state = DashboardState::default();
    dash.render(&qp, &mut state, &BatchOptions::default(), true)
        .unwrap();
    let after_first = sim.stats().queries;
    for _ in 0..5 {
        dash.render(&qp, &mut state, &BatchOptions::default(), true)
            .unwrap();
    }
    assert_eq!(
        sim.stats().queries,
        after_first,
        "warm renders must be answered entirely from cache"
    );
}

/// Sect. 3.2 / Fig. 1: deselecting quick-filter values one at a time is
/// answered from the caches, so the whole session sends at most half the
/// backend queries that rendering each state on a fresh processor sends.
#[test]
fn quick_filter_session_is_absorbed_by_the_caches() {
    let (qp, sim, db) = warehouse(3_000);
    let dash = fig1_dashboard("warehouse", "flights");
    // The quick filter lists the carrier column's domain.
    let carriers = db
        .resolve("flights")
        .unwrap()
        .column_domain("carrier")
        .unwrap()
        .expect("carrier is dictionary-encoded");
    let states: Vec<Vec<Value>> = (2..carriers.len())
        .rev()
        .map(|k| carriers[..k].to_vec())
        .collect();

    let mut state = DashboardState::default();
    dash.render(&qp, &mut state, &BatchOptions::default(), true)
        .unwrap();
    let mut fresh_queries = 0;
    for subset in &states {
        state.set_quick_filter("carrier", subset.clone());
        let (session, _) = dash
            .render(&qp, &mut state, &BatchOptions::default(), false)
            .unwrap();

        let (fresh_qp, fresh_sim, _) = warehouse(3_000);
        let mut fresh_state = DashboardState::default();
        fresh_state.set_quick_filter("carrier", subset.clone());
        let (fresh, _) = dash
            .render(&fresh_qp, &mut fresh_state, &BatchOptions::default(), true)
            .unwrap();
        fresh_queries += fresh_sim.stats().queries;
        for (zone, rows) in &session {
            let mut a = rows.to_rows();
            let mut b = fresh[zone].to_rows();
            a.sort();
            b.sort();
            assert_eq!(a, b, "zone {zone} with {} carriers", subset.len());
        }
    }
    assert!(
        sim.stats().queries * 2 <= fresh_queries,
        "session {} vs fresh {fresh_queries}",
        sim.stats().queries
    );
}

/// Sect. 3.2: Desktop persists its query caches, so a restarted session
/// that loads the file renders the dashboard without a backend trip.
#[test]
fn persisted_caches_spare_the_restarted_session_its_backend_trips() {
    let dash = fig1_dashboard("warehouse", "flights");
    let render = |qp: &QueryProcessor| {
        let mut state = DashboardState::default();
        dash.render(qp, &mut state, &BatchOptions::default(), true)
            .unwrap()
            .0
    };
    let (first, first_sim, _) = warehouse(3_000);
    let before = render(&first);
    assert!(first_sim.stats().queries > 0);
    let image = tabviz::cache::persist::save(&first.caches).unwrap();

    let (restarted, restarted_sim, _) = warehouse(3_000);
    assert!(tabviz::cache::persist::load(&restarted.caches, &image).unwrap() > 0);
    let after = render(&restarted);
    assert_eq!(restarted_sim.stats().queries, 0);
    for (zone, rows) in &before {
        assert_eq!(rows.to_rows(), after[zone].to_rows(), "zone {zone}");
    }
}

#[test]
fn single_file_database_roundtrip_through_full_stack() {
    let (_, _, db) = warehouse(5_000);
    let path = std::env::temp_dir().join("tabviz_e2e_pack.tvdb");
    tabviz::storage::pack::pack_to_file(&db, &path).unwrap();
    let tde2 = Tde::open_file(&path).unwrap();
    let out = tde2
        .query("(aggregate () ((count as n)) (scan flights))")
        .unwrap();
    assert_eq!(out.row(0)[0], Value::Int(5_000));
    std::fs::remove_file(path).ok();
}

#[test]
fn serial_parallel_and_rle_paths_agree_at_scale() {
    let flights = generate_flights(&FaaConfig::with_rows(200_000)).unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    let tde = Tde::new(db);
    let q = "(aggregate ((carrier) (origin_state))
                        ((count as n) (avg arr_delay as d) (min dep_delay as lo) (max dep_delay as hi))
               (select (= cancelled false) (scan flights)))";
    let serial = tde.query_with(q, &ExecOptions::serial()).unwrap();
    let mut fast = ExecOptions::default();
    fast.parallel.profile.min_work_per_thread = 1_000;
    let parallel = tde.query_with(q, &fast).unwrap();
    let mut no_rle = ExecOptions::serial();
    no_rle.physical.enable_rle_index = false;
    let no_rle_out = tde.query_with(q, &no_rle).unwrap();

    let mut a = serial.to_rows();
    let mut b = parallel.to_rows();
    let mut c = no_rle_out.to_rows();
    a.sort();
    b.sort();
    c.sort();
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn multi_source_isolation() {
    // Two registered sources with same table names: caches must not mix.
    let (qp, _, _) = warehouse(1_000);
    let other_flights = generate_flights(&FaaConfig {
        rows: 2_000,
        seed: 777,
        ..Default::default()
    })
    .unwrap();
    let db2 = Arc::new(Database::new("other"));
    db2.put(Table::from_chunk("flights", &other_flights, &[]).unwrap())
        .unwrap();
    qp.registry
        .register(Arc::new(SimDb::new("other", db2, SimConfig::default())), 4);

    let count = |source: &str| {
        let spec = QuerySpec::new(source, LogicalPlan::scan("flights")).agg(AggCall::new(
            AggFunc::Count,
            None,
            "n",
        ));
        qp.execute(&spec).unwrap().0.row(0)[0].as_int().unwrap()
    };
    assert_eq!(count("warehouse"), 1_000);
    assert_eq!(count("other"), 2_000);
    // Cached reads stay correct per source.
    assert_eq!(count("warehouse"), 1_000);
    assert_eq!(count("other"), 2_000);
}
