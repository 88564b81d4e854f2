//! The paper's dashboards end-to-end: render Fig. 1 and Fig. 2, interact,
//! and watch batching / fusion / caching keep the experience responsive.
//!
//! Run with: `cargo run --release --example dashboard_faa`

use std::sync::Arc;
use tabviz::prelude::*;
use tabviz::workloads::{
    carriers_dim, fig1_dashboard, fig2_dashboard, generate_flights, FaaConfig,
};

fn main() -> Result<()> {
    let flights = generate_flights(&FaaConfig::with_rows(300_000))?;
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"])?)?;
    db.put(Table::from_chunk("carriers", &carriers_dim()?, &["code"])?)?;

    let sim = SimDb::new(
        "warehouse",
        db,
        SimConfig {
            latency: LatencyModel::lan(),
            ..Default::default()
        },
    );
    let qp = QueryProcessor::default();
    qp.registry.register(Arc::new(sim.clone()), 8);

    // ---------- Fig. 1: the FAA on-time dashboard ----------
    let dash = fig1_dashboard("warehouse", "flights");
    let mut state = DashboardState::default();

    let t0 = std::time::Instant::now();
    let (results, report) = dash.render(&qp, &mut state, &BatchOptions::default(), true)?;
    println!(
        "initial load: {} zones in {:?} ({})",
        results.len(),
        t0.elapsed(),
        report.batches[0],
    );
    println!("\nAirlines zone:\n{}", results["Airlines"]);

    // Interaction: click California on the origins map.
    state.select("OriginsByState", Value::Str("CA".into()));
    let t0 = std::time::Instant::now();
    let (results, _) = dash.render(&qp, &mut state, &BatchOptions::default(), false)?;
    println!(
        "selected CA origins: total visible {} in {:?}",
        results["TotalVisible"].row(0)[0],
        t0.elapsed()
    );

    // Quick filter: only the two biggest carriers. Answered from cache by
    // filtering, when the filter column is in the cached grouping.
    state.set_quick_filter(
        "carrier",
        vec![Value::Str("WN".into()), Value::Str("DL".into())],
    );
    let t0 = std::time::Instant::now();
    let (results, _) = dash.render(&qp, &mut state, &BatchOptions::default(), false)?;
    println!(
        "quick-filtered to WN+DL: Airlines zone has {} rows in {:?}",
        results["Airlines"].len(),
        t0.elapsed()
    );

    // ---------- Fig. 2: the market/carrier cascade ----------
    let dash2 = fig2_dashboard("warehouse", "flights", "carriers");
    let mut state2 = DashboardState::default();
    dash2.render(&qp, &mut state2, &BatchOptions::default(), false)?;

    state2.select("Market", Value::Str("HNL-OGG".into()));
    state2.select("Carrier", Value::Str("AA".into()));
    let (results2, report2) = dash2.render(&qp, &mut state2, &BatchOptions::default(), false)?;
    println!(
        "\nFig.2 cascade: {} iterations, invalidated selections: {:?}",
        report2.iterations, report2.invalidated_selections
    );
    println!(
        "AirlineName zone after cascade:\n{}",
        results2["AirlineName"]
    );

    let (istats, lstats) = qp.caches.stats();
    println!(
        "cache stats: intelligent {} exact + {} subsumption hits / {} misses; literal {} hits",
        istats.exact_hits, istats.subsumption_hits, istats.misses, lstats.hits
    );
    println!(
        "backend saw {} queries, {} rows returned",
        sim.stats().queries,
        sim.stats().rows_returned
    );
    Ok(())
}
