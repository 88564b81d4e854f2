//! Tableau-Server-style multi-user serving: a two-node cluster sharing a
//! distributed cache layer, Data Server row-level security, and
//! Tableau-Public-style load-dominated traffic.
//!
//! Run with: `cargo run --release --example multiuser_server`

use std::sync::Arc;
use std::time::Duration;
use tabviz::cache::{ExternalStore, SingleStoreL2};
use tabviz::prelude::*;
use tabviz::workloads::{generate_flights, FaaConfig};

fn main() -> Result<()> {
    let flights = generate_flights(&FaaConfig::with_rows(200_000))?;
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"])?)?;

    // ---------- Cluster-wide cache sharing (Sect. 3.2) ----------
    // Two server nodes, each with its own processor and node-local caches,
    // over one external store as their shared L2.
    let external = Arc::new(ExternalStore::new(Duration::from_micros(300)));
    let node = || {
        let qp = QueryProcessor::default();
        qp.registry.register(
            Arc::new(SimDb::new("faa", Arc::clone(&db), SimConfig::default())),
            4,
        );
        qp.caches
            .set_l2(Arc::new(SingleStoreL2::new(Arc::clone(&external))));
        qp
    };
    let (node1, node2) = (node(), node());

    let spec = QuerySpec::new("faa", LogicalPlan::scan("flights"))
        .group("carrier")
        .agg(AggCall::new(AggFunc::Count, None, "n"));

    // Node 1 computes the initial-load query once and publishes it.
    node1.execute(&spec)?;
    println!("node-1 computed and published the initial-load result");

    // 50 viewers hit node 2; every request is warm thanks to the external
    // layer, and after the first pull the node answers from local memory.
    for _ in 0..50 {
        let (_, outcome) = node2.execute(&spec)?;
        assert_ne!(outcome, ExecOutcome::Remote);
    }
    println!(
        "node-2 served 50 viewers: {} external fetch(es), {} node-local hits",
        node2.stats().l2_hits,
        node2.stats().intelligent_hits
    );

    // ---------- Data Server: shared model + row-level security ----------
    let sim = SimDb::new("warehouse", Arc::clone(&db), SimConfig::default());
    let qp = QueryProcessor::default();
    qp.registry.register(Arc::new(sim.clone()), 8);
    let server = Arc::new(DataServer::new(qp));
    let published =
        PublishedSource::new("flights-model", "warehouse", LogicalPlan::scan("flights"));
    // One shared calculation, defined once, used by every workbook.
    published.define_calculation("is_late", bin(BinOp::Gt, col("arr_delay"), lit(15i64)));
    // Regional analysts only see their states.
    published.set_user_filter("ca_analyst", bin(BinOp::Eq, col("origin_state"), lit("CA")));
    published.set_user_filter("ny_analyst", bin(BinOp::Eq, col("origin_state"), lit("NY")));
    server.publish(published);

    for user in ["ca_analyst", "ny_analyst", "hq"] {
        let session = server.connect("flights-model", user)?;
        let q = ClientQuery {
            group_by: vec!["origin_state".into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "flights")],
            ..Default::default()
        };
        let (out, _) = session.query(&q)?;
        println!("{user}: sees {} origin state(s)", out.len());
    }

    // A big filter set uploaded once, referenced by name afterwards.
    let mut session = server.connect("flights-model", "hq")?;
    let markets: Vec<Value> = (0..200).map(|i| Value::Str(format!("M{i:03}"))).collect();
    let set = session.define_set("market", markets)?;
    let q = ClientQuery {
        group_by: vec!["carrier".into()],
        aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
        set_refs: vec![set],
        ..Default::default()
    };
    session.query(&q)?;
    let stats = server.stats();
    println!(
        "data server: {} queries, {} B in, {} B out, {} shared set definition(s), backing DB created {} temp table(s)",
        stats.queries,
        stats.client_bytes_in,
        stats.client_bytes_out,
        stats.set_definitions,
        sim.stats().temp_tables_created,
    );
    Ok(())
}
