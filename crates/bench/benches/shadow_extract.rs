//! Criterion bench for E11: shadow extracts vs parse-per-query (Sect. 4.4),
//! plus the two producers of extract data on their own: the flights
//! generator (100 000 rows) and the CSV reader (10 000 rows of its text).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tabviz::prelude::*;
use tabviz::textscan::csv::HeaderMode;
use tabviz::textscan::parse_csv;
use tabviz::workloads::{generate_flights, FaaConfig};

fn csv(rows: usize) -> String {
    let flights = generate_flights(&FaaConfig::with_rows(rows)).unwrap();
    let mut out = String::from(
        "date,carrier,origin,dest,origin_state,dest_state,market,dep_hour,weekday,distance,dep_delay,arr_delay,cancelled\n",
    );
    for i in 0..flights.len() {
        let cells: Vec<String> = flights
            .row(i)
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                other => other.to_string(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn bench(c: &mut Criterion) {
    let text = csv(10_000);
    let opts = CsvOptions {
        header: HeaderMode::Yes,
        ..Default::default()
    };
    let q = "(aggregate ((carrier)) ((count as n)) (scan flights_csv))";
    let mut group = c.benchmark_group("shadow_extract");
    group.sample_size(10);

    group.bench_function("parse_per_query", |b| {
        b.iter(|| {
            let db = Arc::new(Database::new("d"));
            let se = ShadowExtracts::new(Arc::clone(&db));
            let chunk = se.parse_per_query(&text, &opts).unwrap();
            db.put_temp(Table::from_chunk("flights_csv", &chunk, &[]).unwrap())
                .unwrap();
            Tde::new(db).query(q).unwrap()
        })
    });

    group.bench_function("generate_flights_100k", |b| {
        b.iter(|| generate_flights(&FaaConfig::with_rows(100_000)).unwrap())
    });
    group.bench_function("parse_csv_10k", |b| {
        b.iter(|| parse_csv(&text, &opts).unwrap())
    });

    // Query over an existing extract (the steady state after one-time cost).
    let db = Arc::new(Database::new("d"));
    let se = ShadowExtracts::new(Arc::clone(&db));
    se.connect_text("flights_csv", &text, &opts).unwrap();
    let tde = Tde::new(db);
    group.bench_function("query_over_extract", |b| b.iter(|| tde.query(q).unwrap()));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
