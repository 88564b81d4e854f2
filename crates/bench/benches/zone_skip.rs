//! Criterion bench for E18: zone-map block skipping, predicate-on-codes and
//! RLE run kernels in the compression-aware scan path, plus the selection
//! kernel by selectivity and a scan of a delta-encoded column.

#![allow(clippy::field_reassign_with_default)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use tabviz::common::{ColumnVec, Values};
use tabviz::prelude::*;
use tabviz::workloads::{generate_flights, FaaConfig};
use tabviz_bench::faa_db;

const ROWS: usize = 400_000;

/// Rows of the delta-encoded table: sorted unique Ints, so the loader picks
/// the delta codec.
const DELTA_ROWS: usize = 1_000_000;

fn bench(c: &mut Criterion) {
    let tde = Tde::new(faa_db(ROWS));
    let mut group = c.benchmark_group("zone_skip");
    group.sample_size(10);

    // Filters on the sorted dict-rle column at three selectivities: zone
    // maps refute almost all, most, and some blocks respectively.
    for (label, filter) in [
        ("none", "(= carrier \"ZZ\")"),
        ("rare", "(= carrier \"HA\")"),
        ("common", "(= carrier \"WN\")"),
    ] {
        let q = format!("(aggregate () ((count as n)) (select {filter} (scan flights)))");
        let mut pushdown = ExecOptions::serial();
        pushdown.physical.enable_rle_index = false;
        group.bench_with_input(BenchmarkId::new("zone_pushdown", label), &q, |b, q| {
            b.iter(|| tde.query_with(q, &pushdown).unwrap())
        });
        let mut full = ExecOptions::serial();
        full.physical.enable_rle_index = false;
        full.physical.enable_scan_pushdown = false;
        group.bench_with_input(BenchmarkId::new("decode_everything", label), &q, |b, q| {
            b.iter(|| tde.query_with(q, &full).unwrap())
        });
    }

    // Selection by selectivity: `distance` is plain Int and unsorted, so no
    // zone map refutes a block and every row meets the typed kernel. The
    // window is centred on the median distance and sized for about 5, 25,
    // 50 and 95 % of the rows (the data is discrete; the label prints the
    // share the bounds really select).
    let flights = generate_flights(&FaaConfig::with_rows(ROWS)).unwrap();
    let mut dist = match &flights.column_by_name("distance").unwrap().values {
        Values::Int(v) => v.clone(),
        other => panic!("distance is {}", other.data_type()),
    };
    dist.sort_unstable();
    let quantile = |q: f64| dist[((q * ROWS as f64) as usize).min(ROWS - 1)];
    for share in [0.05, 0.25, 0.50, 0.95] {
        let (lo, hi) = (quantile(0.5 - share / 2.0), quantile(0.5 + share / 2.0));
        let hit = dist.iter().filter(|&&d| lo <= d && d <= hi).count();
        let label = format!("{:.0}pct", 100.0 * hit as f64 / ROWS as f64);
        let q = format!(
            "(aggregate () ((count as n)) (select (between distance {lo} {hi}) (scan flights)))"
        );
        group.bench_with_input(BenchmarkId::new("select_between", label), &q, |b, q| {
            b.iter(|| tde.query_with(q, &ExecOptions::serial()).unwrap())
        });
    }

    // A delta-encoded column, filtered (every block decoded, one segment at
    // a time) and summed whole (one decode per scan chunk).
    let schema = Arc::new(Schema::new(vec![Field::new("d", DataType::Int)]).unwrap());
    let seq = Chunk::new(
        schema,
        vec![ColumnVec::from_values(Values::Int(
            (0..DELTA_ROWS as i64).collect(),
        ))],
    )
    .unwrap();
    let db = Arc::new(Database::new("delta"));
    db.put(Table::from_chunk("seq", &seq, &[]).unwrap())
        .unwrap();
    let delta = Tde::new(db);
    for (label, q) in [
        (
            "filter",
            "(aggregate () ((count as n)) (select (> d 5) (scan seq)))",
        ),
        ("sum", "(aggregate () ((sum d as s)) (scan seq))"),
    ] {
        group.bench_with_input(BenchmarkId::new("delta_scan_1m", label), &q, |b, q| {
            b.iter(|| delta.query_with(q, &ExecOptions::serial()).unwrap())
        });
    }

    // Run-granularity aggregation over the RLE group column vs the per-row
    // streaming aggregate it replaces.
    let q_agg = "(aggregate ((carrier)) ((count as n)) (scan flights))".to_string();
    group.bench_with_input(BenchmarkId::new("agg", "run_kernel"), &q_agg, |b, q| {
        b.iter(|| tde.query_with(q, &ExecOptions::serial()).unwrap())
    });
    let mut per_row = ExecOptions::serial();
    per_row.physical.enable_run_agg = false;
    group.bench_with_input(BenchmarkId::new("agg", "per_row"), &q_agg, |b, q| {
        b.iter(|| tde.query_with(q, &per_row).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
