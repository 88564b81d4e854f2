//! Criterion bench for E9: aggregation strategies (Sect. 4.2.3–4.2.4).

#![allow(clippy::field_reassign_with_default)]

use criterion::{criterion_group, criterion_main, Criterion};
use tabviz::prelude::*;
use tabviz::tde::cost::CostProfile;
use tabviz::tde::parallel::ParallelOptions;
use tabviz_bench::faa_db;

fn bench(c: &mut Criterion) {
    let tde = Tde::new(faa_db(400_000));
    let q = "(aggregate ((carrier)) ((count as n) (sum distance as dist) (avg arr_delay as d)) (scan flights))";
    let forced = CostProfile {
        min_work_per_thread: 10_000,
        max_dop: 4,
    };
    let mut group = c.benchmark_group("tde_agg");
    group.sample_size(10);

    let serial = ExecOptions::serial();
    group.bench_function("serial_hash", |b| {
        b.iter(|| tde.query_with(q, &serial).unwrap())
    });
    // A range-filtered two-column string key (Fig. 1's state-by-state
    // zone): grouped on dictionary codes end to end.
    let q_str = "(aggregate ((origin_state) (dest_state)) ((count as n) (sum distance as dist))
                   (select (between distance 700 1300) (scan flights)))";
    group.bench_function("str_key", |b| {
        b.iter(|| tde.query_with(q_str, &serial).unwrap())
    });
    // Fig. 1's CancellationsByWeekday zone under the same range filter:
    // COUNTD over a Date argument, one (group, date) pair table.
    let q_countd = "(aggregate ((weekday)) ((count as n) (countd date as days))
                      (select (between distance 700 1300) (scan flights)))";
    group.bench_function("countd_date", |b| {
        b.iter(|| tde.query_with(q_countd, &serial).unwrap())
    });
    // MIN/MAX over a string argument: each group keeps its winning string.
    let q_minmax = "(aggregate ((origin_state)) ((min dest as lo) (max dest as hi))
                      (select (between distance 700 1300) (scan flights)))";
    group.bench_function("minmax_str", |b| {
        b.iter(|| tde.query_with(q_minmax, &serial).unwrap())
    });
    let mut lg = ExecOptions::default();
    lg.parallel = ParallelOptions {
        profile: forced,
        enable_range_partition: false,
        ..Default::default()
    };
    group.bench_function("local_global", |b| {
        b.iter(|| tde.query_with(q, &lg).unwrap())
    });
    let mut rp = ExecOptions::default();
    rp.parallel = ParallelOptions {
        profile: forced,
        range_partition_min_distinct_per_dop: 1,
        ..Default::default()
    };
    group.bench_function("range_partitioned", |b| {
        b.iter(|| tde.query_with(q, &rp).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
