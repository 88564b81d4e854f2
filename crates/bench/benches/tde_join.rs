//! Criterion bench for E23: hash-join build+probe through the packed-key
//! kernels (packed keys + batch hashing).

use criterion::{criterion_group, criterion_main, Criterion};
use tabviz::prelude::*;
use tabviz_bench::faa_db;

fn bench(c: &mut Criterion) {
    let tde = Tde::new(faa_db(400_000));
    // Fact-dim join keyed on a string column; the dim side is filtered so
    // the probe dominates over joined-output materialization.
    let q = "(aggregate ((name)) ((count as n) (sum distance as dist))
               (join inner ((carrier code))
                 (scan flights)
                 (select (in code \"HA\" \"AS\") (scan carriers))))";
    let mut group = c.benchmark_group("tde_join");
    group.sample_size(10);

    group.bench_function("packed_kernels", |b| {
        b.iter(|| tde.query_with(q, &ExecOptions::serial()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
