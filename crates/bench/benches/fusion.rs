//! Criterion bench for E2: query fusion (Sect. 3.4).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tabviz::prelude::*;
use tabviz_bench::{faa_db, processor_over};

fn zones(src: &str) -> Vec<(String, QuerySpec)> {
    let base = || {
        QuerySpec::new(src, LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Eq, col("cancelled"), lit(false)))
            .group("carrier")
    };
    vec![
        (
            "n".into(),
            base().agg(AggCall::new(AggFunc::Count, None, "n")),
        ),
        (
            "dist".into(),
            base().agg(AggCall::new(AggFunc::Sum, Some(col("distance")), "dist")),
        ),
        (
            "avg".into(),
            base().agg(AggCall::new(AggFunc::Avg, Some(col("arr_delay")), "avg")),
        ),
        (
            "lo".into(),
            base().agg(AggCall::new(AggFunc::Min, Some(col("dep_delay")), "lo")),
        ),
        (
            "hi".into(),
            base().agg(AggCall::new(AggFunc::Max, Some(col("dep_delay")), "hi")),
        ),
    ]
}

fn bench(c: &mut Criterion) {
    let db = faa_db(100_000);
    let batch = zones("warehouse");
    let mut group = c.benchmark_group("fusion");
    group.sample_size(10);
    for (name, fuse) in [("unfused", false), ("fused", true)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let config = SimConfig {
                        latency: LatencyModel::lan(),
                        ..Default::default()
                    };
                    processor_over(Arc::clone(&db), config, 8).0
                },
                |qp| {
                    let opts = BatchOptions {
                        fuse,
                        concurrent: false,
                        cache_aware: false,
                    };
                    execute_batch(&qp, &batch, &opts).unwrap()
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
