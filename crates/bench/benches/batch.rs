//! Criterion bench for E1: batch strategies on a dashboard load (Sect. 3.3).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tabviz::prelude::*;
use tabviz::workloads::fig1_dashboard;
use tabviz_bench::{faa_db, processor_over};

fn bench(c: &mut Criterion) {
    let db = faa_db(100_000);
    let dash = fig1_dashboard("warehouse", "flights");
    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    let configs = [
        (
            "serial",
            BatchOptions {
                fuse: false,
                concurrent: false,
                cache_aware: false,
            },
        ),
        (
            "concurrent",
            BatchOptions {
                fuse: false,
                concurrent: true,
                cache_aware: false,
            },
        ),
        ("full_pipeline", BatchOptions::default()),
    ];
    for (name, opts) in configs {
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
                    let mut state = DashboardState::default();
                    dash.render(&qp, &mut state, &opts, true).unwrap()
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
