//! Criterion bench for E3: intelligent-cache lookup and post-processing
//! costs (Sect. 3.2) — the "additional post-processing usually does not
//! require much time" claim — and the probe cost at fixed entry counts: a
//! miss and a subsumption hit over caches holding 100, 1 000 and 10 000
//! extract-shaped entries, which should cost the same at every count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;
use tabviz::cache::{intelligent::CacheConfig, IntelligentCache, QuerySpec};
use tabviz::prelude::*;
use tabviz::tql::expr::Expr;
use tabviz::workloads::fig1_dashboard;
use tabviz_bench::faa_db;

/// Fig. 1's zones under a `distance BETWEEN lo AND lo + 500` quick filter:
/// the specs `extract_explore` fills the cache with.
fn extract_batch(lo: i64) -> Vec<QuerySpec> {
    let dash = fig1_dashboard("faa", "flights");
    dash.batch(&DashboardState::default(), false)
        .into_iter()
        .map(|(_, spec)| {
            spec.filter(Expr::Between {
                expr: Box::new(col("distance")),
                low: Value::Int(lo),
                high: Value::Int(lo + 500),
            })
        })
        .collect()
}

/// Probes per timed iteration of the fixed-count arms.
const PROBES: i64 = 100;

/// `miss` and `subsumption_hit` over a cache of `n` extract-shaped entries
/// (zone `k % zones` under range `k / zones`). Every entry of a zone shares
/// one result chunk: the probe's cost, not the data, is measured.
fn fixed_count_probes(c: &mut Criterion, tde: &Tde) {
    let zones: Vec<(QuerySpec, Chunk)> = extract_batch(150)
        .into_iter()
        .map(|spec| {
            let chunk = tde
                .execute_plan(&spec.to_plan().unwrap(), &ExecOptions::serial())
                .unwrap();
            (spec, chunk)
        })
        .collect();
    let mut group = c.benchmark_group("cache_probe");
    for n in [100usize, 1_000, 10_000] {
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            capacity_bytes: usize::MAX,
            ..Default::default()
        });
        for k in 0..n {
            let (z, range) = (k % zones.len(), (k / zones.len()) as i64);
            let spec = extract_batch(150 + range).swap_remove(z);
            cache.put(spec, zones[z].1.clone(), Duration::from_millis(5));
        }
        // Airlines (group by carrier) under an uncached range, and under a
        // cached one with a carrier residual.
        let airlines = zones
            .iter()
            .position(|(s, _)| s.group_by == ["carrier"])
            .expect("Fig. 1 has an Airlines zone");
        let ranges = (n / zones.len()).max(1) as i64;
        let misses: Vec<QuerySpec> = (0..PROBES)
            .map(|j| extract_batch(100_000 + j).swap_remove(airlines))
            .collect();
        let hits: Vec<QuerySpec> = (0..PROBES)
            .map(|j| {
                extract_batch(150 + j % ranges)
                    .swap_remove(airlines)
                    .filter(bin(BinOp::Eq, col("carrier"), lit("AA")))
            })
            .collect();
        assert!(cache.get(&hits[0]).is_some() && cache.get(&misses[0]).is_none());
        group.bench_function(format!("miss/{n}_entries/{PROBES}_probes"), |b| {
            b.iter(|| misses.iter().filter(|q| cache.get(q).is_none()).count())
        });
        group.bench_function(
            format!("subsumption_hit/{n}_entries/{PROBES}_probes"),
            |b| b.iter(|| hits.iter().filter(|q| cache.get(q).is_some()).count()),
        );
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let db = faa_db(200_000);
    let tde = Tde::new(Arc::clone(&db));
    let fine = QuerySpec::new("faa", LogicalPlan::scan("flights"))
        .group("carrier")
        .group("origin_state")
        .agg(AggCall::new(AggFunc::Count, None, "n"))
        .agg(AggCall::new(AggFunc::Sum, Some(col("distance")), "dist"))
        .agg(AggCall::new(AggFunc::Count, Some(col("distance")), "dc"));
    let chunk = tde
        .execute_plan(&fine.to_plan().unwrap(), &ExecOptions::serial())
        .unwrap();
    let cache = IntelligentCache::new(CacheConfig {
        min_cost: Duration::ZERO,
        ..Default::default()
    });
    cache.put(fine.clone(), chunk, Duration::from_millis(50));

    let mut group = c.benchmark_group("cache");
    group.bench_function("exact_hit", |b| b.iter(|| cache.get(&fine).unwrap()));

    let filtered = fine
        .clone()
        .filter(bin(BinOp::Eq, col("origin_state"), lit("CA")));
    group.bench_function("filter_postprocess", |b| {
        b.iter(|| cache.get(&filtered).unwrap())
    });

    let rollup = QuerySpec::new("faa", LogicalPlan::scan("flights"))
        .group("carrier")
        .agg(AggCall::new(AggFunc::Count, None, "n"))
        .agg(AggCall::new(
            AggFunc::Avg,
            Some(col("distance")),
            "avg_dist",
        ));
    group.bench_function("rollup_postprocess", |b| {
        b.iter(|| cache.get(&rollup).unwrap())
    });

    // The cost of answering from the backend instead (what the cache saves).
    group.sample_size(10);
    group.bench_function("direct_execution_baseline", |b| {
        b.iter(|| {
            tde.execute_plan(&rollup.to_plan().unwrap(), &ExecOptions::serial())
                .unwrap()
        })
    });
    group.finish();
    fixed_count_probes(c, &tde);
}

criterion_group!(benches, bench);
criterion_main!(benches);
