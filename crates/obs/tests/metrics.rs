//! Histogram bucket boundaries and quantile extraction checked against
//! exact sorted-sample oracles, plus registry concurrency: N threads × M
//! increments must sum exactly, and cells registered under one name
//! export their sum.

use tabviz_obs::{Counter, Histogram, MetricValue, Registry, HIST_BUCKETS};

/// Oracle: the exact q-quantile of a sample set is the value at rank
/// ceil(q·n); the histogram must report the upper bound of the bucket
/// containing that value (fixed log buckets cannot be sample-exact).
fn oracle_bucket_upper(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Histogram::bucket_upper(Histogram::bucket_index(sorted[rank - 1]))
}

#[test]
fn bucket_boundaries_are_powers_of_two() {
    // Bucket 0 covers [0, 1]µs; bucket i covers (2^(i-1), 2^i]µs.
    assert_eq!(Histogram::bucket_index(0), 0);
    assert_eq!(Histogram::bucket_index(1), 0);
    assert_eq!(Histogram::bucket_index(2), 1);
    assert_eq!(Histogram::bucket_index(3), 2);
    assert_eq!(Histogram::bucket_index(4), 2);
    assert_eq!(Histogram::bucket_index(5), 3);
    for i in 1..HIST_BUCKETS - 1 {
        let upper = Histogram::bucket_upper(i);
        // The upper bound itself lands in bucket i; one past it does not.
        assert_eq!(Histogram::bucket_index(upper), i, "upper of bucket {i}");
        assert_eq!(Histogram::bucket_index(upper + 1), i + 1);
    }
    // Values beyond the last finite bucket land in the +Inf bucket.
    assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
    assert_eq!(Histogram::bucket_upper(HIST_BUCKETS - 1), u64::MAX);
}

#[test]
fn quantiles_match_sorted_sample_oracle() {
    // Deterministic but irregular sample: a quadratic sweep spanning many
    // buckets, from sub-µs to ~16s.
    let samples: Vec<u64> = (0..500u64).map(|i| (i * i * 67) % 16_000_000).collect();
    let h = Histogram::new();
    for &s in &samples {
        h.observe_micros(s);
    }
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(h.sum_micros(), samples.iter().sum::<u64>());
    for q in [0.0, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
        assert_eq!(
            h.quantile_micros(q),
            Some(oracle_bucket_upper(&samples, q)),
            "quantile {q}"
        );
    }
}

#[test]
fn quantiles_on_single_bucket_and_empty() {
    let h = Histogram::new();
    assert_eq!(h.quantile_micros(0.5), None);
    for _ in 0..10 {
        h.observe_micros(700); // bucket (512, 1024]
    }
    assert_eq!(h.quantile_micros(0.01), Some(1024));
    assert_eq!(h.quantile_micros(0.99), Some(1024));
}

#[test]
fn registry_concurrent_increments_sum_exactly() {
    const THREADS: usize = 8;
    const INCS: u64 = 10_000;
    let reg = Registry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let reg = reg.clone();
            scope.spawn(move || {
                let c = reg.counter("tv_test_hits_total");
                let h = reg.histogram("tv_test_latency_seconds");
                for i in 0..INCS {
                    c.inc();
                    h.observe_micros(i % 1000);
                }
            });
        }
    });
    let total = THREADS as u64 * INCS;
    assert_eq!(reg.counter("tv_test_hits_total").get(), total);
    assert_eq!(reg.histogram("tv_test_latency_seconds").count(), total);
}

#[test]
fn snapshot_is_sorted_and_stable() {
    let reg = Registry::new();
    reg.counter("tv_b_total").add(2);
    reg.gauge("tv_a_size").set(-3);
    reg.histogram("tv_c_seconds").observe_micros(10);
    let snap = reg.snapshot();
    let keys: Vec<&String> = snap.keys().collect();
    assert_eq!(keys, ["tv_a_size", "tv_b_total", "tv_c_seconds"]);
    match &snap["tv_b_total"] {
        MetricValue::Counter(v) => assert_eq!(*v, 2),
        other => panic!("wrong kind: {other:?}"),
    }
    match &snap["tv_a_size"] {
        MetricValue::Gauge(v) => assert_eq!(*v, -3),
        other => panic!("wrong kind: {other:?}"),
    }
    match &snap["tv_c_seconds"] {
        MetricValue::Histogram(h) => {
            assert_eq!(h.count, 1);
            assert_eq!(h.p50_micros, Some(16));
        }
        other => panic!("wrong kind: {other:?}"),
    }
}

#[test]
fn render_text_exposition_shape() {
    let reg = Registry::new();
    reg.counter("tv_core_queries_total").add(5);
    reg.gauge("tv_backend_pool_open").set(3);
    let h = reg.histogram("tv_core_query_seconds");
    h.observe_micros(100);
    h.observe_micros(2_000_000);
    let text = reg.render_text();
    assert!(text.contains("# TYPE tv_core_queries_total counter"));
    assert!(text.contains("tv_core_queries_total 5"));
    assert!(text.contains("# TYPE tv_backend_pool_open gauge"));
    assert!(text.contains("tv_backend_pool_open 3"));
    assert!(text.contains("# TYPE tv_core_query_seconds histogram"));
    assert!(text.contains("le=\"+Inf\"} 2"));
    assert!(text.contains("tv_core_query_seconds_count 2"));
    // Cumulative: the bucket holding the 2s observation reports both.
    assert!(text.contains("le=\"2.097152\"} 2"), "{text}");
}

#[test]
fn kind_mismatch_returns_detached_handle() {
    let reg = Registry::new();
    reg.counter("tv_x").inc();
    // Asking for the same name as a gauge must not panic or clobber.
    let g = reg.gauge("tv_x");
    g.set(99);
    match &reg.snapshot()["tv_x"] {
        MetricValue::Counter(v) => assert_eq!(*v, 1),
        other => panic!("wrong kind: {other:?}"),
    }
}

#[test]
fn registered_cells_export_their_sum_once_each() {
    let reg = Registry::new();
    let (a, b) = (Counter::new(), Counter::new());
    a.add(2);
    b.add(5);
    reg.register_counter("tv_pool_opened_total", &a);
    reg.register_counter("tv_pool_opened_total", &b);
    // Registering a cell again (a repeated bind) adds nothing.
    reg.register_counter("tv_pool_opened_total", &a);
    a.inc();
    match &reg.snapshot()["tv_pool_opened_total"] {
        MetricValue::Counter(v) => assert_eq!(*v, 8),
        other => panic!("wrong kind: {other:?}"),
    }
    assert!(reg.render_text().contains("tv_pool_opened_total 8"));
    // A registered name holding another kind is taken over by the cell.
    reg.gauge("tv_y").set(4);
    reg.register_counter("tv_y", &b);
    match &reg.snapshot()["tv_y"] {
        MetricValue::Counter(v) => assert_eq!(*v, 5),
        other => panic!("wrong kind: {other:?}"),
    }
}
