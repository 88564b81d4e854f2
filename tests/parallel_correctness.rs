//! Parallel-plan correctness: for randomized queries, every planner
//! configuration (serial, local/global, range-partitioned, ablations, RLE
//! on/off) must return identical result sets.

#![allow(clippy::field_reassign_with_default)]

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::Arc;
use tabviz::prelude::*;
use tabviz::tde::cost::CostProfile;
use tabviz::tde::parallel::ParallelOptions;
use tabviz::workloads::{generate_flights, FaaConfig};

fn engine(rows: usize, sorted: bool) -> Tde {
    let flights = generate_flights(&FaaConfig {
        rows,
        seed: 7,
        ..Default::default()
    })
    .unwrap();
    let db = Arc::new(Database::new("faa"));
    let keys: &[&str] = if sorted { &["carrier", "date"] } else { &[] };
    db.put(Table::from_chunk("flights", &flights, keys).unwrap())
        .unwrap();
    Tde::new(db)
}

fn configs() -> Vec<(&'static str, ExecOptions)> {
    let forced = CostProfile {
        min_work_per_thread: 500,
        max_dop: 4,
    };
    let mut all = vec![("serial", ExecOptions::serial())];
    let mut p1 = ExecOptions::default();
    p1.parallel = ParallelOptions {
        profile: forced,
        range_partition_min_distinct_per_dop: 1,
        ..Default::default()
    };
    all.push(("parallel-full", p1));
    let mut p2 = ExecOptions::default();
    p2.parallel = ParallelOptions {
        profile: forced,
        enable_range_partition: false,
        ..Default::default()
    };
    all.push(("local-global", p2));
    let mut p3 = ExecOptions::default();
    p3.parallel = ParallelOptions {
        profile: forced,
        enable_range_partition: false,
        enable_local_global: false,
        enable_local_topn: false,
        ..Default::default()
    };
    all.push(("exchange-serial-agg", p3));
    let mut p4 = ExecOptions::serial();
    p4.physical.enable_rle_index = false;
    all.push(("no-rle-index", p4));
    let mut p5 = ExecOptions::serial();
    p5.physical.enable_scan_pushdown = false;
    all.push(("no-scan-pushdown", p5));
    let mut p6 = ExecOptions::serial();
    p6.physical.enable_run_agg = false;
    all.push(("no-run-agg", p6));
    let mut p7 = ExecOptions::default();
    p7.parallel = ParallelOptions {
        profile: forced,
        ..Default::default()
    };
    p7.physical.enable_scan_pushdown = false;
    all.push(("parallel-no-pushdown", p7));
    all
}

/// Aggregates to draw from: two AVGs of `arr_delay` beside its SUM and
/// COUNT (NULL on every cancelled flight, so the `cancelled` group has no
/// value to average), and COUNTD, which has no local/global plan.
fn agg_pool() -> Vec<&'static str> {
    vec![
        "(count as n)",
        "(sum distance as dist)",
        "(avg arr_delay as d)",
        "(min dep_delay as lo)",
        "(max dep_delay as hi)",
        "(countd origin as no)",
        "(avg arr_delay as d2)",
        "(sum arr_delay as ds)",
        "(count arr_delay as dc)",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(24), ..ProptestConfig::default() })]

    #[test]
    fn all_plan_configs_agree(
        groups in proptest::sample::subsequence(
            vec!["carrier", "origin_state", "weekday", "cancelled"], 0..=2),
        aggs in proptest::sample::subsequence(agg_pool(), 1..=3),
        // "ZZ" flies nowhere: an ungrouped COUNT over it reads 0.
        filter_carrier in proptest::option::of(
            proptest::sample::select(vec!["WN", "DL", "HA", "NK", "ZZ"])),
        sorted in any::<bool>(),
    ) {
        let tde = engine(6_000, sorted);
        let filter = match filter_carrier {
            Some(c) => format!("(select (= carrier \"{c}\") (scan flights))"),
            None => "(scan flights)".to_string(),
        };
        let q = format!(
            "(aggregate ({}) ({}) {})",
            groups.join(" "),
            aggs.join(" "),
            filter
        );
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for (name, opts) in configs() {
            let mut rows = tde.query_with(&q, &opts).unwrap().to_rows();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => prop_assert_eq!(r, &rows, "config {} diverged on {}", name, q),
            }
        }
    }

    #[test]
    fn topn_agrees_across_configs(
        n in 1usize..8,
        desc in any::<bool>(),
    ) {
        let tde = engine(6_000, true);
        let dir = if desc { "desc" } else { "asc" };
        let q = format!(
            "(topn {n} ((total {dir}) (carrier asc))
               (aggregate ((carrier)) ((sum distance as total)) (scan flights)))"
        );
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for (name, opts) in configs() {
            let rows = tde.query_with(&q, &opts).unwrap().to_rows();
            match &reference {
                None => reference = Some(rows),
                Some(r) => prop_assert_eq!(r, &rows, "config {} diverged", name),
            }
        }
    }
}

/// RLE-index selectivity sweep: on sorted (run-length-friendly) data, drive
/// filters from empty through near-total selectivity and require the RLE
/// index scan to agree with the plain scan — and with every parallel
/// configuration — at each point. Off-by-one run boundaries show up at the
/// extremes of this sweep.
#[test]
fn rle_selectivity_sweep_agrees_across_configs() {
    let tde = engine(8_000, true);
    // "ZZ" matches nothing; "WN" is the most common carrier; dep_hour
    // bounds cover none / few / most / all rows.
    let filters = [
        "(= carrier \"ZZ\")".to_string(),
        "(= carrier \"HA\")".to_string(),
        "(= carrier \"WN\")".to_string(),
        "(in carrier \"WN\" \"DL\" \"AA\" \"UA\")".to_string(),
        "(>= dep_hour 23)".to_string(),
        "(>= dep_hour 18)".to_string(),
        "(>= dep_hour 6)".to_string(),
        "(>= dep_hour 0)".to_string(),
        "(between dep_hour 9 9)".to_string(),
    ];
    let mut selectivities = Vec::new();
    for f in &filters {
        let q = format!(
            "(aggregate ((carrier) (weekday)) \
               ((count as n) (sum distance as dist) (min dep_delay as lo)) \
               (select {f} (scan flights)))"
        );
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for (name, opts) in configs() {
            let mut rows = tde.query_with(&q, &opts).unwrap().to_rows();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(r, &rows, "config {name} diverged on filter {f}"),
            }
        }
        let matched: i64 = reference
            .unwrap()
            .iter()
            .map(|r| r[2].as_int().unwrap())
            .sum();
        selectivities.push(matched);
    }
    // The sweep must actually span the range: an empty point and a
    // (near-)total point.
    assert_eq!(selectivities[0], 0, "ZZ must match no rows");
    assert_eq!(
        *selectivities.iter().max().unwrap(),
        8_000,
        "dep_hour >= 0 must match all rows"
    );
}

/// Aggregations over an empty input: grouped queries return zero rows and
/// global (group-less) aggregates return their identity row — identically
/// under every plan configuration.
#[test]
fn empty_input_aggregations_agree_across_configs() {
    let tde = engine(4_000, true);
    let empty = "(select (= carrier \"ZZ\") (scan flights))";
    // Grouped: no groups exist, so no rows.
    let grouped = format!("(aggregate ((carrier)) ((count as n) (sum distance as dist)) {empty})");
    for (name, opts) in configs() {
        let out = tde.query_with(&grouped, &opts).unwrap();
        assert_eq!(out.len(), 0, "config {name}: grouped agg over empty input");
    }
    // Global: one row per configuration, and they all agree with serial.
    let global = format!(
        "(aggregate () ((count as n) (min dep_delay as lo) (max dep_delay as hi)) {empty})"
    );
    let reference = tde
        .query_with(&global, &ExecOptions::serial())
        .unwrap()
        .to_rows();
    assert_eq!(
        reference[0][0],
        Value::Int(0),
        "COUNT over empty input is 0"
    );
    for (name, opts) in configs() {
        let rows = tde.query_with(&global, &opts).unwrap().to_rows();
        assert_eq!(
            rows, reference,
            "config {name}: global agg over empty input"
        );
    }
}

/// A filter isolating a single group must produce exactly one identical row
/// everywhere — the degenerate case for local/global merging and range
/// partitioning (one partition gets everything, the rest get nothing).
#[test]
fn single_group_aggregations_agree_across_configs() {
    let tde = engine(4_000, true);
    for q in [
        // One group row survives the filter.
        "(aggregate ((carrier)) ((count as n) (sum distance as dist) (avg arr_delay as d)) \
           (select (= carrier \"WN\") (scan flights)))"
            .to_string(),
        // Group-less global aggregate over the whole table.
        "(aggregate () ((count as n) (countd carrier as nc) (sum distance as dist)) \
           (scan flights))"
            .to_string(),
    ] {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for (name, opts) in configs() {
            let rows = tde.query_with(&q, &opts).unwrap().to_rows();
            assert_eq!(
                rows.len(),
                1,
                "config {name}: expected a single row for {q}"
            );
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(r, &rows, "config {name} diverged on {q}"),
            }
        }
    }
}

#[test]
fn exchange_results_complete_under_many_threads() {
    // Stress the Exchange with more branches than cores.
    let tde = engine(50_000, false);
    let mut opts = ExecOptions::default();
    opts.parallel = ParallelOptions {
        profile: CostProfile {
            min_work_per_thread: 100,
            max_dop: 16,
        },
        ..Default::default()
    };
    let total = tde
        .query_with("(aggregate () ((count as n)) (scan flights))", &opts)
        .unwrap();
    assert_eq!(total.row(0)[0], Value::Int(50_000));
}

#[test]
fn parallel_join_correctness() {
    let flights = generate_flights(&FaaConfig::with_rows(20_000)).unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    db.put(
        Table::from_chunk(
            "carriers",
            &tabviz::workloads::carriers_dim().unwrap(),
            &["code"],
        )
        .unwrap(),
    )
    .unwrap();
    let tde = Tde::new(db);
    let q = "(aggregate ((name)) ((count as n))
               (join inner ((carrier code)) (scan flights) (scan carriers)))";
    let serial = tde.query_with(q, &ExecOptions::serial()).unwrap();
    let mut fast = ExecOptions::default();
    fast.parallel.profile = CostProfile {
        min_work_per_thread: 500,
        max_dop: 4,
    };
    let parallel = tde.query_with(q, &fast).unwrap();
    let mut a = serial.to_rows();
    let mut b = parallel.to_rows();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    let total: i64 = a.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 20_000);
}

/// An integer SUM that leaves `i64` is an error on every plan shape, in
/// debug and release alike: no wrapped total, no panic.
#[test]
fn integer_sum_overflow_is_an_error() {
    let tde_over = |vals: &[i64]| {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("g", DataType::Int),
                Field::new("v", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![Value::Int(i as i64 % 3), Value::Int(v)])
            .collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let db = Arc::new(Database::new("overflow"));
        db.put(Table::from_chunk("t", &chunk, &[]).unwrap())
            .unwrap();
        Tde::new(db)
    };
    let global = "(aggregate () ((sum v as s)) (scan t))";
    let grouped = "(aggregate (g) ((sum v as s)) (scan t))";
    let serial = ExecOptions::serial();
    let small = tde_over(&[i64::MAX, 1]);
    for q in [
        global,
        "(aggregate () ((sum v as s)) (select (> v 0) (scan t)))",
    ] {
        let err = small.query_with(q, &serial).unwrap_err();
        assert!(matches!(err, TvError::Exec(_)), "{q}: {err:?}");
    }
    // Local/global: each partition's partial sum fits, their total does
    // not (rows 0 and 5 997 are both in group 0).
    let mut vals = vec![0i64; 6_000];
    vals[0] = i64::MAX / 2 + 1;
    vals[5_997] = i64::MAX / 2 + 1;
    let (_, local_global) = configs()
        .into_iter()
        .find(|(name, _)| *name == "local-global")
        .unwrap();
    for q in [global, grouped] {
        let big = tde_over(&vals);
        let plan = big.explain(q, &local_global).unwrap();
        assert!(plan.contains("Partial"), "{plan}");
        for opts in [&serial, &local_global] {
            let err = big.query_with(q, opts).unwrap_err();
            assert!(matches!(err, TvError::Exec(_)), "{q}: {err:?}");
        }
        // One less and the total fits, on both plans.
        let mut fits = vals.clone();
        fits[5_997] -= 1;
        let fits = tde_over(&fits);
        for opts in [&serial, &local_global] {
            let out = fits.query_with(q, opts).unwrap();
            let total = out
                .to_rows()
                .iter()
                .map(|r| r.last().unwrap().as_int().unwrap())
                .max();
            assert_eq!(total, Some(i64::MAX), "{q}");
        }
    }
}
