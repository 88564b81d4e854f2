//! The experiment harness: regenerates a results table for every performance
//! claim / figure in the paper (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p tabviz-bench --bin experiments [e1..e25|all]`

#![allow(clippy::field_reassign_with_default)] // options structs read better mutated

use std::sync::Arc;
use std::time::Duration;
use tabviz::cache::ExternalStore;
use tabviz::prelude::*;
use tabviz::tde::cost::CostProfile;
use tabviz::tde::parallel::ParallelOptions;
use tabviz::textscan::csv::HeaderMode;
use tabviz::workloads::{fig1_dashboard, generate_flights, FaaConfig};
use tabviz_bench::{faa_db, faa_db_unsorted, ms, print_table, processor_over, time_it};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    println!("tabviz experiment harness — {} cores available", cores());
    if all || which == "e1" {
        e1_batch_strategies();
    }
    if all || which == "e2" {
        e2_query_fusion();
    }
    if all || which == "e3" {
        e3_intelligent_cache_session();
    }
    if all || which == "e4" {
        e4_literal_cache();
    }
    if all || which == "e5" {
        e5_distributed_cache();
    }
    if all || which == "e6" {
        e6_persisted_cache();
    }
    if all || which == "e7" {
        e7_connection_concurrency();
    }
    if all || which == "e8" {
        e8_tde_parallel_scan();
    }
    if all || which == "e9" {
        e9_aggregation_strategies();
    }
    if all || which == "e10" {
        e10_rle_index_scan();
    }
    if all || which == "e11" {
        e11_shadow_extract();
    }
    if all || which == "e12" {
        e12_dataserver_temp_tables();
    }
    if all || which == "e13" {
        e13_join_culling();
    }
    if all || which == "e15" {
        e15_prefetching();
    }
    if all || which == "e16" {
        e16_fault_resilience();
    }
    if all || which == "e17" {
        e17_observability();
    }
    if all || which == "e18" {
        e18_zone_skipping();
    }
    if all || which == "e19" {
        e19_overload_scheduling();
    }
    if all || which == "e20" {
        e20_flight_recorder_overhead();
    }
    if all || which == "e21" {
        e21_cluster_storm();
    }
    if all || which == "e22" {
        e22_slo_brownout();
    }
    if all || which == "e23" {
        e23_vector_kernels();
    }
    if all || which == "e24" {
        e24_cache_hierarchy();
    }
    if all || which == "e25" {
        e25_attribution_drill();
    }
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn lan_config() -> SimConfig {
    SimConfig {
        latency: LatencyModel::lan(),
        ..Default::default()
    }
}

// ---------------------------------------------------------------- E1 ----

/// Sect. 3.3 / Fig. 3: batch strategies for a Fig. 1 dashboard load.
fn e1_batch_strategies() {
    let rows = 150_000;
    let db = faa_db(rows);
    let dash = fig1_dashboard("warehouse", "flights");
    let strategies: Vec<(&str, BatchOptions, bool)> = vec![
        (
            "serial, no caching",
            BatchOptions {
                fuse: false,
                concurrent: false,
                cache_aware: false,
                ..Default::default()
            },
            false,
        ),
        (
            "serial + caches",
            BatchOptions {
                fuse: false,
                concurrent: false,
                cache_aware: false,
                ..Default::default()
            },
            true,
        ),
        (
            "concurrent submission",
            BatchOptions {
                fuse: false,
                concurrent: true,
                cache_aware: false,
                ..Default::default()
            },
            true,
        ),
        (
            "concurrent + graph partition + fusion",
            BatchOptions::default(),
            true,
        ),
    ];
    let mut out = Vec::new();
    for (name, opts, caches_on) in strategies {
        let (mut qp, sim) = processor_over(Arc::clone(&db), lan_config(), 8);
        if !caches_on {
            qp.options.use_intelligent_cache = false;
            qp.options.use_literal_cache = false;
        }
        let mut state = DashboardState::default();
        let ((_, report), wall) =
            time_it(|| dash.render(&qp, &mut state, &opts, true).expect("render"));
        out.push(vec![
            name.to_string(),
            ms(wall),
            report.batches[0].remote.to_string(),
            report.batches[0].local.to_string(),
            report.batches[0].fused_away.to_string(),
            sim.stats().queries.to_string(),
        ]);
    }
    print_table(
        "E1 — dashboard load (Fig.1, 8 zones + domains) by batch strategy",
        &[
            "strategy",
            "wall ms",
            "remote",
            "local",
            "fused away",
            "backend queries",
        ],
        &out,
    );
    // Machine lines (CI tolerance bands parse these).
    println!("e1_backend_queries_naive {}", out[0][5]);
    println!("e1_backend_queries_full {}", out[3][5]);
    println!("e1_fused_away {}", out[3][4]);
}

// ---------------------------------------------------------------- E2 ----

/// Sect. 3.4: query fusion on zones sharing filters but differing measures.
fn e2_query_fusion() {
    let db = faa_db(150_000);
    // Six zones over the same filtered relation, different projections.
    let batch = |src: &str| -> Vec<(String, QuerySpec)> {
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
            (
                "dep".into(),
                base().agg(AggCall::new(AggFunc::Avg, Some(col("dep_delay")), "dep")),
            ),
        ]
    };
    let mut out = Vec::new();
    for (name, fuse) in [("without fusion", false), ("with fusion", true)] {
        let (mut qp, sim) = processor_over(Arc::clone(&db), lan_config(), 8);
        // Disable subsumption so fusion's effect is isolated.
        qp.options.use_intelligent_cache = fuse;
        qp.options.use_literal_cache = false;
        let opts = BatchOptions {
            fuse,
            concurrent: false,
            cache_aware: false,
            ..Default::default()
        };
        let (res, wall) =
            time_it(|| execute_batch(&qp, &batch("warehouse"), &opts).expect("batch"));
        out.push(vec![
            name.to_string(),
            ms(wall),
            sim.stats().queries.to_string(),
            res.report.fused_away.to_string(),
        ]);
    }
    print_table(
        "E2 — query fusion: 6 zones, same relation+filters, different measures",
        &["mode", "wall ms", "backend queries", "fused away"],
        &out,
    );
    println!("e2_backend_queries_without {}", out[0][2]);
    println!("e2_backend_queries_with {}", out[1][2]);
    println!("e2_fused_away {}", out[1][3]);
    e2_level_of_detail_fusion();
}

/// Level-of-detail fusion: a cold Fig. 1 load over a WAN, where the zones
/// differ in their grouping column and the pool decides how many waves the
/// remote queries take. The table is the benchmark's 5 000 rows, so a trip
/// is its simulated latency and the cover bound is the one that load meets.
fn e2_level_of_detail_fusion() {
    const LOADS: usize = 5;
    let db = faa_db(5_000);
    let dash = fig1_dashboard("warehouse", "flights");
    let wan = || SimConfig {
        latency: LatencyModel::wan(),
        ..Default::default()
    };
    let mut out = Vec::new();
    for pool in [2usize, 4, 8] {
        for (name, fuse) in [("fusion off", false), ("fusion on", true)] {
            let (qp, _sim) = processor_over(Arc::clone(&db), wan(), pool);
            let opts = BatchOptions {
                fuse,
                ..Default::default()
            };
            // The first load opens the pool's connections (120 ms each).
            let mut loads: Vec<(tabviz::core::batch::BatchReport, Duration)> = (0..=LOADS)
                .map(|_| {
                    qp.caches.clear();
                    let mut state = DashboardState::default();
                    let ((_, report), wall) =
                        time_it(|| dash.render(&qp, &mut state, &opts, true).expect("load"));
                    (report.batches[0].clone(), wall)
                })
                .skip(1)
                .collect();
            loads.sort_by_key(|(_, wall)| *wall);
            let (report, wall) = &loads[LOADS / 2];
            out.push(vec![
                pool.to_string(),
                name.to_string(),
                report.remote.to_string(),
                report.remote.div_ceil(pool).to_string(),
                report.covered.to_string(),
                ms(*wall),
            ]);
        }
    }
    print_table(
        "E2b — level-of-detail fusion: cold Fig.1 load over a WAN, by pool size (median of 5)",
        &[
            "pool",
            "mode",
            "remote",
            "waves",
            "zones covered",
            "wall ms",
        ],
        &out,
    );
    println!("e2_cover_remote_pool4 {}", out[3][2]);
    println!("e2_cover_remote_pool8 {}", out[5][2]);
}

// ---------------------------------------------------------------- E3 ----

/// Sect. 3.2: the intelligent cache across a filter-interaction session.
fn e3_intelligent_cache_session() {
    let db = faa_db(150_000);
    let dash = fig1_dashboard("warehouse", "flights");
    // (name, intelligent, literal, widen)
    let modes: Vec<(&str, bool, bool, bool)> = vec![
        ("no caches", false, false, false),
        ("literal only", false, true, false),
        ("intelligent + literal", true, true, false),
        ("intelligent + widening", true, true, true),
    ];
    let carriers = ["WN", "DL", "AA", "UA", "US", "EV", "OO", "B6"];
    let mut out = Vec::new();
    for (name, intelligent, literal, widen) in modes {
        let (mut qp, sim) = processor_over(Arc::clone(&db), lan_config(), 8);
        qp.options.use_intelligent_cache = intelligent;
        qp.options.use_literal_cache = literal;
        qp.options.widen_for_reuse = widen;
        let mut state = DashboardState::default();
        let (_, load) = time_it(|| {
            dash.render(&qp, &mut state, &BatchOptions::default(), true)
                .expect("load")
        });
        // Interaction: shrink the carrier quick filter step by step — the
        // Fig. 1 "deselect values" scenario.
        let mut interact_total = Duration::ZERO;
        for k in (2..8).rev() {
            let subset: Vec<Value> = carriers[..k].iter().map(|&c| Value::from(c)).collect();
            state.set_quick_filter("carrier", subset);
            let (_, t) = time_it(|| {
                dash.render(&qp, &mut state, &BatchOptions::default(), false)
                    .expect("interact")
            });
            interact_total += t;
        }
        out.push(vec![
            name.to_string(),
            ms(load),
            ms(interact_total / 6),
            sim.stats().queries.to_string(),
        ]);
    }
    print_table(
        "E3 — filter-interaction session (initial load + 6 quick-filter changes)",
        &[
            "cache mode",
            "load ms",
            "avg interaction ms",
            "backend queries",
        ],
        &out,
    );
    println!("e3_backend_queries_no_cache {}", out[0][3]);
    println!("e3_backend_queries_full_cache {}", out[3][3]);
}

// ---------------------------------------------------------------- E4 ----

/// Sect. 3.2: the literal cache catches post-compilation text collisions.
fn e4_literal_cache() {
    let db = faa_db(100_000);
    let (qp, sim) = processor_over(db, lan_config(), 4);
    // Two structurally different filters that simplify to the same text.
    let plain = bin(BinOp::Eq, col("carrier"), lit("AA"));
    let convoluted = bin(BinOp::Or, plain.clone(), lit(false));
    let spec_of = |f: Expr| {
        QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(f)
            .group("origin_state")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    };
    let (_, t1) = time_it(|| qp.execute(&spec_of(convoluted.clone())).expect("q1"));
    let ((_, outcome2), t2) = time_it(|| qp.execute(&spec_of(plain.clone())).expect("q2"));
    let rows = vec![
        vec![
            "convoluted predicate (first)".into(),
            ms(t1),
            "Remote".into(),
        ],
        vec![
            "simplified twin (second)".into(),
            ms(t2),
            format!("{outcome2:?}"),
        ],
    ];
    print_table(
        "E4 — literal cache: structurally different, textually identical after simplification",
        &["query", "wall ms", "outcome"],
        &rows,
    );
    println!(
        "backend queries: {} (intelligent misses: {}, literal hits: {})",
        sim.stats().queries,
        qp.caches.intelligent.stats().misses,
        qp.caches.literal.stats().hits
    );
    assert_eq!(outcome2, ExecOutcome::LiteralHit);
    println!("e4_literal_hits {}", qp.caches.literal.stats().hits);
    println!("e4_backend_queries {}", sim.stats().queries);
}

// ---------------------------------------------------------------- E5 ----

/// Sect. 3.2: the distributed cache layer under multi-user server traffic.
fn e5_distributed_cache() {
    let db = faa_db(150_000);
    let external = Arc::new(ExternalStore::new(Duration::from_micros(500)));
    // Two server nodes: each its own processor and node-local L1, both
    // over the one external store as their shared L2.
    let nodes: Vec<QueryProcessor> = (0..2)
        .map(|_| {
            let (qp, _) = processor_over(Arc::clone(&db), lan_config(), 8);
            qp.caches.set_l2(external.clone());
            qp
        })
        .collect();
    let dash = fig1_dashboard("warehouse", "flights");
    let batch = dash.batch(&DashboardState::default(), true);

    let mut rows = Vec::new();
    let serve = |user: usize, label: &str, rows: &mut Vec<Vec<String>>| {
        let node = &nodes[user % 2];
        let (_, wall) = time_it(|| {
            for (_, spec) in &batch {
                node.execute(spec).expect("compute");
            }
        });
        rows.push(vec![
            label.to_string(),
            format!("node-{}", user % 2),
            ms(wall),
        ]);
    };
    serve(0, "user 1 (cold cluster)", &mut rows);
    serve(1, "user 2 (other node, warm external)", &mut rows);
    serve(2, "user 3 (node-0 again, warm local)", &mut rows);
    serve(3, "user 4 (node-1 again, warm local)", &mut rows);
    print_table(
        "E5 — shared dashboard across users and cluster nodes",
        &["request", "served by", "wall ms"],
        &rows,
    );
    let local_hits = |qp: &QueryProcessor| {
        let st = qp.stats();
        st.intelligent_hits + st.literal_hits
    };
    println!(
        "external store: {} puts, {} gets ({} hits); node-0 local hits {}, node-1 local hits {}",
        external.stats().puts,
        external.stats().gets,
        external.stats().get_hits,
        local_hits(&nodes[0]),
        local_hits(&nodes[1]),
    );

    // Tableau-Public mix: 100 viewers, 90% only load.
    let candidates = vec![(
        "OriginsByState".to_string(),
        vec![Value::from("CA"), Value::from("TX"), Value::from("NY")],
    )];
    let traffic = tabviz::workloads::public_traffic(&dash, &candidates, 100, 0.1, 11);
    let loads = traffic
        .iter()
        .filter(|(_, i)| matches!(i, tabviz::workloads::Interaction::Load))
        .count();
    println!(
        "public traffic mix: {} events, {} initial loads ({}%) — the workload the warm cache absorbs",
        traffic.len(),
        loads,
        loads * 100 / traffic.len()
    );
    println!("e5_external_get_hits {}", external.stats().get_hits);
    println!(
        "e5_local_hits {}",
        local_hits(&nodes[0]) + local_hits(&nodes[1])
    );
}

// ---------------------------------------------------------------- E6 ----

/// Sect. 3.2: Desktop persisted caches across sessions.
fn e6_persisted_cache() {
    let db = faa_db(150_000);
    let dash = fig1_dashboard("warehouse", "flights");
    let path = std::env::temp_dir().join("tabviz_e6_cache.tvqc");

    // Session 1: cold load, then persist.
    let (qp1, _) = processor_over(Arc::clone(&db), lan_config(), 8);
    let mut state = DashboardState::default();
    let (_, cold) = time_it(|| {
        dash.render(&qp1, &mut state, &BatchOptions::default(), true)
            .expect("load")
    });
    tabviz::cache::persist::save_to_file(&qp1.caches, &path).expect("save");

    // Session 2 ("restart"): fresh processor, warm from disk.
    let (qp2, sim2) = processor_over(Arc::clone(&db), lan_config(), 8);
    let loaded = tabviz::cache::persist::load_from_file(&qp2.caches, &path).expect("load");
    let mut state2 = DashboardState::default();
    let (_, warm) = time_it(|| {
        dash.render(&qp2, &mut state2, &BatchOptions::default(), true)
            .expect("render")
    });

    // Session 3: restart without the persisted file (the baseline).
    let (qp3, sim3) = processor_over(Arc::clone(&db), lan_config(), 8);
    let mut state3 = DashboardState::default();
    let (_, cold2) = time_it(|| {
        dash.render(&qp3, &mut state3, &BatchOptions::default(), true)
            .expect("render")
    });

    print_table(
        "E6 — persisted caches across Desktop sessions",
        &["session", "first render ms", "backend queries"],
        &[
            vec!["session 1 (cold)".into(), ms(cold), "-".into()],
            vec![
                format!("session 2 (restart, {loaded} entries loaded)"),
                ms(warm),
                sim2.stats().queries.to_string(),
            ],
            vec![
                "session 3 (restart, no cache file)".into(),
                ms(cold2),
                sim3.stats().queries.to_string(),
            ],
        ],
    );
    std::fs::remove_file(path).ok();
    println!("e6_entries_loaded {loaded}");
    println!("e6_warm_backend_queries {}", sim2.stats().queries);
    println!("e6_cold_backend_queries {}", sim3.stats().queries);
}

// ---------------------------------------------------------------- E7 ----

/// Sect. 3.5: connection-count sweep across backend architectures.
fn e7_connection_concurrency() {
    let rows = 40_000;
    let archs: Vec<(&str, SimConfig)> = vec![
        (
            "thread-per-query, 8 cores",
            SimConfig {
                latency: busy_latency(),
                architecture: ServerArchitecture::ThreadPerQuery,
                cores: 8,
                ..Default::default()
            },
        ),
        (
            "parallel plans (dop 4), 8 cores",
            SimConfig {
                latency: busy_latency(),
                architecture: ServerArchitecture::ParallelPlans { dop: 4 },
                cores: 8,
                ..Default::default()
            },
        ),
        (
            "throttled (2 concurrent)",
            SimConfig {
                latency: busy_latency(),
                architecture: ServerArchitecture::ThreadPerQuery,
                cores: 8,
                capabilities: Capabilities {
                    max_concurrent_queries: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        ),
        (
            "thread-per-query + shared scans",
            SimConfig {
                latency: busy_latency(),
                architecture: ServerArchitecture::ThreadPerQuery,
                cores: 8,
                shared_scans: true,
                ..Default::default()
            },
        ),
    ];
    fn busy_latency() -> LatencyModel {
        LatencyModel {
            connect: Duration::from_millis(20),
            dispatch: Duration::from_millis(3),
            scan_per_kilorow: Duration::from_micros(600), // ≈24ms server work/query
            transfer_per_kilorow: Duration::from_micros(200),
        }
    }
    // Eight independent queries (different filters — nothing derivable).
    let batch: Vec<(String, QuerySpec)> = (0..8)
        .map(|i| {
            (
                format!("q{i}"),
                QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
                    .filter(bin(BinOp::Ge, col("dep_hour"), lit(i as i64)))
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Count, None, "n")),
            )
        })
        .collect();
    let db = faa_db(rows);
    let mut out = Vec::new();
    let mut tpq_walls: Vec<f64> = Vec::new();
    for (arch_name, config) in archs {
        let mut cells = vec![arch_name.to_string()];
        for pool in [1usize, 2, 4, 8] {
            let (mut qp, _) = processor_over(Arc::clone(&db), config.clone(), pool);
            qp.options.use_intelligent_cache = false;
            qp.options.use_literal_cache = false;
            let opts = BatchOptions {
                fuse: false,
                concurrent: true,
                cache_aware: false,
                ..Default::default()
            };
            let (_, wall) = time_it(|| execute_batch(&qp, &batch, &opts).expect("batch"));
            if arch_name.starts_with("thread-per-query, 8 cores") {
                tpq_walls.push(wall.as_secs_f64());
            }
            cells.push(ms(wall));
        }
        out.push(cells);
    }
    print_table(
        "E7 — batch of 8 queries: wall ms by connection-pool size and backend architecture",
        &["architecture", "1 conn", "2 conns", "4 conns", "8 conns"],
        &out,
    );
    // Pool scaling on the thread-per-query backend: 8 connections must beat
    // 1 connection on a batch of 8 independent queries.
    println!(
        "e7_pool_scaling {:.2}",
        tpq_walls[0] / tpq_walls[3].max(1e-9)
    );
}

// ---------------------------------------------------------------- E8 ----

/// Sect. 4.2 / Figs. 3–4: TDE parallel scan/filter/aggregate speedup vs DOP.
fn e8_tde_parallel_scan() {
    let rows = 1_500_000;
    let tde = Tde::new(faa_db(rows));
    let q = "(aggregate ((origin_state))
                        ((count as n) (avg arr_delay as d) (max dep_delay as hi))
               (select (= cancelled false) (scan flights)))";
    let mut out = Vec::new();
    let (_, t1) = time_it(|| tde.query_with(q, &ExecOptions::serial()).expect("serial"));
    out.push(vec!["1 (serial plan)".into(), ms(t1), "1.00".into()]);
    for dop in [2usize, 4, 8] {
        let mut opts = ExecOptions::default();
        opts.parallel = ParallelOptions {
            profile: CostProfile {
                min_work_per_thread: 10_000,
                max_dop: dop,
            },
            ..Default::default()
        };
        let (_, t) = time_it(|| tde.query_with(q, &opts).expect("parallel"));
        out.push(vec![
            dop.to_string(),
            ms(t),
            format!("{:.2}", t1.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    print_table(
        &format!(
            "E8 — TDE parallel plans: {rows} rows, filter+aggregate, by DOP ({} cores present)",
            cores()
        ),
        &["DOP", "wall ms", "speedup vs serial"],
        &out,
    );
    if cores() == 1 {
        println!(
            "note: single-core host — parallel plans can only tie or lose here; see EXPERIMENTS.md"
        );
    }
    // Structural gate: the dop-4 plan actually parallelizes (timing bands
    // would be flaky on small shared runners).
    let plan = tabviz::tql::parse_plan(q).expect("parse");
    let mut opts4 = ExecOptions::default();
    opts4.parallel = ParallelOptions {
        profile: CostProfile {
            min_work_per_thread: 10_000,
            max_dop: 4,
        },
        ..Default::default()
    };
    let explain = tde.plan_physical(&plan, &opts4).expect("plan").explain();
    println!(
        "e8_parallel_plan_used {}",
        u32::from(explain.contains("Exchange"))
    );
    println!("e8_speedup_dop4 {}", out[2][2]);
}

// ---------------------------------------------------------------- E9 ----

/// Sect. 4.2.3 / Fig. 5 and Lemmas 1–3: aggregation strategies.
fn e9_aggregation_strategies() {
    let rows = 1_500_000;
    let sorted = Tde::new(faa_db(rows));
    let q = "(aggregate ((carrier)) ((count as n) (sum distance as dist) (avg arr_delay as d)) (scan flights))";
    let forced = CostProfile {
        min_work_per_thread: 10_000,
        max_dop: 4,
    };

    let mut rows_out = Vec::new();
    let run = |name: &str, opts: &ExecOptions, rows_out: &mut Vec<Vec<String>>| {
        let plan = tabviz::tql::parse_plan(q).expect("parse");
        let explain = sorted.plan_physical(&plan, opts).expect("plan").explain();
        let (_, t) = time_it(|| sorted.query_with(q, opts).expect("run"));
        rows_out.push(vec![
            name.to_string(),
            agg_plan_shape(&explain).to_string(),
            ms(t),
        ]);
    };

    run("serial hash", &ExecOptions::serial(), &mut rows_out);
    let mut lg = ExecOptions::default();
    lg.parallel = ParallelOptions {
        profile: forced,
        enable_range_partition: false,
        ..Default::default()
    };
    run("parallel local/global", &lg, &mut rows_out);
    let mut rp = ExecOptions::default();
    rp.parallel = ParallelOptions {
        profile: forced,
        range_partition_min_distinct_per_dop: 1,
        ..Default::default()
    };
    run("parallel range-partitioned", &rp, &mut rows_out);
    let mut serial_agg = ExecOptions::default();
    serial_agg.parallel = ParallelOptions {
        profile: forced,
        enable_range_partition: false,
        enable_local_global: false,
        ..Default::default()
    };
    run("parallel, global agg only", &serial_agg, &mut rows_out);

    print_table(
        &format!("E9 — aggregation strategies, {rows} rows sorted by carrier"),
        &["strategy", "chosen plan", "wall ms"],
        &rows_out,
    );

    // The low-cardinality caveat: partitioning on `cancelled` (2 values)
    // must fall back to local/global even when range partitioning is on.
    let q2 = "(aggregate ((cancelled)) ((count as n)) (scan flights))";
    let db2 = {
        let flights = generate_flights(&FaaConfig::with_rows(200_000)).expect("gen");
        let db = Arc::new(Database::new("faa2"));
        db.put(Table::from_chunk("flights", &flights, &["cancelled"]).expect("t"))
            .expect("put");
        db
    };
    let tde2 = Tde::new(db2);
    let mut rp2 = ExecOptions::default();
    rp2.parallel = ParallelOptions {
        profile: forced,
        ..Default::default()
    };
    let plan2 = tabviz::tql::parse_plan(q2).expect("parse");
    let guard_choice = agg_plan_shape(&tde2.plan_physical(&plan2, &rp2).expect("plan").explain());
    println!(
        "low-cardinality guard: grouping by `cancelled` (2 values) chose {guard_choice} (anything but range partitioning)"
    );
    println!(
        "e9_range_partitioned_plan {}",
        u32::from(rows_out[2][1] == RANGE_PARTITIONED)
    );
    println!(
        "e9_low_cardinality_no_range_partition {}",
        u32::from(guard_choice != RANGE_PARTITIONED)
    );
}

const RANGE_PARTITIONED: &str = "range-partitioned (no global)";

/// Name the aggregation strategy an explained plan uses. An Exchange
/// rendered above the first HashAgg closes per-branch complete aggregates
/// (range partitioning); one below it feeds a single global aggregate.
fn agg_plan_shape(explain: &str) -> &'static str {
    if explain.contains("RunAgg") {
        return "run-granularity";
    }
    if explain.contains("Partial") {
        return "local/global";
    }
    match (explain.find("Exchange"), explain.find("HashAgg")) {
        (Some(x), Some(h)) if x < h => RANGE_PARTITIONED,
        (Some(_), _) => "exchange + serial agg",
        _ => "serial hash",
    }
}

// --------------------------------------------------------------- E10 ----

/// Sect. 4.3: RLE IndexTable range skipping across selectivities.
fn e10_rle_index_scan() {
    let rows = 1_500_000;
    let tde = Tde::new(faa_db(rows));
    let all = [
        "HA", "F9", "NK", "AS", "B6", "OO", "EV", "US", "UA", "AA", "DL", "WN",
    ];
    let mut out = Vec::new();
    for k in [1usize, 2, 4, 8, 12] {
        let list = all[..k]
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(" ");
        let q = format!(
            "(aggregate ((origin_state)) ((count as n))
               (select (in carrier {list}) (scan flights)))"
        );
        let (_, t_rle) = time_it(|| tde.query_with(&q, &ExecOptions::serial()).expect("rle"));
        let mut no_rle = ExecOptions::serial();
        no_rle.physical.enable_rle_index = false;
        let (_, t_full) = time_it(|| tde.query_with(&q, &no_rle).expect("full"));
        let plan = tabviz::tql::parse_plan(&q).expect("parse");
        let used_rle = tde
            .plan_physical(&plan, &ExecOptions::serial())
            .expect("plan")
            .explain()
            .contains("via-rle-index");
        out.push(vec![
            format!("{k}/12 carriers"),
            ms(t_full),
            ms(t_rle),
            format!("{:.1}", t_full.as_secs_f64() / t_rle.as_secs_f64()),
            used_rle.to_string(),
        ]);
    }
    print_table(
        &format!("E10 — selective filters on the RLE carrier column ({rows} rows)"),
        &[
            "selectivity",
            "full scan ms",
            "rle path ms",
            "speedup",
            "index used",
        ],
        &out,
    );
    println!(
        "e10_index_used_selective {}",
        u32::from(out[0][4] == "true")
    );
    println!("e10_speedup_selective {}", out[0][3]);
}

// --------------------------------------------------------------- E11 ----

/// Sect. 4.4: shadow extracts vs parse-per-query, break-even sweep.
fn e11_shadow_extract() {
    let flights = generate_flights(&FaaConfig::with_rows(40_000)).expect("gen");
    let mut csv = String::from(
        "date,carrier,origin,dest,origin_state,dest_state,market,dep_hour,weekday,distance,dep_delay,arr_delay,cancelled\n",
    );
    for i in 0..flights.len() {
        let cells: Vec<String> = flights
            .row(i)
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Date(d) => {
                    let (y, m, dd) = tabviz::tql::datefn::civil_from_days(*d);
                    format!("{y:04}-{m:02}-{dd:02}")
                }
                other => other.to_string(),
            })
            .collect();
        csv.push_str(&cells.join(","));
        csv.push('\n');
    }
    let opts = CsvOptions {
        header: HeaderMode::Yes,
        ..Default::default()
    };
    let q = "(aggregate ((carrier)) ((count as n) (avg arr_delay as d)) (scan flights_csv))";

    let mut out = Vec::new();
    for n_queries in [1usize, 2, 4, 8, 16] {
        // Jet-style: parse per query.
        let db1 = Arc::new(Database::new("d1"));
        let se1 = ShadowExtracts::new(Arc::clone(&db1));
        let (_, t_parse) = time_it(|| {
            for _ in 0..n_queries {
                let chunk = se1.parse_per_query(&csv, &opts).expect("parse");
                db1.put_temp(Table::from_chunk("flights_csv", &chunk, &[]).expect("t"))
                    .expect("put");
                Tde::new(Arc::clone(&db1)).query(q).expect("q");
                db1.clear_temp();
            }
        });
        // Shadow extract: parse once.
        let db2 = Arc::new(Database::new("d2"));
        let se2 = ShadowExtracts::new(Arc::clone(&db2));
        let (_, t_extract) = time_it(|| {
            se2.connect_text("flights_csv", &csv, &opts)
                .expect("extract");
            let tde = Tde::new(Arc::clone(&db2));
            for _ in 0..n_queries {
                tde.query(q).expect("q");
            }
        });
        out.push(vec![
            n_queries.to_string(),
            ms(t_parse),
            ms(t_extract),
            format!("{:.1}", t_parse.as_secs_f64() / t_extract.as_secs_f64()),
        ]);
    }
    print_table(
        "E11 — text source: parse-per-query (Jet-era) vs shadow extract, 40k-row CSV",
        &[
            "queries",
            "parse-per-query ms",
            "shadow extract ms",
            "speedup",
        ],
        &out,
    );
    println!("e11_speedup_16q {}", out.last().expect("rows")[3]);
}

// --------------------------------------------------------------- E12 ----

/// Sect. 5.3–5.4: Data Server temp tables for large filters.
fn e12_dataserver_temp_tables() {
    let db = faa_db(150_000);
    let markets: Vec<String> = {
        let t = db.resolve("flights").expect("t");
        match t.column_domain("market").expect("domain") {
            Some(d) => d
                .into_iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s),
                    _ => None,
                })
                .collect(),
            None => vec![],
        }
    };
    let mut out = Vec::new();
    for &size in &[10usize, 50, 200, 400] {
        let size = size.min(markets.len());
        let values: Vec<Value> = markets[..size]
            .iter()
            .map(|m| Value::from(m.as_str()))
            .collect();

        // (a) Inline IN-list resent with every query.
        let sim_cfg = SimConfig {
            latency: LatencyModel::wan(),
            ..Default::default()
        };
        let (qp, sim) = processor_over(Arc::clone(&db), sim_cfg.clone(), 4);
        let server = Arc::new(DataServer::new(qp));
        server.publish(PublishedSource::new(
            "m",
            "warehouse",
            LogicalPlan::scan("flights"),
        ));
        let session = server.connect("m", "u").expect("connect");
        let inline_q = ClientQuery {
            filters: vec![Expr::In {
                expr: Box::new(col("market")),
                list: values.clone(),
                negated: false,
            }],
            group_by: vec!["carrier".into()],
            aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
            ..Default::default()
        };
        // Disable server-side externalization by using a tiny threshold off:
        // force inline by turning off backing temp tables.
        let (_, t_inline) = time_it(|| {
            for _ in 0..3 {
                server.processor.caches.clear();
                session.query(&inline_q).expect("inline");
            }
        });
        // Client→Data-Server wire bytes (the Sect. 5.3 "reduced network
        // traffic" metric).
        let inline_bytes = server.stats().client_bytes_in;
        let _ = &sim;

        // (b) Set defined once, referenced thereafter (+ temp pushdown).
        let (qp2, sim2) = processor_over(Arc::clone(&db), sim_cfg, 4);
        let server2 = Arc::new(DataServer::new(qp2));
        server2.publish(PublishedSource::new(
            "m",
            "warehouse",
            LogicalPlan::scan("flights"),
        ));
        let mut session2 = server2.connect("m", "u").expect("connect");
        let (_, t_set) = time_it(|| {
            let set = session2.define_set("market", values.clone()).expect("set");
            let q = ClientQuery {
                group_by: vec!["carrier".into()],
                aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
                set_refs: vec![set],
                ..Default::default()
            };
            for _ in 0..3 {
                server2.processor.caches.clear();
                session2.query(&q).expect("set query");
            }
        });
        let set_bytes = server2.stats().client_bytes_in;
        out.push(vec![
            size.to_string(),
            ms(t_inline),
            ms(t_set),
            inline_bytes.to_string(),
            set_bytes.to_string(),
            sim2.stats().temp_tables_created.to_string(),
        ]);
    }
    print_table(
        "E12 — large filters through Data Server: inline IN-list vs shared set + temp-table pushdown (3 queries each, WAN)",
        &["filter size", "inline ms", "set ms", "inline bytes", "set bytes", "temp tables"],
        &out,
    );
    let last = out.last().expect("rows");
    let inline_b: f64 = last[3].parse().unwrap_or(0.0);
    let set_b: f64 = last[4].parse().unwrap_or(0.0);
    println!("e12_temp_tables {}", last[5]);
    println!("e12_bytes_ratio {:.1}", inline_b / set_b.max(1.0));
}

// --------------------------------------------------------------- E13 ----

/// Sect. 4.1.2: join culling for domain queries.
fn e13_join_culling() {
    let tde = Tde::new(faa_db(1_000_000));
    let q = "(aggregate ((carrier)) ()
               (join inner ((carrier code)) (scan flights) (scan carriers)))";
    let (_, t_culled) = time_it(|| tde.query_with(q, &ExecOptions::serial()).expect("culled"));
    let mut no_cull = ExecOptions::serial();
    no_cull.optimizer.enable_join_culling = false;
    let (_, t_join) = time_it(|| tde.query_with(q, &no_cull).expect("join"));
    print_table(
        "E13 — carrier domain query over a star join (1M-row fact)",
        &["mode", "wall ms"],
        &[
            vec!["join culled (default)".into(), ms(t_culled)],
            vec!["join executed".into(), ms(t_join)],
        ],
    );
    println!(
        "e13_culling_speedup {:.2}",
        t_join.as_secs_f64() / t_culled.as_secs_f64().max(1e-9)
    );
}

// --------------------------------------------------------------- E15 ----

/// Sect. 7 (future work): speculative prefetching of predicted interactions.
fn e15_prefetching() {
    use tabviz::core::prefetch::prefetch;
    let db = faa_db(150_000);
    let dash = fig1_dashboard("warehouse", "flights");
    let mut out = Vec::new();
    for (name, do_prefetch) in [("no prefetch", false), ("prefetch top-3 per zone", true)] {
        let (qp, sim) = processor_over(Arc::clone(&db), lan_config(), 8);
        let mut state = DashboardState::default();
        let (results, _) = dash
            .render(&qp, &mut state, &BatchOptions::default(), true)
            .expect("load");
        let mut prefetch_ms = Duration::ZERO;
        if do_prefetch {
            // Idle time after the load: warm the predicted neighborhood.
            let (_, t) = time_it(|| prefetch(&qp, &dash, &state, &results, 3, 6).expect("warm"));
            prefetch_ms = t;
        }
        let before = sim.stats().queries;
        // The user clicks the top origin state.
        let first_state = results["OriginsByState"].row(0)[0].clone();
        state.select("OriginsByState", first_state);
        let (_, t_interact) = time_it(|| {
            dash.render(&qp, &mut state, &BatchOptions::default(), false)
                .expect("interact")
        });
        out.push(vec![
            name.to_string(),
            ms(prefetch_ms),
            ms(t_interact),
            (sim.stats().queries - before).to_string(),
        ]);
    }
    print_table(
        "E15 — speculative prefetching of predicted interactions (Sect. 7 future work)",
        &[
            "mode",
            "idle prefetch ms",
            "interaction ms",
            "backend queries during interaction",
        ],
        &out,
    );
    println!("e15_interaction_queries_no_prefetch {}", out[0][3]);
    println!("e15_interaction_queries_prefetch {}", out[1][3]);
}

// ---------------------------------------------------------------- E16 ----

/// Fault sweep: the E7 batch under increasing backend fault rates, with the
/// resilience layer (bounded retries + degraded stale serving) on vs off.
/// Deterministic: fault decisions hash a fixed seed per operation ordinal.
fn e16_fault_resilience() {
    let db = faa_db(40_000);
    let batch: Vec<(String, QuerySpec)> = (0..8)
        .map(|i| {
            (
                format!("q{i}"),
                QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
                    .filter(bin(BinOp::Ge, col("dep_hour"), lit(i as i64)))
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Count, None, "n")),
            )
        })
        .collect();
    let mut out = Vec::new();
    for drop_rate in [0.0f64, 0.2, 0.5, 0.9] {
        for resilient in [true, false] {
            let (mut qp, sim) = processor_over(Arc::clone(&db), lan_config(), 4);
            if !resilient {
                qp.options.transient_retries = 0;
                qp.options.serve_stale_on_failure = false;
            }
            // A healthy pass fills the caches; the refresh then demotes them
            // to stale, so the faulty pass must go remote (or degrade).
            execute_batch(&qp, &batch, &BatchOptions::default()).expect("warm");
            qp.mark_source_stale("warehouse");
            let mut plan = FaultPlan::seeded(42);
            plan.connection_drop = drop_rate;
            plan.transient_query_failure = drop_rate / 2.0;
            sim.set_fault_plan(Some(plan));
            let (res, wall) =
                time_it(|| execute_batch(&qp, &batch, &BatchOptions::default()).expect("batch"));
            out.push(vec![
                format!(
                    "{:.0}% drops{}",
                    drop_rate * 100.0,
                    if resilient { "" } else { ", no resilience" }
                ),
                ms(wall),
                res.results.len().to_string(),
                res.stale.len().to_string(),
                res.failed.len().to_string(),
                qp.stats().transient_retries.to_string(),
            ]);
        }
    }
    print_table(
        "E16 — batch of 8 queries under injected faults: retries + stale serving vs fail-fast",
        &[
            "fault rate",
            "wall ms",
            "rendered",
            "stale",
            "failed",
            "retries",
        ],
        &out,
    );
}

// ---------------------------------------------------------------- E17 ----

/// Sect. 3: where does user response time go? A Fig. 1 dashboard is run
/// cold (everything remote) and warm (everything cached); per-query
/// response-time profiles are aggregated into a stage-level latency
/// breakdown, and the metrics registry is dumped for the CI smoke check.
fn e17_observability() {
    use tabviz::obs::MetricValue;

    let db = faa_db(60_000);
    let (qp, _sim) = processor_over(db, lan_config(), 4);
    let dash = fig1_dashboard("warehouse", "flights");
    let batch = dash.batch(&DashboardState::default(), true);

    let (_cold, cold_wall) =
        time_it(|| execute_batch(&qp, &batch, &BatchOptions::default()).expect("cold"));
    let cold_stats = qp.stats();
    let (_warm, warm_wall) =
        time_it(|| execute_batch(&qp, &batch, &BatchOptions::default()).expect("warm"));
    let warm_stats = qp.stats();

    // Aggregate the per-query traces into a per-stage latency table.
    let profiles = qp.obs.recorder.recent();
    let mut by_stage: std::collections::BTreeMap<&'static str, Vec<Duration>> =
        std::collections::BTreeMap::new();
    for p in &profiles {
        for e in &p.events {
            by_stage.entry(e.stage).or_default().push(e.dur);
        }
    }
    let pct = |durs: &[Duration], q: f64| -> Duration {
        let rank = ((q * durs.len() as f64).ceil() as usize).clamp(1, durs.len());
        durs[rank - 1]
    };
    let stage_stats: Vec<(&'static str, usize, Duration, Duration, Duration)> = by_stage
        .into_iter()
        .map(|(stage, mut durs)| {
            durs.sort();
            let total: Duration = durs.iter().sum();
            let (p50, p95) = (pct(&durs, 0.5), pct(&durs, 0.95));
            (stage, durs.len(), total, p50, p95)
        })
        .collect();
    let mut rows: Vec<(Duration, Vec<String>)> = stage_stats
        .iter()
        .map(|&(stage, count, total, p50, p95)| {
            (
                total,
                vec![
                    stage.to_string(),
                    count.to_string(),
                    ms(total),
                    ms(p50),
                    ms(p95),
                ],
            )
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.0));
    print_table(
        &format!(
            "E17 — stage-level latency breakdown over {} profiled queries (cold {} ms, warm {} ms)",
            profiles.len(),
            ms(cold_wall),
            ms(warm_wall),
        ),
        &["stage", "count", "total ms", "p50 ms", "p95 ms"],
        &rows.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
    );

    // One full per-query timeline, as the profile renderer prints it.
    if let Some(remote) = profiles
        .iter()
        .find(|p| p.outcome == ProfileOutcome::Remote)
    {
        println!("\nsample cold profile:\n{}", remote.render());
    }
    if let Some(hit) = profiles
        .iter()
        .rev()
        .find(|p| p.outcome == ProfileOutcome::Hit)
    {
        println!("sample warm profile:\n{}", hit.render());
    }

    // Machine-checkable summary lines (the CI smoke test greps these).
    let warm_queries =
        (warm_stats.intelligent_hits + warm_stats.literal_hits + warm_stats.remote_queries)
            - (cold_stats.intelligent_hits + cold_stats.literal_hits + cold_stats.remote_queries);
    let warm_hits = (warm_stats.intelligent_hits + warm_stats.literal_hits)
        - (cold_stats.intelligent_hits + cold_stats.literal_hits);
    println!(
        "e17_warm_hit_rate {:.3}",
        warm_hits as f64 / warm_queries.max(1) as f64
    );
    // Stage-latency table in machine form, one line per stage, so CI can
    // assert the breakdown's shape and hold the hot stages to a band.
    for &(stage, count, total, p50, p95) in &stage_stats {
        println!(
            "e17_stage {stage} count={count} total_ms={:.3} p50_ms={:.3} p95_ms={:.3}",
            total.as_secs_f64() * 1e3,
            p50.as_secs_f64() * 1e3,
            p95.as_secs_f64() * 1e3,
        );
    }
    for (name, value) in qp.obs.registry.snapshot() {
        match value {
            MetricValue::Counter(v) => println!("e17_metric {name} {v}"),
            MetricValue::Gauge(v) => println!("e17_metric {name} {v}"),
            MetricValue::Histogram(h) => println!(
                "e17_metric {name} count={} p50us={} p95us={} p99us={}",
                h.count,
                h.p50_micros.unwrap_or(0),
                h.p95_micros.unwrap_or(0),
                h.p99_micros.unwrap_or(0)
            ),
        }
    }
}

// ---------------------------------------------------------------- E18 ----

/// Compression-aware scan path: a selectivity × encoding sweep comparing the
/// decode-everything baseline (no pushdown, no RLE index) against the
/// zone-skipping pushdown scan (RLE index off, isolating zone maps +
/// predicate-on-codes + run kernels) and the full default planner. The
/// carrier filters exercise the dict-rle column (sorted, long runs — zone
/// maps refute most blocks), the dep_hour filters the plain column (no
/// skipping, but rows are still removed before materialization). A second
/// table compares run-granularity aggregation against the streaming and
/// hash aggregates it replaces.
fn e18_zone_skipping() {
    use tabviz::obs::MetricValue;

    let rows = 1_500_000;
    let tde = Tde::new(faa_db(rows));
    let blocks_total = rows.div_ceil(tabviz::storage::BLOCK_ROWS) as u64;

    let counter = |name: &str| -> u64 {
        match tabviz::obs::global().snapshot().get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    };

    let mut baseline = ExecOptions::serial();
    baseline.physical.enable_scan_pushdown = false;
    baseline.physical.enable_rle_index = false;
    let mut zones = ExecOptions::serial();
    zones.physical.enable_rle_index = false;
    let default = ExecOptions::serial();

    // (label, filter, encoding of the filtered column)
    let filters: Vec<(&str, &str, &str)> = vec![
        ("carrier = ZZ", "(= carrier \"ZZ\")", "dict-rle"),
        ("carrier = HA", "(= carrier \"HA\")", "dict-rle"),
        ("carrier = WN", "(= carrier \"WN\")", "dict-rle"),
        (
            "carrier in 4 majors",
            "(in carrier \"WN\" \"DL\" \"AA\" \"UA\")",
            "dict-rle",
        ),
        ("dep_hour >= 18", "(>= dep_hour 18)", "plain"),
        ("dep_hour >= 0", "(>= dep_hour 0)", "plain"),
    ];

    let mut out = Vec::new();
    let mut selective: Option<(u64, f64, f64)> = None; // (skipped, fraction, speedup)
    for (label, filter, codec) in &filters {
        let q = format!("(aggregate () ((count as n)) (select {filter} (scan flights)))");
        let (out_base, t_base) = time_it(|| tde.query_with(&q, &baseline).expect("baseline"));
        let before_skip = counter("tv_tde_blocks_skipped_total");
        let before_pre = counter("tv_tde_rows_prefiltered_total");
        let (out_zone, t_zone) = time_it(|| tde.query_with(&q, &zones).expect("zones"));
        let skipped = counter("tv_tde_blocks_skipped_total") - before_skip;
        let prefiltered = counter("tv_tde_rows_prefiltered_total") - before_pre;
        let (_, t_default) = time_it(|| tde.query_with(&q, &default).expect("default"));
        assert_eq!(
            out_base.row(0)[0],
            out_zone.row(0)[0],
            "arms disagree on {label}"
        );
        let matched = out_zone.row(0)[0].as_int().unwrap_or(0);
        let skip_frac = skipped as f64 / blocks_total as f64;
        let speedup = t_base.as_secs_f64() / t_zone.as_secs_f64().max(1e-9);
        // The most selective non-empty sorted-column point drives the CI
        // regression assertions.
        if *codec == "dict-rle" && matched > 0 && selective.is_none() {
            selective = Some((skipped, skip_frac, speedup));
        }
        out.push(vec![
            label.to_string(),
            codec.to_string(),
            matched.to_string(),
            ms(t_base),
            ms(t_zone),
            ms(t_default),
            format!("{skipped}/{blocks_total}"),
            format!("{:.0}%", skip_frac * 100.0),
            prefiltered.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E18 — zone-map block skipping & predicate pushdown ({rows} rows, sorted by carrier)"
        ),
        &[
            "filter",
            "codec",
            "rows matched",
            "baseline ms",
            "zone+pushdown ms",
            "default ms",
            "blocks skipped",
            "skip %",
            "rows prefiltered",
        ],
        &out,
    );

    // Run-granularity aggregation over the RLE group column: one state
    // update per run instead of per row.
    let q_agg = "(aggregate ((carrier)) ((count as n)) (scan flights))";
    let (_, t_run) = time_it(|| tde.query_with(q_agg, &default).expect("runagg"));
    let mut no_run = ExecOptions::serial();
    no_run.physical.enable_run_agg = false;
    let (_, t_hash) = time_it(|| tde.query_with(q_agg, &no_run).expect("hashagg"));
    print_table(
        "E18 — COUNT(*) by carrier: run-granularity vs row-at-a-time aggregation",
        &["configuration", "wall ms"],
        &[
            vec!["RunAgg (per RLE run)".into(), ms(t_run)],
            vec!["HashAgg (per row)".into(), ms(t_hash)],
        ],
    );

    // Machine-checkable summary lines (the CI smoke test parses these).
    let (skipped, frac, speedup) = selective.expect("a selective dict-rle point must exist");
    println!("e18_blocks_skipped {skipped}");
    println!("e18_skip_fraction {frac:.3}");
    println!("e18_speedup {speedup:.2}");
    println!(
        "e18_runagg_speedup {:.2}",
        t_hash.as_secs_f64() / t_run.as_secs_f64().max(1e-9)
    );
}

// ---------------------------------------------------------------- E19 ----

/// Workload management under overload: a pool of 4 connections serves one
/// interactive analyst while 16 flooder threads (half Batch, half
/// Background) saturate the backend at 4× pool capacity. With the
/// admission scheduler, interactive queries jump the queue and the worst
/// classes are load-shed; with unbounded FIFO everything races the pool
/// and interactive latency collapses to batch latency.
fn e19_overload_scheduling() {
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    const POOL: usize = 4;
    const FLOODERS: usize = 16; // 4× pool capacity
    const PROBES: usize = 40;

    // A small table behind a chatty link: response time is dominated by
    // simulated network/dispatch latency, not local CPU, so the experiment
    // measures queueing policy rather than core contention.
    let db = faa_db(3_000);
    let link = SimConfig {
        latency: LatencyModel {
            connect: Duration::from_millis(20),
            dispatch: Duration::from_millis(20),
            scan_per_kilorow: Duration::from_micros(150),
            transfer_per_kilorow: Duration::from_micros(400),
        },
        ..Default::default()
    };
    // Distinct filter literals so every query — probe or flood — misses the
    // caches and needs backend work (and therefore an admission ticket).
    let flood_seq = AtomicI64::new(1_000_000);
    let probe_spec = |cell: i64, i: i64| {
        QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(bin(
                BinOp::Le,
                col("distance"),
                lit(100_000 + cell * 1000 + i),
            ))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    };
    let flood_spec = |n: i64| {
        QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Ge, col("distance"), lit(n)))
            .group("dep_hour")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    };

    let p95 = |durs: &mut Vec<Duration>| -> Duration {
        durs.sort();
        let rank = ((0.95 * durs.len() as f64).ceil() as usize).clamp(1, durs.len());
        durs[rank - 1]
    };

    // One measurement cell: optionally schedule, optionally flood, probe.
    let run_cell = |cell: i64, scheduled: bool, flooded: bool| {
        let (mut qp, _sim) = processor_over(Arc::clone(&db), link.clone(), POOL);
        if scheduled {
            // Pool-derived concurrency with tighter shed watermarks, so a
            // 4×-capacity flood visibly sheds Background and Batch work,
            // plus one slot held back for interactive arrivals.
            let mut cfg = SchedConfig::for_pool_capacity(POOL);
            cfg.shed_depth = [16 * POOL, POOL, POOL / 2];
            cfg.reserve_interactive = 1;
            qp.set_scheduler(Arc::new(Scheduler::new(cfg)));
        }
        // Open every pooled connection up front so no measured probe pays
        // the one-time connect cost (it would otherwise land in the p95 of
        // whichever cell happened to dial more connections).
        std::thread::scope(|s| {
            for w in 0..POOL {
                let qp = &qp;
                s.spawn(move || {
                    let req = AdmitRequest::interactive("warmup");
                    qp.execute_as(&probe_spec(cell, 10_000 + w as i64), &req)
                        .expect("warmup probe");
                });
            }
        });
        let stop = AtomicBool::new(false);
        let mut lat = Vec::with_capacity(PROBES);
        std::thread::scope(|s| {
            if flooded {
                for f in 0..FLOODERS {
                    let qp = &qp;
                    let stop = &stop;
                    let flood_seq = &flood_seq;
                    let req = if f % 2 == 0 {
                        AdmitRequest::batch(format!("etl-{f}"))
                    } else {
                        AdmitRequest::background(format!("prefetch-{f}"))
                    };
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            let n = flood_seq.fetch_add(1, Ordering::Relaxed);
                            if qp.execute_as(&flood_spec(n), &req).is_err() {
                                // Load-shed: back off instead of hammering
                                // the admission gate in a hot loop.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    });
                }
                // Let the flood reach a steady state before probing.
                std::thread::sleep(Duration::from_millis(50));
            }
            let analyst = AdmitRequest::interactive("analyst");
            for i in 0..PROBES {
                let (r, wall) = time_it(|| qp.execute_as(&probe_spec(cell, i as i64), &analyst));
                r.expect("interactive probe");
                lat.push(wall);
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.store(true, Ordering::Relaxed);
        });
        let sheds = qp
            .scheduler()
            .map(|sch| sch.stats())
            .map(|st| {
                [
                    st.shed[Priority::Background.idx()]
                        + st.deadline_shed[Priority::Background.idx()],
                    st.shed[Priority::Batch.idx()] + st.deadline_shed[Priority::Batch.idx()],
                    st.shed[Priority::Interactive.idx()]
                        + st.deadline_shed[Priority::Interactive.idx()],
                ]
            })
            .unwrap_or([0, 0, 0]);
        (p95(&mut lat), sheds)
    };

    let (unloaded_p95, _) = run_cell(0, true, false);
    let (sched_p95, sched_sheds) = run_cell(1, true, true);
    let (fifo_p95, _) = run_cell(2, false, true);

    let ratio = sched_p95.as_secs_f64() / unloaded_p95.as_secs_f64().max(1e-9);
    let fifo_ratio = fifo_p95.as_secs_f64() / unloaded_p95.as_secs_f64().max(1e-9);
    print_table(
        &format!(
            "E19 — interactive p95 over {PROBES} probes, pool of {POOL}, {FLOODERS} flooder threads"
        ),
        &["mode", "p95 ms", "vs unloaded", "sheds bg/batch/int"],
        &[
            vec![
                "unloaded + scheduler".into(),
                ms(unloaded_p95),
                "1.00x".into(),
                "-".into(),
            ],
            vec![
                "4x overload + scheduler".into(),
                ms(sched_p95),
                format!("{ratio:.2}x"),
                format!("{}/{}/{}", sched_sheds[0], sched_sheds[1], sched_sheds[2]),
            ],
            vec![
                "4x overload, unbounded FIFO".into(),
                ms(fifo_p95),
                format!("{fifo_ratio:.2}x"),
                "-".into(),
            ],
        ],
    );

    // Machine-checkable summary lines (the CI smoke test parses these).
    println!("e19_unloaded_p95_ms {}", ms(unloaded_p95));
    println!("e19_sched_p95_ms {}", ms(sched_p95));
    println!("e19_fifo_p95_ms {}", ms(fifo_p95));
    println!("e19_p95_ratio {ratio:.2}");
    println!("e19_fifo_ratio {fifo_ratio:.2}");
    println!("e19_sheds_background {}", sched_sheds[0]);
    println!("e19_sheds_batch {}", sched_sheds[1]);
    println!("e19_sheds_interactive {}", sched_sheds[2]);
}

// ---------------------------------------------------------------- E20 ----

/// Flight-recorder overhead: the e17 dashboard workload with trace capture
/// on (every query assembled into the recorder) versus globally off (spans
/// record nothing). The paper's observability bar:
/// always-on diagnostics must not move user response times, so the warm
/// per-render p50 with the recorder on is held within a few percent of the
/// off arm. Also smoke-checks that the slowest captured trace exports as a
/// valid Chrome trace_event document.
fn e20_flight_recorder_overhead() {
    const RENDERS: usize = 40;

    // One arm of the experiment: render the Fig. 1 dashboard cold, then
    // `RENDERS` warm repeats (all cache hits — the latency floor where
    // recorder overhead is proportionally largest), timing each repeat.
    let run_arm = |capture: bool| -> (Duration, QueryProcessor) {
        tabviz::obs::trace::set_capture(capture);
        let db = faa_db(60_000);
        let (qp, _sim) = processor_over(db, lan_config(), 4);
        let dash = fig1_dashboard("warehouse", "flights");
        let batch = dash.batch(&DashboardState::default(), true);
        execute_batch(&qp, &batch, &BatchOptions::default()).expect("cold render");
        let mut walls: Vec<Duration> = (0..RENDERS)
            .map(|_| {
                time_it(|| execute_batch(&qp, &batch, &BatchOptions::default()).expect("warm")).1
            })
            .collect();
        walls.sort();
        (walls[walls.len() / 2], qp)
    };

    let (p50_off, qp_off) = run_arm(false);
    let (p50_on, qp_on) = run_arm(true);
    tabviz::obs::trace::set_capture(true); // leave the global default intact

    let ratio = p50_on.as_secs_f64() / p50_off.as_secs_f64().max(1e-9);
    print_table(
        &format!("E20 — flight recorder overhead, warm p50 over {RENDERS} dashboard renders"),
        &["arm", "warm p50 ms", "traces", "recorder KiB", "evictions"],
        &[
            vec![
                "capture off".into(),
                ms(p50_off),
                qp_off.obs.recorder.len().to_string(),
                (qp_off.obs.recorder.bytes() / 1024).to_string(),
                qp_off.obs.recorder.evictions().to_string(),
            ],
            vec![
                "capture on".into(),
                ms(p50_on),
                qp_on.obs.recorder.len().to_string(),
                (qp_on.obs.recorder.bytes() / 1024).to_string(),
                qp_on.obs.recorder.evictions().to_string(),
            ],
        ],
    );

    // The recorder actually captured the on-arm; the off-arm stayed empty.
    assert!(!qp_on.obs.recorder.is_empty(), "on arm must record traces");
    assert_eq!(qp_off.obs.recorder.len(), 0, "off arm must record nothing");

    // Export the slowest captured query and validate it against the Chrome
    // trace_event schema (the same check CI runs on the printed document).
    let slowest = &qp_on.obs.recorder.slowest(1)[0];
    let doc = tabviz::obs::to_chrome_trace(slowest);
    let valid = tabviz::obs::validate_chrome_trace(&doc).is_ok();
    println!(
        "\nslowest captured query: {} ({} events, {} lanes)",
        ms(slowest.total),
        slowest.events.len(),
        slowest.lanes().len()
    );
    println!("\ndiagnostics excerpt:");
    for line in qp_on.obs.recorder.slowest(3).iter().map(|t| {
        format!(
            "  {} {} [{}]",
            ms(t.total),
            t.outcome,
            t.reasons().join(",")
        )
    }) {
        println!("{line}");
    }

    // Machine-checkable summary lines (the CI smoke test parses these).
    println!("e20_p50_on_ms {}", ms(p50_on));
    println!("e20_p50_off_ms {}", ms(p50_off));
    println!("e20_p50_overhead_ratio {ratio:.3}");
    println!("e20_recorder_traces {}", qp_on.obs.recorder.len());
    println!("e20_recorder_bytes {}", qp_on.obs.recorder.bytes());
    println!("e20_recorder_evictions {}", qp_on.obs.recorder.evictions());
    println!("e20_chrome_trace_valid {}", u32::from(valid));
}

// ---------------------------------------------------------------- E21 ----

/// Sharded multi-node Data Server under a seeded Zipf storm. A 4-node
/// cluster (consistent-hash routing, session affinity, the replicated peer
/// tier as every node's L2) serves an open-loop traffic schedule twice: once
/// healthy, once with the busiest node killed mid-storm and revived later. Reports
/// per-class latency percentiles, shed rate, per-node balance and failover
/// recovery, and emits `BENCH_cluster.json` so the perf trajectory is
/// tracked across PRs. The acceptance bar: the kill run completes every
/// arrival and keeps interactive p95 within 3× of the healthy run.
fn e21_cluster_storm() {
    use std::sync::mpsc;
    use std::time::Instant;
    use tabviz::cluster::{Cluster, ClusterConfig, ClusterSession, RouteKind};
    use tabviz::workloads::{generate_storm, schedule_digest, storm_stats, StormConfig, StormStep};

    const NODES: usize = 4;
    const DASHBOARDS: usize = 40;
    const USERS: u32 = 4;
    const WORKERS: usize = 8;
    const SPEED: u64 = 4; // virtual ms per real ms
    const SEED: u64 = 42;

    let db = faa_db(8_000);
    let storm = StormConfig {
        sessions: 240,
        dashboards: DASHBOARDS,
        zipf_s: 1.1,
        horizon_ms: 4_000,
        diurnal_amplitude: 0.5,
        steps_per_session: 3,
        mean_think_ms: 250.0,
        seed: SEED,
    };
    let schedule = generate_storm(&storm);
    let digest = schedule_digest(&schedule);
    let stats = storm_stats(&storm, &schedule);
    let kill_at_ms = storm.at_fraction(2, 5);
    let revive_at_ms = storm.at_fraction(3, 4);

    let build_cluster = || -> Arc<Cluster> {
        let db = Arc::clone(&db);
        Cluster::build(
            ClusterConfig {
                nodes: NODES,
                replication: 2,
                vnodes: 64,
                seed: SEED,
                peer_op_latency: Duration::from_micros(200),
            },
            move |name| {
                let sim = SimDb::new("warehouse", Arc::clone(&db), lan_config());
                let qp = QueryProcessor::default();
                qp.registry.register(Arc::new(sim), 4);
                let server = Arc::new(DataServer::named(qp, name));
                for d in 0..DASHBOARDS {
                    server.publish(PublishedSource::new(
                        format!("dash-{d}"),
                        "warehouse",
                        LogicalPlan::scan("flights"),
                    ));
                }
                Ok(server)
            },
        )
        .expect("cluster build")
    };

    let count = || AggCall::new(AggFunc::Count, None, "n");
    let query_for = |kind: &StormStep| -> (ClientQuery, &'static str) {
        let dims = ["carrier", "dep_hour", "origin_state", "weekday"];
        match kind {
            StormStep::Load => (
                ClientQuery {
                    group_by: vec!["carrier".into()],
                    aggs: vec![count()],
                    ..Default::default()
                },
                "load",
            ),
            StormStep::Drill { dimension } => (
                ClientQuery {
                    group_by: vec![dims[*dimension as usize % dims.len()].into()],
                    aggs: vec![count()],
                    ..Default::default()
                },
                "drill",
            ),
            StormStep::Filter { selector } => (
                ClientQuery {
                    filters: vec![bin(
                        BinOp::Le,
                        col("distance"),
                        lit(200 + (*selector as i64 % 2200)),
                    )],
                    group_by: vec!["carrier".into()],
                    aggs: vec![count()],
                    ..Default::default()
                },
                "filter",
            ),
            StormStep::TopN { n } => (
                ClientQuery {
                    group_by: vec!["market".into()],
                    aggs: vec![count()],
                    order: vec![SortKey {
                        column: "n".into(),
                        asc: false,
                    }],
                    topn: Some(*n as usize),
                    ..Default::default()
                },
                "topn",
            ),
        }
    };

    struct Done {
        finished: Instant,
        class: &'static str,
        node: String,
        failover: bool,
        ok: bool,
        wall: Duration,
    }

    // Replay the schedule open-loop against one cluster; optionally kill
    // the victim node mid-storm and revive it later.
    let run_storm = |cluster: &Arc<Cluster>,
                     victim: Option<&str>|
     -> (Vec<Done>, Option<Instant>, Option<Instant>) {
        let sessions: parking_lot::Mutex<std::collections::HashMap<u32, Arc<ClusterSession>>> =
            parking_lot::Mutex::new(std::collections::HashMap::new());
        let done: parking_lot::Mutex<Vec<Done>> = parking_lot::Mutex::new(Vec::new());
        let (tx, rx) = mpsc::channel::<usize>();
        let rx = parking_lot::Mutex::new(rx);
        let mut killed_at: Option<Instant> = None;
        let mut revived_at: Option<Instant> = None;
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                let rx = &rx;
                let sessions = &sessions;
                let done = &done;
                let schedule = &schedule;
                s.spawn(move || loop {
                    let idx = { rx.lock().recv() };
                    let Ok(idx) = idx else { break };
                    let a = &schedule[idx];
                    let session = {
                        let mut map = sessions.lock();
                        if let Some(sess) = map.get(&a.session) {
                            Arc::clone(sess)
                        } else {
                            let user = format!("viewer-{}", a.session % USERS);
                            let sess = Arc::new(
                                cluster
                                    .open_session(&format!("dash-{}", a.dashboard), user)
                                    .expect("open session"),
                            );
                            map.insert(a.session, Arc::clone(&sess));
                            sess
                        }
                    };
                    let (query, class) = query_for(&a.kind);
                    let t0 = Instant::now();
                    let result = session.query(&query);
                    let wall = t0.elapsed();
                    let (node, failover, ok) = match &result {
                        Ok(r) => (r.node.clone(), r.route != RouteKind::Primary, true),
                        Err(_) => (String::new(), false, false),
                    };
                    done.lock().push(Done {
                        finished: Instant::now(),
                        class,
                        node,
                        failover,
                        ok,
                        wall,
                    });
                });
            }
            // Open-loop dispatcher: fire each arrival at its virtual time.
            let t_start = Instant::now();
            for (idx, a) in schedule.iter().enumerate() {
                let target = t_start + Duration::from_millis(a.at_ms / SPEED);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                if let Some(victim) = victim {
                    if killed_at.is_none() && a.at_ms >= kill_at_ms {
                        cluster.kill(victim);
                        killed_at = Some(Instant::now());
                    }
                    if killed_at.is_some() && revived_at.is_none() && a.at_ms >= revive_at_ms {
                        cluster.revive(victim);
                        revived_at = Some(Instant::now());
                    }
                }
                tx.send(idx).expect("dispatch");
            }
            drop(tx);
        });
        (done.into_inner(), killed_at, revived_at)
    };

    let pct = |durs: &mut Vec<Duration>, q: f64| -> Duration {
        if durs.is_empty() {
            return Duration::ZERO;
        }
        durs.sort();
        let rank = ((q * durs.len() as f64).ceil() as usize).clamp(1, durs.len());
        durs[rank - 1]
    };

    // Healthy run.
    let healthy = build_cluster();
    let (healthy_done, _, _) = run_storm(&healthy, None);
    let mut healthy_lat: Vec<Duration> = healthy_done
        .iter()
        .filter(|d| d.ok)
        .map(|d| d.wall)
        .collect();
    let healthy_p95 = pct(&mut healthy_lat, 0.95);

    // Kill run: take down the node carrying the most traffic in the
    // healthy run, mid-storm, and bring it back before the tail.
    let mut by_node: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for d in &healthy_done {
        *by_node.entry(d.node.as_str()).or_insert(0) += 1;
    }
    let victim = by_node
        .iter()
        .max_by_key(|(name, n)| (**n, std::cmp::Reverse(**name)))
        .map(|(name, _)| name.to_string())
        .expect("healthy run routed traffic");
    let kill_cluster = build_cluster();
    let (kill_done, killed_at, revived_at) = run_storm(&kill_cluster, Some(&victim));

    // Per-class percentiles from the kill run (the tracked numbers — they
    // include the outage window).
    let classes = ["load", "drill", "filter", "topn"];
    let mut class_rows: Vec<Vec<String>> = Vec::new();
    let mut class_json = String::new();
    for class in classes {
        let mut lat: Vec<Duration> = kill_done
            .iter()
            .filter(|d| d.ok && d.class == class)
            .map(|d| d.wall)
            .collect();
        let n = lat.len();
        let (p50, p95, p99) = (pct(&mut lat, 0.5), pct(&mut lat, 0.95), pct(&mut lat, 0.99));
        class_rows.push(vec![class.into(), n.to_string(), ms(p50), ms(p95), ms(p99)]);
        class_json.push_str(&format!(
            "    \"{class}\": {{\"count\": {n}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}},\n",
            ms(p50),
            ms(p95),
            ms(p99)
        ));
    }

    let completed = kill_done.iter().filter(|d| d.ok).count();
    let errors = kill_done.len() - completed;
    let shed_rate = errors as f64 / kill_done.len().max(1) as f64;
    let mut kill_lat: Vec<Duration> = kill_done.iter().filter(|d| d.ok).map(|d| d.wall).collect();
    let kill_p95 = pct(&mut kill_lat, 0.95);
    let p95_ratio = kill_p95.as_secs_f64() / healthy_p95.as_secs_f64().max(1e-9);
    let failovers = kill_done.iter().filter(|d| d.failover).count();

    // Failover reaction: first successful non-primary serve after the kill.
    let failover_first_ms = killed_at
        .and_then(|k| {
            kill_done
                .iter()
                .filter(|d| d.ok && d.failover && d.finished > k)
                .map(|d| d.finished - k)
                .min()
        })
        .map(|d| d.as_secs_f64() * 1e3);
    // Recovery: the revived victim serving queries again.
    let recovery_ms = revived_at
        .and_then(|r| {
            kill_done
                .iter()
                .filter(|d| d.ok && d.node == victim && d.finished > r)
                .map(|d| d.finished - r)
                .min()
        })
        .map(|d| d.as_secs_f64() * 1e3);

    // Per-node balance over the healthy run (routed serves per node).
    let mut balance: Vec<(String, u64)> = healthy
        .nodes()
        .iter()
        .map(|n| (n.name.clone(), *by_node.get(n.name.as_str()).unwrap_or(&0)))
        .collect();
    balance.sort();
    let max_routed = balance.iter().map(|(_, n)| *n).max().unwrap_or(0);
    let mean_routed =
        balance.iter().map(|(_, n)| *n).sum::<u64>() as f64 / balance.len().max(1) as f64;
    let balance_ratio = max_routed as f64 / mean_routed.max(1e-9);

    let peer = kill_cluster.peer_stats();
    let peer_hit_rate =
        (peer.primary_hits + peer.replica_hits) as f64 / (peer.gets as f64).max(1.0);

    print_table(
        &format!(
            "E21 — {NODES}-node cluster, {} arrivals ({} sessions, top-1% share {:.2}), kill {victim} at {kill_at_ms}ms",
            schedule.len(),
            storm.sessions,
            stats.top1pct_share,
        ),
        &["class", "n", "p50 ms", "p95 ms", "p99 ms"],
        &class_rows,
    );
    print_table(
        "E21 — healthy-run balance (routed serves per node)",
        &["node", "routed"],
        &balance
            .iter()
            .map(|(n, c)| vec![n.clone(), c.to_string()])
            .collect::<Vec<_>>(),
    );

    let json = format!(
        "{{\n  \"experiment\": \"e21_cluster_storm\",\n  \"nodes\": {NODES},\n  \"replication\": 2,\n  \"seed\": {SEED},\n  \"schedule_digest\": \"{digest:016x}\",\n  \"arrivals\": {},\n  \"sessions\": {},\n  \"completed\": {completed},\n  \"errors\": {errors},\n  \"shed_rate\": {shed_rate:.4},\n  \"classes\": {{\n{}    \"all\": {{\"count\": {completed}, \"p95_ms\": {}}}\n  }},\n  \"healthy_p95_ms\": {},\n  \"kill_p95_ms\": {},\n  \"p95_ratio\": {p95_ratio:.2},\n  \"victim\": \"{victim}\",\n  \"kill_at_ms\": {kill_at_ms},\n  \"revive_at_ms\": {revive_at_ms},\n  \"failovers\": {failovers},\n  \"failover_first_ms\": {},\n  \"recovery_ms\": {},\n  \"balance_ratio\": {balance_ratio:.2},\n  \"per_node_routed\": {{{}}},\n  \"peer\": {{\"gets\": {}, \"primary_hits\": {}, \"replica_hits\": {}, \"misses\": {}, \"hit_rate\": {peer_hit_rate:.3}}}\n}}\n",
        schedule.len(),
        storm.sessions,
        class_json,
        ms(kill_p95),
        ms(healthy_p95),
        ms(kill_p95),
        failover_first_ms.map_or("null".into(), |v| format!("{v:.2}")),
        recovery_ms.map_or("null".into(), |v| format!("{v:.2}")),
        balance
            .iter()
            .map(|(n, c)| format!("\"{n}\": {c}"))
            .collect::<Vec<_>>()
            .join(", "),
        peer.gets,
        peer.primary_hits,
        peer.replica_hits,
        peer.misses,
    );
    std::fs::write("BENCH_cluster.json", &json).expect("write BENCH_cluster.json");

    // Machine-checkable summary lines (the CI smoke test parses these).
    println!("e21_arrivals {}", schedule.len());
    println!("e21_completed {completed}");
    println!("e21_errors {errors}");
    println!("e21_shed_rate {shed_rate:.4}");
    println!("e21_healthy_p95_ms {}", ms(healthy_p95));
    println!("e21_kill_p95_ms {}", ms(kill_p95));
    println!("e21_p95_ratio {p95_ratio:.2}");
    println!("e21_failovers {failovers}");
    println!(
        "e21_failover_first_ms {}",
        failover_first_ms.map_or("-1".into(), |v| format!("{v:.2}"))
    );
    println!(
        "e21_recovery_ms {}",
        recovery_ms.map_or("-1".into(), |v| format!("{v:.2}"))
    );
    println!("e21_balance_ratio {balance_ratio:.2}");
    println!("e21_peer_hit_rate {peer_hit_rate:.3}");
    println!("e21_schedule_digest {digest:016x}");
    println!("e21_json_emitted 1");
}

// ---------------------------------------------------------------- E22 ----

/// Brown-out SLO drill: the e21 storm again, but instead of killing the
/// busiest node we make its backend 150ms-slow mid-storm (it keeps
/// answering — the failure mode hard kills don't cover). The run asserts
/// the full SLO plane end to end: the EWMA health scorer demotes the sick
/// node from latency alone, health-aware routing steers sessions around it
/// (keeping cluster p95 near the healthy baseline), the burn-rate tracker
/// fires exactly the latency objective, and once the fault clears sparse
/// probes restore the node. Emits `e22_*` machine lines for CI bands.
fn e22_slo_brownout() {
    use std::sync::mpsc;
    use std::time::Instant;
    use tabviz::cluster::{Cluster, ClusterConfig, ClusterSession, RouteKind};
    use tabviz::obs::{Objective, SloConfig};
    use tabviz::workloads::{generate_storm, schedule_digest, StormConfig, StormStep};

    const NODES: usize = 4;
    const DASHBOARDS: usize = 40;
    const USERS: u32 = 4;
    const WORKERS: usize = 16;
    const SPEED: u64 = 4; // virtual ms per real ms
    const SEED: u64 = 42;
    const BROWNOUT_DELAY: Duration = Duration::from_millis(150);

    let db = faa_db(8_000);
    let storm = StormConfig {
        sessions: 240,
        dashboards: DASHBOARDS,
        zipf_s: 1.1,
        horizon_ms: 4_000,
        diurnal_amplitude: 0.5,
        steps_per_session: 3,
        mean_think_ms: 250.0,
        seed: SEED,
    };
    let schedule = generate_storm(&storm);
    let digest = schedule_digest(&schedule);
    let fault_at_ms = storm.at_fraction(3, 10);
    let clear_at_ms = storm.at_fraction(11, 20);

    // The factory stashes each node's SimDb so the dispatcher can flip the
    // victim's fault plan at runtime.
    type DbMap = parking_lot::Mutex<std::collections::HashMap<String, Arc<SimDb>>>;
    let build_cluster = |dbs: &Arc<DbMap>| -> Arc<Cluster> {
        let db = Arc::clone(&db);
        let dbs = Arc::clone(dbs);
        Cluster::build(
            ClusterConfig {
                nodes: NODES,
                replication: 2,
                vnodes: 64,
                seed: SEED,
                peer_op_latency: Duration::from_micros(200),
            },
            move |name| {
                let sim = Arc::new(SimDb::new("warehouse", Arc::clone(&db), lan_config()));
                dbs.lock().insert(name.to_string(), Arc::clone(&sim));
                let qp = QueryProcessor::default();
                qp.registry.register(Arc::clone(&sim) as Arc<_>, 4);
                let server = Arc::new(DataServer::named(qp, name));
                for d in 0..DASHBOARDS {
                    server.publish(PublishedSource::new(
                        format!("dash-{d}"),
                        "warehouse",
                        LogicalPlan::scan("flights"),
                    ));
                }
                Ok(server)
            },
        )
        .expect("cluster build")
    };

    let count = || AggCall::new(AggFunc::Count, None, "n");
    let query_for = |kind: &StormStep| -> (ClientQuery, &'static str) {
        let dims = ["carrier", "dep_hour", "origin_state", "weekday"];
        match kind {
            StormStep::Load => (
                ClientQuery {
                    group_by: vec!["carrier".into()],
                    aggs: vec![count()],
                    ..Default::default()
                },
                "load",
            ),
            StormStep::Drill { dimension } => (
                ClientQuery {
                    group_by: vec![dims[*dimension as usize % dims.len()].into()],
                    aggs: vec![count()],
                    ..Default::default()
                },
                "drill",
            ),
            StormStep::Filter { selector } => (
                ClientQuery {
                    filters: vec![bin(
                        BinOp::Le,
                        col("distance"),
                        lit(200 + (*selector as i64 % 2200)),
                    )],
                    group_by: vec!["carrier".into()],
                    aggs: vec![count()],
                    ..Default::default()
                },
                "filter",
            ),
            StormStep::TopN { n } => (
                ClientQuery {
                    group_by: vec!["market".into()],
                    aggs: vec![count()],
                    order: vec![SortKey {
                        column: "n".into(),
                        asc: false,
                    }],
                    topn: Some(*n as usize),
                    ..Default::default()
                },
                "topn",
            ),
        }
    };

    struct Done {
        node: String,
        failover: bool,
        ok: bool,
        wall: Duration,
    }

    struct BrownoutMarks {
        faulted_at: Option<Instant>,
        cleared_at: Option<Instant>,
        demoted_at: Option<Instant>,
        restored_at: Option<Instant>,
        flaps: u32,
    }

    // Replay the schedule open-loop; optionally brown out the victim's
    // backend mid-storm, watching its routing state from the dispatcher.
    let run_storm = |cluster: &Arc<Cluster>,
                     dbs: &Arc<DbMap>,
                     victim: Option<&str>|
     -> (Vec<Done>, BrownoutMarks) {
        let sessions: parking_lot::Mutex<std::collections::HashMap<u32, Arc<ClusterSession>>> =
            parking_lot::Mutex::new(std::collections::HashMap::new());
        let done: parking_lot::Mutex<Vec<Done>> = parking_lot::Mutex::new(Vec::new());
        let (tx, rx) = mpsc::channel::<usize>();
        let rx = parking_lot::Mutex::new(rx);
        let mut marks = BrownoutMarks {
            faulted_at: None,
            cleared_at: None,
            demoted_at: None,
            restored_at: None,
            flaps: 0,
        };
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                let rx = &rx;
                let sessions = &sessions;
                let done = &done;
                let schedule = &schedule;
                s.spawn(move || loop {
                    let idx = { rx.lock().recv() };
                    let Ok(idx) = idx else { break };
                    let a = &schedule[idx];
                    let session = {
                        let mut map = sessions.lock();
                        if let Some(sess) = map.get(&a.session) {
                            Arc::clone(sess)
                        } else {
                            let user = format!("viewer-{}", a.session % USERS);
                            let sess = Arc::new(
                                cluster
                                    .open_session(&format!("dash-{}", a.dashboard), user)
                                    .expect("open session"),
                            );
                            map.insert(a.session, Arc::clone(&sess));
                            sess
                        }
                    };
                    let (query, _class) = query_for(&a.kind);
                    let t0 = Instant::now();
                    let result = session.query(&query);
                    let wall = t0.elapsed();
                    let (node, failover, ok) = match &result {
                        Ok(r) => (r.node.clone(), r.route != RouteKind::Primary, true),
                        Err(_) => (String::new(), false, false),
                    };
                    done.lock().push(Done {
                        node,
                        failover,
                        ok,
                        wall,
                    });
                });
            }
            // Open-loop dispatcher: fire arrivals at their virtual times,
            // flipping the victim's fault plan and watching its health
            // state as a sideline.
            let t_start = Instant::now();
            let mut was_demoted = false;
            for (idx, a) in schedule.iter().enumerate() {
                let target = t_start + Duration::from_millis(a.at_ms / SPEED);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                if let Some(victim) = victim {
                    if marks.faulted_at.is_none() && a.at_ms >= fault_at_ms {
                        dbs.lock()[victim].set_fault_plan(Some(FaultPlan {
                            slow_query: 1.0,
                            slow_query_delay: BROWNOUT_DELAY,
                            ..Default::default()
                        }));
                        marks.faulted_at = Some(Instant::now());
                    }
                    if marks.faulted_at.is_some()
                        && marks.cleared_at.is_none()
                        && a.at_ms >= clear_at_ms
                    {
                        dbs.lock()[victim].set_fault_plan(None);
                        marks.cleared_at = Some(Instant::now());
                    }
                    let demoted = cluster
                        .node(victim)
                        .map(|n| n.is_demoted())
                        .unwrap_or(false);
                    if demoted != was_demoted {
                        marks.flaps += 1;
                        was_demoted = demoted;
                        if demoted && marks.demoted_at.is_none() {
                            marks.demoted_at = Some(Instant::now());
                        }
                        if !demoted && marks.cleared_at.is_some() && marks.restored_at.is_none() {
                            marks.restored_at = Some(Instant::now());
                        }
                    }
                }
                tx.send(idx).expect("dispatch");
            }
            drop(tx);
        });
        (done.into_inner(), marks)
    };

    let pct = |durs: &mut Vec<Duration>, q: f64| -> Duration {
        if durs.is_empty() {
            return Duration::ZERO;
        }
        durs.sort();
        let rank = ((q * durs.len() as f64).ceil() as usize).clamp(1, durs.len());
        durs[rank - 1]
    };

    // Calibration run: healthy baseline p95 and the victim (busiest node).
    let healthy_dbs: Arc<DbMap> = Arc::new(parking_lot::Mutex::new(Default::default()));
    let healthy = build_cluster(&healthy_dbs);
    let (healthy_done, _) = run_storm(&healthy, &healthy_dbs, None);
    let mut healthy_lat: Vec<Duration> = healthy_done
        .iter()
        .filter(|d| d.ok)
        .map(|d| d.wall)
        .collect();
    let healthy_p95 = pct(&mut healthy_lat, 0.95);
    let mut by_node: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for d in &healthy_done {
        *by_node.entry(d.node.as_str()).or_insert(0) += 1;
    }
    let victim = by_node
        .iter()
        .max_by_key(|(name, n)| (**n, std::cmp::Reverse(**name)))
        .map(|(name, _)| name.to_string())
        .expect("healthy run routed traffic");

    // Brown-out run: fresh cluster with SLO objectives scaled to this
    // machine's healthy baseline. The latency bound sits at 1.5× healthy
    // p95 so the natural tail burns ~1× budget (under the fire threshold)
    // and the 150ms brown-out burns far past it.
    let bound_micros = ((healthy_p95.as_micros() as u64 * 3) / 2).clamp(8_000, 60_000);
    let dbs: Arc<DbMap> = Arc::new(parking_lot::Mutex::new(Default::default()));
    let cluster = build_cluster(&dbs);
    cluster.configure_slo(
        SloConfig {
            bucket_ms: 50,
            fast_window_ms: 200,
            slow_window_ms: 300,
            // The natural tail above the 1.5x-p95 bound burns ~0.5x budget;
            // the brown-out burns 1.5-3x. Firing at 1.25 keeps a wide margin
            // on both sides even when a loaded host inflates the calibration.
            fire_burn: 1.25,
            clear_burn: 0.9,
            min_events: 8,
        },
        vec![
            Objective::latency_p95("interactive_p95", bound_micros),
            Objective::availability("availability", 0.999),
            Objective::degraded_fraction("degraded", 0.05),
        ],
    );
    let (done, marks) = run_storm(&cluster, &dbs, Some(&victim));

    let completed = done.iter().filter(|d| d.ok).count();
    let errors = done.len() - completed;
    let mut lat: Vec<Duration> = done.iter().filter(|d| d.ok).map(|d| d.wall).collect();
    let brownout_p95 = pct(&mut lat, 0.95);
    let p95_ratio = brownout_p95.as_secs_f64() / healthy_p95.as_secs_f64().max(1e-9);
    let reroutes = done
        .iter()
        .filter(|d| d.ok && d.failover && d.node != victim)
        .count();

    let demote_ms = match (marks.faulted_at, marks.demoted_at) {
        (Some(f), Some(d)) => Some((d - f).as_secs_f64() * 1e3),
        _ => None,
    };
    let restore_ms = match (marks.cleared_at, marks.restored_at) {
        (Some(c), Some(r)) => Some((r - c).as_secs_f64() * 1e3),
        _ => None,
    };

    // SLO verdicts: lifetime fire counts per objective after the storm.
    let fired: std::collections::HashMap<&str, u64> = cluster
        .slo_status()
        .into_iter()
        .map(|s| (s.name, s.times_fired))
        .collect();
    let latency_alerts = *fired.get("interactive_p95").unwrap_or(&0);
    let availability_alerts = *fired.get("availability").unwrap_or(&0);
    let degraded_alerts = *fired.get("degraded").unwrap_or(&0);

    // Exercise the federation + diagnostics surface the operator would use.
    let metrics = cluster.metrics_text();
    let node_series = metrics.lines().filter(|l| l.contains("node=\"")).count();
    let diag = cluster.diagnostics_report(3);

    let health_rows: Vec<Vec<String>> = cluster
        .health_scores()
        .into_iter()
        .map(|(name, score, state)| {
            vec![
                name.clone(),
                format!("{score:.1}"),
                format!("{state:?}"),
                if name == victim {
                    "victim".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    print_table(
        &format!(
            "E22 — brown-out {victim} at {fault_at_ms}ms ({}ms backend delay), clear at {clear_at_ms}ms",
            BROWNOUT_DELAY.as_millis()
        ),
        &["node", "health", "state", ""],
        &health_rows,
    );
    print_table(
        "E22 — SLO objectives after the storm",
        &["objective", "fired", "firing"],
        &cluster
            .slo_status()
            .into_iter()
            .map(|s| {
                vec![
                    s.name.to_string(),
                    s.times_fired.to_string(),
                    s.firing.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n{diag}");

    // Machine-readable report for the trend sentinel (same contract as
    // BENCH_cluster.json: identity keys exact, *_ms banded, errors bounded).
    let json = format!(
        "{{\n  \"experiment\": \"e22_slo_brownout\",\n  \"nodes\": {NODES},\n  \"seed\": {SEED},\n  \"schedule_digest\": \"{digest:016x}\",\n  \"arrivals\": {},\n  \"completed\": {completed},\n  \"errors\": {errors},\n  \"victim\": \"{victim}\",\n  \"healthy_p95_ms\": {},\n  \"brownout_p95_ms\": {},\n  \"p95_ratio\": {p95_ratio:.2},\n  \"slo_bound_ms\": {:.2},\n  \"demoted\": {},\n  \"demote_ms\": {},\n  \"restored\": {},\n  \"restore_ms\": {},\n  \"flaps\": {},\n  \"reroutes\": {reroutes},\n  \"latency_alerts\": {latency_alerts},\n  \"availability_alerts\": {availability_alerts},\n  \"degraded_alerts\": {degraded_alerts},\n  \"metrics_node_series\": {node_series},\n  \"diag_bytes\": {}\n}}\n",
        schedule.len(),
        ms(healthy_p95),
        ms(brownout_p95),
        bound_micros as f64 / 1e3,
        u32::from(marks.demoted_at.is_some()),
        demote_ms.map_or("null".into(), |v| format!("{v:.2}")),
        u32::from(marks.restored_at.is_some()),
        restore_ms.map_or("null".into(), |v| format!("{v:.2}")),
        marks.flaps,
        diag.len(),
    );
    std::fs::write("BENCH_slo.json", &json).expect("write BENCH_slo.json");

    println!("e22_arrivals {}", schedule.len());
    println!("e22_completed {completed}");
    println!("e22_errors {errors}");
    println!("e22_victim {victim}");
    println!("e22_healthy_p95_ms {}", ms(healthy_p95));
    println!("e22_brownout_p95_ms {}", ms(brownout_p95));
    println!("e22_p95_ratio {p95_ratio:.2}");
    println!("e22_slo_bound_ms {:.2}", bound_micros as f64 / 1e3);
    println!("e22_demoted {}", u32::from(marks.demoted_at.is_some()));
    println!(
        "e22_demote_ms {}",
        demote_ms.map_or("-1".into(), |v| format!("{v:.2}"))
    );
    println!("e22_restored {}", u32::from(marks.restored_at.is_some()));
    println!(
        "e22_restore_ms {}",
        restore_ms.map_or("-1".into(), |v| format!("{v:.2}"))
    );
    println!("e22_flaps {}", marks.flaps);
    println!("e22_reroutes {reroutes}");
    println!("e22_latency_alerts {latency_alerts}");
    println!("e22_availability_alerts {availability_alerts}");
    println!("e22_degraded_alerts {degraded_alerts}");
    println!("e22_metrics_node_series {node_series}");
    println!("e22_diag_bytes {}", diag.len());
    println!("e22_schedule_digest {digest:016x}");
}

// ---------------------------------------------------------------- E23 ----

/// Type-specialized vectorized kernels (DESIGN.md §14): packed-key group
/// tables and join indexes with typed accumulator loops, timed on the two
/// keyed hot paths — hash aggregation and hash join build+probe — plus
/// string keys against integer keys on the same GROUP BY.
fn e23_vector_kernels() {
    let rows = 1_000_000;
    // Unsorted so the planner cannot sidestep HashAgg via RunAgg.
    let tde = Tde::new(faa_db_unsorted(rows));
    let opts = ExecOptions::serial();

    // Best-of-5 wall clock: the operators allocate hash tables in the tens
    // of MB, so a single run is allocator-noise sensitive.
    let best = |q: &str| -> Duration {
        (0..5)
            .map(|_| time_it(|| tde.query_with(q, &opts).expect("query")).1)
            .min()
            .expect("five runs")
    };

    // Hash aggregation: two-column string+int key, the full typed-state
    // spread (COUNT / SUM / MIN / MAX / AVG).
    let t_agg = best(
        "(aggregate ((carrier) (weekday))
           ((count as n) (sum distance as dist)
            (min arr_delay as lo) (max arr_delay as hi)
            (avg dep_delay as d))
           (scan flights))",
    );

    // Hash join build+probe: fact-dim join keyed on a string column,
    // grouped on the dimension side so culling cannot remove it. The dim is
    // filtered (the dashboard-filter case) so the probe, not the joined
    // output's materialization, dominates.
    let t_join = best(
        "(aggregate ((name)) ((count as n) (sum distance as dist))
           (join inner ((carrier code))
             (scan flights)
             (select (in code \"HA\") (scan carriers))))",
    );

    // String keys against integer keys: the same range-filtered two-column
    // GROUP BY, once over dictionary-coded strings and once over integers.
    // Strings reach the grouping kernel as codes, so the two should cost
    // about the same per scanned row.
    let key_query = |a: &str, b: &str| {
        format!(
            "(aggregate (({a}) ({b})) ((count as n) (sum distance as dist))
               (select (between distance 700 1300) (scan flights)))"
        )
    };
    let ns_per_row = |t: Duration| t.as_secs_f64() * 1e9 / rows as f64;
    let t_str_key = best(&key_query("origin_state", "dest_state"));
    let t_int_key = best(&key_query("dep_hour", "weekday"));
    let str_int_ratio = t_str_key.as_secs_f64() / t_int_key.as_secs_f64().max(1e-9);

    print_table(
        &format!("E23 — keyed-operator kernels ({rows} rows, unsorted)"),
        &["hot path", "ms", "ns/row"],
        &[
            vec![
                "hash agg (2-col key, 5 aggs)".into(),
                ms(t_agg),
                format!("{:.2}", ns_per_row(t_agg)),
            ],
            vec![
                "hash join build+probe".into(),
                ms(t_join),
                format!("{:.2}", ns_per_row(t_join)),
            ],
            vec![
                "filtered GROUP BY origin_state, dest_state (Str)".into(),
                ms(t_str_key),
                format!("{:.2}", ns_per_row(t_str_key)),
            ],
            vec![
                "filtered GROUP BY dep_hour, weekday (Int)".into(),
                ms(t_int_key),
                format!("{:.2}", ns_per_row(t_int_key)),
            ],
        ],
    );

    // Machine-checkable summary lines (the CI smoke test parses these).
    println!("e23_agg_kernels_ms {}", ms(t_agg));
    println!("e23_join_kernels_ms {}", ms(t_join));
    println!("e23_str_key_ns_per_row {:.2}", ns_per_row(t_str_key));
    println!("e23_int_key_ns_per_row {:.2}", ns_per_row(t_int_key));
    println!("e23_str_int_ratio {str_int_ratio:.2}");
}

// ---------------------------------------------------------------- E24 ----

/// Cache-hierarchy drill: the cross-dashboard storm again, this time read
/// through the full L1 → L2 tier. Twelve dashboards share six tables, so
/// distinct dashboards produce identical canonical queries — the shared
/// ring-routed L2 turns one node's backend round trip into every other
/// node's promote-on-hit. The run then refreshes ONE table (targeted tag
/// purge — the fraction of the cached population it touches is the
/// headline), demonstrates SWR grace serving with a Background
/// revalidation sweep, and joins a node to measure cache warming. Emits
/// `BENCH_cache.json` for the trend sentinel.
fn e24_cache_hierarchy() {
    use std::collections::HashMap;
    use std::time::Instant;
    use tabviz::cache::intelligent::CacheConfig;
    use tabviz::cluster::{Cluster, ClusterConfig, ClusterSession};
    use tabviz::workloads::{generate_storm, schedule_digest, StormConfig, StormStep};

    const NODES: usize = 4;
    const TABLES: usize = 6;
    const DASHBOARDS: usize = 12;
    const USERS: u32 = 4;
    const SEED: u64 = 42;

    // One physical dataset cloned into six logical tables: a refresh of one
    // table can only ever touch ~1/6 of the cached population, which is what
    // makes the targeted-purge fraction meaningful.
    let flights = generate_flights(&FaaConfig::with_rows(6_000)).expect("generate");
    let db = Arc::new(Database::new("faa"));
    for t in 0..TABLES {
        db.put(
            Table::from_chunk(format!("flights_{t}"), &flights, &["carrier", "date"])
                .expect("table"),
        )
        .expect("put table");
    }

    let cluster = {
        let db = Arc::clone(&db);
        Cluster::build(
            ClusterConfig {
                nodes: NODES,
                replication: 2,
                vnodes: 64,
                seed: SEED,
                peer_op_latency: Duration::from_micros(200),
            },
            move |name| {
                let sim = SimDb::new("warehouse", Arc::clone(&db), lan_config());
                let caches = QueryCaches::new(
                    CacheConfig {
                        swr_grace: Duration::from_secs(120),
                        ..Default::default()
                    },
                    1 << 22,
                );
                let qp = QueryProcessor::new(caches);
                qp.registry.register(Arc::new(sim), 4);
                let server = Arc::new(DataServer::named(qp, name));
                for d in 0..DASHBOARDS {
                    server.publish(PublishedSource::new(
                        format!("dash-{d}"),
                        "warehouse",
                        LogicalPlan::scan(format!("flights_{}", d % TABLES)),
                    ));
                }
                Ok(server)
            },
        )
        .expect("cluster build")
    };

    let storm = StormConfig {
        sessions: 160,
        dashboards: DASHBOARDS,
        zipf_s: 1.1,
        horizon_ms: 4_000,
        diurnal_amplitude: 0.5,
        steps_per_session: 4,
        mean_think_ms: 250.0,
        seed: SEED,
    };
    let schedule = generate_storm(&storm);
    let digest = schedule_digest(&schedule);

    let count = || AggCall::new(AggFunc::Count, None, "n");
    let query_for = |kind: &StormStep| -> ClientQuery {
        let dims = ["carrier", "dep_hour", "origin_state", "weekday"];
        match kind {
            StormStep::Load => ClientQuery {
                group_by: vec!["carrier".into()],
                aggs: vec![count()],
                ..Default::default()
            },
            StormStep::Drill { dimension } => ClientQuery {
                group_by: vec![dims[*dimension as usize % dims.len()].into()],
                aggs: vec![count()],
                ..Default::default()
            },
            StormStep::Filter { selector } => ClientQuery {
                filters: vec![bin(
                    BinOp::Le,
                    col("distance"),
                    lit(200 + (*selector as i64 % 2200)),
                )],
                group_by: vec!["carrier".into()],
                aggs: vec![count()],
                ..Default::default()
            },
            StormStep::TopN { n } => ClientQuery {
                group_by: vec!["market".into()],
                aggs: vec![count()],
                order: vec![SortKey {
                    column: "n".into(),
                    asc: false,
                }],
                topn: Some(*n as usize),
                ..Default::default()
            },
        }
    };

    // Closed-loop replay (latency buckets per serve path, not tail-under-
    // load — e21/e22 own that): every query lands in exactly one bucket.
    let mut sessions: HashMap<u32, (u32, ClusterSession)> = HashMap::new();
    let (mut l1, mut l2, mut backend) = (
        Vec::<Duration>::new(),
        Vec::<Duration>::new(),
        Vec::<Duration>::new(),
    );
    let mut errors = 0usize;
    // Shared-tier reads issued while an L1 answer was served: the replay is
    // one client, so the tier's read counter moves only for the query in hand.
    let mut peer_gets_on_l1 = 0u64;
    for a in &schedule {
        let (_, sess) = sessions.entry(a.session).or_insert_with(|| {
            let user = format!("viewer-{}", a.session % USERS);
            (
                a.dashboard,
                cluster
                    .open_session(&format!("dash-{}", a.dashboard), user)
                    .expect("open session"),
            )
        });
        let query = query_for(&a.kind);
        let peer_gets = cluster.peer_stats().gets;
        let t0 = Instant::now();
        match sess.query(&query) {
            Ok(r) => {
                let wall = t0.elapsed();
                match r.outcome {
                    ExecOutcome::IntelligentHit | ExecOutcome::LiteralHit => {
                        l1.push(wall);
                        peer_gets_on_l1 += cluster.peer_stats().gets - peer_gets;
                    }
                    ExecOutcome::L2Hit => l2.push(wall),
                    ExecOutcome::Remote => backend.push(wall),
                    _ => {}
                }
            }
            Err(_) => errors += 1,
        }
    }
    let completed = schedule.len() - errors;

    let median = |durs: &mut Vec<Duration>| -> Duration {
        if durs.is_empty() {
            return Duration::ZERO;
        }
        durs.sort();
        durs[(durs.len() - 1) / 2]
    };
    let (l1_n, l2_n, backend_n) = (l1.len(), l2.len(), backend.len());
    let l1_median = median(&mut l1);
    let l2_median = median(&mut l2);
    let backend_median = median(&mut backend);
    let l2_over_backend = l2_median.as_secs_f64() / backend_median.as_secs_f64().max(1e-9);

    // Tier-seam counters summed across the members.
    let tier_sum = |cluster: &Arc<Cluster>| {
        let mut sum = tabviz::cache::TierStats::default();
        for node in cluster.nodes() {
            let t = node.server.processor.caches.tier_stats();
            sum.l2_hits += t.l2_hits;
            sum.l2_misses += t.l2_misses;
            sum.promotes += t.promotes;
            sum.l2_stores += t.l2_stores;
            sum.tag_purged += t.tag_purged;
            sum.warmed += t.warmed;
        }
        sum
    };
    let tier = tier_sum(&cluster);
    let l2_hit_rate = tier.l2_hits as f64 / ((tier.l2_hits + tier.l2_misses) as f64).max(1.0);
    // The node L2 is the tier's only reader: every tier read is one L2 lookup.
    let peer_gets_per_l1_answer = peer_gets_on_l1 as f64 / l1_n.max(1) as f64;
    let peer_gets_minus_l2_lookups =
        cluster.peer_stats().gets as i64 - (tier.l2_hits + tier.l2_misses) as i64;

    // Targeted invalidation: refresh ONE of the six tables and compare what
    // the tag purge removed against the whole cached population (node L1s
    // plus every replicated shard entry).
    let census = |cluster: &Arc<Cluster>| -> usize {
        cluster
            .nodes()
            .iter()
            .map(|n| {
                n.server.processor.caches.intelligent.len()
                    + n.server.processor.caches.literal.len()
                    + n.shard().len()
            })
            .sum()
    };
    let entries_before = census(&cluster);
    // flights_3 sits mid-Zipf: refreshing it measures tag precision on a
    // typically-popular table rather than the head dashboard's hot spot.
    let purged = cluster.refresh_table("warehouse", "flights_3");
    let purge_fraction = purged as f64 / entries_before.max(1) as f64;

    // SWR: demote flights_1's dependents to stale (still inside the grace
    // window), then replay each affected dashboard's load query through its
    // original session. The route lands on the session's affinity node,
    // whose stale L1 entry answers immediately, flagged as an SWR serve (the
    // L2 copies are gone, purged by tag, and are not asked).
    let swr_before: u64 = cluster
        .nodes()
        .iter()
        .map(|n| n.server.processor.caches.intelligent.stats().swr_serves)
        .sum();
    let stale_marked: usize = cluster
        .nodes()
        .iter()
        .map(|n| {
            n.server
                .processor
                .mark_table_stale("warehouse", "flights_1")
        })
        .sum();
    let mut swr_queries = 0usize;
    for (dash, sess) in sessions.values() {
        if *dash as usize % TABLES != 1 {
            continue;
        }
        sess.query(&query_for(&StormStep::Load)).expect("swr serve");
        swr_queries += 1;
    }
    let swr_serves: u64 = cluster
        .nodes()
        .iter()
        .map(|n| n.server.processor.caches.intelligent.stats().swr_serves)
        .sum::<u64>()
        - swr_before;
    // The Background sweep refreshes what SWR kept serving; Background
    // requests see through the grace window, so the refresh is real.
    let mut revalidated = 0usize;
    for node in cluster.nodes() {
        let report = revalidate_pass(
            &node.server.processor,
            &RevalidateOptions {
                staleness_budget: Duration::ZERO,
                ..Default::default()
            },
        );
        revalidated += report.refreshed;
    }
    let stale_left: usize = cluster
        .nodes()
        .iter()
        .map(|n| n.server.processor.caches.stale_entries().len())
        .sum();

    // Node join: the newcomer's L1 is warmed from the members' hot sets.
    let report = cluster.add_node("node-warm").expect("add node");
    let joiner = cluster.node("node-warm").expect("joiner");
    let warmed = joiner.server.processor.caches.tier_stats().warmed;

    // The federated exposition carries the tier counters.
    let metrics_text = cluster.metrics_text();
    let tier_metric_names = [
        "tv_cache_tier_l2_hits_total",
        "tv_cache_tier_promotes_total",
        "tv_cache_tier_stores_total",
        "tv_cache_tier_tag_purged_total",
        "tv_cache_tier_warmed_total",
    ];
    let tier_metrics_present = tier_metric_names
        .iter()
        .filter(|m| metrics_text.contains(*m))
        .count();

    print_table(
        &format!(
            "E24 — {NODES}-node tiered cache, {} arrivals over {DASHBOARDS} dashboards / {TABLES} tables",
            schedule.len(),
        ),
        &["serve path", "n", "median ms"],
        &[
            vec!["L1 hit (intelligent/literal)".into(), l1_n.to_string(), ms(l1_median)],
            vec!["L1 miss → L2 hit".into(), l2_n.to_string(), ms(l2_median)],
            vec!["backend round trip".into(), backend_n.to_string(), ms(backend_median)],
        ],
    );
    print_table(
        "E24 — invalidation, SWR, warm start",
        &["event", "value"],
        &[
            vec![
                "cached entries before refresh".into(),
                entries_before.to_string(),
            ],
            vec!["purged by flights_3 refresh".into(), purged.to_string()],
            vec![
                "targeted-purge fraction".into(),
                format!("{purge_fraction:.3}"),
            ],
            vec!["stale-marked (flights_1)".into(), stale_marked.to_string()],
            vec!["SWR grace serves".into(), swr_serves.to_string()],
            vec!["revalidated in background".into(), revalidated.to_string()],
            vec!["entries warmed into joiner".into(), warmed.to_string()],
        ],
    );

    let json = format!(
        "{{\n  \"experiment\": \"e24_cache_hierarchy\",\n  \"nodes\": {NODES},\n  \"tables\": {TABLES},\n  \"dashboards\": {DASHBOARDS},\n  \"seed\": {SEED},\n  \"schedule_digest\": \"{digest:016x}\",\n  \"arrivals\": {},\n  \"completed\": {completed},\n  \"errors\": {errors},\n  \"serve_paths\": {{\n    \"l1\": {{\"count\": {l1_n}, \"median_ms\": {}}},\n    \"l2\": {{\"count\": {l2_n}, \"median_ms\": {}}},\n    \"backend\": {{\"count\": {backend_n}, \"median_ms\": {}}}\n  }},\n  \"l2_over_backend\": {l2_over_backend:.3},\n  \"tier\": {{\"l2_hits\": {}, \"l2_misses\": {}, \"promotes\": {}, \"l2_stores\": {}, \"l2_hit_rate\": {l2_hit_rate:.3}}},\n  \"peer_gets_per_l1_answer\": {peer_gets_per_l1_answer:.3},\n  \"peer_gets_minus_l2_lookups\": {peer_gets_minus_l2_lookups},\n  \"entries_before_refresh\": {entries_before},\n  \"purged\": {purged},\n  \"purge_fraction\": {purge_fraction:.4},\n  \"stale_marked\": {stale_marked},\n  \"swr_queries\": {swr_queries},\n  \"swr_serves\": {swr_serves},\n  \"revalidated\": {revalidated},\n  \"stale_after_revalidation\": {stale_left},\n  \"join_keys_moved\": {},\n  \"warmed\": {warmed},\n  \"tier_metrics_present\": {tier_metrics_present}\n}}\n",
        schedule.len(),
        ms(l1_median),
        ms(l2_median),
        ms(backend_median),
        tier.l2_hits,
        tier.l2_misses,
        tier.promotes,
        tier.l2_stores,
        report.keys_moved,
    );
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");

    // Machine-checkable summary lines (the CI smoke test parses these).
    println!("e24_arrivals {}", schedule.len());
    println!("e24_completed {completed}");
    println!("e24_errors {errors}");
    println!("e24_l1_median_ms {}", ms(l1_median));
    println!("e24_l2_median_ms {}", ms(l2_median));
    println!("e24_backend_median_ms {}", ms(backend_median));
    println!("e24_l2_over_backend {l2_over_backend:.3}");
    println!("e24_l2_hits {}", tier.l2_hits);
    println!("e24_l2_hit_rate {l2_hit_rate:.3}");
    println!("e24_promotes {}", tier.promotes);
    println!("e24_peer_gets_per_l1_answer {peer_gets_per_l1_answer:.3}");
    println!("e24_peer_gets_minus_l2_lookups {peer_gets_minus_l2_lookups}");
    println!("e24_purged {purged}");
    println!("e24_purge_fraction {purge_fraction:.4}");
    println!("e24_stale_marked {stale_marked}");
    println!("e24_swr_serves {swr_serves}");
    println!("e24_revalidated {revalidated}");
    println!("e24_stale_after_revalidation {stale_left}");
    println!("e24_warmed {warmed}");
    println!("e24_tier_metrics_present {tier_metrics_present}");
    println!("e24_schedule_digest {digest:016x}");
    println!("e24_json_emitted 1");
}

// ---------------------------------------------------------------- E25 ----

/// Tail-latency attribution drill: three scripted slowness injections —
/// an admission-queue flood, a backend stall, and a cache purge storm —
/// each with a known root cause, scored on whether `obs::analyze`'s
/// slow-query verdicts name that cause on the slowest traces. Also
/// measures the analyze-pass overhead (fingerprint folding on the warm
/// render path, on vs off) and proves every exemplar trace id exposed by
/// a small cluster's metrics resolves to a recorded trace.
fn e25_attribution_drill() {
    use tabviz::cluster::{Cluster, ClusterConfig};
    use tabviz::obs::{analyze, diagnose, scrape_exemplars, Verdict};

    const SEED: u64 = 42;
    const TOP_K: usize = 5;

    let db = faa_db(3_000);
    let unique_spec = |n: i64| {
        QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Ge, col("distance"), lit(n)))
            .group("dep_hour")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    };

    // Diagnose the slowest traces the way `DataServer::slow_query_verdicts`
    // does — against the class baseline learned on the same processor —
    // and count how many name the injected cause.
    let score = |qp: &QueryProcessor, expect: Verdict| -> (usize, usize) {
        let traces = qp.obs.recorder.slowest(TOP_K);
        let hits = traces
            .iter()
            .filter(|t| {
                let baseline = qp.obs.baselines.get(&t.class);
                diagnose(t, baseline.as_ref()).verdict == expect
            })
            .count();
        (hits, traces.len())
    };

    // Scenario 1 — admission-queue flood: a pool of 2 with pool-derived
    // scheduler concurrency, hit by 12 concurrent cache-missing queries.
    // Everything past the first wave spends its time queued, so the tail
    // verdict must be queue_wait, not backend_slow.
    let slow_link = |dispatch_ms: u64| SimConfig {
        latency: LatencyModel {
            connect: Duration::from_millis(2),
            dispatch: Duration::from_millis(dispatch_ms),
            scan_per_kilorow: Duration::from_micros(150),
            transfer_per_kilorow: Duration::from_micros(400),
        },
        ..Default::default()
    };
    let (mut qp, _sim) = processor_over(Arc::clone(&db), slow_link(10), 2);
    qp.set_scheduler(Arc::new(Scheduler::new(SchedConfig::for_pool_capacity(2))));
    std::thread::scope(|s| {
        for i in 0..12i64 {
            let qp = &qp;
            s.spawn(move || {
                let req = AdmitRequest::interactive(format!("flood-{i}"));
                qp.execute_as(&unique_spec(1_000 + i), &req).expect("flood");
            });
        }
    });
    let (queue_hits, queue_n) = score(&qp, Verdict::QueueWait);

    // Scenario 2 — backend stall: an uncontended pool of 4 behind a link
    // whose dispatch latency dominates. Misses are routine for this class
    // (its baseline is built from these same remote round trips), so the
    // verdict must be backend_slow, not a cache complaint.
    let (qp, _sim) = processor_over(Arc::clone(&db), slow_link(25), 4);
    for i in 0..6i64 {
        qp.execute(&unique_spec(2_000 + i)).expect("stall probe");
    }
    let (backend_hits, backend_n) = score(&qp, Verdict::BackendSlow);

    // Scenario 3 — cache purge storm: one query class warmed until its
    // baseline says "this serves from cache", then the cache is purged
    // before each repeat. The repeats go remote *because* the cache was
    // emptied — cache_miss_storm, not backend_slow. The baseline is
    // frozen (analyze gate off) during the storm, as a healthy-traffic
    // fingerprint would be.
    let (qp, _sim) = processor_over(Arc::clone(&db), slow_link(10), 4);
    let hot = unique_spec(3_000);
    for _ in 0..40 {
        qp.execute(&hot).expect("warm");
    }
    qp.obs.recorder.clear();
    analyze::set_enabled(false);
    for _ in 0..TOP_K {
        qp.refresh_table("warehouse", "flights");
        qp.execute(&hot).expect("storm repeat");
    }
    analyze::set_enabled(true);
    let (purge_hits, purge_n) = score(&qp, Verdict::CacheMissStorm);

    let rate = |hits: usize, n: usize| hits as f64 / n.max(1) as f64;
    let queue_rate = rate(queue_hits, queue_n);
    let backend_rate = rate(backend_hits, backend_n);
    let purge_rate = rate(purge_hits, purge_n);
    let verdict_rate = rate(
        queue_hits + backend_hits + purge_hits,
        queue_n + backend_n + purge_n,
    );

    // Analyze-pass overhead: the e20 warm-render floor with the baseline
    // fold on vs off. The fold is a lock + eight running means per query;
    // the bar is that it stays invisible next to even a cache-hit render.
    const RENDERS: usize = 30;
    let run_arm = |analyze_on: bool| -> Duration {
        analyze::set_enabled(analyze_on);
        let db = faa_db(20_000);
        let (qp, _sim) = processor_over(db, lan_config(), 4);
        let dash = fig1_dashboard("warehouse", "flights");
        let batch = dash.batch(&DashboardState::default(), true);
        execute_batch(&qp, &batch, &BatchOptions::default()).expect("cold render");
        let mut walls: Vec<Duration> = (0..RENDERS)
            .map(|_| {
                time_it(|| execute_batch(&qp, &batch, &BatchOptions::default()).expect("warm")).1
            })
            .collect();
        walls.sort();
        walls[walls.len() / 2]
    };
    let p50_off = run_arm(false);
    let p50_on = run_arm(true);
    analyze::set_enabled(true); // leave the global default intact
    let overhead_ratio = p50_on.as_secs_f64() / p50_off.as_secs_f64().max(1e-9);

    // Exemplar resolvability: a 2-node cluster serves a short mixed
    // workload; every trace id its merged exposition cites must resolve
    // to a trace in the cluster or node flight recorders.
    let cluster = {
        let db = Arc::clone(&db);
        Cluster::build(
            ClusterConfig {
                nodes: 2,
                replication: 2,
                vnodes: 32,
                seed: SEED,
                peer_op_latency: Duration::ZERO,
            },
            move |name| {
                let sim = SimDb::new("warehouse", Arc::clone(&db), lan_config());
                let qp = QueryProcessor::default();
                qp.registry.register(Arc::new(sim), 4);
                let server = Arc::new(DataServer::named(qp, name));
                server.publish(PublishedSource::new(
                    "dash-0",
                    "warehouse",
                    LogicalPlan::scan("flights"),
                ));
                Ok(server)
            },
        )
        .expect("cluster build")
    };
    let session = cluster.open_session("dash-0", "viewer").expect("session");
    for i in 0..8i64 {
        session
            .query(&ClientQuery {
                filters: vec![bin(BinOp::Le, col("distance"), lit(500 + i % 3))],
                group_by: vec!["carrier".into()],
                aggs: vec![AggCall::new(AggFunc::Count, None, "n")],
                ..Default::default()
            })
            .expect("cluster query");
    }
    let text = cluster.metrics_text();
    let scraped = scrape_exemplars(&text);
    let resolved = scraped
        .iter()
        .filter(|(_, id)| {
            cluster.recorder.get(*id).is_some()
                || cluster
                    .nodes()
                    .iter()
                    .any(|n| n.server.flight_recorder().get(*id).is_some())
        })
        .count();
    let unresolved = scraped.len() - resolved;
    // Histogram families that saw traffic vs families citing an exemplar.
    let families_with_traffic: std::collections::BTreeSet<String> = text
        .lines()
        .filter_map(|l| {
            let (name, v) = l.split_once(' ')?;
            let base = name.split('{').next()?.strip_suffix("_count")?;
            (base.ends_with("_seconds") && v.trim().parse::<f64>().ok()? > 0.0)
                .then(|| base.to_string())
        })
        .collect();
    let families_with_exemplar: std::collections::BTreeSet<String> = scraped
        .iter()
        .filter_map(|(series, _)| {
            Some(
                series
                    .split('{')
                    .next()?
                    .trim_end_matches("_bucket")
                    .to_string(),
            )
        })
        .collect();
    let covered = families_with_traffic
        .iter()
        .filter(|f| families_with_exemplar.contains(*f))
        .count();

    print_table(
        &format!("E25 — verdict precision on the slowest {TOP_K} traces per injected cause"),
        &["scenario", "expected verdict", "hits", "precision"],
        &[
            vec![
                "admission-queue flood".into(),
                "queue_wait".into(),
                format!("{queue_hits}/{queue_n}"),
                format!("{queue_rate:.2}"),
            ],
            vec![
                "backend stall".into(),
                "backend_slow".into(),
                format!("{backend_hits}/{backend_n}"),
                format!("{backend_rate:.2}"),
            ],
            vec![
                "cache purge storm".into(),
                "cache_miss_storm".into(),
                format!("{purge_hits}/{purge_n}"),
                format!("{purge_rate:.2}"),
            ],
        ],
    );
    print_table(
        "E25 — analyze-pass overhead and exemplar resolvability",
        &["measure", "value"],
        &[
            vec!["warm p50, analyze off".into(), ms(p50_off)],
            vec!["warm p50, analyze on".into(), ms(p50_on)],
            vec!["overhead ratio".into(), format!("{overhead_ratio:.3}")],
            vec!["exemplars cited".into(), scraped.len().to_string()],
            vec!["exemplars resolved".into(), resolved.to_string()],
            vec![
                "latency families covered".into(),
                format!("{covered}/{}", families_with_traffic.len()),
            ],
        ],
    );

    let json = format!(
        "{{\n  \"experiment\": \"e25_attribution_drill\",\n  \"seed\": {SEED},\n  \"top_k\": {TOP_K},\n  \"queue_hit_rate\": {queue_rate:.3},\n  \"backend_hit_rate\": {backend_rate:.3},\n  \"purge_hit_rate\": {purge_rate:.3},\n  \"verdict_hit_rate\": {verdict_rate:.3},\n  \"analyze_on_p50_ms\": {},\n  \"analyze_off_p50_ms\": {},\n  \"overhead_ratio\": {overhead_ratio:.3},\n  \"exemplars\": {{\n    \"cited\": {},\n    \"resolved\": {resolved},\n    \"errors\": {unresolved},\n    \"families_with_traffic\": {},\n    \"families_covered\": {covered}\n  }}\n}}\n",
        ms(p50_on),
        ms(p50_off),
        scraped.len(),
        families_with_traffic.len(),
    );
    std::fs::write("BENCH_analyze.json", &json).expect("write BENCH_analyze.json");

    // Machine-checkable summary lines (the CI smoke test parses these).
    println!("e25_queue_hit_rate {queue_rate:.3}");
    println!("e25_backend_hit_rate {backend_rate:.3}");
    println!("e25_purge_hit_rate {purge_rate:.3}");
    println!("e25_verdict_hit_rate {verdict_rate:.3}");
    println!("e25_p50_on_ms {}", ms(p50_on));
    println!("e25_p50_off_ms {}", ms(p50_off));
    println!("e25_overhead_ratio {overhead_ratio:.3}");
    println!("e25_exemplars_cited {}", scraped.len());
    println!("e25_exemplars_resolved {resolved}");
    println!("e25_exemplars_unresolved {unresolved}");
    println!("e25_families_with_traffic {}", families_with_traffic.len());
    println!("e25_families_covered {covered}");
    println!("e25_json_emitted 1");
}
