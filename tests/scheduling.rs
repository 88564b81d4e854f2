//! Workload-management integration: ticket-based admission, strict priority
//! between classes, weighted fair queuing within a class, deadline shedding
//! before backend work, and load shedding under overload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tabviz::prelude::*;
use tabviz::workloads::{generate_flights, FaaConfig};

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn wide_open(max_concurrent: usize) -> SchedConfig {
    let mut cfg = SchedConfig::new(max_concurrent);
    cfg.shed_depth = [1024, 1024, 1024];
    cfg
}

/// Grants must come back in strict priority order regardless of arrival
/// order: background and batch queued first still wait for a later-arriving
/// interactive request.
#[test]
fn grants_follow_priority_not_arrival_order() {
    let sched = Arc::new(Scheduler::new(wide_open(1)));
    let hold = sched.admit(&AdmitRequest::interactive("warm")).unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    let arrivals = [
        Priority::Background,
        Priority::Background,
        Priority::Batch,
        Priority::Batch,
        Priority::Interactive,
        Priority::Interactive,
    ];
    for (i, prio) in arrivals.into_iter().enumerate() {
        let sched2 = Arc::clone(&sched);
        let order2 = Arc::clone(&order);
        handles.push(std::thread::spawn(move || {
            let t = sched2
                .admit(&AdmitRequest::new(prio, format!("s{i}")))
                .unwrap();
            order2.lock().unwrap().push(t.priority());
        }));
        wait_until("arrival queued", || sched.queued() == i + 1);
    }
    drop(hold);
    for h in handles {
        h.join().unwrap();
    }
    let got = order.lock().unwrap().clone();
    assert_eq!(
        got,
        vec![
            Priority::Interactive,
            Priority::Interactive,
            Priority::Batch,
            Priority::Batch,
            Priority::Background,
            Priority::Background,
        ],
        "grant order must be priority order"
    );
    assert_eq!(
        sched.stats().total_shed(),
        0,
        "nothing shed at these depths"
    );
}

/// Deficit round robin within a class: a low-weight session is served at a
/// reduced rate but never starved behind a heavy session's backlog.
#[test]
fn low_weight_session_is_not_starved() {
    let sched = Arc::new(Scheduler::new(wide_open(1)));
    let hold = sched.admit(&AdmitRequest::interactive("warm")).unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    let mut queued = 0usize;
    let mut submit = |session: &'static str, weight: f64| {
        let sched2 = Arc::clone(&sched);
        let order2 = Arc::clone(&order);
        handles.push(std::thread::spawn(move || {
            let t = sched2
                .admit(&AdmitRequest::batch(session).with_weight(weight))
                .unwrap();
            order2.lock().unwrap().push(session);
            drop(t);
        }));
        queued += 1;
        wait_until("ticket queued", || sched.queued() == queued);
    };
    for _ in 0..20 {
        submit("heavy", 1.0);
    }
    for _ in 0..3 {
        submit("light", 0.25);
    }
    drop(hold);
    for h in handles {
        h.join().unwrap();
    }
    let got = order.lock().unwrap().clone();
    assert_eq!(got.len(), 23);
    let first_light = got.iter().position(|s| *s == "light").unwrap();
    assert!(
        first_light <= 10,
        "light session starved at the back: {got:?}"
    );
    let last_light = got.iter().rposition(|s| *s == "light").unwrap();
    assert!(
        last_light < got.len() - 2,
        "light session pushed to the very end: {got:?}"
    );
}

/// A queued request whose deadline expires is shed with `TvError::Timeout`
/// before consuming any backend work: the simulated warehouse must see only
/// the query that was already running.
#[test]
fn deadline_expired_queries_never_reach_the_backend() {
    let flights = generate_flights(&FaaConfig::with_rows(5_000)).unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();
    let mut plan = FaultPlan::seeded(1);
    plan.slow_query = 1.0;
    plan.slow_query_delay = Duration::from_millis(250);
    let cfg = SimConfig {
        faults: Some(plan),
        ..Default::default()
    };
    let sim = SimDb::new("warehouse", Arc::clone(&db), cfg);
    let mut qp = QueryProcessor::default();
    qp.registry.register(Arc::new(sim.clone()), 1);
    let sched = qp.enable_scheduler();
    assert_eq!(
        sched.config().max_concurrent,
        1,
        "derived from pool capacity"
    );
    let qp = Arc::new(qp);

    // Occupy the single slot with a slow remote query.
    let qp2 = Arc::clone(&qp);
    let slow = std::thread::spawn(move || {
        let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"));
        qp2.execute(&spec).unwrap();
    });
    wait_until("slow query admitted", || sched.running() == 1);

    // This one queues behind it and expires long before the slot frees up.
    let spec = QuerySpec::new("warehouse", LogicalPlan::scan("flights"))
        .group("origin_state")
        .agg(AggCall::new(AggFunc::Count, None, "n"));
    let req = AdmitRequest::interactive("impatient").with_deadline(Duration::from_millis(20));
    let err = qp.execute_as(&spec, &req).unwrap_err();
    assert!(matches!(err, TvError::Timeout(_)), "got: {err}");
    slow.join().unwrap();

    assert_eq!(
        sim.stats().queries,
        1,
        "the deadline-shed query must never reach the warehouse"
    );
    let st = sched.stats();
    assert_eq!(st.deadline_shed[Priority::Interactive.idx()], 1);
    assert_eq!(
        st.admitted[Priority::Interactive.idx()],
        1,
        "only the slow one"
    );
}

/// Overload shedding: at the watermark, Background arrivals shed themselves;
/// higher-priority arrivals evict queued Background first, then Batch,
/// newest-first — and Interactive is never shed at sane depths.
#[test]
fn overload_sheds_background_then_batch_never_interactive() {
    let mut cfg = SchedConfig::new(1);
    cfg.shed_depth = [64, 2, 2];
    let sched = Arc::new(Scheduler::new(cfg));
    let hold = sched.admit(&AdmitRequest::interactive("warm")).unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    let mut submit = |prio: Priority, session: &'static str, sheds_after: usize| {
        let sched2 = Arc::clone(&sched);
        let order2 = Arc::clone(&order);
        handles.push(std::thread::spawn(move || {
            if let Ok(t) = sched2.admit(&AdmitRequest::new(prio, session)) {
                order2.lock().unwrap().push(t.priority());
            }
        }));
        wait_until("arrival settled", || sched.shed_log().len() == sheds_after);
    };

    submit(Priority::Background, "bg", 0);
    submit(Priority::Background, "bg", 0);
    wait_until("backgrounds queued", || sched.queued() == 2);
    // The queue is at the Background watermark: the next background arrival
    // is shed synchronously, without queuing.
    let err = sched
        .admit(&AdmitRequest::background("bg-extra"))
        .unwrap_err();
    assert!(matches!(err, TvError::Timeout(_)), "got: {err}");
    assert_eq!(sched.shed_log(), vec![Priority::Background]);

    // Each Batch arrival finds the queue at the Background watermark and
    // evicts one queued Background to make room for itself.
    submit(Priority::Batch, "batch", 2);
    submit(Priority::Batch, "batch", 3);
    // With Background drained, a further Batch arrival sheds itself.
    let err = sched
        .admit(&AdmitRequest::batch("batch-extra"))
        .unwrap_err();
    assert!(matches!(err, TvError::Timeout(_)), "got: {err}");

    // The Interactive arrival evicts a queued Batch and takes its place.
    submit(Priority::Interactive, "human", 5);

    drop(hold);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        sched.shed_log(),
        vec![
            Priority::Background,
            Priority::Background,
            Priority::Background,
            Priority::Batch,
            Priority::Batch,
        ],
        "victims must be worst-class-first, never Interactive"
    );
    let st = sched.stats();
    assert_eq!(st.shed[Priority::Interactive.idx()], 0);
    assert_eq!(st.deadline_shed[Priority::Interactive.idx()], 0);
    let got = order.lock().unwrap().clone();
    assert_eq!(
        got,
        vec![Priority::Interactive, Priority::Batch],
        "survivors drain in priority order"
    );
}

/// SplitMix64-style mixer for the storm's per-thread request schedule.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded concurrent storm: every admit call either ends in a grant or in
/// a shed, the counters conserve tickets per class, the concurrency cap is
/// never exceeded, and the scheduler drains to empty.
#[test]
fn seeded_storm_conserves_tickets_and_respects_capacity() {
    const THREADS: u64 = 16;
    const PER_THREAD: u64 = 12;
    const SEED: u64 = 42;
    let cfg = SchedConfig::new(3); // default (tight) watermarks: sheds fire
    let sched = Scheduler::new(cfg);
    let submitted: [AtomicU64; 3] = Default::default();
    let granted: [AtomicU64; 3] = Default::default();
    let errored: [AtomicU64; 3] = Default::default();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sched = &sched;
            let submitted = &submitted;
            let granted = &granted;
            let errored = &errored;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let r = mix(SEED, t, i);
                    let prio = match r % 10 {
                        0..=2 => Priority::Interactive,
                        3..=5 => Priority::Batch,
                        _ => Priority::Background,
                    };
                    let mut req = AdmitRequest::new(prio, format!("sess{}", r % 4));
                    if r.is_multiple_of(7) {
                        // A sliver of impatient requests exercises the
                        // deadline path under real contention.
                        req = req.with_deadline(Duration::from_micros(500));
                    }
                    submitted[prio.idx()].fetch_add(1, Ordering::Relaxed);
                    match sched.admit(&req) {
                        Ok(ticket) => {
                            assert!(
                                sched.running() <= 3,
                                "concurrency cap violated while holding a ticket"
                            );
                            granted[prio.idx()].fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(200));
                            drop(ticket);
                        }
                        Err(TvError::Timeout(_)) => {
                            errored[prio.idx()].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error class: {e}"),
                    }
                }
            });
        }
    });
    let st = sched.stats();
    assert_eq!(sched.running(), 0, "drained");
    assert_eq!(sched.queued(), 0, "drained");
    assert!(st.peak_running <= 3, "peak {} > cap", st.peak_running);
    for p in Priority::ALL {
        let c = p.idx();
        assert_eq!(
            granted[c].load(Ordering::Relaxed),
            st.admitted[c],
            "{}: grants seen by callers == grants counted",
            p.name()
        );
        assert_eq!(
            submitted[c].load(Ordering::Relaxed),
            st.admitted[c] + st.shed[c] + st.deadline_shed[c],
            "{}: every ticket is granted or shed, never lost",
            p.name()
        );
        assert_eq!(
            errored[c].load(Ordering::Relaxed),
            st.shed[c] + st.deadline_shed[c],
            "{}: every shed surfaced as an error",
            p.name()
        );
    }
    assert_eq!(
        st.shed[Priority::Interactive.idx()],
        0,
        "interactive is only rejected past the hard watermark, not at these depths"
    );
}

/// Per-source admission limits (two-source starvation): a saturated slow
/// backend queues its own tickets at its pool ceiling while the rest of
/// the global budget keeps serving the healthy backend. Without the
/// per-source gate, five slow "lake" queries would consume the whole
/// global budget and the interactive "mart" probe would wait behind them.
#[test]
fn saturated_backend_does_not_starve_other_sources() {
    let flights = generate_flights(&FaaConfig::with_rows(3_000)).unwrap();
    let db = Arc::new(Database::new("faa"));
    db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
        .unwrap();

    // The lake: one pooled connection, every query slowed hard.
    let mut plan = FaultPlan::seeded(5);
    plan.slow_query = 1.0;
    plan.slow_query_delay = Duration::from_millis(60);
    let lake = SimDb::new(
        "lake",
        Arc::clone(&db),
        SimConfig {
            faults: Some(plan),
            ..Default::default()
        },
    );
    // The mart: three pooled connections, no faults.
    let mart = SimDb::new("mart", Arc::clone(&db), SimConfig::default());

    let mut qp = QueryProcessor::default();
    // Every probe below must miss: with widening, the first mart probe's
    // `(carrier, distance)` result would answer the other two.
    qp.options.widen_for_reuse = false;
    qp.registry.register(Arc::new(lake.clone()), 1);
    qp.registry.register(Arc::new(mart.clone()), 3);
    let sched = qp.enable_scheduler();
    assert_eq!(sched.config().max_concurrent, 4, "sum of pool capacities");
    let qp = Arc::new(qp);

    // Flood the lake: five batch queries with distinct filters (cache
    // misses, so each needs a ticket and a pooled connection).
    let lake_done = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for i in 0..5i64 {
            let qp = Arc::clone(&qp);
            let lake_done = Arc::clone(&lake_done);
            s.spawn(move || {
                let spec = QuerySpec::new("lake", LogicalPlan::scan("flights"))
                    .filter(bin(BinOp::Ge, col("distance"), lit(10 + i)))
                    .group("carrier")
                    .agg(AggCall::new(AggFunc::Count, None, "n"));
                qp.execute_as(&spec, &AdmitRequest::batch(format!("etl-{i}")))
                    .unwrap();
                lake_done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wait until the lake is saturated: one running, the rest queued
        // behind its per-source limit rather than the global budget.
        wait_until("lake saturated", || {
            sched.running() == 1 && sched.queued() == 4
        });

        // Interactive probes on the healthy mart must sail through the
        // spare global budget while the lake queue is still deep.
        for i in 0..3i64 {
            let spec = QuerySpec::new("mart", LogicalPlan::scan("flights"))
                .filter(bin(BinOp::Ge, col("distance"), lit(100 + i)))
                .group("carrier")
                .agg(AggCall::new(AggFunc::Count, None, "n"));
            let t0 = Instant::now();
            qp.execute_as(&spec, &AdmitRequest::interactive("analyst"))
                .unwrap();
            let wall = t0.elapsed();
            // Five serialized 60ms+ lake queries take 300ms+; a starved
            // probe would wait for them. A gated one never does.
            assert!(
                wall < Duration::from_millis(150),
                "mart probe {i} starved behind the lake flood: {wall:?}"
            );
            assert!(
                lake_done.load(Ordering::Relaxed) < 5,
                "flood must still be draining while probes run"
            );
        }
    });

    let st = sched.stats();
    assert_eq!(st.admitted[Priority::Batch.idx()], 5, "lake flood all ran");
    assert_eq!(
        st.admitted[Priority::Interactive.idx()],
        3,
        "mart probes all ran"
    );
    assert_eq!(st.shed, [0, 0, 0], "nothing was shed, only gated");
    assert_eq!(
        lake.stats().queries + mart.stats().queries,
        8,
        "every query reached its own backend"
    );
}
