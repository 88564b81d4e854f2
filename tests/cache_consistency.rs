//! Cache correctness oracle: whatever the intelligent cache answers must be
//! byte-identical to executing the request directly. Randomized over
//! filters, groupings and aggregates (proptest).

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::Arc;
use std::time::Duration;
use tabviz::cache::{intelligent::CacheConfig, IntelligentCache, QuerySpec};
use tabviz::prelude::*;
use tabviz::workloads::{generate_flights, FaaConfig};

/// Shared engine + data for the oracle.
struct Oracle {
    tde: Tde,
}

impl Oracle {
    fn new() -> Self {
        let flights = generate_flights(&FaaConfig {
            rows: 4_000,
            seed: 42,
            ..Default::default()
        })
        .unwrap();
        let db = Arc::new(Database::new("faa"));
        db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
            .unwrap();
        Oracle { tde: Tde::new(db) }
    }

    fn run(&self, spec: &QuerySpec) -> Vec<Vec<Value>> {
        let plan = spec.to_plan().unwrap();
        let mut rows = self
            .tde
            .execute_plan(&plan, &ExecOptions::serial())
            .unwrap()
            .to_rows();
        if spec.topn.is_none() {
            rows.sort();
        }
        rows
    }
}

/// Candidate group columns.
const GROUPS: &[&str] = &["carrier", "origin_state", "dest_state", "weekday"];
const CARRIERS: &[&str] = &["WN", "DL", "AA", "UA", "US", "EV"];
const STATES: &[&str] = &["CA", "TX", "NY", "FL", "IL", "GA"];

fn arb_filter() -> impl Strategy<Value = Expr> {
    prop_oneof![
        // carrier IN (subset)
        proptest::sample::subsequence(CARRIERS.to_vec(), 1..CARRIERS.len()).prop_map(|subset| {
            Expr::In {
                expr: Box::new(col("carrier")),
                list: subset.into_iter().map(Value::from).collect(),
                negated: false,
            }
        }),
        // origin_state = X
        proptest::sample::select(STATES.to_vec()).prop_map(|s| bin(
            BinOp::Eq,
            col("origin_state"),
            lit(s)
        )),
        // weekday range
        (0i64..5).prop_map(|lo| Expr::Between {
            expr: Box::new(col("weekday")),
            low: Value::Int(lo),
            high: Value::Int(lo + 2),
        }),
        // dep_hour comparison
        (5i64..20).prop_map(|h| bin(BinOp::Ge, col("dep_hour"), lit(h))),
    ]
}

fn arb_fine_spec() -> impl Strategy<Value = QuerySpec> {
    (
        proptest::sample::subsequence(GROUPS.to_vec(), 2..=GROUPS.len()),
        proptest::collection::vec(arb_filter(), 0..2),
    )
        .prop_map(|(groups, filters)| {
            let mut spec = QuerySpec::new("faa", LogicalPlan::scan("flights"));
            for f in filters {
                spec = spec.filter(f);
            }
            for g in groups {
                spec = spec.group(g);
            }
            spec.agg(AggCall::new(AggFunc::Count, None, "n"))
                .agg(AggCall::new(AggFunc::Sum, Some(col("distance")), "dist"))
                .agg(AggCall::new(
                    AggFunc::Count,
                    Some(col("distance")),
                    "dist_cnt",
                ))
                .agg(AggCall::new(AggFunc::Min, Some(col("dep_delay")), "lo"))
                .agg(AggCall::new(AggFunc::Max, Some(col("dep_delay")), "hi"))
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48), ..ProptestConfig::default() })]

    /// Store a fine-grained result, then ask derived questions: coarser
    /// groupings, extra group-column filters, AVG from SUM+COUNT. Every
    /// cache answer must equal direct execution.
    #[test]
    fn cache_answers_equal_direct_execution(
        fine in arb_fine_spec(),
        coarse_pick in 0usize..4,
        extra_filter in proptest::option::of(proptest::sample::select(STATES.to_vec())),
    ) {
        let oracle = Oracle::new();
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            ..Default::default()
        });
        let fine_rows = oracle.run(&fine);
        let fine_chunk = oracle
            .tde
            .execute_plan(&fine.to_plan().unwrap(), &ExecOptions::serial())
            .unwrap();
        cache.put(fine.clone(), fine_chunk, Duration::from_millis(50));
        prop_assert!(!fine_rows.is_empty() || !fine.filters.is_empty());

        // Derived request: keep a subset of the groups, maybe add a filter
        // on a kept group column, ask for rollup-able aggregates plus AVG.
        let kept: Vec<String> = fine
            .group_by
            .iter()
            .take((coarse_pick % fine.group_by.len()) + 1)
            .cloned()
            .collect();
        let mut req = QuerySpec::new("faa", LogicalPlan::scan("flights"));
        for f in &fine.filters {
            req = req.filter(f.clone());
        }
        if let Some(state) = extra_filter {
            if kept.iter().any(|g| g == "origin_state") {
                req = req.filter(bin(BinOp::Eq, col("origin_state"), lit(state)));
            }
        }
        for g in &kept {
            req = req.group(g.clone());
        }
        req = req
            .agg(AggCall::new(AggFunc::Count, None, "n"))
            .agg(AggCall::new(AggFunc::Sum, Some(col("distance")), "dist"))
            .agg(AggCall::new(AggFunc::Avg, Some(col("distance")), "avg_dist"))
            .agg(AggCall::new(AggFunc::Min, Some(col("dep_delay")), "lo"))
            .agg(AggCall::new(AggFunc::Max, Some(col("dep_delay")), "hi"));

        let Some(cached_answer) = cache.get(&req) else {
            // The cache may conservatively miss; that is always allowed.
            return Ok(());
        };
        let mut got = cached_answer.to_rows();
        got.sort();
        let want = oracle.run(&req);
        prop_assert_eq!(got, want);
    }

    /// Exact-spec round trip: store then fetch must return the same rows.
    #[test]
    fn exact_hit_is_identity(fine in arb_fine_spec()) {
        let oracle = Oracle::new();
        let cache = IntelligentCache::new(CacheConfig {
            min_cost: Duration::ZERO,
            ..Default::default()
        });
        let chunk = oracle
            .tde
            .execute_plan(&fine.to_plan().unwrap(), &ExecOptions::serial())
            .unwrap();
        cache.put(fine.clone(), chunk.clone(), Duration::from_millis(10));
        let got = cache.get(&fine).expect("exact spec must hit");
        prop_assert_eq!(got.to_rows(), chunk.to_rows());
    }
}

// ---------------------------------------------------------------------------
// Implication prover soundness: `implies(a, b)` claims every row satisfying
// `a` satisfies `b`. Check that claim against a brute-force evaluation of
// both predicates over a dense value grid — a false implication here would
// mean the intelligent cache can serve wrong rows.
// ---------------------------------------------------------------------------

/// Brute-force row-level oracle for the single-column constraint shapes the
/// prover handles. `None` = shape not evaluable (never generated below).
fn row_satisfies(e: &Expr, v: &Value) -> Option<bool> {
    fn side(e: &Expr, v: &Value) -> Option<Value> {
        match e {
            Expr::Column(_) => Some(v.clone()),
            Expr::Literal(l) => Some(l.clone()),
            _ => None,
        }
    }
    match e {
        Expr::Binary { op, left, right } => {
            let (l, r) = (side(left, v)?, side(right, v)?);
            let ord = l.cmp(&r);
            Some(match op {
                BinOp::Eq => ord.is_eq(),
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => return None,
            })
        }
        Expr::In { list, negated, .. } => Some(list.contains(v) != *negated),
        Expr::Between { low, high, .. } => Some(v.cmp(low).is_ge() && v.cmp(high).is_le()),
        _ => None,
    }
}

fn cmp_ops() -> Vec<BinOp> {
    vec![BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge]
}

/// Single-column integer constraints in every shape the prover analyzes,
/// including flipped literal-comparison order.
fn arb_int_constraint() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (
            proptest::sample::select(cmp_ops()),
            -5i64..15,
            any::<bool>()
        )
            .prop_map(|(op, v, flipped)| {
                if flipped {
                    bin(op, lit(v), col("x"))
                } else {
                    bin(op, col("x"), lit(v))
                }
            }),
        proptest::collection::btree_set(-5i64..15, 1..5).prop_map(|s| Expr::In {
            expr: Box::new(col("x")),
            list: s.into_iter().map(Value::Int).collect(),
            negated: false,
        }),
        (-5i64..15, 0i64..8).prop_map(|(lo, w)| Expr::Between {
            expr: Box::new(col("x")),
            low: Value::Int(lo),
            high: Value::Int(lo + w),
        }),
    ]
}

/// String constraints: equality and IN over a small alphabet.
fn arb_str_constraint() -> impl Strategy<Value = Expr> {
    let alphabet = || vec!["a", "b", "c", "d", "e"];
    prop_oneof![
        proptest::sample::select(alphabet()).prop_map(|s| bin(BinOp::Eq, col("s"), lit(s))),
        proptest::sample::subsequence(alphabet(), 1..4).prop_map(|ss| Expr::In {
            expr: Box::new(col("s")),
            list: ss.into_iter().map(Value::from).collect(),
            negated: false,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(256), ..ProptestConfig::default() })]

    /// No false implications over integers: whenever the prover says
    /// `a ⇒ b`, every grid value satisfying `a` must satisfy `b`.
    #[test]
    fn implication_is_sound_over_int_grid(
        a in arb_int_constraint(),
        b in arb_int_constraint(),
    ) {
        prop_assume!(tabviz::cache::implication::implies(&a, &b));
        for i in -12i64..=25 {
            let v = Value::Int(i);
            let sat_a = row_satisfies(&a, &v).expect("generated shape is evaluable");
            let sat_b = row_satisfies(&b, &v).expect("generated shape is evaluable");
            prop_assert!(
                !sat_a || sat_b,
                "false implication: {a:?} => {b:?} but x={i} satisfies only the premise"
            );
        }
    }

    /// Same soundness property over the string domain.
    #[test]
    fn implication_is_sound_over_str_grid(
        a in arb_str_constraint(),
        b in arb_str_constraint(),
    ) {
        prop_assume!(tabviz::cache::implication::implies(&a, &b));
        for s in ["a", "b", "c", "d", "e", "f", ""] {
            let v = Value::from(s);
            let sat_a = row_satisfies(&a, &v).expect("generated shape is evaluable");
            let sat_b = row_satisfies(&b, &v).expect("generated shape is evaluable");
            prop_assert!(
                !sat_a || sat_b,
                "false implication: {a:?} => {b:?} but s={s:?} satisfies only the premise"
            );
        }
    }

    /// The prover must at least accept reflexivity — a constraint implies
    /// itself — so provable cache hits are not silently lost.
    #[test]
    fn implication_is_reflexive(a in arb_int_constraint()) {
        prop_assert!(tabviz::cache::implication::implies(&a, &a));
    }
}

#[test]
fn persisted_cache_round_trip_preserves_answers() {
    let oracle = Oracle::new();
    let caches = QueryCaches::new(CacheConfig {
        min_cost: Duration::ZERO,
        ..Default::default()
    });
    let spec = QuerySpec::new("faa", LogicalPlan::scan("flights"))
        .filter(bin(BinOp::Ge, col("dep_hour"), lit(6i64)))
        .group("carrier")
        .group("origin_state")
        .agg(AggCall::new(AggFunc::Count, None, "n"))
        .agg(AggCall::new(AggFunc::Sum, Some(col("distance")), "dist"))
        .agg(AggCall::new(AggFunc::Count, Some(col("distance")), "dc"));
    let chunk = oracle
        .tde
        .execute_plan(&spec.to_plan().unwrap(), &ExecOptions::serial())
        .unwrap();
    caches.store(spec.clone(), "SQL", &chunk, Duration::from_millis(40));

    let img = tabviz::cache::persist::save(&caches).unwrap();
    let session2 = QueryCaches::new(CacheConfig {
        min_cost: Duration::ZERO,
        ..Default::default()
    });
    tabviz::cache::persist::load(&session2, &img).unwrap();

    // A derived question answered by the *reloaded* cache equals direct.
    let req = QuerySpec::new("faa", LogicalPlan::scan("flights"))
        .filter(bin(BinOp::Ge, col("dep_hour"), lit(6i64)))
        .group("carrier")
        .agg(AggCall::new(
            AggFunc::Avg,
            Some(col("distance")),
            "avg_dist",
        ));
    let got = session2
        .intelligent
        .get(&req)
        .expect("reloaded cache must subsume");
    let mut got_rows = got.to_rows();
    got_rows.sort();
    assert_eq!(got_rows, oracle.run(&req));
}

/// A COUNT rolled up from an empty grouped result is 0, not the NULL a SUM
/// over no partial counts gives; AVG over no rows stays NULL. Found through
/// `execute_batch`: Fig. 1's `TotalVisible` is derived from a sibling zone
/// whenever a selection filters every row out.
#[test]
fn count_rolled_up_from_an_empty_result_is_zero() {
    let oracle = Oracle::new();
    let db = Arc::clone(oracle.tde.database());
    let qp = QueryProcessor::default();
    qp.registry
        .register(Arc::new(SimDb::new("faa", db, SimConfig::default())), 4);
    let nothing = || Expr::Between {
        expr: Box::new(col("distance")),
        low: Value::Int(-10),
        high: Value::Int(-5),
    };
    let base = || QuerySpec::new("faa", LogicalPlan::scan("flights")).filter(nothing());
    let batch = vec![
        (
            "by_carrier".to_string(),
            base()
                .group("carrier")
                .agg(AggCall::new(AggFunc::Count, None, "n"))
                .agg(AggCall::new(AggFunc::Sum, Some(col("arr_delay")), "s"))
                .agg(AggCall::new(AggFunc::Count, Some(col("arr_delay")), "c")),
        ),
        (
            "total".to_string(),
            base()
                .agg(AggCall::new(AggFunc::Count, None, "n"))
                .agg(AggCall::new(AggFunc::Count, Some(col("arr_delay")), "c"))
                .agg(AggCall::new(AggFunc::Avg, Some(col("arr_delay")), "avg")),
        ),
    ];
    let out = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
    assert_eq!((out.report.remote, out.report.local), (1, 1));
    assert!(out.results["by_carrier"].is_empty());
    assert_eq!(
        out.results["total"].to_rows(),
        vec![vec![Value::Int(0), Value::Int(0), Value::Null]]
    );
    assert_eq!(out.results["total"].to_rows(), oracle.run(&batch[1].1));
}
