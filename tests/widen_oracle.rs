//! Widening oracle: a processor that lifts single-column filters into the
//! grouping of the query it sends, and answers the original (and every later
//! variant) from that widened result, must give exactly the answer of direct
//! evaluation. Randomized over filter sequences on Int, Date, Real and
//! case-insensitive Str columns (NULLs, `-0.0` and NaN included), filters no
//! row passes, the storm's row-level-security filter, and AVG (two of one
//! column, beside its SUM and COUNT, and over a group with no values), MIN /
//! MAX and COUNTD; over a simulated
//! warehouse and the TDE as a source; one query at a time and in batches.

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tabviz::cache::intelligent::CacheConfig;
use tabviz::prelude::*;

const ROWS: usize = 900;

const REALS: [f64; 8] = [-2.5, -0.0, 0.0, 0.5, 1.0, 3.25, f64::NAN, 7.0];
const WORDS: [&str; 9] = [
    "apple", "Apple", "APPLE", "banana", "Banana", "cherry", "date", "Date", "elder",
];
const DAY0: i32 = 18_000;

/// One table, `t`: a group column `g`, the storm's `cancelled`, a filter
/// column of each type (`i` is NULL in a third of the rows, `r` holds `-0.0`,
/// `0.0` and NaN, `s` compares case-insensitively), a measure `m` with
/// NULLs of its own and a measure `z` that is NULL in every row of group
/// `g = 'w'`.
fn database() -> Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    Arc::clone(DB.get_or_init(|| {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("g", DataType::Str),
                Field::new("cancelled", DataType::Bool),
                Field::new("i", DataType::Int),
                Field::new("d", DataType::Date),
                Field::new("r", DataType::Real),
                Field::new("s", DataType::Str).with_collation(Collation::CaseInsensitive),
                Field::new("m", DataType::Int),
                Field::new("z", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = (0..ROWS)
            .map(|k| {
                let h = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                vec![
                    Value::from(["n", "s", "e", "w"][k % 4]),
                    Value::Bool(k % 5 == 0),
                    if k % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int((h % 40) as i64)
                    },
                    Value::Date(DAY0 + (h % 60) as i32),
                    Value::Real(REALS[(h as usize / 7) % REALS.len()]),
                    Value::from(WORDS[(h as usize / 3) % WORDS.len()]),
                    if k % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int((h % 101) as i64 - 20)
                    },
                    if k % 4 == 3 {
                        Value::Null
                    } else {
                        Value::Int((h % 13) as i64)
                    },
                ]
            })
            .collect();
        let db = Arc::new(Database::new("wh"));
        db.put(Table::from_chunk("t", &Chunk::from_rows(schema, &rows).unwrap(), &["g"]).unwrap())
            .unwrap();
        db
    }))
}

/// A widening processor over `database()`. Results of any cost are cached,
/// so later queries are answered from earlier widened results.
fn processor(simulated: bool) -> QueryProcessor {
    let config = CacheConfig {
        min_cost: Duration::ZERO,
        ..Default::default()
    };
    let qp = QueryProcessor::new(QueryCaches::new(config));
    assert!(qp.options.widen_for_reuse);
    if simulated {
        let sim = SimDb::new("wh", database(), SimConfig::default());
        qp.registry.register(Arc::new(sim), 4);
    } else {
        qp.registry
            .register(Arc::new(TdeDataSource::new("wh", database())), 4);
    }
    qp
}

fn reference(spec: &QuerySpec) -> Vec<Vec<Value>> {
    let mut rows = Tde::new(database())
        .execute_plan(&spec.to_plan().unwrap(), &ExecOptions::serial())
        .unwrap()
        .to_rows();
    rows.sort();
    rows
}

/// Equal modulo row order; reals to 1e-9 relative (a rolled-up sum adds the
/// same numbers in another order). NaN equals NaN, as in `Value`'s order.
fn same_rows(got: &Chunk, expected: &[Vec<Value>]) -> bool {
    let mut rows = got.to_rows();
    rows.sort();
    rows.len() == expected.len()
        && rows.iter().zip(expected).all(|(g, e)| {
            g.len() == e.len()
                && g.iter().zip(e).all(|(x, y)| match (x, y) {
                    (Value::Real(p), Value::Real(q)) if x != y => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs())
                    }
                    _ => x == y,
                })
        })
}

/// A literal of the filter column `c`, drawn from (and a little outside) its
/// domain.
fn literal(c: usize, k: usize) -> Value {
    match c {
        0 => Value::Int(k as i64 % 44 - 2),
        1 => Value::Date(DAY0 - 2 + (k % 64) as i32),
        2 => Value::Real(REALS[k % REALS.len()]),
        _ => Value::from(["a", "APPLE", "b", "Banana", "c", "CHERRY", "dA", "e", "z"][k % 9]),
    }
}

/// One filter on column `c` (`i`, `d`, `r` or `s`) of shape `shape`: `=`,
/// `<`, `<=`, `>`, `>=` with the literal on either side, `BETWEEN`, a
/// small `IN`, or `=` a value no row holds.
fn filter(c: usize, shape: usize, k: usize) -> Expr {
    let column = col(["i", "d", "r", "s"][c]);
    let lit = |k| Expr::Literal(literal(c, k));
    match shape {
        0..=4 => {
            let op = [BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge][shape];
            bin(op, column, lit(k))
        }
        5..=9 => {
            // The same comparisons, written literal first.
            let op = [BinOp::Eq, BinOp::Gt, BinOp::Ge, BinOp::Lt, BinOp::Le][shape - 5];
            bin(op, lit(k), column)
        }
        10 => {
            let (a, b) = (literal(c, k), literal(c, k / 3 + 1));
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            Expr::Between {
                expr: Box::new(column),
                low,
                high,
            }
        }
        11 => Expr::In {
            expr: Box::new(column),
            list: (0..1 + k % 3).map(|j| literal(c, k + 5 * j)).collect(),
            negated: false,
        },
        _ => {
            let none = [
                Value::Int(1_000),
                Value::Date(DAY0 + 1_000),
                Value::Real(99.5),
                Value::from("zzz"),
            ];
            bin(BinOp::Eq, column, Expr::Literal(none[c].clone()))
        }
    }
}

/// The storm's row-level-security filter.
fn rls() -> Expr {
    bin(BinOp::Eq, col("cancelled"), lit(false))
}

fn measure(i: usize) -> AggCall {
    let alias = format!("a{i}");
    match i {
        0 => AggCall::new(AggFunc::Count, None, alias),
        1 => AggCall::new(AggFunc::Count, Some(col("m")), alias),
        2 => AggCall::new(AggFunc::Sum, Some(col("m")), alias),
        3 => AggCall::new(AggFunc::Avg, Some(col("m")), alias),
        4 => AggCall::new(AggFunc::Min, Some(col("m")), alias),
        5 => AggCall::new(AggFunc::Max, Some(col("r")), alias),
        6 => AggCall::new(AggFunc::Min, Some(col("d")), alias),
        7 => AggCall::new(AggFunc::CountD, Some(col("m")), alias),
        8 => AggCall::new(AggFunc::Avg, Some(col("m")), alias),
        _ => AggCall::new(AggFunc::Avg, Some(col("z")), alias),
    }
}

/// (filters as (column, shape, literal seed), with RLS, group columns,
/// measures)
type Step = (
    Vec<(usize, usize, usize)>,
    bool,
    Vec<&'static str>,
    Vec<usize>,
);

fn arb_step() -> impl Strategy<Value = Step> {
    (
        proptest::collection::vec((0usize..4, 0usize..13, 0usize..200), 1..=2),
        any::<bool>(),
        proptest::sample::subsequence(vec!["g", "cancelled"], 0..=2),
        proptest::sample::subsequence((0..10).collect::<Vec<usize>>(), 1..=3),
    )
}

fn spec_of((filters, with_rls, groups, measures): &Step) -> QuerySpec {
    let mut spec = QuerySpec::new("wh", LogicalPlan::scan("t"));
    for &(c, shape, k) in filters {
        spec = spec.filter(filter(c, shape, k));
    }
    if *with_rls {
        spec = spec.filter(rls());
    }
    for g in groups {
        spec = spec.group(*g);
    }
    for &m in measures {
        spec = spec.agg(measure(m));
    }
    spec
}

fn has_countd(spec: &QuerySpec) -> bool {
    spec.aggs.iter().any(|a| a.func == AggFunc::CountD)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48), ..ProptestConfig::default() })]

    #[test]
    fn widened_answers_equal_direct_evaluation(
        steps in proptest::collection::vec(arb_step(), 2..=8),
        simulated in any::<bool>(),
        batched in any::<bool>(),
    ) {
        let qp = processor(simulated);
        for step in &steps {
            let spec = spec_of(step);
            let widened = qp.stats().widened_queries;
            let got = if batched {
                // A dashboard's zones: the same filters, another grouping.
                let mut sibling = spec.clone();
                sibling.group_by = vec!["g".into()];
                let batch = vec![("zone".to_string(), spec.clone()), ("sibling".to_string(), sibling.clone())];
                let out = execute_batch(&qp, &batch, &BatchOptions::default()).unwrap();
                prop_assert!(out.is_complete(), "failed {:?}", out.failed);
                prop_assert!(
                    same_rows(&out.results["sibling"], &reference(&sibling)),
                    "sibling {sibling:?}\ngot {:?}\nexpected {:?}",
                    out.results["sibling"].to_rows(), reference(&sibling)
                );
                out.results["zone"].clone()
            } else {
                qp.execute(&spec).unwrap().0
            };
            prop_assert!(
                same_rows(&got, &reference(&spec)),
                "{spec:?}\ngot {:?}\nexpected {:?}",
                got.to_rows(), reference(&spec)
            );
            if !batched && has_countd(&spec) {
                prop_assert_eq!(qp.stats().widened_queries, widened, "COUNTD widened: {:?}", spec);
            }
        }
    }
}

/// Every filter shape the rule lifts does widen — so the oracle above is not
/// passing by answering directly — and a later variant of it is answered
/// from the widened result alone.
#[test]
fn every_liftable_shape_widens_and_serves_its_variants() {
    let cases: Vec<(Expr, Expr)> = vec![
        (filter(0, 2, 20), filter(0, 4, 11)), // Int, NULL-heavy: <= then >=
        (filter(0, 10, 30), filter(0, 11, 7)), // Int BETWEEN, then IN
        (filter(1, 1, 40), filter(1, 8, 12)), // Date <, then literal-first
        (filter(1, 10, 9), filter(1, 0, 33)), // Date BETWEEN, then =
        (filter(2, 0, 1), filter(2, 2, 6)),   // Real = -0.0, then <= NaN
        (filter(2, 4, 2), filter(2, 11, 6)),  // Real >= 0.0, then IN with NaN
        (filter(3, 3, 1), filter(3, 2, 3)),   // Str > 'APPLE', <= 'Banana'
        (filter(3, 10, 4), filter(3, 0, 7)),  // Str BETWEEN, then = 'dA'
    ];
    for simulated in [false, true] {
        for (first, variant) in &cases {
            for with_rls in [false, true] {
                let qp = processor(simulated);
                let spec = |f: &Expr| {
                    let mut s = QuerySpec::new("wh", LogicalPlan::scan("t"))
                        .filter(f.clone())
                        .group("g")
                        .agg(measure(0))
                        .agg(measure(3))
                        .agg(measure(5));
                    if with_rls {
                        s = s.filter(rls());
                    }
                    s
                };
                let (got, outcome) = qp.execute(&spec(first)).unwrap();
                assert_eq!(outcome, ExecOutcome::Remote);
                assert_eq!(qp.stats().widened_queries, 1, "{first:?} did not widen");
                assert!(same_rows(&got, &reference(&spec(first))), "{first:?}");
                let (got, outcome) = qp.execute(&spec(variant)).unwrap();
                assert_eq!(outcome, ExecOutcome::IntelligentHit, "{variant:?}");
                assert_eq!(qp.stats().remote_queries, 1);
                assert!(
                    same_rows(&got, &reference(&spec(variant))),
                    "{variant:?}\ngot {:?}\nexpected {:?}",
                    got.to_rows(),
                    reference(&spec(variant))
                );
            }
        }
    }
}
