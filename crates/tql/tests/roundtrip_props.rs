//! Property tests: writer→parser round trips for random expressions and
//! plans, and evaluation invariants.

use proptest::prelude::*;
use std::sync::Arc;
use tabviz_common::{Chunk, DataType, Field, Schema, Value};
use tabviz_tql::expr::{Expr, UnaryOp};
use tabviz_tql::parser::{parse_expr, parse_plan};
use tabviz_tql::{write_expr, write_plan, AggCall, AggFunc, BinOp, LogicalPlan, SortKey};

fn arb_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (-5.0f64..5.0).prop_map(|r| Value::Real((r * 4.0).round() / 4.0)),
        any::<bool>().prop_map(Value::Bool),
        (-100i32..100).prop_map(Value::Date),
        proptest::sample::select(vec!["AA", "x y", "quo\"te", "back\\slash", ""])
            .prop_map(|s| Value::Str(s.to_string())),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        proptest::sample::select(vec!["a", "b", "c"]).prop_map(|c| Expr::Column(c.to_string())),
        arb_literal().prop_map(Expr::Literal),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                proptest::sample::select(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ]),
                inner.clone(),
                inner.clone(),
            )
                .prop_map(|(op, l, r)| Expr::Binary {
                    op,
                    left: Box::new(l),
                    right: Box::new(r)
                }),
            (
                proptest::sample::select(vec![
                    UnaryOp::Not,
                    UnaryOp::Neg,
                    UnaryOp::IsNull,
                    UnaryOp::IsNotNull
                ]),
                inner.clone(),
            )
                .prop_map(|(op, e)| Expr::Unary {
                    op,
                    expr: Box::new(e)
                }),
            (
                inner.clone(),
                proptest::collection::vec(arb_literal(), 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::In {
                    expr: Box::new(e),
                    list,
                    negated
                }),
            (inner, arb_literal(), arb_literal()).prop_map(|(e, lo, hi)| Expr::Between {
                expr: Box::new(e),
                low: lo,
                high: hi
            }),
        ]
    })
}

fn arb_plan() -> impl Strategy<Value = LogicalPlan> {
    let scan = proptest::sample::select(vec!["t", "u"]).prop_map(LogicalPlan::scan);
    scan.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (arb_expr(), inner.clone()).prop_map(|(p, i)| i.select(p)),
            (inner.clone(), proptest::sample::select(vec!["a", "b"])).prop_map(|(i, g)| {
                i.aggregate(
                    vec![(Expr::Column(g.to_string()), g.to_string())],
                    vec![AggCall::new(AggFunc::Count, None, "n")],
                )
            }),
            (inner.clone(), 1usize..10).prop_map(|(i, n)| i.topn(n, vec![SortKey::desc("a")])),
            (inner.clone()).prop_map(|i| i.order(vec![SortKey::asc("a"), SortKey::desc("b")])),
            (inner.clone(), inner).prop_map(|(l, r)| l.join(
                r,
                vec![("a".to_string(), "b".to_string())],
                tabviz_tql::JoinType::Left
            )),
        ]
    })
}

proptest! {
    #[test]
    fn expr_write_parse_roundtrip(e in arb_expr()) {
        let text = write_expr(&e);
        let parsed = parse_expr(&text).unwrap();
        prop_assert_eq!(parsed, e, "text: {}", text);
    }

    #[test]
    fn plan_write_parse_roundtrip(p in arb_plan()) {
        let text = write_plan(&p);
        let parsed = parse_plan(&text).unwrap();
        prop_assert_eq!(parsed, p, "text: {}", text);
    }

    /// Predicate evaluation is deterministic and mask length == chunk length.
    #[test]
    fn eval_is_total_and_deterministic(e in arb_expr(), rows in 0usize..20) {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
                Field::new("c", DataType::Str),
            ])
            .unwrap(),
        );
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    if i % 5 == 0 { Value::Null } else { Value::Int(i as i64 - 6) },
                    Value::Int((i * 3) as i64 % 7),
                    Value::Str(["AA", "x y", ""][i % 3].to_string()),
                ]
            })
            .collect();
        let chunk = Chunk::from_rows(schema, &data).unwrap();
        // Evaluation may fail on type mismatches (random trees); when it
        // succeeds it must be shape-correct and repeatable.
        if let Ok(out1) = e.eval(&chunk) {
            let out2 = e.eval(&chunk).unwrap();
            prop_assert_eq!(out1.len(), rows);
            for i in 0..rows {
                prop_assert_eq!(out1.get(i), out2.get(i));
            }
        }
    }
}
