//! Compression-aware scan-path oracle: for randomized sargable predicates
//! over a table that exercises every codec (dict, dict-rle, rle, delta,
//! plain, null-heavy, all-null blocks), the zone-skipping pushdown scan —
//! serial, parallel, and with pushdown disabled — must return exactly the
//! rows a brute-force full scan + vectorized predicate evaluation selects.
//! The brute force spells `BETWEEN` as two comparisons, so the typed range
//! kernels the scan uses are never their own witness.

#![allow(clippy::field_reassign_with_default)]

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::Arc;
use tabviz::prelude::*;
use tabviz::tde::cost::CostProfile;
use tabviz::tde::parallel::ParallelOptions;
use tabviz::tql::expr::{bin, col, lit, Expr, UnaryOp};
use tabviz::tql::{BinOp, LogicalPlan};

const POOL: [&str; 4] = ["ak", "ca", "ny", "tx"];
const CITIES: [&str; 8] = ["atl", "bos", "chi", "dal", "den", "jfk", "lax", "sea"];

/// Build a table whose columns land on every physical layout:
/// * `g`  Str, non-decreasing function of the row id → dict-rle;
/// * `s`  Str, pseudo-random short runs → dict (plain codes);
/// * `d`  Int, globally ascending, no nulls → delta;
/// * `r`  Int, long constant runs → rle;
/// * `v`  Int, pseudo-random with scattered nulls → plain;
/// * `nv` Int, ~90% null → null-heavy, its NULL runs long enough for rle;
/// * `z`  Int, NULL for the entire first half → leading all-null blocks;
/// * `x`  Real, pseudo-random with NULLs, NaN, 0.0 and −0.0 → plain;
/// * `t`  Date, pseudo-random with NULLs → plain.
fn oracle_table(rows: usize) -> (Tde, Chunk) {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("s", DataType::Str),
            Field::new("d", DataType::Int),
            Field::new("r", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("nv", DataType::Int),
            Field::new("z", DataType::Int),
            Field::new("x", DataType::Real),
            Field::new("t", DataType::Date),
        ])
        .unwrap(),
    );
    let mut data: Vec<Vec<Value>> = Vec::with_capacity(rows);
    for i in 0..rows {
        // Deterministic pseudo-random stream (no external RNG needed).
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
        let g = POOL[i * POOL.len() / rows.max(1)];
        let s = CITIES[(h % 8) as usize];
        let v = if h.is_multiple_of(11) {
            Value::Null
        } else {
            Value::Int((h % 201) as i64 - 100)
        };
        let nv = if !h.is_multiple_of(10) {
            Value::Null
        } else {
            Value::Int((h % 50) as i64)
        };
        let z = if i < rows / 2 {
            Value::Null
        } else {
            Value::Int(i as i64)
        };
        let x = match h % 13 {
            0 => Value::Null,
            1 => Value::Real(f64::NAN),
            2 => Value::Real(-0.0),
            3 => Value::Real(0.0),
            _ => Value::Real((h % 801) as f64 / 4.0 - 100.0),
        };
        let t = if h.is_multiple_of(7) {
            Value::Null
        } else {
            Value::Date((h % 365) as i32 - 100)
        };
        data.push(vec![
            Value::Str(g.into()),
            Value::Str(s.into()),
            Value::Int(i as i64),
            Value::Int((i / 500) as i64),
            v,
            nv,
            z,
            x,
            t,
        ]);
    }
    let chunk = Chunk::from_rows(schema, &data).unwrap();
    let db = Arc::new(Database::new("oracle"));
    // Rows are already in (g, d) order, so the sort is a stable no-op and
    // `chunk` doubles as the decoded ground truth.
    let table = Table::from_chunk("t", &chunk, &["g", "d"]).unwrap();
    for name in ["v", "x", "t"] {
        let codec = table.column_by_name(name).unwrap().codec_name();
        assert!(rows < 97 || codec == "plain", "{name} is {codec}");
    }
    db.put(table).unwrap();
    (Tde::new(db), chunk)
}

fn configs() -> Vec<(&'static str, ExecOptions)> {
    let forced = CostProfile {
        min_work_per_thread: 500,
        max_dop: 4,
    };
    let mut all = vec![("serial-pushdown", ExecOptions::serial())];
    let mut off = ExecOptions::serial();
    off.physical.enable_scan_pushdown = false;
    all.push(("serial-no-pushdown", off));
    let mut no_rle = ExecOptions::serial();
    no_rle.physical.enable_rle_index = false;
    all.push(("serial-no-rle-index", no_rle));
    let mut par = ExecOptions::default();
    par.parallel = ParallelOptions {
        profile: forced,
        ..Default::default()
    };
    all.push(("parallel-pushdown", par));
    let mut par_off = ExecOptions::default();
    par_off.parallel = ParallelOptions {
        profile: forced,
        ..Default::default()
    };
    par_off.physical.enable_scan_pushdown = false;
    all.push(("parallel-no-pushdown", par_off));
    all
}

/// Brute force: evaluate the predicate over the fully decoded chunk and keep
/// the passing rows.
fn brute_force(full: &Chunk, pred: &Expr) -> Vec<Vec<Value>> {
    let mask = two_comparisons(pred).eval_predicate(full).unwrap();
    full.to_rows()
        .into_iter()
        .zip(&mask)
        .filter(|(_, &m)| m)
        .map(|(r, _)| r)
        .collect()
}

/// `pred` with each `e BETWEEN low AND high` of non-NULL bounds spelled
/// `e >= low AND e <= high`: the same rows, through the comparison
/// evaluator instead of the range kernel under test. (A NULL low bound is
/// vacuous in `BETWEEN` but not in `>=`, so those stay as they are.)
fn two_comparisons(pred: &Expr) -> Expr {
    match pred {
        Expr::Between { expr, low, high } if !low.is_null() && !high.is_null() => bin(
            BinOp::And,
            bin(BinOp::Ge, (**expr).clone(), Expr::Literal(low.clone())),
            bin(BinOp::Le, (**expr).clone(), Expr::Literal(high.clone())),
        ),
        Expr::Binary { op, left, right } => bin(*op, two_comparisons(left), two_comparisons(right)),
        other => other.clone(),
    }
}

fn check_against_oracle(tde: &Tde, full: &Chunk, pred: &Expr) {
    let mut expected = brute_force(full, pred);
    expected.sort();
    let plan = LogicalPlan::scan("t").select(pred.clone());
    for (name, opts) in configs() {
        let mut rows = tde.execute_plan(&plan, &opts).unwrap().to_rows();
        rows.sort();
        assert_eq!(rows, expected, "config {name} diverged on {pred}");
    }
}

fn int_col() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["d", "r", "v", "nv", "z"])
}

fn str_col() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["g", "s"])
}

fn cmp_op() -> impl Strategy<Value = BinOp> {
    proptest::sample::select(vec![
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ])
}

fn str_lit() -> impl Strategy<Value = &'static str> {
    // "zz" matches nothing.
    proptest::sample::select(vec!["ak", "ca", "ny", "tx", "jfk", "lax", "zz"])
}

/// One random sargable conjunct over one column. The integer-literal range
/// intentionally overshoots the data so zone maps see refutable
/// (never-match) and vacuous (always-match) predicates too.
fn conjunct() -> impl Strategy<Value = Expr> {
    let int_lit = -120i64..12_000i64;
    prop_oneof![
        (int_col(), cmp_op(), int_lit.clone(), any::<bool>()).prop_map(|(c, op, l, flipped)| {
            if flipped {
                bin(op, lit(l), col(c))
            } else {
                bin(op, col(c), lit(l))
            }
        }),
        (str_col(), cmp_op(), str_lit()).prop_map(|(c, op, l)| bin(op, col(c), lit(l))),
        (
            str_col(),
            proptest::collection::vec(str_lit(), 1..4),
            any::<bool>()
        )
            .prop_map(|(c, vals, negated)| Expr::In {
                expr: Box::new(col(c)),
                list: vals.into_iter().map(|s| Value::Str(s.into())).collect(),
                negated,
            }),
        (int_col(), int_lit.clone(), int_lit).prop_map(|(c, a, b)| Expr::Between {
            expr: Box::new(col(c)),
            low: Value::Int(a.min(b)),
            high: Value::Int(a.max(b)),
        }),
        (int_col(), any::<bool>()).prop_map(|(c, not)| Expr::Unary {
            op: if not {
                UnaryOp::IsNotNull
            } else {
                UnaryOp::IsNull
            },
            expr: Box::new(col(c)),
        }),
    ]
}

/// One random *arithmetic* sargable conjunct: `f(col) cmp literal` where
/// `f` composes +/-/*// with literal operands (the shapes the zone-map
/// interval analysis claims to bound). Multipliers cross zero and divisors
/// are Real so both orientation flips and Int→Real promotion get exercised.
fn arith_conjunct() -> impl Strategy<Value = Expr> {
    let shift = -200i64..200i64;
    let mult = proptest::sample::select(vec![-7i64, -2, -1, 0, 1, 2, 3, 11]);
    let divisor = proptest::sample::select(vec![-4.0f64, -0.5, 0.5, 2.0, 8.0]);
    let inner = (shift, mult, divisor, 0u8..5u8).prop_map(|(a, m, dv, shape)| match shape {
        0 => bin(BinOp::Add, col("v"), lit(a)),
        1 => bin(BinOp::Sub, lit(a), col("d")),
        2 => bin(BinOp::Mul, col("r"), lit(m)),
        3 => bin(BinOp::Div, col("z"), lit(dv)),
        _ => bin(BinOp::Mul, bin(BinOp::Add, col("nv"), lit(a)), lit(m)),
    });
    let cmp_lit = -12_000i64..12_000i64;
    (inner, cmp_op(), cmp_lit, any::<bool>()).prop_map(|(f, op, l, flipped)| {
        if flipped {
            bin(op, lit(l), f)
        } else {
            bin(op, f, lit(l))
        }
    })
}

/// Literal pairs for the typed columns, one strategy per type: Int (`v`
/// plain, `nv` rle), Real (`x`) and Date (`t`), every literal of the column's
/// own type and reaching the type's extremes (`i64::MIN`/`MAX`, ±inf, NaN,
/// −0.0).
fn typed_bounds() -> [BoxedStrategy<(&'static str, Value, Value)>; 3] {
    let int_lit = prop_oneof![
        -120i64..120i64,
        proptest::sample::select(vec![i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX]),
    ]
    .boxed();
    let real_lit = prop_oneof![
        (-400i64..400i64).prop_map(|q| q as f64 / 4.0),
        proptest::sample::select(vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ]),
    ]
    .boxed();
    let date_lit = prop_oneof![
        -110i32..280i32,
        proptest::sample::select(vec![i32::MIN, i32::MAX]),
    ]
    .boxed();
    [
        (
            proptest::sample::select(vec!["v", "nv"]),
            int_lit.clone(),
            int_lit,
        )
            .prop_map(|(c, a, b)| (c, Value::Int(a), Value::Int(b)))
            .boxed(),
        (Just("x"), real_lit.clone(), real_lit)
            .prop_map(|(c, a, b)| (c, Value::Real(a), Value::Real(b)))
            .boxed(),
        (Just("t"), date_lit.clone(), date_lit)
            .prop_map(|(c, a, b)| (c, Value::Date(a), Value::Date(b)))
            .boxed(),
    ]
}

/// One conjunct the typed slice kernels take, over a column and literals
/// from `bounds`: `col <cmp> literal` (`<>` included), or `col BETWEEN low
/// AND high` with equal bounds or with bounds in either order (low > high
/// selects nothing).
fn typed_conjunct(
    bounds: impl Strategy<Value = (&'static str, Value, Value)>,
) -> impl Strategy<Value = Expr> {
    (bounds, cmp_op(), 0u8..3).prop_map(|((c, a, b), op, shape)| match shape {
        0 => bin(op, col(c), Expr::Literal(a)),
        1 => Expr::Between {
            expr: Box::new(col(c)),
            low: a.clone(),
            high: a,
        },
        _ => Expr::Between {
            expr: Box::new(col(c)),
            low: a,
            high: b,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48), ..ProptestConfig::default() })]

    #[test]
    fn pushdown_scan_matches_brute_force(
        conjuncts in proptest::collection::vec(conjunct(), 1..=3),
        rows in proptest::sample::select(vec![1usize, 97, 4_096, 10_000]),
    ) {
        let (tde, full) = oracle_table(rows);
        let pred = tabviz::tql::expr::and_all(conjuncts);
        check_against_oracle(&tde, &full, &pred);
    }

    #[test]
    fn arith_pushdown_matches_brute_force(
        conjuncts in proptest::collection::vec(arith_conjunct(), 1..=2),
        rows in proptest::sample::select(vec![97usize, 4_096, 10_000]),
    ) {
        let (tde, full) = oracle_table(rows);
        let pred = tabviz::tql::expr::and_all(conjuncts);
        check_against_oracle(&tde, &full, &pred);
    }

    #[test]
    fn typed_kernels_match_brute_force(
        conjunct in {
            let [int, real, date] = typed_bounds();
            typed_conjunct(prop_oneof![int, real, date])
        },
        rows in proptest::sample::select(vec![97usize, 4_096, 10_000]),
    ) {
        let (tde, full) = oracle_table(rows);
        check_against_oracle(&tde, &full, &conjunct);
    }

    /// Two typed conjuncts on columns of different types, in either order:
    /// the second narrows the ids the first selected.
    #[test]
    fn typed_conjuncts_narrow_on_two_columns(
        (a, b) in (0usize..3, 1usize..3).prop_flat_map(|(k, step)| {
            let bounds = typed_bounds();
            (
                typed_conjunct(bounds[k].clone()),
                typed_conjunct(bounds[(k + step) % 3].clone()),
            )
        }),
    ) {
        let (tde, full) = oracle_table(10_000);
        check_against_oracle(&tde, &full, &bin(BinOp::And, a, b));
    }
}

#[test]
fn empty_table_all_configs_agree() {
    let (tde, full) = oracle_table(0);
    for pred in [
        bin(BinOp::Gt, col("d"), lit(5i64)),
        bin(BinOp::Eq, col("g"), lit("ak")),
    ] {
        check_against_oracle(&tde, &full, &pred);
    }
}

/// Predicates engineered for the corners: all-null blocks, null literals,
/// never-match and always-match zones, IS NULL over the half-null column.
#[test]
fn corner_predicates_match_brute_force() {
    let (tde, full) = oracle_table(10_000);
    let preds = vec![
        bin(BinOp::Gt, col("d"), lit(9_990i64)), // last block only
        bin(BinOp::Lt, col("d"), lit(0i64)),     // nothing
        bin(BinOp::Ge, col("d"), lit(0i64)),     // everything
        bin(BinOp::Eq, col("d"), Expr::Literal(Value::Null)), // null literal
        Expr::Unary {
            op: UnaryOp::IsNull,
            expr: Box::new(col("z")),
        }, // exactly the all-null first half
        Expr::Unary {
            op: UnaryOp::IsNotNull,
            expr: Box::new(col("nv")),
        },
        bin(BinOp::Gt, col("z"), lit(7_000i64)), // skips the all-null blocks
        bin(
            BinOp::And,
            bin(BinOp::Eq, col("g"), lit("tx")),
            bin(BinOp::Lt, col("v"), lit(0i64)),
        ),
        Expr::In {
            expr: Box::new(col("g")),
            list: vec![Value::Str("zz".into()), Value::Null],
            negated: false,
        },
        Expr::In {
            expr: Box::new(col("s")),
            list: vec![Value::Str("jfk".into()), Value::Str("lax".into())],
            negated: true,
        },
        Expr::Between {
            expr: Box::new(col("r")),
            low: Value::Int(3),
            high: Value::Int(4),
        },
    ];
    for pred in preds {
        check_against_oracle(&tde, &full, &pred);
    }
}

/// Arithmetic corners: wrapping overflow, negative multipliers, division by
/// negative/fractional literals, null-heavy and all-null-block columns. The
/// brute force evaluates the same wrapping engine semantics, so any zone
/// prune that disagrees with wrapped evaluation would diverge here.
#[test]
fn arith_corner_predicates_match_brute_force() {
    let (tde, full) = oracle_table(10_000);
    let preds = vec![
        // Image of d's first two blocks sits below the bound → skippable.
        bin(
            BinOp::Gt,
            bin(BinOp::Add, col("d"), lit(10i64)),
            lit(9_000i64),
        ),
        // Negative multiplier: orientation must flip, not prune wrongly.
        bin(
            BinOp::Lt,
            bin(BinOp::Mul, col("d"), lit(-3i64)),
            lit(-29_000i64),
        ),
        // lit - col is decreasing.
        bin(
            BinOp::Ge,
            bin(BinOp::Sub, lit(100i64), col("v")),
            lit(150i64),
        ),
        // Division promotes to Real; negative divisor flips.
        bin(
            BinOp::Le,
            bin(BinOp::Div, col("z"), lit(-2.0f64)),
            lit(-4_000i64),
        ),
        // Multiplier zero collapses the image to a constant.
        bin(BinOp::Eq, bin(BinOp::Mul, col("v"), lit(0i64)), lit(0i64)),
        // Null-heavy column: NULL rows must stay excluded.
        bin(BinOp::Gt, bin(BinOp::Add, col("nv"), lit(5i64)), lit(30i64)),
        // Comparison literal NULL matches nothing even through arithmetic.
        bin(
            BinOp::Gt,
            bin(BinOp::Add, col("d"), lit(1i64)),
            Expr::Literal(Value::Null),
        ),
        // Division by literal zero: engine yields all-NULL; not pushed, and
        // either way nothing may match.
        bin(BinOp::Gt, bin(BinOp::Div, col("d"), lit(0i64)), lit(1i64)),
    ];
    for pred in preds {
        check_against_oracle(&tde, &full, &pred);
    }
}

/// Values near `i64::MAX` make `col + shift` wrap in the engine. The checked
/// endpoint evaluation must refuse to prune such blocks so the scan result
/// still equals wrapped brute-force evaluation.
#[test]
fn arith_overflow_wraps_consistently() {
    let schema = Arc::new(Schema::new(vec![Field::new("h", DataType::Int)]).unwrap());
    let data: Vec<Vec<Value>> = (0..5_000)
        .map(|i| {
            let v = if i % 3 == 0 {
                i64::MAX - (i as i64 % 7)
            } else {
                i as i64
            };
            vec![Value::Int(v)]
        })
        .collect();
    let chunk = Chunk::from_rows(schema, &data).unwrap();
    let db = Arc::new(Database::new("ovf"));
    db.put(Table::from_chunk("t", &chunk, &[]).unwrap())
        .unwrap();
    let tde = Tde::new(db);
    let preds = vec![
        // Wraps to negative for the near-MAX rows.
        bin(BinOp::Lt, bin(BinOp::Add, col("h"), lit(100i64)), lit(0i64)),
        bin(
            BinOp::Gt,
            bin(BinOp::Mul, col("h"), lit(2i64)),
            lit(1_000i64),
        ),
        bin(
            BinOp::Ge,
            bin(BinOp::Sub, lit(-5i64), col("h")),
            lit(i64::MIN + 10),
        ),
    ];
    for pred in preds {
        check_against_oracle(&tde, &chunk, &pred);
    }
}

/// The planner must actually push the arithmetic comparison into the scan,
/// and zone maps must skip blocks whose mapped interval refutes it.
#[test]
fn arith_predicates_are_pushed_and_skip_blocks() {
    let (tde, _full) = oracle_table(10_000); // 3 zone-map blocks over d
    let pred = bin(
        BinOp::Gt,
        bin(BinOp::Add, col("d"), lit(10i64)),
        lit(10_000i64),
    );
    let plan = LogicalPlan::scan("t").select(pred);
    let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
    assert!(
        phys.explain().contains("pushed=["),
        "arith comparison must be pushed into the scan: {}",
        phys.explain()
    );
    let before = tabviz::obs::global().snapshot();
    let out = tde.execute_plan(&plan, &ExecOptions::serial()).unwrap();
    assert_eq!(out.len(), 9); // d + 10 > 10_000 ⇒ d ≥ 9_991, i.e. 9_991..=9_999
    let after = tabviz::obs::global().snapshot();
    let delta = |name: &str| {
        let get =
            |m: &std::collections::BTreeMap<String, tabviz::obs::MetricValue>| match m.get(name) {
                Some(tabviz::obs::MetricValue::Counter(c)) => *c,
                _ => 0,
            };
        get(&after).saturating_sub(get(&before))
    };
    assert!(
        delta("tv_tde_blocks_skipped_total") >= 2,
        "blocks whose a+10 image sits below the bound must be zone-skipped"
    );
    // A string column stays unpushed even in arithmetic-free comparisons of
    // unsupported shape (sanity check of the dtype gate).
    let strp = bin(BinOp::Gt, bin(BinOp::Add, col("g"), lit(1i64)), lit(0i64));
    let plan = LogicalPlan::scan("t").select(strp);
    let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
    assert!(
        !phys.explain().contains("pushed=["),
        "string-column arithmetic must not be pushed: {}",
        phys.explain()
    );
}

/// RunAgg — MIN/MAX/SUM/COUNT computed at run granularity over RLE columns
/// without decoding — must agree with a brute-force aggregation over the
/// decoded chunk and with the decode-then-aggregate path
/// (`enable_run_agg = false`), across all scan configs.
#[test]
fn run_agg_min_max_matches_brute_force() {
    let (tde, full) = oracle_table(10_000);
    let q = "(aggregate ((g)) \
             ((min r as lo) (max r as hi) (sum r as s) (count r as c) (count as n)) \
             (scan t))";
    let plan = tabviz::tql::parse_plan(q).unwrap();
    // The serial plan must actually take the run-granularity path — `g` is
    // dict-rle and `r` is rle, so nothing forces a decode.
    let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
    assert!(phys.explain().contains("RunAgg"), "{}", phys.explain());

    use std::collections::BTreeMap;
    let mut groups: BTreeMap<String, (i64, i64, i64, i64, i64)> = BTreeMap::new();
    for row in full.to_rows() {
        let (Value::Str(g), Value::Int(r)) = (row[0].clone(), row[3].clone()) else {
            panic!("unexpected row shape");
        };
        let e = groups.entry(g).or_insert((i64::MAX, i64::MIN, 0, 0, 0));
        e.0 = e.0.min(r);
        e.1 = e.1.max(r);
        e.2 += r;
        e.3 += 1;
        e.4 += 1;
    }
    let mut expected: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(g, (lo, hi, s, c, n))| {
            vec![
                Value::Str(g),
                Value::Int(lo),
                Value::Int(hi),
                Value::Int(s),
                Value::Int(c),
                Value::Int(n),
            ]
        })
        .collect();
    expected.sort();

    let mut no_run = ExecOptions::serial();
    no_run.physical.enable_run_agg = false;
    for (name, opts) in configs().into_iter().chain([("serial-no-run-agg", no_run)]) {
        let mut rows = tde.execute_plan(&plan, &opts).unwrap().to_rows();
        rows.sort();
        assert_eq!(rows, expected, "config {name} diverged");
    }
}

/// MIN/MAX at run granularity must skip null runs exactly like the decoding
/// aggregators: `nz` is an RLE integer column whose every other run is NULL,
/// and one group ("none") is entirely NULL, so its MIN/MAX must come back
/// NULL rather than a sentinel.
#[test]
fn run_agg_min_max_skips_null_runs() {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("nz", DataType::Int),
        ])
        .unwrap(),
    );
    let mut data: Vec<Vec<Value>> = Vec::new();
    for i in 0..4_000usize {
        let k = if i < 2_000 { "some" } else { "none" };
        // 100-row runs; in "some" every other run is NULL, "none" is all NULL.
        let nz = if k == "none" || (i / 100) % 2 == 0 {
            Value::Null
        } else {
            Value::Int((i / 100) as i64)
        };
        data.push(vec![Value::Str(k.into()), nz]);
    }
    let chunk = Chunk::from_rows(schema, &data).unwrap();
    let db = Arc::new(Database::new("nulls"));
    db.put(Table::from_chunk("t", &chunk, &["k"]).unwrap())
        .unwrap();
    let tde = Tde::new(db);
    let q = "(aggregate ((k)) ((min nz as lo) (max nz as hi) (count nz as c)) (scan t))";
    let plan = tabviz::tql::parse_plan(q).unwrap();
    let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
    assert!(phys.explain().contains("RunAgg"), "{}", phys.explain());
    let mut rows = tde
        .execute_plan(&plan, &ExecOptions::serial())
        .unwrap()
        .to_rows();
    rows.sort();
    let mut no_run = ExecOptions::serial();
    no_run.physical.enable_run_agg = false;
    let mut baseline = tde.execute_plan(&plan, &no_run).unwrap().to_rows();
    baseline.sort();
    assert_eq!(rows, baseline);
    // "none" sorts first: all-NULL group aggregates to NULL / NULL / 0.
    assert_eq!(
        rows[0],
        vec![
            Value::Str("none".into()),
            Value::Null,
            Value::Null,
            Value::Int(0)
        ]
    );
    // Odd runs 1,3,...,19 carry values 1..=19.
    assert_eq!(
        rows[1],
        vec![
            Value::Str("some".into()),
            Value::Int(1),
            Value::Int(19),
            Value::Int(1_000)
        ]
    );
}

/// Multi-column RunAgg: a GROUP BY over several RLE columns whose run
/// boundaries do NOT align (runs of 300 and 700 rows) must walk the
/// intersected segments and agree with both a brute-force aggregation over
/// decoded rows and the decode-then-aggregate path. Aggregate arguments are
/// RLE columns with their own misaligned runs, one with periodic NULL runs.
#[test]
fn run_agg_multi_column_groups_match_brute_force() {
    const ROWS: usize = 6_300; // 3 × lcm(300, 700): boundaries interleave
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Int),
            Field::new("val", DataType::Int),
            Field::new("w", DataType::Int),
        ])
        .unwrap(),
    );
    let mut data: Vec<Vec<Value>> = Vec::with_capacity(ROWS);
    for i in 0..ROWS {
        let a = format!("a{}", (i / 300) % 5);
        let b = (i / 700) as i64;
        // Runs of 90; every third run is NULL so run-granularity COUNT/SUM
        // must skip null runs exactly like the decoding aggregators.
        let val = if (i / 90) % 3 == 0 {
            Value::Null
        } else {
            Value::Int((i / 90) as i64 - 20)
        };
        let w = Value::Int((i / 110) as i64 % 13);
        data.push(vec![Value::Str(a), Value::Int(b), val, w]);
    }
    let chunk = Chunk::from_rows(schema, &data).unwrap();
    let db = Arc::new(Database::new("multi"));
    db.put(Table::from_chunk("t", &chunk, &[]).unwrap())
        .unwrap();
    let tde = Tde::new(db);

    for q in [
        // Two group columns, misaligned boundaries.
        "(aggregate ((a) (b)) \
         ((count as n) (count val as c) (sum val as s) (min val as lo) (max w as hi)) \
         (scan t))",
        // Three group columns: w's 110-row runs cut the segments finer.
        "(aggregate ((a) (b) (w)) ((count as n) (sum val as s)) (scan t))",
    ] {
        let plan = tabviz::tql::parse_plan(q).unwrap();
        let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
        assert!(phys.explain().contains("RunAgg"), "{}", phys.explain());

        // Brute force over decoded rows via the generic hash-agg path.
        let mut no_run = ExecOptions::serial();
        no_run.physical.enable_run_agg = false;
        let no_run_phys = tde.plan_physical(&plan, &no_run).unwrap();
        assert!(
            !no_run_phys.explain().contains("RunAgg"),
            "{}",
            no_run_phys.explain()
        );
        let mut expected = tde.execute_plan(&plan, &no_run).unwrap().to_rows();
        expected.sort();
        assert!(!expected.is_empty());

        for (name, opts) in configs() {
            let mut rows = tde.execute_plan(&plan, &opts).unwrap().to_rows();
            rows.sort();
            assert_eq!(rows, expected, "config {name} diverged on {q}");
        }
    }
}

/// Planner guard: a multi-column group with any non-RLE member must fall
/// through to the ordinary aggregate paths (here `s` is dict with plain
/// codes), while an all-RLE pair over the oracle table takes RunAgg and
/// still matches the decode path.
#[test]
fn run_agg_multi_column_requires_all_rle() {
    let (tde, full) = oracle_table(10_000);
    let mixed = tabviz::tql::parse_plan("(aggregate ((g) (s)) ((count as n)) (scan t))").unwrap();
    let phys = tde.plan_physical(&mixed, &ExecOptions::serial()).unwrap();
    assert!(
        !phys.explain().contains("RunAgg"),
        "non-RLE group member must disable RunAgg: {}",
        phys.explain()
    );

    let all_rle = tabviz::tql::parse_plan(
        "(aggregate ((g) (r)) ((count as n) (sum r as s) (min r as lo)) (scan t))",
    )
    .unwrap();
    let phys = tde.plan_physical(&all_rle, &ExecOptions::serial()).unwrap();
    assert!(phys.explain().contains("RunAgg"), "{}", phys.explain());

    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(String, i64), (i64, i64, i64)> = BTreeMap::new();
    for row in full.to_rows() {
        let (Value::Str(g), Value::Int(r)) = (row[0].clone(), row[3].clone()) else {
            panic!("unexpected row shape");
        };
        let e = groups.entry((g, r)).or_insert((0, 0, i64::MAX));
        e.0 += 1;
        e.1 += r;
        e.2 = e.2.min(r);
    }
    let mut expected: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|((g, r), (n, s, lo))| {
            vec![
                Value::Str(g),
                Value::Int(r),
                Value::Int(n),
                Value::Int(s),
                Value::Int(lo),
            ]
        })
        .collect();
    expected.sort();
    let mut rows = tde
        .execute_plan(&all_rle, &ExecOptions::serial())
        .unwrap()
        .to_rows();
    rows.sort();
    assert_eq!(rows, expected);
}

/// The skip counters must actually move: a selective predicate over the
/// sorted delta column proves most blocks unsatisfiable. (Counters are
/// global and monotone, so concurrent tests only add to the delta.)
#[test]
fn selective_scan_skips_blocks() {
    let (tde, _full) = oracle_table(10_000); // 3 zone-map blocks
    let before = tabviz::obs::global().snapshot();
    let plan = LogicalPlan::scan("t").select(bin(BinOp::Gt, col("d"), lit(9_990i64)));
    let out = tde.execute_plan(&plan, &ExecOptions::serial()).unwrap();
    assert_eq!(out.len(), 9);
    let after = tabviz::obs::global().snapshot();
    let delta = |name: &str| {
        let get =
            |m: &std::collections::BTreeMap<String, tabviz::obs::MetricValue>| match m.get(name) {
                Some(tabviz::obs::MetricValue::Counter(c)) => *c,
                _ => 0,
            };
        get(&after).saturating_sub(get(&before))
    };
    assert!(
        delta("tv_tde_blocks_skipped_total") >= 2,
        "first two 4096-row blocks must be zone-skipped"
    );
    assert!(
        delta("tv_tde_rows_prefiltered_total") >= 8_192,
        "prefiltered rows must cover the skipped blocks"
    );
}

/// Range predicates on the sorted delta column must be resolved by the
/// binary search over zone maps — blocks outside the computed interval are
/// refuted without per-block zone tests, and the dedicated counter moves.
/// The result set itself is already covered by the oracle proptests; this
/// pins the mechanism.
#[test]
fn sorted_range_predicates_binary_search_blocks() {
    let (tde, full) = oracle_table(10_000); // 3 zone-map blocks over d
    let before = tabviz::obs::global().snapshot();
    // d is globally ascending even after the (g, d) sort, so the interval
    // for d > 9_990 is exactly the last block.
    let plan = LogicalPlan::scan("t").select(bin(BinOp::Gt, col("d"), lit(9_990i64)));
    let out = tde.execute_plan(&plan, &ExecOptions::serial()).unwrap();
    assert_eq!(out.len(), 9);
    // A BETWEEN over the middle block prunes both ends of the table.
    let between = Expr::Between {
        expr: Box::new(col("d")),
        low: Value::Int(4_200),
        high: Value::Int(4_300),
    };
    check_against_oracle(&tde, &full, &between);
    let after = tabviz::obs::global().snapshot();
    let delta = |name: &str| {
        let get =
            |m: &std::collections::BTreeMap<String, tabviz::obs::MetricValue>| match m.get(name) {
                Some(tabviz::obs::MetricValue::Counter(c)) => *c,
                _ => 0,
            };
        get(&after).saturating_sub(get(&before))
    };
    assert!(
        delta("tv_tde_sorted_range_prunes_total") >= 2,
        "sorted-column binary search must refute out-of-interval blocks"
    );
}

/// Typed `BETWEEN`: the scan runs it on the stored Int/Real/Date slice and
/// the expression evaluator on typed vectors, so the brute force above (the
/// same evaluator) is no independent witness. This reference compares
/// `Value`s row by row. Cases: each native type, a null-heavy column,
/// reversed bounds (nothing passes), a NULL bound (low: vacuous; high:
/// nothing passes), and cross-type literals, which must decline the typed
/// kernels and still agree.
#[test]
fn typed_between_matches_row_reference() {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("x", DataType::Real),
            Field::new("dt", DataType::Date),
            Field::new("nv", DataType::Int),
        ])
        .unwrap(),
    );
    let rows = 9_000usize;
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|row| {
            let h = (row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
            // Two rows in three NULL: null-heavy, yet runs too short for RLE.
            let nv = if h.is_multiple_of(3) {
                Value::Int((h % 50) as i64)
            } else {
                Value::Null
            };
            vec![
                Value::Int((h % 401) as i64 - 200),
                Value::Real((h % 1_001) as f64 / 4.0 - 100.0),
                Value::Date((h % 365) as i32 - 100),
                nv,
            ]
        })
        .collect();
    let full = Chunk::from_rows(schema, &data).unwrap();
    let table = Table::from_chunk("t", &full, &[]).unwrap();
    for name in ["i", "x", "dt", "nv"] {
        let codec = table.column_by_name(name).unwrap().codec_name();
        assert_eq!(codec, "plain", "{name} must reach the slice kernel");
    }
    let db = Arc::new(Database::new("oracle"));
    db.put(table).unwrap();
    let tde = Tde::new(db);

    let between = |c: &str, low: Value, high: Value| Expr::Between {
        expr: Box::new(col(c)),
        low,
        high,
    };
    let cases = vec![
        between("i", Value::Int(-50), Value::Int(75)),
        between("i", Value::Int(75), Value::Int(-50)), // reversed
        between("i", Value::Int(-200), Value::Int(200)), // everything
        between("i", Value::Null, Value::Int(0)),      // NULL low: vacuous
        between("i", Value::Int(0), Value::Null),      // NULL high: nothing
        between("i", Value::Real(-50.5), Value::Real(75.5)), // cross-type
        between("i", Value::Int(-50), Value::Real(75.5)), // mixed bounds
        between("x", Value::Real(-12.25), Value::Real(33.0)),
        between("x", Value::Real(33.0), Value::Real(-12.25)),
        between("x", Value::Int(-12), Value::Int(33)), // cross-type
        between("x", Value::Real(f64::NEG_INFINITY), Value::Real(0.0)),
        between("dt", Value::Date(-10), Value::Date(120)),
        between("dt", Value::Date(120), Value::Date(-10)),
        between("dt", Value::Int(-10), Value::Int(120)), // cross-type
        between("nv", Value::Int(10), Value::Int(30)),   // null-heavy
        between("nv", Value::Int(30), Value::Int(10)),
    ];
    for pred in cases {
        let Expr::Between { expr, low, high } = &pred else {
            unreachable!()
        };
        let ci = full
            .schema()
            .index_of(&expr.columns().into_iter().next().unwrap())
            .unwrap();
        let mut expected: Vec<Vec<Value>> = full
            .to_rows()
            .into_iter()
            .filter(|r| {
                let v = &r[ci];
                !v.is_null()
                    && v.cmp_collated(low, Collation::Binary) != std::cmp::Ordering::Less
                    && v.cmp_collated(high, Collation::Binary) != std::cmp::Ordering::Greater
            })
            .collect();
        expected.sort();
        let mut brute = brute_force(&full, &pred);
        brute.sort();
        assert_eq!(brute, expected, "evaluator diverged on {pred}");
        let plan = LogicalPlan::scan("t").select(pred.clone());
        for (name, opts) in configs() {
            let mut rows = tde.execute_plan(&plan, &opts).unwrap().to_rows();
            rows.sort();
            assert_eq!(rows, expected, "config {name} diverged on {pred}");
        }
        // The selection-vector form a residual Filter / fused HashAgg uses.
        let sel = pred.eval_predicate_sel(&full).unwrap();
        assert_eq!(
            sel.to_mask(full.len()),
            pred.eval_predicate(&full).unwrap(),
            "{pred}"
        );
    }
}
