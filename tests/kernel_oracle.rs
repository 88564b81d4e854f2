//! Keyed-operator oracle: every aggregation and join runs through the
//! engine (packed keys, batch hashing, typed aggregate states, selection
//! vectors) and is compared, as a result set, with a naive row model written
//! here: a `BTreeMap` over the input's `to_rows()` for GROUP BY, a nested
//! loop for equi-joins. The model never calls into the executor. The
//! generated tables cover every `DataType`, null-heavy columns, inline
//! (≤ 7 byte) and interned long strings, case-insensitive collation, empty
//! inputs, and keys of 9, 64, 65 and 70 columns with NULLs past column 63
//! (where the packed key's null bitmap spills into a second word). A table
//! whose every column is run-length encoded checks `RunAggOp`, which feeds
//! the same aggregate states one weighted row per run segment, against the
//! same model.
//!
//! Tables hand the operators tidy string vectors (one sorted dictionary per
//! column). The last section feeds `HashAggOp` and `HashJoinOp` chunks coded
//! against arbitrary string tables instead — a different table per chunk,
//! duplicate and unreferenced entries, out-of-range placeholders on null
//! rows, an all-null column over an empty table — and checks them against
//! the same kind of model.

#![allow(clippy::field_reassign_with_default)]

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tabviz::common::{ColumnVec, NullMask, SchemaRef, StrVec, Values};
use tabviz::prelude::*;
use tabviz::tde::exec::agg::HashAggOp;
use tabviz::tde::exec::join::HashJoinOp;
use tabviz::tde::exec::PhysOp;
use tabviz::tde::physical::{agg_schema, BuildSide, PhysPlan};
use tabviz::tql::expr::{bin, col, lit, Expr};

const SHORT: [&str; 6] = ["ak", "ca", "ny", "tx", "wa", "or"];
const LONG: [&str; 5] = [
    "north-region-alpha",
    "south-region-bravo",
    "east-region-charlie",
    "west-region-delta",
    "central-region-echo",
];
// Pairs differing only by case: under CI collation they must land in the
// same group / join partition.
const CASED: [&str; 6] = ["Alpha", "alpha", "BETA", "beta", "Gamma", "GAMMA"];

/// Fact table exercising every value type the packed-key encoder handles:
/// * `b`   Bool with scattered nulls;
/// * `i`   small Int with scattered nulls;
/// * `s`   short Str (≤ 7 bytes → inline-word fast path) with nulls;
/// * `ls`  long Str (> 7 bytes → interner dict codes) with nulls;
/// * `ci`  case-insensitively collated Str (mixed-case spellings);
/// * `d`   Date with nulls;
/// * `nh`  Int, ~90% null;
/// * `v`   Int aggregate argument (small range — overflow-free);
/// * `w`   Real aggregate argument (negatives and fractions).
fn fact_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("b", DataType::Bool),
            Field::new("i", DataType::Int),
            Field::new("s", DataType::Str),
            Field::new("ls", DataType::Str),
            Field::new("ci", DataType::Str).with_collation(Collation::CaseInsensitive),
            Field::new("d", DataType::Date),
            Field::new("nh", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("w", DataType::Real),
        ])
        .unwrap(),
    )
}

fn fact_rows(rows: usize) -> Vec<Vec<Value>> {
    let mut data = Vec::with_capacity(rows);
    for row in 0..rows {
        // Deterministic pseudo-random stream (no external RNG needed).
        let h = (row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
        let null_every = |k: u64| h.is_multiple_of(k);
        let b = if null_every(13) {
            Value::Null
        } else {
            Value::Bool(h & 1 == 0)
        };
        let i = if null_every(11) {
            Value::Null
        } else {
            Value::Int((h % 7) as i64 - 3)
        };
        let s = if null_every(17) {
            Value::Null
        } else {
            Value::Str(SHORT[(h % 6) as usize].into())
        };
        let ls = if null_every(19) {
            Value::Null
        } else {
            Value::Str(LONG[(h % 5) as usize].into())
        };
        let ci = Value::Str(CASED[(h % 6) as usize].into());
        let d = if null_every(23) {
            Value::Null
        } else {
            Value::Date((h % 90) as i32 - 30)
        };
        let nh = if h.is_multiple_of(10) {
            Value::Int((h % 4) as i64)
        } else {
            Value::Null
        };
        let v = if null_every(29) {
            Value::Null
        } else {
            Value::Int((h % 2_001) as i64 - 1_000)
        };
        let w = if null_every(31) {
            Value::Null
        } else {
            Value::Real((h % 997) as f64 / 8.0 - 60.0)
        };
        data.push(vec![b, i, s, ls, ci, d, nh, v, w]);
    }
    data
}

/// Dimension table joinable against the fact on four different key types.
/// Each key column deliberately omits some fact-side values (unmatched probe
/// rows; for long strings this exercises the frozen-interner miss path) and
/// includes one value the fact never produces (unmatched build rows).
fn dim_chunk() -> Chunk {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("code", DataType::Str),
            Field::new("lcode", DataType::Str),
            Field::new("cicode", DataType::Str).with_collation(Collation::CaseInsensitive),
            Field::new("k", DataType::Int),
            Field::new("label", DataType::Str),
            Field::new("weight", DataType::Real),
        ])
        .unwrap(),
    );
    let rows: Vec<Vec<Value>> = vec![
        // (code, lcode, cicode, k, label, weight)
        vec![
            Value::Str("ak".into()),
            Value::Str("north-region-alpha".into()),
            Value::Str("ALPHA".into()),
            Value::Int(-2),
            Value::Str("first".into()),
            Value::Real(1.5),
        ],
        vec![
            Value::Str("ny".into()),
            Value::Str("east-region-charlie".into()),
            Value::Str("beta".into()),
            Value::Int(0),
            Value::Null,
            Value::Real(-0.25),
        ],
        vec![
            Value::Str("tx".into()),
            Value::Str("west-region-delta".into()),
            Value::Str("gAmMa".into()),
            Value::Int(2),
            Value::Str("third".into()),
            Value::Null,
        ],
        // Values the fact never produces: build rows with zero matches.
        vec![
            Value::Str("zz".into()),
            Value::Str("phantom-region-zulu".into()),
            Value::Str("Delta".into()),
            Value::Int(99),
            Value::Str("ghost".into()),
            Value::Real(9.0),
        ],
    ];
    Chunk::from_rows(schema, &rows).unwrap()
}

fn oracle_tde(rows: usize) -> Tde {
    let db = Arc::new(Database::new("kernel_oracle"));
    let fact = Chunk::from_rows(fact_schema(), &fact_rows(rows)).unwrap();
    // Unsorted so the planner cannot sidestep HashAgg via RunAgg.
    db.put(Table::from_chunk("t", &fact, &[]).unwrap()).unwrap();
    db.put(Table::from_chunk("dim", &dim_chunk(), &[]).unwrap())
        .unwrap();
    put_wide_tables(&db);
    Tde::new(db)
}

/// Serial execution with run aggregation disabled, so every aggregate
/// actually goes through HashAgg rather than the RLE-run plan shape.
fn engine_opts() -> ExecOptions {
    let mut opts = ExecOptions::serial();
    opts.physical.enable_run_agg = false;
    opts
}

fn check_matches_model(tde: &Tde, plan: &LogicalPlan, mut want: Vec<Vec<Value>>) {
    let mut got = tde.execute_plan(plan, &engine_opts()).unwrap().to_rows();
    got.sort();
    want.sort();
    assert_eq!(got, want, "engine diverged from the row model on {plan}");
}

// ---------------------------------------------------------------------------
// The row model.

fn column_name(e: &Expr) -> &str {
    match e {
        Expr::Column(c) => c,
        other => panic!("the model reads plain columns only, not {other}"),
    }
}

/// A group key cell as the model compares it: case-folded under CI.
fn key_cell(v: &Value, collation: Collation) -> Value {
    match v {
        Value::Str(s) if collation == Collation::CaseInsensitive => {
            Value::Str(s.to_ascii_lowercase())
        }
        other => other.clone(),
    }
}

/// One aggregate over a group's rows, the textbook way: NULL arguments are
/// skipped, SUM/MIN/MAX/AVG of no values is NULL, sums run in row order,
/// COUNTD counts values distinct under `Value`'s own (binary) equality.
fn model_agg(call: &AggCall, schema: &Schema, rows: &[&Vec<Value>]) -> Value {
    let Some(arg) = &call.arg else {
        return Value::Int(rows.len() as i64);
    };
    let ai = schema.index_of(column_name(arg)).unwrap();
    let vals: Vec<&Value> = rows
        .iter()
        .map(|r| &r[ai])
        .filter(|v| !v.is_null())
        .collect();
    let real_sum = || {
        vals.iter().fold(0.0, |acc, v| match v {
            Value::Int(i) => acc + *i as f64,
            Value::Real(r) => acc + r,
            other => panic!("numeric aggregate over {other:?}"),
        })
    };
    match call.func {
        AggFunc::Count => return Value::Int(vals.len() as i64),
        AggFunc::CountD => return Value::Int(BTreeSet::from_iter(&vals).len() as i64),
        _ if vals.is_empty() => return Value::Null,
        _ => {}
    }
    match call.func {
        AggFunc::Sum => match vals[0] {
            Value::Int(_) => Value::Int(vals.iter().map(|v| v.as_int().unwrap()).sum()),
            _ => Value::Real(real_sum()),
        },
        AggFunc::Min => (*vals.iter().min().unwrap()).clone(),
        AggFunc::Max => (*vals.iter().max().unwrap()).clone(),
        AggFunc::Avg => Value::Real(real_sum() / vals.len() as f64),
        other => panic!("the model has no {other:?}"),
    }
}

/// GROUP BY `keys` over `rows`: one output row per distinct (collated) key,
/// carrying the first-seen spelling of each key cell, then `aggs`. With no
/// keys, one row even over no input.
fn model_group_by(
    schema: &Schema,
    rows: &[Vec<Value>],
    keys: &[&str],
    aggs: &[AggCall],
) -> Vec<Vec<Value>> {
    let key_cols: Vec<(usize, Collation)> = keys
        .iter()
        .map(|k| {
            let i = schema.index_of(k).unwrap();
            (i, schema.field(i).collation)
        })
        .collect();
    let mut groups: BTreeMap<Vec<Value>, Vec<&Vec<Value>>> = BTreeMap::new();
    for row in rows {
        let key = key_cols
            .iter()
            .map(|&(i, c)| key_cell(&row[i], c))
            .collect();
        groups.entry(key).or_default().push(row);
    }
    if keys.is_empty() && groups.is_empty() {
        groups.insert(vec![], vec![]);
    }
    groups
        .into_values()
        .map(|members| {
            let reps = key_cols.iter().map(|&(i, _)| members[0][i].clone());
            let states = aggs.iter().map(|a| model_agg(a, schema, &members));
            reps.chain(states).collect()
        })
        .collect()
}

/// Equi-join by nested loop: a pair matches when every key pair compares
/// equal under the build column's collation; NULL keys never match; a left
/// join null-fills probe rows without a match.
fn model_join(
    probe: (&Schema, &[Vec<Value>]),
    build: (&Schema, &[Vec<Value>]),
    on: &[(String, String)],
    join_type: JoinType,
) -> Vec<Vec<Value>> {
    let keys: Vec<(usize, usize, Collation)> = on
        .iter()
        .map(|(l, r)| {
            let bi = build.0.index_of(r).unwrap();
            (
                probe.0.index_of(l).unwrap(),
                bi,
                build.0.field(bi).collation,
            )
        })
        .collect();
    let mut out = Vec::new();
    for p in probe.1 {
        let mut matched = false;
        for b in build.1 {
            if keys.iter().all(|&(pi, bi, c)| {
                !p[pi].is_null() && p[pi].cmp_collated(&b[bi], c) == std::cmp::Ordering::Equal
            }) {
                matched = true;
                out.push([p.clone(), b.clone()].concat());
            }
        }
        if !matched && join_type == JoinType::Left {
            out.push([p.clone(), vec![Value::Null; build.0.len()]].concat());
        }
    }
    out
}

fn dim_schema() -> SchemaRef {
    Arc::clone(dim_chunk().schema())
}

/// Fact ⋈ dim on one key pair: the plan and its modelled rows.
fn fact_join(rows: usize, on: (&str, &str), join_type: JoinType) -> (LogicalPlan, Vec<Vec<Value>>) {
    let on = vec![(on.0.to_string(), on.1.to_string())];
    let plan = LogicalPlan::scan("t").join(LogicalPlan::scan("dim"), on.clone(), join_type);
    let want = model_join(
        (&fact_schema(), &fact_rows(rows)),
        (&dim_schema(), &dim_chunk().to_rows()),
        &on,
        join_type,
    );
    (plan, want)
}

// ---------------------------------------------------------------------------
// The mixed-type fact table.

/// The full aggregate spread: COUNT, COUNT(col), SUM int/real, MIN/MAX over
/// Int, Real, Str, Date and Bool, AVG, and COUNTD over every key type. As
/// arguments, the case variants of `ci` are distinct values: MIN/MAX and
/// COUNTD compare binary.
fn agg_calls() -> Vec<AggCall> {
    let mut calls = vec![
        AggCall::new(AggFunc::Count, None, "n"),
        AggCall::new(AggFunc::Count, Some(col("v")), "cv"),
        AggCall::new(AggFunc::Sum, Some(col("v")), "sv"),
        AggCall::new(AggFunc::Sum, Some(col("w")), "sw"),
        AggCall::new(AggFunc::Min, Some(col("v")), "lov"),
        AggCall::new(AggFunc::Max, Some(col("v")), "hiv"),
        AggCall::new(AggFunc::Min, Some(col("w")), "low"),
        AggCall::new(AggFunc::Max, Some(col("w")), "hiw"),
        AggCall::new(AggFunc::Avg, Some(col("v")), "av"),
        AggCall::new(AggFunc::Min, Some(col("s")), "los"),
        AggCall::new(AggFunc::Max, Some(col("d")), "hid"),
        AggCall::new(AggFunc::Min, Some(col("b")), "lob"),
        AggCall::new(AggFunc::Max, Some(col("b")), "hib"),
        AggCall::new(AggFunc::Min, Some(col("ci")), "loci"),
        AggCall::new(AggFunc::Max, Some(col("ci")), "hici"),
    ];
    for c in ["s", "ls", "ci", "d", "i", "w", "nh"] {
        calls.push(AggCall::new(
            AggFunc::CountD,
            Some(col(c)),
            format!("nd_{c}"),
        ));
    }
    calls
}

fn group_plan(table: &str, group_cols: &[&str], aggs: Vec<AggCall>) -> LogicalPlan {
    let group_by = group_cols
        .iter()
        .map(|c| (col(*c), (*c).to_string()))
        .collect();
    LogicalPlan::scan(table).aggregate(group_by, aggs)
}

/// GROUP BY `group_cols` of the fact table against the model.
fn check_fact_group_by(tde: &Tde, rows: usize, group_cols: &[&str]) {
    let want = model_group_by(&fact_schema(), &fact_rows(rows), group_cols, &agg_calls());
    check_matches_model(tde, &group_plan("t", group_cols, agg_calls()), want);
}

fn groupable_col() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["b", "i", "s", "ls", "ci", "d", "nh"])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48), ..ProptestConfig::default() })]

    /// Randomized GROUP BY over 1-3 mixed-type key columns.
    #[test]
    fn grouped_agg_arms_agree(
        cols in proptest::collection::vec(groupable_col(), 1..=3),
        rows in proptest::sample::select(vec![1usize, 257, 4_096]),
    ) {
        let mut seen = std::collections::HashSet::new();
        let mut cols = cols;
        cols.retain(|c| seen.insert(*c));
        check_fact_group_by(&oracle_tde(rows), rows, &cols);
    }

    /// A residual (non-sargable-into-scan) filter under the aggregate: the
    /// engine evaluates it into a selection vector fused into the HashAgg.
    #[test]
    fn filtered_agg_arms_agree(
        gcol in groupable_col(),
        bound in -3i64..=3i64,
        ge in any::<bool>(),
    ) {
        let rows = 2_048;
        let tde = oracle_tde(rows);
        let (pred, keep): (_, fn(i64, i64) -> bool) = if ge {
            (bin(BinOp::Ge, col("i"), lit(bound)), |x, b| x >= b)
        } else {
            (bin(BinOp::Lt, col("i"), lit(bound)), |x, b| x < b)
        };
        let plan = LogicalPlan::scan("t").select(pred).aggregate(
            vec![(col(gcol), gcol.to_string())],
            agg_calls(),
        );
        let ii = fact_schema().index_of("i").unwrap();
        let kept: Vec<Vec<Value>> = fact_rows(rows)
            .into_iter()
            .filter(|r| matches!(r[ii], Value::Int(x) if keep(x, bound)))
            .collect();
        let want = model_group_by(&fact_schema(), &kept, &[gcol], &agg_calls());
        check_matches_model(&tde, &plan, want);
    }

    /// Joins on each key type (inline Str, interned long Str, CI-collated
    /// Str, Int), inner and left. Null probe keys must never match; left
    /// misses must null-fill; CI keys must match across case spellings.
    #[test]
    fn join_arms_agree(
        key in proptest::sample::select(vec![
            ("s", "code"),
            ("ls", "lcode"),
            ("ci", "cicode"),
            ("i", "k"),
        ]),
        left in any::<bool>(),
        rows in proptest::sample::select(vec![1usize, 513, 3_000]),
    ) {
        let jt = if left { JoinType::Left } else { JoinType::Inner };
        let (plan, want) = fact_join(rows, key, jt);
        check_matches_model(&oracle_tde(rows), &plan, want);
    }
}

/// Empty inputs: a grouped aggregate yields no rows, a global aggregate
/// yields exactly one row of identity values, and a join yields nothing.
#[test]
fn empty_input_arms_agree() {
    let tde = oracle_tde(0);
    check_fact_group_by(&tde, 0, &["s", "i"]);
    check_fact_group_by(&tde, 0, &[]);
    for jt in [JoinType::Inner, JoinType::Left] {
        let (plan, want) = fact_join(0, ("s", "code"), jt);
        check_matches_model(&tde, &plan, want);
    }
}

/// Join followed by aggregation over the dimension payload — the e23 shape:
/// a packed-key probe feeds a packed-key aggregate over build-side columns.
#[test]
fn join_then_agg_arms_agree() {
    let rows = 3_000;
    let tde = oracle_tde(rows);
    let aggs = vec![
        AggCall::new(AggFunc::Count, None, "n"),
        AggCall::new(AggFunc::Sum, Some(col("v")), "sv"),
        AggCall::new(AggFunc::Min, Some(col("weight")), "lo"),
    ];
    for key in [("s", "code"), ("ls", "lcode"), ("i", "k")] {
        let (join, joined) = fact_join(rows, key, JoinType::Inner);
        let plan = join.aggregate(vec![(col("label"), "label".into())], aggs.clone());
        let schema = fact_schema().join(&dim_schema());
        let want = model_group_by(&schema, &joined, &["label"], &aggs);
        check_matches_model(&tde, &plan, want);
    }
}

/// Case-insensitive grouping must merge case variants into one group.
#[test]
fn ci_grouping_merges_case_variants() {
    let rows = 1_200;
    let tde = oracle_tde(rows);
    let out = tde
        .execute_plan(&group_plan("t", &["ci"], agg_calls()), &engine_opts())
        .unwrap();
    // CASED holds 3 distinct names under CI collation.
    assert_eq!(out.len(), 3);
    check_fact_group_by(&tde, rows, &["ci"]);
}

/// COUNTD of an untyped NULL literal counts nothing, in every group and
/// in the global aggregate.
#[test]
fn countd_of_untyped_null_is_zero() {
    let tde = oracle_tde(500);
    let calls = vec![
        AggCall::new(AggFunc::CountD, Some(lit(Value::Null)), "nd"),
        AggCall::new(AggFunc::Count, Some(lit(Value::Null)), "n"),
    ];
    for keys in [&["s"][..], &[]] {
        let out = tde
            .execute_plan(&group_plan("t", keys, calls.clone()), &engine_opts())
            .unwrap();
        assert!(!out.is_empty());
        for row in out.to_rows() {
            assert_eq!(
                row[keys.len()..],
                [Value::Int(0), Value::Int(0)],
                "{keys:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// RunAgg: the same states, fed one weighted row per run segment.

/// `rows` rows in which every column is piecewise constant with its own run
/// length (so run boundaries of different columns interleave), taking its
/// values, NULL runs included, from the fact generator. Stored unsorted,
/// every column is run-length encoded.
fn run_rows(rows: usize) -> Vec<Vec<Value>> {
    const RUN: [usize; 9] = [61, 43, 31, 53, 97, 41, 37, 29, 23];
    let base = fact_rows(211);
    (0..rows)
        .map(|r| {
            RUN.iter()
                .enumerate()
                .map(|(c, len)| base[(r / len) % base.len()][c].clone())
                .collect()
        })
        .collect()
}

/// The aggregates RunAgg plans: COUNT, SUM, MIN and MAX over plain columns.
fn run_agg_calls() -> Vec<AggCall> {
    let mut calls = vec![
        AggCall::new(AggFunc::Count, None, "n"),
        AggCall::new(AggFunc::Count, Some(col("nh")), "cnh"),
        AggCall::new(AggFunc::Sum, Some(col("v")), "sv"),
        AggCall::new(AggFunc::Sum, Some(col("w")), "sw"),
    ];
    for c in ["v", "w", "s", "ls", "ci", "d", "b"] {
        calls.push(AggCall::new(AggFunc::Min, Some(col(c)), format!("lo_{c}")));
        calls.push(AggCall::new(AggFunc::Max, Some(col(c)), format!("hi_{c}")));
    }
    calls
}

#[test]
fn run_agg_matches_model() {
    let rows = 3_000;
    let data = run_rows(rows);
    let db = Arc::new(Database::new("run_oracle"));
    let chunk = Chunk::from_rows(fact_schema(), &data).unwrap();
    let table = Table::from_chunk("runs", &chunk, &[]).unwrap();
    for c in 0..table.schema().len() {
        assert!(table.column(c).codec_name().ends_with("rle"), "column {c}");
    }
    db.put(table).unwrap();
    let tde = Tde::new(db);
    let opts = ExecOptions::serial();
    for keys in [&["ci"][..], &["i"], &["ci", "d"], &["b", "s", "nh"]] {
        let plan = group_plan("runs", keys, run_agg_calls());
        let explain = tde.plan_physical(&plan, &opts).unwrap().explain();
        assert!(explain.contains("RunAgg"), "{explain}");
        let mut got = tde.execute_plan(&plan, &opts).unwrap().to_rows();
        let mut want = model_group_by(&fact_schema(), &data, keys, &run_agg_calls());
        got.sort();
        want.sort();
        assert_eq!(got, want, "RunAgg diverged from the row model on {keys:?}");
    }
}

// ---------------------------------------------------------------------------
// Wide keys: 9, 64, 65 and 70 columns.

const WIDE: usize = 70;

/// Key column `i` of the wide tables: Int at 0 and 64, otherwise cycling
/// Int / short Str / long Str / Date / Bool.
fn wide_field(prefix: &str, i: usize) -> Field {
    let dtype = match (i, i % 5) {
        (0 | 64, _) | (_, 0) => DataType::Int,
        (_, 1 | 2) => DataType::Str,
        (_, 3) => DataType::Date,
        _ => DataType::Bool,
    };
    Field::new(format!("{prefix}{i}"), dtype)
}

fn wide_schema(prefix: &str, payload: Field) -> Arc<Schema> {
    let mut fields: Vec<Field> = (0..WIDE).map(|i| wide_field(prefix, i)).collect();
    fields.push(payload);
    Arc::new(Schema::new(fields).unwrap())
}

/// Wide row `r`: every key cell derives from one of 13 base groups, so rows
/// repeat keys; one of four NULL patterns then decides which cells are NULL.
/// Pattern 1 nulls column 0 and pattern 2 column 64, both Int 0 otherwise:
/// the two keys differ only in which null bit is set, one in each bitmap
/// word. Pattern 3 nulls every odd column past 63.
fn wide_row(r: u64, payload: Value) -> Vec<Value> {
    let h = r.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
    let (g, pattern) = ((h % 13) as i64, (h >> 8) % 4);
    let mut row: Vec<Value> = (0..WIDE)
        .map(|i| {
            let null = match pattern {
                1 => i == 0,
                2 => i == 64,
                3 => i >= 64 && i % 2 == 1,
                _ => false,
            };
            let c = i as i64;
            match (i, i % 5) {
                _ if null => Value::Null,
                (0 | 64, _) => Value::Int(0),
                (_, 0) => Value::Int((g * 7 + c) % 11),
                (_, 1) => Value::Str(format!("g{}", (g + c) % 13)),
                (_, 2) => Value::Str(format!("wide-group-{g}-column-{i}")),
                (_, 3) => Value::Date(((g * 3 + c) % 40) as i32),
                _ => Value::Bool((g + c) % 2 == 0),
            }
        })
        .collect();
    row.push(payload);
    row
}

fn wide_rows() -> Vec<Vec<Value>> {
    (0..600)
        .map(|r| {
            let v = if r % 17 == 0 {
                Value::Null
            } else {
                Value::Int((r % 50) as i64 - 25)
            };
            wide_row(r, v)
        })
        .collect()
}

fn wide_dim_rows() -> Vec<Vec<Value>> {
    (1_000..1_040)
        .map(|r| wide_row(r, Value::Str(format!("L{r}"))))
        .collect()
}

fn wide_fact_schema() -> Arc<Schema> {
    wide_schema("k", Field::new("v", DataType::Int))
}

fn wide_dim_schema() -> Arc<Schema> {
    wide_schema("d", Field::new("label", DataType::Str))
}

fn put_wide_tables(db: &Database) {
    for (name, schema, rows) in [
        ("wide", wide_fact_schema(), wide_rows()),
        ("wide_dim", wide_dim_schema(), wide_dim_rows()),
    ] {
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        db.put(Table::from_chunk(name, &chunk, &[]).unwrap())
            .unwrap();
    }
}

/// Key widths: one null-bitmap word (9, 64 columns), then two (65, 70).
const WIDTHS: [usize; 4] = [9, 64, 65, 70];

/// The fact table's widest keys, 8 and 9 columns (the name recalls the
/// former 8-column packed-key limit).
#[test]
fn wide_keys_agree_at_and_past_the_fastpath_limit() {
    let tde = oracle_tde(1_500);
    check_fact_group_by(&tde, 1_500, &["b", "i", "s", "ls", "ci", "d", "nh", "v"]);
    check_fact_group_by(
        &tde,
        1_500,
        &["b", "i", "s", "ls", "ci", "d", "nh", "v", "w"],
    );
}

#[test]
fn wide_group_keys_match_model() {
    let tde = oracle_tde(0);
    let aggs = vec![
        AggCall::new(AggFunc::Count, None, "n"),
        AggCall::new(AggFunc::Sum, Some(col("v")), "sv"),
        AggCall::new(AggFunc::Max, Some(col("v")), "hiv"),
    ];
    for width in WIDTHS {
        let names: Vec<String> = (0..width).map(|i| format!("k{i}")).collect();
        let keys: Vec<&str> = names.iter().map(String::as_str).collect();
        let want = model_group_by(&wide_fact_schema(), &wide_rows(), &keys, &aggs);
        if width > 64 {
            // Patterns 1 and 2 differ only in a null bit of each bitmap word.
            assert!(
                want.len()
                    > model_group_by(&wide_fact_schema(), &wide_rows(), &keys[..64], &aggs).len()
            );
        }
        check_matches_model(&tde, &group_plan("wide", &keys, aggs.clone()), want);
    }
}

#[test]
fn wide_join_keys_match_model() {
    let tde = oracle_tde(0);
    for width in WIDTHS {
        let on: Vec<(String, String)> = (0..width)
            .map(|i| (format!("k{i}"), format!("d{i}")))
            .collect();
        for jt in [JoinType::Inner, JoinType::Left] {
            let plan =
                LogicalPlan::scan("wide").join(LogicalPlan::scan("wide_dim"), on.clone(), jt);
            let want = model_join(
                (&wide_fact_schema(), &wide_rows()),
                (&wide_dim_schema(), &wide_dim_rows()),
                &on,
                jt,
            );
            if jt == JoinType::Inner {
                assert!(!want.is_empty(), "{width}-column join must match some rows");
            }
            check_matches_model(&tde, &plan, want);
        }
    }
}

// ---------------------------------------------------------------------------
// Operators over arbitrarily coded string vectors.

/// A source operator replaying prepared chunks.
struct Replay {
    schema: SchemaRef,
    chunks: std::collections::VecDeque<Chunk>,
}

impl PhysOp for Replay {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> tabviz::common::Result<Option<Chunk>> {
        Ok(self.chunks.pop_front())
    }
}

fn coded_schema() -> SchemaRef {
    Arc::new(
        Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("ci", DataType::Str).with_collation(Collation::CaseInsensitive),
            Field::new("an", DataType::Str),
            Field::new("v", DataType::Int),
        ])
        .unwrap(),
    )
}

/// One string column over `words`, coded against a table made for this
/// chunk alone: rotated by `salt`, every word entered twice, an entry no row
/// uses in front, and code 1000 (outside any table) on the null rows.
fn coded_column(words: &[&str], picks: &[Option<usize>], salt: usize) -> ColumnVec {
    let n = words.len();
    let mut table = vec!["<unused>".to_string()];
    table.extend((0..2 * n).map(|j| words[(j + salt) % n].to_string()));
    let codes = picks
        .iter()
        .enumerate()
        .map(|(row, p)| match p {
            None => 1_000,
            // Either of the word's two entries, alternating by row.
            Some(w) => table
                .iter()
                .enumerate()
                .filter(|(_, s)| *s == words[*w])
                .map(|(j, _)| j as u32)
                .nth(row % 2)
                .expect("every word is entered twice"),
        })
        .collect();
    ColumnVec::new(
        Values::Str(StrVec::new(Arc::new(table), codes)),
        NullMask::from_valid_bits(picks.iter().map(Option::is_some).collect()),
    )
}

/// Chunks of `coded_schema()` rows, each coded against its own tables.
fn coded_chunks(seed: u64, sizes: &[usize]) -> Vec<Chunk> {
    let mixed: Vec<&str> = SHORT.iter().chain(&LONG).copied().collect();
    let mut h = seed;
    let mut next = move || {
        h = h
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x1234_5677);
        (h >> 33) as usize
    };
    sizes
        .iter()
        .enumerate()
        .map(|(ci, &rows)| {
            let mut pick = |words: usize, null_every: usize| -> Vec<Option<usize>> {
                (0..rows)
                    .map(|_| {
                        let r = next();
                        (r % null_every != 0).then_some(r % words)
                    })
                    .collect()
            };
            let s = coded_column(&mixed, &pick(mixed.len(), 7), ci + seed as usize);
            let cased = coded_column(&CASED, &pick(CASED.len(), 9), 2 * ci + 1);
            let all_null = ColumnVec::new(
                Values::Str(StrVec::new(Arc::new(Vec::new()), vec![0; rows])),
                NullMask::from_valid_bits(vec![false; rows]),
            );
            let v = (0..rows).map(|_| Value::Int(next() as i64 % 100 - 50));
            let v = ColumnVec::from_iter_typed(DataType::Int, v.collect::<Vec<_>>().iter());
            Chunk::new(coded_schema(), vec![s, cased, all_null, v.unwrap()]).unwrap()
        })
        .collect()
}

fn drain(mut op: impl PhysOp) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    while let Some(c) = op.next().unwrap() {
        rows.extend(c.to_rows());
    }
    rows
}

fn check_coded_group_by(chunks: &[Chunk], gcol: &str) {
    let schema = coded_schema();
    let gi = schema.index_of(gcol).unwrap();
    // Representatives ("Alpha" or "alpha", whichever a group saw first)
    // compare case-folded under CI.
    let fold = |v: &Value| key_cell(v, schema.field(gi).collation);
    // Model: COUNT(*) and SUM(v) per group, from the materialized rows.
    let mut want: BTreeMap<Value, (i64, i64)> = BTreeMap::new();
    for row in chunks.iter().flat_map(Chunk::to_rows) {
        let slot = want.entry(fold(&row[gi])).or_default();
        slot.0 += 1;
        slot.1 += row[3].as_int().unwrap();
    }
    let want: Vec<Vec<Value>> = want
        .into_iter()
        .map(|(k, (n, sum))| vec![k, Value::Int(n), Value::Int(sum)])
        .collect();
    let group_by = vec![(col(gcol), gcol.to_string())];
    let aggs = vec![
        AggCall::new(AggFunc::Count, None, "n"),
        AggCall::new(AggFunc::Sum, Some(col("v")), "sv"),
    ];
    let out_schema = agg_schema(&schema, &group_by, &aggs).unwrap();
    // Chunk by chunk (a table per chunk) and merged (tables remapped into one).
    let merged = [Chunk::concat(Arc::clone(&schema), chunks).unwrap()];
    for (feed, input) in [("per-chunk", chunks), ("concat", &merged[..])] {
        let source = Replay {
            schema: Arc::clone(&schema),
            chunks: input.iter().cloned().collect(),
        };
        let op = HashAggOp::new(
            Box::new(source),
            group_by.clone(),
            aggs.clone(),
            Arc::clone(&out_schema),
        );
        let mut got = drain(op);
        for row in &mut got {
            row[0] = fold(&row[0]);
        }
        got.sort();
        assert_eq!(got, want, "GROUP BY {gcol}, {feed}");
    }
}

fn check_coded_join(chunks: &[Chunk], probe_key: &str, build_key: &str, join_type: JoinType) {
    let schema = coded_schema();
    let dim = Arc::new(Table::from_chunk("dim", &dim_chunk(), &[]).unwrap());
    let bi = dim.schema().index_of(build_key).unwrap();
    let pi = schema.index_of(probe_key).unwrap();
    let collation = schema.field(pi).collation;
    // Model: nested loop over materialized rows; NULL keys never match.
    let dim_rows = dim_chunk().to_rows();
    let mut want = Vec::new();
    for row in chunks.iter().flat_map(Chunk::to_rows) {
        let matches: Vec<&Vec<Value>> = dim_rows
            .iter()
            .filter(|d| {
                !row[pi].is_null()
                    && row[pi].cmp_collated(&d[bi], collation) == std::cmp::Ordering::Equal
            })
            .collect();
        for d in &matches {
            want.push([row.clone(), (*d).clone()].concat());
        }
        if matches.is_empty() && join_type == JoinType::Left {
            want.push([row.clone(), vec![Value::Null; dim_rows[0].len()]].concat());
        }
    }
    want.sort();
    let out_schema = Arc::new(schema.join(dim.schema()));
    let build_plan = PhysPlan::Scan {
        table: Arc::clone(&dim),
        ranges: vec![(0, dim.row_count())],
        projection: None,
        via_rle_index: false,
        pushed: vec![],
    };
    let build = BuildSide::new(build_plan, Arc::clone(dim.schema()), vec![bi]);
    let source = Replay {
        schema: Arc::clone(&schema),
        chunks: chunks.iter().cloned().collect(),
    };
    let op = HashJoinOp::new(
        Box::new(source),
        Arc::new(build),
        vec![probe_key.to_string()],
        join_type,
        Arc::clone(&out_schema),
    )
    .unwrap();
    let mut got = drain(op);
    got.sort();
    assert_eq!(got, want, "JOIN {probe_key}={build_key}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(24), ..ProptestConfig::default() })]

    /// GROUP BY over short + long strings, case-only variants under CI
    /// collation (one group per name), and the all-null empty-table column
    /// (one NULL group) — every chunk over tables of its own.
    #[test]
    fn coded_group_by_matches_model(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(0usize..200, 1..4),
        gcol in proptest::sample::select(vec!["s", "ci", "an"]),
    ) {
        check_coded_group_by(&coded_chunks(seed, &sizes), gcol);
    }

    /// Probe chunks over ever-changing tables against one frozen build side:
    /// long probe strings absent from the build interner must miss, CI keys
    /// must match across case, NULL and all-null keys never match.
    #[test]
    fn coded_join_matches_model(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(0usize..150, 1..4),
        key in proptest::sample::select(vec![("s", "code"), ("s", "lcode"), ("ci", "cicode"), ("an", "code")]),
        left in any::<bool>(),
    ) {
        let jt = if left { JoinType::Left } else { JoinType::Inner };
        check_coded_join(&coded_chunks(seed, &sizes), key.0, key.1, jt);
    }
}
