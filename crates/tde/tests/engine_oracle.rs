//! Gold-model oracle: random tables + random aggregate-select queries,
//! evaluated by a naive row-at-a-time reference implementation and by the
//! TDE (serial and parallel). Results must match exactly.
//!
//! String keys travel through the engine as dictionary codes, so the key
//! pool holds what the code path must get right: strings past the 7-byte
//! inline limit, spellings that differ only by case (one group under the
//! case-insensitive column `c`), an all-null column `z` (empty dictionary),
//! and a computed key `UPPER(k)` whose every chunk — and, in the parallel
//! arm, every Exchange branch — carries a string table of its own with
//! several entries per group.

#![allow(clippy::field_reassign_with_default)]

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tabviz_common::{Chunk, Collation, DataType, Field, Schema, Value};
use tabviz_storage::{Database, Table};
use tabviz_tde::cost::CostProfile;
use tabviz_tde::parallel::ParallelOptions;
use tabviz_tde::{ExecOptions, Tde};
use tabviz_tql::expr::{bin, col, lit, Expr, ScalarFunc};
use tabviz_tql::{AggCall, AggFunc, BinOp, LogicalPlan};

#[derive(Debug, Clone)]
struct Row {
    k: String,
    g: i64,
    v: Option<i64>,
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            proptest::sample::select(vec![
                "a",
                "b",
                "c",
                "d",
                "A",
                "B",
                "a key past seven bytes",
                "A KEY past seven bytes",
            ]),
            0i64..4,
            proptest::option::of(-20i64..20),
        ),
        0..120,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(k, g, v)| Row {
                k: k.to_string(),
                g,
                v,
            })
            .collect()
    })
}

#[derive(Debug, Clone)]
enum Filt {
    None,
    KeyEq(String),
    GLt(i64),
    VGe(i64),
}

fn arb_filter() -> impl Strategy<Value = Filt> {
    prop_oneof![
        Just(Filt::None),
        proptest::sample::select(vec!["a", "b", "z"]).prop_map(|s| Filt::KeyEq(s.to_string())),
        (0i64..4).prop_map(Filt::GLt),
        (-10i64..10).prop_map(Filt::VGe),
    ]
}

impl Filt {
    fn keep(&self, r: &Row) -> bool {
        match self {
            Filt::None => true,
            Filt::KeyEq(s) => r.k == *s,
            Filt::GLt(x) => r.g < *x,
            Filt::VGe(x) => r.v.is_some_and(|v| v >= *x),
        }
    }

    fn expr(&self) -> Option<Expr> {
        Some(match self {
            Filt::None => return None,
            Filt::KeyEq(s) => bin(BinOp::Eq, col("k"), lit(s.as_str())),
            Filt::GLt(x) => bin(BinOp::Lt, col("g"), lit(*x)),
            Filt::VGe(x) => bin(BinOp::Ge, col("v"), lit(*x)),
        })
    }
}

/// Naive reference: filter rows, group by chosen keys, compute aggregates.
fn reference(rows: &[Row], filt: &Filt, by_key: bool, by_g: bool) -> Vec<Vec<Value>> {
    let mut groups: BTreeMap<(Option<String>, Option<i64>), Vec<&Row>> = BTreeMap::new();
    for r in rows.iter().filter(|r| filt.keep(r)) {
        let key = (by_key.then(|| r.k.clone()), by_g.then_some(r.g));
        groups.entry(key).or_default().push(r);
    }
    let mut out = Vec::new();
    for ((k, g), members) in groups {
        let mut row = Vec::new();
        if let Some(k) = k {
            row.push(Value::Str(k));
        }
        if let Some(g) = g {
            row.push(Value::Int(g));
        }
        // COUNT(*)
        row.push(Value::Int(members.len() as i64));
        // SUM(v)
        let vs: Vec<i64> = members.iter().filter_map(|r| r.v).collect();
        row.push(if vs.is_empty() {
            Value::Null
        } else {
            Value::Int(vs.iter().sum())
        });
        // MIN(v)
        row.push(
            vs.iter()
                .min()
                .map(|&m| Value::Int(m))
                .unwrap_or(Value::Null),
        );
        // AVG(v)
        row.push(if vs.is_empty() {
            Value::Null
        } else {
            Value::Real(vs.iter().sum::<i64>() as f64 / vs.len() as f64)
        });
        // COUNTD(k) within group
        let mut ks: Vec<&str> = members.iter().map(|r| r.k.as_str()).collect();
        ks.sort();
        ks.dedup();
        row.push(Value::Int(ks.len() as i64));
        out.push(row);
    }
    out
}

fn table_of(rows: &[Row], sorted: bool) -> Arc<Database> {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Int),
            Field::new("c", DataType::Str).with_collation(Collation::CaseInsensitive),
            Field::new("z", DataType::Str),
        ])
        .unwrap(),
    );
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            vec![
                Value::Str(r.k.clone()),
                Value::Int(r.g),
                r.v.map(Value::Int).unwrap_or(Value::Null),
                Value::Str(r.k.clone()),
                Value::Null,
            ]
        })
        .collect();
    let chunk = Chunk::from_rows(schema, &data).unwrap();
    let keys: &[&str] = if sorted { &["k"] } else { &[] };
    let db = Arc::new(Database::new("oracle"));
    db.put(Table::from_chunk("t", &chunk, keys).unwrap())
        .unwrap();
    db
}

fn engine_query(
    db: Arc<Database>,
    filt: &Filt,
    by_key: bool,
    by_g: bool,
    opts: &ExecOptions,
) -> Vec<Vec<Value>> {
    let mut plan = LogicalPlan::scan("t");
    if let Some(f) = filt.expr() {
        plan = plan.select(f);
    }
    let mut group_by = Vec::new();
    if by_key {
        group_by.push((col("k"), "k".to_string()));
    }
    if by_g {
        group_by.push((col("g"), "g".to_string()));
    }
    let plan = plan.aggregate(
        group_by,
        vec![
            AggCall::new(AggFunc::Count, None, "n"),
            AggCall::new(AggFunc::Sum, Some(col("v")), "s"),
            AggCall::new(AggFunc::Min, Some(col("v")), "lo"),
            AggCall::new(AggFunc::Avg, Some(col("v")), "a"),
            AggCall::new(AggFunc::CountD, Some(col("k")), "dk"),
        ],
    );
    let tde = Tde::new(db);
    let mut rows = tde.execute_plan(&plan, opts).unwrap().to_rows();
    rows.sort();
    rows
}

/// String-key shapes beyond a plain binary column.
#[derive(Debug, Clone, Copy)]
enum StrKey {
    /// `c`: case-insensitive collation — spellings differing by case merge.
    CaseInsensitive,
    /// `z`: every row NULL — one NULL group over an empty dictionary.
    AllNull,
    /// `UPPER(k)`: a computed key, several table entries per group.
    Upper,
}

impl StrKey {
    fn expr(self) -> Expr {
        match self {
            StrKey::CaseInsensitive => col("c"),
            StrKey::AllNull => col("z"),
            StrKey::Upper => Expr::Func {
                func: ScalarFunc::Upper,
                args: vec![col("k")],
            },
        }
    }

    /// The group a row falls in. A case-insensitive group is represented by
    /// whichever spelling the engine met first, so both sides fold case.
    fn of(self, r: &Row) -> Value {
        match self {
            StrKey::CaseInsensitive => Value::Str(r.k.to_ascii_lowercase()),
            StrKey::AllNull => Value::Null,
            StrKey::Upper => Value::Str(r.k.to_uppercase()),
        }
    }

    fn fold(self, v: Value) -> Value {
        match (self, v) {
            (StrKey::CaseInsensitive, Value::Str(s)) => Value::Str(s.to_ascii_lowercase()),
            (_, v) => v,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn string_key_shapes_match_reference(
        rows in arb_rows(),
        filt in arb_filter(),
        key in proptest::sample::select(vec![StrKey::CaseInsensitive, StrKey::AllNull, StrKey::Upper]),
        sorted in any::<bool>(),
    ) {
        let mut groups: BTreeMap<Value, (i64, Option<i64>)> = BTreeMap::new();
        for r in rows.iter().filter(|r| filt.keep(r)) {
            let slot = groups.entry(key.of(r)).or_default();
            slot.0 += 1;
            if let Some(v) = r.v {
                slot.1 = Some(slot.1.unwrap_or(0) + v);
            }
        }
        let want: Vec<Vec<Value>> = groups
            .into_iter()
            .map(|(k, (n, s))| vec![k, Value::Int(n), s.map_or(Value::Null, Value::Int)])
            .collect();

        let mut plan = LogicalPlan::scan("t");
        if let Some(f) = filt.expr() {
            plan = plan.select(f);
        }
        let plan = plan.aggregate(
            vec![(key.expr(), "key".to_string())],
            vec![
                AggCall::new(AggFunc::Count, None, "n"),
                AggCall::new(AggFunc::Sum, Some(col("v")), "s"),
            ],
        );
        let mut par = ExecOptions::default();
        par.parallel = ParallelOptions {
            profile: CostProfile { min_work_per_thread: 5, max_dop: 3 },
            range_partition_min_distinct_per_dop: 1,
            ..Default::default()
        };
        let mut no_kernels = ExecOptions::serial();
        no_kernels.physical.enable_vector_kernels = false;
        let tde = Tde::new(table_of(&rows, sorted));
        for (arm, opts) in [
            ("serial", ExecOptions::serial()),
            ("parallel", par),
            ("value-row fallback", no_kernels),
        ] {
            let mut got: Vec<Vec<Value>> = tde
                .execute_plan(&plan, &opts)
                .unwrap()
                .to_rows()
                .into_iter()
                .map(|mut r| {
                    r[0] = key.fold(r[0].clone());
                    r
                })
                .collect();
            got.sort();
            prop_assert_eq!(&got, &want, "{} diverged on {:?}", arm, key);
        }
    }

    #[test]
    fn engine_matches_reference(
        rows in arb_rows(),
        filt in arb_filter(),
        by_key in any::<bool>(),
        by_g in any::<bool>(),
        sorted in any::<bool>(),
    ) {
        // Grouping by nothing = one global row; reference handles it too.
        let mut want = reference(&rows, &filt, by_key, by_g);
        want.sort();
        // Global aggregate on empty filtered input still yields one row.
        if want.is_empty() && !by_key && !by_g {
            want.push(vec![
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Int(0),
            ]);
        }
        let db = table_of(&rows, sorted);

        let serial = engine_query(Arc::clone(&db), &filt, by_key, by_g, &ExecOptions::serial());
        prop_assert_eq!(&serial, &want, "serial diverged");

        let mut par = ExecOptions::default();
        par.parallel = ParallelOptions {
            profile: CostProfile { min_work_per_thread: 5, max_dop: 3 },
            range_partition_min_distinct_per_dop: 1,
            ..Default::default()
        };
        let parallel = engine_query(Arc::clone(&db), &filt, by_key, by_g, &par);
        prop_assert_eq!(&parallel, &want, "parallel diverged");

        let mut no_rle = ExecOptions::serial();
        no_rle.physical.enable_rle_index = false;
        no_rle.physical.enable_streaming_agg = false;
        let plain = engine_query(db, &filt, by_key, by_g, &no_rle);
        prop_assert_eq!(&plain, &want, "hash/no-rle diverged");
    }
}
