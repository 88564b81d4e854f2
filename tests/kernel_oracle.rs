//! Vectorized-kernel oracle: every aggregation and join runs twice — once
//! through the type-specialized fast path (packed keys, batch hashing, typed
//! aggregate states, selection vectors) and once through the retained
//! Value-row fallback (`enable_vector_kernels = false`) — and the two arms
//! must produce identical result sets. The generated tables cover every
//! `DataType`, null-heavy columns, inline (≤ 7 byte) and interned long
//! strings, case-insensitive collation, empty inputs, and group keys wide
//! enough to force the fallback on its own.
//!
//! Tables hand the operators tidy string vectors (one sorted dictionary per
//! column). The last section feeds `HashAggOp` and `HashJoinOp` chunks coded
//! against arbitrary string tables instead — a different table per chunk,
//! duplicate and unreferenced entries, out-of-range placeholders on null
//! rows, an all-null column over an empty table — and checks both arms
//! against a model computed from the rows.

#![allow(clippy::field_reassign_with_default)]

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tabviz::common::{ColumnVec, NullMask, SchemaRef, StrVec, Values};
use tabviz::prelude::*;
use tabviz::tde::exec::agg::HashAggOp;
use tabviz::tde::exec::join::HashJoinOp;
use tabviz::tde::exec::PhysOp;
use tabviz::tde::physical::{agg_schema, AggMode, BuildSide, PhysPlan};
use tabviz::tql::expr::{bin, col, lit};

const SHORT: [&str; 6] = ["ak", "ca", "ny", "tx", "wa", "or"];
const LONG: [&str; 5] = [
    "north-region-alpha",
    "south-region-bravo",
    "east-region-charlie",
    "west-region-delta",
    "central-region-echo",
];
// Pairs differing only by case: under CI collation they must land in the
// same group / join partition, under the kernels and the fallback alike.
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
    // Unsorted so the planner cannot sidestep HashAgg via Stream/RunAgg.
    db.put(Table::from_chunk("t", &fact, &[]).unwrap()).unwrap();
    db.put(Table::from_chunk("dim", &dim_chunk(), &[]).unwrap())
        .unwrap();
    Tde::new(db)
}

/// The two arms under comparison. Streaming/run aggregation is disabled in
/// BOTH so every aggregate actually goes through HashAgg — the operator the
/// kernels specialize — rather than an order-exploiting plan shape.
fn arms() -> Vec<(&'static str, ExecOptions)> {
    let mut fast = ExecOptions::serial();
    fast.physical.enable_streaming_agg = false;
    fast.physical.enable_run_agg = false;
    let mut slow = fast.clone();
    slow.physical.enable_vector_kernels = false;
    vec![("kernels", fast), ("value-row-fallback", slow)]
}

fn check_arms_agree(tde: &Tde, plan: &LogicalPlan) {
    let mut results = Vec::new();
    for (name, opts) in arms() {
        let mut rows = tde.execute_plan(plan, &opts).unwrap().to_rows();
        rows.sort();
        results.push((name, rows));
    }
    let (base_name, expected) = &results[0];
    for (name, rows) in &results[1..] {
        assert_eq!(
            rows, expected,
            "arm {name} diverged from {base_name} on {plan}"
        );
    }
}

/// The full aggregate spread: typed fast-path states (COUNT, COUNT(col),
/// SUM int/real, MIN/MAX int/real, AVG) plus calls that stay on the
/// Value-row state even under the kernels (MIN over Str, MAX over Date).
fn agg_calls() -> Vec<AggCall> {
    vec![
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
    ]
}

fn group_plan(group_cols: &[&str]) -> LogicalPlan {
    let group_by = group_cols
        .iter()
        .map(|c| (col(*c), (*c).to_string()))
        .collect();
    LogicalPlan::scan("t").aggregate(group_by, agg_calls())
}

fn groupable_col() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["b", "i", "s", "ls", "ci", "d", "nh"])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Randomized GROUP BY over 1-3 mixed-type key columns.
    #[test]
    fn grouped_agg_arms_agree(
        cols in proptest::collection::vec(groupable_col(), 1..=3),
        rows in proptest::sample::select(vec![1usize, 257, 4_096]),
    ) {
        let mut seen = std::collections::HashSet::new();
        let mut cols = cols;
        cols.retain(|c| seen.insert(*c));
        let tde = oracle_tde(rows);
        check_arms_agree(&tde, &group_plan(&cols));
    }

    /// A residual (non-sargable-into-scan) filter under the aggregate: the
    /// kernels evaluate it into a selection vector and fuse it into the
    /// HashAgg; the fallback rematerializes. Results must not differ.
    #[test]
    fn filtered_agg_arms_agree(
        gcol in groupable_col(),
        bound in -3i64..=3i64,
        ge in any::<bool>(),
    ) {
        let tde = oracle_tde(2_048);
        let pred = if ge {
            bin(BinOp::Ge, col("i"), lit(bound))
        } else {
            bin(BinOp::Lt, col("i"), lit(bound))
        };
        let plan = LogicalPlan::scan("t").select(pred).aggregate(
            vec![(col(gcol), gcol.to_string())],
            agg_calls(),
        );
        check_arms_agree(&tde, &plan);
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
        let tde = oracle_tde(rows);
        let jt = if left { JoinType::Left } else { JoinType::Inner };
        let plan = LogicalPlan::scan("t").join(
            LogicalPlan::scan("dim"),
            vec![(key.0.to_string(), key.1.to_string())],
            jt,
        );
        check_arms_agree(&tde, &plan);
    }
}

/// Group keys wider than the packed-key budget (`MAX_KEY_COLS = 8`) make the
/// kernels' own selection logic fall back; 8 columns is the widest fast-path
/// key. Both widths must agree across arms.
#[test]
fn wide_keys_agree_at_and_past_the_fastpath_limit() {
    let tde = oracle_tde(1_500);
    // Exactly at the limit: fast path vs forced fallback.
    check_arms_agree(
        &tde,
        &group_plan(&["b", "i", "s", "ls", "ci", "d", "nh", "v"]),
    );
    // Past the limit: the kernels arm itself selects the fallback.
    check_arms_agree(
        &tde,
        &group_plan(&["b", "i", "s", "ls", "ci", "d", "nh", "v", "w"]),
    );
}

/// Empty inputs: a grouped aggregate yields no rows, a global aggregate
/// yields exactly one row of identity values, and a join yields nothing —
/// identically in both arms.
#[test]
fn empty_input_arms_agree() {
    let tde = oracle_tde(0);
    check_arms_agree(&tde, &group_plan(&["s", "i"]));
    check_arms_agree(&tde, &LogicalPlan::scan("t").aggregate(vec![], agg_calls()));
    for jt in [JoinType::Inner, JoinType::Left] {
        let plan = LogicalPlan::scan("t").join(
            LogicalPlan::scan("dim"),
            vec![("s".to_string(), "code".to_string())],
            jt,
        );
        check_arms_agree(&tde, &plan);
    }
}

/// Join followed by aggregation over the dimension payload — the e23 shape:
/// probe-side kernels feed a packed-key aggregate over build-side columns.
#[test]
fn join_then_agg_arms_agree() {
    let tde = oracle_tde(3_000);
    for (probe, build) in [("s", "code"), ("ls", "lcode"), ("i", "k")] {
        let plan = LogicalPlan::scan("t")
            .join(
                LogicalPlan::scan("dim"),
                vec![(probe.to_string(), build.to_string())],
                JoinType::Inner,
            )
            .aggregate(
                vec![(col("label"), "label".into())],
                vec![
                    AggCall::new(AggFunc::Count, None, "n"),
                    AggCall::new(AggFunc::Sum, Some(col("v")), "sv"),
                    AggCall::new(AggFunc::Min, Some(col("weight")), "lo"),
                ],
            );
        check_arms_agree(&tde, &plan);
    }
}

/// Case-insensitive grouping must merge case variants into one group — and
/// produce the same representative set in both arms.
#[test]
fn ci_grouping_merges_case_variants() {
    let tde = oracle_tde(1_200);
    let plan = group_plan(&["ci"]);
    for (name, opts) in arms() {
        let out = tde.execute_plan(&plan, &opts).unwrap();
        // CASED holds 3 distinct names under CI collation.
        assert_eq!(out.len(), 3, "arm {name} group count");
    }
    check_arms_agree(&tde, &plan);
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

/// Lower-case a CI group key so representatives ("Alpha" or "alpha",
/// whichever a group saw first) compare equal.
fn fold_case(v: &Value) -> Value {
    match v {
        Value::Str(s) => Value::Str(s.to_ascii_lowercase()),
        other => other.clone(),
    }
}

fn check_coded_group_by(chunks: &[Chunk], gcol: &str) {
    let schema = coded_schema();
    let gi = schema.index_of(gcol).unwrap();
    let fold = |v: &Value| {
        if gcol == "ci" {
            fold_case(v)
        } else {
            v.clone()
        }
    };
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
    let out_schema = agg_schema(&schema, &group_by, &aggs, AggMode::Single).unwrap();
    // Chunk by chunk (a table per chunk) and merged (tables remapped into one).
    let merged = [Chunk::concat(Arc::clone(&schema), chunks).unwrap()];
    for (feed, input) in [("per-chunk", chunks), ("concat", &merged[..])] {
        for kernels in [true, false] {
            let source = Replay {
                schema: Arc::clone(&schema),
                chunks: input.iter().cloned().collect(),
            };
            let op = HashAggOp::new(
                Box::new(source),
                group_by.clone(),
                aggs.clone(),
                Arc::clone(&out_schema),
            )
            .with_kernels(kernels);
            let mut got = drain(op);
            for row in &mut got {
                row[0] = fold(&row[0]);
            }
            got.sort();
            assert_eq!(got, want, "GROUP BY {gcol}, {feed}, kernels={kernels}");
        }
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
    for kernels in [true, false] {
        let build_plan = PhysPlan::Scan {
            table: Arc::clone(&dim),
            ranges: vec![(0, dim.row_count())],
            projection: None,
            via_rle_index: false,
            pushed: vec![],
        };
        let build =
            BuildSide::new(build_plan, Arc::clone(dim.schema()), vec![bi]).with_kernels(kernels);
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
        assert_eq!(got, want, "JOIN {probe_key}={build_key}, kernels={kernels}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

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
