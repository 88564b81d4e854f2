//! Property tests for the columnar chunk algebra.

use proptest::prelude::*;
use std::sync::Arc;
use tabviz_common::{
    Chunk, Collation, ColumnVec, DataType, Field, NullMask, Schema, SchemaRef, StrVec, Value,
    Values,
};

fn schema() -> SchemaRef {
    Arc::new(
        Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("i", DataType::Int),
            Field::new("r", DataType::Real),
        ])
        .unwrap(),
    )
}

fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(
        (
            prop_oneof![
                3 => proptest::sample::select(vec!["a", "b", "c", ""]).prop_map(|s| Value::Str(s.into())),
                1 => Just(Value::Null),
            ],
            prop_oneof![3 => (-50i64..50).prop_map(Value::Int), 1 => Just(Value::Null)],
            prop_oneof![3 => (-5.0f64..5.0).prop_map(Value::Real), 1 => Just(Value::Null)],
        ),
        0..80,
    )
    .prop_map(|rows| rows.into_iter().map(|(a, b, c)| vec![a, b, c]).collect())
}

/// The model of a string column: one optional string per row.
type StrModel = Vec<Option<String>>;

/// A single-column string chunk coded against an arbitrary table, with its
/// model. The table repeats entries, holds some no row uses, and differs in
/// order from draw to draw; codes on null rows point outside it.
fn arb_coded(collation: Collation) -> impl Strategy<Value = (Chunk, StrModel)> {
    let words = vec!["a", "A", "b", "", "a string past seven bytes", "B"];
    (
        proptest::collection::vec(proptest::sample::select(words), 1..10),
        proptest::collection::vec((any::<usize>(), 0u8..4), 0..60),
    )
        .prop_map(move |(table, picks)| {
            let codes: Vec<u32> = picks
                .iter()
                .map(|&(k, null)| {
                    if null == 0 {
                        1_000
                    } else {
                        (k % table.len()) as u32
                    }
                })
                .collect();
            let valid: Vec<bool> = picks.iter().map(|&(_, null)| null != 0).collect();
            let model = codes
                .iter()
                .zip(&valid)
                .map(|(&c, &ok)| ok.then(|| table[c as usize].to_string()))
                .collect();
            let table = Arc::new(table.iter().map(|s| s.to_string()).collect());
            let col = ColumnVec::new(
                Values::Str(StrVec::new(table, codes)),
                NullMask::from_valid_bits(valid),
            );
            let field = Field::new("s", DataType::Str).with_collation(collation);
            let schema = Arc::new(Schema::new(vec![field]).unwrap());
            (Chunk::new(schema, vec![col]).unwrap(), model)
        })
}

fn model_of(chunk: &Chunk) -> StrModel {
    chunk
        .to_rows()
        .into_iter()
        .map(|mut r| match r.remove(0) {
            Value::Null => None,
            Value::Str(s) => Some(s),
            other => panic!("not a string: {other:?}"),
        })
        .collect()
}

/// The same rows, interned afresh (a different table for the same content).
fn reinterned(chunk: &Chunk, model: &StrModel) -> Chunk {
    let rows: Vec<Vec<Value>> = model
        .iter()
        .map(|s| vec![s.clone().map_or(Value::Null, Value::Str)])
        .collect();
    Chunk::from_rows(Arc::clone(chunk.schema()), &rows).unwrap()
}

proptest! {
    #[test]
    fn coded_strings_behave_like_a_vec_of_strings(
        (a, ma) in arb_coded(Collation::Binary),
        (b, mb) in arb_coded(Collation::Binary),
        picks in proptest::collection::vec(any::<usize>(), 0..40),
        cut in any::<usize>(),
    ) {
        prop_assert_eq!(&model_of(&a), &ma);
        // take
        if !ma.is_empty() {
            let idx: Vec<usize> = picks.iter().map(|p| p % ma.len()).collect();
            let want: StrModel = idx.iter().map(|&i| ma[i].clone()).collect();
            prop_assert_eq!(model_of(&a.take(&idx)), want);
        }
        // slice
        let cut = cut % (ma.len() + 1);
        prop_assert_eq!(model_of(&a.slice(cut, ma.len() - cut)), ma[cut..].to_vec());
        // concat over different tables (remap) and over the same one
        let both = Chunk::concat(Arc::clone(a.schema()), &[a.clone(), b.clone()]).unwrap();
        prop_assert_eq!(model_of(&both), [ma.clone(), mb.clone()].concat());
        let halves = [a.slice(0, cut), a.slice(cut, ma.len() - cut)];
        let rejoined = Chunk::concat(Arc::clone(a.schema()), &halves).unwrap();
        prop_assert_eq!(&rejoined, &a);
        // == is by content, whatever the table; and tells contents apart
        prop_assert_eq!(&reinterned(&a, &ma), &a);
        prop_assert_eq!(&a.clone().compact_strings(), &a);
        prop_assert_eq!(a == b, ma == mb);
    }

    #[test]
    fn coded_sort_matches_the_model(
        (a, ma) in arb_coded(Collation::Binary),
        (ci, mci) in arb_coded(Collation::CaseInsensitive),
        asc in any::<bool>(),
    ) {
        // Binary: exactly the stable sort of the model (None first).
        let mut want = ma.clone();
        want.sort();
        if !asc {
            want.reverse();
        }
        let got = model_of(&a.sort_by(&[(0, asc)]));
        // Equal strings are indistinguishable, so stability needs no check.
        prop_assert_eq!(got, want);
        // Case-insensitive: stable, so rows equal under the collation keep
        // their input order.
        let mut want = mci.clone();
        let key = |s: &Option<String>| s.as_ref().map(|s| s.to_ascii_lowercase());
        want.sort_by_key(key);
        prop_assert_eq!(model_of(&ci.sort_by(&[(0, true)])), want);
        // The ranked path (table no longer than the chunk) and the row
        // comparison path (a short slice over a long table) agree.
        let short = ci.slice(0, mci.len().min(2));
        let resorted = reinterned(&short, &model_of(&short)).sort_by(&[(0, true)]);
        prop_assert_eq!(short.sort_by(&[(0, true)]), resorted);
    }

    #[test]
    fn rows_roundtrip(rows in arb_rows()) {
        let chunk = Chunk::from_rows(schema(), &rows).unwrap();
        prop_assert_eq!(chunk.to_rows(), rows);
    }

    #[test]
    fn filter_is_mask_semantics(rows in arb_rows(), seed in any::<u64>()) {
        let chunk = Chunk::from_rows(schema(), &rows).unwrap();
        let mask: Vec<bool> = (0..rows.len()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let filtered = chunk.filter(&mask).unwrap();
        let expected: Vec<Vec<Value>> = rows
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(r, _)| r.clone())
            .collect();
        prop_assert_eq!(filtered.to_rows(), expected);
    }

    #[test]
    fn take_gathers(rows in arb_rows(), picks in proptest::collection::vec(0usize..80, 0..40)) {
        if rows.is_empty() {
            return Ok(());
        }
        let idx: Vec<usize> = picks.into_iter().map(|p| p % rows.len()).collect();
        let chunk = Chunk::from_rows(schema(), &rows).unwrap();
        let taken = chunk.take(&idx);
        let expected: Vec<Vec<Value>> = idx.iter().map(|&i| rows[i].clone()).collect();
        prop_assert_eq!(taken.to_rows(), expected);
    }

    #[test]
    fn slice_concat_identity(rows in arb_rows(), cut_frac in 0.0f64..1.0) {
        let chunk = Chunk::from_rows(schema(), &rows).unwrap();
        let cut = ((rows.len() as f64) * cut_frac) as usize;
        let left = chunk.slice(0, cut);
        let right = chunk.slice(cut, rows.len() - cut);
        let back = Chunk::concat(schema(), &[left, right]).unwrap();
        prop_assert_eq!(back.to_rows(), rows);
    }

    #[test]
    fn sort_is_stable_total_and_permutes(rows in arb_rows()) {
        let chunk = Chunk::from_rows(schema(), &rows).unwrap();
        let sorted = chunk.sort_by(&[(1, true), (0, false)]);
        // Same multiset of rows.
        let mut a = sorted.to_rows();
        let mut b = rows.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Non-decreasing in the primary key (nulls first).
        for w in 0..sorted.len().saturating_sub(1) {
            let x = sorted.row(w)[1].clone();
            let y = sorted.row(w + 1)[1].clone();
            prop_assert!(x <= y, "primary sort violated: {x:?} > {y:?}");
        }
    }

    #[test]
    fn project_keeps_columns(rows in arb_rows()) {
        let chunk = Chunk::from_rows(schema(), &rows).unwrap();
        let p = chunk.project(&[2, 0]);
        prop_assert_eq!(p.schema().names(), vec!["r", "s"]);
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(p.row(i), vec![r[2].clone(), r[0].clone()]);
        }
    }
}
