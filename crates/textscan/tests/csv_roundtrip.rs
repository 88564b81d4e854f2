//! Round trip: a random chunk written as CSV text and parsed back under its
//! own schema is the same chunk. The chunks hold all five types and NULLs;
//! their strings hold the delimiter, quotes, CR and LF; some files end
//! lines with CRLF and some rows drop their trailing NULL cells.

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::Arc;
use tabviz_common::{Chunk, DataType, Field, Schema, Value};
use tabviz_textscan::{parse_csv, CsvOptions, HeaderMode};
use tabviz_tql::datefn;

const TYPES: [DataType; 5] = [
    DataType::Bool,
    DataType::Int,
    DataType::Real,
    DataType::Str,
    DataType::Date,
];

/// No `n`, so no string spells a null token (`NULL`, `NA`).
const ALPHABET: [char; 10] = ['a', 'B', 'x', ' ', ',', '|', '"', '\n', '\r', 'é'];

/// A cell of type `dtype` from `(kind, raw)`: kind 0 is NULL.
fn cell(dtype: DataType, kind: u32, raw: u64, chars: &[char]) -> Value {
    if kind == 0 {
        return Value::Null;
    }
    let lo = datefn::days_from_civil(1000, 1, 1) as i64;
    let hi = datefn::days_from_civil(9999, 12, 31) as i64;
    match dtype {
        DataType::Bool => Value::Bool(raw.is_multiple_of(2)),
        DataType::Int => Value::Int(raw as i64),
        DataType::Real => Value::Real((raw % 2_000_001) as f64 / 8.0 - 125_000.0),
        DataType::Date => Value::Date((lo + (raw % (hi - lo + 1) as u64) as i64) as i32),
        DataType::Str => {
            let s: String = chars.iter().collect();
            // A blank cell reads as NULL: keep strings non-blank.
            Value::Str(if s.trim().is_empty() {
                format!("x{s}")
            } else {
                s
            })
        }
    }
}

fn text_of(v: &Value, delimiter: char) -> String {
    match v {
        Value::Null => String::new(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Real(r) => r.to_string(),
        Value::Date(d) => {
            let (y, m, day) = datefn::civil_from_days(*d);
            format!("{y:04}-{m:02}-{day:02}")
        }
        Value::Str(s) if s.contains([delimiter, '"', '\r', '\n']) => {
            format!("\"{}\"", s.replace('"', "\"\""))
        }
        Value::Str(s) => s.clone(),
    }
}

/// Write `rows` as CSV with a header line. A ragged row drops its trailing
/// NULL cells; a row that would be blank writes the `NULL` token instead.
fn write_csv(
    schema: &Schema,
    rows: &[Vec<Value>],
    delimiter: char,
    eol: &str,
    ragged: &[bool],
) -> String {
    let d = delimiter.to_string();
    let mut out = schema.names().join(&d) + eol;
    for (row, &ragged) in rows.iter().zip(ragged) {
        let mut cells: Vec<String> = row.iter().map(|v| text_of(v, delimiter)).collect();
        if ragged {
            while cells.len() > 1 && cells.last().is_some_and(String::is_empty) {
                cells.pop();
            }
        }
        if cells.len() == 1 && cells[0].is_empty() {
            cells[0] = "NULL".into();
        }
        out += &cells.join(&d);
        out += eol;
    }
    out
}

type RawCell = (u32, u64, Vec<char>);

fn case() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<RawCell>>, usize, bool, Vec<bool>)> {
    let raw = (
        0u32..4,
        any::<u64>(),
        proptest::collection::vec(proptest::sample::select(ALPHABET.to_vec()), 0..6),
    );
    (
        proptest::collection::vec(0usize..5, 1..6),
        proptest::collection::vec(proptest::collection::vec(raw, 5), 0..25),
        0usize..3,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 25),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(256), ..ProptestConfig::default() })]

    #[test]
    fn written_chunks_parse_back_equal(case in case()) {
        let (types, raw_rows, delim, crlf, ragged) = case;
        let delimiter = [',', '|', '\t'][delim];
        let schema = Arc::new(
            Schema::new(
                types
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| Field::new(format!("c{i}"), TYPES[t]))
                    .collect(),
            )
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = raw_rows
            .iter()
            .map(|raw| {
                types
                    .iter()
                    .zip(raw)
                    .map(|(&t, (kind, bits, chars))| cell(TYPES[t], *kind, *bits, chars))
                    .collect()
            })
            .collect();
        let expected = Chunk::from_rows(Arc::clone(&schema), &rows).unwrap();
        let text = write_csv(&schema, &rows, delimiter, if crlf { "\r\n" } else { "\n" }, &ragged);
        let opts = CsvOptions {
            delimiter,
            header: HeaderMode::Yes,
            schema: Some(schema),
            ..Default::default()
        };
        let parsed = parse_csv(&text, &opts).unwrap();
        prop_assert_eq!(parsed, expected, "text: {:?}", text);
    }
}
