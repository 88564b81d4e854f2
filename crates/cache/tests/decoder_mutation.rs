//! Byte-mutation property tests for the decoders of external bytes: a
//! packed table (`unpack_table`), an L2 value (`decode_chunk`), a cache
//! file (`persist::load`) and TQL text (`parse_plan`, `parse_expr`).
//! Whatever the bytes, each returns `Ok` or `Err`; none panics, and none
//! pre-allocates from a corrupt length or recurses without bound.

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::Arc;
use std::time::Duration;
use tabviz_cache::intelligent::CacheConfig;
use tabviz_cache::{decode_chunk, encode_chunk, persist, QueryCaches, QuerySpec};
use tabviz_common::{Chunk, Collation, DataType, Field, Schema, Value};
use tabviz_storage::pack::unpack_table;
use tabviz_tql::parser::parse_expr;
use tabviz_tql::{parse_plan, write_plan, AggCall, AggFunc, LogicalPlan};

/// 300 rows whose columns take every stored form: a sorted string (RLE
/// over a dictionary), an ascending integer (delta), a nullable real
/// (plain, null mask), a boolean and a case-insensitive string.
fn chunk() -> Chunk {
    let schema = Arc::new(
        Schema::new(vec![
            Field::new("carrier", DataType::Str),
            Field::new("n", DataType::Int),
            Field::new("w", DataType::Real),
            Field::new("b", DataType::Bool),
            Field::new("ci", DataType::Str).with_collation(Collation::CaseInsensitive),
            Field::new("d", DataType::Date),
        ])
        .unwrap(),
    );
    let rows: Vec<Vec<Value>> = (0..300)
        .map(|i| {
            vec![
                Value::Str(["AA", "DL", "a-long-carrier-name"][i / 100].into()),
                Value::Int(i as i64 * 3),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Real(i as f64 / 4.0)
                },
                Value::Bool(i % 3 == 0),
                Value::Str(["x", "X", "y"][i % 3].into()),
                Value::Date((i % 40) as i32),
            ]
        })
        .collect();
    Chunk::from_rows(schema, &rows).unwrap()
}

fn caches() -> QueryCaches {
    QueryCaches::new(CacheConfig {
        min_cost: Duration::ZERO,
        ..Default::default()
    })
}

/// A cache file holding one entry, with its text key.
fn cache_image() -> Vec<u8> {
    let c = caches();
    let spec = QuerySpec::new("faa", LogicalPlan::scan("flights"))
        .group("carrier")
        .agg(AggCall::new(AggFunc::Count, None, "n"));
    c.store(spec, "SQL", &chunk(), Duration::from_millis(5));
    persist::save(&c).unwrap().to_vec()
}

/// One edit: overwrite a byte, flip a bit, stamp `0xFFFF_FFFF` (a huge
/// length) or truncate, at a position scaled into the image.
fn mutate(img: &mut Vec<u8>, edits: &[(usize, u8, u8)]) {
    for &(pos, kind, byte) in edits {
        if img.is_empty() {
            return;
        }
        let at = pos % img.len();
        match kind {
            0 => img[at] = byte,
            1 => img[at] ^= 1 << (byte % 8),
            2 => {
                let end = (at + 4).min(img.len());
                img[at..end].fill(0xFF);
            }
            _ => img.truncate(at),
        }
    }
}

fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    proptest::collection::vec((any::<usize>(), 0u8..4, 0u8..=255), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(512), ..ProptestConfig::default() })]

    #[test]
    fn mutated_tables_decode_or_fail(edits in edits()) {
        let mut img = encode_chunk(&chunk()).unwrap().to_vec();
        mutate(&mut img, &edits);
        if let Ok(table) = unpack_table(&img) {
            // A table that decodes must also scan.
            let _ = table.scan(None);
        }
        let _ = decode_chunk(&img);
    }

    #[test]
    fn mutated_cache_files_load_or_fail(edits in edits()) {
        let mut img = cache_image();
        mutate(&mut img, &edits);
        let _ = persist::load(&caches(), &img);
    }

    #[test]
    fn mutated_plan_text_parses_or_fails(edits in edits()) {
        let mut text = plan_text().into_bytes();
        mutate(&mut text, &edits);
        let text = String::from_utf8_lossy(&text);
        let _ = parse_plan(&text);
        let _ = parse_expr(&text);
    }
}

/// A plan touching most of the grammar, as the cache file stores it.
fn plan_text() -> String {
    let plan = parse_plan(
        r#"(topn 5 ((n desc))
             (aggregate ((carrier) ((year date) as y))
                        ((count as n) (countd origin as o) (avg delay as d))
               (select (and (between distance 100 900)
                            (in carrier "AA" "DL")
                            (not (isnull delay)))
                 (join left ((carrier code)) (scan flights) (scan carriers code name)))))"#,
    )
    .unwrap();
    write_plan(&plan)
}

/// Where the first intelligent-cache entry's plan text sits in a cache
/// image: the image is magic + version, an entry count, then per entry a
/// length-prefixed source and a length-prefixed plan text. Returns the
/// offset of the text's length prefix and the end of the text.
fn plan_span(img: &[u8]) -> (usize, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(img[at..at + 4].try_into().unwrap()) as usize;
    let at = 9 + 4 + u32_at(9);
    (at, at + 4 + u32_at(at))
}

fn with_plan_text(img: &[u8], text: &str) -> Vec<u8> {
    let (at, end) = plan_span(img);
    let mut out = img[..at].to_vec();
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(&img[end..]);
    out
}

#[test]
fn deeply_nested_plan_in_a_cache_file_is_skipped() {
    let img = cache_image();
    let (at, end) = plan_span(&img);
    let stored = std::str::from_utf8(&img[at + 4..end]).unwrap();
    assert!(parse_plan(stored).is_ok(), "{stored}");
    assert_eq!(
        persist::load(&caches(), &with_plan_text(&img, stored)).unwrap(),
        1
    );
    // The entry whose plan does not parse is skipped, text key and all.
    let deep = with_plan_text(&img, &"(".repeat(100_000));
    assert_eq!(persist::load(&caches(), &deep).unwrap(), 0);
}

#[test]
fn unmutated_images_decode() {
    assert_eq!(
        decode_chunk(&encode_chunk(&chunk()).unwrap()).unwrap(),
        chunk()
    );
    assert_eq!(persist::load(&caches(), &cache_image()).unwrap(), 1);
    assert!(parse_plan(&plan_text()).is_ok());
}
