//! Byte-mutation property test for the CSV decoder, in the shape of the
//! cache crate's decoder sweep: valid CSV text with bytes flipped, inserted
//! (quotes, delimiters, CR and LF among them) and deleted. Whatever the
//! text, `parse_csv` returns `Ok` or `Err` and never panics; an `Ok` chunk
//! has columns of one length and no more rows than the text has lines.

use proptest::prelude::*;
use proptest::test_runner::cases;
use std::sync::Arc;
use tabviz_common::{DataType, Field, Schema};
use tabviz_textscan::{parse_csv, CsvOptions};

const TEXT: &str = "carrier,delay,date,ok,note\r\n\
    AA,12,2015-05-31,true,\"O'Hare, Chicago\"\r\n\
    DL,,2015-06-01,false,\"said \"\"hi\"\"\"\n\
    WN,NA,2016-02-29,TRUE,\"multi\nline\"\n\
    \n\
    UA,-3.5,2015-02-28,false\n\
    B6,7,NULL,,plain\n";

/// Bytes worth inserting: the decoder's structural characters first.
const SPECIAL: [u8; 6] = [b'"', b',', b'\r', b'\n', b'|', b' '];

/// One edit at a position scaled into the text: flip a bit, insert a byte
/// (a structural one half of the time) or delete a byte.
fn mutate(text: &mut Vec<u8>, edits: &[(usize, u8, u8)]) {
    for &(pos, kind, byte) in edits {
        let at = pos % (text.len() + 1);
        match kind {
            0 if at < text.len() => text[at] ^= 1 << (byte % 8),
            1 => {
                let b = if byte % 2 == 0 {
                    SPECIAL[(byte as usize / 2) % SPECIAL.len()]
                } else {
                    byte
                };
                text.insert(at, b);
            }
            _ if at < text.len() => {
                text.remove(at);
            }
            _ => {}
        }
    }
}

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            Field::new("carrier", DataType::Str),
            Field::new("delay", DataType::Real),
            Field::new("date", DataType::Date),
            Field::new("ok", DataType::Bool),
            Field::new("note", DataType::Str),
        ])
        .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(1024), ..ProptestConfig::default() })]

    #[test]
    fn mutated_csv_parses_or_fails(
        edits in proptest::collection::vec((any::<usize>(), 0u8..3, 0u8..=255), 1..8)
    ) {
        let mut bytes = TEXT.as_bytes().to_vec();
        mutate(&mut bytes, &edits);
        let Ok(text) = String::from_utf8(bytes) else {
            return Ok(());
        };
        let lines = text.matches('\n').count() + 1;
        let explicit = CsvOptions {
            schema: Some(schema()),
            ..Default::default()
        };
        for opts in [CsvOptions::default(), explicit] {
            if let Ok(chunk) = parse_csv(&text, &opts) {
                prop_assert!(chunk.len() <= lines, "{} rows from {lines} lines", chunk.len());
                for col in chunk.columns() {
                    prop_assert_eq!(col.len(), chunk.len());
                }
            }
        }
    }
}
