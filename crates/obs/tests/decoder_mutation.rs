//! Byte-mutation property test for the obs crate's text decoders, in the
//! shape of the cache and textscan sweeps: a Chrome trace export, a
//! document of `json::escape`d strings and a metrics exposition carrying
//! exemplars, with bytes flipped, inserted (JSON structure and the exemplar
//! marker among them) and deleted. Whatever the text, `json::parse` and
//! `scrape_exemplars` return without panicking, and every trace id
//! `scrape_exemplars` reports is spelled out in the text it read.

use proptest::prelude::*;
use proptest::test_runner::cases;
use proptest::test_runner::TestCaseResult;
use std::time::Duration;
use tabviz_obs::{
    begin_trace, json, scrape_exemplars, span, stage, to_chrome_trace, validate_chrome_trace,
    ProfileOutcome, RecordedTrace, Registry,
};

/// Strings that exercise every escape `json::escape` writes.
const AWKWARD: [&str; 4] = [
    "say \"hi\"",
    "back\\slash and /slash",
    "two\nlines\ttab\r\u{1}",
    "naïve ✓",
];

/// A Chrome trace export of one small traced query whose labels and query
/// text need escaping.
fn chrome_doc() -> String {
    let trace = begin_trace();
    {
        let mut root = span(stage::REMOTE_EXEC);
        root.label(AWKWARD[0]);
        {
            let mut acquire = span(stage::POOL_ACQUIRE);
            acquire.label(AWKWARD[2]);
            acquire.detail(7);
        }
        let _inner = span(stage::TDE_EXEC);
    }
    let recorded = RecordedTrace::from_finished(
        trace.finish(Duration::from_millis(3)),
        AWKWARD[1],
        AWKWARD[3],
        ProfileOutcome::Remote,
    );
    let doc = to_chrome_trace(&recorded);
    validate_chrome_trace(&doc).expect("the unmutated export is valid");
    doc
}

/// A JSON document built from `escape`d strings: an array of them and an
/// object keyed by them.
fn escaped_doc() -> String {
    let quoted: Vec<String> = AWKWARD
        .iter()
        .map(|s| format!("\"{}\"", json::escape(s)))
        .collect();
    let fields: Vec<String> = quoted
        .iter()
        .enumerate()
        .map(|(i, q)| format!("{q}: [{i}, {q}, {{\"n\": -1.5e3}}]"))
        .collect();
    let doc = format!(
        "[{}, {{{}}}, true, null]",
        quoted.join(", "),
        fields.join(", ")
    );
    let parsed = json::parse(&doc).expect("the unmutated document parses");
    let first = parsed
        .as_arr()
        .and_then(|a| a.first())
        .and_then(|v| v.as_str());
    assert_eq!(first, Some(AWKWARD[0]));
    doc
}

/// A registry exposition in which two histogram buckets carry exemplars.
fn exposition() -> String {
    let reg = Registry::new();
    reg.describe("tv_test_latency_seconds", "Latency with \"exemplars\"\\n");
    reg.counter("tv_test_queries_total").add(3);
    let h = reg.histogram("tv_test_latency_seconds");
    for (micros, n) in [(200, 2), (40_000, 1)] {
        let trace = begin_trace();
        for _ in 0..n {
            h.observe(Duration::from_micros(micros));
        }
        trace.finish(Duration::from_micros(micros));
    }
    let text = reg.render_text();
    assert!(
        scrape_exemplars(&text).len() >= 2,
        "the unmutated exposition carries exemplars:\n{text}"
    );
    text
}

/// Byte sequences worth inserting: the decoders' structural characters and
/// the exemplar marker.
const SPECIAL: [&[u8]; 9] = [
    b"[",
    b"{",
    b"\"",
    b"\\",
    b",",
    b"# {trace_id=\"",
    b"}",
    b"]",
    b"\n",
];

/// One edit at a position scaled into the text: flip a bit, insert bytes
/// (a structural sequence half of the time) or delete a byte.
fn mutate(text: &mut Vec<u8>, edits: &[(usize, u8, u8)]) {
    for &(pos, kind, byte) in edits {
        let at = pos % (text.len() + 1);
        match kind {
            0 if at < text.len() => text[at] ^= 1 << (byte % 8),
            1 => {
                if byte % 2 == 0 {
                    let s = SPECIAL[(byte as usize / 2) % SPECIAL.len()];
                    text.splice(at..at, s.iter().copied());
                } else {
                    text.insert(at, byte);
                }
            }
            _ if at < text.len() => {
                text.remove(at);
            }
            _ => {}
        }
    }
}

fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    proptest::collection::vec((any::<usize>(), 0u8..3, 0u8..=255), 1..8)
}

/// Feed one mutated text to both decoders.
fn decode(bytes: Vec<u8>) -> TestCaseResult {
    let Ok(text) = String::from_utf8(bytes) else {
        return Ok(());
    };
    let _ = json::parse(&text);
    for (series, id) in scrape_exemplars(&text) {
        prop_assert!(
            text.contains(&id.to_string()),
            "id {id} of {series} not in the text"
        );
        prop_assert!(
            text.contains(series.as_str()),
            "series {series} not in the text"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(512), ..ProptestConfig::default() })]

    #[test]
    fn mutated_chrome_exports_decode_or_fail(edits in edits()) {
        let mut bytes = chrome_doc().into_bytes();
        mutate(&mut bytes, &edits);
        decode(bytes)?;
    }

    #[test]
    fn mutated_escaped_strings_decode_or_fail(edits in edits()) {
        let mut bytes = escaped_doc().into_bytes();
        mutate(&mut bytes, &edits);
        decode(bytes)?;
    }

    #[test]
    fn mutated_expositions_decode_or_fail(edits in edits()) {
        let mut bytes = exposition().into_bytes();
        mutate(&mut bytes, &edits);
        decode(bytes)?;
    }
}
