//! Cache persistence.
//!
//! Sect. 3.2: "In Tableau Desktop query caches get persisted to enable fast
//! response times across different sessions with the application." Each L1
//! entry is written once — its spec as TQL text, the compiled text the
//! literal level finds it by (empty when it owns none) and its encoded
//! result table — and reloaded into fresh caches on the next session.

use crate::caches::QueryCaches;
use crate::distributed::{decode_chunk, encode_chunk};
use crate::spec::QuerySpec;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;
use std::time::Duration;
use tabviz_common::{Chunk, Result, TvError};
use tabviz_tql::{parse_plan, write_plan};

const MAGIC: &[u8; 4] = b"TVQC";
const VERSION: u8 = 2;

/// Serialize the L1 entries, each with its text key.
pub fn save(caches: &QueryCaches) -> Result<Bytes> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);

    let entries = caches.intelligent.snapshot();
    buf.put_u32_le(entries.len() as u32);
    for (spec, text, chunk, cost) in entries {
        put_str(&mut buf, &spec.source);
        let plan_text = write_plan(&spec.to_plan()?);
        put_str(&mut buf, &plan_text);
        put_str(&mut buf, text.as_deref().unwrap_or(""));
        buf.put_u64_le(cost.as_micros() as u64);
        put_chunk(&mut buf, &chunk)?;
    }
    Ok(buf.freeze())
}

/// Load entries into (fresh or existing) caches. Unparseable entries are
/// skipped, not fatal — a stale cache file must never break startup.
pub fn load(caches: &QueryCaches, mut buf: &[u8]) -> Result<usize> {
    if buf.remaining() < 5 {
        return Err(TvError::Io("truncated cache file".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(TvError::Io("not a cache file".into()));
    }
    if buf.get_u8() != VERSION {
        return Err(TvError::Io("unsupported cache file version".into()));
    }
    let mut loaded = 0usize;

    let n = get_u32(&mut buf)? as usize;
    for _ in 0..n {
        let source = get_str(&mut buf)?;
        let plan_text = get_str(&mut buf)?;
        let text = get_str(&mut buf)?;
        let cost = Duration::from_micros(get_u64(&mut buf)?);
        let chunk = get_chunk(&mut buf)?;
        if let Ok(plan) = parse_plan(&plan_text) {
            if let Some(spec) = QuerySpec::from_plan(&source, &plan) {
                let text = Some(text.as_str()).filter(|t| !t.is_empty());
                caches
                    .intelligent
                    .put_keyed(spec, text, chunk, cost.max(Duration::from_millis(1)));
                loaded += 1;
            }
        }
    }
    Ok(loaded)
}

pub fn save_to_file(caches: &QueryCaches, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, save(caches)?)?;
    Ok(())
}

pub fn load_from_file(caches: &QueryCaches, path: impl AsRef<Path>) -> Result<usize> {
    let bytes = std::fs::read(path)?;
    load(caches, &bytes)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(TvError::Io("truncated cache string".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| TvError::Io("invalid utf8 in cache file".into()))?;
    buf.advance(len);
    Ok(s)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(TvError::Io("truncated cache file".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(TvError::Io("truncated cache file".into()));
    }
    Ok(buf.get_u64_le())
}

fn put_chunk(buf: &mut BytesMut, chunk: &Chunk) -> Result<()> {
    let bytes = encode_chunk(chunk)?;
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(&bytes);
    Ok(())
}

fn get_chunk(buf: &mut &[u8]) -> Result<Chunk> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(TvError::Io("truncated cache chunk".into()));
    }
    let chunk = decode_chunk(&buf[..len])?;
    buf.advance(len);
    Ok(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intelligent::CacheConfig;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_tql::expr::{bin, col, lit, BinOp};
    use tabviz_tql::{AggCall, AggFunc, LogicalPlan};

    fn caches() -> QueryCaches {
        QueryCaches::new(CacheConfig {
            min_cost: Duration::ZERO,
            ..Default::default()
        })
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(0i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    }

    fn chunk() -> Chunk {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("n", DataType::Int),
            ])
            .unwrap(),
        );
        Chunk::from_rows(
            schema,
            &[
                vec!["AA".into(), Value::Int(7)],
                vec!["DL".into(), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_across_sessions() {
        let session1 = caches();
        session1.store(spec(), "SELECT ...", &chunk(), Duration::from_millis(40));
        let img = save(&session1).unwrap();

        // "Restart": brand-new caches, warm from disk image.
        let session2 = caches();
        let loaded = load(&session2, &img).unwrap();
        assert_eq!(loaded, 1); // one entry, found by spec and by text
        let (hit, outcome) = session2.lookup(&spec(), "SELECT ...");
        assert_eq!(outcome, crate::caches::CacheOutcome::IntelligentHit);
        assert_eq!(hit.unwrap().to_rows(), chunk().to_rows());
        assert!(session2.literal.get("faa", "SELECT ...").is_some());
    }

    #[test]
    fn file_roundtrip() {
        let session1 = caches();
        session1.store(spec(), "Q", &chunk(), Duration::from_millis(40));
        let path = std::env::temp_dir().join("tabviz_cache_test.tvqc");
        save_to_file(&session1, &path).unwrap();
        let session2 = caches();
        assert_eq!(load_from_file(&session2, &path).unwrap(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_files_rejected() {
        let c = caches();
        assert!(load(&c, b"JUNK").is_err());
        assert!(load(&c, b"TVQC\x07").is_err());
        let img = save(&c).unwrap();
        assert!(load(&caches(), &img[..4]).is_err());
    }

    #[test]
    fn version_1_files_rejected() {
        // Version 1 held a second, literal section; its layout is not read.
        let mut img = save(&caches()).unwrap().to_vec();
        img[4] = 1;
        img.extend_from_slice(&0u32.to_le_bytes());
        assert!(load(&caches(), &img).is_err());
    }

    #[test]
    fn empty_caches_roundtrip() {
        let img = save(&caches()).unwrap();
        assert_eq!(load(&caches(), &img).unwrap(), 0);
    }
}
