//! Single-file database packing.
//!
//! Sect. 4.1: "The single database file is an important convenience feature
//! for users to move, share, and publish the data" — and Sect. 4.1.1: "This
//! directory is packaged into a single file once created." This module
//! serializes every user table of a [`Database`] — in its *encoded* form, so
//! compression survives the round trip — into one binary image, and reads it
//! back.
//!
//! Format (little-endian):
//! ```text
//! magic "TVDB" | version u8 | db-name | table-count u32
//!   per table: schema-name | table-name | row-count u64 | sort-key | fields
//!     per column: field | len u64 | null-mask | column-data | dictionary
//! ```

use crate::column::{ColumnData, PhysVec, StoredColumn};
use crate::database::Database;
use crate::table::Table;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;
use std::sync::Arc;
use tabviz_common::{Collation, DataType, Field, NullMask, Result, Schema, TvError};

const MAGIC: &[u8; 4] = b"TVDB";
const VERSION: u8 = 1;

/// Serialize a database (user schemas only) into a single in-memory image.
pub fn pack(db: &Database) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    put_str(&mut buf, db.name());
    let tables = db.user_tables();
    buf.put_u32_le(tables.len() as u32);
    for (schema_name, table) in &tables {
        put_str(&mut buf, schema_name);
        put_str(&mut buf, table.name());
        buf.put_u64_le(table.row_count() as u64);
        buf.put_u16_le(table.sort_key().len() as u16);
        for &k in table.sort_key() {
            buf.put_u16_le(k as u16);
        }
        buf.put_u16_le(table.columns().len() as u16);
        for col in table.columns() {
            put_column(&mut buf, col);
        }
    }
    buf.freeze()
}

/// Write a packed database to a file.
pub fn pack_to_file(db: &Database, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, pack(db))?;
    Ok(())
}

/// Read a packed database image back.
pub fn unpack(mut buf: &[u8]) -> Result<Database> {
    let mut magic = [0u8; 4];
    if buf.remaining() < 5 {
        return Err(TvError::Storage("truncated database image".into()));
    }
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(TvError::Storage("bad magic in database image".into()));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(TvError::Storage(format!(
            "unsupported pack version {version}"
        )));
    }
    let name = get_str(&mut buf)?;
    let db = Database::new(name);
    let table_count = checked_u32(&mut buf)? as usize;
    for _ in 0..table_count {
        let schema_name = get_str(&mut buf)?;
        let table = get_table(&mut buf)?;
        if !db.schema_names().iter().any(|s| s == &schema_name) {
            db.create_schema(&schema_name)?;
        }
        db.put_table(&schema_name, table)?;
    }
    Ok(db)
}

/// Read a packed database from a file.
pub fn unpack_from_file(path: impl AsRef<Path>) -> Result<Database> {
    let bytes = std::fs::read(path)?;
    unpack(&bytes)
}

/// Serialize a single table (used by the persisted query cache to store
/// result chunks in their encoded form).
pub fn pack_table(table: &Table) -> Bytes {
    let mut buf = BytesMut::new();
    put_str(&mut buf, table.name());
    buf.put_u64_le(table.row_count() as u64);
    buf.put_u16_le(table.sort_key().len() as u16);
    for &k in table.sort_key() {
        buf.put_u16_le(k as u16);
    }
    buf.put_u16_le(table.columns().len() as u16);
    for col in table.columns() {
        put_column(&mut buf, col);
    }
    buf.freeze()
}

/// Deserialize a single table written by [`pack_table`].
pub fn unpack_table(mut buf: &[u8]) -> Result<Table> {
    get_table(&mut buf)
}

/// One table: name | row-count | sort-key | fields. Every column must hold
/// `row-count` rows and every sort-key entry must name a column.
fn get_table(buf: &mut &[u8]) -> Result<Table> {
    let name = get_str(buf)?;
    let row_count = checked_u64(buf)? as usize;
    let key_len = checked_u16(buf)? as usize;
    let mut sort_key = Vec::with_capacity(capacity(buf, key_len, 2));
    for _ in 0..key_len {
        sort_key.push(checked_u16(buf)? as usize);
    }
    let col_count = checked_u16(buf)? as usize;
    let mut columns = Vec::with_capacity(capacity(buf, col_count, MIN_COLUMN_BYTES));
    for _ in 0..col_count {
        columns.push(get_column(buf)?);
    }
    if columns.iter().any(|c| c.len() != row_count) {
        return Err(TvError::Storage(
            "column length differs from row count".into(),
        ));
    }
    if sort_key.iter().any(|&k| k >= columns.len()) {
        return Err(TvError::Storage("sort key names no column".into()));
    }
    let schema = Arc::new(Schema::new(
        columns.iter().map(|c| c.field.clone()).collect(),
    )?);
    Ok(Table::from_encoded(
        name, schema, columns, sort_key, row_count,
    ))
}

/// Smallest encoded column: empty name, three field bytes, length, null
/// tag, data tag, phys tag and count, dictionary tag.
const MIN_COLUMN_BYTES: usize = 4 + 3 + 8 + 1 + 1 + 5 + 1;

/// Pre-allocation for `n` elements read from the image: never more than the
/// remaining bytes can hold at `width` bytes per element, so a corrupt count
/// fails on the truncated read instead of allocating.
fn capacity(buf: &[u8], n: usize, width: usize) -> usize {
    n.min(buf.len() / width)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = checked_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(TvError::Storage("truncated string".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| TvError::Storage("invalid utf8 in image".into()))?;
    buf.advance(len);
    Ok(s)
}

fn checked_u16(buf: &mut &[u8]) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(TvError::Storage("truncated image".into()));
    }
    Ok(buf.get_u16_le())
}

fn checked_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(TvError::Storage("truncated image".into()));
    }
    Ok(buf.get_u32_le())
}

fn checked_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(TvError::Storage("truncated image".into()));
    }
    Ok(buf.get_u64_le())
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Real => 2,
        DataType::Str => 3,
        DataType::Date => 4,
    }
}

fn tag_dtype(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Real,
        3 => DataType::Str,
        4 => DataType::Date,
        _ => return Err(TvError::Storage(format!("bad dtype tag {t}"))),
    })
}

fn put_column(buf: &mut BytesMut, col: &StoredColumn) {
    let (field, len, nulls, data, dict) = col.parts();
    put_str(buf, &field.name);
    buf.put_u8(dtype_tag(field.dtype));
    buf.put_u8(match field.collation {
        Collation::Binary => 0,
        Collation::CaseInsensitive => 1,
    });
    buf.put_u8(field.nullable as u8);
    buf.put_u64_le(len as u64);
    match nulls.valid_bits() {
        None => buf.put_u8(0),
        Some(bits) => {
            buf.put_u8(1);
            for &b in bits {
                buf.put_u8(b as u8);
            }
        }
    }
    match data {
        ColumnData::Plain(p) => {
            buf.put_u8(0);
            put_phys(buf, p);
        }
        ColumnData::Rle {
            values,
            counts,
            starts,
        } => {
            buf.put_u8(1);
            put_phys(buf, values);
            buf.put_u32_le(counts.len() as u32);
            for &c in counts {
                buf.put_u32_le(c);
            }
            for &s in starts {
                buf.put_u64_le(s);
            }
        }
        ColumnData::Delta { first, deltas } => {
            buf.put_u8(2);
            buf.put_i64_le(*first);
            buf.put_u32_le(deltas.len() as u32);
            for &d in deltas {
                buf.put_i64_le(d);
            }
        }
    }
    match dict {
        None => buf.put_u8(0),
        Some(d) => {
            buf.put_u8(1);
            buf.put_u32_le(d.len() as u32);
            for s in d.iter() {
                put_str(buf, s);
            }
        }
    }
}

fn get_column(buf: &mut &[u8]) -> Result<StoredColumn> {
    let name = get_str(buf)?;
    if buf.remaining() < 3 {
        return Err(TvError::Storage("truncated field".into()));
    }
    let dtype = tag_dtype(buf.get_u8())?;
    let collation = match buf.get_u8() {
        0 => Collation::Binary,
        1 => Collation::CaseInsensitive,
        t => return Err(TvError::Storage(format!("bad collation tag {t}"))),
    };
    let nullable = buf.get_u8() != 0;
    let mut field = Field::new(name, dtype).with_collation(collation);
    field.nullable = nullable;
    let len = checked_u64(buf)? as usize;
    if buf.remaining() < 1 {
        return Err(TvError::Storage("truncated null mask".into()));
    }
    let nulls = match buf.get_u8() {
        0 => NullMask::none(),
        1 => {
            if buf.remaining() < len {
                return Err(TvError::Storage("truncated null bits".into()));
            }
            let bits = buf[..len].iter().map(|&b| b != 0).collect();
            buf.advance(len);
            NullMask::from_valid_bits(bits)
        }
        t => return Err(TvError::Storage(format!("bad null mask tag {t}"))),
    };
    if buf.remaining() < 1 {
        return Err(TvError::Storage("truncated column data".into()));
    }
    let data = match buf.get_u8() {
        0 => ColumnData::Plain(get_phys(buf)?),
        1 => {
            let values = get_phys(buf)?;
            let n = checked_u32(buf)? as usize;
            let mut counts = Vec::with_capacity(capacity(buf, n, 4 + 8));
            for _ in 0..n {
                counts.push(checked_u32(buf)?);
            }
            let mut starts = Vec::with_capacity(capacity(buf, n, 8));
            for _ in 0..n {
                starts.push(checked_u64(buf)?);
            }
            ColumnData::Rle {
                values,
                counts,
                starts,
            }
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(TvError::Storage("truncated delta".into()));
            }
            let first = buf.get_i64_le();
            let n = checked_u32(buf)? as usize;
            let mut deltas = Vec::with_capacity(capacity(buf, n, 8));
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return Err(TvError::Storage("truncated delta".into()));
                }
                deltas.push(buf.get_i64_le());
            }
            ColumnData::Delta { first, deltas }
        }
        t => return Err(TvError::Storage(format!("bad column data tag {t}"))),
    };
    if buf.remaining() < 1 {
        return Err(TvError::Storage("truncated dictionary".into()));
    }
    let dict = match buf.get_u8() {
        0 => None,
        1 => {
            let n = checked_u32(buf)? as usize;
            let mut d = Vec::with_capacity(capacity(buf, n, 4));
            for _ in 0..n {
                d.push(get_str(buf)?);
            }
            Some(Arc::new(d))
        }
        t => return Err(TvError::Storage(format!("bad dictionary tag {t}"))),
    };
    StoredColumn::from_parts(field, len, nulls, data, dict)
}

fn put_phys(buf: &mut BytesMut, p: &PhysVec) {
    match p {
        PhysVec::Bool(v) => {
            buf.put_u8(0);
            buf.put_u32_le(v.len() as u32);
            for &b in v {
                buf.put_u8(b as u8);
            }
        }
        PhysVec::Int(v) => {
            buf.put_u8(1);
            buf.put_u32_le(v.len() as u32);
            for &x in v {
                buf.put_i64_le(x);
            }
        }
        PhysVec::Real(v) => {
            buf.put_u8(2);
            buf.put_u32_le(v.len() as u32);
            for &x in v {
                buf.put_f64_le(x);
            }
        }
        PhysVec::Date(v) => {
            buf.put_u8(3);
            buf.put_u32_le(v.len() as u32);
            for &x in v {
                buf.put_i32_le(x);
            }
        }
        PhysVec::Code(v) => {
            buf.put_u8(4);
            buf.put_u32_le(v.len() as u32);
            for &x in v {
                buf.put_u32_le(x);
            }
        }
    }
}

fn get_phys(buf: &mut &[u8]) -> Result<PhysVec> {
    if buf.remaining() < 1 {
        return Err(TvError::Storage("truncated physical vector".into()));
    }
    let tag = buf.get_u8();
    let n = checked_u32(buf)? as usize;
    macro_rules! read_n {
        ($reader:ident, $width:expr) => {{
            let mut v = Vec::with_capacity(capacity(buf, n, $width));
            for _ in 0..n {
                if buf.remaining() < $width {
                    return Err(TvError::Storage("truncated physical vector".into()));
                }
                v.push(buf.$reader());
            }
            v
        }};
    }
    Ok(match tag {
        0 => PhysVec::Bool(read_n!(get_u8, 1).into_iter().map(|b| b != 0).collect()),
        1 => PhysVec::Int(read_n!(get_i64_le, 8)),
        2 => PhysVec::Real(read_n!(get_f64_le, 8)),
        3 => PhysVec::Date(read_n!(get_i32_le, 4)),
        4 => PhysVec::Code(read_n!(get_u32_le, 4)),
        t => return Err(TvError::Storage(format!("bad phys tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::{Chunk, Value};

    fn sample_db() -> Database {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str).with_collation(Collation::CaseInsensitive),
                Field::new("delay", DataType::Int),
                Field::new("weight", DataType::Real),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| {
                vec![
                    Value::Str(["AA", "DL", "WN"][i % 3].into()),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i as i64)
                    },
                    Value::Real(i as f64 * 0.5),
                ]
            })
            .collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let db = Database::new("faa");
        db.put(Table::from_chunk("flights", &chunk, &["carrier"]).unwrap())
            .unwrap();
        db
    }

    #[test]
    fn roundtrip_in_memory() {
        let db = sample_db();
        let img = pack(&db);
        let db2 = unpack(&img).unwrap();
        assert_eq!(db2.name(), "faa");
        let t1 = db.resolve("flights").unwrap();
        let t2 = db2.resolve("flights").unwrap();
        assert_eq!(t1.row_count(), t2.row_count());
        assert_eq!(t1.sort_key(), t2.sort_key());
        assert_eq!(t1.scan(None).unwrap(), t2.scan(None).unwrap());
        // encodings survive the round trip
        for (a, b) in t1.columns().iter().zip(t2.columns()) {
            assert_eq!(a.codec_name(), b.codec_name());
        }
    }

    #[test]
    fn roundtrip_via_file() {
        let db = sample_db();
        let path = std::env::temp_dir().join("tabviz_pack_test.tvdb");
        pack_to_file(&db, &path).unwrap();
        let db2 = unpack_from_file(&path).unwrap();
        assert_eq!(
            db.resolve("flights").unwrap().scan(None).unwrap(),
            db2.resolve("flights").unwrap().scan(None).unwrap()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn temp_tables_not_packed() {
        let db = sample_db();
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let chunk = Chunk::from_rows(schema, &[vec![Value::Int(9)]]).unwrap();
        db.put_temp(Table::from_chunk("scratch", &chunk, &[]).unwrap())
            .unwrap();
        let db2 = unpack(&pack(&db)).unwrap();
        assert!(db2.resolve("scratch").is_err());
        assert!(db2.resolve("flights").is_ok());
    }

    #[test]
    fn corrupt_images_rejected() {
        assert!(unpack(b"NOPE").is_err());
        assert!(unpack(b"TVDB\x09").is_err()); // bad version
        let img = pack(&sample_db());
        let truncated = &img[..img.len() / 2];
        assert!(unpack(truncated).is_err());
    }

    #[test]
    fn corrupt_lengths_are_rejected_without_allocating() {
        // Table "t", one row, no sort key, one binary non-nullable Int
        // column "x" of length 1, no null mask, Plain, whose physical
        // vector claims u32::MAX values: 32 GiB if pre-allocated.
        let mut img = Vec::new();
        img.extend_from_slice(&1u32.to_le_bytes());
        img.push(b't');
        img.extend_from_slice(&1u64.to_le_bytes());
        img.extend_from_slice(&0u16.to_le_bytes());
        img.extend_from_slice(&1u16.to_le_bytes());
        img.extend_from_slice(&1u32.to_le_bytes());
        img.push(b'x');
        img.extend_from_slice(&[1, 0, 0]);
        img.extend_from_slice(&1u64.to_le_bytes());
        img.extend_from_slice(&[0, 0, 1]);
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(img.len(), 40);
        assert!(unpack_table(&img).is_err());
    }

    #[test]
    fn inconsistent_parts_are_rejected() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let rows: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Int(i)]).collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let img = pack_table(&Table::from_chunk("t", &chunk, &[]).unwrap()).to_vec();
        assert!(unpack_table(&img).is_ok());
        // The row count (bytes 5..13) no longer matches the column.
        let mut bad = img.clone();
        bad[5] = 9;
        assert!(unpack_table(&bad).is_err());
        // The column length (after name, field bytes) no longer matches its
        // data.
        let mut bad = img.clone();
        bad[5] = 9;
        bad[5 + 8 + 2 + 2 + 5 + 3] = 9;
        assert!(unpack_table(&bad).is_err());
    }

    #[test]
    fn collation_survives() {
        let db2 = unpack(&pack(&sample_db())).unwrap();
        let t = db2.resolve("flights").unwrap();
        assert_eq!(
            t.schema().field_by_name("carrier").unwrap().collation,
            Collation::CaseInsensitive
        );
    }
}
