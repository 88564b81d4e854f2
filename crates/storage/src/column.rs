//! Encoded column storage.
//!
//! The TDE "implements column-level compression ... dictionary-based
//! compression \[where\] fixed tokens are stored in the original column \[with\]
//! an associated dictionary", plus "lightweight compression storage formats,
//! such as run-length or delta encodings" (Sect. 4.1.1). Dictionary
//! compression is visible outside the storage layer (the dictionary can be
//! consulted for domains); RLE/delta encodings are storage formats that the
//! optimizer may nevertheless exploit (Sect. 4.3's IndexTable is built from
//! [`StoredColumn::rle_runs`]).

use crate::stats::{column_stats, dict_stats, BlockStats, ColumnStats};
use std::sync::Arc;
use tabviz_common::{
    Chunk, ColumnVec, DataType, Field, NullMask, Result, Schema, StrVec, TvError, Value, Values,
};

/// Physical fixed-width vectors. String columns never appear here directly;
/// they are dictionary-compressed into `Code` vectors.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysVec {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Real(Vec<f64>),
    Date(Vec<i32>),
    /// Dictionary codes (index into the owning column's dictionary).
    Code(Vec<u32>),
}

impl PhysVec {
    pub fn len(&self) -> usize {
        match self {
            PhysVec::Bool(v) => v.len(),
            PhysVec::Int(v) => v.len(),
            PhysVec::Real(v) => v.len(),
            PhysVec::Date(v) => v.len(),
            PhysVec::Code(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `n` copies of `other[i]`.
    fn push_repeat(&mut self, other: &PhysVec, i: usize, n: usize) {
        match (self, other) {
            (PhysVec::Bool(d), PhysVec::Bool(s)) => d.extend(std::iter::repeat_n(s[i], n)),
            (PhysVec::Int(d), PhysVec::Int(s)) => d.extend(std::iter::repeat_n(s[i], n)),
            (PhysVec::Real(d), PhysVec::Real(s)) => d.extend(std::iter::repeat_n(s[i], n)),
            (PhysVec::Date(d), PhysVec::Date(s)) => d.extend(std::iter::repeat_n(s[i], n)),
            (PhysVec::Code(d), PhysVec::Code(s)) => d.extend(std::iter::repeat_n(s[i], n)),
            _ => unreachable!("mismatched PhysVec push"),
        }
    }

    fn with_capacity_like(&self, cap: usize) -> PhysVec {
        match self {
            PhysVec::Bool(_) => PhysVec::Bool(Vec::with_capacity(cap)),
            PhysVec::Int(_) => PhysVec::Int(Vec::with_capacity(cap)),
            PhysVec::Real(_) => PhysVec::Real(Vec::with_capacity(cap)),
            PhysVec::Date(_) => PhysVec::Date(Vec::with_capacity(cap)),
            PhysVec::Code(_) => PhysVec::Code(Vec::with_capacity(cap)),
        }
    }

    fn take(&self, rows: &[usize]) -> PhysVec {
        match self {
            PhysVec::Bool(v) => PhysVec::Bool(rows.iter().map(|&r| v[r]).collect()),
            PhysVec::Int(v) => PhysVec::Int(rows.iter().map(|&r| v[r]).collect()),
            PhysVec::Real(v) => PhysVec::Real(rows.iter().map(|&r| v[r]).collect()),
            PhysVec::Date(v) => PhysVec::Date(rows.iter().map(|&r| v[r]).collect()),
            PhysVec::Code(v) => PhysVec::Code(rows.iter().map(|&r| v[r]).collect()),
        }
    }

    fn slice(&self, start: usize, len: usize) -> PhysVec {
        match self {
            PhysVec::Bool(v) => PhysVec::Bool(v[start..start + len].to_vec()),
            PhysVec::Int(v) => PhysVec::Int(v[start..start + len].to_vec()),
            PhysVec::Real(v) => PhysVec::Real(v[start..start + len].to_vec()),
            PhysVec::Date(v) => PhysVec::Date(v[start..start + len].to_vec()),
            PhysVec::Code(v) => PhysVec::Code(v[start..start + len].to_vec()),
        }
    }
}

/// How a column's fixed-width data is laid out.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// One physical value per row.
    Plain(PhysVec),
    /// Run-length encoding: `values[k]` repeats `counts[k]` times starting at
    /// row `starts[k]`. Null rows form runs of their own (masked by the
    /// column's null mask).
    Rle {
        values: PhysVec,
        counts: Vec<u32>,
        starts: Vec<u64>,
    },
    /// Delta encoding for integer-like data: row `i` holds
    /// `first + sum(deltas[..=i-1])`; only used for null-free columns.
    Delta { first: i64, deltas: Vec<i64> },
}

/// Requested storage codec. `Auto` picks per-column as the TDE loader would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Auto,
    Plain,
    Rle,
    Delta,
}

/// A single run of an RLE-encoded column, in IndexTable form:
/// "value, count and start" (Sect. 4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct RleRun {
    pub value: Value,
    pub start: usize,
    pub count: usize,
}

/// An immutable, encoded column with statistics.
#[derive(Debug, Clone)]
pub struct StoredColumn {
    pub field: Field,
    len: usize,
    nulls: NullMask,
    data: ColumnData,
    /// Present iff the column is dictionary-compressed (all `Str` columns).
    dict: Option<Arc<Vec<String>>>,
    pub stats: ColumnStats,
    /// Zone map: per-[`crate::stats::BLOCK_ROWS`]-block min/max/null stats.
    zones: Vec<BlockStats>,
}

/// Average run length at or above which RLE is chosen automatically.
const RLE_MIN_AVG_RUN: usize = 3;

impl StoredColumn {
    /// Encode a column, choosing the codec automatically.
    pub fn encode(field: Field, col: &ColumnVec) -> Result<Self> {
        Self::encode_with(field, col, Codec::Auto)
    }

    /// Encode a column with an explicit codec (used by tests and benches to
    /// pin a layout; `Delta` falls back to `Plain` when inapplicable).
    pub fn encode_with(field: Field, col: &ColumnVec, codec: Codec) -> Result<Self> {
        if field.dtype != col.data_type() {
            return Err(TvError::Storage(format!(
                "field '{}' is {} but column data is {}",
                field.name,
                field.dtype,
                col.data_type()
            )));
        }
        let len = col.len();
        let nulls = col.nulls.clone();
        let valid = nulls.valid_bits();
        // Null rows store the type's zero, whatever placeholder came in.
        fn zeroed<T: Copy + Default>(v: &[T], valid: Option<&[bool]>) -> Vec<T> {
            match valid {
                None => v.to_vec(),
                Some(bits) => v
                    .iter()
                    .zip(bits)
                    .map(|(&x, &ok)| if ok { x } else { T::default() })
                    .collect(),
            }
        }
        let (phys, dict, (stats, zones)) = match &col.values {
            // Dictionary-compress strings: the sorted dictionary gives
            // deterministic, order-preserving codes under binary collation,
            // whatever table the incoming vector was coded against.
            Values::Str(v) => {
                let (dict, codes) = v.sorted_dictionary(valid);
                let stats = dict_stats(&dict, &codes, valid);
                (PhysVec::Code(codes), Some(Arc::new(dict)), stats)
            }
            Values::Bool(v) => (PhysVec::Bool(zeroed(v, valid)), None, column_stats(col)),
            Values::Int(v) => (PhysVec::Int(zeroed(v, valid)), None, column_stats(col)),
            Values::Real(v) => (PhysVec::Real(zeroed(v, valid)), None, column_stats(col)),
            Values::Date(v) => (PhysVec::Date(zeroed(v, valid)), None, column_stats(col)),
        };

        let run_count = count_runs(&phys, &nulls);
        let data = match codec {
            Codec::Plain => ColumnData::Plain(phys),
            Codec::Rle => rle_encode(&phys, &nulls),
            Codec::Delta => delta_encode(&phys, &nulls).unwrap_or(ColumnData::Plain(phys)),
            Codec::Auto => {
                if len > 0 && run_count * RLE_MIN_AVG_RUN <= len {
                    rle_encode(&phys, &nulls)
                } else if stats.sorted && !nulls.has_nulls() {
                    delta_encode(&phys, &nulls).unwrap_or(ColumnData::Plain(phys))
                } else {
                    ColumnData::Plain(phys)
                }
            }
        };

        Ok(StoredColumn {
            field,
            len,
            nulls,
            data,
            dict,
            stats,
            zones,
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Name of the physical layout, for plan explanations and tests.
    pub fn codec_name(&self) -> &'static str {
        match (&self.data, &self.dict) {
            (ColumnData::Plain(_), None) => "plain",
            (ColumnData::Plain(_), Some(_)) => "dict",
            (ColumnData::Rle { .. }, None) => "rle",
            (ColumnData::Rle { .. }, Some(_)) => "dict-rle",
            (ColumnData::Delta { .. }, _) => "delta",
        }
    }

    /// The string dictionary, when dictionary-compressed. Exposes the domain
    /// of the column without a scan — used for filter-domain queries.
    pub fn dictionary(&self) -> Option<&Arc<Vec<String>>> {
        self.dict.as_ref()
    }

    /// The zone map: one [`BlockStats`] per [`crate::stats::BLOCK_ROWS`] rows.
    pub fn zone_map(&self) -> &[BlockStats] {
        &self.zones
    }

    /// The physical layout (read-only); lets the scan pick a code-compare or
    /// run-granularity kernel without decoding.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The column's validity mask.
    pub fn null_mask(&self) -> &NullMask {
        &self.nulls
    }

    /// Enumerate RLE runs (the IndexTable of Sect. 4.3), or `None` when the
    /// column is not run-length encoded.
    pub fn rle_runs(&self) -> Option<Vec<RleRun>> {
        match &self.data {
            ColumnData::Rle {
                values,
                counts,
                starts,
            } => {
                let mut runs = Vec::with_capacity(counts.len());
                for k in 0..counts.len() {
                    let start = starts[k] as usize;
                    let value = if self.nulls.is_valid(start) {
                        self.phys_value(values, k)
                    } else {
                        Value::Null
                    };
                    runs.push(RleRun {
                        value,
                        start,
                        count: counts[k] as usize,
                    });
                }
                Some(runs)
            }
            _ => None,
        }
    }

    /// Enumerate the RLE runs overlapping `[start, start + len)`, clipped to
    /// that window (so `start`/`count` describe only the overlap). `None`
    /// when the column is not run-length encoded. This is the unit of work
    /// for run-granularity filter kernels: one predicate evaluation covers
    /// `count` rows.
    pub fn runs_overlapping(&self, start: usize, len: usize) -> Option<Vec<RleRun>> {
        let ColumnData::Rle {
            values,
            counts,
            starts,
        } = &self.data
        else {
            return None;
        };
        let end = (start + len).min(self.len);
        if start >= end {
            return Some(Vec::new());
        }
        let mut k = run_index(starts, start);
        let mut runs = Vec::new();
        while k < starts.len() && (starts[k] as usize) < end {
            let run_start = starts[k] as usize;
            let run_end = run_start + counts[k] as usize;
            let lo = run_start.max(start);
            let hi = run_end.min(end);
            let value = if self.nulls.is_valid(lo) {
                self.phys_value(values, k)
            } else {
                Value::Null
            };
            runs.push(RleRun {
                value,
                start: lo,
                count: hi - lo,
            });
            k += 1;
        }
        Some(runs)
    }

    /// Gather the given rows (ascending global row ids) into a decoded
    /// column — the selection-vector materialization of a pushed-down
    /// predicate's survivors, done in a single copy. RLE and delta data are
    /// walked incrementally, so a sparse ascending gather never re-decodes.
    pub fn decode_rows(&self, rows: &[usize]) -> Result<ColumnVec> {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
        if let Some(&last) = rows.last() {
            if last >= self.len {
                return Err(TvError::Storage(format!(
                    "row {} out of bounds (len {})",
                    last, self.len
                )));
            }
        }
        let values = match &self.data {
            ColumnData::Plain(p) => self.logical(p.take(rows)),
            ColumnData::Rle {
                values,
                counts,
                starts,
            } => {
                let mut out = values.with_capacity_like(rows.len());
                let mut k = 0usize;
                for &r in rows {
                    while starts[k] as usize + counts[k] as usize <= r {
                        k += 1;
                    }
                    out.push_repeat(values, k, 1);
                }
                self.logical(out)
            }
            ColumnData::Delta { first, deltas } => {
                let mut idx = 0usize;
                let mut cur = *first;
                let mut vals = Vec::with_capacity(rows.len());
                for &r in rows {
                    while idx < r {
                        cur += deltas[idx];
                        idx += 1;
                    }
                    vals.push(cur);
                }
                self.delta_values(vals)
            }
        };
        Ok(ColumnVec::new(values, self.nulls.take(rows)))
    }

    /// The logical vector over decoded physical data: fixed-width types as
    /// they are, codes paired with the column's dictionary — shared, so a
    /// scan copies `u32`s and never a string. (Placeholder codes on null
    /// rows may fall outside an all-null column's empty dictionary; the
    /// null mask masks them out.)
    fn logical(&self, phys: PhysVec) -> Values {
        match phys {
            PhysVec::Bool(v) => Values::Bool(v),
            PhysVec::Int(v) => Values::Int(v),
            PhysVec::Real(v) => Values::Real(v),
            PhysVec::Date(v) => Values::Date(v),
            PhysVec::Code(v) => {
                let dict = self.dict.as_ref().expect("code vector without dictionary");
                Values::Str(StrVec::new(Arc::clone(dict), v))
            }
        }
    }

    fn delta_values(&self, vals: Vec<i64>) -> Values {
        match self.field.dtype {
            DataType::Int => Values::Int(vals),
            DataType::Date => Values::Date(vals.into_iter().map(|v| v as i32).collect()),
            _ => unreachable!("delta encoding only stores Int/Date"),
        }
    }

    fn phys_value(&self, phys: &PhysVec, i: usize) -> Value {
        match phys {
            PhysVec::Bool(v) => Value::Bool(v[i]),
            PhysVec::Int(v) => Value::Int(v[i]),
            PhysVec::Real(v) => Value::Real(v[i]),
            PhysVec::Date(v) => Value::Date(v[i]),
            PhysVec::Code(v) => {
                let dict = self.dict.as_ref().expect("code vector without dictionary");
                // Null rows carry placeholder code 0, which an all-null
                // column's empty dictionary cannot resolve; the null mask
                // governs what the row means, so decode a placeholder.
                Value::Str(dict.get(v[i] as usize).cloned().unwrap_or_default())
            }
        }
    }

    /// Materialize the value at a single row.
    pub fn value_at(&self, row: usize) -> Value {
        if !self.nulls.is_valid(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Plain(p) => self.phys_value(p, row),
            ColumnData::Rle { values, starts, .. } => {
                let k = run_index(starts, row);
                self.phys_value(values, k)
            }
            ColumnData::Delta { first, deltas } => {
                let v = *first + deltas[..row].iter().sum::<i64>();
                self.delta_value(v)
            }
        }
    }

    fn delta_value(&self, v: i64) -> Value {
        match self.field.dtype {
            DataType::Int => Value::Int(v),
            DataType::Date => Value::Date(v as i32),
            _ => unreachable!("delta encoding only stores Int/Date"),
        }
    }

    /// Decode the full column.
    pub fn decode(&self) -> Result<ColumnVec> {
        self.decode_range(0, self.len)
    }

    /// Decode `len` rows starting at `start`. For RLE data this skips
    /// directly to the first overlapping run, which is what makes the
    /// Sect. 4.3 range-skipping join cheap.
    pub fn decode_range(&self, start: usize, len: usize) -> Result<ColumnVec> {
        if start + len > self.len {
            return Err(TvError::Storage(format!(
                "range {}..{} out of bounds (len {})",
                start,
                start + len,
                self.len
            )));
        }
        let values = match &self.data {
            ColumnData::Plain(p) => self.logical(p.slice(start, len)),
            ColumnData::Rle {
                values,
                counts,
                starts,
            } => {
                let mut out = values.with_capacity_like(len);
                if len > 0 {
                    let mut k = run_index(starts, start);
                    let mut produced = 0usize;
                    while produced < len {
                        // Rows of run k overlapping [start+produced, start+len).
                        let run_end = starts[k] as usize + counts[k] as usize;
                        let lo = start + produced;
                        let hi = run_end.min(start + len);
                        let n = hi - lo;
                        debug_assert!(n > 0);
                        out.push_repeat(values, k, n);
                        produced += n;
                        k += 1;
                    }
                }
                self.logical(out)
            }
            ColumnData::Delta { first, deltas } => {
                let mut cur = *first + deltas[..start].iter().sum::<i64>();
                let mut vals = Vec::with_capacity(len);
                for i in 0..len {
                    if i > 0 {
                        cur += deltas[start + i - 1];
                    }
                    vals.push(cur);
                }
                self.delta_values(vals)
            }
        };
        Ok(ColumnVec::new(values, self.nulls.slice(start, len)))
    }

    /// Rough encoded size in bytes (compression accounting in benches).
    pub fn encoded_bytes(&self) -> usize {
        let dict_bytes: usize = self
            .dict
            .as_ref()
            .map_or(0, |d| d.iter().map(|s| s.len() + 8).sum());
        let data_bytes = match &self.data {
            ColumnData::Plain(p) => phys_bytes(p),
            ColumnData::Rle {
                values,
                counts,
                starts,
            } => phys_bytes(values) + counts.len() * 4 + starts.len() * 8,
            ColumnData::Delta { deltas, .. } => 8 + deltas.len() * 8,
        };
        dict_bytes + data_bytes
    }

    /// Internal accessors for the pack module.
    pub(crate) fn parts(
        &self,
    ) -> (
        &Field,
        usize,
        &NullMask,
        &ColumnData,
        Option<&Arc<Vec<String>>>,
    ) {
        (
            &self.field,
            self.len,
            &self.nulls,
            &self.data,
            self.dict.as_ref(),
        )
    }

    pub(crate) fn from_parts(
        field: Field,
        len: usize,
        nulls: NullMask,
        data: ColumnData,
        dict: Option<Arc<Vec<String>>>,
    ) -> Result<Self> {
        // Recompute stats from a full decode: pack files do not store stats.
        let tmp = StoredColumn {
            field,
            len,
            nulls,
            data,
            dict,
            stats: ColumnStats {
                min: None,
                max: None,
                distinct: 0,
                null_count: 0,
                row_count: len,
                sorted: false,
            },
            zones: Vec::new(),
        };
        let col = tmp.decode()?;
        if let (Values::Str(v), Some(dict)) = (&col.values, &tmp.dict) {
            let in_range =
                |(i, &c): (usize, &u32)| (c as usize) < dict.len() || !col.nulls.is_valid(i);
            if !v.codes().iter().enumerate().all(in_range) {
                return Err(TvError::Storage(format!(
                    "column '{}': dictionary code out of range",
                    tmp.field.name
                )));
            }
        }
        let (stats, zones) = column_stats(&col);
        Ok(StoredColumn {
            stats,
            zones,
            ..tmp
        })
    }
}

fn phys_bytes(p: &PhysVec) -> usize {
    match p {
        PhysVec::Bool(v) => v.len(),
        PhysVec::Int(v) => v.len() * 8,
        PhysVec::Real(v) => v.len() * 8,
        PhysVec::Date(v) => v.len() * 4,
        PhysVec::Code(v) => v.len() * 4,
    }
}

/// Index of the run containing `row` given sorted run starts.
fn run_index(starts: &[u64], row: usize) -> usize {
    starts.partition_point(|&s| s <= row as u64) - 1
}

/// Count runs treating null rows as their own value.
fn count_runs(phys: &PhysVec, nulls: &NullMask) -> usize {
    let len = phys.len();
    if len == 0 {
        return 0;
    }
    let mut runs = 1usize;
    for i in 1..len {
        if !same_row(phys, nulls, i - 1, i) {
            runs += 1;
        }
    }
    runs
}

fn same_row(phys: &PhysVec, nulls: &NullMask, a: usize, b: usize) -> bool {
    match (nulls.is_valid(a), nulls.is_valid(b)) {
        (false, false) => true,
        (true, true) => match phys {
            PhysVec::Bool(v) => v[a] == v[b],
            PhysVec::Int(v) => v[a] == v[b],
            PhysVec::Real(v) => v[a].to_bits() == v[b].to_bits(),
            PhysVec::Date(v) => v[a] == v[b],
            PhysVec::Code(v) => v[a] == v[b],
        },
        _ => false,
    }
}

fn rle_encode(phys: &PhysVec, nulls: &NullMask) -> ColumnData {
    let len = phys.len();
    let mut values = phys.with_capacity_like(0);
    let mut counts: Vec<u32> = Vec::new();
    let mut starts: Vec<u64> = Vec::new();
    let mut i = 0usize;
    while i < len {
        let mut j = i + 1;
        while j < len && same_row(phys, nulls, i, j) {
            j += 1;
        }
        values.push_repeat(phys, i, 1);
        counts.push((j - i) as u32);
        starts.push(i as u64);
        i = j;
    }
    ColumnData::Rle {
        values,
        counts,
        starts,
    }
}

/// Delta-encode integer-like data; `None` when the type or nulls make it
/// inapplicable.
fn delta_encode(phys: &PhysVec, nulls: &NullMask) -> Option<ColumnData> {
    if nulls.has_nulls() {
        return None;
    }
    let as_i64: Vec<i64> = match phys {
        PhysVec::Int(v) => v.clone(),
        PhysVec::Date(v) => v.iter().map(|&d| d as i64).collect(),
        _ => return None,
    };
    if as_i64.is_empty() {
        return Some(ColumnData::Delta {
            first: 0,
            deltas: vec![],
        });
    }
    let first = as_i64[0];
    let deltas = as_i64.windows(2).map(|w| w[1] - w[0]).collect();
    Some(ColumnData::Delta { first, deltas })
}

/// Convenience: encode every column of a chunk into stored columns.
pub fn encode_chunk(chunk: &Chunk) -> Result<Vec<StoredColumn>> {
    let schema: &Schema = chunk.schema();
    schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| StoredColumn::encode(f.clone(), chunk.column(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::Value;

    fn int_col(vals: &[Option<i64>]) -> ColumnVec {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect();
        ColumnVec::from_iter_typed(DataType::Int, values.iter()).unwrap()
    }

    fn str_col(vals: &[&str]) -> ColumnVec {
        let values: Vec<Value> = vals.iter().map(|&s| Value::Str(s.into())).collect();
        ColumnVec::from_iter_typed(DataType::Str, values.iter()).unwrap()
    }

    #[test]
    fn plain_roundtrip_with_nulls() {
        let col = int_col(&[Some(1), None, Some(5), Some(2)]);
        let sc =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Plain).unwrap();
        assert_eq!(sc.codec_name(), "plain");
        assert_eq!(sc.decode().unwrap(), col);
        assert_eq!(sc.value_at(1), Value::Null);
        assert_eq!(sc.value_at(2), Value::Int(5));
    }

    #[test]
    fn rle_roundtrip_and_runs() {
        let col = int_col(&[Some(7), Some(7), Some(7), None, None, Some(2)]);
        let sc =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Rle).unwrap();
        assert_eq!(sc.codec_name(), "rle");
        assert_eq!(sc.decode().unwrap(), col);
        let runs = sc.rle_runs().unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(
            runs[0],
            RleRun {
                value: Value::Int(7),
                start: 0,
                count: 3
            }
        );
        assert_eq!(
            runs[1],
            RleRun {
                value: Value::Null,
                start: 3,
                count: 2
            }
        );
        assert_eq!(
            runs[2],
            RleRun {
                value: Value::Int(2),
                start: 5,
                count: 1
            }
        );
    }

    #[test]
    fn rle_range_decode_skips() {
        let mut vals = Vec::new();
        for v in 0..10i64 {
            for _ in 0..100 {
                vals.push(Some(v));
            }
        }
        let col = int_col(&vals);
        let sc =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Rle).unwrap();
        let r = sc.decode_range(250, 200).unwrap();
        assert_eq!(r.len(), 200);
        assert_eq!(r.get(0), Value::Int(2));
        assert_eq!(r.get(49), Value::Int(2));
        assert_eq!(r.get(50), Value::Int(3));
        assert_eq!(r.get(199), Value::Int(4));
    }

    #[test]
    fn delta_roundtrip() {
        let col = int_col(&[Some(10), Some(12), Some(11), Some(20)]);
        let sc =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Delta).unwrap();
        assert_eq!(sc.codec_name(), "delta");
        assert_eq!(sc.decode().unwrap(), col);
        assert_eq!(sc.value_at(3), Value::Int(20));
        let r = sc.decode_range(1, 2).unwrap();
        assert_eq!(r.get(0), Value::Int(12));
        assert_eq!(r.get(1), Value::Int(11));
    }

    #[test]
    fn delta_rejects_nulls_falls_back_to_plain() {
        let col = int_col(&[Some(1), None]);
        let sc =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Delta).unwrap();
        assert_eq!(sc.codec_name(), "plain");
        assert_eq!(sc.decode().unwrap(), col);
    }

    #[test]
    fn strings_always_dictionary_compressed() {
        let col = str_col(&["b", "a", "b", "b", "c"]);
        let sc = StoredColumn::encode(Field::new("s", DataType::Str), &col).unwrap();
        assert!(sc.dictionary().is_some());
        let dict = sc.dictionary().unwrap();
        assert_eq!(dict.as_slice(), &["a", "b", "c"]);
        assert_eq!(sc.decode().unwrap(), col);
    }

    #[test]
    fn auto_picks_rle_for_long_runs() {
        let vals: Vec<Option<i64>> = std::iter::repeat_n(Some(1), 100)
            .chain(std::iter::repeat_n(Some(2), 100))
            .collect();
        let sc = StoredColumn::encode(Field::new("x", DataType::Int), &int_col(&vals)).unwrap();
        assert_eq!(sc.codec_name(), "rle");
    }

    #[test]
    fn auto_picks_delta_for_sorted_unique() {
        let vals: Vec<Option<i64>> = (0..100).map(|i| Some(i * 3)).collect();
        let sc = StoredColumn::encode(Field::new("x", DataType::Int), &int_col(&vals)).unwrap();
        assert_eq!(sc.codec_name(), "delta");
    }

    #[test]
    fn auto_picks_plain_for_random() {
        let vals: Vec<Option<i64>> = (0..100).map(|i| Some((i * 7919) % 97)).collect();
        let sc = StoredColumn::encode(Field::new("x", DataType::Int), &int_col(&vals)).unwrap();
        assert_eq!(sc.codec_name(), "plain");
    }

    #[test]
    fn dict_rle_for_repeated_strings() {
        let vals: Vec<&str> = std::iter::repeat_n("AA", 50)
            .chain(std::iter::repeat_n("WN", 50))
            .collect();
        let sc = StoredColumn::encode(Field::new("s", DataType::Str), &str_col(&vals)).unwrap();
        assert_eq!(sc.codec_name(), "dict-rle");
        let runs = sc.rle_runs().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].value, Value::Str("WN".into()));
        assert_eq!(runs[1].start, 50);
    }

    #[test]
    fn range_bounds_checked() {
        let sc = StoredColumn::encode(
            Field::new("x", DataType::Int),
            &int_col(&[Some(1), Some(2)]),
        )
        .unwrap();
        assert!(sc.decode_range(1, 2).is_err());
        assert!(sc.decode_range(0, 2).is_ok());
    }

    #[test]
    fn encoded_bytes_reflects_compression() {
        let vals: Vec<Option<i64>> = std::iter::repeat_n(Some(42), 10_000).collect();
        let col = int_col(&vals);
        let rle =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Rle).unwrap();
        let plain =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Plain).unwrap();
        assert!(rle.encoded_bytes() * 100 < plain.encoded_bytes());
    }

    #[test]
    fn type_mismatch_rejected() {
        let col = int_col(&[Some(1)]);
        assert!(StoredColumn::encode(Field::new("x", DataType::Str), &col).is_err());
    }

    #[test]
    fn runs_overlapping_clips_to_window() {
        let col = int_col(&[Some(7), Some(7), Some(7), None, None, Some(2)]);
        let sc =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Rle).unwrap();
        let runs = sc.runs_overlapping(1, 3).unwrap();
        assert_eq!(
            runs,
            vec![
                RleRun {
                    value: Value::Int(7),
                    start: 1,
                    count: 2
                },
                RleRun {
                    value: Value::Null,
                    start: 3,
                    count: 1
                },
            ]
        );
        assert!(sc.runs_overlapping(0, 0).unwrap().is_empty());
        let plain =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &col, Codec::Plain).unwrap();
        assert!(plain.runs_overlapping(0, 6).is_none());
    }

    #[test]
    fn decode_rows_gathers_across_codecs() {
        let vals: Vec<Option<i64>> = (0..300)
            .map(|i| if i % 11 == 0 { None } else { Some(i / 10) })
            .collect();
        let col = int_col(&vals);
        let rows = vec![0usize, 3, 10, 150, 299];
        for codec in [Codec::Plain, Codec::Rle] {
            let sc =
                StoredColumn::encode_with(Field::new("x", DataType::Int), &col, codec).unwrap();
            let got = sc.decode_rows(&rows).unwrap();
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(got.get(i), col.get(r), "codec {codec:?} row {r}");
            }
        }
        // Delta needs sorted, null-free data.
        let sorted: Vec<Option<i64>> = (0..300).map(|i| Some(i * 2)).collect();
        let scol = int_col(&sorted);
        let sc =
            StoredColumn::encode_with(Field::new("x", DataType::Int), &scol, Codec::Delta).unwrap();
        assert_eq!(sc.codec_name(), "delta");
        let got = sc.decode_rows(&rows).unwrap();
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(got.get(i), scol.get(r));
        }
        assert!(sc.decode_rows(&[300]).is_err());
        assert_eq!(sc.decode_rows(&[]).unwrap().len(), 0);
    }

    #[test]
    fn decode_rows_gathers_strings() {
        let vals: Vec<&str> = (0..100).map(|i| if i < 50 { "AA" } else { "WN" }).collect();
        let col = str_col(&vals);
        let sc = StoredColumn::encode(Field::new("s", DataType::Str), &col).unwrap();
        assert_eq!(sc.codec_name(), "dict-rle");
        let got = sc.decode_rows(&[0, 49, 50, 99]).unwrap();
        assert_eq!(got.get(0), Value::Str("AA".into()));
        assert_eq!(got.get(2), Value::Str("WN".into()));
    }

    #[test]
    fn zone_map_present_on_encode() {
        let vals: Vec<Option<i64>> = (0..10_000).map(Some).collect();
        let sc = StoredColumn::encode(Field::new("x", DataType::Int), &int_col(&vals)).unwrap();
        let zones = sc.zone_map();
        assert_eq!(zones.len(), 10_000_usize.div_ceil(crate::stats::BLOCK_ROWS));
        assert_eq!(zones[0].min, Some(Value::Int(0)));
        assert_eq!(
            zones[1].min,
            Some(Value::Int(crate::stats::BLOCK_ROWS as i64))
        );
    }

    #[test]
    fn empty_column_roundtrip() {
        let col = int_col(&[]);
        for codec in [Codec::Plain, Codec::Rle, Codec::Delta, Codec::Auto] {
            let sc =
                StoredColumn::encode_with(Field::new("x", DataType::Int), &col, codec).unwrap();
            assert_eq!(sc.len(), 0);
            assert_eq!(sc.decode().unwrap().len(), 0);
        }
    }
}
