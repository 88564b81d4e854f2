//! Columnar batches ([`Chunk`]) and their typed column vectors.
//!
//! Execution operators in the TDE pull `Chunk`s from their children (a
//! chunked variant of the paper's Volcano iteration, Sect. 4.1.3, with the
//! "vectorization in expression evaluation" of Sect. 4.2.2 made explicit).
//! Query results, cache entries and backend responses are all `Chunk`s.

use crate::collation::Collation;
use crate::error::{Result, TvError};
use crate::schema::SchemaRef;
use crate::selvec::SelVec;
use crate::strvec::{StrBuilder, StrVec};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Validity mask for a column vector. `None` means "no nulls", which lets the
/// common all-valid case skip per-row checks entirely.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullMask {
    bits: Option<Vec<bool>>,
}

impl NullMask {
    /// A mask with no nulls.
    pub fn none() -> Self {
        NullMask { bits: None }
    }

    /// Build from per-row validity bits (`true` = valid). Collapses to the
    /// compact all-valid representation when possible.
    pub fn from_valid_bits(bits: Vec<bool>) -> Self {
        if bits.iter().all(|&b| b) {
            NullMask { bits: None }
        } else {
            NullMask { bits: Some(bits) }
        }
    }

    pub fn is_valid(&self, i: usize) -> bool {
        self.bits.as_ref().is_none_or(|b| b[i])
    }

    /// The raw validity bits, or `None` in the compact all-valid
    /// representation (serialization hook for the storage layer).
    pub fn valid_bits(&self) -> Option<&[bool]> {
        self.bits.as_deref()
    }

    pub fn has_nulls(&self) -> bool {
        self.bits.as_ref().is_some_and(|b| b.iter().any(|&v| !v))
    }

    pub fn null_count(&self) -> usize {
        self.bits
            .as_ref()
            .map_or(0, |b| b.iter().filter(|&&v| !v).count())
    }

    /// The mask of the given rows, in that order.
    pub fn take(&self, indices: &[usize]) -> Self {
        match &self.bits {
            None => NullMask::none(),
            Some(b) => NullMask::from_valid_bits(indices.iter().map(|&i| b[i]).collect()),
        }
    }

    /// The mask of rows `start..start + len`.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        match &self.bits {
            None => NullMask::none(),
            Some(b) => NullMask::from_valid_bits(b[start..start + len].to_vec()),
        }
    }
}

/// Typed dense value storage for one column of a chunk. Rows masked out by
/// the companion [`NullMask`] hold an arbitrary placeholder. Strings are
/// held dictionary-coded ([`StrVec`]), never as one `String` per row.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Real(Vec<f64>),
    Str(StrVec),
    Date(Vec<i32>),
}

impl Values {
    pub fn data_type(&self) -> DataType {
        match self {
            Values::Bool(_) => DataType::Bool,
            Values::Int(_) => DataType::Int,
            Values::Real(_) => DataType::Real,
            Values::Str(_) => DataType::Str,
            Values::Date(_) => DataType::Date,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Values::Bool(v) => v.len(),
            Values::Int(v) => v.len(),
            Values::Real(v) => v.len(),
            Values::Str(v) => v.len(),
            Values::Date(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate empty storage of the given type with capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Bool => Values::Bool(Vec::with_capacity(cap)),
            DataType::Int => Values::Int(Vec::with_capacity(cap)),
            DataType::Real => Values::Real(Vec::with_capacity(cap)),
            DataType::Str => Values::Str(StrVec::with_capacity(cap)),
            DataType::Date => Values::Date(Vec::with_capacity(cap)),
        }
    }

    /// Typed views: the raw dense slice when the variant matches, else
    /// `None`. Kernels pair these with [`NullMask::valid_bits`] to iterate
    /// columns without materializing a [`Value`] per row.
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Values::Bool(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Values::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_real(&self) -> Option<&[f64]> {
        match self {
            Values::Real(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&StrVec> {
        match self {
            Values::Str(v) => Some(v),
            _ => None,
        }
    }

    fn value_at(&self, i: usize) -> Value {
        match self {
            Values::Bool(v) => Value::Bool(v[i]),
            Values::Int(v) => Value::Int(v[i]),
            Values::Real(v) => Value::Real(v[i]),
            Values::Str(v) => Value::Str(v.get(i).to_string()),
            Values::Date(v) => Value::Date(v[i]),
        }
    }

    fn take(&self, indices: &[usize]) -> Self {
        match self {
            Values::Bool(v) => Values::Bool(indices.iter().map(|&i| v[i]).collect()),
            Values::Int(v) => Values::Int(indices.iter().map(|&i| v[i]).collect()),
            Values::Real(v) => Values::Real(indices.iter().map(|&i| v[i]).collect()),
            Values::Str(v) => Values::Str(v.take(indices)),
            Values::Date(v) => Values::Date(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    fn slice(&self, start: usize, len: usize) -> Self {
        match self {
            Values::Bool(v) => Values::Bool(v[start..start + len].to_vec()),
            Values::Int(v) => Values::Int(v[start..start + len].to_vec()),
            Values::Real(v) => Values::Real(v[start..start + len].to_vec()),
            Values::Str(v) => Values::Str(v.slice(start, len)),
            Values::Date(v) => Values::Date(v[start..start + len].to_vec()),
        }
    }

    fn append(&mut self, other: &Values) -> Result<()> {
        match (self, other) {
            (Values::Bool(a), Values::Bool(b)) => a.extend_from_slice(b),
            (Values::Int(a), Values::Int(b)) => a.extend_from_slice(b),
            (Values::Real(a), Values::Real(b)) => a.extend_from_slice(b),
            (Values::Str(a), Values::Str(b)) => a.append(b),
            (Values::Date(a), Values::Date(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(TvError::Type(format!(
                    "cannot append {} column to {} column",
                    b.data_type(),
                    a.data_type()
                )))
            }
        }
        Ok(())
    }
}

/// One column of a [`Chunk`]: typed values plus a validity mask.
#[derive(Debug, Clone)]
pub struct ColumnVec {
    pub values: Values,
    pub nulls: NullMask,
}

/// Equal masks and equal values. String placeholders on null rows are
/// arbitrary codes (possibly outside the table), so strings compare on
/// valid rows only — and by resolved string, whatever the two tables hold.
impl PartialEq for ColumnVec {
    fn eq(&self, other: &Self) -> bool {
        if self.nulls != other.nulls {
            return false;
        }
        match (&self.values, &other.values, self.nulls.valid_bits()) {
            (Values::Str(a), Values::Str(b), Some(valid)) => {
                a.len() == b.len() && (0..a.len()).all(|i| !valid[i] || a.get(i) == b.get(i))
            }
            (a, b, _) => a == b,
        }
    }
}

impl ColumnVec {
    pub fn new(values: Values, nulls: NullMask) -> Self {
        ColumnVec { values, nulls }
    }

    /// All-valid column from raw values.
    pub fn from_values(values: Values) -> Self {
        ColumnVec {
            values,
            nulls: NullMask::none(),
        }
    }

    /// Build from `Value`s, inferring nulls; `dtype` fixes the column type.
    /// Strings are interned: one table entry per distinct string.
    pub fn from_iter_typed<'a, I>(dtype: DataType, iter: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let iter = iter.into_iter();
        let mut b = ColumnBuilder::new(dtype, iter.size_hint().0);
        for v in iter {
            b.push(v.into())?;
        }
        Ok(b.finish())
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn data_type(&self) -> DataType {
        self.values.data_type()
    }

    /// Materialize the value at row `i` (Null if masked out).
    pub fn get(&self, i: usize) -> Value {
        if self.nulls.is_valid(i) {
            self.values.value_at(i)
        } else {
            Value::Null
        }
    }

    pub fn is_valid(&self, i: usize) -> bool {
        self.nulls.is_valid(i)
    }

    pub fn take(&self, indices: &[usize]) -> Self {
        ColumnVec {
            values: self.values.take(indices),
            nulls: self.nulls.take(indices),
        }
    }

    /// Gather with optional sources: `None` produces a NULL row. This is the
    /// outer-join output shape — unmatched probe rows pad the build columns
    /// with NULLs — built column-at-a-time without a `Value` per cell.
    pub fn take_opt(&self, indices: &[Option<u32>]) -> Self {
        let mut bits = Vec::with_capacity(indices.len());
        for idx in indices {
            bits.push(idx.is_some_and(|i| self.nulls.is_valid(i as usize)));
        }
        macro_rules! gather {
            ($src:expr, $variant:ident) => {
                Values::$variant(
                    indices
                        .iter()
                        .map(|idx| idx.map_or(Default::default(), |i| $src[i as usize]))
                        .collect(),
                )
            };
        }
        let values = match &self.values {
            Values::Bool(v) => gather!(v, Bool),
            Values::Int(v) => gather!(v, Int),
            Values::Real(v) => gather!(v, Real),
            Values::Str(v) => Values::Str(v.take_opt(indices)),
            Values::Date(v) => gather!(v, Date),
        };
        ColumnVec {
            values,
            nulls: NullMask::from_valid_bits(bits),
        }
    }

    pub fn slice(&self, start: usize, len: usize) -> Self {
        ColumnVec {
            values: self.values.slice(start, len),
            nulls: self.nulls.slice(start, len),
        }
    }

    pub fn append(&mut self, other: &ColumnVec) -> Result<()> {
        let old_len = self.len();
        // Materialize bit vectors only if either side has nulls.
        if self.nulls.bits.is_some() || other.nulls.bits.is_some() {
            let mut bits = self
                .nulls
                .bits
                .take()
                .unwrap_or_else(|| vec![true; old_len]);
            match &other.nulls.bits {
                Some(b) => bits.extend_from_slice(b),
                None => bits.extend(std::iter::repeat_n(true, other.len())),
            }
            self.nulls = NullMask::from_valid_bits(bits);
        }
        self.values.append(&other.values)
    }

    /// Compare rows `i` and `j` of two columns of the same type.
    pub fn cmp_rows(
        &self,
        i: usize,
        other: &ColumnVec,
        j: usize,
        collation: Collation,
    ) -> Ordering {
        match (self.nulls.is_valid(i), other.nulls.is_valid(j)) {
            (false, false) => Ordering::Equal,
            (false, true) => Ordering::Less,
            (true, false) => Ordering::Greater,
            (true, true) => match (&self.values, &other.values) {
                (Values::Bool(a), Values::Bool(b)) => a[i].cmp(&b[j]),
                (Values::Int(a), Values::Int(b)) => a[i].cmp(&b[j]),
                (Values::Real(a), Values::Real(b)) => a[i].total_cmp(&b[j]),
                (Values::Date(a), Values::Date(b)) => a[i].cmp(&b[j]),
                (Values::Str(a), Values::Str(b)) => collation.cmp_str(a.get(i), b.get(j)),
                _ => self.get(i).cmp_collated(&other.get(j), collation),
            },
        }
    }
}

/// One cell on its way into a column: a [`Value`] that borrows its string.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Real(f64),
    Str(&'a str),
    Date(i32),
}

impl<'a> From<&'a Value> for Cell<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Real(r) => Cell::Real(*r),
            Value::Str(s) => Cell::Str(s),
            Value::Date(d) => Cell::Date(*d),
        }
    }
}

/// Appends cells to one typed column: dense values, validity bits and, for
/// strings, an interner. Every column built cell by cell goes through
/// [`ColumnBuilder::push`] — [`ColumnVec::from_iter_typed`],
/// [`Chunk::from_rows`] and the CSV reader alike.
#[derive(Debug)]
pub struct ColumnBuilder {
    /// A string column's `Values::Str` stays empty until `finish`; its rows
    /// go to `strs`.
    values: Values,
    strs: StrBuilder,
    valid: Vec<bool>,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType, cap: usize) -> Self {
        let is_str = dtype == DataType::Str;
        ColumnBuilder {
            values: Values::with_capacity(dtype, if is_str { 0 } else { cap }),
            strs: StrBuilder::with_capacity(if is_str { cap } else { 0 }),
            valid: Vec::with_capacity(cap),
        }
    }

    pub fn data_type(&self) -> DataType {
        self.values.data_type()
    }

    /// Append one cell. Ints and reals convert into each other's columns;
    /// a null row holds the type's zero (code 0 for strings) as placeholder.
    pub fn push(&mut self, cell: Cell<'_>) -> Result<()> {
        match (&mut self.values, cell) {
            (Values::Bool(v), Cell::Null) => v.push(false),
            (Values::Bool(v), Cell::Bool(b)) => v.push(b),
            (Values::Int(v), Cell::Null) => v.push(0),
            (Values::Int(v), Cell::Int(i)) => v.push(i),
            (Values::Int(v), Cell::Real(r)) => v.push(r as i64),
            (Values::Real(v), Cell::Null) => v.push(0.0),
            (Values::Real(v), Cell::Real(r)) => v.push(r),
            (Values::Real(v), Cell::Int(i)) => v.push(i as f64),
            (Values::Date(v), Cell::Null) => v.push(0),
            (Values::Date(v), Cell::Date(d)) => v.push(d),
            (Values::Str(_), Cell::Null) => self.strs.push(None),
            (Values::Str(_), Cell::Str(s)) => self.strs.push(Some(s)),
            (values, cell) => {
                let dtype = values.data_type();
                return Err(TvError::Type(format!(
                    "cannot store {cell:?} in {dtype} column"
                )));
            }
        }
        self.valid.push(!matches!(cell, Cell::Null));
        Ok(())
    }

    pub fn finish(self) -> ColumnVec {
        let mut values = self.values;
        if let Values::Str(v) = &mut values {
            *v = self.strs.finish();
        }
        ColumnVec::new(values, NullMask::from_valid_bits(self.valid))
    }
}

/// A columnar batch of rows sharing a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    schema: SchemaRef,
    columns: Vec<ColumnVec>,
    len: usize,
}

impl Chunk {
    /// Assemble from columns; all columns must match the schema arity/types
    /// and share a length.
    pub fn new(schema: SchemaRef, columns: Vec<ColumnVec>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(TvError::Schema(format!(
                "chunk has {} columns but schema has {}",
                columns.len(),
                schema.len()
            )));
        }
        let len = columns.first().map_or(0, ColumnVec::len);
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.data_type() != f.dtype {
                return Err(TvError::Schema(format!(
                    "column '{}' expects {} but got {}",
                    f.name,
                    f.dtype,
                    c.data_type()
                )));
            }
            if c.len() != len {
                return Err(TvError::Schema("ragged chunk columns".into()));
            }
        }
        Ok(Chunk {
            schema,
            columns,
            len,
        })
    }

    /// Zero-row chunk with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::from_values(Values::with_capacity(f.dtype, 0)))
            .collect();
        Chunk {
            schema,
            columns,
            len: 0,
        }
    }

    /// Build from row-major values. Tests use it; outside them the one
    /// caller is `Expr::const_eval`, whose chunk has one row and no columns.
    pub fn from_rows(schema: SchemaRef, rows: &[Vec<Value>]) -> Result<Self> {
        if rows.iter().any(|r| r.len() != schema.len()) {
            return Err(TvError::Schema("row arity mismatch".into()));
        }
        let columns = (schema.fields().iter().enumerate())
            .map(|(ci, f)| ColumnVec::from_iter_typed(f.dtype, rows.iter().map(|r| &r[ci])))
            .collect::<Result<_>>()?;
        Ok(Chunk {
            schema,
            columns,
            len: rows.len(),
        })
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns[i]
    }

    pub fn column_by_name(&self, name: &str) -> Result<&ColumnVec> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Materialize all rows (tests / display).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Self> {
        if mask.len() != self.len {
            return Err(TvError::Exec("filter mask length mismatch".into()));
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        Ok(self.take(&indices))
    }

    /// Gather the given row indices (may repeat / reorder).
    pub fn take(&self, indices: &[usize]) -> Self {
        Chunk {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            len: indices.len(),
        }
    }

    /// Keep the rows a [`SelVec`] selects. The all-rows form is free (the
    /// chunk moves through untouched); a partial selection gathers once.
    pub fn take_sel(self, sel: &SelVec) -> Self {
        match sel {
            SelVec::All(_) => self,
            SelVec::Ids(ids) => {
                let indices: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
                self.take(&indices)
            }
        }
    }

    /// Contiguous sub-range of rows.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        Chunk {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            len,
        }
    }

    /// Project columns by index (may reorder).
    pub fn project(&self, indices: &[usize]) -> Self {
        Chunk {
            schema: Arc::new(self.schema.project(indices)),
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            len: self.len,
        }
    }

    /// Concatenate chunks with identical schemas.
    pub fn concat(schema: SchemaRef, chunks: &[Chunk]) -> Result<Self> {
        let mut out = Chunk::empty(Arc::clone(&schema));
        for ch in chunks {
            if ch.schema.len() != schema.len() {
                return Err(TvError::Schema("concat schema mismatch".into()));
            }
            for (dst, src) in out.columns.iter_mut().zip(&ch.columns) {
                dst.append(src)?;
            }
            out.len += ch.len;
        }
        Ok(out)
    }

    /// Stable sort by the given key columns.
    ///
    /// `keys` are `(column index, ascending)` pairs; string columns compare
    /// under their field's collation. Returns the permuted chunk.
    pub fn sort_by(&self, keys: &[(usize, bool)]) -> Self {
        self.take(&self.sort_order(keys))
    }

    /// The row order [`Chunk::sort_by`] produces: `order[k]` is the row that
    /// lands at position `k`.
    pub fn sort_order(&self, keys: &[(usize, bool)]) -> Vec<usize> {
        // A string key whose table is no longer than the chunk is ranked
        // once per table entry, so the row comparisons are integer compares.
        enum SortKey<'a> {
            Ranks(Vec<u32>),
            Rows(&'a ColumnVec, Collation),
        }
        let sort_keys: Vec<(SortKey<'_>, bool)> = keys
            .iter()
            .map(|&(ci, asc)| {
                let col = &self.columns[ci];
                let collation = self.schema.field(ci).collation;
                let key = match &col.values {
                    Values::Str(v) if v.table().len() <= v.len() => {
                        SortKey::Ranks(str_row_ranks(v, &col.nulls, collation))
                    }
                    _ => SortKey::Rows(col, collation),
                };
                (key, asc)
            })
            .collect();
        let mut indices: Vec<usize> = (0..self.len).collect();
        indices.sort_by(|&a, &b| {
            for (key, asc) in &sort_keys {
                let ord = match key {
                    SortKey::Ranks(r) => r[a].cmp(&r[b]),
                    SortKey::Rows(col, collation) => col.cmp_rows(a, col, b, *collation),
                };
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        indices
    }

    /// Shrink string tables to the entries the rows reference (see
    /// [`StrVec::compact`]); the logical content is unchanged.
    pub fn compact_strings(mut self) -> Self {
        for c in &mut self.columns {
            if let Values::Str(v) = &mut c.values {
                v.compact(c.nulls.valid_bits());
            }
        }
        self
    }

    /// Rough in-memory footprint in bytes, used by cache sizing ("unless ...
    /// the results are excessively large", Sect. 3.2).
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0usize;
        for c in &self.columns {
            total += match &c.values {
                Values::Bool(v) => v.len(),
                Values::Int(v) => v.len() * 8,
                Values::Real(v) => v.len() * 8,
                Values::Date(v) => v.len() * 4,
                Values::Str(v) => v.approx_bytes(),
            };
            if let Some(b) = &c.nulls.bits {
                total += b.len();
            }
        }
        total
    }
}

/// Per-row sort rank of a string column: 0 for NULL (nulls first), else one
/// more than the dense rank of the row's table entry under `collation`
/// (entries equal under the collation share a rank).
fn str_row_ranks(v: &StrVec, nulls: &NullMask, collation: Collation) -> Vec<u32> {
    let table = v.table();
    let mut order: Vec<u32> = (0..table.len() as u32).collect();
    order.sort_by(|&a, &b| collation.cmp_str(&table[a as usize], &table[b as usize]));
    let mut rank = vec![0u32; table.len()];
    let mut next = 0u32;
    for (k, &e) in order.iter().enumerate() {
        if k == 0 || !collation.eq_str(&table[order[k - 1] as usize], &table[e as usize]) {
            next += 1;
        }
        rank[e as usize] = next;
    }
    v.codes()
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            if nulls.is_valid(i) {
                rank[c as usize]
            } else {
                0
            }
        })
        .collect()
}

/// ASCII table rendering used by the examples and the experiment harness.
impl fmt::Display for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.schema.names();
        writeln!(f, "{}", names.join(" | "))?;
        for i in 0..self.len.min(50) {
            let row: Vec<String> = self.row(i).iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", row.join(" | "))?;
        }
        if self.len > 50 {
            writeln!(f, "... ({} rows total)", self.len)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};

    fn schema() -> SchemaRef {
        Arc::new(
            Schema::new(vec![
                Field::new("k", DataType::Str),
                Field::new("v", DataType::Int),
            ])
            .unwrap(),
        )
    }

    fn sample() -> Chunk {
        Chunk::from_rows(
            schema(),
            &[
                vec!["b".into(), Value::Int(2)],
                vec!["a".into(), Value::Null],
                vec!["c".into(), Value::Int(1)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_rows() {
        let ch = sample();
        assert_eq!(ch.len(), 3);
        assert_eq!(ch.row(1), vec![Value::Str("a".into()), Value::Null]);
        assert_eq!(ch.to_rows().len(), 3);
    }

    #[test]
    fn filter_and_take() {
        let ch = sample();
        let f = ch.filter(&[true, false, true]).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(1)[0], Value::Str("c".into()));
        let t = ch.take(&[2, 2, 0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.row(0)[1], Value::Int(1));
        assert_eq!(t.row(1)[1], Value::Int(1));
    }

    #[test]
    fn slice_and_concat() {
        let ch = sample();
        let s = ch.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0)[0], Value::Str("a".into()));
        let cat = Chunk::concat(schema(), &[ch.clone(), s]).unwrap();
        assert_eq!(cat.len(), 5);
        assert_eq!(cat.row(3)[0], Value::Str("a".into()));
        // null survives concat
        assert_eq!(cat.row(3)[1], Value::Null);
    }

    #[test]
    fn project_reorders_columns() {
        let p = sample().project(&[1, 0]);
        assert_eq!(p.schema().names(), vec!["v", "k"]);
        assert_eq!(p.row(0), vec![Value::Int(2), Value::Str("b".into())]);
    }

    #[test]
    fn sort_with_nulls_first() {
        let sorted = sample().sort_by(&[(1, true)]);
        assert_eq!(sorted.row(0)[1], Value::Null);
        assert_eq!(sorted.row(1)[1], Value::Int(1));
        let desc = sample().sort_by(&[(1, false)]);
        assert_eq!(desc.row(0)[1], Value::Int(2));
        assert_eq!(desc.row(2)[1], Value::Null);
    }

    #[test]
    fn sort_respects_collation() {
        let s = Arc::new(
            Schema::new(vec![
                Field::new("k", DataType::Str).with_collation(Collation::CaseInsensitive)
            ])
            .unwrap(),
        );
        let ch =
            Chunk::from_rows(s, &[vec!["b".into()], vec!["A".into()], vec!["a".into()]]).unwrap();
        let sorted = ch.sort_by(&[(0, true)]);
        // case-insensitive: A and a tie, stable order preserved, b last
        assert_eq!(sorted.row(0)[0], Value::Str("A".into()));
        assert_eq!(sorted.row(1)[0], Value::Str("a".into()));
        assert_eq!(sorted.row(2)[0], Value::Str("b".into()));
    }

    #[test]
    fn schema_validation() {
        let bad = Chunk::new(schema(), vec![ColumnVec::from_values(Values::Int(vec![1]))]);
        assert!(bad.is_err());
        let wrong_type = Chunk::new(
            schema(),
            vec![
                ColumnVec::from_values(Values::Int(vec![1])),
                ColumnVec::from_values(Values::Int(vec![1])),
            ],
        );
        assert!(wrong_type.is_err());
    }

    #[test]
    fn empty_chunk() {
        let e = Chunk::empty(schema());
        assert!(e.is_empty());
        assert_eq!(e.num_columns(), 2);
        assert_eq!(e.approx_bytes(), 0);
    }

    #[test]
    fn null_mask_collapses() {
        let m = NullMask::from_valid_bits(vec![true, true]);
        assert!(!m.has_nulls());
        assert_eq!(m.null_count(), 0);
        let m2 = NullMask::from_valid_bits(vec![true, false]);
        assert!(m2.has_nulls());
        assert_eq!(m2.null_count(), 1);
    }

    #[test]
    fn int_real_coercion_in_builder() {
        let col =
            ColumnVec::from_iter_typed(DataType::Real, [Value::Int(1), Value::Real(2.5)].iter())
                .unwrap();
        assert_eq!(col.get(0), Value::Real(1.0));
        let bad = ColumnVec::from_iter_typed(DataType::Int, [Value::Str("x".into())].iter());
        assert!(bad.is_err());
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let ch = sample();
        assert!(ch.approx_bytes() > 0);
    }
}
