//! Read-only tables with a declared major sort order and parallel fractions.
//!
//! Sect. 4.1.1: "Each table is a directory that contains columns." The TDE is
//! read-only — tables are built once from a chunk and then scanned. Sect.
//! 4.2.1's `FractionTable` ("each fraction can be read by a separate thread")
//! corresponds to [`Table::fractions`]; Sect. 4.2.3's range partitioning
//! ("most tables are sorted according to one or more columns") uses
//! [`Table::sort_key`] and [`Table::range_fractions`].

use crate::column::{encode_chunk, StoredColumn};
use std::sync::Arc;
use tabviz_common::{Chunk, Result, SchemaRef, Value};

/// An immutable, encoded, optionally sorted table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    columns: Vec<StoredColumn>,
    /// Ordered column indices the rows are sorted by (may be empty).
    sort_key: Vec<usize>,
    row_count: usize,
}

impl Table {
    /// Build a table from a chunk. `sort_by` names the desired major sort
    /// order; rows are sorted accordingly before encoding (sorting before
    /// encoding is what makes RLE effective on low-cardinality columns).
    pub fn from_chunk(name: impl Into<String>, chunk: &Chunk, sort_by: &[&str]) -> Result<Self> {
        let schema = Arc::clone(chunk.schema());
        let sort_key: Vec<usize> = sort_by
            .iter()
            .map(|n| schema.index_of(n))
            .collect::<Result<_>>()?;
        let columns = if sort_key.is_empty() {
            encode_chunk(chunk)?
        } else {
            // Gather, encode and drop one column at a time, so at most one
            // sorted copy of a column is alive beside the input.
            let keys: Vec<(usize, bool)> = sort_key.iter().map(|&i| (i, true)).collect();
            let order = chunk.sort_order(&keys);
            schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| StoredColumn::encode(f.clone(), &chunk.column(i).take(&order)))
                .collect::<Result<_>>()?
        };
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            sort_key,
            row_count: chunk.len(),
        })
    }

    /// Build presuming the chunk is already ordered by `sort_key` indices
    /// (used by the pack reader; validated in debug builds only).
    pub(crate) fn from_encoded(
        name: String,
        schema: SchemaRef,
        columns: Vec<StoredColumn>,
        sort_key: Vec<usize>,
        row_count: usize,
    ) -> Self {
        Table {
            name,
            schema,
            columns,
            sort_key,
            row_count,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The ordered column indices this table is sorted by.
    pub fn sort_key(&self) -> &[usize] {
        &self.sort_key
    }

    pub fn column(&self, i: usize) -> &StoredColumn {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[StoredColumn] {
        &self.columns
    }

    pub fn column_by_name(&self, name: &str) -> Result<&StoredColumn> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Decode a row range, optionally projecting a subset of columns.
    pub fn scan_range(
        &self,
        start: usize,
        len: usize,
        projection: Option<&[usize]>,
    ) -> Result<Chunk> {
        let indices: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..self.columns.len()).collect(),
        };
        let schema = Arc::new(self.schema.project(&indices));
        let cols = indices
            .iter()
            .map(|&i| self.columns[i].decode_range(start, len))
            .collect::<Result<Vec<_>>>()?;
        Chunk::new(schema, cols)
    }

    /// Decode the entire table.
    pub fn scan(&self, projection: Option<&[usize]>) -> Result<Chunk> {
        self.scan_range(0, self.row_count, projection)
    }

    /// Split the row space into at most `n` near-equal fractions (random /
    /// row-count partitioning, Sect. 4.2.3). Returns `(start, len)` pairs.
    pub fn fractions(&self, n: usize) -> Vec<(usize, usize)> {
        if self.row_count == 0 || n == 0 {
            return vec![];
        }
        let n = n.min(self.row_count);
        let base = self.row_count / n;
        let rem = self.row_count % n;
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let len = base + usize::from(i < rem);
            out.push((start, len));
            start += len;
        }
        out
    }

    /// Like [`Table::fractions`], but with every boundary snapped to a
    /// multiple of `align`. Used when scans carry pushed-down predicates:
    /// zone-map blocks of [`crate::stats::BLOCK_ROWS`] rows never straddle
    /// two fractions, so parallel workers skip blocks independently.
    pub fn fractions_aligned(&self, n: usize, align: usize) -> Vec<(usize, usize)> {
        if self.row_count == 0 || n == 0 {
            return vec![];
        }
        let align = align.max(1);
        let blocks = self.row_count.div_ceil(align);
        let n = n.min(blocks);
        let base = blocks / n;
        let rem = blocks % n;
        let mut out = Vec::with_capacity(n);
        let mut block = 0usize;
        for i in 0..n {
            let nblocks = base + usize::from(i < rem);
            let start = block * align;
            let end = ((block + nblocks) * align).min(self.row_count);
            out.push((start, end - start));
            block += nblocks;
        }
        out
    }

    /// Range-partition on a prefix of the sort key: fraction boundaries are
    /// placed only *between* distinct values of the given key prefix, so
    /// every group with respect to those columns lands in exactly one
    /// fraction (Lemma 2 of Sect. 4.2.3). Returns `None` when `key_prefix_len`
    /// exceeds the sort key or the table is unsorted.
    pub fn range_fractions(&self, n: usize, key_prefix_len: usize) -> Option<Vec<(usize, usize)>> {
        if key_prefix_len == 0 || key_prefix_len > self.sort_key.len() || self.row_count == 0 {
            return None;
        }
        let key_cols: Vec<&StoredColumn> = self.sort_key[..key_prefix_len]
            .iter()
            .map(|&i| &self.columns[i])
            .collect();
        let same_group = |a: usize, b: usize| -> bool {
            key_cols.iter().all(|c| c.value_at(a) == c.value_at(b))
        };
        // Walk target boundaries and snap each forward to the next group edge.
        let n = n.max(1).min(self.row_count);
        let mut bounds = vec![0usize];
        for i in 1..n {
            let mut b = i * self.row_count / n;
            let prev = *bounds.last().unwrap();
            if b <= prev {
                continue;
            }
            while b < self.row_count && same_group(b - 1, b) {
                b += 1;
            }
            if b > prev && b < self.row_count {
                bounds.push(b);
            }
        }
        bounds.push(self.row_count);
        let mut out = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            out.push((w[0], w[1] - w[0]));
        }
        Some(out)
    }

    /// Approximate encoded size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.columns.iter().map(StoredColumn::encoded_bytes).sum()
    }

    /// The distinct domain of a string column straight from its dictionary —
    /// the fast path for the paper's "domain queries, frequently sent by
    /// Tableau" (Sect. 4.1.2).
    pub fn column_domain(&self, name: &str) -> Result<Option<Vec<Value>>> {
        let col = self.column_by_name(name)?;
        Ok(col
            .dictionary()
            .map(|d| d.iter().map(|s| Value::Str(s.clone())).collect()))
    }
}

/// Re-export for table builders that need codec control.
pub use crate::column::Codec as ColumnCodec;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema, Value};

    fn flights_chunk() -> Chunk {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = [
            ("WN", 5),
            ("AA", 10),
            ("AA", 3),
            ("DL", 7),
            ("WN", 2),
            ("AA", 1),
        ]
        .iter()
        .map(|&(c, d)| vec![Value::Str(c.into()), Value::Int(d)])
        .collect();
        Chunk::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn builds_sorted_and_scans() {
        let t = Table::from_chunk("flights", &flights_chunk(), &["carrier"]).unwrap();
        assert_eq!(t.row_count(), 6);
        assert_eq!(t.sort_key(), &[0]);
        let full = t.scan(None).unwrap();
        // sorted by carrier: AA, AA, AA, DL, WN, WN
        assert_eq!(full.row(0)[0], Value::Str("AA".into()));
        assert_eq!(full.row(3)[0], Value::Str("DL".into()));
        assert_eq!(full.row(5)[0], Value::Str("WN".into()));
    }

    #[test]
    fn projection_scan() {
        let t = Table::from_chunk("flights", &flights_chunk(), &[]).unwrap();
        let p = t.scan(Some(&[1])).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.schema().names(), vec!["delay"]);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn fractions_cover_rows_exactly() {
        let t = Table::from_chunk("flights", &flights_chunk(), &[]).unwrap();
        let fr = t.fractions(4);
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.iter().map(|&(_, l)| l).sum::<usize>(), 6);
        assert_eq!(fr[0].0, 0);
        let fr1 = t.fractions(100); // more fractions than rows
        assert_eq!(fr1.len(), 6);
    }

    #[test]
    fn fractions_aligned_snap_to_blocks() {
        let t = Table::from_chunk("flights", &flights_chunk(), &[]).unwrap();
        // align=4 over 6 rows → 2 blocks; boundaries land on multiples of 4.
        let fr = t.fractions_aligned(3, 4);
        assert_eq!(fr, vec![(0, 4), (4, 2)]);
        assert_eq!(fr.iter().map(|&(_, l)| l).sum::<usize>(), 6);
        // One worker gets everything when there is a single block.
        assert_eq!(t.fractions_aligned(8, 100), vec![(0, 6)]);
        // align=1 degenerates to plain fractions.
        assert_eq!(t.fractions_aligned(4, 1), t.fractions(4));
    }

    #[test]
    fn range_fractions_respect_group_boundaries() {
        let t = Table::from_chunk("flights", &flights_chunk(), &["carrier"]).unwrap();
        let fr = t.range_fractions(3, 1).unwrap();
        assert_eq!(fr.iter().map(|&(_, l)| l).sum::<usize>(), 6);
        // No fraction may split a carrier group.
        let scan = t.scan(None).unwrap();
        for &(start, len) in &fr {
            if start > 0 {
                assert_ne!(
                    scan.row(start - 1)[0],
                    scan.row(start)[0],
                    "fraction boundary splits a group"
                );
            }
            let _ = len;
        }
    }

    #[test]
    fn range_fractions_unavailable_without_sort() {
        let t = Table::from_chunk("flights", &flights_chunk(), &[]).unwrap();
        assert!(t.range_fractions(2, 1).is_none());
        let sorted = Table::from_chunk("flights", &flights_chunk(), &["carrier"]).unwrap();
        assert!(sorted.range_fractions(2, 2).is_none()); // prefix longer than key
    }

    #[test]
    fn domain_from_dictionary() {
        let t = Table::from_chunk("flights", &flights_chunk(), &[]).unwrap();
        let d = t.column_domain("carrier").unwrap().unwrap();
        assert_eq!(
            d,
            vec![
                Value::Str("AA".into()),
                Value::Str("DL".into()),
                Value::Str("WN".into())
            ]
        );
        assert!(t.column_domain("delay").unwrap().is_none());
    }

    #[test]
    fn scan_range_bounds() {
        let t = Table::from_chunk("flights", &flights_chunk(), &[]).unwrap();
        assert!(t.scan_range(4, 3, None).is_err());
        let c = t.scan_range(4, 2, None).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn empty_table() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap());
        let t = Table::from_chunk("e", &Chunk::empty(schema), &[]).unwrap();
        assert_eq!(t.row_count(), 0);
        assert!(t.fractions(4).is_empty());
        assert_eq!(t.scan(None).unwrap().len(), 0);
    }
}
