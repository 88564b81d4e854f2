//! Per-column statistics.
//!
//! The paper's query compiler "incorporates information about cardinalities
//! \[and\] domains" (Sect. 3.1) and the TDE's parallel planner consults
//! "metadata, such as data volume stored in a table" (Sect. 4.2.2). These
//! statistics are computed once at load time, when the data is already being
//! scanned for encoding.

use std::cmp::Ordering;
use tabviz_common::{ColumnVec, Value, Values};

/// Rows per zone-map block. A divisor of the executor's chunk size so a
/// scan window always covers whole blocks (the last block of a column may
/// be short).
pub const BLOCK_ROWS: usize = 4096;

/// Zone-map entry: min/max/null-count over one fixed-size block of rows.
/// A scan can skip the whole block when the pushed-down predicate cannot
/// match anywhere in `[min, max]` (and nulls don't pass either).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    /// Smallest non-null value in the block, if any.
    pub min: Option<Value>,
    /// Largest non-null value in the block.
    pub max: Option<Value>,
    /// Number of null rows in the block.
    pub null_count: u32,
    /// Rows covered by the block (`BLOCK_ROWS` except possibly the last).
    pub rows: u32,
}

impl BlockStats {
    /// `true` when every row in the block is null.
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }
}

/// Column statistics and the zone map (one [`BlockStats`] per `BLOCK_ROWS`
/// rows) of a column, straight from its typed vector. Strings are ranked
/// once per referenced table entry and then handled as integers.
pub fn column_stats(col: &ColumnVec) -> (ColumnStats, Vec<BlockStats>) {
    let valid = col.nulls.valid_bits();
    match &col.values {
        Values::Bool(v) => typed_stats(v, valid, bool::cmp, |&b| Value::Bool(b), None),
        Values::Int(v) => typed_stats(v, valid, i64::cmp, |&i| Value::Int(i), None),
        Values::Real(v) => typed_stats(v, valid, f64::total_cmp, |&r| Value::Real(r), None),
        Values::Date(v) => typed_stats(v, valid, i32::cmp, |&d| Value::Date(d), None),
        Values::Str(v) => {
            let (dict, codes) = v.sorted_dictionary(valid);
            dict_stats(&dict, &codes, valid)
        }
    }
}

/// [`column_stats`] of a string column given as codes into a sorted,
/// duplicate-free dictionary every entry of which some valid row holds.
pub(crate) fn dict_stats(
    dict: &[String],
    codes: &[u32],
    valid: Option<&[bool]>,
) -> (ColumnStats, Vec<BlockStats>) {
    let to_value = |c: &u32| Value::Str(dict[*c as usize].clone());
    typed_stats(codes, valid, u32::cmp, to_value, Some(dict.len()))
}

/// Stats over one typed slice; `cmp` must agree with `Value`'s ordering of
/// `to_value`'s results. The exact distinct count costs a sort unless the
/// caller already knows it.
fn typed_stats<T: Copy>(
    vals: &[T],
    valid: Option<&[bool]>,
    cmp: impl Fn(&T, &T) -> Ordering,
    to_value: impl Fn(&T) -> Value,
    known_distinct: Option<usize>,
) -> (ColumnStats, Vec<BlockStats>) {
    let is_valid = |i: usize| valid.is_none_or(|v| v[i]);
    // Non-decreasing top to bottom, nulls first.
    let sorted = (1..vals.len()).all(|i| match (is_valid(i - 1), is_valid(i)) {
        (false, _) => true,
        (true, false) => false,
        (true, true) => cmp(&vals[i - 1], &vals[i]) != Ordering::Greater,
    });
    let widen = |bounds: Option<(T, T)>, v: T| match bounds {
        None => Some((v, v)),
        Some((lo, hi)) => Some((
            if cmp(&v, &lo) == Ordering::Less {
                v
            } else {
                lo
            },
            if cmp(&v, &hi) == Ordering::Greater {
                v
            } else {
                hi
            },
        )),
    };
    let mut zones = Vec::with_capacity(vals.len().div_ceil(BLOCK_ROWS));
    let mut overall: Option<(T, T)> = None;
    let mut null_total = 0usize;
    for (b, block) in vals.chunks(BLOCK_ROWS).enumerate() {
        let mut bounds: Option<(T, T)> = None;
        let mut null_count = 0u32;
        for (i, &v) in block.iter().enumerate() {
            if is_valid(b * BLOCK_ROWS + i) {
                bounds = widen(bounds, v);
            } else {
                null_count += 1;
            }
        }
        if let Some((lo, hi)) = bounds {
            overall = widen(widen(overall, lo), hi);
        }
        null_total += null_count as usize;
        zones.push(BlockStats {
            min: bounds.map(|(lo, _)| to_value(&lo)),
            max: bounds.map(|(_, hi)| to_value(&hi)),
            null_count,
            rows: block.len() as u32,
        });
    }
    let distinct = known_distinct.unwrap_or_else(|| {
        let mut non_null: Vec<T> = (0..vals.len())
            .filter(|&i| is_valid(i))
            .map(|i| vals[i])
            .collect();
        non_null.sort_unstable_by(&cmp);
        non_null.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
        non_null.len()
    });
    let stats = ColumnStats {
        min: overall.map(|(lo, _)| to_value(&lo)),
        max: overall.map(|(_, hi)| to_value(&hi)),
        distinct,
        null_count: null_total,
        row_count: vals.len(),
        sorted,
    };
    (stats, zones)
}

/// Summary statistics for one stored column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest non-null value, if any non-null value exists.
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Exact number of distinct non-null values.
    pub distinct: usize,
    /// Number of null rows.
    pub null_count: usize,
    /// Total rows.
    pub row_count: usize,
    /// Whether the column is non-decreasing top-to-bottom (nulls first).
    pub sorted: bool,
}

impl ColumnStats {
    /// Fraction of rows expected to match an equality predicate against one
    /// value, assuming a uniform distribution over the distinct values.
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            1.0 / self.distinct as f64
        }
    }

    /// `true` when every non-null value is distinct — a uniqueness property
    /// the optimizer uses for join culling (Sect. 4.1.2).
    pub fn is_unique(&self) -> bool {
        self.distinct + self.null_count == self.row_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::DataType;

    fn stats_of(dtype: DataType, vals: &[Value]) -> (ColumnStats, Vec<BlockStats>) {
        column_stats(&ColumnVec::from_iter_typed(dtype, vals.iter()).unwrap())
    }

    fn int_stats(vals: &[Value]) -> ColumnStats {
        stats_of(DataType::Int, vals).0
    }

    fn int_zones(vals: &[Value]) -> Vec<BlockStats> {
        stats_of(DataType::Int, vals).1
    }

    #[test]
    fn basic_stats() {
        let vals = vec![Value::Int(3), Value::Null, Value::Int(1), Value::Int(3)];
        let s = int_stats(&vals);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(3)));
        assert_eq!(s.distinct, 2);
        assert_eq!(s.null_count, 1);
        assert!(!s.sorted);
        assert!(!s.is_unique());
    }

    #[test]
    fn sorted_detection_counts_nulls_first() {
        let vals = vec![Value::Null, Value::Int(1), Value::Int(1), Value::Int(2)];
        assert!(int_stats(&vals).sorted);
        let vals2 = vec![Value::Int(1), Value::Null];
        assert!(!int_stats(&vals2).sorted);
    }

    #[test]
    fn unique_detection() {
        let s = int_stats(&[Value::Int(1), Value::Int(2), Value::Null]);
        assert!(s.is_unique());
        assert!((s.eq_selectivity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zone_map_blocks() {
        let vals: Vec<Value> = (0..(BLOCK_ROWS + 10))
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                }
            })
            .collect();
        let zones = int_zones(&vals);
        assert_eq!(zones.len(), 2);
        assert_eq!(zones[0].rows as usize, BLOCK_ROWS);
        assert_eq!(zones[0].min, Some(Value::Int(1)));
        // 4095 = 7 * 585 is null, so the block max is the row before it.
        assert_eq!(zones[0].max, Some(Value::Int(BLOCK_ROWS as i64 - 2)));
        assert_eq!(zones[1].rows, 10);
        // 4096 % 7 != 0, so the second block's first row is non-null.
        assert_eq!(zones[1].min, Some(Value::Int(BLOCK_ROWS as i64)));
        assert!(zones[0].null_count > 0);
        assert!(!zones[0].all_null());
    }

    #[test]
    fn zone_map_all_null_block() {
        let vals = vec![Value::Null; 8];
        let zones = int_zones(&vals);
        assert_eq!(zones.len(), 1);
        assert!(zones[0].all_null());
        assert_eq!(zones[0].min, None);
    }

    #[test]
    fn zone_map_empty() {
        assert!(int_zones(&[]).is_empty());
    }

    #[test]
    fn empty_column() {
        let s = int_stats(&[]);
        assert_eq!(s.min, None);
        assert_eq!(s.distinct, 0);
        assert!(s.sorted);
        assert_eq!(s.eq_selectivity(), 0.0);
    }
}
