//! Aggregation operators.
//!
//! [`HashAggOp`] is the stop-and-go hash aggregate ("normal aggregate
//! (currently based on hashing only in the TDE)", Sect. 4.2.4) and the one
//! operator for every row-level GROUP BY, grouped (sorted) input included.
//! [`RunAggOp`] aggregates RLE runs without decoding rows. Both fold their
//! input into one `Grouping`: packed group keys plus one typed columnar
//! accumulator (`AggStateCol`) per aggregate call.

use std::borrow::Cow;
use std::sync::Arc;
use tabviz_common::{
    Chunk, Collation, ColumnVec, DataType, NullMask, Result, Schema, SchemaRef, SelVec, StrVec,
    TvError, Value, Values,
};
use tabviz_storage::{ColumnData, Table};
use tabviz_tql::agg::AggFunc;
use tabviz_tql::expr::Expr;
use tabviz_tql::AggCall;

use super::key::{GroupTable, KeyLayout};
use super::PhysOp;

/// Evaluate group expressions and aggregate arguments for one chunk.
struct EvalSet {
    groups: Vec<ColumnVec>,
    args: Vec<Option<ColumnVec>>,
}

fn eval_set(chunk: &Chunk, group_by: &[(Expr, String)], aggs: &[AggCall]) -> Result<EvalSet> {
    let groups = group_by
        .iter()
        .map(|(e, _)| e.eval(chunk))
        .collect::<Result<Vec<_>>>()?;
    let args = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| e.eval(chunk)).transpose())
        .collect::<Result<Vec<_>>>()?;
    Ok(EvalSet { groups, args })
}

/// `col` as a column of `dtype`: borrowed when the evaluated variant already
/// is `dtype`, converted value by value otherwise (an Int-valued expression
/// in a Real-typed field). The one conversion from delivered to declared
/// type, for group representatives and aggregate arguments alike.
fn conform(col: &ColumnVec, dtype: DataType) -> Result<Cow<'_, ColumnVec>> {
    if col.values.data_type() == dtype {
        return Ok(Cow::Borrowed(col));
    }
    let vals: Vec<Value> = (0..col.len()).map(|i| col.get(i)).collect();
    ColumnVec::from_iter_typed(dtype, vals.iter()).map(Cow::Owned)
}

fn type_mismatch() -> TvError {
    TvError::Exec("aggregate argument does not match its declared type".into())
}

/// Int, Date and Bool values as the `i64`s one accumulator holds.
fn i64s(values: &Values) -> Result<Cow<'_, [i64]>> {
    Ok(match values {
        Values::Int(v) => Cow::Borrowed(v),
        Values::Date(v) => Cow::Owned(v.iter().map(|&d| i64::from(d)).collect()),
        Values::Bool(v) => Cow::Owned(v.iter().map(|&b| i64::from(b)).collect()),
        _ => return Err(type_mismatch()),
    })
}

/// How many input rows the k-th selected row of an update stands for: one
/// for row input, the segment length for RunAgg's run segments. Generic,
/// so the unweighted loops compile without the multiply.
trait Weight: Copy {
    fn at(self, k: usize) -> i64;
}

/// Every row counts once.
#[derive(Clone, Copy)]
struct Unit;

impl Weight for Unit {
    #[inline(always)]
    fn at(self, _: usize) -> i64 {
        1
    }
}

impl Weight for &[i64] {
    #[inline(always)]
    fn at(self, k: usize) -> i64 {
        self[k]
    }
}

/// Selected rows per COUNTD pair encoding.
const COUNTD_SLICE: usize = 4096;

/// Typed columnar accumulator for one aggregate call across all groups.
///
/// The variant is chosen once, from the declared argument type, and
/// [`Grouping::update`] conforms every argument chunk to that type, so
/// `update` is a tight loop over one typed slice.
enum AggStateCol {
    CountStar {
        counts: Vec<i64>,
    },
    CountCol {
        counts: Vec<i64>,
    },
    /// Distinct (group id, argument) pairs in one packed-key table; a
    /// group's count is its number of first insertions. The argument keys
    /// under Binary collation — Real by bits, Int by its `i64`, strings byte
    /// for byte — which is the equality of `Value`.
    CountD {
        pairs: GroupTable,
        counts: Vec<i64>,
    },
    SumInt {
        sums: Vec<i64>,
        seen: Vec<bool>,
    },
    SumReal {
        sums: Vec<f64>,
        seen: Vec<bool>,
    },
    /// MIN/MAX over Int, Date or Bool on one `i64` accumulator; the output
    /// is built back in `dtype`.
    MinMaxInt {
        vals: Vec<i64>,
        seen: Vec<bool>,
        is_min: bool,
        dtype: DataType,
    },
    MinMaxReal {
        vals: Vec<f64>,
        seen: Vec<bool>,
        is_min: bool,
    },
    /// MIN/MAX over Str: each group's winning string, compared byte-wise as
    /// `Value::cmp` does.
    MinMaxStr {
        vals: Vec<Option<String>>,
        is_min: bool,
    },
    AvgNum {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
}

impl AggStateCol {
    /// `arg_type` is `None` for `COUNT(*)` and for an argument of unknown
    /// type (an untyped NULL literal), which never delivers a value.
    fn new(call: &AggCall, arg_type: Option<DataType>) -> Result<Self> {
        use DataType::{Bool, Date, Int, Real, Str};
        let is_min = call.func == AggFunc::Min;
        Ok(match (call.func, arg_type) {
            (AggFunc::Count, _) if call.arg.is_none() => AggStateCol::CountStar { counts: vec![] },
            (AggFunc::Count, _) | (AggFunc::CountD, None) => {
                AggStateCol::CountCol { counts: vec![] }
            }
            (AggFunc::CountD, Some(t)) => AggStateCol::CountD {
                pairs: GroupTable::new(KeyLayout::new(vec![Int, t], vec![Collation::Binary; 2])),
                counts: vec![],
            },
            (AggFunc::Sum, Some(Int)) => AggStateCol::SumInt {
                sums: vec![],
                seen: vec![],
            },
            (AggFunc::Sum, Some(Real)) => AggStateCol::SumReal {
                sums: vec![],
                seen: vec![],
            },
            (AggFunc::Min | AggFunc::Max, Some(dtype @ (Int | Date | Bool))) => {
                AggStateCol::MinMaxInt {
                    vals: vec![],
                    seen: vec![],
                    is_min,
                    dtype,
                }
            }
            (AggFunc::Min | AggFunc::Max, Some(Real)) => AggStateCol::MinMaxReal {
                vals: vec![],
                seen: vec![],
                is_min,
            },
            (AggFunc::Min | AggFunc::Max, Some(Str)) => AggStateCol::MinMaxStr {
                vals: vec![],
                is_min,
            },
            (AggFunc::Avg, None | Some(Int | Real | Date)) => AggStateCol::AvgNum {
                sums: vec![],
                counts: vec![],
            },
            (func, t) => {
                let over = t.map_or("an untyped NULL".to_string(), |t| t.to_string());
                return Err(TvError::Type(format!("{} over {over}", func.name())));
            }
        })
    }

    /// Grow every per-group slot to `n` groups (identity elements).
    fn resize(&mut self, n: usize) {
        match self {
            AggStateCol::CountStar { counts }
            | AggStateCol::CountCol { counts }
            | AggStateCol::CountD { counts, .. } => counts.resize(n, 0),
            AggStateCol::SumInt { sums: vals, seen }
            | AggStateCol::MinMaxInt { vals, seen, .. } => {
                vals.resize(n, 0);
                seen.resize(n, false);
            }
            AggStateCol::SumReal { sums: vals, seen }
            | AggStateCol::MinMaxReal { vals, seen, .. } => {
                vals.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggStateCol::MinMaxStr { vals, .. } => vals.resize(n, None),
            AggStateCol::AvgNum { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
        }
    }

    /// One chunk's worth of updates. `gids[k]` is the group of the k-th
    /// *selected* row (parallel to `sel.iter()`) and `w.at(k)` how many
    /// input rows it stands for (COUNT adds it, SUM and AVG multiply by it,
    /// MIN/MAX and COUNTD ignore it). `arg` is in the declared type.
    fn update<W: Weight>(
        &mut self,
        arg: Option<&ColumnVec>,
        sel: &SelVec,
        gids: &[u32],
        w: W,
    ) -> Result<()> {
        let valid = arg.and_then(|c| c.nulls.valid_bits());
        let is_valid = |row: usize| valid.is_none_or(|v| v[row]);
        match (self, arg, arg.map(|c| &c.values)) {
            (AggStateCol::CountStar { counts }, ..) => {
                for (k, &g) in gids.iter().enumerate() {
                    counts[g as usize] += w.at(k);
                }
            }
            (AggStateCol::CountCol { counts }, Some(_), _) => {
                for (k, (row, &g)) in sel.iter().zip(gids).enumerate() {
                    if is_valid(row) {
                        counts[g as usize] += w.at(k);
                    }
                }
            }
            (AggStateCol::CountD { pairs, counts }, Some(col), _) => {
                let (rows, owners): (Vec<usize>, Vec<u32>) = sel
                    .iter()
                    .zip(gids)
                    .filter(|&(row, _)| is_valid(row))
                    .unzip();
                // Pairs are encoded a slice at a time: the packed words of a
                // whole chunk would be a chunk-sized allocation per call.
                for (rows, owners) in rows.chunks(COUNTD_SLICE).zip(owners.chunks(COUNTD_SLICE)) {
                    let owner_col = ColumnVec::from_values(Values::Int(
                        owners.iter().map(|&g| i64::from(g)).collect(),
                    ));
                    let keys = pairs.encode(&[&owner_col, &col.take(rows)], rows.len());
                    for (k, &g) in owners.iter().enumerate() {
                        if pairs.lookup_or_insert(&keys, k).1 {
                            counts[g as usize] += 1;
                        }
                    }
                }
            }
            (AggStateCol::SumInt { sums, seen }, _, Some(Values::Int(xs))) => {
                let mut overflow = false;
                for (k, (row, &g)) in sel.iter().zip(gids).enumerate() {
                    if is_valid(row) {
                        let g = g as usize;
                        let x = xs[row].checked_mul(w.at(k));
                        let (sum, o) = sums[g].overflowing_add(x.unwrap_or(0));
                        sums[g] = sum;
                        seen[g] = true;
                        overflow |= o | x.is_none();
                    }
                }
                if overflow {
                    return Err(TvError::Exec("SUM overflows a 64-bit integer".into()));
                }
            }
            (AggStateCol::SumReal { sums, seen }, _, Some(Values::Real(xs))) => {
                for (k, (row, &g)) in sel.iter().zip(gids).enumerate() {
                    if is_valid(row) {
                        sums[g as usize] += xs[row] * w.at(k) as f64;
                        seen[g as usize] = true;
                    }
                }
            }
            (
                AggStateCol::MinMaxInt {
                    vals, seen, is_min, ..
                },
                _,
                Some(values),
            ) => {
                let xs = i64s(values)?;
                let is_min = *is_min;
                for (row, &g) in sel.iter().zip(gids) {
                    if is_valid(row) {
                        let g = g as usize;
                        let x = xs[row];
                        if !seen[g] || (is_min && x < vals[g]) || (!is_min && x > vals[g]) {
                            vals[g] = x;
                            seen[g] = true;
                        }
                    }
                }
            }
            (AggStateCol::MinMaxReal { vals, seen, is_min }, _, Some(Values::Real(xs))) => {
                let is_min = *is_min;
                for (row, &g) in sel.iter().zip(gids) {
                    if is_valid(row) {
                        let g = g as usize;
                        let x = xs[row];
                        let better = if is_min {
                            x.total_cmp(&vals[g]).is_lt()
                        } else {
                            x.total_cmp(&vals[g]).is_gt()
                        };
                        if !seen[g] || better {
                            vals[g] = x;
                            seen[g] = true;
                        }
                    }
                }
            }
            (AggStateCol::MinMaxStr { vals, is_min }, _, Some(Values::Str(strs))) => {
                for (row, &g) in sel.iter().zip(gids) {
                    if is_valid(row) {
                        let s = strs.get(row);
                        let slot = &mut vals[g as usize];
                        if slot
                            .as_deref()
                            .is_none_or(|cur| if *is_min { s < cur } else { s > cur })
                        {
                            *slot = Some(s.to_owned());
                        }
                    }
                }
            }
            (AggStateCol::AvgNum { sums, counts }, _, Some(Values::Real(xs))) => {
                for (k, (row, &g)) in sel.iter().zip(gids).enumerate() {
                    if is_valid(row) {
                        sums[g as usize] += xs[row] * w.at(k) as f64;
                        counts[g as usize] += w.at(k);
                    }
                }
            }
            (AggStateCol::AvgNum { sums, counts }, _, Some(values)) => {
                let xs = i64s(values)?;
                for (k, (row, &g)) in sel.iter().zip(gids).enumerate() {
                    if is_valid(row) {
                        sums[g as usize] += xs[row] as f64 * w.at(k) as f64;
                        counts[g as usize] += w.at(k);
                    }
                }
            }
            _ => return Err(type_mismatch()),
        }
        Ok(())
    }

    /// Build the output column directly — no per-group `Value` round trip.
    fn finish_column(self) -> ColumnVec {
        match self {
            AggStateCol::CountStar { counts }
            | AggStateCol::CountCol { counts }
            | AggStateCol::CountD { counts, .. } => ColumnVec::from_values(Values::Int(counts)),
            AggStateCol::SumInt { sums, seen } => {
                ColumnVec::new(Values::Int(sums), NullMask::from_valid_bits(seen))
            }
            AggStateCol::SumReal { sums, seen } => {
                ColumnVec::new(Values::Real(sums), NullMask::from_valid_bits(seen))
            }
            AggStateCol::MinMaxInt {
                vals, seen, dtype, ..
            } => {
                let values = match dtype {
                    DataType::Date => Values::Date(vals.iter().map(|&v| v as i32).collect()),
                    DataType::Bool => Values::Bool(vals.iter().map(|&v| v != 0).collect()),
                    _ => Values::Int(vals),
                };
                ColumnVec::new(values, NullMask::from_valid_bits(seen))
            }
            AggStateCol::MinMaxReal { vals, seen, .. } => {
                ColumnVec::new(Values::Real(vals), NullMask::from_valid_bits(seen))
            }
            AggStateCol::MinMaxStr { vals, .. } => {
                let valid = vals.iter().map(Option::is_some).collect();
                let strs = StrVec::from_opt_strs(vals.iter().map(Option::as_deref));
                ColumnVec::new(Values::Str(strs), NullMask::from_valid_bits(valid))
            }
            AggStateCol::AvgNum { sums, counts } => {
                let valid: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
                let avgs: Vec<f64> = sums
                    .iter()
                    .zip(counts.iter())
                    .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                    .collect();
                ColumnVec::new(Values::Real(avgs), NullMask::from_valid_bits(valid))
            }
        }
    }
}

/// What both aggregate operators fold their input into: packed group keys
/// (dense ids in first-seen order), each group's first-seen key values, and
/// one typed accumulator per aggregate call beside the type its argument is
/// read in.
struct Grouping {
    schema: SchemaRef,
    table: GroupTable,
    reps: Vec<ColumnVec>,
    states: Vec<(AggStateCol, Option<DataType>)>,
    gids: Vec<u32>,
    fresh: Vec<usize>,
}

impl Grouping {
    /// `schema` is the operator's output (group fields, then one field per
    /// call); `input` types the aggregate arguments.
    fn new(schema: &SchemaRef, aggs: &[AggCall], input: &Schema) -> Result<Self> {
        let keys = &schema.fields()[..schema.len() - aggs.len()];
        let layout = KeyLayout::new(
            keys.iter().map(|f| f.dtype).collect(),
            keys.iter().map(|f| f.collation).collect(),
        );
        let reps = keys
            .iter()
            .map(|f| ColumnVec::from_values(Values::with_capacity(f.dtype, 0)))
            .collect();
        let states = aggs
            .iter()
            .map(|a| {
                let arg_type = a.arg.as_ref().and_then(|e| e.data_type(input).ok());
                Ok((AggStateCol::new(a, arg_type)?, arg_type))
            })
            .collect::<Result<_>>()?;
        Ok(Grouping {
            schema: Arc::clone(schema),
            table: GroupTable::new(layout),
            reps,
            states,
            gids: Vec::new(),
            fresh: Vec::new(),
        })
    }

    /// Fold in the selected rows of one `len`-row chunk: `groups` and `args`
    /// are its evaluated group keys and aggregate arguments, `weights` how
    /// many input rows each selected row stands for (RunAgg's segments).
    fn update(
        &mut self,
        groups: &[ColumnVec],
        args: &[Option<ColumnVec>],
        len: usize,
        sel: &SelVec,
        weights: Option<&[i64]>,
    ) -> Result<()> {
        let gcols: Vec<&ColumnVec> = groups.iter().collect();
        let keys = self.table.encode(&gcols, len);
        self.gids.clear();
        self.fresh.clear();
        for row in sel.iter() {
            let (gid, new) = self.table.lookup_or_insert(&keys, row);
            self.gids.push(gid);
            if new {
                self.fresh.push(row);
            }
        }
        if !self.fresh.is_empty() {
            for ((rep, group), field) in self.reps.iter_mut().zip(groups).zip(self.schema.fields())
            {
                rep.append(&*conform(&group.take(&self.fresh), field.dtype)?)?;
            }
        }
        let n_groups = self.table.n_groups();
        for ((st, arg_type), arg) in self.states.iter_mut().zip(args) {
            st.resize(n_groups);
            let arg = match (arg, *arg_type) {
                (None, _) => None,
                (Some(col), Some(t)) => Some(conform(col, t)?),
                // An untyped NULL literal: nothing to aggregate.
                (Some(_), None) => continue,
            };
            match weights {
                None => st.update(arg.as_deref(), sel, &self.gids, Unit)?,
                Some(w) => st.update(arg.as_deref(), sel, &self.gids, w)?,
            }
        }
        Ok(())
    }

    /// The output chunk; `None` for a grouped aggregate over no rows (a
    /// global aggregate still emits one row of identity values).
    fn finish(mut self) -> Result<Option<Chunk>> {
        if self.table.n_groups() == 0 {
            if !self.reps.is_empty() {
                return Ok(None);
            }
            for (st, _) in &mut self.states {
                st.resize(1);
            }
        }
        let mut cols = self.reps;
        cols.extend(self.states.into_iter().map(|(st, _)| st.finish_column()));
        Chunk::new(self.schema, cols).map(Some)
    }
}

/// Aggregate one in-memory chunk through the `Grouping` [`HashAggOp`] uses,
/// with no table, plan or operator tree around it — the roll-up the
/// intelligent cache runs over a cached result. The output schema is
/// [`crate::physical::agg_schema`]'s and groups come out in first-seen
/// order. Over no rows a grouped aggregate is empty and a global one is a
/// single row of identity values, as in the engine.
pub fn aggregate_chunk(
    chunk: &Chunk,
    group_by: &[(Expr, String)],
    aggs: &[AggCall],
) -> Result<Chunk> {
    let schema = crate::physical::agg_schema(chunk.schema(), group_by, aggs)?;
    let mut grouping = Grouping::new(&schema, aggs, chunk.schema())?;
    if !chunk.is_empty() {
        let ev = eval_set(chunk, group_by, aggs)?;
        let sel = SelVec::all(chunk.len());
        grouping.update(&ev.groups, &ev.args, chunk.len(), &sel, None)?;
    }
    Ok(grouping.finish()?.unwrap_or_else(|| Chunk::empty(schema)))
}

/// Stop-and-go hash aggregation.
///
/// Group keys are encoded into packed words (`GroupTable`, DESIGN.md §14)
/// and aggregates update typed columnar accumulators (`AggStateCol`). An
/// optional fused residual predicate (absorbed from a child `Filter` by
/// `make_op_raw`) is evaluated to a [`SelVec`] so filtered chunks are never
/// rematerialized.
pub struct HashAggOp {
    input: Box<dyn PhysOp>,
    group_by: Vec<(Expr, String)>,
    aggs: Vec<AggCall>,
    schema: SchemaRef,
    residual: Option<Expr>,
    done: bool,
}

impl HashAggOp {
    pub fn new(
        input: Box<dyn PhysOp>,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggCall>,
        schema: SchemaRef,
    ) -> Self {
        HashAggOp {
            input,
            group_by,
            aggs,
            schema,
            residual: None,
            done: false,
        }
    }

    pub fn with_residual(mut self, predicate: Expr) -> Self {
        self.residual = Some(predicate);
        self
    }

    fn drain(&mut self) -> Result<Option<Chunk>> {
        let mut grouping = Grouping::new(&self.schema, &self.aggs, &self.input.schema())?;
        while let Some(chunk) = self.input.next()? {
            if chunk.is_empty() {
                continue;
            }
            let sel = match &self.residual {
                None => SelVec::all(chunk.len()),
                Some(p) => p.eval_predicate_sel(&chunk)?,
            };
            if sel.is_empty() {
                continue;
            }
            let ev = eval_set(&chunk, &self.group_by, &self.aggs)?;
            grouping.update(&ev.groups, &ev.args, chunk.len(), &sel, None)?;
        }
        grouping.finish()
    }
}

impl PhysOp for HashAggOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        self.drain()
    }
}

/// Run-granularity aggregation straight over a table's RLE runs — no row is
/// ever decoded. Each range is cut at the union of the run boundaries of
/// the group *and* argument columns (all RLE, guaranteed by the planner), so
/// every segment is constant in every column. One value per segment and
/// column, with the segment length as its weight, then goes through the
/// same `Grouping` as [`HashAggOp`].
pub struct RunAggOp {
    table: Arc<Table>,
    ranges: Vec<(usize, usize)>,
    group_cols: Vec<usize>,
    aggs: Vec<AggCall>,
    schema: SchemaRef,
    done: bool,
}

impl RunAggOp {
    pub fn new(
        table: Arc<Table>,
        ranges: Vec<(usize, usize)>,
        group_cols: Vec<usize>,
        aggs: Vec<AggCall>,
        schema: SchemaRef,
    ) -> Self {
        RunAggOp {
            table,
            ranges,
            group_cols,
            aggs,
            schema,
            done: false,
        }
    }
}

impl PhysOp for RunAggOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let arg_cols: Vec<Option<usize>> = self
            .aggs
            .iter()
            .map(|a| match &a.arg {
                None => Ok(None),
                Some(Expr::Column(c)) => self.table.schema().index_of(c).map(Some),
                Some(e) => Err(TvError::Exec(format!(
                    "RunAgg argument must be a column: {e}"
                ))),
            })
            .collect::<Result<_>>()?;
        let mut grouping = Grouping::new(&self.schema, &self.aggs, self.table.schema())?;
        for &(start, len) in &self.ranges {
            let end = (start + len).min(self.table.row_count());
            if start >= end {
                continue;
            }
            let mut cuts = vec![start];
            for &ci in self.group_cols.iter().chain(arg_cols.iter().flatten()) {
                let ColumnData::Rle { starts, .. } = self.table.column(ci).data() else {
                    return Err(TvError::Exec("RunAgg planned over a non-RLE column".into()));
                };
                let first = starts.partition_point(|&s| s as usize <= start);
                let inside = starts[first..].iter().map(|&s| s as usize);
                cuts.extend(inside.take_while(|&s| s < end));
            }
            cuts.sort_unstable();
            cuts.dedup();
            let weights: Vec<i64> = cuts
                .iter()
                .zip(cuts[1..].iter().chain([&end]))
                .map(|(a, b)| (b - a) as i64)
                .collect();
            let decode = |ci: usize| self.table.column(ci).decode_rows(&cuts);
            let groups = self
                .group_cols
                .iter()
                .map(|&ci| decode(ci))
                .collect::<Result<Vec<_>>>()?;
            let args = arg_cols
                .iter()
                .map(|ci| ci.map(decode).transpose())
                .collect::<Result<Vec<_>>>()?;
            let sel = SelVec::all(cuts.len());
            grouping.update(&groups, &args, cuts.len(), &sel, Some(&weights))?;
        }
        grouping.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScanOp;
    use tabviz_common::{DataType, Field, Schema};
    use tabviz_storage::Table;
    use tabviz_tql::expr::col;
    use tabviz_tql::AggFunc;

    /// `func` over `vals` (a `dtype` column, or `COUNT(*)` when `dtype` is
    /// `None`), rows `groups[i]` apart, through one typed state.
    fn run_grouped(
        func: AggFunc,
        dtype: Option<DataType>,
        vals: &[Value],
        groups: &[u32],
    ) -> Result<Vec<Value>> {
        let call = AggCall::new(func, dtype.map(|_| col("x")), "out");
        let mut st = AggStateCol::new(&call, dtype)?;
        let arg = dtype
            .map(|t| ColumnVec::from_iter_typed(t, vals.iter()))
            .transpose()?;
        let n = groups.iter().max().map_or(1, |&g| g as usize + 1);
        st.resize(n);
        st.update(arg.as_ref(), &SelVec::all(vals.len()), groups, Unit)?;
        let out = st.finish_column();
        Ok((0..n).map(|g| out.get(g)).collect())
    }

    fn run(func: AggFunc, dtype: DataType, vals: &[Value]) -> Value {
        run_grouped(func, Some(dtype), vals, &vec![0; vals.len()]).unwrap()[0].clone()
    }

    #[test]
    fn sum_int_and_real() {
        let ints = [Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFunc::Sum, DataType::Int, &ints), Value::Int(3));
        let reals = [Value::Real(1.0), Value::Real(0.5)];
        assert_eq!(run(AggFunc::Sum, DataType::Real, &reals), Value::Real(1.5));
        assert_eq!(
            run(AggFunc::Sum, DataType::Int, &[Value::Null]),
            Value::Null
        );
        let over = [Value::Int(i64::MAX), Value::Int(1)];
        let err = run_grouped(AggFunc::Sum, Some(DataType::Int), &over, &[0, 0]).unwrap_err();
        assert!(matches!(err, TvError::Exec(_)), "{err:?}");
    }

    #[test]
    fn count_star_vs_count_arg() {
        let rows = [Value::Int(1), Value::Null];
        let star = run_grouped(AggFunc::Count, None, &rows, &[0, 0]).unwrap();
        assert_eq!(star, [Value::Int(2)]);
        assert_eq!(run(AggFunc::Count, DataType::Int, &rows), Value::Int(1));
    }

    #[test]
    fn countd_dedups() {
        let strs = ["a", "a", "b"].map(Value::from);
        assert_eq!(run(AggFunc::CountD, DataType::Str, &strs), Value::Int(2));
        // Per group, NULLs skipped.
        let vals = [1, 1, 2, 1].map(Value::Int);
        let nulls = [Value::Null, Value::Null];
        assert_eq!(
            run_grouped(AggFunc::CountD, Some(DataType::Int), &vals, &[0, 1, 0, 0]).unwrap(),
            [Value::Int(2), Value::Int(1)]
        );
        assert_eq!(run(AggFunc::CountD, DataType::Date, &nulls), Value::Int(0));
        // Equality is `Value`'s: exact integers, reals by bits.
        let wide = [1i64 << 53, (1 << 53) + 1].map(Value::Int);
        assert_eq!(run(AggFunc::CountD, DataType::Int, &wide), Value::Int(2));
        let zeros = [0.0, -0.0, 0.0].map(Value::Real);
        assert_eq!(run(AggFunc::CountD, DataType::Real, &zeros), Value::Int(2));
        // A pair seen in one slice of a chunk is known in the next.
        let many: Vec<Value> = (0..10_000).map(|i| Value::Int(i % 3_000)).collect();
        let halves: Vec<u32> = (0..10_000).map(|i| i % 2).collect();
        assert_eq!(
            run_grouped(AggFunc::CountD, Some(DataType::Int), &many, &halves).unwrap(),
            [Value::Int(1_500), Value::Int(1_500)]
        );
    }

    #[test]
    fn min_max_skip_nulls() {
        let ints = [Value::Null, Value::Int(5), Value::Int(2), Value::Int(9)];
        assert_eq!(run(AggFunc::Min, DataType::Int, &ints), Value::Int(2));
        assert_eq!(run(AggFunc::Max, DataType::Int, &ints), Value::Int(9));
        assert_eq!(
            run(AggFunc::Min, DataType::Int, &[Value::Null]),
            Value::Null
        );
        let strs = [Value::Null, "b".into(), "B".into(), "ab".into()];
        assert_eq!(run(AggFunc::Min, DataType::Str, &strs), Value::from("B"));
        assert_eq!(run(AggFunc::Max, DataType::Str, &strs), Value::from("b"));
        let dates = [Value::Date(-3), Value::Null, Value::Date(7)];
        assert_eq!(run(AggFunc::Min, DataType::Date, &dates), Value::Date(-3));
        assert_eq!(run(AggFunc::Max, DataType::Date, &dates), Value::Date(7));
        let bools = [Value::Bool(true), Value::Null, Value::Bool(false)];
        assert_eq!(
            run(AggFunc::Min, DataType::Bool, &bools),
            Value::Bool(false)
        );
        assert_eq!(run(AggFunc::Max, DataType::Bool, &bools), Value::Bool(true));
    }

    #[test]
    fn avg_divides() {
        let vals = [Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(run(AggFunc::Avg, DataType::Int, &vals), Value::Real(1.5));
        assert_eq!(run(AggFunc::Avg, DataType::Real, &[]), Value::Null);
    }

    fn flights(sorted: bool) -> Arc<Table> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = [
            ("AA", 10),
            ("WN", 4),
            ("AA", 20),
            ("DL", 7),
            ("WN", 2),
            ("AA", 3),
        ]
        .iter()
        .map(|&(c, d)| vec![Value::Str(c.into()), Value::Int(d)])
        .collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let keys: &[&str] = if sorted { &["carrier"] } else { &[] };
        Arc::new(Table::from_chunk("f", &chunk, keys).unwrap())
    }

    fn agg_calls() -> Vec<AggCall> {
        vec![
            AggCall::new(AggFunc::Count, None, "n"),
            AggCall::new(AggFunc::Sum, Some(col("delay")), "total"),
            AggCall::new(AggFunc::Avg, Some(col("delay")), "avg"),
        ]
    }

    fn out_schema(t: &Arc<Table>) -> SchemaRef {
        crate::physical::agg_schema(
            t.schema(),
            &[(col("carrier"), "carrier".to_string())],
            &agg_calls(),
        )
        .unwrap()
    }

    fn collect(op: &mut dyn PhysOp) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        while let Some(c) = op.next().unwrap() {
            rows.extend(c.to_rows());
        }
        rows
    }

    #[test]
    fn hash_agg_groups() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
        let mut op = HashAggOp::new(
            Box::new(scan),
            vec![(col("carrier"), "carrier".into())],
            agg_calls(),
            out_schema(&t),
        );
        let mut rows = collect(&mut op);
        rows.sort();
        assert_eq!(rows.len(), 3);
        let aa = rows
            .iter()
            .find(|r| r[0] == Value::Str("AA".into()))
            .unwrap();
        assert_eq!(aa[1], Value::Int(3));
        assert_eq!(aa[2], Value::Int(33));
        assert_eq!(aa[3], Value::Real(11.0));
    }

    #[test]
    fn hash_agg_sorted_and_unsorted_input_agree() {
        // Grouped input (a table stored sorted by the group column) goes
        // through the same operator as unsorted input and yields the same
        // groups.
        let run = |t: Arc<Table>| {
            let scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
            let mut op = HashAggOp::new(
                Box::new(scan),
                vec![(col("carrier"), "carrier".into())],
                agg_calls(),
                out_schema(&t),
            );
            let mut rows = collect(&mut op);
            rows.sort();
            rows
        };
        assert_eq!(run(flights(true)), run(flights(false)));
    }

    #[test]
    fn chunk_aggregate_matches_the_operator() {
        let t = flights(false);
        let chunk = t.scan_range(0, t.row_count(), None).unwrap();
        let by_carrier = [(col("carrier"), "carrier".to_string())];
        let mut op = HashAggOp::new(
            Box::new(ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None)),
            by_carrier.to_vec(),
            agg_calls(),
            out_schema(&t),
        );
        let out = aggregate_chunk(&chunk, &by_carrier, &agg_calls()).unwrap();
        assert_eq!(out.schema(), &out_schema(&t));
        assert_eq!(out.to_rows(), collect(&mut op));
        // No rows: a grouped aggregate is empty, a global one is one row.
        let none = chunk.slice(0, 0);
        assert!(aggregate_chunk(&none, &by_carrier, &agg_calls())
            .unwrap()
            .is_empty());
        let global = aggregate_chunk(&none, &[], &agg_calls()).unwrap();
        assert_eq!(
            global.to_rows(),
            [[Value::Int(0), Value::Null, Value::Null]]
        );
    }

    #[test]
    fn global_aggregate_no_groups() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
        let schema = crate::physical::agg_schema(t.schema(), &[], &agg_calls()).unwrap();
        let mut op = HashAggOp::new(Box::new(scan), vec![], agg_calls(), schema);
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(6));
        assert_eq!(rows[0][1], Value::Int(46));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![], None); // no ranges
        let schema = crate::physical::agg_schema(t.schema(), &[], &agg_calls()).unwrap();
        let mut op = HashAggOp::new(Box::new(scan), vec![], agg_calls(), schema);
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0)); // COUNT
        assert_eq!(rows[0][1], Value::Null); // SUM
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![], None);
        let mut op = HashAggOp::new(
            Box::new(scan),
            vec![(col("carrier"), "carrier".into())],
            agg_calls(),
            out_schema(&t),
        );
        assert!(collect(&mut op).is_empty());
    }

    #[test]
    fn scan_to_key_lookup_translates_entries_not_rows() {
        // 100k rows over 7 short and 5 long (interned) strings, stored
        // once plain and once run-length encoded: between the scan and the
        // group lookup each referenced dictionary entry is turned into a key
        // word exactly once, however many rows and chunks carry it.
        let schema = Arc::new(Schema::new(vec![Field::new("plain", DataType::Str)]).unwrap());
        let name = |k: usize| {
            if k < 7 {
                format!("s{k}")
            } else {
                format!("a string longer than seven bytes #{k}")
            }
        };
        for sorted in [false, true] {
            let rows: Vec<Vec<Value>> = (0..100_000)
                .map(|i| vec![Value::Str(name((i * 7919) % 12))])
                .collect();
            let chunk = Chunk::from_rows(Arc::clone(&schema), &rows).unwrap();
            let keys: &[&str] = if sorted { &["plain"] } else { &[] };
            let t = Arc::new(Table::from_chunk("t", &chunk, keys).unwrap());
            let codec = if sorted { "dict-rle" } else { "dict" };
            assert_eq!(t.column(0).codec_name(), codec);
            let mut scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
            let layout = KeyLayout::new(vec![DataType::Str], vec![Collation::Binary]);
            let mut table = GroupTable::new(layout);
            let mut chunks = 0;
            while let Some(c) = scan.next().unwrap() {
                let keys = table.encode(&[c.column(0)], c.len());
                for row in 0..c.len() {
                    table.lookup_or_insert(&keys, row);
                }
                chunks += 1;
            }
            assert!(chunks > 1, "the memo must carry across chunks");
            assert_eq!(table.n_groups(), 12);
            assert_eq!(table.translations(), 12, "{codec}");
        }
    }

    #[test]
    fn ci_collation_merges_groups() {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("c", DataType::Str).with_collation(Collation::CaseInsensitive)
            ])
            .unwrap(),
        );
        let chunk = Chunk::from_rows(
            Arc::clone(&schema),
            &[vec!["AA".into()], vec!["aa".into()], vec!["DL".into()]],
        )
        .unwrap();
        let t = Arc::new(Table::from_chunk("c", &chunk, &[]).unwrap());
        let calls = vec![AggCall::new(AggFunc::Count, None, "n")];
        let out = crate::physical::agg_schema(t.schema(), &[(col("c"), "c".to_string())], &calls)
            .unwrap();
        let scan = ScanOp::new(Arc::clone(&t), vec![(0, 3)], None);
        let mut op = HashAggOp::new(Box::new(scan), vec![(col("c"), "c".into())], calls, out);
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 2, "AA and aa should merge under CI collation");
    }
}
