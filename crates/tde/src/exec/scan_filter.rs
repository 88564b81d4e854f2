//! Compression-aware predicate evaluation inside the scan.
//!
//! Pushed-down conjuncts (see `optimize::push_scan_predicates`) are compiled
//! once per scan against the stored table and then evaluated *before* any
//! chunk is materialized, cheapest representation first:
//!
//! 1. **Zone maps** — a block whose min/max/null-count proves the predicate
//!    unsatisfiable is skipped without touching its data.
//! 2. **Predicate-on-codes** — for plain dictionary columns the (string)
//!    predicate is evaluated once per dictionary entry; a row's verdict is
//!    its `u32` code's entry in the resulting bitmap.
//! 3. **Run kernels** — for RLE columns the predicate runs once per run and
//!    the verdict is broadcast over the run's rows.
//! 4. **Typed slice kernels** — a comparison or `BETWEEN` whose literals have
//!    the column's own type is a [`KeyRange`] over the stored plain
//!    Int/Real/Date slice as it lies, no decode.
//! 5. Everything else decodes just the block segment (a delta column from
//!    its block's checkpoint) and evaluates the vectorized predicate on it.
//!
//! Whatever the kernel, survivors are selected by the one branch-free
//! [`compact`]: each row id is written unconditionally and the output
//! length advanced by the verdict, a NULL row's verdict folded in as
//! `valid & pass | !valid & pass_on_null`. Surviving row ids are gathered
//! through `StoredColumn::decode_rows`, a single copy into the output chunk.

use std::sync::{Arc, OnceLock};
use tabviz_common::selvec::compact;
use tabviz_common::{
    Chunk, Collation, ColumnVec, DataType, Field, Result, Schema, SchemaRef, StrVec, TvError,
    Value, Values,
};
use tabviz_obs::Counter;
use tabviz_storage::{BlockStats, ColumnData, PhysVec, StoredColumn, Table};
use tabviz_tql::expr::{BinOp, Expr, KeyRange, UnaryOp};

/// Counters exported on the global obs registry: whole blocks proven
/// unsatisfiable by zone maps, and rows removed before materialization
/// (including the rows of skipped blocks).
pub(crate) struct ScanMetrics {
    pub blocks_skipped: Counter,
    pub rows_prefiltered: Counter,
    /// Blocks refuted by the sorted-column binary search alone, i.e. without
    /// consulting their zone map entry.
    pub sorted_range_pruned: Counter,
}

pub(crate) fn scan_metrics() -> &'static ScanMetrics {
    static METRICS: OnceLock<ScanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = tabviz_obs::global();
        ScanMetrics {
            blocks_skipped: reg.counter("tv_tde_blocks_skipped_total"),
            rows_prefiltered: reg.counter("tv_tde_rows_prefiltered_total"),
            sorted_range_pruned: reg.counter("tv_tde_sorted_range_prunes_total"),
        }
    })
}

/// One pushed conjunct, compiled against the scanned table.
struct CompiledPred {
    expr: Expr,
    col: usize,
    /// Whether a NULL row satisfies the predicate (`IS NULL` does; ordinary
    /// comparisons reject NULL).
    pass_on_null: bool,
    /// For plain dictionary columns: the predicate's verdict per dictionary
    /// code, computed once at compile time.
    code_bitmap: Option<Vec<bool>>,
    /// The conjunct as a typed slice test, when its shape allows one and its
    /// literals have the column's type.
    range: Option<KeyRange>,
    /// Single-column schema used to evaluate `expr` over run values or
    /// decoded segments (nullable clone of the table field).
    eval_schema: SchemaRef,
}

/// All pushed conjuncts of one scan. Conjunct verdicts AND together, which
/// matches `eval_predicate`'s Kleene semantics for a conjunction: a row
/// passes iff every conjunct independently passes.
pub(crate) struct ScanPredicates {
    preds: Vec<CompiledPred>,
    /// Half-open block interval `[lo, hi)` outside which no row can satisfy
    /// the conjunction, established once at compile time by binary-searching
    /// the zone maps of *sorted* columns (see [`sorted_block_interval`]).
    /// `None` when no conjunct constrains a sorted column.
    block_interval: Option<(usize, usize)>,
}

impl ScanPredicates {
    /// Compile pushed conjuncts; `None` when there is nothing to push.
    pub fn compile(table: &Table, pushed: &[Expr]) -> Result<Option<Self>> {
        if pushed.is_empty() {
            return Ok(None);
        }
        let mut preds = Vec::with_capacity(pushed.len());
        for e in pushed {
            let cols = e.columns();
            if cols.len() != 1 {
                return Err(TvError::Exec(format!(
                    "pushed predicate must reference one column: {e}"
                )));
            }
            let name = cols.iter().next().unwrap();
            let col = table.schema().index_of(name)?;
            let field = table.schema().field(col);
            let eval_field =
                Field::new(field.name.clone(), field.dtype).with_collation(field.collation);
            let eval_schema: SchemaRef = Arc::new(Schema::new_unchecked(vec![eval_field]));

            let null_col = ColumnVec::from_iter_typed(field.dtype, [&Value::Null])?;
            let null_chunk = Chunk::new(Arc::clone(&eval_schema), vec![null_col])?;
            let pass_on_null = e.eval_predicate(&null_chunk)?[0];

            let stored = table.column(col);
            let code_bitmap = match (stored.data(), stored.dictionary()) {
                (ColumnData::Plain(PhysVec::Code(_)), Some(dict)) => {
                    // The dictionary itself, one row per entry.
                    let entries = StrVec::new(Arc::clone(dict), (0..dict.len() as u32).collect());
                    let cv = ColumnVec::from_values(Values::Str(entries));
                    let chunk = Chunk::new(Arc::clone(&eval_schema), vec![cv])?;
                    Some(e.eval_predicate(&chunk)?)
                }
                _ => None,
            };

            preds.push(CompiledPred {
                expr: e.clone(),
                col,
                pass_on_null,
                code_bitmap,
                range: e
                    .key_range()
                    .filter(|&(_, dtype, _)| dtype == field.dtype)
                    .map(|(_, _, range)| range),
                eval_schema,
            });
        }
        let block_interval = sorted_block_interval(table, &preds);
        Ok(Some(ScanPredicates {
            preds,
            block_interval,
        }))
    }

    /// The precomputed sorted-column block interval, if any conjunct
    /// established one. Blocks outside `[lo, hi)` cannot contain a matching
    /// row and may be skipped without consulting their zone entries.
    pub fn block_interval(&self) -> Option<(usize, usize)> {
        self.block_interval
    }

    /// Can any row of zone-map block `block` satisfy every conjunct?
    pub fn zone_allows(&self, table: &Table, block: usize) -> bool {
        self.preds
            .iter()
            .all(|p| zone_allows_pred(p, table.column(p.col), block))
    }

    /// Append to `out` the rows of `[start, start + len)` that pass every
    /// conjunct (global row ids, ascending): every row id of the segment
    /// goes in, and each conjunct in turn compacts the ids still selected
    /// with the branch-free [`compact`]. Callers segment by zone-map block,
    /// so RLE run enumeration and fallback decodes stay block-sized.
    pub fn select_segment(
        &self,
        table: &Table,
        start: usize,
        len: usize,
        out: &mut Vec<usize>,
    ) -> Result<()> {
        let from = out.len();
        out.extend(start..start + len);
        for p in &self.preds {
            let col = table.column(p.col);
            let valid = col.null_mask().valid_bits();
            let on_null = p.pass_on_null;
            match (&p.code_bitmap, &p.range, col.data()) {
                // Predicate-on-codes: the code's verdict from the bitmap (a
                // NULL row's placeholder code may lie past it).
                (Some(bitmap), _, ColumnData::Plain(PhysVec::Code(codes))) => {
                    compact(out, from, valid, on_null, |r| {
                        bitmap.get(codes[r] as usize) == Some(&true)
                    })
                }
                // Typed kernels on the stored slice, no decode.
                (_, Some(t), ColumnData::Plain(PhysVec::Int(v))) => {
                    compact(out, from, valid, on_null, |r| t.holds(v[r]))
                }
                (_, Some(t), ColumnData::Plain(PhysVec::Real(v))) => {
                    compact(out, from, valid, on_null, |r| t.holds(v[r]))
                }
                (_, Some(t), ColumnData::Plain(PhysVec::Date(v))) => {
                    compact(out, from, valid, on_null, |r| t.holds(v[r]))
                }
                _ => {
                    let mask = match col.runs_overlapping(start, len) {
                        // Run kernel: one verdict per run, broadcast over it.
                        Some(runs) => {
                            let run_values = runs.iter().map(|r| &r.value);
                            let cv = ColumnVec::from_iter_typed(col.field.dtype, run_values)?;
                            let chunk = Chunk::new(Arc::clone(&p.eval_schema), vec![cv])?;
                            let verdicts = p.expr.eval_predicate(&chunk)?;
                            let mut mask = vec![true; len];
                            for (run, pass) in runs.iter().zip(&verdicts) {
                                if !*pass {
                                    let lo = run.start - start;
                                    mask[lo..lo + run.count].fill(false);
                                }
                            }
                            mask
                        }
                        // Fallback: decode the segment, vectorized evaluation.
                        None => {
                            let cv = col.decode_range(start, len)?;
                            let chunk = Chunk::new(Arc::clone(&p.eval_schema), vec![cv])?;
                            p.expr.eval_predicate(&chunk)?
                        }
                    };
                    // The mask already holds each NULL row's verdict.
                    compact(out, from, None, false, |r| mask[r - start])
                }
            }
        }
        Ok(())
    }
}

/// Zone test for a single conjunct. Must never contradict `eval_predicate`:
/// `false` is returned only when *no* row of the block can pass.
fn zone_allows_pred(p: &CompiledPred, col: &StoredColumn, block: usize) -> bool {
    let Some(z) = col.zone_map().get(block) else {
        // No zone info (e.g. legacy data): never skip.
        return true;
    };
    if z.rows == 0 {
        return false;
    }
    let null_pass = z.null_count > 0 && p.pass_on_null;
    if z.all_null() {
        return null_pass;
    }
    // String min/max are stored in binary order; pruning under a different
    // query collation would be unsound.
    if col.field.dtype == DataType::Str && col.field.collation != Collation::Binary {
        return true;
    }
    let (Some(min), Some(max)) = (&z.min, &z.max) else {
        return true;
    };
    non_null_may_match(&p.expr, min, max, z, col.field.collation) || null_pass
}

/// Binary search over the zone maps of sorted columns: intersect, across all
/// conjuncts of shape `col cmp literal` / `col BETWEEN lo AND hi` on columns
/// whose [`tabviz_storage::ColumnStats::sorted`] flag holds, the half-open
/// block intervals that could contain a matching row. A sorted column's
/// per-block minima and maxima are non-decreasing (with an all-null prefix,
/// nulls sorting first), so each bound resolves to one `partition_point`
/// instead of a linear zone-map walk. Returns `None` when no conjunct
/// qualifies; the scan then falls back to per-block zone tests alone.
fn sorted_block_interval(table: &Table, preds: &[CompiledPred]) -> Option<(usize, usize)> {
    let mut interval: Option<(usize, usize)> = None;
    for p in preds {
        let col = table.column(p.col);
        if let Some((lo, hi)) = sorted_pred_interval(p, col) {
            interval = Some(match interval {
                Some((a, b)) => (a.max(lo), b.min(hi)),
                None => (lo, hi),
            });
        }
    }
    interval.map(|(lo, hi)| (lo, hi.max(lo)))
}

/// The half-open block interval that could satisfy one conjunct, or `None`
/// when the conjunct cannot be bounded this way. Soundness mirrors
/// [`zone_allows_pred`]: the interval must be a superset of every block
/// containing a matching row, so the guards are strictly conservative —
/// unsorted column, NULL-passing predicate, non-binary string collation,
/// missing or truncated zone map, or an unsupported expression shape all
/// decline rather than prune.
fn sorted_pred_interval(p: &CompiledPred, col: &StoredColumn) -> Option<(usize, usize)> {
    use std::cmp::Ordering::{Greater, Less};
    if p.pass_on_null || !col.stats.sorted {
        // NULL rows pass the conjunct and live in the all-null block prefix
        // of a nulls-first sort order; an interval would cut them off.
        return None;
    }
    // String zone endpoints are binary-ordered; other collations would make
    // the partition points unsound (same guard as `zone_allows_pred`).
    if col.field.dtype == DataType::Str && col.field.collation != Collation::Binary {
        return None;
    }
    let zones = col.zone_map();
    if zones.is_empty() || zones.len() < col.stats.row_count.div_ceil(tabviz_storage::BLOCK_ROWS) {
        // Legacy data without a full zone map: never prune.
        return None;
    }
    // A lower/upper bound on matching non-null values: `(value, strict)`.
    type Bound<'a> = Option<(&'a Value, bool)>;
    let (lower, upper): (Bound, Bound) = match &p.expr {
        Expr::Binary { op, left, right } => {
            let (op, lit) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(_), Expr::Literal(v)) => (*op, v),
                (Expr::Literal(v), Expr::Column(_)) => (flip(*op), v),
                _ => return None,
            };
            if lit.is_null() {
                // `col cmp NULL` matches nothing: empty interval.
                return Some((0, 0));
            }
            match op {
                BinOp::Eq => (Some((lit, false)), Some((lit, false))),
                BinOp::Lt => (None, Some((lit, true))),
                BinOp::Le => (None, Some((lit, false))),
                BinOp::Gt => (Some((lit, true)), None),
                BinOp::Ge => (Some((lit, false)), None),
                _ => return None,
            }
        }
        Expr::Between { expr, low, high } => {
            if !matches!(expr.as_ref(), Expr::Column(_)) {
                return None;
            }
            if high.is_null() {
                // `col <= NULL` holds for no non-null row (NULL sorts below
                // everything under `cmp_collated`): empty interval.
                return Some((0, 0));
            }
            let lower = (!low.is_null()).then_some((low, false));
            (lower, Some((high, false)))
        }
        _ => return None,
    };
    let coll = col.field.collation;
    // Blocks strictly *below* the lower bound form a prefix: the all-null
    // blocks (max = None, nulls first) plus those whose max falls short.
    let start = match lower {
        Some((v, strict)) => zones.partition_point(|z| match &z.max {
            None => true,
            Some(mx) => {
                let ord = mx.cmp_collated(v, coll);
                if strict {
                    ord != Greater
                } else {
                    ord == Less
                }
            }
        }),
        None => zones.partition_point(|z| z.max.is_none()),
    };
    // Blocks strictly *above* the upper bound form a suffix: those whose min
    // already exceeds it.
    let end = match upper {
        Some((v, strict)) => zones.partition_point(|z| match &z.min {
            None => true,
            Some(mn) => {
                let ord = mn.cmp_collated(v, coll);
                if strict {
                    ord == Less
                } else {
                    ord != Greater
                }
            }
        }),
        None => zones.len(),
    };
    Some((start, end.max(start)))
}

/// Could some non-null value in `[min, max]` satisfy the conjunct?
/// Mirrors `eval_predicate` exactly: comparisons and BETWEEN use
/// `cmp_collated` (where NULL sorts below everything), IN-list members that
/// are NULL never match, and comparisons against a NULL literal match
/// nothing. Unknown shapes conservatively return `true`.
fn non_null_may_match(e: &Expr, min: &Value, max: &Value, z: &BlockStats, coll: Collation) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let le = |a: &Value, b: &Value| a.cmp_collated(b, coll) != Greater;
    let lt = |a: &Value, b: &Value| a.cmp_collated(b, coll) == Less;
    let eq = |a: &Value, b: &Value| a.cmp_collated(b, coll) == Equal;
    match e {
        Expr::Binary { op, left, right } => {
            let (op, lit, target) = match (left.as_ref(), right.as_ref()) {
                (t, Expr::Literal(v)) => (*op, v, t),
                (Expr::Literal(v), t) => (flip(*op), v, t),
                _ => return true,
            };
            if lit.is_null() {
                return false;
            }
            // For a bare column the value interval is the zone's [min, max];
            // for a monotone arithmetic composition over the column it is the
            // image of that interval under the expression.
            let (lo, hi) = match target {
                Expr::Column(_) => (min.clone(), max.clone()),
                _ => match arith_interval(target, min, max, coll) {
                    Some(bounds) => bounds,
                    None => return true,
                },
            };
            match op {
                BinOp::Eq => le(&lo, lit) && le(lit, &hi),
                // Sound for the arith case too: a monotone map over a
                // constant block is itself constant.
                BinOp::Ne => !(eq(&lo, &hi) && eq(&lo, lit)),
                BinOp::Lt => lt(&lo, lit),
                BinOp::Le => le(&lo, lit),
                BinOp::Gt => lt(lit, &hi),
                BinOp::Ge => le(lit, &hi),
                _ => true,
            }
        }
        Expr::In {
            expr,
            list,
            negated,
        } => {
            if !matches!(expr.as_ref(), Expr::Column(_)) {
                return true;
            }
            if *negated {
                // NOT IN excludes everything only when the block is constant
                // and that constant is in the list.
                !(eq(min, max) && list.iter().any(|v| !v.is_null() && eq(v, min)))
            } else {
                list.iter()
                    .any(|v| !v.is_null() && le(min, v) && le(v, max))
            }
        }
        Expr::Between { expr, low, high } => {
            if !matches!(expr.as_ref(), Expr::Column(_)) {
                return true;
            }
            // cmp_collated against a NULL bound matches eval: NULL low is
            // below everything (vacuously satisfied), NULL high above nothing.
            le(low, max) && le(min, high)
        }
        Expr::Unary { op, expr } => {
            if !matches!(expr.as_ref(), Expr::Column(_)) {
                return true;
            }
            match op {
                // Non-null rows never satisfy IS NULL (null_pass handles the
                // nulls); some non-null row exists, so IS NOT NULL can match.
                UnaryOp::IsNull => false,
                UnaryOp::IsNotNull => z.null_count < z.rows,
                _ => true,
            }
        }
        _ => true,
    }
}

/// Image of the block's `[min, max]` under a single-column monotone
/// arithmetic composition (e.g. `a + 1`, `(a - 2) * 3`, `a / 4`).
///
/// Soundness: each supported step (`± literal`, `* literal`, `col / nonzero
/// literal`, `literal ∓/× col`) is monotone in its column-derived operand,
/// so every composition prefix is monotone and every interior row's
/// intermediate value lies between the two endpoints' intermediates. The
/// endpoint evaluations use *checked* integer arithmetic and finite-only
/// float arithmetic: if both endpoints evaluate without overflow at every
/// step, so does every interior value, and the engine's wrapping ops agree
/// with exact arithmetic over the whole block. Any failure (overflow,
/// non-finite, unsupported shape, NULL) returns `None` — no pruning.
fn arith_interval(e: &Expr, min: &Value, max: &Value, coll: Collation) -> Option<(Value, Value)> {
    let a = arith_endpoint(e, min)?;
    let b = arith_endpoint(e, max)?;
    // Decreasing steps (negative multipliers, `lit - col`) may flip the
    // interval's orientation; a monotone map sends [min, max] into the
    // sorted endpoint pair either way.
    if a.cmp_collated(&b, coll) == std::cmp::Ordering::Greater {
        Some((b, a))
    } else {
        Some((a, b))
    }
}

/// Evaluate the composition at one endpoint value, mirroring
/// `eval_columns`' type promotion but with checked/finite arithmetic.
fn arith_endpoint(e: &Expr, v: &Value) -> Option<Value> {
    match e {
        Expr::Column(_) => match v {
            Value::Int(_) | Value::Real(_) => Some(v.clone()),
            _ => None,
        },
        Expr::Binary { op, left, right } if op.is_arithmetic() => {
            match (left.as_ref(), right.as_ref()) {
                (sub, Expr::Literal(lit)) => {
                    let a = arith_endpoint(sub, v)?;
                    arith_step(*op, &a, lit)
                }
                (Expr::Literal(lit), sub) => {
                    // `lit / col` is not monotone across zero; excluded.
                    if *op == BinOp::Div {
                        return None;
                    }
                    let a = arith_endpoint(sub, v)?;
                    arith_step(*op, lit, &a)
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// One checked arithmetic step with the engine's promotion rule: the result
/// is Real when either operand is Real or the op is division; integer ops
/// must not overflow (the engine wraps — a checked success means wrapping
/// and exact arithmetic agree); float results must be finite.
fn arith_step(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    let as_real = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Real(f) => Some(*f),
        _ => None,
    };
    if matches!(l, Value::Real(_)) || matches!(r, Value::Real(_)) || op == BinOp::Div {
        let (a, b) = (as_real(l)?, as_real(r)?);
        let out = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if b == 0.0 {
                    return None;
                }
                a / b
            }
            _ => return None,
        };
        out.is_finite().then_some(Value::Real(out))
    } else {
        let (Value::Int(a), Value::Int(b)) = (l, r) else {
            return None;
        };
        let out = match op {
            BinOp::Add => a.checked_add(*b)?,
            BinOp::Sub => a.checked_sub(*b)?,
            BinOp::Mul => a.checked_mul(*b)?,
            _ => return None,
        };
        Some(Value::Int(out))
    }
}

/// Optimizer-side shape test: `f(col) cmp literal` (either operand order)
/// where `f` is an arithmetic composition `arith_interval` can bound and the
/// column is numeric. Such a conjunct is safe to push: segments evaluate it
/// through the full engine evaluator, and zone maps prune via the interval.
/// Bare `col cmp literal` is `supported_run_predicate`'s job, not ours.
pub fn arith_comparison_sargable(e: &Expr, dtype: DataType) -> bool {
    if !matches!(dtype, DataType::Int | DataType::Real) {
        return false;
    }
    let Expr::Binary { op, left, right } = e else {
        return false;
    };
    if !op.is_comparison() {
        return false;
    }
    let target = match (left.as_ref(), right.as_ref()) {
        (t, Expr::Literal(_)) => t,
        (Expr::Literal(_), t) => t,
        _ => return false,
    };
    matches!(target, Expr::Binary { .. }) && monotone_arith_shape(target)
}

/// Is `e` a composition of monotone arithmetic steps over a single column?
fn monotone_arith_shape(e: &Expr) -> bool {
    let numeric = |v: &Value| matches!(v, Value::Int(_) | Value::Real(_));
    match e {
        Expr::Column(_) => true,
        Expr::Binary { op, left, right } if op.is_arithmetic() => {
            match (left.as_ref(), right.as_ref()) {
                (sub, Expr::Literal(lit)) => {
                    let zero_div = *op == BinOp::Div
                        && (matches!(lit, Value::Int(0))
                            || matches!(lit, Value::Real(f) if *f == 0.0));
                    numeric(lit) && !zero_div && monotone_arith_shape(sub)
                }
                (Expr::Literal(lit), sub) => {
                    *op != BinOp::Div && numeric(lit) && monotone_arith_shape(sub)
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Mirror a comparison so the column ends up on the left.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod arith_tests {
    use super::*;
    use tabviz_tql::expr::{bin, col, lit};

    fn iv(e: &Expr, min: i64, max: i64) -> Option<(Value, Value)> {
        arith_interval(e, &Value::Int(min), &Value::Int(max), Collation::Binary)
    }

    #[test]
    fn add_shifts_interval() {
        let e = bin(BinOp::Add, col("a"), lit(10i64));
        assert_eq!(iv(&e, 0, 5), Some((Value::Int(10), Value::Int(15))));
    }

    #[test]
    fn negative_multiplier_flips_orientation() {
        let e = bin(BinOp::Mul, col("a"), lit(-2i64));
        assert_eq!(iv(&e, 1, 4), Some((Value::Int(-8), Value::Int(-2))));
        // lit - col is decreasing too.
        let e = bin(BinOp::Sub, lit(100i64), col("a"));
        assert_eq!(iv(&e, 10, 30), Some((Value::Int(70), Value::Int(90))));
    }

    #[test]
    fn composition_applies_in_order() {
        // (a - 2) * 3 over [2, 5] → [0, 9]
        let e = bin(BinOp::Mul, bin(BinOp::Sub, col("a"), lit(2i64)), lit(3i64));
        assert_eq!(iv(&e, 2, 5), Some((Value::Int(0), Value::Int(9))));
    }

    #[test]
    fn division_promotes_to_real() {
        let e = bin(BinOp::Div, col("a"), lit(4i64));
        assert_eq!(iv(&e, 8, 16), Some((Value::Real(2.0), Value::Real(4.0))));
        // Negative divisor flips.
        let e = bin(BinOp::Div, col("a"), lit(-4i64));
        assert_eq!(iv(&e, 8, 16), Some((Value::Real(-4.0), Value::Real(-2.0))));
    }

    #[test]
    fn overflow_near_i64_max_bails() {
        let e = bin(BinOp::Add, col("a"), lit(10i64));
        assert_eq!(iv(&e, 0, i64::MAX - 5), None);
        let e = bin(BinOp::Mul, col("a"), lit(3i64));
        assert_eq!(iv(&e, i64::MIN / 2, 0), None);
    }

    #[test]
    fn unsupported_shapes_bail() {
        // lit / col: not monotone across zero.
        assert_eq!(iv(&bin(BinOp::Div, lit(1i64), col("a")), 1, 2), None);
        // col + col references the column twice; strictly one literal side.
        assert_eq!(iv(&bin(BinOp::Add, col("a"), col("a")), 1, 2), None);
    }

    #[test]
    fn sargable_shape_gate() {
        let arith_gt = bin(BinOp::Gt, bin(BinOp::Add, col("a"), lit(1i64)), lit(10i64));
        assert!(arith_comparison_sargable(&arith_gt, DataType::Int));
        assert!(arith_comparison_sargable(&arith_gt, DataType::Real));
        // Str columns never: endpoint arithmetic is numeric-only.
        assert!(!arith_comparison_sargable(&arith_gt, DataType::Str));
        // Bare col cmp lit belongs to supported_run_predicate.
        let plain = bin(BinOp::Gt, col("a"), lit(10i64));
        assert!(!arith_comparison_sargable(&plain, DataType::Int));
        // Division by literal zero is all-NULL in the engine; don't claim it.
        let div0 = bin(BinOp::Gt, bin(BinOp::Div, col("a"), lit(0i64)), lit(10i64));
        assert!(!arith_comparison_sargable(&div0, DataType::Int));
    }

    // Two and a half blocks of rows: `a` ascending (delta-friendly, sorted),
    // `n` nulls-first then ascending (sorted with an all-null prefix), `u`
    // pseudo-random (unsorted).
    fn sorted_table() -> Table {
        let rows = tabviz_storage::BLOCK_ROWS * 2 + tabviz_storage::BLOCK_ROWS / 2;
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("n", DataType::Int),
                Field::new("u", DataType::Int),
            ])
            .unwrap(),
        );
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                let n = if i < tabviz_storage::BLOCK_ROWS + 7 {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                };
                vec![
                    Value::Int(i as i64),
                    n,
                    Value::Int(((i as u64).wrapping_mul(2654435761) % 1000) as i64),
                ]
            })
            .collect();
        let chunk = Chunk::from_rows(schema, &data).unwrap();
        Table::from_chunk("t", &chunk, &[]).unwrap()
    }

    fn interval_for(table: &Table, pred: Expr) -> Option<(usize, usize)> {
        ScanPredicates::compile(table, &[pred])
            .unwrap()
            .unwrap()
            .block_interval()
    }

    #[test]
    fn sorted_interval_binary_searches_range_predicates() {
        let t = sorted_table();
        let b = tabviz_storage::BLOCK_ROWS as i64;
        // d > last-block boundary → only the final block.
        let p = bin(BinOp::Gt, col("a"), lit(2 * b + 5));
        assert_eq!(interval_for(&t, p), Some((2, 3)));
        // Flipped literal side normalizes.
        let p = bin(BinOp::Lt, lit(2 * b + 5), col("a"));
        assert_eq!(interval_for(&t, p), Some((2, 3)));
        // Upper bound keeps a prefix.
        let p = bin(BinOp::Lt, col("a"), lit(b));
        assert_eq!(interval_for(&t, p), Some((0, 1)));
        // Le includes the boundary row's block.
        let p = bin(BinOp::Le, col("a"), lit(b));
        assert_eq!(interval_for(&t, p), Some((0, 2)));
        // Eq pins the one block containing the value.
        let p = bin(BinOp::Eq, col("a"), lit(b + 1));
        assert_eq!(interval_for(&t, p), Some((1, 2)));
        // Between intersects both bounds.
        let p = Expr::Between {
            expr: Box::new(col("a")),
            low: Value::Int(b + 1),
            high: Value::Int(b + 2),
        };
        assert_eq!(interval_for(&t, p), Some((1, 2)));
        // Out-of-range value → empty interval.
        let p = bin(BinOp::Gt, col("a"), lit(100 * b));
        assert_eq!(interval_for(&t, p), Some((3, 3)));
        // NULL comparison literal matches nothing.
        let p = bin(BinOp::Gt, col("a"), Expr::Literal(Value::Null));
        assert_eq!(interval_for(&t, p), Some((0, 0)));
    }

    #[test]
    fn sorted_interval_conjuncts_intersect() {
        let t = sorted_table();
        let b = tabviz_storage::BLOCK_ROWS as i64;
        let lo = bin(BinOp::Ge, col("a"), lit(b + 1));
        let hi = bin(BinOp::Lt, col("a"), lit(2 * b - 1));
        let preds = ScanPredicates::compile(&t, &[lo, hi]).unwrap().unwrap();
        assert_eq!(preds.block_interval(), Some((1, 2)));
    }

    #[test]
    fn sorted_interval_skips_leading_all_null_blocks() {
        let t = sorted_table();
        // `n` is NULL through block 0 (and a bit of block 1); a non-null
        // comparison can never match the all-null prefix.
        let p = bin(BinOp::Ge, col("n"), lit(0i64));
        assert_eq!(interval_for(&t, p), Some((1, 3)));
    }

    #[test]
    fn sorted_interval_declines_unsound_cases() {
        let t = sorted_table();
        // Unsorted column: no interval.
        let p = bin(BinOp::Gt, col("u"), lit(500i64));
        assert_eq!(interval_for(&t, p), None);
        // NULL-passing predicate: nulls live in the prefix we would cut off.
        let p = Expr::Unary {
            op: UnaryOp::IsNull,
            expr: Box::new(col("n")),
        };
        assert_eq!(interval_for(&t, p), None);
        // Ne constrains nothing.
        let p = bin(BinOp::Ne, col("a"), lit(5i64));
        assert_eq!(interval_for(&t, p), None);
        // Arithmetic compositions fall back to per-block zone tests.
        let p = bin(BinOp::Gt, bin(BinOp::Add, col("a"), lit(1i64)), lit(100i64));
        assert_eq!(interval_for(&t, p), None);
    }

    #[test]
    fn zone_rules_use_mapped_interval() {
        // Block [0, 9]; predicate a + 10 > 25 can't match (image [10, 19]).
        let e = bin(BinOp::Gt, bin(BinOp::Add, col("a"), lit(10i64)), lit(25i64));
        let z = BlockStats {
            rows: 10,
            null_count: 0,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(9)),
        };
        assert!(!non_null_may_match(
            &e,
            &Value::Int(0),
            &Value::Int(9),
            &z,
            Collation::Binary
        ));
        // a + 10 > 15 can match (image straddles the bound).
        let e = bin(BinOp::Gt, bin(BinOp::Add, col("a"), lit(10i64)), lit(15i64));
        assert!(non_null_may_match(
            &e,
            &Value::Int(0),
            &Value::Int(9),
            &z,
            Collation::Binary
        ));
    }
}
