//! Scalar expressions with vectorized evaluation.
//!
//! Expressions follow the paper's internal query model: comparisons,
//! boolean connectives, arithmetic, IN-lists ("large enumerations",
//! Sect. 3.1), ranges, and a set of scalar functions with a cost profile
//! ("certain operations, such as string manipulations, are much more
//! expensive than others", Sect. 4.2.2).
//!
//! Evaluation is chunk-at-a-time ("the engine employs vectorization in
//! expression evaluation") with SQL three-valued logic: comparisons against
//! NULL yield NULL, AND/OR use Kleene semantics, and filters treat NULL as
//! false.

use crate::datefn;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use tabviz_common::{
    Chunk, Collation, ColumnVec, DataType, NullMask, Result, Schema, SelVec, StrVec, TvError,
    Value, Values,
};

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Scalar functions. The relative cost weights back the TDE's empirical
/// cost profile for parallelization decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    Upper,
    Lower,
    Strlen,
    Abs,
    Floor,
    Ceil,
    Year,
    Month,
    Day,
    Weekday,
    IfNull,
}

impl ScalarFunc {
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Strlen => "STRLEN",
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Floor => "FLOOR",
            ScalarFunc::Ceil => "CEIL",
            ScalarFunc::Year => "YEAR",
            ScalarFunc::Month => "MONTH",
            ScalarFunc::Day => "DAY",
            ScalarFunc::Weekday => "WEEKDAY",
            ScalarFunc::IfNull => "IFNULL",
        }
    }

    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "UPPER" => ScalarFunc::Upper,
            "LOWER" => ScalarFunc::Lower,
            "STRLEN" => ScalarFunc::Strlen,
            "ABS" => ScalarFunc::Abs,
            "FLOOR" => ScalarFunc::Floor,
            "CEIL" => ScalarFunc::Ceil,
            "YEAR" => ScalarFunc::Year,
            "MONTH" => ScalarFunc::Month,
            "DAY" => ScalarFunc::Day,
            "WEEKDAY" => ScalarFunc::Weekday,
            "IFNULL" => ScalarFunc::IfNull,
            _ => return None,
        })
    }

    pub fn arity(self) -> usize {
        match self {
            ScalarFunc::IfNull => 2,
            _ => 1,
        }
    }

    /// Relative per-row cost (empirical cost profile, Sect. 4.2.2).
    pub fn cost_weight(self) -> u32 {
        match self {
            ScalarFunc::Upper | ScalarFunc::Lower => 8,
            ScalarFunc::Strlen => 4,
            ScalarFunc::Year | ScalarFunc::Month | ScalarFunc::Day | ScalarFunc::Weekday => 3,
            ScalarFunc::Abs | ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::IfNull => 1,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to an input column by name.
    Column(String),
    /// A constant.
    Literal(Value),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `expr IN (v1, .., vn)` — the paper's "large enumerations" that may be
    /// externalized into temporary tables (Sect. 3.1, Sect. 5.3).
    In {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// Inclusive range test.
    Between {
        expr: Box<Expr>,
        low: Value,
        high: Value,
    },
    Func {
        func: ScalarFunc,
        args: Vec<Expr>,
    },
}

/// A column-vs-literal predicate resolved once, before any row loop, to one
/// shape over an ordered `i64` key ([`Key`]): the rows whose key lies in
/// `[lo, hi]` (`=`, `<`, `<=`, `>`, `>=`, `BETWEEN`), or outside it (`<>`).
/// An empty interval (`lo > hi`) passes nothing, or everything when
/// negated. Evaluators run it over a raw typed slice (a chunk column, or a
/// stored plain column the scan has not decoded) with no [`Value`] and no
/// branch per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    lo: i64,
    hi: i64,
    negate: bool,
}

impl KeyRange {
    const EMPTY: (i64, i64) = (i64::MAX, i64::MIN);

    /// `key <op> lit` for a comparison operator.
    fn cmp(op: BinOp, lit: i64) -> Self {
        let (lo, hi) = match op {
            BinOp::Eq | BinOp::Ne => (lit, lit),
            BinOp::Lt => lit.checked_sub(1).map_or(Self::EMPTY, |h| (i64::MIN, h)),
            BinOp::Le => (i64::MIN, lit),
            BinOp::Gt => lit.checked_add(1).map_or(Self::EMPTY, |l| (l, i64::MAX)),
            BinOp::Ge => (lit, i64::MAX),
            _ => unreachable!("{op:?} is not a comparison"),
        };
        KeyRange {
            lo,
            hi,
            negate: op == BinOp::Ne,
        }
    }

    /// Does the non-null value `x` pass?
    #[inline]
    pub fn holds<K: Key>(&self, x: K) -> bool {
        let k = x.key();
        ((k >= self.lo) & (k <= self.hi)) ^ self.negate
    }
}

/// A native column value as its order key: Int and Date as they are, Real
/// by its total-order bits, so keys order as `f64::total_cmp` (the generic
/// evaluator's order) does: `-NaN < -inf < -0.0 < 0.0 < inf < NaN`.
pub trait Key: Copy {
    fn key(self) -> i64;
}

impl Key for i64 {
    #[inline]
    fn key(self) -> i64 {
        self
    }
}

impl Key for i32 {
    #[inline]
    fn key(self) -> i64 {
        self as i64
    }
}

impl Key for f64 {
    #[inline]
    fn key(self) -> i64 {
        let bits = self.to_bits() as i64;
        bits ^ ((((bits >> 63) as u64) >> 1) as i64)
    }
}

/// An Int, Real or Date literal as its type and [`Key`].
fn literal_key(v: &Value) -> Option<(DataType, i64)> {
    match v {
        Value::Int(i) => Some((DataType::Int, i.key())),
        Value::Real(r) => Some((DataType::Real, r.key())),
        Value::Date(d) => Some((DataType::Date, d.key())),
        _ => None,
    }
}

/// `BETWEEN low AND high` as a [`KeyRange`], when both bounds are Int,
/// Real or Date literals of one type.
fn between_range(low: &Value, high: &Value) -> Option<(DataType, KeyRange)> {
    let ((dtype, lo), (high_type, hi)) = (literal_key(low)?, literal_key(high)?);
    let range = KeyRange {
        lo,
        hi,
        negate: false,
    };
    (dtype == high_type).then_some((dtype, range))
}

/// Shorthand constructors used pervasively in tests and query builders.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

/// Conjunction of a list of predicates (`TRUE` when empty).
pub fn and_all(mut preds: Vec<Expr>) -> Expr {
    match preds.len() {
        0 => lit(true),
        1 => preds.pop().unwrap(),
        _ => {
            let mut it = preds.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, p| bin(BinOp::And, acc, p))
        }
    }
}

impl Expr {
    /// Collect the names of all referenced columns.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        self.collect_columns(&mut set);
        set
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(n) => {
                out.insert(n.clone());
            }
            Expr::Literal(_) => {}
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::In { expr, .. } | Expr::Between { expr, .. } => expr.collect_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Rename column references (used when pushing predicates through
    /// projections and when matching cached queries).
    pub fn rename_columns(&self, f: &dyn Fn(&str) -> String) -> Expr {
        match self {
            Expr::Column(n) => Expr::Column(f(n)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.rename_columns(f)),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.rename_columns(f)),
                right: Box::new(right.rename_columns(f)),
            },
            Expr::In {
                expr,
                list,
                negated,
            } => Expr::In {
                expr: Box::new(expr.rename_columns(f)),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(expr.rename_columns(f)),
                low: low.clone(),
                high: high.clone(),
            },
            Expr::Func { func, args } => Expr::Func {
                func: *func,
                args: args.iter().map(|a| a.rename_columns(f)).collect(),
            },
        }
    }

    /// Result type of the expression against the given input schema.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(n) => Ok(schema.field_by_name(n)?.dtype),
            Expr::Literal(v) => v
                .data_type()
                .ok_or_else(|| TvError::Type("untyped NULL literal".into())),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not | UnaryOp::IsNull | UnaryOp::IsNotNull => Ok(DataType::Bool),
                UnaryOp::Neg => expr.data_type(schema),
            },
            Expr::Binary { op, left, right } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    Ok(DataType::Bool)
                } else {
                    let lt = left.data_type(schema)?;
                    let rt = right.data_type(schema)?;
                    if lt == DataType::Real || rt == DataType::Real || *op == BinOp::Div {
                        Ok(DataType::Real)
                    } else {
                        Ok(DataType::Int)
                    }
                }
            }
            Expr::In { .. } | Expr::Between { .. } => Ok(DataType::Bool),
            Expr::Func { func, args } => match func {
                ScalarFunc::Upper | ScalarFunc::Lower => Ok(DataType::Str),
                ScalarFunc::Strlen
                | ScalarFunc::Year
                | ScalarFunc::Month
                | ScalarFunc::Day
                | ScalarFunc::Weekday => Ok(DataType::Int),
                ScalarFunc::Abs => args[0].data_type(schema),
                ScalarFunc::Floor | ScalarFunc::Ceil => Ok(DataType::Int),
                ScalarFunc::IfNull => args[0].data_type(schema),
            },
        }
    }

    /// Per-row evaluation cost from the empirical cost profile (Sect. 4.2.2);
    /// the parallel planner multiplies this by row counts.
    pub fn cost_weight(&self) -> u32 {
        match self {
            Expr::Column(_) => 1,
            Expr::Literal(_) => 0,
            Expr::Unary { expr, .. } => 1 + expr.cost_weight(),
            Expr::Binary { left, right, .. } => 1 + left.cost_weight() + right.cost_weight(),
            Expr::In { expr, list, .. } => {
                // Binary-searchable, so logarithmic in the list size.
                expr.cost_weight() + 1 + (list.len().max(2)).ilog2()
            }
            Expr::Between { expr, .. } => 2 + expr.cost_weight(),
            Expr::Func { func, args } => {
                func.cost_weight() + args.iter().map(Expr::cost_weight).sum::<u32>()
            }
        }
    }

    /// This predicate as a [`KeyRange`] over the named column, with the type
    /// its literals share: `col <cmp> literal` or `col BETWEEN low AND high`,
    /// every literal an Int, Real or Date of one type (a NULL or mixed-type
    /// literal declines, leaving the generic evaluator's semantics in
    /// charge). It applies to a column of that type only.
    pub fn key_range(&self) -> Option<(&str, DataType, KeyRange)> {
        match self {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(name), Expr::Literal(v)) => {
                        let (dtype, lit) = literal_key(v)?;
                        Some((name, dtype, KeyRange::cmp(*op, lit)))
                    }
                    _ => None,
                }
            }
            Expr::Between { expr, low, high } => match expr.as_ref() {
                Expr::Column(name) => {
                    let (dtype, range) = between_range(low, high)?;
                    Some((name, dtype, range))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Evaluate a constant expression to a single value, or `None` if the
    /// expression references columns.
    pub fn const_eval(&self) -> Option<Value> {
        if !self.columns().is_empty() {
            return None;
        }
        // Evaluate against a dummy one-row chunk with an empty schema.
        let schema = std::sync::Arc::new(Schema::empty());
        let chunk = Chunk::from_rows(schema, &[vec![]]).ok()?;
        let out = self.eval(&chunk).ok()?;
        Some(out.get(0))
    }

    /// Vectorized evaluation over a chunk.
    pub fn eval(&self, chunk: &Chunk) -> Result<ColumnVec> {
        match self {
            Expr::Column(n) => Ok(chunk.column_by_name(n)?.clone()),
            Expr::Literal(v) => Ok(literal_column(v, chunk.len())),
            Expr::Unary { op, expr } => {
                let input = expr.eval(chunk)?;
                eval_unary(*op, &input)
            }
            Expr::Binary { op, left, right } => {
                let l = left.eval(chunk)?;
                let r = right.eval(chunk)?;
                let collation = binary_collation(left, right, chunk.schema());
                eval_binary(*op, &l, &r, collation)
            }
            Expr::In {
                expr,
                list,
                negated,
            } => {
                let input = expr.eval(chunk)?;
                let collation = expr_collation(expr, chunk.schema());
                let mut sorted: Vec<Value> = list.clone();
                if collation != Collation::Binary {
                    // Normalize to the collation key space for matching.
                    sorted = sorted
                        .into_iter()
                        .map(|v| match v {
                            Value::Str(s) => Value::Str(collation.key(&s)),
                            other => other,
                        })
                        .collect();
                }
                sorted.sort();
                sorted.dedup();
                if let Values::Str(v) = &input.values {
                    // One list probe per referenced table entry.
                    let bits = v.map_rows(input.nulls.valid_bits(), false, |s| {
                        let found = sorted.binary_search(&Value::Str(collation.key(s))).is_ok();
                        found != *negated
                    });
                    return Ok(ColumnVec::new(Values::Bool(bits), input.nulls.clone()));
                }
                // A NULL row's bit is masked by the input's nulls.
                let bits = (0..input.len())
                    .map(|i| sorted.binary_search(&input.get(i)).is_ok() != *negated)
                    .collect();
                Ok(ColumnVec::new(Values::Bool(bits), input.nulls.clone()))
            }
            Expr::Between { expr, low, high } => {
                let input = expr.eval(chunk)?;
                let collation = expr_collation(expr, chunk.schema());
                let bits = typed_between(&input, low, high, collation).unwrap_or_else(|| {
                    // A NULL row's bit is masked by the input's nulls.
                    (0..input.len())
                        .map(|i| {
                            let v = input.get(i);
                            v.cmp_collated(low, collation) != Ordering::Less
                                && v.cmp_collated(high, collation) != Ordering::Greater
                        })
                        .collect()
                });
                Ok(ColumnVec::new(Values::Bool(bits), input.nulls.clone()))
            }
            Expr::Func { func, args } => {
                if args.len() != func.arity() {
                    return Err(TvError::Bind(format!(
                        "{} expects {} argument(s), got {}",
                        func.name(),
                        func.arity(),
                        args.len()
                    )));
                }
                let inputs: Vec<ColumnVec> =
                    args.iter().map(|a| a.eval(chunk)).collect::<Result<_>>()?;
                eval_func(*func, &inputs)
            }
        }
    }

    /// Evaluate as a filter predicate: NULL ⇒ row rejected.
    pub fn eval_predicate(&self, chunk: &Chunk) -> Result<Vec<bool>> {
        let out = self.eval(chunk)?;
        let bits = predicate_bits(&out)?;
        Ok(match out.nulls.valid_bits() {
            None => bits.to_vec(),
            Some(valid) => bits.iter().zip(valid).map(|(&b, &v)| b & v).collect(),
        })
    }

    /// Evaluate as a filter predicate into a selection vector. Semantics
    /// match [`Expr::eval_predicate`] (NULL ⇒ row rejected), but an all-true
    /// result collapses to [`SelVec::All`] so consumers can skip the gather,
    /// and column-vs-literal comparisons and ranges ([`KeyRange`]) build
    /// the id list straight from the typed column slice.
    pub fn eval_predicate_sel(&self, chunk: &Chunk) -> Result<SelVec> {
        if let Some(sel) = typed_pred_sel(self, chunk)? {
            return Ok(sel);
        }
        let out = self.eval(chunk)?;
        let bits = predicate_bits(&out)?;
        Ok(SelVec::select(bits.len(), out.nulls.valid_bits(), |i| {
            bits[i]
        }))
    }
}

/// A predicate's evaluated verdicts (valid or not); an error unless bool.
fn predicate_bits(out: &ColumnVec) -> Result<&[bool]> {
    out.values.as_bool().ok_or_else(|| {
        TvError::Type(format!(
            "predicate evaluates to {}, expected bool",
            out.data_type()
        ))
    })
}

/// Selection vector of a [`KeyRange`]-shaped predicate whose literals have
/// the column's type (Int, Real or Date); `None` when the predicate needs
/// the generic evaluator.
fn typed_pred_sel(pred: &Expr, chunk: &Chunk) -> Result<Option<SelVec>> {
    let Some((name, dtype, range)) = pred.key_range() else {
        return Ok(None);
    };
    let col = chunk.column_by_name(name)?;
    let valid = col.nulls.valid_bits();
    Ok(match (&col.values, dtype) {
        (Values::Int(v), DataType::Int) => {
            Some(SelVec::select(v.len(), valid, |i| range.holds(v[i])))
        }
        (Values::Real(v), DataType::Real) => {
            Some(SelVec::select(v.len(), valid, |i| range.holds(v[i])))
        }
        (Values::Date(v), DataType::Date) => {
            Some(SelVec::select(v.len(), valid, |i| range.holds(v[i])))
        }
        _ => None,
    })
}

/// `BETWEEN` over a whole column without a `Value` per row: typed slices
/// when both bounds have the column's type, strings once per referenced
/// table entry. Null rows come out `false` (the caller reuses the input's
/// null mask). `None` leaves mixed-type cases to the generic loop.
fn typed_between(
    input: &ColumnVec,
    low: &Value,
    high: &Value,
    collation: Collation,
) -> Option<Vec<bool>> {
    let valid = input.nulls.valid_bits();
    if let Values::Str(v) = &input.values {
        return Some(v.map_rows(valid, false, |s| {
            cmp_str_value(s, low, collation) != Ordering::Less
                && cmp_str_value(s, high, collation) != Ordering::Greater
        }));
    }
    let (_, range) = between_range(low, high).filter(|(t, _)| *t == input.data_type())?;
    fn bits<K: Key>(vals: &[K], valid: Option<&[bool]>, range: KeyRange) -> Vec<bool> {
        let pass = |i: usize| range.holds(vals[i]);
        match valid {
            None => (0..vals.len()).map(pass).collect(),
            Some(v) => (0..vals.len()).map(|i| v[i] & pass(i)).collect(),
        }
    }
    match &input.values {
        Values::Int(v) => Some(bits(v, valid, range)),
        Values::Real(v) => Some(bits(v, valid, range)),
        Values::Date(v) => Some(bits(v, valid, range)),
        _ => None,
    }
}

/// `Value::Str(s).cmp_collated(v, collation)` without building the `Value`:
/// NULL sorts below everything and strings rank above every other type.
fn cmp_str_value(s: &str, v: &Value, collation: Collation) -> Ordering {
    match v {
        Value::Str(b) => collation.cmp_str(s, b),
        _ => Ordering::Greater,
    }
}

/// A literal broadcast to `n` rows; a string literal is one table entry.
fn literal_column(v: &Value, n: usize) -> ColumnVec {
    let values = match v {
        Value::Null => {
            return ColumnVec::new(
                Values::Bool(vec![false; n]),
                NullMask::from_valid_bits(vec![false; n]),
            )
        }
        Value::Bool(b) => Values::Bool(vec![*b; n]),
        Value::Int(i) => Values::Int(vec![*i; n]),
        Value::Real(r) => Values::Real(vec![*r; n]),
        Value::Date(d) => Values::Date(vec![*d; n]),
        Value::Str(s) => Values::Str(StrVec::new(Arc::new(vec![s.clone()]), vec![0; n])),
    };
    ColumnVec::from_values(values)
}

/// The one string every row of `col` holds, when `col` is a broadcast
/// string literal (a one-entry table and no nulls).
fn constant_str(col: &ColumnVec) -> Option<&str> {
    match &col.values {
        Values::Str(v) if v.table().len() == 1 && col.nulls.valid_bits().is_none() => {
            Some(&v.table()[0])
        }
        _ => None,
    }
}

/// Collation to use when comparing the results of two sub-expressions: if
/// either side is a string column, use that column's declared collation.
/// Mixed collations are a "collation conflict" (Sect. 3.2) — resolved here in
/// favor of the left side, but the cache layer refuses to match across them.
fn binary_collation(left: &Expr, right: &Expr, schema: &Schema) -> Collation {
    expr_collation(left, schema).max_specific(expr_collation(right, schema))
}

fn expr_collation(e: &Expr, schema: &Schema) -> Collation {
    match e {
        Expr::Column(n) => schema
            .field_by_name(n)
            .map(|f| f.collation)
            .unwrap_or_default(),
        Expr::Func {
            func: ScalarFunc::Upper | ScalarFunc::Lower,
            args,
        } => args
            .first()
            .map(|a| expr_collation(a, schema))
            .unwrap_or_default(),
        _ => Collation::Binary,
    }
}

trait MaxSpecific {
    fn max_specific(self, other: Collation) -> Collation;
}

impl MaxSpecific for Collation {
    fn max_specific(self, other: Collation) -> Collation {
        if self == Collation::Binary {
            other
        } else {
            self
        }
    }
}

fn eval_unary(op: UnaryOp, input: &ColumnVec) -> Result<ColumnVec> {
    let n = input.len();
    match op {
        UnaryOp::IsNull => {
            let out: Vec<bool> = (0..n).map(|i| !input.is_valid(i)).collect();
            Ok(ColumnVec::from_values(Values::Bool(out)))
        }
        UnaryOp::IsNotNull => {
            let out: Vec<bool> = (0..n).map(|i| input.is_valid(i)).collect();
            Ok(ColumnVec::from_values(Values::Bool(out)))
        }
        UnaryOp::Not => match &input.values {
            Values::Bool(v) => {
                let out = v.iter().map(|b| !b).collect();
                Ok(ColumnVec::new(Values::Bool(out), input.nulls.clone()))
            }
            other => Err(TvError::Type(format!(
                "NOT requires bool, got {}",
                other.data_type()
            ))),
        },
        UnaryOp::Neg => match &input.values {
            Values::Int(v) => Ok(ColumnVec::new(
                Values::Int(v.iter().map(|x| -x).collect()),
                input.nulls.clone(),
            )),
            Values::Real(v) => Ok(ColumnVec::new(
                Values::Real(v.iter().map(|x| -x).collect()),
                input.nulls.clone(),
            )),
            other => Err(TvError::Type(format!(
                "cannot negate {}",
                other.data_type()
            ))),
        },
    }
}

fn eval_binary(op: BinOp, l: &ColumnVec, r: &ColumnVec, collation: Collation) -> Result<ColumnVec> {
    let n = l.len().max(r.len());
    // Broadcast single-row (literal) inputs.
    let li = |i: usize| if l.len() == 1 { 0 } else { i };
    let ri = |i: usize| if r.len() == 1 { 0 } else { i };

    if matches!(op, BinOp::And | BinOp::Or) {
        return eval_kleene(op, l, r, n, &li, &ri);
    }

    if op.is_comparison() {
        // String column against a string literal: one comparison per
        // referenced table entry, mapped through the codes.
        if let (Values::Str(a), Some(konst)) = (&l.values, constant_str(r)) {
            if l.len() == n {
                let bits = a.map_rows(l.nulls.valid_bits(), false, |s| {
                    cmp_holds(op, collation.cmp_str(s, konst))
                });
                return Ok(ColumnVec::new(Values::Bool(bits), l.nulls.clone()));
            }
        }
        if let (Some(konst), Values::Str(b)) = (constant_str(l), &r.values) {
            if r.len() == n {
                let bits = b.map_rows(r.nulls.valid_bits(), false, |s| {
                    cmp_holds(op, collation.cmp_str(konst, s))
                });
                return Ok(ColumnVec::new(Values::Bool(bits), r.nulls.clone()));
            }
        }
        // Fast typed paths for the hot combinations.
        return Ok(match (&l.values, &r.values) {
            (Values::Int(a), Values::Int(b)) => compare_rows(op, l, r, |x, y| a[x].cmp(&b[y])),
            (Values::Real(a), Values::Real(b)) => {
                compare_rows(op, l, r, |x, y| a[x].total_cmp(&b[y]))
            }
            (Values::Str(a), Values::Str(b)) => {
                compare_rows(op, l, r, |x, y| collation.cmp_str(a.get(x), b.get(y)))
            }
            _ => compare_rows(op, l, r, |x, y| l.get(x).cmp_collated(&r.get(y), collation)),
        });
    }

    // Arithmetic. Integer ops stay integer except division.
    let result_real = matches!(&l.values, Values::Real(_))
        || matches!(&r.values, Values::Real(_))
        || op == BinOp::Div;
    let mut valid = Vec::with_capacity(n);
    if result_real {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (x, y) = (li(i), ri(i));
            if l.is_valid(x) && r.is_valid(y) {
                let a = l.get(x).as_real()?;
                let b = r.get(y).as_real()?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            valid.push(false);
                            out.push(0.0);
                            continue;
                        }
                        a / b
                    }
                    _ => unreachable!(),
                };
                out.push(v);
                valid.push(true);
            } else {
                out.push(0.0);
                valid.push(false);
            }
        }
        Ok(ColumnVec::new(
            Values::Real(out),
            NullMask::from_valid_bits(valid),
        ))
    } else {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (x, y) = (li(i), ri(i));
            if l.is_valid(x) && r.is_valid(y) {
                let a = l.get(x).as_int()?;
                let b = r.get(y).as_int()?;
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    _ => unreachable!(),
                };
                out.push(v);
                valid.push(true);
            } else {
                out.push(0);
                valid.push(false);
            }
        }
        Ok(ColumnVec::new(
            Values::Int(out),
            NullMask::from_valid_bits(valid),
        ))
    }
}

/// `op` over each row pair of `l` and `r` (a one-row side broadcast), by
/// `ord(left row, right row)`; NULL when either side is.
fn compare_rows(
    op: BinOp,
    l: &ColumnVec,
    r: &ColumnVec,
    ord: impl Fn(usize, usize) -> Ordering,
) -> ColumnVec {
    let n = l.len().max(r.len());
    let (mut out, mut valid) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let (x, y) = (
            if l.len() == 1 { 0 } else { i },
            if r.len() == 1 { 0 } else { i },
        );
        let ok = l.is_valid(x) && r.is_valid(y);
        out.push(ok && cmp_holds(op, ord(x, y)));
        valid.push(ok);
    }
    ColumnVec::new(Values::Bool(out), NullMask::from_valid_bits(valid))
}

#[inline]
fn cmp_holds(op: BinOp, ord: Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!(),
    }
}

/// Kleene AND/OR: `false AND NULL = false`, `true OR NULL = true`.
fn eval_kleene(
    op: BinOp,
    l: &ColumnVec,
    r: &ColumnVec,
    n: usize,
    li: &dyn Fn(usize) -> usize,
    ri: &dyn Fn(usize) -> usize,
) -> Result<ColumnVec> {
    let (lv, rv) = match (&l.values, &r.values) {
        (Values::Bool(a), Values::Bool(b)) => (a, b),
        _ => return Err(TvError::Type("AND/OR require bool operands".into())),
    };
    let mut out = Vec::with_capacity(n);
    let mut valid = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y) = (li(i), ri(i));
        let a = l.is_valid(x).then(|| lv[x]);
        let b = r.is_valid(y).then(|| rv[y]);
        let res = match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!(),
        };
        out.push(res.unwrap_or(false));
        valid.push(res.is_some());
    }
    Ok(ColumnVec::new(
        Values::Bool(out),
        NullMask::from_valid_bits(valid),
    ))
}

fn eval_func(func: ScalarFunc, inputs: &[ColumnVec]) -> Result<ColumnVec> {
    let a = &inputs[0];
    let n = a.len();
    // String functions run once per referenced table entry.
    let str_arg = || -> Result<&StrVec> {
        a.values.as_str().ok_or_else(|| {
            TvError::Type(format!(
                "{} requires a string, got {}",
                func.name(),
                a.data_type()
            ))
        })
    };
    let map_str = |f: &dyn Fn(&str) -> String| -> Result<ColumnVec> {
        let mapped = str_arg()?.map_strs(a.nulls.valid_bits(), f);
        Ok(ColumnVec::new(Values::Str(mapped), a.nulls.clone()))
    };
    let map_date = |f: &dyn Fn(i32) -> i64| -> Result<ColumnVec> {
        match &a.values {
            Values::Date(v) => {
                let out: Vec<i64> = v.iter().map(|&d| f(d)).collect();
                Ok(ColumnVec::new(Values::Int(out), a.nulls.clone()))
            }
            other => Err(TvError::Type(format!(
                "{} requires a date, got {}",
                func.name(),
                other.data_type()
            ))),
        }
    };
    match func {
        ScalarFunc::Upper => map_str(&|s| s.to_uppercase()),
        ScalarFunc::Lower => map_str(&|s| s.to_lowercase()),
        ScalarFunc::Strlen => {
            let lens = str_arg()?.map_rows(a.nulls.valid_bits(), 0, |s| s.chars().count() as i64);
            Ok(ColumnVec::new(Values::Int(lens), a.nulls.clone()))
        }
        ScalarFunc::Abs => match &a.values {
            Values::Int(v) => Ok(ColumnVec::new(
                Values::Int(v.iter().map(|x| x.abs()).collect()),
                a.nulls.clone(),
            )),
            Values::Real(v) => Ok(ColumnVec::new(
                Values::Real(v.iter().map(|x| x.abs()).collect()),
                a.nulls.clone(),
            )),
            other => Err(TvError::Type(format!(
                "ABS requires a number, got {}",
                other.data_type()
            ))),
        },
        ScalarFunc::Floor | ScalarFunc::Ceil => match &a.values {
            Values::Real(v) => {
                let out: Vec<i64> = v
                    .iter()
                    .map(|x| {
                        if func == ScalarFunc::Floor {
                            x.floor() as i64
                        } else {
                            x.ceil() as i64
                        }
                    })
                    .collect();
                Ok(ColumnVec::new(Values::Int(out), a.nulls.clone()))
            }
            Values::Int(v) => Ok(ColumnVec::new(Values::Int(v.clone()), a.nulls.clone())),
            other => Err(TvError::Type(format!(
                "{} requires a number, got {}",
                func.name(),
                other.data_type()
            ))),
        },
        ScalarFunc::Year => map_date(&|d| datefn::year(d) as i64),
        ScalarFunc::Month => map_date(&|d| datefn::month(d) as i64),
        ScalarFunc::Day => map_date(&|d| datefn::day(d) as i64),
        ScalarFunc::Weekday => map_date(&|d| datefn::weekday(d) as i64),
        ScalarFunc::IfNull => {
            let b = &inputs[1];
            let vals: Vec<Value> = (0..n)
                .map(|i| {
                    if a.is_valid(i) {
                        a.get(i)
                    } else {
                        b.get(if b.len() == 1 { 0 } else { i })
                    }
                })
                .collect();
            let dtype = a.data_type();
            ColumnVec::from_iter_typed(dtype, vals.iter())
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(n) => write!(f, "[{n}]"),
            Expr::Literal(v) => write!(f, "{}", v.to_literal()),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "NOT ({expr})"),
                UnaryOp::Neg => write!(f, "-({expr})"),
                UnaryOp::IsNull => write!(f, "({expr}) IS NULL"),
                UnaryOp::IsNotNull => write!(f, "({expr}) IS NOT NULL"),
            },
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::In {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", v.to_literal())?;
                }
                write!(f, "))")
            }
            Expr::Between { expr, low, high } => {
                write!(
                    f,
                    "({expr} BETWEEN {} AND {})",
                    low.to_literal(),
                    high.to_literal()
                )
            }
            Expr::Func { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::Field;

    fn chunk() -> Chunk {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
                Field::new("dist", DataType::Real),
                Field::new("day", DataType::Date),
            ])
            .unwrap(),
        );
        Chunk::from_rows(
            schema,
            &[
                vec![
                    "AA".into(),
                    Value::Int(10),
                    Value::Real(100.0),
                    Value::Date(0),
                ],
                vec!["DL".into(), Value::Null, Value::Real(50.0), Value::Date(1)],
                vec![
                    "WN".into(),
                    Value::Int(-5),
                    Value::Real(0.0),
                    Value::Date(16_222),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_and_literal() {
        let c = chunk();
        let v = col("delay").eval(&c).unwrap();
        assert_eq!(v.get(0), Value::Int(10));
        assert_eq!(v.get(1), Value::Null);
        let l = lit(5i64).eval(&c).unwrap();
        assert_eq!(l.len(), 3); // literals materialize to chunk length
    }

    #[test]
    fn comparison_with_null_three_valued() {
        let c = chunk();
        let pred = bin(BinOp::Gt, col("delay"), lit(0i64));
        let mask = pred.eval_predicate(&c).unwrap();
        assert_eq!(mask, vec![true, false, false]); // NULL ⇒ rejected
    }

    #[test]
    fn predicate_sel_matches_mask() {
        let c = chunk();
        let preds = vec![
            bin(BinOp::Gt, col("delay"), lit(0i64)), // typed Int fast path
            bin(BinOp::Ge, col("dist"), lit(0.0)),   // typed Real fast path
            bin(BinOp::Eq, col("carrier"), lit("AA")), // generic path
            lit(true),                               // no null mask at all
        ];
        for p in preds {
            let mask = p.eval_predicate(&c).unwrap();
            let sel = p.eval_predicate_sel(&c).unwrap();
            assert_eq!(sel.to_mask(c.len()), mask, "{p}");
        }
        // All-true collapses to the compact form.
        assert!(lit(true).eval_predicate_sel(&c).unwrap().is_all());
    }

    /// Every comparison, at the key space's ends too, agrees with the
    /// total order it replaces; Real keys order as `f64::total_cmp`.
    #[test]
    fn key_range_agrees_with_total_order() {
        let ops = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        let ints = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for op in ops {
            for &lit in &ints {
                let range = KeyRange::cmp(op, lit);
                for &x in &ints {
                    assert_eq!(
                        range.holds(x),
                        cmp_holds(op, x.cmp(&lit)),
                        "{x} {op:?} {lit}"
                    );
                }
            }
        }
        let reals = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ];
        for op in ops {
            for &lit in &reals {
                let range = KeyRange::cmp(op, lit.key());
                for &x in &reals {
                    let want = cmp_holds(op, x.total_cmp(&lit));
                    assert_eq!(range.holds(x), want, "{x} {op:?} {lit}");
                }
            }
        }
        // Reversed bounds select nothing; equal bounds select one value.
        let (_, reversed) = between_range(&Value::Date(5), &Value::Date(2)).unwrap();
        assert!((0..8).all(|d: i32| !reversed.holds(d)));
        let (_, point) = between_range(&Value::Int(3), &Value::Int(3)).unwrap();
        assert_eq!((0..6i64).filter(|&x| point.holds(x)).count(), 1);
        assert!(between_range(&Value::Int(3), &Value::Real(4.0)).is_none());
    }

    #[test]
    fn kleene_logic() {
        let c = chunk();
        // delay > 0 OR dist >= 0  — row 2 has NULL delay but dist 50 ⇒ true
        let pred = bin(
            BinOp::Or,
            bin(BinOp::Gt, col("delay"), lit(0i64)),
            bin(BinOp::Ge, col("dist"), lit(0.0)),
        );
        assert_eq!(pred.eval_predicate(&c).unwrap(), vec![true, true, true]);
        // delay > 0 AND dist >= 0 — row 2 NULL AND true ⇒ NULL ⇒ rejected
        let pred = bin(
            BinOp::And,
            bin(BinOp::Gt, col("delay"), lit(0i64)),
            bin(BinOp::Ge, col("dist"), lit(0.0)),
        );
        assert_eq!(pred.eval_predicate(&c).unwrap(), vec![true, false, false]);
    }

    #[test]
    fn arithmetic_promotion_and_div_by_zero() {
        let c = chunk();
        let e = bin(BinOp::Add, col("delay"), lit(1.5));
        let v = e.eval(&c).unwrap();
        assert_eq!(v.get(0), Value::Real(11.5));
        assert_eq!(v.get(1), Value::Null);
        let d = bin(BinOp::Div, lit(1i64), lit(0i64)).eval(&c).unwrap();
        assert_eq!(d.get(0), Value::Null); // div by zero → NULL
    }

    #[test]
    fn in_list_and_between() {
        let c = chunk();
        let e = Expr::In {
            expr: Box::new(col("carrier")),
            list: vec!["AA".into(), "WN".into()],
            negated: false,
        };
        assert_eq!(e.eval_predicate(&c).unwrap(), vec![true, false, true]);
        let ne = Expr::In {
            expr: Box::new(col("carrier")),
            list: vec!["AA".into()],
            negated: true,
        };
        assert_eq!(ne.eval_predicate(&c).unwrap(), vec![false, true, true]);
        let b = Expr::Between {
            expr: Box::new(col("delay")),
            low: Value::Int(0),
            high: Value::Int(100),
        };
        assert_eq!(b.eval_predicate(&c).unwrap(), vec![true, false, false]);
    }

    #[test]
    fn is_null_and_not() {
        let c = chunk();
        let e = Expr::Unary {
            op: UnaryOp::IsNull,
            expr: Box::new(col("delay")),
        };
        assert_eq!(e.eval_predicate(&c).unwrap(), vec![false, true, false]);
        let ne = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(bin(BinOp::Eq, col("carrier"), lit("AA"))),
        };
        assert_eq!(ne.eval_predicate(&c).unwrap(), vec![false, true, true]);
    }

    #[test]
    fn scalar_funcs() {
        let c = chunk();
        let up = Expr::Func {
            func: ScalarFunc::Lower,
            args: vec![col("carrier")],
        };
        assert_eq!(up.eval(&c).unwrap().get(0), Value::Str("aa".into()));
        let y = Expr::Func {
            func: ScalarFunc::Year,
            args: vec![col("day")],
        };
        assert_eq!(y.eval(&c).unwrap().get(2), Value::Int(2014)); // 16222 days ≈ 2014-06
        let ifn = Expr::Func {
            func: ScalarFunc::IfNull,
            args: vec![col("delay"), lit(0i64)],
        };
        assert_eq!(ifn.eval(&c).unwrap().get(1), Value::Int(0));
    }

    #[test]
    fn collation_aware_equality() {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("c", DataType::Str).with_collation(Collation::CaseInsensitive)
            ])
            .unwrap(),
        );
        let c = Chunk::from_rows(schema, &[vec!["Alpha".into()], vec!["beta".into()]]).unwrap();
        let pred = bin(BinOp::Eq, col("c"), lit("ALPHA"));
        assert_eq!(pred.eval_predicate(&c).unwrap(), vec![true, false]);
        let inlist = Expr::In {
            expr: Box::new(col("c")),
            list: vec!["BETA".into()],
            negated: false,
        };
        assert_eq!(inlist.eval_predicate(&c).unwrap(), vec![false, true]);
    }

    #[test]
    fn columns_and_rename() {
        let e = bin(
            BinOp::And,
            bin(BinOp::Gt, col("a"), lit(1i64)),
            bin(BinOp::Eq, col("b"), col("a")),
        );
        let cols = e.columns();
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
        let renamed = e.rename_columns(&|n| format!("t.{n}"));
        assert!(renamed.columns().contains("t.a"));
    }

    #[test]
    fn const_eval() {
        assert_eq!(
            bin(BinOp::Add, lit(2i64), lit(3i64)).const_eval(),
            Some(Value::Int(5))
        );
        assert_eq!(col("x").const_eval(), None);
    }

    #[test]
    fn display_roundtrip_shape() {
        let e = bin(BinOp::Gt, col("delay"), lit(10i64));
        assert_eq!(e.to_string(), "([delay] > 10)");
        let f = Expr::Func {
            func: ScalarFunc::Upper,
            args: vec![col("c")],
        };
        assert_eq!(f.to_string(), "UPPER([c])");
    }

    #[test]
    fn cost_weights_rank_strings_higher() {
        let cheap = bin(BinOp::Gt, col("delay"), lit(10i64));
        let pricey = Expr::Func {
            func: ScalarFunc::Upper,
            args: vec![col("c")],
        };
        assert!(pricey.cost_weight() > cheap.cost_weight());
    }

    #[test]
    fn and_all_builder() {
        assert_eq!(and_all(vec![]), lit(true));
        let one = bin(BinOp::Eq, col("a"), lit(1i64));
        assert_eq!(and_all(vec![one.clone()]), one.clone());
        let both = and_all(vec![one.clone(), one.clone()]);
        assert!(matches!(both, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn data_types() {
        let schema = Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("i", DataType::Int),
        ])
        .unwrap();
        assert_eq!(
            bin(BinOp::Gt, col("i"), lit(1i64))
                .data_type(&schema)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            bin(BinOp::Div, col("i"), lit(2i64))
                .data_type(&schema)
                .unwrap(),
            DataType::Real
        );
        assert_eq!(
            Expr::Func {
                func: ScalarFunc::Strlen,
                args: vec![col("s")]
            }
            .data_type(&schema)
            .unwrap(),
            DataType::Int
        );
    }
}
