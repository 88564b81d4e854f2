//! Aggregate functions, their calls, and the algebra that re-forms them from
//! partial results.
//!
//! Two parts of the paper depend on aggregates being *re-aggregatable*:
//!
//! * the parallel local/global aggregation of Sect. 4.2.3 ("apply the
//!   aggregate on each partition in parallel ... and again apply the
//!   aggregate on top of the output of the Exchange operator"), and
//! * the intelligent cache's post-processing roll-up of Sect. 3.2, which
//!   level-of-detail covers and widened queries are built to serve.
//!
//! Both use the one algebra here. [`partial_aggs`] names the *parts* a list
//! of aggregates is re-formed from: SUM, COUNT, MIN and MAX are their own
//! part, AVG is the SUM and COUNT of its argument, and COUNTD has none (its
//! partial state would be the distinct set itself), so nothing holding a
//! COUNTD is split, covered or widened. [`merge`] re-forms the requested
//! aggregates from the columns holding their parts: each part re-aggregated
//! (SUM of SUMs and of COUNTs, MIN of MINs, MAX of MAXes), AVG as SUM over
//! COUNT, and an ungrouped COUNT of no rows as 0.

use crate::expr::{bin, col, lit, BinOp, Expr, ScalarFunc};
use std::fmt;
use tabviz_common::{DataType, Result, Schema, TvError};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Count,
    /// COUNT(DISTINCT ..)
    CountD,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::CountD => "COUNTD",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "SUM" => AggFunc::Sum,
            "COUNT" => AggFunc::Count,
            "COUNTD" => AggFunc::CountD,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            _ => return None,
        })
    }

    /// The functions of the parts an aggregate of this function is re-formed
    /// from, each over the aggregate's own argument; `None` for COUNTD.
    fn parts(self) -> Option<&'static [AggFunc]> {
        match self {
            AggFunc::Sum => Some(&[AggFunc::Sum]),
            AggFunc::Count => Some(&[AggFunc::Count]),
            AggFunc::Min => Some(&[AggFunc::Min]),
            AggFunc::Max => Some(&[AggFunc::Max]),
            AggFunc::Avg => Some(&[AggFunc::Sum, AggFunc::Count]),
            AggFunc::CountD => None,
        }
    }

    /// Whether an aggregate of this function is its own part.
    fn is_own_part(self) -> bool {
        self.parts() == Some(std::slice::from_ref(&self))
    }

    /// The function that re-aggregates partial results of a part.
    fn merge_func(self) -> AggFunc {
        match self {
            AggFunc::Count => AggFunc::Sum,
            f => f,
        }
    }
}

/// One aggregate call in an Aggregate operator: `func(arg) AS alias`.
/// `arg = None` encodes `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<Expr>,
    pub alias: String,
}

impl AggCall {
    pub fn new(func: AggFunc, arg: Option<Expr>, alias: impl Into<String>) -> Self {
        AggCall {
            func,
            arg,
            alias: alias.into(),
        }
    }

    /// Output type given the input schema.
    pub fn output_type(&self, schema: &Schema) -> Result<DataType> {
        match self.func {
            AggFunc::Count | AggFunc::CountD => Ok(DataType::Int),
            AggFunc::Avg => Ok(DataType::Real),
            AggFunc::Sum => match &self.arg {
                Some(e) => {
                    let t = e.data_type(schema)?;
                    if !t.is_numeric() {
                        return Err(TvError::Type(format!("SUM over non-numeric {t}")));
                    }
                    Ok(t)
                }
                None => Err(TvError::Bind("SUM requires an argument".into())),
            },
            AggFunc::Min | AggFunc::Max => match &self.arg {
                Some(e) => e.data_type(schema),
                None => Err(TvError::Bind(format!(
                    "{} requires an argument",
                    self.func.name()
                ))),
            },
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(e) => write!(f, "{}({e}) AS {}", self.func.name(), self.alias),
            None => write!(f, "{}(*) AS {}", self.func.name(), self.alias),
        }
    }
}

/// The parts `aggs` are re-formed from, deduplicated by (function,
/// argument) and aliased `__part{i}` in order of first use; `None` when one
/// of them is COUNTD, which has none.
pub fn partial_aggs<'a>(aggs: impl IntoIterator<Item = &'a AggCall>) -> Option<Vec<AggCall>> {
    let mut parts: Vec<AggCall> = Vec::new();
    for a in aggs {
        for &func in a.func.parts()? {
            if !parts.iter().any(|p| p.func == func && p.arg == a.arg) {
                let alias = format!("__part{}", parts.len());
                parts.push(AggCall::new(func, a.arg.clone(), alias));
            }
        }
    }
    Some(parts)
}

/// Where the columns a [`merge`] reads lie relative to the requested
/// grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regroup {
    /// At the requested grouping: a column holding an equal call is copied,
    /// and an AVG may be re-formed from its parts row by row.
    Same,
    /// Finer (a cached roll-up), or one group's partials spread over several
    /// rows (local/global aggregation): every part is re-aggregated.
    /// `ungrouped` when the request has no grouping and its one row may be
    /// rolled up from no rows at all, where the SUM of no COUNTs is NULL but
    /// the COUNT must read 0.
    Rollup { ungrouped: bool },
}

/// How requested aggregates are re-formed from the columns holding their
/// parts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Merge {
    /// The re-aggregating call of each part, grouped by the requested
    /// grouping; empty under [`Regroup::Same`]. An aggregate that is its own
    /// part is re-aggregated under its own alias, in request order.
    pub rollup: Vec<AggCall>,
    /// One `(expression, alias)` per requested aggregate, over `rollup`'s
    /// aliases (over the part columns themselves under [`Regroup::Same`]).
    pub outputs: Vec<(Expr, String)>,
}

impl Merge {
    /// Whether the outputs are `rollup`'s columns as they stand, so the
    /// roll-up needs no projection after it.
    pub fn is_plain(&self) -> bool {
        self.rollup.len() == self.outputs.len()
            && self
                .rollup
                .iter()
                .zip(&self.outputs)
                .all(|(r, (e, alias))| {
                    r.alias == *alias && matches!(e, Expr::Column(c) if *c == r.alias)
                })
    }
}

/// Re-form `aggs` from the columns `column(func, arg)` names, each holding a
/// part (or, under [`Regroup::Same`], an equal call). `None` when a needed
/// column is missing or an aggregate has no parts to re-aggregate.
pub fn merge(
    aggs: &[AggCall],
    regroup: Regroup,
    column: impl Fn(AggFunc, Option<&Expr>) -> Option<String>,
) -> Option<Merge> {
    let mut m = Merge::default();
    let Regroup::Rollup { ungrouped } = regroup else {
        for a in aggs {
            let out = match column(a.func, a.arg.as_ref()) {
                Some(c) => col(c),
                None => {
                    let parts = a.func.parts()?.iter();
                    let parts = parts.map(|&f| column(f, a.arg.as_ref()).map(col));
                    combine(a.func, parts.collect::<Option<_>>()?)
                }
            };
            m.outputs.push((out, a.alias.clone()));
        }
        return Some(m);
    };
    for a in aggs.iter().filter(|a| a.func.is_own_part()) {
        let c = column(a.func, a.arg.as_ref())?;
        let merged = AggCall::new(a.func.merge_func(), Some(col(c)), a.alias.clone());
        m.rollup.push(merged);
    }
    for a in aggs {
        let out = if a.func.is_own_part() {
            let out = col(&a.alias);
            if ungrouped && a.func == AggFunc::Count {
                Expr::Func {
                    func: ScalarFunc::IfNull,
                    args: vec![out, lit(0i64)],
                }
            } else {
                out
            }
        } else {
            let mut parts = Vec::new();
            for &f in a.func.parts()? {
                let arg = Some(col(column(f, a.arg.as_ref())?));
                let func = f.merge_func();
                let alias = match m.rollup.iter().find(|r| r.func == func && r.arg == arg) {
                    Some(r) => r.alias.clone(),
                    None => {
                        let alias = format!("__part{}", m.rollup.len());
                        m.rollup.push(AggCall::new(func, arg, alias.clone()));
                        alias
                    }
                };
                parts.push(col(alias));
            }
            combine(a.func, parts)
        };
        m.outputs.push((out, a.alias.clone()));
    }
    Some(m)
}

/// An aggregate's value from its parts' values, in [`AggFunc::parts`] order.
fn combine(func: AggFunc, mut parts: Vec<Expr>) -> Expr {
    match func {
        AggFunc::Avg => {
            let count = parts.pop().expect("AVG has two parts");
            bin(BinOp::Div, parts.pop().expect("AVG has two parts"), count)
        }
        _ => parts.pop().expect("one part"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_algebra() {
        let call = |f, arg: Option<&str>, alias: &str| AggCall::new(f, arg.map(col), alias);
        let x = Some("x");
        let aggs = [
            call(AggFunc::Sum, x, "s"),
            call(AggFunc::Avg, x, "a"),
            call(AggFunc::Avg, x, "b"),
            call(AggFunc::Count, None, "n"),
            call(AggFunc::Min, Some("y"), "lo"),
        ];
        // Parts: deduplicated by (function, argument), AVG as SUM + COUNT.
        let parts = partial_aggs(&aggs).unwrap();
        assert_eq!(
            parts,
            [
                call(AggFunc::Sum, x, "__part0"),
                call(AggFunc::Count, x, "__part1"),
                call(AggFunc::Count, None, "__part2"),
                call(AggFunc::Min, Some("y"), "__part3"),
            ]
        );
        assert_eq!(partial_aggs(&[call(AggFunc::CountD, x, "d")]), None);
        let column = |f: AggFunc, arg: Option<&Expr>| {
            let p = parts
                .iter()
                .find(|p| p.func == f && p.arg.as_ref() == arg)?;
            Some(p.alias.clone())
        };

        // Roll-up: SUM of SUMs and COUNTs, MIN of MINs, one call per part
        // column; both AVGs read the requested SUM's roll-up.
        let m = merge(&aggs, Regroup::Rollup { ungrouped: true }, column).unwrap();
        assert_eq!(
            m.rollup,
            [
                call(AggFunc::Sum, Some("__part0"), "s"),
                call(AggFunc::Sum, Some("__part2"), "n"),
                call(AggFunc::Min, Some("__part3"), "lo"),
                call(AggFunc::Sum, Some("__part1"), "__part3"),
            ]
        );
        let avg = bin(BinOp::Div, col("s"), col("__part3"));
        let zero_count = Expr::Func {
            func: ScalarFunc::IfNull,
            args: vec![col("n"), lit(0i64)],
        };
        let outputs: Vec<(Expr, String)> = vec![
            (col("s"), "s".into()),
            (avg.clone(), "a".into()),
            (avg, "b".into()),
            (zero_count, "n".into()),
            (col("lo"), "lo".into()),
        ];
        assert_eq!(m.outputs, outputs);
        assert!(!m.is_plain());
        // Re-aggregated columns alone need no projection, duplicates
        // included; grouped, a COUNT is the SUM of its partial counts.
        let plain = [
            call(AggFunc::Count, None, "n"),
            call(AggFunc::Count, None, "m"),
        ];
        let m = merge(&plain, Regroup::Rollup { ungrouped: false }, column).unwrap();
        assert_eq!(m.rollup.len(), 2);
        assert!(m.is_plain(), "{m:?}");
        // No parts, no roll-up: COUNTD only where the grouping stays.
        let countd = [call(AggFunc::CountD, x, "d")];
        let cached_d =
            |f: AggFunc, _: Option<&Expr>| (f == AggFunc::CountD).then(|| "d0".to_string());
        assert_eq!(
            merge(&countd, Regroup::Rollup { ungrouped: false }, cached_d),
            None
        );
        let m = merge(&countd, Regroup::Same, cached_d).unwrap();
        assert_eq!(m.outputs, [(col("d0"), "d".to_string())]);

        // Same grouping: an equal call is copied; an AVG missing from the
        // columns is its SUM over its COUNT, row by row.
        let m = merge(&aggs[1..2], Regroup::Same, column).unwrap();
        assert!(m.rollup.is_empty());
        assert_eq!(
            m.outputs,
            [(
                bin(BinOp::Div, col("__part0"), col("__part1")),
                "a".to_string()
            )]
        );
        let with_avg = |f: AggFunc, arg: Option<&Expr>| match f {
            AggFunc::Avg => Some("avg".to_string()),
            f => column(f, arg),
        };
        let m = merge(&aggs[1..2], Regroup::Same, with_avg).unwrap();
        assert_eq!(m.outputs, [(col("avg"), "a".to_string())]);
        // A missing part fails the merge.
        let no_count =
            |f: AggFunc, arg: Option<&Expr>| column(f, arg).filter(|_| f != AggFunc::Count);
        assert_eq!(merge(&aggs[1..2], Regroup::Same, no_count), None);
    }

    #[test]
    fn output_types() {
        use crate::expr::col;
        let schema = Schema::new(vec![
            tabviz_common::Field::new("i", DataType::Int),
            tabviz_common::Field::new("s", DataType::Str),
        ])
        .unwrap();
        assert_eq!(
            AggCall::new(AggFunc::Sum, Some(col("i")), "x")
                .output_type(&schema)
                .unwrap(),
            DataType::Int
        );
        assert_eq!(
            AggCall::new(AggFunc::Avg, Some(col("i")), "x")
                .output_type(&schema)
                .unwrap(),
            DataType::Real
        );
        assert_eq!(
            AggCall::new(AggFunc::Min, Some(col("s")), "x")
                .output_type(&schema)
                .unwrap(),
            DataType::Str
        );
        assert!(AggCall::new(AggFunc::Sum, Some(col("s")), "x")
            .output_type(&schema)
            .is_err());
        assert!(AggCall::new(AggFunc::Sum, None, "x")
            .output_type(&schema)
            .is_err());
    }
}
