//! Aggregate functions, their calls, and roll-up algebra.
//!
//! Two parts of the paper depend on aggregates being *re-aggregatable*:
//!
//! * the parallel local/global aggregation of Sect. 4.2.3 ("apply the
//!   aggregate on each partition in parallel ... and again apply the
//!   aggregate on top of the output of the Exchange operator"), and
//! * the intelligent cache's post-processing roll-up of Sect. 3.2.
//!
//! [`AggFunc::rollup_func`] encodes which function re-aggregates partial
//! results (`SUM` of `COUNT`s, etc.). `AVG` decomposes into `SUM`+`COUNT`;
//! `COUNTD` does not decompose at all — both facts shape what the optimizer
//! and the cache are allowed to do.

use crate::expr::Expr;
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

    /// The function that combines *partial* results of this aggregate, or
    /// `None` when partials cannot be combined value-wise (AVG needs its
    /// SUM/COUNT decomposition; COUNTD needs the full distinct sets).
    pub fn rollup_func(self) -> Option<AggFunc> {
        match self {
            AggFunc::Sum | AggFunc::Count => Some(AggFunc::Sum),
            AggFunc::Min => Some(AggFunc::Min),
            AggFunc::Max => Some(AggFunc::Max),
            AggFunc::Avg | AggFunc::CountD => None,
        }
    }

    /// Whether the local/global split of Sect. 4.2.3 applies. `AVG` counts
    /// because the planner rewrites it via SUM/COUNT; `COUNTD` does not.
    pub fn supports_local_global(self) -> bool {
        !matches!(self, AggFunc::CountD)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_algebra() {
        assert_eq!(AggFunc::Count.rollup_func(), Some(AggFunc::Sum));
        assert_eq!(AggFunc::Sum.rollup_func(), Some(AggFunc::Sum));
        assert_eq!(AggFunc::Min.rollup_func(), Some(AggFunc::Min));
        assert_eq!(AggFunc::Avg.rollup_func(), None);
        assert_eq!(AggFunc::CountD.rollup_func(), None);
        assert!(AggFunc::Avg.supports_local_global());
        assert!(!AggFunc::CountD.supports_local_global());
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
