//! Predicate implication for cache subsumption.
//!
//! Sect. 3.2: "When looking for matches, we attempt to prove that results of
//! the stored query subsume the requested data. ... The applicability of the
//! intelligent cache is limited by proving capabilities and efficiency, e.g.
//! analyzing implications of predicates, potentially large or formulated in
//! different equivalent ways." The prover here is sound but deliberately
//! incomplete: syntactic equality, plus single-column set/range reasoning
//! (`IN ⊆ IN`, `= ∈ IN`, range containment, point-in-range). Anything it
//! cannot prove is a cache miss — never a wrong answer.

use std::collections::BTreeSet;
use tabviz_common::Value;
use tabviz_tql::expr::Expr;
use tabviz_tql::BinOp;

/// Does `premise` (the new query's conjunct) imply `conclusion` (the cached
/// query's conjunct)? Sound: `true` only when every row satisfying `premise`
/// satisfies `conclusion`.
pub fn implies(premise: &Expr, conclusion: &Expr) -> bool {
    if let Expr::Literal(Value::Bool(true)) = conclusion {
        return true;
    }
    // Structural equality, compared without rendering either side. Literals
    // compare as `Value`s do: Int and Real numerically, which is the same
    // equality the set and range reasoning below applies.
    if premise == conclusion {
        return true;
    }
    let (Some(p), Some(c)) = (Constraint::of(premise), Constraint::of(conclusion)) else {
        return false;
    };
    if p.column != c.column {
        return false;
    }
    c.contains(&p)
}

/// A single-column value constraint: a finite set, a range, or both absent
/// (just non-null).
#[derive(Debug, Clone)]
struct Constraint {
    column: String,
    /// Finite admissible set (from `=` / `IN`).
    set: Option<BTreeSet<Value>>,
    /// Lower bound (value, inclusive).
    low: Option<(Value, bool)>,
    /// Upper bound (value, inclusive).
    high: Option<(Value, bool)>,
}

impl Constraint {
    fn of(e: &Expr) -> Option<Constraint> {
        match e {
            Expr::Binary { op, left, right } => {
                let (col, lit, flipped) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), Expr::Literal(v)) => (c, v, false),
                    (Expr::Literal(v), Expr::Column(c)) => (c, v, true),
                    _ => return None,
                };
                if lit.is_null() {
                    return None;
                }
                let op = if flipped { flip(*op)? } else { *op };
                let mut k = Constraint {
                    column: col.clone(),
                    set: None,
                    low: None,
                    high: None,
                };
                match op {
                    BinOp::Eq => {
                        k.set = Some(std::iter::once(lit.clone()).collect());
                    }
                    BinOp::Lt => k.high = Some((lit.clone(), false)),
                    BinOp::Le => k.high = Some((lit.clone(), true)),
                    BinOp::Gt => k.low = Some((lit.clone(), false)),
                    BinOp::Ge => k.low = Some((lit.clone(), true)),
                    _ => return None,
                }
                Some(k)
            }
            Expr::In {
                expr,
                list,
                negated,
            } => {
                if *negated {
                    return None;
                }
                let Expr::Column(c) = expr.as_ref() else {
                    return None;
                };
                Some(Constraint {
                    column: c.clone(),
                    set: Some(list.iter().filter(|v| !v.is_null()).cloned().collect()),
                    low: None,
                    high: None,
                })
            }
            Expr::Between { expr, low, high } => {
                let Expr::Column(c) = expr.as_ref() else {
                    return None;
                };
                Some(Constraint {
                    column: c.clone(),
                    set: None,
                    low: Some((low.clone(), true)),
                    high: Some((high.clone(), true)),
                })
            }
            _ => None,
        }
    }

    /// Does every value admitted by `other` satisfy `self`?
    fn contains(&self, other: &Constraint) -> bool {
        match (&self.set, &other.set) {
            // set ⊇ set
            (Some(mine), Some(theirs)) => theirs.is_subset(mine),
            // range ⊇ set: every value in range
            (None, Some(theirs)) => theirs.iter().all(|v| self.admits(v)),
            // set can never contain a (dense) range
            (Some(_), None) => false,
            // range ⊇ range
            (None, None) => bound_le(&self.low, &other.low) && bound_ge(&self.high, &other.high),
        }
    }

    fn admits(&self, v: &Value) -> bool {
        if let Some((lo, incl)) = &self.low {
            match v.cmp(lo) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Equal if !incl => return false,
                _ => {}
            }
        }
        if let Some((hi, incl)) = &self.high {
            match v.cmp(hi) {
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal if !incl => return false,
                _ => {}
            }
        }
        true
    }
}

/// mine.low ≤ other.low (mine admits everything other's lower bound admits).
fn bound_le(mine: &Option<(Value, bool)>, other: &Option<(Value, bool)>) -> bool {
    match (mine, other) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some((mv, mi)), Some((ov, oi))) => match mv.cmp(ov) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => *mi || !*oi,
            std::cmp::Ordering::Greater => false,
        },
    }
}

/// mine.high ≥ other.high.
fn bound_ge(mine: &Option<(Value, bool)>, other: &Option<(Value, bool)>) -> bool {
    match (mine, other) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some((mv, mi)), Some((ov, oi))) => match mv.cmp(ov) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => *mi || !*oi,
            std::cmp::Ordering::Less => false,
        },
    }
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_tql::parser::parse_expr;

    fn imp(p: &str, c: &str) -> bool {
        implies(&parse_expr(p).unwrap(), &parse_expr(c).unwrap())
    }

    #[test]
    fn syntactic_equality() {
        assert!(imp("(> delay 10)", "(> delay 10)"));
        assert!(imp("(upper s)", "(upper s)")); // even unanalyzable shapes
    }

    #[test]
    fn anything_implies_true() {
        assert!(imp("(> delay 10)", "true"));
    }

    #[test]
    fn in_subset() {
        assert!(imp("(in c \"AA\")", "(in c \"AA\" \"DL\")"));
        assert!(imp("(= c \"AA\")", "(in c \"AA\" \"DL\")"));
        assert!(!imp("(in c \"AA\" \"WN\")", "(in c \"AA\" \"DL\")"));
        assert!(!imp("(in c \"AA\" \"DL\")", "(in c \"AA\")"));
    }

    #[test]
    fn range_containment() {
        assert!(imp("(> x 10)", "(> x 5)"));
        assert!(imp("(> x 10)", "(>= x 10)"));
        assert!(!imp("(>= x 10)", "(> x 10)"));
        assert!(imp("(between x 3 7)", "(between x 0 10)"));
        assert!(!imp("(between x 0 10)", "(between x 3 7)"));
        assert!(imp("(< x 5)", "(<= x 5)"));
    }

    #[test]
    fn set_in_range_and_vice_versa() {
        assert!(imp("(in x 3 4 5)", "(between x 1 10)"));
        assert!(!imp("(in x 3 40)", "(between x 1 10)"));
        assert!(imp("(= x 5)", "(> x 1)"));
        // A range never proves membership in a finite set.
        assert!(!imp("(between x 3 4)", "(in x 3 4)"));
    }

    #[test]
    fn flipped_literal_side() {
        assert!(imp("(< 10 x)", "(> x 5)")); // 10 < x ≡ x > 10 ⇒ x > 5
        assert!(imp("(= 5 x)", "(in x 5 6)"));
    }

    #[test]
    fn different_columns_never_imply() {
        assert!(!imp("(> x 10)", "(> y 5)"));
    }

    #[test]
    fn unprovable_is_false_not_wrong() {
        assert!(!imp("(and (> x 10) (< x 20))", "(> x 5)")); // conjunctions unanalyzed
        assert!(!imp("(notin c \"AA\")", "(notin c \"AA\" \"DL\")"));
        assert!(!imp("(> x 10)", "(isnull x)"));
    }

    #[test]
    fn null_literals_rejected() {
        assert!(!imp("(= x null)", "(= x null)") || imp("(= x null)", "(= x null)"));
        // (text equality still allows exact match)
        assert!(imp("(= x null)", "(= x null)"));
    }
}
