//! Textual TQL front end.
//!
//! "The TDE ... has a classic query compiler that accepts a TQL query as
//! text" (Sect. 4.1.2). TQL here is an s-expression syntax that maps
//! one-to-one onto the logical tree:
//!
//! ```text
//! (topn 5 ((flights desc))
//!   (aggregate ((carrier))
//!              ((count as flights) (avg delay as avg_delay))
//!     (select (> delay 10)
//!       (scan flights))))
//! ```
//!
//! Grammar:
//! ```text
//! plan := (scan NAME col*)
//!       | (select EXPR plan)
//!       | (project ((EXPR as NAME)*) plan)
//!       | (join inner|left ((LCOL RCOL)*) plan plan)
//!       | (aggregate (group*) (aggcall*) plan)        group := NAME | (EXPR as NAME)
//!       | (order ((COL asc|desc)*) plan)
//!       | (topn N ((COL asc|desc)*) plan)
//!       | (distinct plan)
//! aggcall := (AGGFUNC [EXPR] as NAME)                 count with no arg = COUNT(*)
//! expr := NUMBER | "STRING" | true | false | null | DATE@N | IDENT
//!       | (OP expr expr) | (and expr+) | (or expr+) | (not expr)
//!       | (isnull expr) | (notnull expr) | (neg expr)
//!       | (in expr lit+) | (notin expr lit+) | (between expr lit lit)
//!       | (FUNC expr+)
//! ```

use crate::agg::{AggCall, AggFunc};
use crate::expr::{and_all, BinOp, Expr, ScalarFunc, UnaryOp};
use crate::plan::{JoinType, LogicalPlan, SortKey};
use tabviz_common::{Result, TvError, Value};

/// Deepest list nesting the parser accepts. Parsing recurses once per
/// level, so unbounded nesting in untrusted text (a persisted cache file)
/// would overflow the stack; the plans and expressions the engine writes
/// stay far below this.
const MAX_NESTING: usize = 256;

/// Parse a TQL plan from text.
pub fn parse_plan(text: &str) -> Result<LogicalPlan> {
    let tokens = tokenize(text)?;
    let mut pos = 0usize;
    let sexp = parse_sexp(&tokens, &mut pos, 0)?;
    if pos != tokens.len() {
        return Err(TvError::Parse(format!(
            "trailing input after plan: {:?}",
            &tokens[pos..]
        )));
    }
    plan_from_sexp(&sexp)
}

/// Parse a standalone TQL expression (used by filter definitions).
pub fn parse_expr(text: &str) -> Result<Expr> {
    let tokens = tokenize(text)?;
    let mut pos = 0usize;
    let sexp = parse_sexp(&tokens, &mut pos, 0)?;
    if pos != tokens.len() {
        return Err(TvError::Parse("trailing input after expression".into()));
    }
    expr_from_sexp(&sexp)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open,
    Close,
    Atom(String),
    Str(String),
}

fn tokenize(text: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' => {
                chars.next();
                tokens.push(Token::Open);
            }
            ')' => {
                chars.next();
                tokens.push(Token::Close);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(e) => s.push(e),
                            None => return Err(TvError::Parse("unterminated escape".into())),
                        },
                        Some(ch) => s.push(ch),
                        None => return Err(TvError::Parse("unterminated string".into())),
                    }
                }
                tokens.push(Token::Str(s));
            }
            ';' => {
                // comment to end of line
                for ch in chars.by_ref() {
                    if ch == '\n' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' || c == '"' || c == ';' {
                        break;
                    }
                    s.push(c);
                    chars.next();
                }
                tokens.push(Token::Atom(s));
            }
        }
    }
    Ok(tokens)
}

#[derive(Debug, Clone)]
enum Sexp {
    Atom(String),
    Str(String),
    List(Vec<Sexp>),
}

impl Sexp {
    fn atom(&self) -> Option<&str> {
        match self {
            Sexp::Atom(s) => Some(s),
            _ => None,
        }
    }

    fn list(&self) -> Option<&[Sexp]> {
        match self {
            Sexp::List(items) => Some(items),
            _ => None,
        }
    }
}

/// One s-expression at `tokens[*pos]`, nested `depth` lists deep.
fn parse_sexp(tokens: &[Token], pos: &mut usize, depth: usize) -> Result<Sexp> {
    match tokens.get(*pos) {
        None => Err(TvError::Parse("unexpected end of input".into())),
        Some(Token::Close) => Err(TvError::Parse("unexpected ')'".into())),
        Some(Token::Atom(s)) => {
            *pos += 1;
            Ok(Sexp::Atom(s.clone()))
        }
        Some(Token::Str(s)) => {
            *pos += 1;
            Ok(Sexp::Str(s.clone()))
        }
        Some(Token::Open) => {
            if depth == MAX_NESTING {
                return Err(TvError::Parse(format!(
                    "lists nested deeper than {MAX_NESTING}"
                )));
            }
            *pos += 1;
            let mut items = Vec::new();
            loop {
                match tokens.get(*pos) {
                    None => return Err(TvError::Parse("unclosed '('".into())),
                    Some(Token::Close) => {
                        *pos += 1;
                        return Ok(Sexp::List(items));
                    }
                    _ => items.push(parse_sexp(tokens, pos, depth + 1)?),
                }
            }
        }
    }
}

fn plan_from_sexp(s: &Sexp) -> Result<LogicalPlan> {
    let items = s
        .list()
        .ok_or_else(|| TvError::Parse("plan must be a list".into()))?;
    let head = items
        .first()
        .and_then(Sexp::atom)
        .ok_or_else(|| TvError::Parse("plan must start with an operator name".into()))?;
    match head.to_ascii_lowercase().as_str() {
        "scan" => {
            let table = items
                .get(1)
                .and_then(Sexp::atom)
                .ok_or_else(|| TvError::Parse("(scan TABLE col*)".into()))?;
            let cols: Vec<String> = items[2..]
                .iter()
                .map(|c| {
                    c.atom()
                        .map(str::to_string)
                        .ok_or_else(|| TvError::Parse("scan columns must be names".into()))
                })
                .collect::<Result<_>>()?;
            Ok(LogicalPlan::TableScan {
                table: table.to_string(),
                projection: if cols.is_empty() { None } else { Some(cols) },
            })
        }
        "select" => {
            expect_len(items, 3, "(select EXPR plan)")?;
            Ok(LogicalPlan::Select {
                predicate: expr_from_sexp(&items[1])?,
                input: Box::new(plan_from_sexp(&items[2])?),
            })
        }
        "project" => {
            expect_len(items, 3, "(project (exprs) plan)")?;
            let list = items[1]
                .list()
                .ok_or_else(|| TvError::Parse("project expects a list of items".into()))?;
            let mut exprs = Vec::with_capacity(list.len());
            for item in list {
                exprs.push(named_expr(item)?);
            }
            Ok(LogicalPlan::Project {
                exprs,
                input: Box::new(plan_from_sexp(&items[2])?),
            })
        }
        "join" => {
            expect_len(items, 5, "(join inner|left (keys) left right)")?;
            let jt = match items[1].atom().map(str::to_ascii_lowercase).as_deref() {
                Some("inner") => JoinType::Inner,
                Some("left") => JoinType::Left,
                _ => return Err(TvError::Parse("join type must be inner or left".into())),
            };
            let keys = items[2]
                .list()
                .ok_or_else(|| TvError::Parse("join keys must be a list".into()))?;
            let mut on = Vec::with_capacity(keys.len());
            for k in keys {
                let pair = k
                    .list()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| TvError::Parse("join key must be (LCOL RCOL)".into()))?;
                on.push((
                    pair[0]
                        .atom()
                        .ok_or_else(|| TvError::Parse("join key columns must be names".into()))?
                        .to_string(),
                    pair[1]
                        .atom()
                        .ok_or_else(|| TvError::Parse("join key columns must be names".into()))?
                        .to_string(),
                ));
            }
            Ok(LogicalPlan::Join {
                left: Box::new(plan_from_sexp(&items[3])?),
                right: Box::new(plan_from_sexp(&items[4])?),
                on,
                join_type: jt,
            })
        }
        "aggregate" => {
            expect_len(items, 4, "(aggregate (groups) (aggs) plan)")?;
            let groups = items[1]
                .list()
                .ok_or_else(|| TvError::Parse("aggregate groups must be a list".into()))?;
            let mut group_by = Vec::with_capacity(groups.len());
            for g in groups {
                match g {
                    Sexp::Atom(name) => group_by.push((Expr::Column(name.clone()), name.clone())),
                    _ => group_by.push(named_expr(g)?),
                }
            }
            let aggs_list = items[2]
                .list()
                .ok_or_else(|| TvError::Parse("aggregate calls must be a list".into()))?;
            let mut aggs = Vec::with_capacity(aggs_list.len());
            for a in aggs_list {
                aggs.push(agg_from_sexp(a)?);
            }
            Ok(LogicalPlan::Aggregate {
                group_by,
                aggs,
                input: Box::new(plan_from_sexp(&items[3])?),
            })
        }
        "order" => {
            expect_len(items, 3, "(order (keys) plan)")?;
            Ok(LogicalPlan::Order {
                keys: sort_keys(&items[1])?,
                input: Box::new(plan_from_sexp(&items[2])?),
            })
        }
        "topn" => {
            expect_len(items, 4, "(topn N (keys) plan)")?;
            let n: usize = items[1]
                .atom()
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| TvError::Parse("topn count must be an integer".into()))?;
            Ok(LogicalPlan::TopN {
                n,
                keys: sort_keys(&items[2])?,
                input: Box::new(plan_from_sexp(&items[3])?),
            })
        }
        "distinct" => {
            expect_len(items, 2, "(distinct plan)")?;
            Ok(LogicalPlan::Distinct {
                input: Box::new(plan_from_sexp(&items[1])?),
            })
        }
        other => Err(TvError::Parse(format!("unknown plan operator '{other}'"))),
    }
}

fn expect_len(items: &[Sexp], n: usize, usage: &str) -> Result<()> {
    if items.len() != n {
        return Err(TvError::Parse(format!("expected {usage}")));
    }
    Ok(())
}

/// `(EXPR as NAME)` or a bare column name.
fn named_expr(s: &Sexp) -> Result<(Expr, String)> {
    if let Some(name) = s.atom() {
        return Ok((Expr::Column(name.to_string()), name.to_string()));
    }
    let items = s
        .list()
        .ok_or_else(|| TvError::Parse("expected (EXPR as NAME)".into()))?;
    if items.len() == 1 {
        // `(carrier)` — a parenthesized bare item.
        return named_expr(&items[0]);
    }
    if items.len() >= 3 && items[items.len() - 2].atom() == Some("as") {
        let name = items[items.len() - 1]
            .atom()
            .ok_or_else(|| TvError::Parse("alias must be a name".into()))?;
        let inner = if items.len() == 3 {
            expr_from_sexp(&items[0])?
        } else {
            expr_from_sexp(&Sexp::List(items[..items.len() - 2].to_vec()))?
        };
        Ok((inner, name.to_string()))
    } else {
        let e = expr_from_sexp(s)?;
        let name = match &e {
            Expr::Column(c) => c.clone(),
            other => other.to_string(),
        };
        Ok((e, name))
    }
}

/// `(FUNC [EXPR] as NAME)`.
fn agg_from_sexp(s: &Sexp) -> Result<AggCall> {
    let items = s
        .list()
        .ok_or_else(|| TvError::Parse("aggregate call must be a list".into()))?;
    let func = items
        .first()
        .and_then(Sexp::atom)
        .and_then(AggFunc::from_name)
        .ok_or_else(|| TvError::Parse("unknown aggregate function".into()))?;
    // Forms: (count as n) | (sum delay as total) | (avg (expr..) as x)
    if items.len() < 3 || items[items.len() - 2].atom() != Some("as") {
        return Err(TvError::Parse("aggregate call needs 'as NAME'".into()));
    }
    let alias = items[items.len() - 1]
        .atom()
        .ok_or_else(|| TvError::Parse("aggregate alias must be a name".into()))?
        .to_string();
    let arg_items = &items[1..items.len() - 2];
    let arg = match arg_items.len() {
        0 => None,
        1 => Some(expr_from_sexp(&arg_items[0])?),
        _ => Some(expr_from_sexp(&Sexp::List(arg_items.to_vec()))?),
    };
    Ok(AggCall { func, arg, alias })
}

fn sort_keys(s: &Sexp) -> Result<Vec<SortKey>> {
    let items = s
        .list()
        .ok_or_else(|| TvError::Parse("sort keys must be a list".into()))?;
    let mut keys = Vec::with_capacity(items.len());
    for k in items {
        match k {
            Sexp::Atom(name) => keys.push(SortKey::asc(name.clone())),
            Sexp::List(pair) if pair.len() == 2 => {
                let name = pair[0]
                    .atom()
                    .ok_or_else(|| TvError::Parse("sort key column must be a name".into()))?;
                let asc = match pair[1].atom().map(str::to_ascii_lowercase).as_deref() {
                    Some("asc") => true,
                    Some("desc") => false,
                    _ => return Err(TvError::Parse("sort direction must be asc or desc".into())),
                };
                keys.push(SortKey {
                    column: name.to_string(),
                    asc,
                });
            }
            _ => {
                return Err(TvError::Parse(
                    "sort key must be NAME or (NAME asc|desc)".into(),
                ))
            }
        }
    }
    Ok(keys)
}

fn literal_from_sexp(s: &Sexp) -> Result<Value> {
    match s {
        Sexp::Str(v) => Ok(Value::Str(v.clone())),
        Sexp::Atom(a) => {
            atom_literal(a).ok_or_else(|| TvError::Parse(format!("expected a literal, got '{a}'")))
        }
        Sexp::List(_) => Err(TvError::Parse("expected a literal, got a list".into())),
    }
}

fn atom_literal(a: &str) -> Option<Value> {
    match a {
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        "null" => return Some(Value::Null),
        _ => {}
    }
    if let Some(days) = a.strip_prefix("date@") {
        return days.parse::<i32>().ok().map(Value::Date);
    }
    if let Ok(i) = a.parse::<i64>() {
        return Some(Value::Int(i));
    }
    if let Ok(r) = a.parse::<f64>() {
        if a.contains('.') || a.contains('e') || a.contains('E') {
            return Some(Value::Real(r));
        }
    }
    None
}

fn expr_from_sexp(s: &Sexp) -> Result<Expr> {
    match s {
        Sexp::Str(v) => Ok(Expr::Literal(Value::Str(v.clone()))),
        Sexp::Atom(a) => {
            if let Some(v) = atom_literal(a) {
                Ok(Expr::Literal(v))
            } else {
                Ok(Expr::Column(a.clone()))
            }
        }
        Sexp::List(items) => {
            let head = items.first().and_then(Sexp::atom).ok_or_else(|| {
                TvError::Parse("expression list must start with an operator".into())
            })?;
            let binop = match head {
                "+" => Some(BinOp::Add),
                "-" => Some(BinOp::Sub),
                "*" => Some(BinOp::Mul),
                "/" => Some(BinOp::Div),
                "=" => Some(BinOp::Eq),
                "<>" | "!=" => Some(BinOp::Ne),
                "<" => Some(BinOp::Lt),
                "<=" => Some(BinOp::Le),
                ">" => Some(BinOp::Gt),
                ">=" => Some(BinOp::Ge),
                _ => None,
            };
            if let Some(op) = binop {
                expect_len(items, 3, "binary operator takes two operands")?;
                return Ok(Expr::Binary {
                    op,
                    left: Box::new(expr_from_sexp(&items[1])?),
                    right: Box::new(expr_from_sexp(&items[2])?),
                });
            }
            match head.to_ascii_lowercase().as_str() {
                "and" | "or" => {
                    if items.len() < 3 {
                        return Err(TvError::Parse(format!("{head} needs ≥2 operands")));
                    }
                    let op = if head.eq_ignore_ascii_case("and") {
                        BinOp::And
                    } else {
                        BinOp::Or
                    };
                    let mut operands = items[1..]
                        .iter()
                        .map(expr_from_sexp)
                        .collect::<Result<Vec<_>>>()?;
                    if op == BinOp::And {
                        Ok(and_all(operands))
                    } else {
                        let first = operands.remove(0);
                        Ok(operands.into_iter().fold(first, |acc, e| Expr::Binary {
                            op: BinOp::Or,
                            left: Box::new(acc),
                            right: Box::new(e),
                        }))
                    }
                }
                "not" => {
                    expect_len(items, 2, "(not EXPR)")?;
                    Ok(Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(expr_from_sexp(&items[1])?),
                    })
                }
                "neg" => {
                    expect_len(items, 2, "(neg EXPR)")?;
                    Ok(Expr::Unary {
                        op: UnaryOp::Neg,
                        expr: Box::new(expr_from_sexp(&items[1])?),
                    })
                }
                "isnull" => {
                    expect_len(items, 2, "(isnull EXPR)")?;
                    Ok(Expr::Unary {
                        op: UnaryOp::IsNull,
                        expr: Box::new(expr_from_sexp(&items[1])?),
                    })
                }
                "notnull" => {
                    expect_len(items, 2, "(notnull EXPR)")?;
                    Ok(Expr::Unary {
                        op: UnaryOp::IsNotNull,
                        expr: Box::new(expr_from_sexp(&items[1])?),
                    })
                }
                "in" | "notin" => {
                    if items.len() < 3 {
                        return Err(TvError::Parse("(in EXPR lit+)".into()));
                    }
                    let list = items[2..]
                        .iter()
                        .map(literal_from_sexp)
                        .collect::<Result<Vec<_>>>()?;
                    Ok(Expr::In {
                        expr: Box::new(expr_from_sexp(&items[1])?),
                        list,
                        negated: head.eq_ignore_ascii_case("notin"),
                    })
                }
                "between" => {
                    expect_len(items, 4, "(between EXPR lo hi)")?;
                    Ok(Expr::Between {
                        expr: Box::new(expr_from_sexp(&items[1])?),
                        low: literal_from_sexp(&items[2])?,
                        high: literal_from_sexp(&items[3])?,
                    })
                }
                fname => {
                    let func = ScalarFunc::from_name(fname).ok_or_else(|| {
                        TvError::Parse(format!("unknown function or operator '{fname}'"))
                    })?;
                    let args = items[1..]
                        .iter()
                        .map(expr_from_sexp)
                        .collect::<Result<Vec<_>>>()?;
                    if args.len() != func.arity() {
                        return Err(TvError::Parse(format!(
                            "{} expects {} argument(s)",
                            func.name(),
                            func.arity()
                        )));
                    }
                    Ok(Expr::Func { func, args })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{bin, col, lit};

    #[test]
    fn parses_the_doc_example() {
        let plan = parse_plan(
            "(topn 5 ((flights desc))
               (aggregate ((carrier))
                          ((count as flights) (avg delay as avg_delay))
                 (select (> delay 10)
                   (scan flights))))",
        )
        .unwrap();
        let text = plan.canonical_text();
        assert!(text.contains("TopN 5 by flights DESC"));
        assert!(text.contains(
            "Aggregate [[carrier] AS carrier] [COUNT(*) AS flights, AVG([delay]) AS avg_delay]"
        ));
    }

    #[test]
    fn parses_expressions() {
        assert_eq!(
            parse_expr("(> delay 10)").unwrap(),
            bin(BinOp::Gt, col("delay"), lit(10i64))
        );
        let e = parse_expr("(and (> delay 10) (= carrier \"AA\") (< dist 3.5))").unwrap();
        assert_eq!(e.columns().len(), 3);
        let inl = parse_expr("(in carrier \"AA\" \"DL\")").unwrap();
        assert!(matches!(inl, Expr::In { negated: false, .. }));
        let b = parse_expr("(between day date@100 date@200)").unwrap();
        assert!(matches!(b, Expr::Between { .. }));
    }

    #[test]
    fn parses_join_and_project() {
        let p = parse_plan(
            "(project ((carrier) ((strlen name) as name_len))
               (join inner ((carrier code))
                 (scan flights)
                 (scan carriers)))",
        )
        .unwrap();
        let text = p.canonical_text();
        assert!(text.contains("InnerJoin on carrier=code"));
        assert!(text.contains("STRLEN([name]) AS name_len"));
    }

    #[test]
    fn parses_distinct_order_scan_projection() {
        let p = parse_plan(
            "(distinct (order ((carrier asc) (delay desc)) (scan flights carrier delay)))",
        )
        .unwrap();
        let text = p.canonical_text();
        assert!(text.contains("Distinct"));
        assert!(text.contains("Order carrier ASC, delay DESC"));
        assert!(text.contains("TableScan flights [carrier, delay]"));
    }

    #[test]
    fn literals() {
        assert_eq!(parse_expr("true").unwrap(), lit(true));
        assert_eq!(parse_expr("null").unwrap(), Expr::Literal(Value::Null));
        assert_eq!(parse_expr("3.25").unwrap(), lit(3.25));
        assert_eq!(parse_expr("-7").unwrap(), lit(-7i64));
        assert_eq!(
            parse_expr("date@42").unwrap(),
            Expr::Literal(Value::Date(42))
        );
        assert_eq!(
            parse_expr("\"O'Hare \\\"ORD\\\"\"").unwrap(),
            Expr::Literal(Value::Str("O'Hare \"ORD\"".into()))
        );
    }

    #[test]
    fn comments_ignored() {
        let p = parse_plan("; top carriers\n(scan flights) ; trailing").unwrap();
        assert_eq!(p, LogicalPlan::scan("flights"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_plan("(scan)").is_err());
        assert!(parse_plan("(select (> a 1))").is_err()); // missing input
        assert!(parse_plan("(frobnicate (scan t))").is_err());
        assert!(parse_plan("(scan t) extra").is_err());
        assert!(parse_plan("(select (> a 1) (scan t)").is_err()); // unclosed
        assert!(parse_expr("(upper a b)").is_err()); // arity
        assert!(parse_expr("(in carrier (scan t))").is_err()); // non-literal in list
    }

    #[test]
    fn count_star_vs_count_col() {
        let p = parse_plan("(aggregate () ((count as n) (count delay as nd)) (scan t))").unwrap();
        if let LogicalPlan::Aggregate { aggs, .. } = &p {
            assert_eq!(aggs[0].arg, None);
            assert_eq!(aggs[1].arg, Some(col("delay")));
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // Hostile depth is a parse error, not a stack overflow.
        let deep = "(".repeat(100_000);
        for err in [
            parse_plan(&deep).unwrap_err(),
            parse_expr(&deep).unwrap_err(),
        ] {
            assert!(matches!(err, TvError::Parse(_)), "{err:?}");
        }
        // Nesting at the limit still parses.
        let nots = |n: usize| format!("{}a{}", "(not ".repeat(n), ")".repeat(n));
        assert!(parse_expr(&nots(MAX_NESTING)).is_ok());
        assert!(parse_expr(&nots(MAX_NESTING + 1)).is_err());
    }
}
