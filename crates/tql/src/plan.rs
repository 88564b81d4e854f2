//! The TQL logical operator tree.
//!
//! "It supports logical operators present in most databases, such as
//! TableScan, Select, Project, Join, Aggregate, Order, and TopN"
//! (Sect. 4.1.2). `Distinct` exists only as parser sugar — the compiler
//! rewrites it to a grouping aggregate ("expressing SELECT DISTINCT as a
//! GROUP BY query").

use crate::agg::AggCall;
use crate::catalog::Catalog;
use crate::expr::Expr;
use std::fmt;
use std::sync::Arc;
use tabviz_common::{Collation, Field, Result, Schema, SchemaRef, TvError};

/// Join variants. Tableau's joins are "usually between the fact table and
/// multiple dimension tables" (Sect. 4.2.2); inner and left-outer cover the
/// star/snowflake shapes the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    Left,
}

/// One ORDER BY / TopN key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKey {
    pub column: String,
    pub asc: bool,
}

impl SortKey {
    pub fn asc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            asc: true,
        }
    }

    pub fn desc(column: impl Into<String>) -> Self {
        SortKey {
            column: column.into(),
            asc: false,
        }
    }
}

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// Leaf scan of a stored table, optionally pre-projected.
    TableScan {
        table: String,
        projection: Option<Vec<String>>,
    },
    /// Row filter.
    Select {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// Computed projection: `(expr AS name)*`.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<(Expr, String)>,
    },
    /// Equi-join on column-name pairs.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: Vec<(String, String)>,
        join_type: JoinType,
    },
    /// Grouping aggregate: `(group expr AS name)*` + aggregate calls.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggCall>,
    },
    /// Total order.
    Order {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// Top-N by sort keys.
    TopN {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
        n: usize,
    },
    /// Parser-level sugar, compiled away into `Aggregate`.
    Distinct { input: Box<LogicalPlan> },
}

impl LogicalPlan {
    /// Derive the output schema against a catalog.
    pub fn schema(&self, catalog: &dyn Catalog) -> Result<SchemaRef> {
        match self {
            LogicalPlan::TableScan { table, projection } => {
                let meta = catalog.table_meta(table)?;
                match projection {
                    None => Ok(meta.schema),
                    Some(cols) => {
                        let idx: Vec<usize> = cols
                            .iter()
                            .map(|c| meta.schema.index_of(c))
                            .collect::<Result<_>>()?;
                        Ok(Arc::new(meta.schema.project(&idx)))
                    }
                }
            }
            LogicalPlan::Select { input, predicate } => {
                let schema = input.schema(catalog)?;
                // Validate column references eagerly (binder behavior).
                for c in predicate.columns() {
                    schema.index_of(&c)?;
                }
                Ok(schema)
            }
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    let dtype = e.data_type(&in_schema)?;
                    let collation = match e {
                        Expr::Column(c) => in_schema.field_by_name(c)?.collation,
                        _ => Collation::Binary,
                    };
                    fields.push(Field::new(name.clone(), dtype).with_collation(collation));
                }
                Ok(Arc::new(Schema::new(fields)?))
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type: _,
            } => {
                let ls = left.schema(catalog)?;
                let rs = right.schema(catalog)?;
                for (l, r) in on {
                    ls.index_of(l)?;
                    rs.index_of(r)?;
                }
                Ok(Arc::new(ls.join(&rs)))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for (e, name) in group_by {
                    let dtype = e.data_type(&in_schema)?;
                    let collation = match e {
                        Expr::Column(c) => in_schema.field_by_name(c)?.collation,
                        _ => Collation::Binary,
                    };
                    fields.push(Field::new(name.clone(), dtype).with_collation(collation));
                }
                for a in aggs {
                    fields.push(Field::new(a.alias.clone(), a.output_type(&in_schema)?));
                }
                Ok(Arc::new(Schema::new(fields)?))
            }
            LogicalPlan::Order { input, keys } | LogicalPlan::TopN { input, keys, .. } => {
                let schema = input.schema(catalog)?;
                for k in keys {
                    schema.index_of(&k.column)?;
                }
                Ok(schema)
            }
            LogicalPlan::Distinct { input } => input.schema(catalog),
        }
    }

    /// Immediate children, for generic traversal.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Order { input, .. }
            | LogicalPlan::TopN { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Names of all tables scanned anywhere in the plan.
    pub fn tables(&self) -> Vec<String> {
        let mut out = vec![];
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        if let LogicalPlan::TableScan { table, .. } = self {
            out.push(table.clone());
        }
        for c in self.children() {
            c.collect_tables(out);
        }
    }

    /// A canonical, whitespace-stable text rendering. Used as the *literal*
    /// cache key (Sect. 3.2: "keyed on the query text") and in explain
    /// output.
    pub fn canonical_text(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, 0);
        s
    }

    fn render(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::TableScan { table, projection } => {
                let _ = write!(out, "{pad}TableScan {table}");
                if let Some(p) = projection {
                    let _ = write!(out, " [{}]", p.join(", "));
                }
                let _ = writeln!(out);
            }
            LogicalPlan::Select { input, predicate } => {
                let _ = writeln!(out, "{pad}Select {predicate}");
                input.render(out, depth + 1);
            }
            LogicalPlan::Project { input, exprs } => {
                let items: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                let _ = writeln!(out, "{pad}Project {}", items.join(", "));
                input.render(out, depth + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                let _ = writeln!(out, "{pad}{join_type:?}Join on {}", keys.join(" AND "));
                left.render(out, depth + 1);
                right.render(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let gb: Vec<String> = group_by
                    .iter()
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect();
                let ag: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{pad}Aggregate [{}] [{}]",
                    gb.join(", "),
                    ag.join(", ")
                );
                input.render(out, depth + 1);
            }
            LogicalPlan::Order { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.column, if k.asc { "ASC" } else { "DESC" }))
                    .collect();
                let _ = writeln!(out, "{pad}Order {}", ks.join(", "));
                input.render(out, depth + 1);
            }
            LogicalPlan::TopN { input, keys, n } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.column, if k.asc { "ASC" } else { "DESC" }))
                    .collect();
                let _ = writeln!(out, "{pad}TopN {n} by {}", ks.join(", "));
                input.render(out, depth + 1);
            }
            LogicalPlan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.render(out, depth + 1);
            }
        }
    }

    /// Convenience builders for fluent plan construction.
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: table.into(),
            projection: None,
        }
    }

    pub fn select(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, exprs: Vec<(Expr, String)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    pub fn aggregate(self, group_by: Vec<(Expr, String)>, aggs: Vec<AggCall>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    pub fn order(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::Order {
            input: Box::new(self),
            keys,
        }
    }

    pub fn topn(self, n: usize, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::TopN {
            input: Box::new(self),
            keys,
            n,
        }
    }

    pub fn join(
        self,
        right: LogicalPlan,
        on: Vec<(String, String)>,
        join_type: JoinType,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
            join_type,
        }
    }

    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_text())
    }
}

/// Validate that a plan binds correctly against a catalog; returns the output
/// schema (the binder / semantic-analysis step of the "classic query
/// compiler", Sect. 4.1.2).
pub fn bind(plan: &LogicalPlan, catalog: &dyn Catalog) -> Result<SchemaRef> {
    plan.schema(catalog).map_err(|e| match e {
        TvError::Schema(m) => TvError::Bind(m),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggCall, AggFunc};
    use crate::catalog::{MemoryCatalog, TableMeta};
    use crate::expr::{bin, col, lit, BinOp};
    use tabviz_common::DataType;

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
                Field::new("origin", DataType::Str),
            ])
            .unwrap(),
        );
        cat.add("flights", TableMeta::new(schema, 1000));
        let dim = Arc::new(
            Schema::new(vec![
                Field::new("code", DataType::Str),
                Field::new("name", DataType::Str),
            ])
            .unwrap(),
        );
        cat.add("carriers", TableMeta::new(dim, 20));
        cat
    }

    fn sample_plan() -> LogicalPlan {
        LogicalPlan::scan("flights")
            .select(bin(BinOp::Gt, col("delay"), lit(10i64)))
            .aggregate(
                vec![(col("carrier"), "carrier".into())],
                vec![
                    AggCall::new(AggFunc::Count, None, "flights"),
                    AggCall::new(AggFunc::Avg, Some(col("delay")), "avg_delay"),
                ],
            )
            .topn(5, vec![SortKey::desc("flights")])
    }

    #[test]
    fn schema_derivation() {
        let cat = catalog();
        let schema = sample_plan().schema(&cat).unwrap();
        assert_eq!(schema.names(), vec!["carrier", "flights", "avg_delay"]);
        assert_eq!(
            schema.field_by_name("flights").unwrap().dtype,
            DataType::Int
        );
        assert_eq!(
            schema.field_by_name("avg_delay").unwrap().dtype,
            DataType::Real
        );
    }

    #[test]
    fn binder_rejects_unknown_columns() {
        let cat = catalog();
        let bad = LogicalPlan::scan("flights").select(bin(BinOp::Eq, col("nope"), lit(1i64)));
        assert!(bind(&bad, &cat).is_err());
        let bad_table = LogicalPlan::scan("missing");
        assert!(bind(&bad_table, &cat).is_err());
        let bad_key = LogicalPlan::scan("flights").order(vec![SortKey::asc("nope")]);
        assert!(bind(&bad_key, &cat).is_err());
    }

    #[test]
    fn join_schema_concats() {
        let cat = catalog();
        let j = LogicalPlan::scan("flights").join(
            LogicalPlan::scan("carriers"),
            vec![("carrier".into(), "code".into())],
            JoinType::Inner,
        );
        let s = j.schema(&cat).unwrap();
        assert_eq!(
            s.names(),
            vec!["carrier", "delay", "origin", "code", "name"]
        );
    }

    #[test]
    fn projection_scan_schema() {
        let cat = catalog();
        let p = LogicalPlan::TableScan {
            table: "flights".into(),
            projection: Some(vec!["delay".into()]),
        };
        assert_eq!(p.schema(&cat).unwrap().names(), vec!["delay"]);
    }

    #[test]
    fn canonical_text_is_stable() {
        let a = sample_plan().canonical_text();
        let b = sample_plan().canonical_text();
        assert_eq!(a, b);
        assert!(a.contains("TopN 5 by flights DESC"));
        assert!(a.contains("Select ([delay] > 10)"));
        assert!(a.contains("TableScan flights"));
    }

    #[test]
    fn tables_collects_all_scans() {
        let j = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![], JoinType::Inner);
        assert_eq!(j.tables(), vec!["a", "b"]);
    }

    #[test]
    fn distinct_passes_schema_through() {
        let cat = catalog();
        let d = LogicalPlan::scan("flights").distinct();
        assert_eq!(d.schema(&cat).unwrap().len(), 3);
    }
}
