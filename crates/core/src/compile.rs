//! Single-query compilation (Sect. 3.1).
//!
//! "Before a query can be sent to a relevant backend, it undergoes a
//! compilation process consisting of structural simplification and
//! implementation. ... Numerous optimizations are applied to the tree,
//! including join culling, predicate simplification and externalization of
//! large enumerations with temporary secondary structures. The query
//! compiler incorporates information about ... overall capabilities of the
//! data source. ... As a result, some operations may need to be locally
//! applied in the post-processing stage."

use tabviz_backend::{sql::to_sql, Capabilities, RemoteQuery};
use tabviz_cache::QuerySpec;
use tabviz_common::{Chunk, ColumnVec, Field, Result, Schema, Value};
use tabviz_tde::compile::simplify_expr;
use tabviz_tql::expr::Expr;
use tabviz_tql::{JoinType, LogicalPlan, SortKey};

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Compiler knobs.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// IN-lists at or above this many constants are externalized into a
    /// remote temp table when the backend supports it.
    pub externalize_threshold: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            externalize_threshold: 32,
        }
    }
}

/// Post-processing the client must run on the returned rows because the
/// backend could not ("some operations may need to be locally applied").
#[derive(Debug, Clone, Default)]
pub struct LocalPost {
    pub topn: Option<(usize, Vec<SortKey>)>,
}

/// A query ready for a backend.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub remote: RemoteQuery,
    /// Temp tables the session must hold before `remote` can run:
    /// `(name, single-column rows)`.
    pub temp_tables: Vec<(String, Chunk)>,
    pub local_post: LocalPost,
}

impl CompiledQuery {
    /// The literal cache's key for this query. A cached entry holds rows
    /// *after* local post-processing, and a backend without TopN receives
    /// the same text for "top 3" and "top 10", so the local TopN is part of
    /// what the entry holds and of its key.
    pub fn literal_key(&self) -> Cow<'_, str> {
        match &self.local_post.topn {
            None => Cow::Borrowed(&self.remote.text),
            Some((n, _)) => Cow::Owned(format!("{}\u{1}local top {n}", self.remote.text)),
        }
    }
}

/// Compile a spec for a backend with the given capabilities.
pub fn compile_spec(
    spec: &QuerySpec,
    caps: &Capabilities,
    options: &CompileOptions,
) -> Result<CompiledQuery> {
    let mut spec = spec.clone();
    spec.normalize();
    // Predicate simplification (constant folding, IN dedup, etc.).
    spec.filters = spec
        .filters
        .into_iter()
        .map(simplify_expr)
        .filter(|f| *f != Expr::Literal(Value::Bool(true)))
        .collect();

    // Externalize large enumerations into temporary tables (Sect. 3.1's
    // "externalization of large enumerations with temporary secondary
    // structures"; also the Data Server mechanism of Sect. 5.3).
    let mut temp_tables = Vec::new();
    if caps.supports_temp_tables {
        let mut kept = Vec::with_capacity(spec.filters.len());
        for f in std::mem::take(&mut spec.filters) {
            match &f {
                Expr::In {
                    expr,
                    list,
                    negated: false,
                } if list.len() >= options.externalize_threshold => {
                    if let Expr::Column(col_name) = expr.as_ref() {
                        let name = temp_table_name(col_name, list);
                        let chunk = values_chunk(list)?;
                        // Rewrite: semi-join against the distinct-value temp
                        // table replaces the long IN-list.
                        spec.relation = spec.relation.clone().join(
                            LogicalPlan::TableScan {
                                table: name.clone(),
                                projection: None,
                            },
                            vec![(col_name.clone(), "v".into())],
                            JoinType::Inner,
                        );
                        temp_tables.push((name, chunk));
                        continue;
                    }
                    kept.push(f);
                }
                _ => kept.push(f),
            }
        }
        spec.filters = kept;
    }

    let mut plan = spec.to_plan()?;
    // TopN not supported remotely → strip it and post-process locally.
    let mut local_post = LocalPost::default();
    if !caps.supports_topn {
        if let LogicalPlan::TopN { input, keys, n } = plan {
            local_post.topn = Some((n, keys.clone()));
            plan = LogicalPlan::Order { input, keys };
        }
    }

    let text = to_sql(&plan, caps.dialect);
    Ok(CompiledQuery {
        remote: RemoteQuery::new(text, plan),
        temp_tables,
        local_post,
    })
}

/// Deterministic temp-table name from the filtered column and value set, so
/// identical filters map to the same session structure and get reused
/// ("temporary tables created for large filters ... are likely to be useful
/// while formulating queries within the same query batch", Sect. 3.5).
pub fn temp_table_name(column: &str, values: &[Value]) -> String {
    let mut h = DefaultHasher::new();
    column.hash(&mut h);
    let mut sorted: Vec<&Value> = values.iter().collect();
    sorted.sort();
    sorted.dedup();
    for v in sorted {
        v.hash(&mut h);
    }
    format!("tt_{:016x}", h.finish())
}

/// Single-column chunk (`v`) holding the distinct values of an IN-list.
fn values_chunk(values: &[Value]) -> Result<Chunk> {
    let mut sorted: Vec<Value> = values.to_vec();
    sorted.sort();
    sorted.dedup();
    let dtype = sorted
        .iter()
        .find_map(|v| v.data_type())
        .unwrap_or(tabviz_common::DataType::Str);
    let schema = Arc::new(Schema::new_unchecked(vec![Field::new("v", dtype)]));
    let column = ColumnVec::from_iter_typed(dtype, &sorted)?;
    Chunk::new(schema, vec![column])
}

/// Apply any local post-processing the compilation deferred.
pub fn apply_local_post(chunk: Chunk, post: &LocalPost) -> Chunk {
    match &post.topn {
        None => chunk,
        Some((n, keys)) => {
            let schema = chunk.schema();
            let idx: Vec<(usize, bool)> = keys
                .iter()
                .filter_map(|k| schema.index_of(&k.column).ok().map(|i| (i, k.asc)))
                .collect();
            let sorted = chunk.sort_by(&idx);
            let keep = (*n).min(sorted.len());
            sorted.slice(0, keep)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_backend::Dialect;
    use tabviz_tql::expr::{bin, col, lit, BinOp};
    use tabviz_tql::{AggCall, AggFunc};

    fn base_spec() -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(10i64)))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    }

    #[test]
    fn small_in_lists_stay_inline() {
        let spec = base_spec().filter(Expr::In {
            expr: Box::new(col("carrier")),
            list: vec!["AA".into(), "DL".into()],
            negated: false,
        });
        let out =
            compile_spec(&spec, &Capabilities::default(), &CompileOptions::default()).unwrap();
        assert!(out.temp_tables.is_empty());
        assert!(
            out.remote.text.contains("IN ('AA', 'DL')"),
            "{}",
            out.remote.text
        );
    }

    #[test]
    fn large_in_lists_externalize() {
        let values: Vec<Value> = (0..100).map(|i| Value::Str(format!("M{i}"))).collect();
        let spec = base_spec().filter(Expr::In {
            expr: Box::new(col("market")),
            list: values.clone(),
            negated: false,
        });
        let out =
            compile_spec(&spec, &Capabilities::default(), &CompileOptions::default()).unwrap();
        assert_eq!(out.temp_tables.len(), 1);
        assert_eq!(out.temp_tables[0].1.len(), 100);
        assert!(out.remote.text.contains("JOIN"), "{}", out.remote.text);
        assert!(!out.remote.text.contains("M37"), "values must not inline");
        // The externalized text is drastically shorter.
        let inline = compile_spec(
            &spec,
            &Capabilities {
                supports_temp_tables: false,
                ..Default::default()
            },
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(out.remote.upload_bytes() < inline.remote.upload_bytes() / 2);
    }

    #[test]
    fn temp_names_are_deterministic_and_order_insensitive() {
        let a = temp_table_name("m", &["x".into(), "y".into()]);
        let b = temp_table_name("m", &["y".into(), "x".into(), "x".into()]);
        assert_eq!(a, b);
        assert_ne!(a, temp_table_name("other", &["x".into(), "y".into()]));
    }

    #[test]
    fn topn_falls_back_to_local_post() {
        let spec = base_spec().order_by(vec![SortKey::desc("n")]).top(3);
        let caps = Capabilities {
            supports_topn: false,
            ..Default::default()
        };
        let out = compile_spec(&spec, &caps, &CompileOptions::default()).unwrap();
        assert!(out.local_post.topn.is_some());
        assert!(!out.remote.text.contains("LIMIT"), "{}", out.remote.text);

        // Post-processing applies the truncation.
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", tabviz_common::DataType::Str),
                Field::new("n", tabviz_common::DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Str(format!("C{i}")), Value::Int(i)])
            .collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let cut = apply_local_post(chunk, &out.local_post);
        assert_eq!(cut.len(), 3);
        assert_eq!(cut.row(0)[1], Value::Int(9));
    }

    #[test]
    fn predicate_simplification_applies() {
        let spec = base_spec().filter(bin(
            BinOp::Or,
            bin(BinOp::Eq, col("carrier"), lit("AA")),
            lit(true),
        ));
        let out =
            compile_spec(&spec, &Capabilities::default(), &CompileOptions::default()).unwrap();
        // The tautology vanished; only the delay filter remains.
        assert_eq!(out.remote.text.matches("WHERE").count(), 1);
        assert!(!out.remote.text.contains("TRUE OR"));
    }

    #[test]
    fn dialects_differ() {
        let spec = base_spec().order_by(vec![SortKey::desc("n")]).top(3);
        let ansi =
            compile_spec(&spec, &Capabilities::default(), &CompileOptions::default()).unwrap();
        let legacy = compile_spec(
            &spec,
            &Capabilities {
                dialect: Dialect::LegacySql,
                ..Default::default()
            },
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(ansi.remote.text.contains("LIMIT 3"));
        assert!(legacy.remote.text.contains("SELECT TOP 3"));
    }

    #[test]
    fn identical_specs_compile_to_identical_text() {
        let a = compile_spec(
            &base_spec(),
            &Capabilities::default(),
            &CompileOptions::default(),
        )
        .unwrap();
        let b = compile_spec(
            &base_spec(),
            &Capabilities::default(),
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(a.remote.text, b.remote.text);
    }
}
