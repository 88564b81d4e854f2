//! The normalized internal query form.
//!
//! Sect. 3.1: internal queries "express aggregate-select-project scenarios"
//! against a view that is "a single table \[or\] multi-table joins". A
//! [`QuerySpec`] is that shape, normalized: a relation (scans/joins only), a
//! conjunctive filter set, plain-column grouping, aggregate calls, and an
//! optional ordering/top-n. The intelligent cache matches over this
//! structure; the query processor compiles it to backend dialects.

use tabviz_common::{Result, TvError};
use tabviz_tql::expr::{and_all, Expr};
use tabviz_tql::{write_expr, write_plan, AggCall, LogicalPlan, SortKey};

/// A normalized aggregate-select-project query against one data source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// Data-source identity (cache entries never cross sources).
    pub source: String,
    /// The FROM part: `TableScan`s and `Join`s only.
    pub relation: LogicalPlan,
    /// Conjunctive predicates over detail rows.
    pub filters: Vec<Expr>,
    /// Grouping columns (plain column names — Tableau dimensions).
    pub group_by: Vec<String>,
    /// Aggregate calls (Tableau measures).
    pub aggs: Vec<AggCall>,
    pub order: Vec<SortKey>,
    pub topn: Option<usize>,
}

impl QuerySpec {
    pub fn new(source: impl Into<String>, relation: LogicalPlan) -> Self {
        QuerySpec {
            source: source.into(),
            relation,
            filters: vec![],
            group_by: vec![],
            aggs: vec![],
            order: vec![],
            topn: None,
        }
    }

    pub fn filter(mut self, e: Expr) -> Self {
        self.filters.push(e);
        self
    }

    pub fn group(mut self, col: impl Into<String>) -> Self {
        self.group_by.push(col.into());
        self
    }

    pub fn agg(mut self, call: AggCall) -> Self {
        self.aggs.push(call);
        self
    }

    pub fn order_by(mut self, keys: Vec<SortKey>) -> Self {
        self.order = keys;
        self
    }

    pub fn top(mut self, n: usize) -> Self {
        self.topn = Some(n);
        self
    }

    /// Output column names: group columns then aggregate aliases.
    pub fn output_columns(&self) -> Vec<String> {
        self.group_by
            .iter()
            .cloned()
            .chain(self.aggs.iter().map(|a| a.alias.clone()))
            .collect()
    }

    /// Sort filters into a canonical order and drop duplicates. Two specs
    /// that differ only in conjunct order normalize identically.
    pub fn normalize(&mut self) {
        self.filters.sort_by_key(write_expr);
        self.filters.dedup();
    }

    /// The executable logical plan.
    pub fn to_plan(&self) -> Result<LogicalPlan> {
        if self.group_by.is_empty() && self.aggs.is_empty() {
            return Err(TvError::Plan(
                "query spec needs grouping or aggregates".into(),
            ));
        }
        let mut plan = self.relation.clone();
        if !self.filters.is_empty() {
            plan = plan.select(and_all(self.filters.clone()));
        }
        let group_by = self
            .group_by
            .iter()
            .map(|g| (Expr::Column(g.clone()), g.clone()))
            .collect();
        plan = plan.aggregate(group_by, self.aggs.clone());
        if !self.order.is_empty() {
            plan = plan.order(self.order.clone());
        }
        if let Some(n) = self.topn {
            // TopN subsumes the explicit order when both are present.
            plan = match plan {
                LogicalPlan::Order { input, keys } => input.topn(n, keys),
                other => other.topn(n, self.order.clone()),
            };
        }
        Ok(plan)
    }

    /// Decompose a plan of the supported shape back into a spec. Returns
    /// `None` for shapes outside the aggregate-select-project pattern.
    pub fn from_plan(source: &str, plan: &LogicalPlan) -> Option<QuerySpec> {
        let mut topn = None;
        let mut order = vec![];
        let mut node = plan;
        if let LogicalPlan::TopN { input, keys, n } = node {
            topn = Some(*n);
            order = keys.clone();
            node = input;
        }
        if let LogicalPlan::Order { input, keys } = node {
            order = keys.clone();
            node = input;
        }
        let LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } = node
        else {
            return None;
        };
        let mut group_cols = Vec::with_capacity(group_by.len());
        for (e, name) in group_by {
            match e {
                Expr::Column(c) if c == name => group_cols.push(c.clone()),
                _ => return None,
            }
        }
        let mut filters = vec![];
        let mut rel = input.as_ref();
        while let LogicalPlan::Select { input, predicate } = rel {
            filters.extend(crate::split_and(predicate));
            rel = input;
        }
        if !relation_only(rel) {
            return None;
        }
        let mut spec = QuerySpec {
            source: source.to_string(),
            relation: rel.clone(),
            filters,
            group_by: group_cols,
            aggs: aggs.clone(),
            order,
            topn,
        };
        spec.normalize();
        Some(spec)
    }

    /// Bucket key: entries can only subsume each other within the same
    /// source + relation (the index the paper plans "to maintain over the
    /// cache to minimize the lookup time").
    pub fn bucket_key(&self) -> String {
        format!("{}\u{1}{}", self.source, write_plan(&self.relation))
    }

    /// Full canonical text: equal iff the specs are structurally identical
    /// (after normalization). This keys exact-match lookups, the distributed
    /// cache, and persistence.
    pub fn canonical_text(&self) -> String {
        let mut spec = self.clone();
        spec.normalize();
        let plan = spec.to_plan().map(|p| write_plan(&p)).unwrap_or_default();
        format!("{}\u{1}{}", spec.source, plan)
    }
}

/// True when the subtree is only scans and joins.
fn relation_only(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::TableScan { .. } => true,
        LogicalPlan::Join { left, right, .. } => relation_only(left) && relation_only(right),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_tql::expr::{bin, col, lit, BinOp};
    use tabviz_tql::{AggFunc, JoinType};

    fn spec() -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .filter(bin(BinOp::Gt, col("delay"), lit(10i64)))
            .filter(Expr::In {
                expr: Box::new(col("carrier")),
                list: vec!["AA".into(), "DL".into()],
                negated: false,
            })
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
            .order_by(vec![SortKey::desc("n")])
            .top(5)
    }

    #[test]
    fn to_plan_shape() {
        let plan = spec().to_plan().unwrap();
        let text = plan.canonical_text();
        assert!(text.contains("TopN 5 by n DESC"));
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Select"));
        assert!(text.contains("TableScan flights"));
    }

    #[test]
    fn plan_spec_roundtrip() {
        let s = spec();
        let plan = s.to_plan().unwrap();
        let back = QuerySpec::from_plan("faa", &plan).unwrap();
        assert_eq!(back.group_by, s.group_by);
        assert_eq!(back.aggs, s.aggs);
        assert_eq!(back.topn, s.topn);
        assert_eq!(back.filters.len(), 2);
        assert_eq!(back.canonical_text(), s.canonical_text());
    }

    #[test]
    fn filter_order_normalizes_away() {
        let a = QuerySpec::new("s", LogicalPlan::scan("t"))
            .filter(bin(BinOp::Gt, col("x"), lit(1i64)))
            .filter(bin(BinOp::Lt, col("y"), lit(9i64)))
            .group("g");
        let b = QuerySpec::new("s", LogicalPlan::scan("t"))
            .filter(bin(BinOp::Lt, col("y"), lit(9i64)))
            .filter(bin(BinOp::Gt, col("x"), lit(1i64)))
            .group("g");
        assert_eq!(a.canonical_text(), b.canonical_text());
    }

    #[test]
    fn different_sources_never_share_buckets() {
        let a = QuerySpec::new("s1", LogicalPlan::scan("t")).group("g");
        let b = QuerySpec::new("s2", LogicalPlan::scan("t")).group("g");
        assert_ne!(a.bucket_key(), b.bucket_key());
    }

    #[test]
    fn join_relations_supported() {
        let rel = LogicalPlan::scan("flights").join(
            LogicalPlan::scan("carriers"),
            vec![("carrier".into(), "code".into())],
            JoinType::Inner,
        );
        let s =
            QuerySpec::new("faa", rel)
                .group("name")
                .agg(AggCall::new(AggFunc::Count, None, "n"));
        let plan = s.to_plan().unwrap();
        let back = QuerySpec::from_plan("faa", &plan).unwrap();
        assert_eq!(back.bucket_key(), s.bucket_key());
    }

    #[test]
    fn from_plan_rejects_unsupported_shapes() {
        // Projection between select and aggregate: not the ASP pattern.
        let plan = LogicalPlan::scan("t")
            .project(vec![(col("a"), "a".into())])
            .aggregate(vec![(col("a"), "a".into())], vec![]);
        assert!(QuerySpec::from_plan("s", &plan).is_none());
        // Computed group expression.
        let plan2 = LogicalPlan::scan("t").aggregate(
            vec![(bin(BinOp::Add, col("a"), lit(1i64)), "a1".into())],
            vec![],
        );
        assert!(QuerySpec::from_plan("s", &plan2).is_none());
    }

    #[test]
    fn empty_spec_rejected() {
        let s = QuerySpec::new("s", LogicalPlan::scan("t"));
        assert!(s.to_plan().is_err());
    }

    #[test]
    fn output_columns_order() {
        assert_eq!(spec().output_columns(), vec!["carrier", "n"]);
    }
}
