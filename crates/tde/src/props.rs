//! Derived plan properties.
//!
//! Sect. 4.1.2: "The TDE optimizer ... derives properties, such as column
//! dependencies, equivalence sets, uniqueness, sorting properties and
//! utilizes them to perform a series of optimizations." This module derives
//! the one property the rest of the engine consumes: **unique columns**,
//! which license join culling (Sect. 4.1.2). No planner rule reads a sort
//! order: aggregation is hash-only, and range-partitioned aggregation
//! (Sect. 4.2.3) reads the stored table's sort key directly.

use std::collections::BTreeSet;
use tabviz_common::Result;
use tabviz_tql::expr::Expr;
use tabviz_tql::{Catalog, LogicalPlan};

/// Columns of the plan's output known to hold unique values.
pub fn unique_columns(plan: &LogicalPlan, catalog: &dyn Catalog) -> Result<BTreeSet<String>> {
    Ok(match plan {
        LogicalPlan::TableScan { table, projection } => {
            let meta = catalog.table_meta(table)?;
            match projection {
                None => meta.unique_columns,
                Some(proj) => meta
                    .unique_columns
                    .into_iter()
                    .filter(|u| proj.iter().any(|p| p == u))
                    .collect(),
            }
        }
        // Removing rows preserves uniqueness.
        LogicalPlan::Select { input, .. }
        | LogicalPlan::TopN { input, .. }
        | LogicalPlan::Order { input, .. }
        | LogicalPlan::Distinct { input } => unique_columns(input, catalog)?,
        LogicalPlan::Project { input, exprs } => {
            let inner = unique_columns(input, catalog)?;
            exprs
                .iter()
                .filter_map(|(e, name)| match e {
                    Expr::Column(c) if inner.contains(c) => Some(name.clone()),
                    _ => None,
                })
                .collect()
        }
        // An n:1 join (unique build key) preserves probe-side uniqueness.
        LogicalPlan::Join {
            left, right, on, ..
        } => {
            let right_unique = unique_columns(right, catalog)?;
            let n_to_1 = on.iter().all(|(_, r)| right_unique.contains(r));
            if n_to_1 {
                unique_columns(left, catalog)?
            } else {
                BTreeSet::new()
            }
        }
        // Grouping makes the single group column unique.
        LogicalPlan::Aggregate { group_by, .. } => {
            if group_by.len() == 1 {
                std::iter::once(group_by[0].1.clone()).collect()
            } else {
                BTreeSet::new()
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema};
    use tabviz_tql::catalog::{MemoryCatalog, TableMeta};
    use tabviz_tql::expr::col;

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("day", DataType::Date),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        cat.add("flights", TableMeta::new(schema, 1_000));

        let dim = Arc::new(
            Schema::new(vec![
                Field::new("code", DataType::Str),
                Field::new("name", DataType::Str),
            ])
            .unwrap(),
        );
        let mut dmeta = TableMeta::new(dim, 20);
        dmeta.unique_columns = std::iter::once("code".to_string()).collect();
        cat.add("carriers", dmeta);
        cat
    }

    #[test]
    fn uniqueness_through_join() {
        let cat = catalog();
        let agg = LogicalPlan::scan("flights")
            .aggregate(vec![(col("carrier"), "carrier".into())], vec![]);
        assert!(unique_columns(&agg, &cat).unwrap().contains("carrier"));

        let j = agg.join(
            LogicalPlan::scan("carriers"),
            vec![("carrier".into(), "code".into())],
            tabviz_tql::JoinType::Inner,
        );
        // n:1 join on unique code keeps carrier unique
        assert!(unique_columns(&j, &cat).unwrap().contains("carrier"));
    }

    #[test]
    fn non_unique_join_clears() {
        let cat = catalog();
        let j = LogicalPlan::scan("carriers").join(
            LogicalPlan::scan("flights"),
            vec![("code".into(), "carrier".into())],
            tabviz_tql::JoinType::Inner,
        );
        assert!(unique_columns(&j, &cat).unwrap().is_empty());
    }
}
