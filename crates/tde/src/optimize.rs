//! The rule-based optimizer.
//!
//! Sect. 4.1.2: "The TDE optimizer is a rule-based optimizer ... filter and
//! project push-down/pull-up, removal of unnecessary joins, removal of
//! unnecessary orderings, common sub-expression elimination ... removal of
//! the fact table from a join is critical for performance of domain queries,
//! frequently sent by Tableau."
//!
//! Rules, in application order:
//! 1. **Filter push-down** — selections sink through projects, orders,
//!    aggregates (group-key conjuncts) and join sides.
//! 2. **Column pruning + join culling** — required columns flow top-down;
//!    table scans narrow to what is used, and a join side that contributes no
//!    required columns is removed when key uniqueness (and, for inner joins,
//!    assumed referential integrity) guarantees the join neither duplicates
//!    nor drops rows.
//! 3. **Redundant order removal** — `Order` nodes beneath order-destroying
//!    or re-ordering operators are dropped.

use std::collections::BTreeSet;
use tabviz_common::Result;
use tabviz_tql::expr::{and_all, Expr};
use tabviz_tql::{BinOp, Catalog, JoinType, LogicalPlan};

use crate::physical::{BuildSide, PhysPlan};
use crate::props::unique_columns;

/// Optimizer switches. Defaults mirror Tableau's behavior: join culling on,
/// with referential integrity assumed for extract star schemas.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Cull a join side that contributes no required columns. Inner-join
    /// sides are culled too, which assumes every probe key finds a match
    /// (Tableau's "assume referential integrity" data-source option).
    pub enable_join_culling: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            enable_join_culling: true,
        }
    }
}

/// Run the full rule pipeline.
pub fn optimize(
    plan: LogicalPlan,
    catalog: &dyn Catalog,
    config: &OptimizerConfig,
) -> Result<LogicalPlan> {
    let plan = push_down_filters(plan, catalog)?;
    let plan = prune_columns(plan, None, catalog, config)?;
    Ok(strip_redundant_orders(plan, false))
}

/// Split a conjunction into its conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Rule 1: sink selections as deep as possible.
fn push_down_filters(plan: LogicalPlan, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Select { input, predicate } => {
            let input = push_down_filters(*input, catalog)?;
            push_predicate(input, split_conjuncts(&predicate), catalog)
        }
        LogicalPlan::Project { input, exprs } => Ok(LogicalPlan::Project {
            input: Box::new(push_down_filters(*input, catalog)?),
            exprs,
        }),
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => Ok(LogicalPlan::Join {
            left: Box::new(push_down_filters(*left, catalog)?),
            right: Box::new(push_down_filters(*right, catalog)?),
            on,
            join_type,
        }),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => Ok(LogicalPlan::Aggregate {
            input: Box::new(push_down_filters(*input, catalog)?),
            group_by,
            aggs,
        }),
        LogicalPlan::Order { input, keys } => Ok(LogicalPlan::Order {
            input: Box::new(push_down_filters(*input, catalog)?),
            keys,
        }),
        LogicalPlan::TopN { input, keys, n } => Ok(LogicalPlan::TopN {
            input: Box::new(push_down_filters(*input, catalog)?),
            keys,
            n,
        }),
        LogicalPlan::Distinct { input } => Ok(LogicalPlan::Distinct {
            input: Box::new(push_down_filters(*input, catalog)?),
        }),
        leaf @ LogicalPlan::TableScan { .. } => Ok(leaf),
    }
}

/// Push a set of conjuncts into `input`, reassembling a `Select` above for
/// whatever cannot sink.
fn push_predicate(
    input: LogicalPlan,
    conjuncts: Vec<Expr>,
    catalog: &dyn Catalog,
) -> Result<LogicalPlan> {
    match input {
        // Merge adjacent selects, then continue through the lower one's input.
        LogicalPlan::Select {
            input: inner,
            predicate,
        } => {
            let mut all = conjuncts;
            all.extend(split_conjuncts(&predicate));
            push_predicate(*inner, all, catalog)
        }
        LogicalPlan::Project {
            input: inner,
            exprs,
        } => {
            // A conjunct sinks when every column it uses is a pass-through
            // column reference in the projection.
            let mut below = Vec::new();
            let mut above = Vec::new();
            'c: for c in conjuncts {
                let mut renames = std::collections::BTreeMap::new();
                for used in c.columns() {
                    match exprs.iter().find(|(_, n)| *n == used) {
                        Some((Expr::Column(src), _)) => {
                            renames.insert(used.clone(), src.clone());
                        }
                        _ => {
                            above.push(c);
                            continue 'c;
                        }
                    }
                }
                below.push(c.rename_columns(&move |n: &str| {
                    renames.get(n).cloned().unwrap_or_else(|| n.to_string())
                }));
            }
            let mut new_input = *inner;
            if !below.is_empty() {
                new_input = push_predicate(new_input, below, catalog)?;
            }
            let projected = LogicalPlan::Project {
                input: Box::new(new_input),
                exprs,
            };
            Ok(wrap_select(projected, above))
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let ls = left.schema(catalog)?;
            let rs = right.schema(catalog)?;
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut above = Vec::new();
            for c in conjuncts {
                let cols = c.columns();
                let all_left = cols.iter().all(|c| ls.contains(c));
                let all_right = cols.iter().all(|c| rs.contains(c));
                if all_left {
                    to_left.push(c);
                } else if all_right && join_type == JoinType::Inner {
                    // For LEFT joins, filtering the preserved side's NULLs
                    // must happen above; only inner joins sink right-side
                    // predicates.
                    to_right.push(c);
                } else {
                    above.push(c);
                }
            }
            let mut l = *left;
            if !to_left.is_empty() {
                l = push_predicate(l, to_left, catalog)?;
            }
            let mut r = *right;
            if !to_right.is_empty() {
                r = push_predicate(r, to_right, catalog)?;
            }
            let joined = LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                on,
                join_type,
            };
            Ok(wrap_select(joined, above))
        }
        LogicalPlan::Aggregate {
            input: inner,
            group_by,
            aggs,
        } => {
            // Conjuncts over pass-through group columns sink below the
            // aggregate (classic group-key pushdown).
            let mut below = Vec::new();
            let mut above = Vec::new();
            'c: for c in conjuncts {
                let mut renames = std::collections::BTreeMap::new();
                for used in c.columns() {
                    match group_by.iter().find(|(_, n)| *n == used) {
                        Some((Expr::Column(src), _)) => {
                            renames.insert(used.clone(), src.clone());
                        }
                        _ => {
                            above.push(c);
                            continue 'c;
                        }
                    }
                }
                below.push(c.rename_columns(&move |n: &str| {
                    renames.get(n).cloned().unwrap_or_else(|| n.to_string())
                }));
            }
            let mut new_input = *inner;
            if !below.is_empty() {
                new_input = push_predicate(new_input, below, catalog)?;
            }
            let agg = LogicalPlan::Aggregate {
                input: Box::new(new_input),
                group_by,
                aggs,
            };
            Ok(wrap_select(agg, above))
        }
        LogicalPlan::Order { input: inner, keys } => {
            // Filtering commutes with sorting.
            let pushed = push_predicate(*inner, conjuncts, catalog)?;
            Ok(LogicalPlan::Order {
                input: Box::new(pushed),
                keys,
            })
        }
        // TopN truncates: filtering before vs after differs. Stay above.
        topn @ LogicalPlan::TopN { .. } => Ok(wrap_select(topn, conjuncts)),
        other => Ok(wrap_select(other, conjuncts)),
    }
}

fn wrap_select(input: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    if conjuncts.is_empty() {
        input
    } else {
        LogicalPlan::Select {
            input: Box::new(input),
            predicate: and_all(conjuncts),
        }
    }
}

/// Rule 2: column pruning with join culling.
///
/// `required = None` means "all output columns are needed" (the root).
fn prune_columns(
    plan: LogicalPlan,
    required: Option<BTreeSet<String>>,
    catalog: &dyn Catalog,
    config: &OptimizerConfig,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::TableScan { table, projection } => {
            let req = match required {
                None => return Ok(LogicalPlan::TableScan { table, projection }),
                Some(r) => r,
            };
            let meta = catalog.table_meta(&table)?;
            let mut cols: Vec<String> = meta
                .schema
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .filter(|n| req.contains(n))
                .collect();
            if cols.is_empty() {
                // Keep one (cheapest) column so row count survives COUNT(*).
                if let Some(f) = meta.schema.fields().first() {
                    cols.push(f.name.clone());
                }
            }
            // Respect an existing narrower projection.
            if let Some(existing) = projection {
                cols.retain(|c| existing.contains(c));
                if cols.is_empty() {
                    cols = existing;
                }
            }
            Ok(LogicalPlan::TableScan {
                table,
                projection: Some(cols),
            })
        }
        LogicalPlan::Select { input, predicate } => {
            let child_req = required.map(|mut r| {
                r.extend(predicate.columns());
                r
            });
            Ok(LogicalPlan::Select {
                input: Box::new(prune_columns(*input, child_req, catalog, config)?),
                predicate,
            })
        }
        LogicalPlan::Project { input, exprs } => {
            let kept: Vec<(Expr, String)> = match &required {
                None => exprs,
                Some(r) => {
                    let filtered: Vec<_> = exprs
                        .iter()
                        .filter(|(_, n)| r.contains(n))
                        .cloned()
                        .collect();
                    if filtered.is_empty() {
                        exprs
                    } else {
                        filtered
                    }
                }
            };
            let mut child_req = BTreeSet::new();
            for (e, _) in &kept {
                child_req.extend(e.columns());
            }
            Ok(LogicalPlan::Project {
                input: Box::new(prune_columns(*input, Some(child_req), catalog, config)?),
                exprs: kept,
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let kept_aggs = match &required {
                None => aggs,
                Some(r) => aggs.into_iter().filter(|a| r.contains(&a.alias)).collect(),
            };
            let mut child_req = BTreeSet::new();
            for (e, _) in &group_by {
                child_req.extend(e.columns());
            }
            for a in &kept_aggs {
                if let Some(arg) = &a.arg {
                    child_req.extend(arg.columns());
                }
            }
            Ok(LogicalPlan::Aggregate {
                input: Box::new(prune_columns(*input, Some(child_req), catalog, config)?),
                group_by,
                aggs: kept_aggs,
            })
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let ls = left.schema(catalog)?;
            let rs = right.schema(catalog)?;
            // Columns each side must produce for the consumer.
            let (left_out, right_out): (BTreeSet<String>, BTreeSet<String>) = match &required {
                None => (
                    ls.names().iter().map(|s| s.to_string()).collect(),
                    rs.names().iter().map(|s| s.to_string()).collect(),
                ),
                Some(r) => (
                    r.iter().filter(|c| ls.contains(c)).cloned().collect(),
                    r.iter().filter(|c| rs.contains(c)).cloned().collect(),
                ),
            };

            // Join culling (Sect. 4.1.2): drop a side that contributes no
            // required output columns when doing so cannot change the rows of
            // the surviving side.
            if config.enable_join_culling && required.is_some() {
                let right_unique = unique_columns(&right, catalog)?;
                let right_key_unique =
                    !on.is_empty() && on.iter().all(|(_, r)| right_unique.contains(r));
                // Both join types qualify: a left join keeps every left row
                // by definition, an inner one under assumed integrity.
                let can_cull_right = right_out.is_empty() && right_key_unique;
                if can_cull_right {
                    return prune_columns(*left, required, catalog, config);
                }
                let left_unique = unique_columns(&left, catalog)?;
                let left_key_unique =
                    !on.is_empty() && on.iter().all(|(l, _)| left_unique.contains(l));
                let can_cull_left =
                    left_out.is_empty() && left_key_unique && join_type == JoinType::Inner;
                if can_cull_left {
                    return prune_columns(*right, required, catalog, config);
                }
            }

            let mut lreq = left_out;
            let mut rreq = right_out;
            for (l, r) in &on {
                lreq.insert(l.clone());
                rreq.insert(r.clone());
            }
            Ok(LogicalPlan::Join {
                left: Box::new(prune_columns(*left, Some(lreq), catalog, config)?),
                right: Box::new(prune_columns(*right, Some(rreq), catalog, config)?),
                on,
                join_type,
            })
        }
        LogicalPlan::Order { input, keys } => {
            let child_req = required.map(|mut r| {
                r.extend(keys.iter().map(|k| k.column.clone()));
                r
            });
            Ok(LogicalPlan::Order {
                input: Box::new(prune_columns(*input, child_req, catalog, config)?),
                keys,
            })
        }
        LogicalPlan::TopN { input, keys, n } => {
            let child_req = required.map(|mut r| {
                r.extend(keys.iter().map(|k| k.column.clone()));
                r
            });
            Ok(LogicalPlan::TopN {
                input: Box::new(prune_columns(*input, child_req, catalog, config)?),
                keys,
                n,
            })
        }
        LogicalPlan::Distinct { input } => Ok(LogicalPlan::Distinct {
            input: Box::new(prune_columns(*input, required, catalog, config)?),
        }),
    }
}

/// Rule 3: drop `Order` nodes whose effect is destroyed or superseded above.
fn strip_redundant_orders(plan: LogicalPlan, order_irrelevant: bool) -> LogicalPlan {
    match plan {
        LogicalPlan::Order { input, keys } => {
            if order_irrelevant {
                strip_redundant_orders(*input, true)
            } else {
                LogicalPlan::Order {
                    // Anything sorted below this Order is re-sorted here.
                    input: Box::new(strip_redundant_orders(*input, true)),
                    keys,
                }
            }
        }
        LogicalPlan::TopN { input, keys, n } => LogicalPlan::TopN {
            input: Box::new(strip_redundant_orders(*input, true)),
            keys,
            n,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(strip_redundant_orders(*input, true)),
            group_by,
            aggs,
        },
        LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
            input: Box::new(strip_redundant_orders(*input, order_irrelevant)),
            predicate,
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(strip_redundant_orders(*input, order_irrelevant)),
            exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => LogicalPlan::Join {
            // The build (right) side's order never matters for a hash join.
            left: Box::new(strip_redundant_orders(*left, order_irrelevant)),
            right: Box::new(strip_redundant_orders(*right, true)),
            on,
            join_type,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(strip_redundant_orders(*input, true)),
        },
        leaf @ LogicalPlan::TableScan { .. } => leaf,
    }
}

/// Physical-level rule (the compression-aware scan path): move sargable
/// conjuncts from a `Filter` into the `Scan` directly beneath it. Pushed
/// conjuncts are evaluated *before* chunk materialization — against zone
/// maps (whole-block skip), dictionary codes, or RLE runs — so the scan
/// only decodes surviving rows. A conjunct qualifies when it references
/// exactly one column of the scanned table and has an IndexTable-supported
/// shape (comparison/IN/BETWEEN against the column, or a null test).
/// Non-sargable residue stays in the Filter; the Filter disappears when
/// everything was pushed.
///
/// Runs between `create_physical` and `parallelize`, so parallel plans
/// inherit pushed predicates in every scan branch.
pub fn push_scan_predicates(plan: PhysPlan) -> PhysPlan {
    match plan {
        PhysPlan::Filter { input, predicate } => {
            let input = push_scan_predicates(*input);
            if let PhysPlan::Scan {
                table,
                ranges,
                projection,
                via_rle_index,
                mut pushed,
            } = input
            {
                let (push, keep): (Vec<Expr>, Vec<Expr>) = split_conjuncts(&predicate)
                    .into_iter()
                    .partition(|c| scan_sargable(c, &table));
                pushed.extend(push);
                let scan = PhysPlan::Scan {
                    table,
                    ranges,
                    projection,
                    via_rle_index,
                    pushed,
                };
                if keep.is_empty() {
                    scan
                } else {
                    PhysPlan::Filter {
                        input: Box::new(scan),
                        predicate: and_all(keep),
                    }
                }
            } else {
                PhysPlan::Filter {
                    input: Box::new(input),
                    predicate,
                }
            }
        }
        PhysPlan::Project { input, exprs } => PhysPlan::Project {
            input: Box::new(push_scan_predicates(*input)),
            exprs,
        },
        PhysPlan::HashJoin {
            probe,
            build,
            probe_keys,
            join_type,
        } => {
            // The build side is wrapped in a fresh shared cell; the pass runs
            // before any execution, so no built hash table is lost.
            let rebuilt = BuildSide::new(
                push_scan_predicates(build.plan.clone()),
                std::sync::Arc::clone(&build.schema),
                build.key_cols.clone(),
            );
            PhysPlan::HashJoin {
                probe: Box::new(push_scan_predicates(*probe)),
                build: std::sync::Arc::new(rebuilt),
                probe_keys,
                join_type,
            }
        }
        PhysPlan::HashAgg {
            input,
            group_by,
            aggs,
            mode,
        } => PhysPlan::HashAgg {
            input: Box::new(push_scan_predicates(*input)),
            group_by,
            aggs,
            mode,
        },
        PhysPlan::Sort { input, keys } => PhysPlan::Sort {
            input: Box::new(push_scan_predicates(*input)),
            keys,
        },
        PhysPlan::TopN { input, keys, n } => PhysPlan::TopN {
            input: Box::new(push_scan_predicates(*input)),
            keys,
            n,
        },
        PhysPlan::Exchange { inputs } => PhysPlan::Exchange {
            inputs: inputs.into_iter().map(push_scan_predicates).collect(),
        },
        leaf @ (PhysPlan::Scan { .. } | PhysPlan::RunAgg { .. }) => leaf,
    }
}

/// Can this conjunct be answered inside the scan of `table`? Either a run
/// predicate (`col cmp literal` and friends) or a monotone arithmetic
/// comparison (`col + 1 > k`) over a numeric column — the latter evaluates
/// through the full engine inside the scan and prunes blocks via interval
/// arithmetic on the zone maps.
fn scan_sargable(e: &Expr, table: &tabviz_storage::Table) -> bool {
    let cols = e.columns();
    if cols.len() != 1 {
        return false;
    }
    let name = cols.iter().next().unwrap();
    let Ok(idx) = table.schema().index_of(name) else {
        return false;
    };
    crate::physical::supported_run_predicate(e)
        || crate::exec::scan_filter::arith_comparison_sargable(e, table.schema().field(idx).dtype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tabviz_common::{DataType, Field, Schema};
    use tabviz_tql::catalog::{MemoryCatalog, TableMeta};
    use tabviz_tql::expr::{bin, col, lit};
    use tabviz_tql::{AggCall, AggFunc, SortKey};

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        let fact = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("origin", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        cat.add("flights", TableMeta::new(fact, 100_000));
        let dim = Arc::new(
            Schema::new(vec![
                Field::new("code", DataType::Str),
                Field::new("name", DataType::Str),
            ])
            .unwrap(),
        );
        let mut meta = TableMeta::new(dim, 20);
        meta.unique_columns = std::iter::once("code".to_string()).collect();
        cat.add("carriers", meta);
        cat
    }

    fn opt(plan: LogicalPlan) -> LogicalPlan {
        optimize(plan, &catalog(), &OptimizerConfig::default()).unwrap()
    }

    #[test]
    fn filter_sinks_below_project_and_order() {
        let plan = LogicalPlan::scan("flights")
            .project(vec![
                (col("carrier"), "c".into()),
                (col("delay"), "d".into()),
            ])
            .order(vec![SortKey::asc("c")])
            .select(bin(BinOp::Gt, col("d"), lit(10i64)));
        let optimized = opt(plan);
        let text = optimized.canonical_text();
        // Select ends up directly above the scan, renamed back to `delay`.
        let select_pos = text.find("Select ([delay] > 10)").expect("pushed select");
        let scan_pos = text.find("TableScan").unwrap();
        let project_pos = text.find("Project").unwrap();
        assert!(select_pos < scan_pos);
        assert!(project_pos < select_pos);
    }

    #[test]
    fn filter_splits_across_join() {
        let plan = LogicalPlan::scan("flights")
            .join(
                LogicalPlan::scan("carriers"),
                vec![("carrier".into(), "code".into())],
                JoinType::Inner,
            )
            .select(and_all(vec![
                bin(BinOp::Gt, col("delay"), lit(10i64)),
                bin(BinOp::Eq, col("name"), lit("American")),
            ]));
        let optimized = opt(plan);
        let text = optimized.canonical_text();
        assert!(text.contains("Select ([delay] > 10)"));
        assert!(text.contains("Select ([name] = 'American')"));
        // Neither select remains above the join.
        assert!(text.find("Join").unwrap() < text.find("Select").unwrap());
    }

    #[test]
    fn left_join_right_filter_stays_above() {
        let plan = LogicalPlan::scan("flights")
            .join(
                LogicalPlan::scan("carriers"),
                vec![("carrier".into(), "code".into())],
                JoinType::Left,
            )
            .select(bin(BinOp::Eq, col("name"), lit("American")));
        let optimized = opt(plan);
        let text = optimized.canonical_text();
        assert!(text.find("Select").unwrap() < text.find("Join").unwrap());
    }

    #[test]
    fn group_key_filter_sinks_below_aggregate() {
        let plan = LogicalPlan::scan("flights")
            .aggregate(
                vec![(col("carrier"), "carrier".into())],
                vec![AggCall::new(AggFunc::Count, None, "n")],
            )
            .select(bin(BinOp::Eq, col("carrier"), lit("AA")));
        let text = opt(plan).canonical_text();
        let agg_pos = text.find("Aggregate").unwrap();
        let sel_pos = text.find("Select").unwrap();
        assert!(
            agg_pos < sel_pos,
            "filter should sink below aggregate:\n{text}"
        );
    }

    #[test]
    fn agg_output_filter_stays_above() {
        let plan = LogicalPlan::scan("flights")
            .aggregate(
                vec![(col("carrier"), "carrier".into())],
                vec![AggCall::new(AggFunc::Count, None, "n")],
            )
            .select(bin(BinOp::Gt, col("n"), lit(100i64)));
        let text = opt(plan).canonical_text();
        assert!(text.find("Select").unwrap() < text.find("Aggregate").unwrap());
    }

    #[test]
    fn scan_projection_narrows() {
        let plan = LogicalPlan::scan("flights").aggregate(
            vec![(col("carrier"), "carrier".into())],
            vec![AggCall::new(AggFunc::Avg, Some(col("delay")), "d")],
        );
        let text = opt(plan).canonical_text();
        assert!(
            text.contains("TableScan flights [carrier, delay]"),
            "{text}"
        );
    }

    #[test]
    fn count_star_keeps_one_column() {
        let plan = LogicalPlan::scan("flights")
            .aggregate(vec![], vec![AggCall::new(AggFunc::Count, None, "n")]);
        let text = opt(plan).canonical_text();
        assert!(text.contains("TableScan flights [carrier]"), "{text}");
    }

    #[test]
    fn dimension_join_culled_for_domain_query() {
        // Domain query: distinct carriers from the fact table joined to the
        // carriers dimension — the dimension contributes nothing and is
        // culled (Sect. 4.1.2's join culling).
        let plan = LogicalPlan::scan("flights")
            .join(
                LogicalPlan::scan("carriers"),
                vec![("carrier".into(), "code".into())],
                JoinType::Inner,
            )
            .aggregate(vec![(col("carrier"), "carrier".into())], vec![]);
        let text = opt(plan).canonical_text();
        assert!(!text.contains("Join"), "join should be culled:\n{text}");
        assert!(!text.contains("carriers"));
    }

    #[test]
    fn fact_culled_for_dimension_domain_query() {
        // Domain of the dimension's name column: the fact side is only there
        // for the join; with RI assumed and a unique fact-side key the fact
        // table is removed ("removal of the fact table ... for domain
        // queries"). Here the fact side key is made unique by aggregation.
        let fact_keys = LogicalPlan::scan("flights")
            .aggregate(vec![(col("carrier"), "carrier".into())], vec![]);
        let plan = fact_keys
            .join(
                LogicalPlan::scan("carriers"),
                vec![("carrier".into(), "code".into())],
                JoinType::Inner,
            )
            .aggregate(vec![(col("name"), "name".into())], vec![]);
        let text = opt(plan).canonical_text();
        assert!(!text.contains("flights"), "fact should be culled:\n{text}");
    }

    #[test]
    fn join_not_culled_without_uniqueness() {
        // flights-side key is NOT unique: culling the right side of
        // carriers⋈flights would change cardinality, so the join stays.
        let plan = LogicalPlan::scan("carriers")
            .join(
                LogicalPlan::scan("flights"),
                vec![("code".into(), "carrier".into())],
                JoinType::Inner,
            )
            .aggregate(vec![(col("name"), "name".into())], vec![]);
        let text = opt(plan).canonical_text();
        assert!(text.contains("Join"), "{text}");
    }

    #[test]
    fn culling_can_be_disabled() {
        let plan = LogicalPlan::scan("flights")
            .join(
                LogicalPlan::scan("carriers"),
                vec![("carrier".into(), "code".into())],
                JoinType::Inner,
            )
            .aggregate(vec![(col("carrier"), "carrier".into())], vec![]);
        let cfg = OptimizerConfig {
            enable_join_culling: false,
        };
        let text = optimize(plan, &catalog(), &cfg).unwrap().canonical_text();
        assert!(text.contains("Join"));
    }

    #[test]
    fn redundant_orders_removed() {
        let plan = LogicalPlan::scan("flights")
            .order(vec![SortKey::asc("delay")])
            .aggregate(
                vec![(col("carrier"), "carrier".into())],
                vec![AggCall::new(AggFunc::Count, None, "n")],
            )
            .order(vec![SortKey::desc("n")]);
        let text = opt(plan).canonical_text();
        assert_eq!(text.matches("Order").count(), 1, "{text}");
        assert!(text.contains("Order n DESC"));
    }

    #[test]
    fn order_under_order_removed() {
        let plan = LogicalPlan::scan("flights")
            .order(vec![SortKey::asc("delay")])
            .order(vec![SortKey::asc("carrier")]);
        let text = opt(plan).canonical_text();
        assert_eq!(text.matches("Order").count(), 1);
        assert!(text.contains("Order carrier ASC"));
    }
}
