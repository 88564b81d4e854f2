//! Parallel plan generation.
//!
//! Sect. 4.2.2's bottom-up algorithm: "Leaf nodes are TableScan operators. At
//! the TableScan operator the optimizer ... makes a decision to partition the
//! table into N fractions ... If the parent is a flow operator such as Select
//! or Project, the parent inherits the degree of parallelism from the child.
//! If the parent is a stop-and-go operator, such as Aggregate, Order or TopN,
//! the optimizer inserts an Exchange operator between the child and the
//! parent. If the root has a degree of parallelism that is larger than one,
//! the optimizer inserts an Exchange operator to close the parallelism."
//!
//! On top of that skeleton this module implements:
//! * **join handling** (Sect. 4.2.2): the probe side joins the main
//!   parallelism; the build side forms "a separate and independent parallel
//!   unit" whose hash table is shared by every probe branch;
//! * **local/global aggregation** (Sect. 4.2.3): per-branch partial
//!   aggregates of the calls' parts, Exchange, a global roll-up, and an
//!   AVG-recombining project, all from the one algebra of `tabviz_tql::agg`;
//! * **range-partitioned aggregation** (Sect. 4.2.3, Lemmas 1–3): when a
//!   permutation of a subset of the GROUP BY columns prefixes the table's
//!   sort order, fractions cut at group boundaries make the global aggregate
//!   redundant — each branch aggregates its groups completely;
//! * **local/global TopN** ("the same approach can also be applied to the
//!   TopN operator").
//!
//! Every Exchange is the unordered N→1 merge Tableau 9.0 shipped; the
//! Sect. 4.2.4 alternative (a streaming aggregate above an order-preserving
//! Exchange) "performed badly" in the paper and is not planned here.

use std::sync::Arc;
use tabviz_common::Result;
use tabviz_tql::agg::{merge, partial_aggs, Regroup};
use tabviz_tql::expr::{col, Expr};
use tabviz_tql::AggCall;

use crate::cost::CostProfile;
use crate::physical::{AggMode, BuildSide, PhysPlan};

/// Parallel-planner switches (each backs an ablation bench).
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    pub profile: CostProfile,
    pub enable_local_global: bool,
    pub enable_range_partition: bool,
    pub enable_local_topn: bool,
    /// Minimum distinct values (per degree of parallelism) in the leading
    /// partition column before range partitioning is trusted — the paper's
    /// "data skew and low cardinality" caveat.
    pub range_partition_min_distinct_per_dop: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            profile: CostProfile::default(),
            enable_local_global: true,
            enable_range_partition: true,
            enable_local_topn: true,
            range_partition_min_distinct_per_dop: 2,
        }
    }
}

/// Result of parallelizing a subtree.
enum Par {
    Serial(PhysPlan),
    Parallel {
        branches: Vec<PhysPlan>,
        /// True when every group (w.r.t. the aggregate requirement pushed
        /// down) lives entirely within one branch (Lemma 2).
        groups_partitioned: bool,
    },
}

impl Par {
    fn close(self) -> PhysPlan {
        match self {
            Par::Serial(p) => p,
            Par::Parallel { branches, .. } => {
                if branches.len() == 1 {
                    branches.into_iter().next().expect("len checked")
                } else {
                    PhysPlan::Exchange { inputs: branches }
                }
            }
        }
    }
}

/// Rewrite a serial physical plan into a parallel one.
pub fn parallelize(plan: &PhysPlan, opts: &ParallelOptions) -> Result<PhysPlan> {
    Ok(go(plan, opts, 1, None)?.close())
}

/// `expr_cost` accumulates the per-row cost of expressions evaluated above
/// the current node (the Sect. 4.2.2 cost-profile input to the DOP choice);
/// `agg_groups` carries the nearest enclosing aggregate's group columns
/// ("the TableScan only gets the partition requirements from the nearest
/// Aggregate operator").
fn go(
    plan: &PhysPlan,
    opts: &ParallelOptions,
    expr_cost: u32,
    agg_groups: Option<&[String]>,
) -> Result<Par> {
    match plan {
        PhysPlan::Scan {
            table,
            ranges,
            projection,
            via_rle_index,
            pushed,
        } => {
            let rows: usize = ranges.iter().map(|&(_, l)| l).sum();
            let pushed_cost: u32 = pushed.iter().map(Expr::cost_weight).sum();
            let dop = opts
                .profile
                .scan_dop_with_pushdown(rows, expr_cost, pushed_cost);
            if dop <= 1 {
                return Ok(Par::Serial(plan.clone()));
            }
            // Range partitioning: only for a contiguous full scan of a
            // sorted table whose sort-key prefix is covered by the group set.
            if !via_rle_index && opts.enable_range_partition {
                if let Some(groups) = agg_groups {
                    if let Some(prefix_len) = partition_prefix(table, groups) {
                        let lead_col = table.sort_key()[0];
                        let distinct = table.column(lead_col).stats.distinct;
                        if distinct >= opts.range_partition_min_distinct_per_dop * dop {
                            if let Some(fractions) = table.range_fractions(dop, prefix_len) {
                                let branches = fractions
                                    .into_iter()
                                    .map(|r| PhysPlan::Scan {
                                        table: Arc::clone(table),
                                        ranges: vec![r],
                                        projection: projection.clone(),
                                        via_rle_index: false,
                                        pushed: pushed.clone(),
                                    })
                                    .collect();
                                return Ok(Par::Parallel {
                                    branches,
                                    groups_partitioned: true,
                                });
                            }
                        }
                    }
                }
            }
            // Random (row-count) partitioning. RLE-index scans distribute
            // their ranges round-robin across threads (Sect. 4.3: "these
            // threads then scan different ranges of the same input table").
            let branches: Vec<PhysPlan> = if *via_rle_index {
                let mut buckets: Vec<Vec<(usize, usize)>> = vec![Vec::new(); dop];
                for (i, r) in ranges.iter().enumerate() {
                    buckets[i % dop].push(*r);
                }
                buckets
                    .into_iter()
                    .filter(|b| !b.is_empty())
                    .map(|rs| PhysPlan::Scan {
                        table: Arc::clone(table),
                        ranges: rs,
                        projection: projection.clone(),
                        via_rle_index: true,
                        pushed: pushed.clone(),
                    })
                    .collect()
            } else {
                // With pushed predicates, fractions snap to zone-map block
                // boundaries so no two workers share a block: each worker
                // makes its skip decisions entirely independently.
                let fractions = if pushed.is_empty() {
                    table.fractions(dop)
                } else {
                    table.fractions_aligned(dop, tabviz_storage::BLOCK_ROWS)
                };
                fractions
                    .into_iter()
                    .map(|r| PhysPlan::Scan {
                        table: Arc::clone(table),
                        ranges: vec![r],
                        projection: projection.clone(),
                        via_rle_index: false,
                        pushed: pushed.clone(),
                    })
                    .collect()
            };
            if branches.len() <= 1 {
                return Ok(Par::Serial(plan.clone()));
            }
            Ok(Par::Parallel {
                branches,
                groups_partitioned: false,
            })
        }

        // Flow operators inherit the child's parallelism.
        PhysPlan::Filter { input, predicate } => {
            let child = go(input, opts, expr_cost + predicate.cost_weight(), agg_groups)?;
            Ok(map_branches(child, |b| PhysPlan::Filter {
                input: Box::new(b),
                predicate: predicate.clone(),
            }))
        }
        PhysPlan::Project { input, exprs } => {
            let cost: u32 = exprs.iter().map(|(e, _)| e.cost_weight()).sum();
            // Translate the aggregate's group requirement through renames.
            let translated: Option<Vec<String>> = agg_groups.and_then(|groups| {
                groups
                    .iter()
                    .map(|g| {
                        exprs.iter().find_map(|(e, name)| match e {
                            Expr::Column(src) if name == g => Some(src.clone()),
                            _ => None,
                        })
                    })
                    .collect()
            });
            let child = go(input, opts, expr_cost + cost, translated.as_deref())?;
            Ok(map_branches(child, |b| PhysPlan::Project {
                input: Box::new(b),
                exprs: exprs.clone(),
            }))
        }

        // The probe side participates in the main parallelism; the build
        // side becomes its own parallel unit, shared across branches.
        PhysPlan::HashJoin {
            probe,
            build,
            probe_keys,
            join_type,
        } => {
            let built_plan = parallelize(&build.plan, opts)?;
            let shared = Arc::new(BuildSide::new(
                built_plan,
                Arc::clone(&build.schema),
                build.key_cols.clone(),
            ));
            let child = go(probe, opts, expr_cost + 2, agg_groups)?;
            // Conservative: a join may introduce build-side group columns,
            // so the partition guarantee is dropped.
            let par = map_branches(child, |b| PhysPlan::HashJoin {
                probe: Box::new(b),
                build: Arc::clone(&shared),
                probe_keys: probe_keys.clone(),
                join_type: *join_type,
            });
            Ok(match par {
                Par::Parallel { branches, .. } => Par::Parallel {
                    branches,
                    groups_partitioned: false,
                },
                serial => serial,
            })
        }

        PhysPlan::HashAgg {
            input,
            group_by,
            aggs,
            ..
        } => parallel_aggregate(input, group_by, aggs, opts, expr_cost),

        // Stop-and-go: close parallelism below.
        PhysPlan::Sort { input, keys } => {
            let child = go(input, opts, expr_cost, None)?.close();
            Ok(Par::Serial(PhysPlan::Sort {
                input: Box::new(child),
                keys: keys.clone(),
            }))
        }
        PhysPlan::TopN { input, keys, n } => {
            let child = go(input, opts, expr_cost, None)?;
            match child {
                Par::Parallel { branches, .. } if opts.enable_local_topn => {
                    // Local/global TopN: each branch keeps its local top n,
                    // the global TopN re-ranks the union.
                    let local: Vec<PhysPlan> = branches
                        .into_iter()
                        .map(|b| PhysPlan::TopN {
                            input: Box::new(b),
                            keys: keys.clone(),
                            n: *n,
                        })
                        .collect();
                    Ok(Par::Serial(PhysPlan::TopN {
                        input: Box::new(PhysPlan::Exchange { inputs: local }),
                        keys: keys.clone(),
                        n: *n,
                    }))
                }
                other => Ok(Par::Serial(PhysPlan::TopN {
                    input: Box::new(other.close()),
                    keys: keys.clone(),
                    n: *n,
                })),
            }
        }

        // Run-granularity aggregation is O(runs), not O(rows); the row count
        // wildly overstates its work, so it stays serial.
        PhysPlan::RunAgg { .. } => Ok(Par::Serial(plan.clone())),

        // Already-parallel input (shouldn't occur from the serial planner).
        PhysPlan::Exchange { .. } => Ok(Par::Serial(plan.clone())),
    }
}

fn map_branches(par: Par, f: impl Fn(PhysPlan) -> PhysPlan) -> Par {
    match par {
        Par::Serial(p) => Par::Serial(f(p)),
        Par::Parallel {
            branches,
            groups_partitioned,
        } => Par::Parallel {
            branches: branches.into_iter().map(f).collect(),
            groups_partitioned,
        },
    }
}

/// Longest prefix of the table's sort key entirely contained in the group
/// column set (Lemma 3's "permutation of a subset ... is a prefix").
fn partition_prefix(table: &tabviz_storage::Table, groups: &[String]) -> Option<usize> {
    if table.sort_key().is_empty() || groups.is_empty() {
        return None;
    }
    let schema = table.schema();
    let mut len = 0usize;
    for &ci in table.sort_key() {
        let name = &schema.field(ci).name;
        if groups.iter().any(|g| g == name) {
            len += 1;
        } else {
            break;
        }
    }
    (len > 0).then_some(len)
}

/// Parallelize an aggregate node, choosing among range-partitioned,
/// local/global, and Exchange-then-serial (Sect. 4.2.3).
fn parallel_aggregate(
    input: &PhysPlan,
    group_by: &[(Expr, String)],
    aggs: &[AggCall],
    opts: &ParallelOptions,
    expr_cost: u32,
) -> Result<Par> {
    // Group requirement pushed to the scan: only simple column groups apply.
    let group_cols: Option<Vec<String>> = group_by
        .iter()
        .map(|(e, _)| match e {
            Expr::Column(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    let agg_cost: u32 = group_by.iter().map(|(e, _)| e.cost_weight()).sum::<u32>()
        + aggs
            .iter()
            .filter_map(|a| a.arg.as_ref())
            .map(Expr::cost_weight)
            .sum::<u32>();
    let child = go(
        input,
        opts,
        expr_cost + agg_cost,
        group_cols.as_deref().filter(|g| !g.is_empty()),
    )?;

    let hash_agg = |input: PhysPlan| PhysPlan::HashAgg {
        input: Box::new(input),
        group_by: group_by.to_vec(),
        aggs: aggs.to_vec(),
        mode: AggMode::Single,
    };
    match child {
        Par::Serial(p) => Ok(Par::Serial(hash_agg(p))),
        Par::Parallel {
            branches,
            groups_partitioned,
        } => {
            if groups_partitioned {
                // Lemma 3: each branch owns whole groups — aggregate fully
                // per branch, no global aggregate needed.
                return Ok(Par::Parallel {
                    branches: branches.into_iter().map(hash_agg).collect(),
                    groups_partitioned: false,
                });
            }

            match partial_aggs(aggs).filter(|_| opts.enable_local_global) {
                Some(parts) => Ok(Par::Serial(build_local_global(
                    branches, group_by, aggs, parts,
                ))),
                // COUNTD (or local/global disabled): Exchange, then one
                // global hash aggregate — "aggregation is still a
                // serialization point".
                None => Ok(Par::Serial(hash_agg(PhysPlan::Exchange {
                    inputs: branches,
                }))),
            }
        }
    }
}

/// Construct partial → Exchange → global → (recombine) for local/global
/// aggregation: each branch aggregates `parts`, the global aggregate and the
/// recombining projection are their [`merge`].
fn build_local_global(
    branches: Vec<PhysPlan>,
    group_by: &[(Expr, String)],
    aggs: &[AggCall],
    parts: Vec<AggCall>,
) -> PhysPlan {
    // Every branch's ungrouped partial holds a row, empty input or not, so
    // the global aggregate never sums no COUNTs.
    let merge = merge(aggs, Regroup::Rollup { ungrouped: false }, |func, arg| {
        let p = parts
            .iter()
            .find(|p| p.func == func && p.arg.as_ref() == arg)?;
        Some(p.alias.clone())
    })
    .expect("every part is aggregated per branch");
    let locals: Vec<PhysPlan> = branches
        .into_iter()
        .map(|b| PhysPlan::HashAgg {
            input: Box::new(b),
            group_by: group_by.to_vec(),
            aggs: parts.clone(),
            mode: AggMode::Partial,
        })
        .collect();

    // Global roll-up groups on the (now materialized) group columns.
    let final_groups: Vec<(Expr, String)> = group_by
        .iter()
        .map(|(_, name)| (col(name.clone()), name.clone()))
        .collect();
    let plain = merge.is_plain();
    let global = PhysPlan::HashAgg {
        input: Box::new(PhysPlan::Exchange { inputs: locals }),
        group_by: final_groups.clone(),
        aggs: merge.rollup,
        mode: AggMode::Final,
    };
    if plain {
        return global;
    }
    // Recombine AVG = SUM/COUNT and restore the requested column order.
    PhysPlan::Project {
        input: Box::new(global),
        exprs: final_groups.into_iter().chain(merge.outputs).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{create_physical, execute_to_chunk, PhysicalOptions};
    use std::sync::Arc as StdArc;
    use tabviz_common::{Chunk, DataType, Field, Schema, Value};
    use tabviz_storage::{Database, Table};
    use tabviz_tql::expr::{bin, lit};
    use tabviz_tql::{AggFunc, BinOp, LogicalPlan, SortKey};

    fn make_db(rows: usize, sorted: bool) -> StdArc<Database> {
        let schema = StdArc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let carriers = [
            "AA", "AS", "B6", "DL", "EV", "F9", "HA", "NK", "OO", "UA", "VX", "WN",
        ];
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Str(carriers[i % carriers.len()].into()),
                    Value::Int((i % 120) as i64 - 10),
                ]
            })
            .collect();
        let chunk = Chunk::from_rows(schema, &data).unwrap();
        let keys: &[&str] = if sorted { &["carrier"] } else { &[] };
        let db = StdArc::new(Database::new("d"));
        db.put(Table::from_chunk("flights", &chunk, keys).unwrap())
            .unwrap();
        db
    }

    fn agg_plan() -> LogicalPlan {
        use tabviz_tql::expr::col;
        LogicalPlan::scan("flights").aggregate(
            vec![(col("carrier"), "carrier".into())],
            vec![
                AggCall::new(AggFunc::Count, None, "n"),
                AggCall::new(AggFunc::Sum, Some(col("delay")), "total"),
                AggCall::new(AggFunc::Avg, Some(col("delay")), "avg"),
            ],
        )
    }

    fn small_profile(max_dop: usize) -> ParallelOptions {
        ParallelOptions {
            profile: CostProfile {
                min_work_per_thread: 1_000,
                max_dop,
            },
            ..Default::default()
        }
    }

    fn plan_and_run(
        db: &StdArc<Database>,
        logical: &LogicalPlan,
        popts: &ParallelOptions,
    ) -> (PhysPlan, Chunk) {
        let serial = create_physical(logical, db.as_ref(), &PhysicalOptions::default()).unwrap();
        let parallel = parallelize(&serial, popts).unwrap();
        let out = execute_to_chunk(&parallel).unwrap();
        (parallel, out)
    }

    fn sorted_rows(c: &Chunk) -> Vec<Vec<Value>> {
        let mut rows = c.to_rows();
        rows.sort();
        rows
    }

    #[test]
    fn local_global_matches_serial() {
        let db = make_db(20_000, false);
        let logical = agg_plan();
        let serial = create_physical(&logical, db.as_ref(), &PhysicalOptions::default()).unwrap();
        let serial_out = execute_to_chunk(&serial).unwrap();

        let (par_plan, par_out) = plan_and_run(&db, &logical, &small_profile(4));
        let text = par_plan.explain();
        assert!(text.contains("Exchange"), "{text}");
        assert!(text.contains("HashAgg(Partial)"), "{text}");
        assert!(text.contains("HashAgg(Final)"), "{text}");
        assert_eq!(sorted_rows(&serial_out), sorted_rows(&par_out));
    }

    /// Each partition aggregates every part once: AVG(delay)'s SUM is the
    /// requested SUM(delay), and the two AVGs share their SUM and COUNT.
    #[test]
    fn local_global_aggregates_each_part_once() {
        let db = make_db(20_000, false);
        let call = |f, alias: &str| AggCall::new(f, Some(col("delay")), alias);
        let logical = LogicalPlan::scan("flights").aggregate(
            vec![(col("carrier"), "carrier".into())],
            vec![
                call(AggFunc::Avg, "a"),
                call(AggFunc::Sum, "s"),
                call(AggFunc::Avg, "b"),
            ],
        );
        let serial = create_physical(&logical, db.as_ref(), &PhysicalOptions::default()).unwrap();
        let serial_out = execute_to_chunk(&serial).unwrap();
        let (par_plan, par_out) = plan_and_run(&db, &logical, &small_profile(4));
        let text = par_plan.explain();
        let partial = text
            .lines()
            .find(|l| l.contains("HashAgg(Partial)"))
            .unwrap_or_else(|| panic!("no partial aggregate: {text}"));
        assert_eq!(partial.matches("SUM([delay])").count(), 1, "{text}");
        assert_eq!(partial.matches("COUNT([delay])").count(), 1, "{text}");
        assert_eq!(par_out.schema().names(), ["carrier", "a", "s", "b"]);
        assert_eq!(sorted_rows(&serial_out), sorted_rows(&par_out));
    }

    #[test]
    fn range_partition_removes_global_agg() {
        let db = make_db(20_000, true); // sorted by carrier
        let logical = agg_plan();
        let (par_plan, par_out) = plan_and_run(&db, &logical, &small_profile(4));
        let text = par_plan.explain();
        // No Partial/Final split — each branch hash-aggregates its own
        // groups completely, under an Exchange that closes the plan.
        assert!(!text.contains("Partial"), "{text}");
        assert!(text.starts_with("Exchange"), "{text}");
        assert_eq!(text.matches("HashAgg(Single)").count(), 4, "{text}");
        assert_eq!(par_out.len(), 12);

        let serial_db = make_db(20_000, true);
        let serial =
            create_physical(&agg_plan(), serial_db.as_ref(), &PhysicalOptions::default()).unwrap();
        let serial_out = execute_to_chunk(&serial).unwrap();
        assert_eq!(sorted_rows(&serial_out), sorted_rows(&par_out));
    }

    /// Lemma 3's caveat: range partitioning needs enough distinct groups per
    /// branch. Twelve carriers feed four branches but not eight, where the
    /// planner keeps the local/global split instead.
    #[test]
    fn range_partition_needs_enough_distinct_groups() {
        let db = make_db(20_000, true); // sorted by carrier, 12 values
        let (four, _) = plan_and_run(&db, &agg_plan(), &small_profile(4));
        assert!(!four.explain().contains("Partial"), "{}", four.explain());
        let (eight, out) = plan_and_run(&db, &agg_plan(), &small_profile(8));
        let text = eight.explain();
        assert!(text.contains("HashAgg(Partial)"), "{text}");
        assert!(text.contains("HashAgg(Final)"), "{text}");
        assert_eq!(out.len(), 12);
    }

    #[test]
    fn countd_forces_global_serialization() {
        use tabviz_tql::expr::col;
        let db = make_db(20_000, false);
        let logical = LogicalPlan::scan("flights").aggregate(
            vec![(col("carrier"), "carrier".into())],
            vec![AggCall::new(AggFunc::CountD, Some(col("delay")), "nd")],
        );
        let (par_plan, out) = plan_and_run(&db, &logical, &small_profile(4));
        let text = par_plan.explain();
        assert!(!text.contains("Partial"), "{text}");
        // Exchange feeds a single global aggregate.
        assert!(text.contains("Exchange"), "{text}");
        assert_eq!(out.len(), 12);
        // delays for carrier c are {d-10 : d in 0..120, d ≡ c (mod 12)} → 10 distinct
        assert_eq!(out.row(0)[1], Value::Int(10));
    }

    #[test]
    fn small_tables_stay_serial() {
        let db = make_db(100, false);
        let logical = agg_plan();
        let popts = ParallelOptions::default(); // real threshold
        let (par_plan, _) = plan_and_run(&db, &logical, &popts);
        assert!(!par_plan.explain().contains("Exchange"));
    }

    #[test]
    fn local_topn_applies() {
        let db = make_db(20_000, false);
        let logical = LogicalPlan::scan("flights")
            .select(bin(BinOp::Ge, col("delay"), lit(0i64)))
            .topn(5, vec![SortKey::desc("delay")]);
        let (par_plan, out) = plan_and_run(&db, &logical, &small_profile(4));
        let text = par_plan.explain();
        assert!(
            text.matches("TopN").count() >= 2,
            "local+global TopN: {text}"
        );
        assert_eq!(out.len(), 5);
        assert_eq!(out.row(0)[1], Value::Int(109));
    }

    #[test]
    fn parallel_join_shares_build() {
        use tabviz_tql::expr::col;
        let db = make_db(20_000, false);
        // dimension with names
        let dschema = StdArc::new(
            Schema::new(vec![
                Field::new("code", DataType::Str),
                Field::new("name", DataType::Str),
            ])
            .unwrap(),
        );
        let drows: Vec<Vec<Value>> = [
            "AA", "AS", "B6", "DL", "EV", "F9", "HA", "NK", "OO", "UA", "VX", "WN",
        ]
        .iter()
        .map(|c| vec![Value::Str((*c).into()), Value::Str(format!("{c} Airlines"))])
        .collect();
        db.put(
            Table::from_chunk("carriers", &Chunk::from_rows(dschema, &drows).unwrap(), &[])
                .unwrap(),
        )
        .unwrap();
        let logical = LogicalPlan::scan("flights")
            .join(
                LogicalPlan::scan("carriers"),
                vec![("carrier".into(), "code".into())],
                tabviz_tql::JoinType::Inner,
            )
            .aggregate(
                vec![(col("name"), "name".into())],
                vec![AggCall::new(AggFunc::Count, None, "n")],
            );
        let (par_plan, out) = plan_and_run(&db, &logical, &small_profile(4));
        let text = par_plan.explain();
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("Exchange"), "{text}");
        assert_eq!(out.len(), 12);
        let total: i64 = (0..out.len())
            .map(|i| out.row(i)[1].as_int().unwrap())
            .sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn ablation_switches_work() {
        let db = make_db(20_000, true);
        let logical = agg_plan();
        let mut popts = small_profile(4);
        popts.enable_range_partition = false;
        let (plan1, out1) = plan_and_run(&db, &logical, &popts);
        assert!(plan1.explain().contains("Partial"));
        popts.enable_local_global = false;
        let (plan2, out2) = plan_and_run(&db, &logical, &popts);
        assert!(!plan2.explain().contains("Partial"));
        assert_eq!(sorted_rows(&out1), sorted_rows(&out2));
    }
}
