//! Physical plans.
//!
//! The serial physical planner maps the optimized logical tree onto
//! executable operators; [`crate::parallel`] then rewrites the result with
//! Exchange-delimited parallel regions (Sect. 4.2). The RLE IndexTable
//! range-skipping scan of Sect. 4.3 is planned here: a selective filter over
//! a run-length-encoded column turns into a [`PhysPlan::Scan`] over just the
//! matching row ranges ("we implement the join that translates the range
//! specifications directly into disk accesses").

use std::sync::{Arc, OnceLock};
use tabviz_common::{Chunk, ColumnVec, Field, Result, Schema, SchemaRef, TvError};
use tabviz_storage::Table;
use tabviz_tql::expr::Expr;
use tabviz_tql::{AggCall, JoinType, LogicalPlan, SortKey};

use crate::exec::join::JoinBuild;

/// How an Aggregate executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// One hash aggregation over the whole input.
    Single,
    /// The "local" half of local/global aggregation: emits partial states as
    /// decomposed columns (Sect. 4.2.3).
    Partial,
    /// The "global" half: re-aggregates partials with roll-up functions.
    Final,
}

/// The build side of a hash join, shared across parallel probe branches
/// ("a single hash table is built from the shared table and then shared for
/// every left-hand block to probe", Sect. 4.2.2). The underlying plan runs at
/// most once, on whichever thread first needs it.
pub struct BuildSide {
    pub plan: PhysPlan,
    pub schema: SchemaRef,
    pub key_cols: Vec<usize>,
    cell: OnceLock<Result<Arc<JoinBuild>>>,
}

impl BuildSide {
    pub fn new(plan: PhysPlan, schema: SchemaRef, key_cols: Vec<usize>) -> Self {
        BuildSide {
            plan,
            schema,
            key_cols,
            cell: OnceLock::new(),
        }
    }

    /// Execute the build plan (once) and return the shared hash table.
    pub fn get(&self) -> Result<Arc<JoinBuild>> {
        self.cell
            .get_or_init(|| {
                let chunk = execute_to_chunk(&self.plan)?;
                Ok(Arc::new(JoinBuild::build(
                    chunk,
                    &self.key_cols,
                    &self.schema,
                )))
            })
            .clone()
    }
}

impl std::fmt::Debug for BuildSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildSide")
            .field("schema", &self.schema.names())
            .finish_non_exhaustive()
    }
}

/// A physical operator tree node.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// Scan row ranges of a stored table. Multiple ranges arise from RLE
    /// range skipping and from fraction assignment in parallel plans.
    Scan {
        table: Arc<Table>,
        ranges: Vec<(usize, usize)>,
        projection: Option<Vec<usize>>,
        /// True when the ranges came from the RLE IndexTable (explain/tests).
        via_rle_index: bool,
        /// Sargable conjuncts pushed below materialization by the
        /// compression-aware scan path: evaluated per zone-map block (skip),
        /// per dictionary code, or per RLE run before any chunk is built.
        pushed: Vec<Expr>,
    },
    /// Run-granularity aggregation straight over a table's RLE runs
    /// (Sect. 4.1.1 meets 4.2.4): COUNT/SUM are computed from run values and
    /// lengths without decoding a single row. Planned for a GROUP BY whose
    /// columns are all RLE (multi-column groups walk the intersected run
    /// boundaries) and whose aggregate arguments are RLE too.
    RunAgg {
        table: Arc<Table>,
        ranges: Vec<(usize, usize)>,
        group_cols: Vec<usize>,
        group_aliases: Vec<String>,
        aggs: Vec<AggCall>,
    },
    Filter {
        input: Box<PhysPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysPlan>,
        exprs: Vec<(Expr, String)>,
    },
    HashJoin {
        probe: Box<PhysPlan>,
        build: Arc<BuildSide>,
        /// Probe-side key column names.
        probe_keys: Vec<String>,
        join_type: JoinType,
    },
    HashAgg {
        input: Box<PhysPlan>,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggCall>,
        mode: AggMode,
    },
    Sort {
        input: Box<PhysPlan>,
        keys: Vec<SortKey>,
    },
    TopN {
        input: Box<PhysPlan>,
        keys: Vec<SortKey>,
        n: usize,
    },
    /// N-inputs-one-output Exchange (Sect. 4.2.1: Tableau 9.0 restricts the
    /// Exchange to a single output, no repartitioning and no order
    /// preservation). Output arrives in whatever order the branches produce.
    Exchange { inputs: Vec<PhysPlan> },
}

impl PhysPlan {
    /// Output schema of this physical node.
    pub fn schema(&self) -> Result<SchemaRef> {
        match self {
            PhysPlan::Scan {
                table, projection, ..
            } => Ok(match projection {
                None => Arc::clone(table.schema()),
                Some(idx) => Arc::new(table.schema().project(idx)),
            }),
            PhysPlan::RunAgg {
                table,
                group_cols,
                group_aliases,
                aggs,
                ..
            } => {
                let gb: Vec<(Expr, String)> = group_cols
                    .iter()
                    .zip(group_aliases)
                    .map(|(&ci, alias)| {
                        let name = table.schema().field(ci).name.clone();
                        (Expr::Column(name), alias.clone())
                    })
                    .collect();
                agg_schema(table.schema(), &gb, aggs)
            }
            PhysPlan::Filter { input, .. } => input.schema(),
            PhysPlan::Project { input, exprs } => project_schema(&*input.schema()?, exprs),
            PhysPlan::HashJoin { probe, build, .. } => {
                Ok(Arc::new(probe.schema()?.join(&build.schema)))
            }
            PhysPlan::HashAgg {
                input,
                group_by,
                aggs,
                ..
            } => agg_schema(input.schema()?.as_ref(), group_by, aggs),
            PhysPlan::Sort { input, .. } | PhysPlan::TopN { input, .. } => input.schema(),
            PhysPlan::Exchange { inputs } => inputs
                .first()
                .ok_or_else(|| TvError::Plan("empty Exchange".into()))?
                .schema(),
        }
    }

    /// Indented explain text.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, 0);
        s
    }

    fn render(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::Scan {
                table,
                ranges,
                projection,
                via_rle_index,
                pushed,
            } => {
                let rows: usize = ranges.iter().map(|&(_, l)| l).sum();
                let _ = write!(out, "{pad}Scan {} rows={rows}", table.name());
                if *via_rle_index {
                    let _ = write!(out, " via-rle-index ranges={}", ranges.len());
                }
                if !pushed.is_empty() {
                    let preds: Vec<String> = pushed.iter().map(|e| e.to_string()).collect();
                    let _ = write!(out, " pushed=[{}]", preds.join(" AND "));
                }
                if let Some(p) = projection {
                    let names: Vec<&str> = p
                        .iter()
                        .map(|&i| table.schema().field(i).name.as_str())
                        .collect();
                    let _ = write!(out, " [{}]", names.join(", "));
                }
                let _ = writeln!(out);
            }
            PhysPlan::RunAgg {
                table,
                ranges,
                group_cols,
                group_aliases,
                aggs,
            } => {
                let rows: usize = ranges.iter().map(|&(_, l)| l).sum();
                let gb: Vec<String> = group_cols
                    .iter()
                    .zip(group_aliases)
                    .map(|(&ci, alias)| format!("{} AS {alias}", table.schema().field(ci).name))
                    .collect();
                let ag: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{pad}RunAgg {} rows={rows} [{}] [{}]",
                    table.name(),
                    gb.join(", "),
                    ag.join(", ")
                );
            }
            PhysPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter {predicate}");
                input.render(out, depth + 1);
            }
            PhysPlan::Project { input, exprs } => {
                let items: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                let _ = writeln!(out, "{pad}Project {}", items.join(", "));
                input.render(out, depth + 1);
            }
            PhysPlan::HashJoin {
                probe,
                build,
                probe_keys,
                join_type,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashJoin({join_type:?}) probe-keys=[{}]",
                    probe_keys.join(", ")
                );
                probe.render(out, depth + 1);
                let _ = writeln!(out, "{}build (shared):", "  ".repeat(depth + 1));
                build.plan.render(out, depth + 2);
            }
            PhysPlan::HashAgg {
                input,
                group_by,
                aggs,
                mode,
                ..
            } => {
                let gb: Vec<String> = group_by
                    .iter()
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect();
                let ag: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{pad}HashAgg({mode:?}) [{}] [{}]",
                    gb.join(", "),
                    ag.join(", ")
                );
                input.render(out, depth + 1);
            }
            PhysPlan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}Sort {}", fmt_keys(keys));
                input.render(out, depth + 1);
            }
            PhysPlan::TopN { input, keys, n } => {
                let _ = writeln!(out, "{pad}TopN {n} by {}", fmt_keys(keys));
                input.render(out, depth + 1);
            }
            PhysPlan::Exchange { inputs } => {
                let _ = writeln!(out, "{pad}Exchange inputs={}", inputs.len());
                for i in inputs {
                    i.render(out, depth + 1);
                }
            }
        }
    }
}

fn fmt_keys(keys: &[SortKey]) -> String {
    keys.iter()
        .map(|k| format!("{} {}", k.column, if k.asc { "ASC" } else { "DESC" }))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The field `name` that evaluating `e` over `in_schema` produces: the
/// expression's type, and a plain column's collation.
fn expr_field(in_schema: &Schema, e: &Expr, name: &str) -> Result<Field> {
    let collation = match e {
        Expr::Column(c) => in_schema.field_by_name(c)?.collation,
        _ => Default::default(),
    };
    Ok(Field::new(name, e.data_type(in_schema)?).with_collation(collation))
}

/// Output schema of a projection: one field per `(expr, name)` pair.
pub fn project_schema(in_schema: &Schema, exprs: &[(Expr, String)]) -> Result<SchemaRef> {
    let fields = exprs
        .iter()
        .map(|(e, name)| expr_field(in_schema, e, name))
        .collect::<Result<_>>()?;
    Ok(Arc::new(Schema::new_unchecked(fields)))
}

/// Output schema of an aggregate node (hash in every mode, and
/// run-granularity): the group columns, then one column per call.
pub fn agg_schema(
    in_schema: &Schema,
    group_by: &[(Expr, String)],
    aggs: &[AggCall],
) -> Result<SchemaRef> {
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for (e, name) in group_by {
        fields.push(expr_field(in_schema, e, name)?);
    }
    for a in aggs {
        fields.push(Field::new(a.alias.clone(), a.output_type(in_schema)?));
    }
    Ok(Arc::new(Schema::new_unchecked(fields)))
}

/// Maximum fraction of runs a filter may select and still use RLE range
/// skipping (beyond this a full scan is cheaper).
const RLE_MAX_RUN_FRACTION: f64 = 0.5;

/// Controls handed to the physical planner.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalOptions {
    /// Enable the Sect. 4.3 RLE IndexTable range-skipping rewrite.
    pub enable_rle_index: bool,
    /// Push sargable conjuncts into the scan: zone-map block skipping,
    /// predicate-on-codes, and run-granularity filtering before chunk
    /// materialization.
    pub enable_scan_pushdown: bool,
    /// Plan [`PhysPlan::RunAgg`]: COUNT/SUM/MIN/MAX over RLE runs without
    /// decoding.
    pub enable_run_agg: bool,
}

impl Default for PhysicalOptions {
    fn default() -> Self {
        PhysicalOptions {
            enable_rle_index: true,
            enable_scan_pushdown: true,
            enable_run_agg: true,
        }
    }
}

/// Resolver from table names to stored tables (the TDE database).
pub trait TableProvider {
    fn table(&self, name: &str) -> Result<Arc<Table>>;
}

impl TableProvider for tabviz_storage::Database {
    fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.resolve(name)
    }
}

/// Build a *serial* physical plan from an optimized logical plan.
pub fn create_physical(
    plan: &LogicalPlan,
    tables: &dyn TableProvider,
    options: &PhysicalOptions,
) -> Result<PhysPlan> {
    match plan {
        LogicalPlan::TableScan { table, projection } => {
            let t = tables.table(table)?;
            let proj = match projection {
                None => None,
                Some(cols) => Some(
                    cols.iter()
                        .map(|c| t.schema().index_of(c))
                        .collect::<Result<Vec<_>>>()?,
                ),
            };
            let rows = t.row_count();
            Ok(PhysPlan::Scan {
                table: t,
                ranges: vec![(0, rows)],
                projection: proj,
                via_rle_index: false,
                pushed: vec![],
            })
        }
        LogicalPlan::Select { input, predicate } => {
            // RLE range-skipping: Select directly over a TableScan whose
            // predicate (or some conjuncts of it) constrains a single
            // RLE-encoded column.
            if options.enable_rle_index {
                if let LogicalPlan::TableScan { table, projection } = input.as_ref() {
                    let t = tables.table(table)?;
                    if let Some(planned) = try_rle_scan(&t, projection.as_deref(), predicate)? {
                        return Ok(planned);
                    }
                }
            }
            let child = create_physical(input, tables, options)?;
            Ok(PhysPlan::Filter {
                input: Box::new(child),
                predicate: predicate.clone(),
            })
        }
        LogicalPlan::Project { input, exprs } => Ok(PhysPlan::Project {
            input: Box::new(create_physical(input, tables, options)?),
            exprs: exprs.clone(),
        }),
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let probe = create_physical(left, tables, options)?;
            let build_plan = create_physical(right, tables, options)?;
            let build_schema = build_plan.schema()?;
            let key_cols: Vec<usize> = on
                .iter()
                .map(|(_, r)| build_schema.index_of(r))
                .collect::<Result<_>>()?;
            let probe_keys: Vec<String> = on.iter().map(|(l, _)| l.clone()).collect();
            Ok(PhysPlan::HashJoin {
                probe: Box::new(probe),
                build: Arc::new(BuildSide::new(build_plan, build_schema, key_cols)),
                probe_keys,
                join_type: *join_type,
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Run-granularity kernel: aggregate straight over RLE runs when
            // neither the group column nor any aggregate argument needs a
            // decode (no materialization at all). Everything else, sorted
            // input included, goes through the one hash aggregate: its
            // packed-key kernels beat a run-boundary walk over `Value` rows
            // even where the input arrives grouped (EXPERIMENTS.md E14).
            if options.enable_run_agg {
                if let LogicalPlan::TableScan { table, .. } = input.as_ref() {
                    let t = tables.table(table)?;
                    if let Some(plan) = try_run_agg(&t, group_by, aggs) {
                        return Ok(plan);
                    }
                }
            }
            Ok(PhysPlan::HashAgg {
                input: Box::new(create_physical(input, tables, options)?),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                mode: AggMode::Single,
            })
        }
        LogicalPlan::Order { input, keys } => Ok(PhysPlan::Sort {
            input: Box::new(create_physical(input, tables, options)?),
            keys: keys.clone(),
        }),
        LogicalPlan::TopN { input, keys, n } => Ok(PhysPlan::TopN {
            input: Box::new(create_physical(input, tables, options)?),
            keys: keys.clone(),
            n: *n,
        }),
        LogicalPlan::Distinct { .. } => Err(TvError::Plan(
            "Distinct must be compiled away before physical planning".into(),
        )),
    }
}

/// Attempt the Sect. 4.3 rewrite. Returns a plan when at least one conjunct
/// is a supported single-RLE-column predicate that is selective enough.
fn try_rle_scan(
    table: &Arc<Table>,
    projection: Option<&[String]>,
    predicate: &Expr,
) -> Result<Option<PhysPlan>> {
    let conjuncts = crate::optimize::split_conjuncts(predicate);
    // Find the first conjunct constraining exactly one RLE-encoded column.
    let mut chosen: Option<(usize, Expr)> = None;
    for c in &conjuncts {
        let cols = c.columns();
        if cols.len() != 1 {
            continue;
        }
        let col_name = cols.iter().next().unwrap();
        let Ok(idx) = table.schema().index_of(col_name) else {
            continue;
        };
        let stored = table.column(idx);
        if stored.rle_runs().is_none() {
            continue;
        }
        if !supported_run_predicate(c) {
            continue;
        }
        chosen = Some((idx, c.clone()));
        break;
    }
    let Some((col_idx, run_pred)) = chosen else {
        return Ok(None);
    };

    let stored = table.column(col_idx);
    let runs = stored.rle_runs().expect("checked above");
    if runs.is_empty() {
        return Ok(None);
    }

    // Evaluate the predicate against the IndexTable's value column.
    let field = table.schema().field(col_idx).clone();
    let run_values = ColumnVec::from_iter_typed(field.dtype, runs.iter().map(|r| &r.value))?;
    let run_schema = Arc::new(Schema::new_unchecked(vec![field]));
    let run_chunk = Chunk::new(run_schema, vec![run_values])?;
    let mask = run_pred.eval_predicate(&run_chunk)?;

    let selected: usize = mask.iter().filter(|&&m| m).count();
    if selected as f64 > RLE_MAX_RUN_FRACTION * runs.len() as f64 {
        return Ok(None); // not selective enough; full scan wins
    }

    // Matching runs become scan ranges; adjacent ranges merge.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for (run, &m) in runs.iter().zip(&mask) {
        if !m {
            continue;
        }
        match ranges.last_mut() {
            Some((start, len)) if *start + *len == run.start => *len += run.count,
            _ => ranges.push((run.start, run.count)),
        }
    }

    let proj_idx = match projection {
        None => None,
        Some(cols) => Some(
            cols.iter()
                .map(|c| table.schema().index_of(c))
                .collect::<Result<Vec<_>>>()?,
        ),
    };
    let scan = PhysPlan::Scan {
        table: Arc::clone(table),
        ranges,
        projection: proj_idx,
        via_rle_index: true,
        pushed: vec![],
    };
    // Residual conjuncts (everything except the one answered by ranges).
    let residual: Vec<Expr> = conjuncts.into_iter().filter(|c| *c != run_pred).collect();
    if residual.is_empty() {
        Ok(Some(scan))
    } else {
        Ok(Some(PhysPlan::Filter {
            input: Box::new(scan),
            predicate: tabviz_tql::expr::and_all(residual),
        }))
    }
}

/// Plan [`PhysPlan::RunAgg`] when every piece of the aggregate is answerable
/// at run granularity: one or more group columns, each stored RLE (the
/// executor walks their intersected run boundaries); aggregates are
/// `COUNT(*)`, `COUNT(col)`, `SUM(col)`, `MIN(col)` or `MAX(col)` with the
/// argument column RLE too (for MIN/MAX each run contributes its value once —
/// the run length cannot change an extremum). Anything else (plain/delta
/// arguments, expressions, AVG/COUNTD, global aggregates) falls through to
/// the ordinary decode-then-aggregate paths.
fn try_run_agg(
    table: &Arc<Table>,
    group_by: &[(Expr, String)],
    aggs: &[AggCall],
) -> Option<PhysPlan> {
    use tabviz_tql::agg::AggFunc;
    if group_by.is_empty() {
        return None;
    }
    let is_rle = |idx: usize| {
        matches!(
            table.column(idx).data(),
            tabviz_storage::ColumnData::Rle { .. }
        )
    };
    let mut group_cols = Vec::with_capacity(group_by.len());
    let mut group_aliases = Vec::with_capacity(group_by.len());
    for (expr, alias) in group_by {
        let Expr::Column(name) = expr else {
            return None;
        };
        let idx = table.schema().index_of(name).ok()?;
        if !is_rle(idx) {
            return None;
        }
        group_cols.push(idx);
        group_aliases.push(alias.clone());
    }
    for a in aggs {
        match (a.func, &a.arg) {
            (AggFunc::Count, None) => {}
            (
                AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max,
                Some(Expr::Column(c)),
            ) => {
                let idx = table.schema().index_of(c).ok()?;
                if !is_rle(idx) {
                    return None;
                }
            }
            _ => return None,
        }
    }
    let rows = table.row_count();
    Some(PhysPlan::RunAgg {
        table: Arc::clone(table),
        ranges: vec![(0, rows)],
        group_cols,
        group_aliases,
        aggs: aggs.to_vec(),
    })
}

/// Predicate shapes the IndexTable can answer exactly: comparisons against
/// literals, IN lists, ranges and null tests on the run value.
pub(crate) fn supported_run_predicate(e: &Expr) -> bool {
    use tabviz_tql::expr::UnaryOp;
    match e {
        Expr::Binary { op, left, right } => {
            op.is_comparison()
                && matches!(
                    (left.as_ref(), right.as_ref()),
                    (Expr::Column(_), Expr::Literal(_)) | (Expr::Literal(_), Expr::Column(_))
                )
        }
        Expr::In { expr, .. } | Expr::Between { expr, .. } => {
            matches!(expr.as_ref(), Expr::Column(_))
        }
        Expr::Unary { op, expr } => {
            matches!(op, UnaryOp::IsNull | UnaryOp::IsNotNull)
                && matches!(expr.as_ref(), Expr::Column(_))
        }
        _ => false,
    }
}

/// Drive a physical plan to completion, concatenating output chunks.
pub fn execute_to_chunk(plan: &PhysPlan) -> Result<Chunk> {
    let mut op = crate::exec::make_op(plan)?;
    let schema = op.schema();
    let mut chunks = Vec::new();
    while let Some(c) = op.next()? {
        chunks.push(c);
    }
    Chunk::concat(schema, &chunks)
}
