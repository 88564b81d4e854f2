//! The TDE façade: text or logical plans in, chunks out.
//!
//! "In both cases Tableau treats the TDE like any other supported database.
//! It pre-processes query batches, compiles queries in TQL and executes them
//! against the engine" (Sect. 4.1.4). [`Tde`] is that engine boundary: it
//! owns a storage [`Database`], compiles TQL through the binder / rewriter /
//! optimizer pipeline, plans physically (serial, then parallel), executes,
//! and returns results with the schema the caller's query asked for.

use std::sync::Arc;
use tabviz_common::{Chunk, Result, SchemaRef, TvError};
use tabviz_storage::Database;
use tabviz_tql::{parse_plan, LogicalPlan};

use crate::catalog::TdeCatalog;
use crate::compile::compile;
use crate::optimize::{optimize, OptimizerConfig};
use crate::parallel::{parallelize, ParallelOptions};
use crate::physical::{create_physical, execute_to_chunk, PhysPlan, PhysicalOptions};

/// All execution knobs in one place. Every field backs a paper experiment:
/// the defaults are "Tableau 9.0" behavior; switching features off recreates
/// the earlier-version baselines the paper compares against.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    pub optimizer: OptimizerConfig,
    pub physical: PhysicalOptions,
    pub parallel: ParallelOptions,
    /// `false` reproduces the pre-9.0 single-threaded engine.
    pub disable_parallel: bool,
}

impl ExecOptions {
    /// Serial execution with all optimizations (the "Tableau 8.x" baseline
    /// for the parallelism experiments).
    pub fn serial() -> Self {
        ExecOptions {
            disable_parallel: true,
            ..Default::default()
        }
    }
}

/// A running Tableau Data Engine instance.
pub struct Tde {
    db: Arc<Database>,
}

impl Tde {
    pub fn new(db: Arc<Database>) -> Self {
        Tde { db }
    }

    /// Open an empty in-memory engine.
    pub fn empty(name: &str) -> Self {
        Tde {
            db: Arc::new(Database::new(name)),
        }
    }

    /// Open from a packed single-file database image.
    pub fn open_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Ok(Tde {
            db: Arc::new(tabviz_storage::pack::unpack_from_file(path)?),
        })
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    pub fn catalog(&self) -> TdeCatalog {
        TdeCatalog::new(Arc::clone(&self.db))
    }

    /// Parse and execute TQL text with default options.
    pub fn query(&self, tql: &str) -> Result<Chunk> {
        self.query_with(tql, &ExecOptions::default())
    }

    /// Parse and execute TQL text.
    pub fn query_with(&self, tql: &str, options: &ExecOptions) -> Result<Chunk> {
        let plan = parse_plan(tql)?;
        self.execute_plan(&plan, options)
    }

    /// Compile, optimize, plan and execute a logical plan. The whole
    /// pipeline runs under a `tde_exec` span (detail = rows produced), with
    /// per-operator timings recorded by the execution layer.
    pub fn execute_plan(&self, plan: &LogicalPlan, options: &ExecOptions) -> Result<Chunk> {
        let mut span = tabviz_obs::span(tabviz_obs::stage::TDE_EXEC);
        let (phys, wanted) = self.plan_pipeline(plan, options)?;
        let out = execute_to_chunk(&phys)?;
        // A result that shares a stored dictionary far larger than itself
        // would pin it (and be priced by it) in every cache it lands in.
        let out = conform(out, &wanted)?.compact_strings();
        span.detail(out.len() as u64);
        Ok(out)
    }

    /// The physical plan that `execute_plan` would run (for explain/tests).
    pub fn plan_physical(&self, plan: &LogicalPlan, options: &ExecOptions) -> Result<PhysPlan> {
        Ok(self.plan_pipeline(plan, options)?.0)
    }

    /// Explain: logical → optimized logical → physical.
    pub fn explain(&self, tql: &str, options: &ExecOptions) -> Result<String> {
        let plan = parse_plan(tql)?;
        let catalog = self.catalog();
        let compiled = compile(plan.clone(), &catalog)?;
        let optimized = optimize(compiled, &catalog, &options.optimizer)?;
        let phys = self.plan_pipeline(&plan, options)?.0;
        Ok(format!(
            "== logical ==\n{}== optimized ==\n{}== physical ==\n{}",
            plan.canonical_text(),
            optimized.canonical_text(),
            phys.explain()
        ))
    }

    fn plan_pipeline(
        &self,
        plan: &LogicalPlan,
        options: &ExecOptions,
    ) -> Result<(PhysPlan, SchemaRef)> {
        let catalog = self.catalog();
        // The caller-visible schema, captured before optimization: pruning
        // and culling may drop or reorder internal columns.
        let wanted = plan.schema(&catalog)?;
        let compiled = compile(plan.clone(), &catalog)?;
        let optimized = optimize(compiled, &catalog, &options.optimizer)?;
        let serial = create_physical(&optimized, self.db.as_ref(), &catalog, &options.physical)?;
        let serial = if options.physical.enable_scan_pushdown {
            crate::optimize::push_scan_predicates(serial)
        } else {
            serial
        };
        let phys = if options.disable_parallel {
            serial
        } else {
            parallelize(&serial, &options.parallel)?
        };
        Ok((phys, wanted))
    }
}

/// Project/reorder `out` to match the caller's requested schema by name.
fn conform(out: Chunk, wanted: &SchemaRef) -> Result<Chunk> {
    let have = out.schema();
    if have.names() == wanted.names() {
        return Ok(out);
    }
    let idx: Vec<usize> = wanted
        .names()
        .iter()
        .map(|n| {
            have.index_of(n)
                .map_err(|_| TvError::Exec(format!("planner lost output column '{n}'")))
        })
        .collect::<Result<_>>()?;
    Ok(out.project(&idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_storage::Table;

    fn engine() -> Tde {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("origin", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let carriers = ["AA", "DL", "WN"];
        let origins = ["JFK", "LAX", "SFO", "ORD"];
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| {
                vec![
                    Value::Str(carriers[i % 3].into()),
                    Value::Str(origins[i % 4].into()),
                    Value::Int((i % 50) as i64),
                ]
            })
            .collect();
        let chunk = tabviz_common::Chunk::from_rows(schema, &rows).unwrap();
        let tde = Tde::empty("faa");
        tde.database()
            .put(Table::from_chunk("flights", &chunk, &["carrier"]).unwrap())
            .unwrap();
        tde
    }

    #[test]
    fn end_to_end_tql() {
        let tde = engine();
        let out = tde
            .query(
                "(topn 2 ((n desc))
                   (aggregate ((carrier)) ((count as n) (avg delay as avg_delay))
                     (select (>= delay 10) (scan flights))))",
            )
            .unwrap();
        assert_eq!(out.schema().names(), vec!["carrier", "n", "avg_delay"]);
        assert_eq!(out.len(), 2);
        // 40 of 50 delay values pass; 1000 rows / 3 carriers ⇒ AA has 334 rows
        let n0 = out.row(0)[1].as_int().unwrap();
        assert!(n0 >= 266, "top carrier count {n0}");
    }

    #[test]
    fn serial_and_parallel_agree() {
        let tde = engine();
        let q = "(aggregate ((origin)) ((count as n) (sum delay as total)) (scan flights))";
        let mut serial = tde.query_with(q, &ExecOptions::serial()).unwrap().to_rows();
        let mut fast_opts = ExecOptions::default();
        fast_opts.parallel.profile.min_work_per_thread = 10;
        let mut parallel = tde.query_with(q, &fast_opts).unwrap().to_rows();
        serial.sort();
        parallel.sort();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn output_schema_is_conformed() {
        let tde = engine();
        // Pruning narrows the scan, but the bare scan query returns all
        // columns in declared order.
        let out = tde.query("(scan flights)").unwrap();
        assert_eq!(out.schema().names(), vec!["carrier", "origin", "delay"]);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn distinct_compiles_and_runs() {
        let tde = engine();
        let out = tde.query("(distinct (scan flights carrier))").unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn explain_shows_stages() {
        let tde = engine();
        let text = tde
            .explain(
                "(aggregate ((carrier)) ((count as n)) (scan flights))",
                &ExecOptions::default(),
            )
            .unwrap();
        assert!(text.contains("== logical =="));
        assert!(text.contains("== optimized =="));
        assert!(text.contains("== physical =="));
    }

    #[test]
    fn errors_surface() {
        let tde = engine();
        assert!(tde.query("(scan missing)").is_err());
        assert!(tde.query("(select (> nope 1) (scan flights))").is_err());
        assert!(tde.query("not tql at all(").is_err());
    }

    #[test]
    fn run_agg_used_on_rle_group() {
        // carrier is sorted → dict-rle, and COUNT(*) needs no other column,
        // so the run-granularity aggregate takes over the whole query.
        let tde = engine();
        let plan = parse_plan("(aggregate ((carrier)) ((count as n)) (scan flights))").unwrap();
        let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
        assert!(phys.explain().contains("RunAgg"), "{}", phys.explain());
    }

    #[test]
    fn streaming_agg_used_on_sorted_group() {
        let tde = engine();
        let mut opts = ExecOptions::serial();
        opts.physical.enable_run_agg = false;
        let plan = parse_plan("(aggregate ((carrier)) ((count as n)) (scan flights))").unwrap();
        let phys = tde.plan_physical(&plan, &opts).unwrap();
        assert!(phys.explain().contains("StreamAgg"), "{}", phys.explain());
        // Unsorted group column falls back to hash.
        let plan2 = parse_plan("(aggregate ((origin)) ((count as n)) (scan flights))").unwrap();
        let phys2 = tde.plan_physical(&plan2, &opts).unwrap();
        assert!(phys2.explain().contains("HashAgg"), "{}", phys2.explain());
    }

    #[test]
    fn scan_pushdown_moves_sargable_filter_into_scan() {
        let tde = engine();
        let plan = parse_plan("(select (> delay 10) (scan flights))").unwrap();
        let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
        let text = phys.explain();
        assert!(text.contains("pushed=["), "{text}");
        assert!(!text.contains("Filter"), "{text}");
        let out = tde.execute_plan(&plan, &ExecOptions::serial()).unwrap();
        let mut opts = ExecOptions::serial();
        opts.physical.enable_scan_pushdown = false;
        let baseline = tde.execute_plan(&plan, &opts).unwrap();
        assert_eq!(out.len(), baseline.len());
        assert!(!tde
            .plan_physical(&plan, &opts)
            .unwrap()
            .explain()
            .contains("pushed=["));
    }

    #[test]
    fn scan_pushdown_keeps_non_sargable_residual() {
        let tde = engine();
        // Two columns in one conjunct: not sargable, must stay in the Filter.
        let plan = parse_plan(
            "(select (and (> delay 10) (or (> delay 100) (= carrier \"AA\"))) (scan flights))",
        )
        .unwrap();
        let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
        let text = phys.explain();
        assert!(text.contains("pushed=["), "{text}");
        assert!(text.contains("Filter"), "{text}");
        let out = tde.execute_plan(&plan, &ExecOptions::serial()).unwrap();
        let mut opts = ExecOptions::serial();
        opts.physical.enable_scan_pushdown = false;
        let baseline = tde.execute_plan(&plan, &opts).unwrap();
        assert_eq!(out.len(), baseline.len());
    }

    #[test]
    fn rle_index_scan_planned_for_selective_filter() {
        let tde = engine();
        let plan = parse_plan("(select (= carrier \"AA\") (scan flights))").unwrap();
        let phys = tde.plan_physical(&plan, &ExecOptions::serial()).unwrap();
        assert!(
            phys.explain().contains("via-rle-index"),
            "sorted carrier column should be RLE and range-skippable:\n{}",
            phys.explain()
        );
        let out = tde.execute_plan(&plan, &ExecOptions::serial()).unwrap();
        assert_eq!(out.len(), 334);
        // And correctness matches the non-indexed path.
        let mut opts = ExecOptions::serial();
        opts.physical.enable_rle_index = false;
        let baseline = tde.execute_plan(&plan, &opts).unwrap();
        assert_eq!(out.len(), baseline.len());
    }

    #[test]
    fn pack_roundtrip_through_engine() {
        let tde = engine();
        let path = std::env::temp_dir().join("tabviz_engine_pack.tvdb");
        tabviz_storage::pack::pack_to_file(tde.database(), &path).unwrap();
        let tde2 = Tde::open_file(&path).unwrap();
        let q = "(aggregate ((carrier)) ((count as n)) (scan flights))";
        assert_eq!(
            tde.query(q).unwrap().sort_by(&[(0, true)]),
            tde2.query(q).unwrap().sort_by(&[(0, true)])
        );
        std::fs::remove_file(path).ok();
    }
}
