//! Chunked Volcano execution operators.
//!
//! Sect. 4.1.3: "The TDE execution engine is based on the Volcano execution
//! framework ... Operators are of two types: streaming, and stop-and-go."
//! Here operators pull [`Chunk`]s instead of single rows; `Scan`, `Filter`,
//! `Project`, `StreamAgg` and the probe phase of `HashJoin` are streaming,
//! while `Sort`, `TopN` and `HashAgg` are stop-and-go.

pub mod agg;
pub mod exchange;
pub mod join;
pub(crate) mod key;
pub(crate) mod scan_filter;

use std::sync::Arc;
use tabviz_common::{Chunk, Result, SchemaRef, TvError};
use tabviz_storage::Table;
use tabviz_tql::expr::Expr;
use tabviz_tql::SortKey;

use crate::physical::PhysPlan;

/// Rows per chunk produced by scans.
pub const CHUNK_ROWS: usize = 64 * 1024;

/// A physical operator: pulls chunks until `None`.
pub trait PhysOp: Send {
    fn schema(&self) -> SchemaRef;
    fn next(&mut self) -> Result<Option<Chunk>>;
}

/// Instantiate the operator tree for a physical plan. Every operator is
/// wrapped in a `TimedOp` that records its accumulated busy time (self +
/// children, minus nothing — wall time inside `next()`) into the thread's
/// trace when it exhausts, so query profiles show per-operator timings.
pub fn make_op(plan: &PhysPlan) -> Result<Box<dyn PhysOp>> {
    Ok(Box::new(TimedOp::new(op_stage(plan), make_op_raw(plan)?)))
}

/// Static stage name for an operator (trace events need `&'static str`).
fn op_stage(plan: &PhysPlan) -> &'static str {
    match plan {
        PhysPlan::Scan { .. } => "tde_scan",
        PhysPlan::RunAgg { .. } => "tde_run_agg",
        PhysPlan::Filter { .. } => "tde_filter",
        PhysPlan::Project { .. } => "tde_project",
        PhysPlan::HashJoin { .. } => "tde_hash_join",
        PhysPlan::HashAgg { .. } => "tde_hash_agg",
        PhysPlan::StreamAgg { .. } => "tde_stream_agg",
        PhysPlan::Sort { .. } => "tde_sort",
        PhysPlan::TopN { .. } => "tde_topn",
        PhysPlan::Exchange { .. } => "tde_exchange",
    }
}

/// Wrapper measuring time spent inside an operator's `next()` calls and
/// counting rows produced; records one trace event when the operator is
/// exhausted (or dropped early).
struct TimedOp {
    stage: &'static str,
    inner: Box<dyn PhysOp>,
    busy: std::time::Duration,
    rows: u64,
    recorded: bool,
}

impl TimedOp {
    fn new(stage: &'static str, inner: Box<dyn PhysOp>) -> Self {
        TimedOp {
            stage,
            inner,
            busy: std::time::Duration::ZERO,
            rows: 0,
            recorded: false,
        }
    }

    fn flush(&mut self) {
        if !self.recorded {
            self.recorded = true;
            tabviz_obs::record(self.stage, None, Some(self.rows), self.busy);
        }
    }
}

impl PhysOp for TimedOp {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        let t0 = std::time::Instant::now();
        let out = self.inner.next();
        self.busy += t0.elapsed();
        match &out {
            Ok(Some(chunk)) => self.rows += chunk.len() as u64,
            Ok(None) | Err(_) => self.flush(),
        }
        out
    }
}

impl Drop for TimedOp {
    fn drop(&mut self) {
        self.flush();
    }
}

fn make_op_raw(plan: &PhysPlan) -> Result<Box<dyn PhysOp>> {
    Ok(match plan {
        PhysPlan::Scan {
            table,
            ranges,
            projection,
            pushed,
            ..
        } => Box::new(ScanOp::with_pushdown(
            Arc::clone(table),
            ranges.clone(),
            projection.clone(),
            pushed,
        )?),
        PhysPlan::RunAgg {
            table,
            ranges,
            group_cols,
            aggs,
            ..
        } => {
            let schema = plan.schema()?;
            Box::new(agg::RunAggOp::new(
                Arc::clone(table),
                ranges.clone(),
                group_cols.clone(),
                aggs.clone(),
                schema,
            ))
        }
        PhysPlan::Filter { input, predicate } => Box::new(FilterOp {
            input: make_op(input)?,
            predicate: predicate.clone(),
        }),
        PhysPlan::Project { input, exprs } => {
            let schema = plan.schema()?;
            Box::new(ProjectOp {
                input: make_op(input)?,
                exprs: exprs.clone(),
                schema,
            })
        }
        PhysPlan::HashJoin {
            probe,
            build,
            probe_keys,
            join_type,
        } => {
            let schema = plan.schema()?;
            Box::new(join::HashJoinOp::new(
                make_op(probe)?,
                Arc::clone(build),
                probe_keys.clone(),
                *join_type,
                schema,
            )?)
        }
        PhysPlan::HashAgg {
            input,
            group_by,
            aggs,
            kernels,
            ..
        } => {
            let schema = plan.schema()?;
            // Filter fusion: a residual Filter directly under the aggregate
            // is absorbed as a selection vector — surviving rows feed the
            // grouping kernel without rematerializing a chunk.
            let (child, residual) = match (input.as_ref(), *kernels) {
                (
                    PhysPlan::Filter {
                        input: finput,
                        predicate,
                    },
                    true,
                ) => (make_op(finput)?, Some(predicate.clone())),
                _ => (make_op(input)?, None),
            };
            let mut op = agg::HashAggOp::new(child, group_by.clone(), aggs.clone(), schema)
                .with_kernels(*kernels);
            if let Some(pred) = residual {
                op = op.with_residual(pred);
            }
            Box::new(op)
        }
        PhysPlan::StreamAgg {
            input,
            group_by,
            aggs,
        } => {
            let schema = plan.schema()?;
            Box::new(agg::StreamAggOp::new(
                make_op(input)?,
                group_by.clone(),
                aggs.clone(),
                schema,
            ))
        }
        PhysPlan::Sort { input, keys } => Box::new(SortOp {
            input: Some(make_op(input)?),
            keys: keys.clone(),
            done: false,
        }),
        PhysPlan::TopN { input, keys, n } => Box::new(TopNOp {
            input: Some(make_op(input)?),
            keys: keys.clone(),
            n: *n,
            done: false,
        }),
        PhysPlan::Exchange { inputs, ordered } => Box::new(if *ordered {
            exchange::ExchangeOp::new_ordered(inputs)?
        } else {
            exchange::ExchangeOp::new(inputs)?
        }),
    })
}

/// Streaming scan over the assigned row ranges of a table. With pushed-down
/// predicates the scan walks zone-map blocks: blocks the zone test refutes
/// are skipped whole, surviving blocks are filtered on codes / runs /
/// decoded segments, and only the selected rows are materialized (one copy,
/// via `StoredColumn::decode_rows`).
pub struct ScanOp {
    table: Arc<Table>,
    ranges: Vec<(usize, usize)>,
    projection: Option<Vec<usize>>,
    schema: SchemaRef,
    preds: Option<scan_filter::ScanPredicates>,
    /// (range index, offset within range)
    cursor: (usize, usize),
    /// Per-scan pruning tallies, reported as one `scan_prune` event trio
    /// into the query's trace at exhaustion (the global `tv_tde_scan_*`
    /// counters aggregate across queries; these attribute to *this* one).
    /// Cells because `filtered_window` runs under a shared borrow.
    blocks_skipped: std::cell::Cell<u64>,
    blocks_total: std::cell::Cell<u64>,
    rows_prefiltered: std::cell::Cell<u64>,
    prune_reported: std::cell::Cell<bool>,
}

impl ScanOp {
    pub fn new(
        table: Arc<Table>,
        ranges: Vec<(usize, usize)>,
        projection: Option<Vec<usize>>,
    ) -> Self {
        let schema = match &projection {
            None => Arc::clone(table.schema()),
            Some(idx) => Arc::new(table.schema().project(idx)),
        };
        ScanOp {
            table,
            ranges,
            projection,
            schema,
            preds: None,
            cursor: (0, 0),
            blocks_skipped: std::cell::Cell::new(0),
            blocks_total: std::cell::Cell::new(0),
            rows_prefiltered: std::cell::Cell::new(0),
            prune_reported: std::cell::Cell::new(false),
        }
    }

    /// A scan that evaluates the given conjuncts before materialization.
    pub fn with_pushdown(
        table: Arc<Table>,
        ranges: Vec<(usize, usize)>,
        projection: Option<Vec<usize>>,
        pushed: &[Expr],
    ) -> Result<Self> {
        let preds = scan_filter::ScanPredicates::compile(&table, pushed)?;
        let mut op = ScanOp::new(table, ranges, projection);
        op.preds = preds;
        Ok(op)
    }

    /// Filter one chunk-sized window through the zone maps and pushed
    /// predicates; returns the chunk of surviving rows, or `None` when the
    /// whole window is refuted.
    fn filtered_window(
        &self,
        preds: &scan_filter::ScanPredicates,
        wstart: usize,
        wlen: usize,
    ) -> Result<Option<Chunk>> {
        let wend = wstart + wlen;
        let mut selected: Vec<usize> = Vec::new();
        let mut skipped = 0u64;
        let mut range_pruned = 0u64;
        let mut visited = 0u64;
        // Blocks outside the sorted-column interval (established once per
        // scan by binary search over the zone maps) are refuted without even
        // consulting their zone entries.
        let interval = preds.block_interval();
        let mut pos = wstart;
        while pos < wend {
            let block = pos / tabviz_storage::BLOCK_ROWS;
            let seg_end = ((block + 1) * tabviz_storage::BLOCK_ROWS).min(wend);
            visited += 1;
            let in_range = interval.is_none_or(|(lo, hi)| block >= lo && block < hi);
            if in_range && preds.zone_allows(&self.table, block) {
                preds.select_segment(&self.table, pos, seg_end - pos, &mut selected)?;
            } else {
                skipped += 1;
                if !in_range {
                    range_pruned += 1;
                }
            }
            pos = seg_end;
        }
        let metrics = scan_filter::scan_metrics();
        metrics.blocks_skipped.add(skipped);
        metrics.sorted_range_pruned.add(range_pruned);
        metrics.rows_prefiltered.add((wlen - selected.len()) as u64);
        self.blocks_skipped.set(self.blocks_skipped.get() + skipped);
        self.blocks_total.set(self.blocks_total.get() + visited);
        self.rows_prefiltered
            .set(self.rows_prefiltered.get() + (wlen - selected.len()) as u64);
        if selected.is_empty() {
            return Ok(None);
        }
        if selected.len() == wlen {
            // Everything passed: plain range materialization, no gather.
            return Ok(Some(self.table.scan_range(
                wstart,
                wlen,
                self.projection.as_deref(),
            )?));
        }
        let proj: Vec<usize> = match &self.projection {
            Some(p) => p.clone(),
            None => (0..self.table.schema().len()).collect(),
        };
        let cols = proj
            .iter()
            .map(|&ci| self.table.column(ci).decode_rows(&selected))
            .collect::<Result<Vec<_>>>()?;
        Ok(Some(Chunk::new(Arc::clone(&self.schema), cols)?))
    }

    /// Attribute this scan's pruning to the current query: one
    /// [`tabviz_obs::stage::SCAN_PRUNE`] event per counter, emitted once at
    /// exhaustion so a trace shows how much work zone maps and pushed
    /// predicates saved.
    fn report_prune(&self) {
        if self.preds.is_none() || self.prune_reported.replace(true) {
            return;
        }
        for (label, n) in [
            ("blocks_skipped", self.blocks_skipped.get()),
            ("blocks_total", self.blocks_total.get()),
            ("rows_prefiltered", self.rows_prefiltered.get()),
        ] {
            tabviz_obs::event_with(tabviz_obs::stage::SCAN_PRUNE, Some(label), Some(n), None);
        }
    }
}

impl Drop for ScanOp {
    fn drop(&mut self) {
        // Early-terminated scans (TopN, consumer gone) still report.
        self.report_prune();
    }
}

impl PhysOp for ScanOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        loop {
            let (ri, off) = self.cursor;
            let Some(&(start, len)) = self.ranges.get(ri) else {
                self.report_prune();
                return Ok(None);
            };
            if off >= len {
                self.cursor = (ri + 1, 0);
                continue;
            }
            let take = (len - off).min(CHUNK_ROWS);
            self.cursor = (ri, off + take);
            match &self.preds {
                None => {
                    return Ok(Some(self.table.scan_range(
                        start + off,
                        take,
                        self.projection.as_deref(),
                    )?));
                }
                Some(preds) => {
                    if let Some(chunk) = self.filtered_window(preds, start + off, take)? {
                        return Ok(Some(chunk));
                    }
                    // Whole window refuted: advance to the next one.
                }
            }
        }
    }
}

/// Streaming filter.
pub struct FilterOp {
    input: Box<dyn PhysOp>,
    predicate: Expr,
}

impl PhysOp for FilterOp {
    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        while let Some(chunk) = self.input.next()? {
            let sel = self.predicate.eval_predicate_sel(&chunk)?;
            if sel.is_empty() {
                continue;
            }
            // The all-rows selection moves the chunk through untouched; a
            // partial one gathers once off the id list.
            let filtered = chunk.take_sel(&sel);
            if !filtered.is_empty() {
                return Ok(Some(filtered));
            }
        }
        Ok(None)
    }
}

/// Streaming projection (vectorized expression evaluation).
pub struct ProjectOp {
    input: Box<dyn PhysOp>,
    exprs: Vec<(Expr, String)>,
    schema: SchemaRef,
}

impl PhysOp for ProjectOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        match self.input.next()? {
            None => Ok(None),
            Some(chunk) => {
                let cols = self
                    .exprs
                    .iter()
                    .map(|(e, _)| e.eval(&chunk))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Some(Chunk::new(Arc::clone(&self.schema), cols)?))
            }
        }
    }
}

/// Resolve sort keys to `(column index, ascending)` pairs.
fn key_indices(schema: &SchemaRef, keys: &[SortKey]) -> Result<Vec<(usize, bool)>> {
    keys.iter()
        .map(|k| Ok((schema.index_of(&k.column)?, k.asc)))
        .collect()
}

/// Stop-and-go total sort.
pub struct SortOp {
    input: Option<Box<dyn PhysOp>>,
    keys: Vec<SortKey>,
    done: bool,
}

impl PhysOp for SortOp {
    fn schema(&self) -> SchemaRef {
        self.input.as_ref().expect("sort input taken").schema()
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut input = self
            .input
            .take()
            .ok_or_else(|| TvError::Exec("sort re-run".into()))?;
        let schema = input.schema();
        let mut chunks = Vec::new();
        while let Some(c) = input.next()? {
            chunks.push(c);
        }
        let all = Chunk::concat(Arc::clone(&schema), &chunks)?;
        let keys = key_indices(&schema, &self.keys)?;
        self.input = Some(input);
        if all.is_empty() {
            return Ok(None);
        }
        Ok(Some(all.sort_by(&keys)))
    }
}

/// Stop-and-go Top-N with periodic pruning so memory stays O(n).
pub struct TopNOp {
    input: Option<Box<dyn PhysOp>>,
    keys: Vec<SortKey>,
    n: usize,
    done: bool,
}

impl PhysOp for TopNOp {
    fn schema(&self) -> SchemaRef {
        self.input.as_ref().expect("topn input taken").schema()
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut input = self
            .input
            .take()
            .ok_or_else(|| TvError::Exec("topn re-run".into()))?;
        let schema = input.schema();
        let keys = key_indices(&schema, &self.keys)?;
        let mut buffer: Option<Chunk> = None;
        while let Some(c) = input.next()? {
            let merged = match buffer.take() {
                None => c,
                Some(b) => Chunk::concat(Arc::clone(&schema), &[b, c])?,
            };
            // Prune once the buffer grows well past n.
            buffer = Some(if merged.len() > self.n.saturating_mul(4).max(CHUNK_ROWS) {
                let sorted = merged.sort_by(&keys);
                sorted.slice(0, self.n.min(sorted.len()))
            } else {
                merged
            });
        }
        self.input = Some(input);
        match buffer {
            None => Ok(None),
            Some(b) => {
                let sorted = b.sort_by(&keys);
                Ok(Some(sorted.slice(0, self.n.min(sorted.len()))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::{DataType, Field, Schema, Value};
    use tabviz_tql::expr::{bin, col, lit, BinOp};

    fn table(rows: usize) -> Arc<Table> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ])
            .unwrap(),
        );
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| vec![Value::Int(i as i64), Value::Int((i % 10) as i64)])
            .collect();
        Arc::new(Table::from_chunk("t", &Chunk::from_rows(schema, &data).unwrap(), &[]).unwrap())
    }

    #[test]
    fn scan_chunks_and_ranges() {
        let t = table(10);
        let mut op = ScanOp::new(Arc::clone(&t), vec![(0, 3), (7, 2)], None);
        let c1 = op.next().unwrap().unwrap();
        assert_eq!(c1.len(), 3);
        let c2 = op.next().unwrap().unwrap();
        assert_eq!(c2.len(), 2);
        assert_eq!(c2.row(0)[0], Value::Int(7));
        assert!(op.next().unwrap().is_none());
    }

    #[test]
    fn scan_projection() {
        let t = table(4);
        let mut op = ScanOp::new(t, vec![(0, 4)], Some(vec![1]));
        let c = op.next().unwrap().unwrap();
        assert_eq!(c.schema().names(), vec!["v"]);
    }

    #[test]
    fn filter_drops_rows() {
        let t = table(100);
        let mut op = FilterOp {
            input: Box::new(ScanOp::new(t, vec![(0, 100)], None)),
            predicate: bin(BinOp::Lt, col("k"), lit(5i64)),
        };
        let c = op.next().unwrap().unwrap();
        assert_eq!(c.len(), 5);
        assert!(op.next().unwrap().is_none());
    }

    #[test]
    fn project_computes() {
        let t = table(3);
        let plan = PhysPlan::Project {
            input: Box::new(PhysPlan::Scan {
                table: t,
                ranges: vec![(0, 3)],
                projection: None,
                via_rle_index: false,
                pushed: vec![],
            }),
            exprs: vec![(bin(BinOp::Mul, col("k"), lit(2i64)), "dbl".into())],
        };
        let mut op = make_op(&plan).unwrap();
        let c = op.next().unwrap().unwrap();
        assert_eq!(c.schema().names(), vec!["dbl"]);
        assert_eq!(c.row(2)[0], Value::Int(4));
    }

    #[test]
    fn sort_and_topn() {
        let t = table(50);
        let sort_plan = PhysPlan::Sort {
            input: Box::new(PhysPlan::Scan {
                table: Arc::clone(&t),
                ranges: vec![(0, 50)],
                projection: None,
                via_rle_index: false,
                pushed: vec![],
            }),
            keys: vec![SortKey::desc("k")],
        };
        let mut op = make_op(&sort_plan).unwrap();
        let c = op.next().unwrap().unwrap();
        assert_eq!(c.row(0)[0], Value::Int(49));
        assert!(op.next().unwrap().is_none());

        let topn_plan = PhysPlan::TopN {
            input: Box::new(PhysPlan::Scan {
                table: t,
                ranges: vec![(0, 50)],
                projection: None,
                via_rle_index: false,
                pushed: vec![],
            }),
            keys: vec![SortKey::desc("k")],
            n: 3,
        };
        let mut op = make_op(&topn_plan).unwrap();
        let c = op.next().unwrap().unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.row(0)[0], Value::Int(49));
        assert_eq!(c.row(2)[0], Value::Int(47));
    }

    #[test]
    fn empty_input_handling() {
        let t = table(0);
        let plan = PhysPlan::Sort {
            input: Box::new(PhysPlan::Scan {
                table: t,
                ranges: vec![],
                projection: None,
                via_rle_index: false,
                pushed: vec![],
            }),
            keys: vec![SortKey::asc("k")],
        };
        let mut op = make_op(&plan).unwrap();
        assert!(op.next().unwrap().is_none());
    }
}
