//! Aggregation operators.
//!
//! [`HashAggOp`] is the stop-and-go hash aggregate ("normal aggregate
//! (currently based on hashing only in the TDE)", Sect. 4.2.4).
//! [`StreamAggOp`] is the streaming variant applicable when "the data is
//! grouped according to the group by columns"; it emits groups as they
//! complete instead of materializing the whole hash table.

use std::collections::HashMap;
use std::sync::Arc;
use tabviz_common::{
    Chunk, Collation, ColumnVec, DataType, NullMask, Result, SchemaRef, SelVec, Value, Values,
};
use tabviz_storage::Table;
use tabviz_tql::agg::{AggFunc, AggState};
use tabviz_tql::expr::Expr;
use tabviz_tql::AggCall;

use super::join::normalize_key;
use super::key::{self, GroupTable, KeyLayout};
use super::PhysOp;

/// Evaluate group expressions and aggregate arguments for one chunk.
struct EvalSet {
    groups: Vec<ColumnVec>,
    args: Vec<Option<ColumnVec>>,
}

fn eval_set(chunk: &Chunk, group_by: &[(Expr, String)], aggs: &[AggCall]) -> Result<EvalSet> {
    let groups = group_by
        .iter()
        .map(|(e, _)| e.eval(chunk))
        .collect::<Result<Vec<_>>>()?;
    let args = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| e.eval(chunk)).transpose())
        .collect::<Result<Vec<_>>>()?;
    Ok(EvalSet { groups, args })
}

/// Group collations come from the output schema's group fields.
fn group_collations(schema: &SchemaRef, n_groups: usize) -> Vec<Collation> {
    (0..n_groups).map(|i| schema.field(i).collation).collect()
}

/// Assemble the output chunk from per-group representative values + states,
/// column-at-a-time: each output column is built directly (group
/// representatives first, then finished aggregates) — no intermediate
/// row-major `Vec<Vec<Value>>`.
fn finish_groups(schema: &SchemaRef, groups: Vec<(Vec<Value>, Vec<AggState>)>) -> Result<Chunk> {
    let n_group_cols = groups.first().map_or(0, |(reps, _)| reps.len());
    let mut cols = Vec::with_capacity(schema.len());
    for ci in 0..schema.len() {
        let dtype = schema.field(ci).dtype;
        let vals: Vec<Value> = if ci < n_group_cols {
            groups.iter().map(|(reps, _)| reps[ci].clone()).collect()
        } else {
            groups
                .iter()
                .map(|(_, states)| states[ci - n_group_cols].finish())
                .collect()
        };
        cols.push(ColumnVec::from_iter_typed(dtype, vals.iter())?);
    }
    Chunk::new(Arc::clone(schema), cols)
}

/// Typed columnar accumulator for one aggregate call across all groups.
///
/// The variant is chosen once at operator construction from the declared
/// argument type; `update_batch` then runs a tight loop over the typed
/// slice. If a chunk ever delivers a different `Values` variant than the
/// declared type promised (exotic expressions, untyped NULL literals), the
/// accumulated state migrates losslessly into the row-wise [`AggState`]
/// fallback (`Rows`) and processing continues — never an error the old
/// row path would not have raised.
enum AggStateCol {
    CountStar {
        counts: Vec<i64>,
    },
    CountCol {
        counts: Vec<i64>,
    },
    SumInt {
        sums: Vec<i64>,
        seen: Vec<bool>,
    },
    SumReal {
        sums: Vec<f64>,
        seen: Vec<bool>,
    },
    MinMaxInt {
        vals: Vec<i64>,
        seen: Vec<bool>,
        is_min: bool,
    },
    MinMaxReal {
        vals: Vec<f64>,
        seen: Vec<bool>,
        is_min: bool,
    },
    AvgNum {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    Rows {
        func: AggFunc,
        states: Vec<AggState>,
    },
}

impl AggStateCol {
    fn new(call: &AggCall, input_schema: &SchemaRef) -> Self {
        let arg_dtype = call
            .arg
            .as_ref()
            .and_then(|e| e.data_type(input_schema).ok());
        match (call.func, call.arg.is_some(), arg_dtype) {
            (AggFunc::Count, false, _) => AggStateCol::CountStar { counts: Vec::new() },
            (AggFunc::Count, true, _) => AggStateCol::CountCol { counts: Vec::new() },
            (AggFunc::Sum, _, Some(DataType::Int)) => AggStateCol::SumInt {
                sums: Vec::new(),
                seen: Vec::new(),
            },
            (AggFunc::Sum, _, Some(DataType::Real)) => AggStateCol::SumReal {
                sums: Vec::new(),
                seen: Vec::new(),
            },
            (AggFunc::Min, _, Some(DataType::Int)) | (AggFunc::Max, _, Some(DataType::Int)) => {
                AggStateCol::MinMaxInt {
                    vals: Vec::new(),
                    seen: Vec::new(),
                    is_min: call.func == AggFunc::Min,
                }
            }
            (AggFunc::Min, _, Some(DataType::Real)) | (AggFunc::Max, _, Some(DataType::Real)) => {
                AggStateCol::MinMaxReal {
                    vals: Vec::new(),
                    seen: Vec::new(),
                    is_min: call.func == AggFunc::Min,
                }
            }
            (AggFunc::Avg, _, Some(DataType::Int | DataType::Real)) => AggStateCol::AvgNum {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            (func, _, _) => AggStateCol::Rows {
                func,
                states: Vec::new(),
            },
        }
    }

    /// Grow every per-group slot to `n` groups (identity elements).
    fn resize(&mut self, n: usize) {
        match self {
            AggStateCol::CountStar { counts } | AggStateCol::CountCol { counts } => {
                counts.resize(n, 0)
            }
            AggStateCol::SumInt { sums, seen } => {
                sums.resize(n, 0);
                seen.resize(n, false);
            }
            AggStateCol::SumReal { sums, seen } => {
                sums.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggStateCol::MinMaxInt { vals, seen, .. } => {
                vals.resize(n, 0);
                seen.resize(n, false);
            }
            AggStateCol::MinMaxReal { vals, seen, .. } => {
                vals.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggStateCol::AvgNum { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
            AggStateCol::Rows { func, states } => {
                let f = *func;
                states.resize_with(n, || AggState::new(f));
            }
        }
    }

    fn update_batch(&mut self, arg: Option<&ColumnVec>, sel: &SelVec, gids: &[u32]) -> Result<()> {
        if self.try_update_typed(arg, sel, gids)? {
            return Ok(());
        }
        // Declared type and delivered Values variant disagree: migrate the
        // accumulated state into the row-wise path and retry (always taken).
        self.migrate_to_rows();
        self.try_update_typed(arg, sel, gids)?;
        Ok(())
    }

    /// One chunk's worth of updates. `gids[k]` is the group of the k-th
    /// *selected* row (parallel to `sel.iter()`). Returns `false` when the
    /// typed variant does not match the delivered column.
    fn try_update_typed(
        &mut self,
        arg: Option<&ColumnVec>,
        sel: &SelVec,
        gids: &[u32],
    ) -> Result<bool> {
        match self {
            AggStateCol::CountStar { counts } => {
                for &g in gids {
                    counts[g as usize] += 1;
                }
            }
            AggStateCol::CountCol { counts } => {
                let col = arg.expect("COUNT(col) has an argument");
                match col.nulls.valid_bits() {
                    None => {
                        for &g in gids {
                            counts[g as usize] += 1;
                        }
                    }
                    Some(valid) => {
                        for (row, &g) in sel.iter().zip(gids) {
                            if valid[row] {
                                counts[g as usize] += 1;
                            }
                        }
                    }
                }
            }
            AggStateCol::SumInt { sums, seen } => {
                let col = arg.expect("SUM has an argument");
                let Some(xs) = col.values.as_int() else {
                    return Ok(false);
                };
                let valid = col.nulls.valid_bits();
                for (row, &g) in sel.iter().zip(gids) {
                    if valid.is_none_or(|v| v[row]) {
                        sums[g as usize] += xs[row];
                        seen[g as usize] = true;
                    }
                }
            }
            AggStateCol::SumReal { sums, seen } => {
                let col = arg.expect("SUM has an argument");
                let Some(xs) = col.values.as_real() else {
                    return Ok(false);
                };
                let valid = col.nulls.valid_bits();
                for (row, &g) in sel.iter().zip(gids) {
                    if valid.is_none_or(|v| v[row]) {
                        sums[g as usize] += xs[row];
                        seen[g as usize] = true;
                    }
                }
            }
            AggStateCol::MinMaxInt { vals, seen, is_min } => {
                let col = arg.expect("MIN/MAX has an argument");
                let Some(xs) = col.values.as_int() else {
                    return Ok(false);
                };
                let valid = col.nulls.valid_bits();
                let is_min = *is_min;
                for (row, &g) in sel.iter().zip(gids) {
                    if valid.is_none_or(|v| v[row]) {
                        let g = g as usize;
                        let x = xs[row];
                        if !seen[g] || (is_min && x < vals[g]) || (!is_min && x > vals[g]) {
                            vals[g] = x;
                            seen[g] = true;
                        }
                    }
                }
            }
            AggStateCol::MinMaxReal { vals, seen, is_min } => {
                let col = arg.expect("MIN/MAX has an argument");
                let Some(xs) = col.values.as_real() else {
                    return Ok(false);
                };
                let valid = col.nulls.valid_bits();
                let is_min = *is_min;
                for (row, &g) in sel.iter().zip(gids) {
                    if valid.is_none_or(|v| v[row]) {
                        let g = g as usize;
                        let x = xs[row];
                        let better = if is_min {
                            x.total_cmp(&vals[g]).is_lt()
                        } else {
                            x.total_cmp(&vals[g]).is_gt()
                        };
                        if !seen[g] || better {
                            vals[g] = x;
                            seen[g] = true;
                        }
                    }
                }
            }
            AggStateCol::AvgNum { sums, counts } => {
                let col = arg.expect("AVG has an argument");
                let valid = col.nulls.valid_bits();
                if let Some(xs) = col.values.as_int() {
                    for (row, &g) in sel.iter().zip(gids) {
                        if valid.is_none_or(|v| v[row]) {
                            sums[g as usize] += xs[row] as f64;
                            counts[g as usize] += 1;
                        }
                    }
                } else if let Some(xs) = col.values.as_real() {
                    for (row, &g) in sel.iter().zip(gids) {
                        if valid.is_none_or(|v| v[row]) {
                            sums[g as usize] += xs[row];
                            counts[g as usize] += 1;
                        }
                    }
                } else {
                    return Ok(false);
                }
            }
            AggStateCol::Rows { states, .. } => {
                for (row, &g) in sel.iter().zip(gids) {
                    match arg {
                        None => states[g as usize].update(None)?,
                        Some(col) => {
                            let v = col.get(row);
                            states[g as usize].update(Some(&v))?;
                        }
                    }
                }
            }
        }
        Ok(true)
    }

    /// Convert accumulated typed state into equivalent [`AggState`]s.
    fn migrate_to_rows(&mut self) {
        let (func, states): (AggFunc, Vec<AggState>) = match self {
            AggStateCol::CountStar { counts } | AggStateCol::CountCol { counts } => (
                AggFunc::Count,
                counts.iter().map(|&c| AggState::Count(c)).collect(),
            ),
            AggStateCol::SumInt { sums, seen } => (
                AggFunc::Sum,
                sums.iter()
                    .zip(seen.iter())
                    .map(|(&s, &sn)| AggState::Sum {
                        int: s,
                        real: s as f64,
                        is_real: false,
                        seen: sn,
                    })
                    .collect(),
            ),
            AggStateCol::SumReal { sums, seen } => (
                AggFunc::Sum,
                sums.iter()
                    .zip(seen.iter())
                    .map(|(&s, &sn)| AggState::Sum {
                        int: 0,
                        real: s,
                        is_real: sn,
                        seen: sn,
                    })
                    .collect(),
            ),
            AggStateCol::MinMaxInt { vals, seen, is_min } => {
                let f = if *is_min { AggFunc::Min } else { AggFunc::Max };
                let mk = |v: Option<Value>| {
                    if *is_min {
                        AggState::Min(v)
                    } else {
                        AggState::Max(v)
                    }
                };
                (
                    f,
                    vals.iter()
                        .zip(seen.iter())
                        .map(|(&v, &sn)| mk(sn.then_some(Value::Int(v))))
                        .collect(),
                )
            }
            AggStateCol::MinMaxReal { vals, seen, is_min } => {
                let f = if *is_min { AggFunc::Min } else { AggFunc::Max };
                let mk = |v: Option<Value>| {
                    if *is_min {
                        AggState::Min(v)
                    } else {
                        AggState::Max(v)
                    }
                };
                (
                    f,
                    vals.iter()
                        .zip(seen.iter())
                        .map(|(&v, &sn)| mk(sn.then_some(Value::Real(v))))
                        .collect(),
                )
            }
            AggStateCol::AvgNum { sums, counts } => (
                AggFunc::Avg,
                sums.iter()
                    .zip(counts.iter())
                    .map(|(&s, &c)| AggState::Avg { sum: s, count: c })
                    .collect(),
            ),
            AggStateCol::Rows { .. } => return,
        };
        *self = AggStateCol::Rows { func, states };
    }

    /// Build the output column directly — no per-group `Value` round trip
    /// for the typed variants.
    fn finish_column(self, dtype: DataType) -> Result<ColumnVec> {
        Ok(match self {
            AggStateCol::CountStar { counts } | AggStateCol::CountCol { counts } => {
                ColumnVec::from_values(Values::Int(counts))
            }
            AggStateCol::SumInt { sums, seen } => {
                ColumnVec::new(Values::Int(sums), NullMask::from_valid_bits(seen))
            }
            AggStateCol::SumReal { sums, seen } => {
                ColumnVec::new(Values::Real(sums), NullMask::from_valid_bits(seen))
            }
            AggStateCol::MinMaxInt { vals, seen, .. } => {
                ColumnVec::new(Values::Int(vals), NullMask::from_valid_bits(seen))
            }
            AggStateCol::MinMaxReal { vals, seen, .. } => {
                ColumnVec::new(Values::Real(vals), NullMask::from_valid_bits(seen))
            }
            AggStateCol::AvgNum { sums, counts } => {
                let valid: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
                let avgs: Vec<f64> = sums
                    .iter()
                    .zip(counts.iter())
                    .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                    .collect();
                ColumnVec::new(Values::Real(avgs), NullMask::from_valid_bits(valid))
            }
            AggStateCol::Rows { states, .. } => {
                let vals: Vec<Value> = states.iter().map(AggState::finish).collect();
                ColumnVec::from_iter_typed(dtype, vals.iter())?
            }
        })
    }
}

/// Stop-and-go hash aggregation.
///
/// Two execution paths, chosen once per operator (see `key::fallback_reason`
/// and DESIGN.md §14): the packed-key fast path encodes group keys into
/// fixed-width words (`GroupTable`) and updates typed columnar accumulators
/// (`AggStateCol`); the retained fallback keys a hash map with
/// `Vec<Value>` rows. An optional fused residual predicate (absorbed from a
/// child `Filter` by `make_op_raw`) is evaluated to a [`SelVec`] so the
/// fast path never rematerializes filtered chunks.
pub struct HashAggOp {
    input: Box<dyn PhysOp>,
    group_by: Vec<(Expr, String)>,
    aggs: Vec<AggCall>,
    schema: SchemaRef,
    kernels: bool,
    residual: Option<Expr>,
    done: bool,
}

impl HashAggOp {
    pub fn new(
        input: Box<dyn PhysOp>,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggCall>,
        schema: SchemaRef,
    ) -> Self {
        HashAggOp {
            input,
            group_by,
            aggs,
            schema,
            kernels: true,
            residual: None,
            done: false,
        }
    }

    pub fn with_kernels(mut self, kernels: bool) -> Self {
        self.kernels = kernels;
        self
    }

    pub fn with_residual(mut self, predicate: Expr) -> Self {
        self.residual = Some(predicate);
        self
    }

    /// Packed-key fast path: fixed-width group keys, dense group ids,
    /// typed columnar accumulators, direct output-column assembly.
    fn drain_fast(&mut self) -> Result<Option<Chunk>> {
        let n_keys = self.group_by.len();
        let dtypes: Vec<DataType> = (0..n_keys).map(|i| self.schema.field(i).dtype).collect();
        let collations = group_collations(&self.schema, n_keys);
        let mut table = GroupTable::new(KeyLayout::new(dtypes, collations));
        // Group representative columns, grown in first-seen group order.
        let mut reps: Vec<ColumnVec> = (0..n_keys)
            .map(|i| ColumnVec::from_values(Values::with_capacity(self.schema.field(i).dtype, 0)))
            .collect();
        let input_schema = self.input.schema();
        let mut states: Vec<AggStateCol> = self
            .aggs
            .iter()
            .map(|a| AggStateCol::new(a, &input_schema))
            .collect();
        let mut gids: Vec<u32> = Vec::new();
        while let Some(chunk) = self.input.next()? {
            if chunk.is_empty() {
                continue;
            }
            let sel = match &self.residual {
                None => SelVec::all(chunk.len()),
                Some(p) => p.eval_predicate_sel(&chunk)?,
            };
            if sel.is_empty() {
                continue;
            }
            let ev = eval_set(&chunk, &self.group_by, &self.aggs)?;
            let gcols: Vec<&ColumnVec> = ev.groups.iter().collect();
            let keys = table.encode(&gcols, chunk.len());
            gids.clear();
            let mut fresh: Vec<usize> = Vec::new();
            for row in sel.iter() {
                let (gid, new) = table.lookup_or_insert(&keys, row);
                gids.push(gid);
                if new {
                    fresh.push(row);
                }
            }
            if !fresh.is_empty() {
                for (ci, rep) in reps.iter_mut().enumerate() {
                    append_coerced(
                        rep,
                        &ev.groups[ci].take(&fresh),
                        self.schema.field(ci).dtype,
                    )?;
                }
            }
            let n_groups = table.n_groups();
            for (st, arg) in states.iter_mut().zip(&ev.args) {
                st.resize(n_groups);
                st.update_batch(arg.as_ref(), &sel, &gids)?;
            }
        }
        if table.n_groups() == 0 {
            if !self.group_by.is_empty() {
                return Ok(None);
            }
            // Global aggregate on empty input still emits one row.
            for st in states.iter_mut() {
                st.resize(1);
            }
        }
        let mut cols = reps;
        for (ai, st) in states.into_iter().enumerate() {
            cols.push(st.finish_column(self.schema.field(n_keys + ai).dtype)?);
        }
        Ok(Some(Chunk::new(Arc::clone(&self.schema), cols)?))
    }

    /// Retained `Vec<Value>`-keyed path (disabled kernels, wide keys).
    fn drain_fallback(&mut self) -> Result<Option<Chunk>> {
        let collations = group_collations(&self.schema, self.group_by.len());
        // key → (representative raw values, states)
        let mut table: HashMap<Vec<Value>, (Vec<Value>, Vec<AggState>)> = HashMap::new();
        // Preserve first-seen group order for deterministic output.
        let mut order: Vec<Vec<Value>> = Vec::new();
        while let Some(chunk) = self.input.next()? {
            let chunk = match &self.residual {
                None => chunk,
                Some(p) => {
                    let sel = p.eval_predicate_sel(&chunk)?;
                    chunk.take_sel(&sel)
                }
            };
            if chunk.is_empty() {
                continue;
            }
            let ev = eval_set(&chunk, &self.group_by, &self.aggs)?;
            for row in 0..chunk.len() {
                let mut key = Vec::with_capacity(ev.groups.len());
                let mut reps = Vec::with_capacity(ev.groups.len());
                for (gi, g) in ev.groups.iter().enumerate() {
                    let raw = g.get(row);
                    key.push(normalize_key(raw.clone(), collations[gi]));
                    reps.push(raw);
                }
                let entry = table.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (
                        reps,
                        self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
                    )
                });
                for (ai, st) in entry.1.iter_mut().enumerate() {
                    match &ev.args[ai] {
                        None => st.update(None)?,
                        Some(col) => st.update(Some(&col.get(row)))?,
                    }
                }
            }
        }
        // Global (no GROUP BY) aggregates emit one row even on empty input.
        if table.is_empty() && self.group_by.is_empty() {
            let states: Vec<AggState> = self.aggs.iter().map(|a| AggState::new(a.func)).collect();
            return Ok(Some(finish_groups(&self.schema, vec![(vec![], states)])?));
        }
        if table.is_empty() {
            return Ok(None);
        }
        let groups: Vec<(Vec<Value>, Vec<AggState>)> = order
            .into_iter()
            .map(|k| table.remove(&k).expect("ordered key present"))
            .collect();
        Ok(Some(finish_groups(&self.schema, groups)?))
    }
}

/// Append `src` to `dst`, coercing through `Value`s only when the evaluated
/// variant differs from the schema dtype (e.g. an Int-valued expression in a
/// Real-typed field).
fn append_coerced(dst: &mut ColumnVec, src: &ColumnVec, dtype: DataType) -> Result<()> {
    if src.values.data_type() == dtype {
        dst.append(src)
    } else {
        let vals: Vec<Value> = (0..src.len()).map(|i| src.get(i)).collect();
        dst.append(&ColumnVec::from_iter_typed(dtype, vals.iter())?)
    }
}

impl PhysOp for HashAggOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let fallback = key::fallback_reason(self.group_by.len(), self.kernels);
        key::report_kernel_choice("tde_hash_agg", fallback);
        match fallback {
            None => self.drain_fast(),
            Some(_) => self.drain_fallback(),
        }
    }
}

/// Streaming aggregation over grouped input.
pub struct StreamAggOp {
    input: Box<dyn PhysOp>,
    group_by: Vec<(Expr, String)>,
    aggs: Vec<AggCall>,
    schema: SchemaRef,
    current: Option<(Vec<Value>, Vec<Value>, Vec<AggState>)>, // (key, reps, states)
    input_done: bool,
    emitted_empty_global: bool,
}

impl StreamAggOp {
    pub fn new(
        input: Box<dyn PhysOp>,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggCall>,
        schema: SchemaRef,
    ) -> Self {
        StreamAggOp {
            input,
            group_by,
            aggs,
            schema,
            current: None,
            input_done: false,
            emitted_empty_global: false,
        }
    }

    fn new_states(&self) -> Vec<AggState> {
        self.aggs.iter().map(|a| AggState::new(a.func)).collect()
    }
}

impl PhysOp for StreamAggOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.input_done {
            // Flush the trailing group.
            if let Some((_, reps, states)) = self.current.take() {
                return Ok(Some(finish_groups(&self.schema, vec![(reps, states)])?));
            }
            if self.group_by.is_empty() && !self.emitted_empty_global {
                self.emitted_empty_global = true;
                return Ok(Some(finish_groups(
                    &self.schema,
                    vec![(vec![], self.new_states())],
                )?));
            }
            return Ok(None);
        }
        let collations = group_collations(&self.schema, self.group_by.len());
        let mut finished: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
        loop {
            let Some(chunk) = self.input.next()? else {
                self.input_done = true;
                break;
            };
            let ev = eval_set(&chunk, &self.group_by, &self.aggs)?;
            for row in 0..chunk.len() {
                let mut key = Vec::with_capacity(ev.groups.len());
                let mut reps = Vec::with_capacity(ev.groups.len());
                for (gi, g) in ev.groups.iter().enumerate() {
                    let raw = g.get(row);
                    key.push(normalize_key(raw.clone(), collations[gi]));
                    reps.push(raw);
                }
                let fresh: Vec<AggState> =
                    self.aggs.iter().map(|a| AggState::new(a.func)).collect();
                match &mut self.current {
                    Some((ck, _, states)) if *ck == key => {
                        for (ai, st) in states.iter_mut().enumerate() {
                            match &ev.args[ai] {
                                None => st.update(None)?,
                                Some(col) => st.update(Some(&col.get(row)))?,
                            }
                        }
                    }
                    slot => {
                        if let Some((_, reps_old, states_old)) = slot.take() {
                            finished.push((reps_old, states_old));
                        }
                        let mut states = fresh;
                        for (ai, st) in states.iter_mut().enumerate() {
                            match &ev.args[ai] {
                                None => st.update(None)?,
                                Some(col) => st.update(Some(&col.get(row)))?,
                            }
                        }
                        *slot = Some((key, reps, states));
                    }
                }
            }
            if !finished.is_empty() {
                return Ok(Some(finish_groups(
                    &self.schema,
                    std::mem::take(&mut finished),
                )?));
            }
        }
        if !finished.is_empty() {
            return Ok(Some(finish_groups(&self.schema, finished)?));
        }
        self.next()
    }
}

/// Run-granularity COUNT/SUM straight over a table's RLE runs — no row is
/// ever decoded. The group columns' runs identify the groups: with one
/// group column each run is a segment; with several the executor
/// merge-walks the intersected run boundaries, so every segment is a
/// maximal row range where all group columns are constant. Aggregate
/// arguments (also RLE, guaranteed by the planner) contribute
/// `value × run length` per overlapping run.
pub struct RunAggOp {
    table: Arc<Table>,
    ranges: Vec<(usize, usize)>,
    group_cols: Vec<usize>,
    aggs: Vec<AggCall>,
    schema: SchemaRef,
    done: bool,
}

impl RunAggOp {
    pub fn new(
        table: Arc<Table>,
        ranges: Vec<(usize, usize)>,
        group_cols: Vec<usize>,
        aggs: Vec<AggCall>,
        schema: SchemaRef,
    ) -> Self {
        RunAggOp {
            table,
            ranges,
            group_cols,
            aggs,
            schema,
            done: false,
        }
    }
}

/// Feed `n` identical rows of `v` into an accumulator in O(1).
/// Mirrors `AggState::update` exactly (COUNT/SUM/MIN/MAX only — the planner
/// guarantees no other function reaches a RunAgg). For MIN/MAX the run
/// length is irrelevant: `n` identical values have the same extremum as one.
fn update_run(st: &mut AggState, v: Option<&Value>, n: usize) -> Result<()> {
    let n = n as i64;
    match st {
        AggState::Count(c) => match v {
            None => *c += n,
            Some(val) if !val.is_null() => *c += n,
            _ => {}
        },
        AggState::Sum {
            int,
            real,
            is_real,
            seen,
        } => {
            if let Some(val) = v {
                match val {
                    Value::Null => {}
                    Value::Int(i) => {
                        *int += i * n;
                        *real += *i as f64 * n as f64;
                        *seen = true;
                    }
                    Value::Real(r) => {
                        *real += r * n as f64;
                        *is_real = true;
                        *seen = true;
                    }
                    other => {
                        return Err(tabviz_common::TvError::Type(format!("SUM over {other:?}")))
                    }
                }
            }
        }
        AggState::Min(m) => {
            if let Some(val) = v {
                if !val.is_null() && m.as_ref().is_none_or(|cur| val < cur) {
                    *m = Some(val.clone());
                }
            }
        }
        AggState::Max(m) => {
            if let Some(val) = v {
                if !val.is_null() && m.as_ref().is_none_or(|cur| val > cur) {
                    *m = Some(val.clone());
                }
            }
        }
        _ => {
            return Err(tabviz_common::TvError::Exec(
                "RunAgg supports only COUNT/SUM/MIN/MAX".into(),
            ))
        }
    }
    Ok(())
}

impl PhysOp for RunAggOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let non_rle =
            || tabviz_common::TvError::Exec("RunAgg planned over a non-RLE column".into());
        let arg_cols: Vec<Option<usize>> = self
            .aggs
            .iter()
            .map(|a| match &a.arg {
                None => Ok(None),
                Some(Expr::Column(c)) => self.table.schema().index_of(c).map(Some),
                Some(e) => Err(tabviz_common::TvError::Exec(format!(
                    "RunAgg argument must be a column: {e}"
                ))),
            })
            .collect::<Result<_>>()?;
        let collations: Vec<_> = (0..self.group_cols.len())
            .map(|i| self.schema.field(i).collation)
            .collect();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
        for &(start, len) in &self.ranges {
            // Window-clipped runs for every group column; the walk below
            // segments the range at the union of their boundaries, so each
            // segment has one constant value per group column.
            let col_runs: Vec<Vec<_>> = self
                .group_cols
                .iter()
                .map(|&ci| {
                    self.table
                        .column(ci)
                        .runs_overlapping(start, len)
                        .ok_or_else(non_rle)
                })
                .collect::<Result<_>>()?;
            let mut cursors = vec![0usize; col_runs.len()];
            let end = (start + len).min(self.table.row_count());
            let mut pos = start;
            while pos < end {
                let mut seg_end = end;
                let mut raw = Vec::with_capacity(col_runs.len());
                for (c, runs) in col_runs.iter().enumerate() {
                    while runs
                        .get(cursors[c])
                        .is_some_and(|r| r.start + r.count <= pos)
                    {
                        cursors[c] += 1;
                    }
                    let run = runs.get(cursors[c]).ok_or_else(non_rle)?;
                    raw.push(run.value.clone());
                    seg_end = seg_end.min(run.start + run.count);
                }
                let seg_len = seg_end - pos;
                let key: Vec<Value> = raw
                    .iter()
                    .zip(&collations)
                    .map(|(v, &coll)| normalize_key(v.clone(), coll))
                    .collect();
                let gi = *index.entry(key).or_insert_with(|| {
                    groups.push((
                        raw.clone(),
                        self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
                    ));
                    groups.len() - 1
                });
                for (ai, st) in groups[gi].1.iter_mut().enumerate() {
                    match arg_cols[ai] {
                        None => update_run(st, None, seg_len)?,
                        Some(ci) => {
                            let arg_runs = self
                                .table
                                .column(ci)
                                .runs_overlapping(pos, seg_len)
                                .ok_or_else(non_rle)?;
                            for ar in &arg_runs {
                                update_run(st, Some(&ar.value), ar.count)?;
                            }
                        }
                    }
                }
                pos = seg_end;
            }
        }
        if groups.is_empty() {
            return Ok(None);
        }
        Ok(Some(finish_groups(&self.schema, groups)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScanOp;
    use tabviz_common::{DataType, Field, Schema};
    use tabviz_storage::Table;
    use tabviz_tql::expr::col;
    use tabviz_tql::AggFunc;

    fn flights(sorted: bool) -> Arc<Table> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = [
            ("AA", 10),
            ("WN", 4),
            ("AA", 20),
            ("DL", 7),
            ("WN", 2),
            ("AA", 3),
        ]
        .iter()
        .map(|&(c, d)| vec![Value::Str(c.into()), Value::Int(d)])
        .collect();
        let chunk = Chunk::from_rows(schema, &rows).unwrap();
        let keys: &[&str] = if sorted { &["carrier"] } else { &[] };
        Arc::new(Table::from_chunk("f", &chunk, keys).unwrap())
    }

    fn agg_calls() -> Vec<AggCall> {
        vec![
            AggCall::new(AggFunc::Count, None, "n"),
            AggCall::new(AggFunc::Sum, Some(col("delay")), "total"),
            AggCall::new(AggFunc::Avg, Some(col("delay")), "avg"),
        ]
    }

    fn out_schema(t: &Arc<Table>) -> SchemaRef {
        crate::physical::agg_schema(
            t.schema(),
            &[(col("carrier"), "carrier".to_string())],
            &agg_calls(),
            crate::physical::AggMode::Single,
        )
        .unwrap()
    }

    fn collect(op: &mut dyn PhysOp) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        while let Some(c) = op.next().unwrap() {
            rows.extend(c.to_rows());
        }
        rows
    }

    #[test]
    fn hash_agg_groups() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
        let mut op = HashAggOp::new(
            Box::new(scan),
            vec![(col("carrier"), "carrier".into())],
            agg_calls(),
            out_schema(&t),
        );
        let mut rows = collect(&mut op);
        rows.sort();
        assert_eq!(rows.len(), 3);
        let aa = rows
            .iter()
            .find(|r| r[0] == Value::Str("AA".into()))
            .unwrap();
        assert_eq!(aa[1], Value::Int(3));
        assert_eq!(aa[2], Value::Int(33));
        assert_eq!(aa[3], Value::Real(11.0));
    }

    #[test]
    fn stream_agg_matches_hash_on_sorted_input() {
        let t = flights(true); // table sorted by carrier
        let scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
        let mut sop = StreamAggOp::new(
            Box::new(scan),
            vec![(col("carrier"), "carrier".into())],
            agg_calls(),
            out_schema(&t),
        );
        let mut srows = collect(&mut sop);

        let scan2 = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
        let mut hop = HashAggOp::new(
            Box::new(scan2),
            vec![(col("carrier"), "carrier".into())],
            agg_calls(),
            out_schema(&t),
        );
        let mut hrows = collect(&mut hop);
        srows.sort();
        hrows.sort();
        assert_eq!(srows, hrows);
    }

    #[test]
    fn global_aggregate_no_groups() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
        let schema = crate::physical::agg_schema(
            t.schema(),
            &[],
            &agg_calls(),
            crate::physical::AggMode::Single,
        )
        .unwrap();
        let mut op = HashAggOp::new(Box::new(scan), vec![], agg_calls(), schema);
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(6));
        assert_eq!(rows[0][1], Value::Int(46));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![], None); // no ranges
        let schema = crate::physical::agg_schema(
            t.schema(),
            &[],
            &agg_calls(),
            crate::physical::AggMode::Single,
        )
        .unwrap();
        let mut op = HashAggOp::new(Box::new(scan), vec![], agg_calls(), schema.clone());
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0)); // COUNT
        assert_eq!(rows[0][1], Value::Null); // SUM
                                             // Streaming variant agrees.
        let scan2 = ScanOp::new(Arc::clone(&t), vec![], None);
        let mut sop = StreamAggOp::new(Box::new(scan2), vec![], agg_calls(), schema);
        let srows = collect(&mut sop);
        assert_eq!(srows, rows);
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let t = flights(false);
        let scan = ScanOp::new(Arc::clone(&t), vec![], None);
        let mut op = HashAggOp::new(
            Box::new(scan),
            vec![(col("carrier"), "carrier".into())],
            agg_calls(),
            out_schema(&t),
        );
        assert!(collect(&mut op).is_empty());
    }

    #[test]
    fn scan_to_key_lookup_translates_entries_not_rows() {
        // 100k rows over 7 short and 5 long (interned) strings, stored
        // once plain and once run-length encoded: between the scan and the
        // group lookup each referenced dictionary entry is turned into a key
        // word exactly once, however many rows and chunks carry it.
        let schema = Arc::new(Schema::new(vec![Field::new("plain", DataType::Str)]).unwrap());
        let name = |k: usize| {
            if k < 7 {
                format!("s{k}")
            } else {
                format!("a string longer than seven bytes #{k}")
            }
        };
        for sorted in [false, true] {
            let rows: Vec<Vec<Value>> = (0..100_000)
                .map(|i| vec![Value::Str(name((i * 7919) % 12))])
                .collect();
            let chunk = Chunk::from_rows(Arc::clone(&schema), &rows).unwrap();
            let keys: &[&str] = if sorted { &["plain"] } else { &[] };
            let t = Arc::new(Table::from_chunk("t", &chunk, keys).unwrap());
            let codec = if sorted { "dict-rle" } else { "dict" };
            assert_eq!(t.column(0).codec_name(), codec);
            let mut scan = ScanOp::new(Arc::clone(&t), vec![(0, t.row_count())], None);
            let layout = KeyLayout::new(vec![DataType::Str], vec![Collation::Binary]);
            let mut table = GroupTable::new(layout);
            let mut chunks = 0;
            while let Some(c) = scan.next().unwrap() {
                let keys = table.encode(&[c.column(0)], c.len());
                for row in 0..c.len() {
                    table.lookup_or_insert(&keys, row);
                }
                chunks += 1;
            }
            assert!(chunks > 1, "the memo must carry across chunks");
            assert_eq!(table.n_groups(), 12);
            assert_eq!(table.translations(), 12, "{codec}");
        }
    }

    #[test]
    fn ci_collation_merges_groups() {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("c", DataType::Str).with_collation(Collation::CaseInsensitive)
            ])
            .unwrap(),
        );
        let chunk = Chunk::from_rows(
            Arc::clone(&schema),
            &[vec!["AA".into()], vec!["aa".into()], vec!["DL".into()]],
        )
        .unwrap();
        let t = Arc::new(Table::from_chunk("c", &chunk, &[]).unwrap());
        let calls = vec![AggCall::new(AggFunc::Count, None, "n")];
        let out = crate::physical::agg_schema(
            t.schema(),
            &[(col("c"), "c".to_string())],
            &calls,
            crate::physical::AggMode::Single,
        )
        .unwrap();
        let scan = ScanOp::new(Arc::clone(&t), vec![(0, 3)], None);
        let mut op = HashAggOp::new(Box::new(scan), vec![(col("c"), "c".into())], calls, out);
        let rows = collect(&mut op);
        assert_eq!(rows.len(), 2, "AA and aa should merge under CI collation");
    }
}
