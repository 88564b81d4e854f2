//! Hash join.
//!
//! Sect. 4.2.2: "The TDE's execution engine processes the join by building a
//! hash table for the right-side input, and probing the left-side input for
//! matches." In parallel plans the build result is computed once and shared
//! ("a single hash table is built from the shared table and then shared for
//! every left-hand block to probe") — the sharing lives in
//! [`crate::physical::BuildSide`]; this module holds the hash table itself
//! and the probe operator.

use std::collections::HashMap;
use std::sync::Arc;
use tabviz_common::{Chunk, Collation, ColumnVec, DataType, Result, SchemaRef, TvError, Value};
use tabviz_tql::JoinType;

use super::key::{self, KeyLayout, PackedJoinIndex, TableWords};
use super::PhysOp;
use crate::physical::BuildSide;

/// Normalize a join/group key value under a collation so hash equality
/// matches comparison equality (`Int(2)` vs `Real(2.0)` already hash alike).
pub fn normalize_key(v: Value, collation: Collation) -> Value {
    match v {
        Value::Str(s) if collation != Collation::Binary => Value::Str(collation.key(&s)),
        other => other,
    }
}

/// The materialized build side of a hash join: the build chunk plus an index
/// over its key columns. Exactly one index form is populated, decided by
/// `key::fallback_reason` at build time: the packed fixed-width form
/// (`PackedJoinIndex`, hashes batched column-at-a-time) or the retained
/// `Vec<Value>`-keyed map.
pub struct JoinBuild {
    pub chunk: Chunk,
    pub index: HashMap<Vec<Value>, Vec<u32>>,
    pub key_collations: Vec<Collation>,
    pub(crate) packed: Option<PackedJoinIndex>,
}

impl JoinBuild {
    /// Build the hash table over `key_cols` of `chunk`.
    pub fn build(
        chunk: Chunk,
        key_cols: &[usize],
        schema: &SchemaRef,
        kernels: bool,
    ) -> Result<Self> {
        let key_collations: Vec<Collation> = key_cols
            .iter()
            .map(|&i| schema.field(i).collation)
            .collect();
        if key::fallback_reason(key_cols.len(), kernels).is_none() {
            let dtypes: Vec<DataType> = key_cols.iter().map(|&i| schema.field(i).dtype).collect();
            let layout = KeyLayout::new(dtypes, key_collations.clone());
            let cols: Vec<&ColumnVec> = key_cols.iter().map(|&i| chunk.column(i)).collect();
            let packed = PackedJoinIndex::build(layout, &cols, chunk.len());
            return Ok(JoinBuild {
                chunk,
                index: HashMap::new(),
                key_collations,
                packed: Some(packed),
            });
        }
        let mut index: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(chunk.len());
        for row in 0..chunk.len() {
            let mut key = Vec::with_capacity(key_cols.len());
            let mut has_null = false;
            for (k, &ci) in key_cols.iter().enumerate() {
                let v = chunk.column(ci).get(row);
                if v.is_null() {
                    has_null = true;
                    break;
                }
                key.push(normalize_key(v, key_collations[k]));
            }
            if has_null {
                continue; // SQL: NULL keys never match
            }
            index.entry(key).or_default().push(row as u32);
        }
        Ok(JoinBuild {
            chunk,
            index,
            key_collations,
            packed: None,
        })
    }
}

/// Probe operator: streams probe chunks against the shared build table.
pub struct HashJoinOp {
    probe: Box<dyn PhysOp>,
    build_side: Arc<BuildSide>,
    build: Option<Arc<JoinBuild>>,
    probe_key_idx: Vec<usize>,
    /// Per probe key column: string-table entry → key word, kept across
    /// probe chunks.
    probe_memos: Vec<TableWords>,
    join_type: JoinType,
    schema: SchemaRef,
}

impl HashJoinOp {
    pub fn new(
        probe: Box<dyn PhysOp>,
        build_side: Arc<BuildSide>,
        probe_keys: Vec<String>,
        join_type: JoinType,
        schema: SchemaRef,
    ) -> Result<Self> {
        let probe_schema = probe.schema();
        let probe_key_idx = probe_keys
            .iter()
            .map(|k| probe_schema.index_of(k))
            .collect::<Result<Vec<_>>>()?;
        // Same decision JoinBuild::build makes for the index form, attributed
        // once per probe operator.
        key::report_kernel_choice(
            "tde_hash_join",
            key::fallback_reason(build_side.key_cols.len(), build_side.kernels),
        );
        Ok(HashJoinOp {
            probe,
            build_side,
            build: None,
            probe_memos: TableWords::for_columns(probe_key_idx.len()),
            probe_key_idx,
            join_type,
            schema,
        })
    }

    /// Gather the output chunk: probe columns by `probe_rows`, build columns
    /// by `build_rows` (`None` ⇒ NULL for left-join misses) — columns are
    /// built directly, no per-value round trip.
    fn assemble(
        &self,
        probe_chunk: &Chunk,
        build_chunk: &Chunk,
        probe_rows: &[usize],
        build_rows: &[Option<u32>],
    ) -> Result<Chunk> {
        let probe_part = probe_chunk.take(probe_rows);
        let mut cols = probe_part.columns().to_vec();
        for ci in 0..build_chunk.num_columns() {
            cols.push(build_chunk.column(ci).take_opt(build_rows));
        }
        debug_assert_eq!(cols.len(), self.schema.len());
        Chunk::new(Arc::clone(&self.schema), cols).map_err(|e| {
            TvError::Exec(format!(
                "join output assembly failed: {e} (rows {})",
                probe_rows.len()
            ))
        })
    }
}

impl PhysOp for HashJoinOp {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next(&mut self) -> Result<Option<Chunk>> {
        if self.build.is_none() {
            self.build = Some(self.build_side.get()?);
        }
        let build = self.build.as_ref().expect("just set").clone();
        loop {
            let Some(probe_chunk) = self.probe.next()? else {
                return Ok(None);
            };
            let mut probe_rows: Vec<usize> = Vec::new();
            let mut build_rows: Vec<Option<u32>> = Vec::new();
            if let Some(packed) = &build.packed {
                // Packed fast path: encode the whole probe chunk's keys
                // column-at-a-time, then walk hash matches per row.
                let cols: Vec<&ColumnVec> = self
                    .probe_key_idx
                    .iter()
                    .map(|&ci| probe_chunk.column(ci))
                    .collect();
                let keys = packed.encode_probe(&cols, probe_chunk.len(), &mut self.probe_memos);
                for row in 0..probe_chunk.len() {
                    let mut matched = false;
                    for br in packed.matches(&keys, row) {
                        matched = true;
                        probe_rows.push(row);
                        build_rows.push(Some(br));
                    }
                    if !matched && self.join_type == JoinType::Left {
                        probe_rows.push(row);
                        build_rows.push(None);
                    }
                }
            } else {
                for row in 0..probe_chunk.len() {
                    let mut key = Vec::with_capacity(self.probe_key_idx.len());
                    let mut has_null = false;
                    for (k, &ci) in self.probe_key_idx.iter().enumerate() {
                        let v = probe_chunk.column(ci).get(row);
                        if v.is_null() {
                            has_null = true;
                            break;
                        }
                        key.push(normalize_key(v, build.key_collations[k]));
                    }
                    let matches = if has_null {
                        None
                    } else {
                        build.index.get(&key)
                    };
                    match matches {
                        Some(rows) => {
                            for &br in rows {
                                probe_rows.push(row);
                                build_rows.push(Some(br));
                            }
                        }
                        None => {
                            if self.join_type == JoinType::Left {
                                probe_rows.push(row);
                                build_rows.push(None);
                            }
                        }
                    }
                }
            }
            if probe_rows.is_empty() {
                continue;
            }
            return Ok(Some(self.assemble(
                &probe_chunk,
                &build.chunk,
                &probe_rows,
                &build_rows,
            )?));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::make_op;
    use crate::physical::PhysPlan;
    use tabviz_common::{DataType, Field, Schema};
    use tabviz_storage::Table;

    fn fact() -> Arc<Table> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("carrier", DataType::Str),
                Field::new("delay", DataType::Int),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = [
            ("AA", 1),
            ("WN", 2),
            ("AA", 3),
            ("XX", 4), // no dimension match
        ]
        .iter()
        .map(|&(c, d)| vec![Value::Str(c.into()), Value::Int(d)])
        .collect();
        Arc::new(Table::from_chunk("fact", &Chunk::from_rows(schema, &rows).unwrap(), &[]).unwrap())
    }

    fn dim() -> Arc<Table> {
        let schema = Arc::new(
            Schema::new(vec![
                Field::new("code", DataType::Str),
                Field::new("name", DataType::Str),
            ])
            .unwrap(),
        );
        let rows: Vec<Vec<Value>> = [("AA", "American"), ("WN", "Southwest")]
            .iter()
            .map(|&(c, n)| vec![Value::Str(c.into()), Value::Str(n.into())])
            .collect();
        Arc::new(Table::from_chunk("dim", &Chunk::from_rows(schema, &rows).unwrap(), &[]).unwrap())
    }

    fn join_plan(join_type: JoinType) -> PhysPlan {
        let d = dim();
        let build_plan = PhysPlan::Scan {
            table: Arc::clone(&d),
            ranges: vec![(0, d.row_count())],
            projection: None,
            via_rle_index: false,
            pushed: vec![],
        };
        let build_schema = build_plan.schema().unwrap();
        let f = fact();
        PhysPlan::HashJoin {
            probe: Box::new(PhysPlan::Scan {
                table: Arc::clone(&f),
                ranges: vec![(0, f.row_count())],
                projection: None,
                via_rle_index: false,
                pushed: vec![],
            }),
            build: Arc::new(BuildSide::new(build_plan, build_schema, vec![0])),
            probe_keys: vec!["carrier".into()],
            join_type,
        }
    }

    fn run(plan: &PhysPlan) -> Chunk {
        crate::physical::execute_to_chunk(plan).unwrap()
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let out = run(&join_plan(JoinType::Inner));
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.schema().names(),
            vec!["carrier", "delay", "code", "name"]
        );
        assert_eq!(out.row(0)[3], Value::Str("American".into()));
    }

    #[test]
    fn left_join_nulls_unmatched() {
        let out = run(&join_plan(JoinType::Left));
        assert_eq!(out.len(), 4);
        let xx = out
            .to_rows()
            .into_iter()
            .find(|r| r[0] == Value::Str("XX".into()))
            .unwrap();
        assert_eq!(xx[2], Value::Null);
        assert_eq!(xx[3], Value::Null);
    }

    #[test]
    fn null_keys_never_match() {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int)]).unwrap());
        let with_null = Chunk::from_rows(
            Arc::clone(&schema),
            &[vec![Value::Null], vec![Value::Int(1)]],
        )
        .unwrap();
        let t = Arc::new(Table::from_chunk("n", &with_null, &[]).unwrap());
        let build_plan = PhysPlan::Scan {
            table: Arc::clone(&t),
            ranges: vec![(0, 2)],
            projection: None,
            via_rle_index: false,
            pushed: vec![],
        };
        let bs = build_plan.schema().unwrap();
        let plan = PhysPlan::HashJoin {
            probe: Box::new(PhysPlan::Scan {
                table: Arc::clone(&t),
                ranges: vec![(0, 2)],
                projection: None,
                via_rle_index: false,
                pushed: vec![],
            }),
            build: Arc::new(BuildSide::new(build_plan, bs, vec![0])),
            probe_keys: vec!["k".into()],
            join_type: JoinType::Inner,
        };
        let out = run(&plan);
        assert_eq!(out.len(), 1); // only Int(1) matches itself
    }

    #[test]
    fn build_side_runs_once() {
        let plan = join_plan(JoinType::Inner);
        // Two operators over the same plan share the BuildSide.
        let mut op1 = make_op(&plan).unwrap();
        let mut op2 = make_op(&plan).unwrap();
        while op1.next().unwrap().is_some() {}
        while op2.next().unwrap().is_some() {}
        if let PhysPlan::HashJoin { build, .. } = &plan {
            // The OnceLock is initialized exactly once.
            assert!(build.get().is_ok());
        }
    }

    #[test]
    fn collated_join_keys() {
        let ci_schema = Arc::new(
            Schema::new(vec![
                Field::new("k", DataType::Str).with_collation(Collation::CaseInsensitive)
            ])
            .unwrap(),
        );
        let upper = Chunk::from_rows(Arc::clone(&ci_schema), &[vec!["AA".into()]]).unwrap();
        let lower = Chunk::from_rows(Arc::clone(&ci_schema), &[vec!["aa".into()]]).unwrap();
        let tu = Arc::new(Table::from_chunk("u", &upper, &[]).unwrap());
        let tl = Arc::new(Table::from_chunk("l", &lower, &[]).unwrap());
        let build_plan = PhysPlan::Scan {
            table: Arc::clone(&tl),
            ranges: vec![(0, 1)],
            projection: None,
            via_rle_index: false,
            pushed: vec![],
        };
        let bs = build_plan.schema().unwrap();
        let plan = PhysPlan::HashJoin {
            probe: Box::new(PhysPlan::Scan {
                table: tu,
                ranges: vec![(0, 1)],
                projection: None,
                via_rle_index: false,
                pushed: vec![],
            }),
            build: Arc::new(BuildSide::new(build_plan, bs, vec![0])),
            probe_keys: vec!["k".into()],
            join_type: JoinType::Inner,
        };
        let out = run(&plan);
        assert_eq!(out.len(), 1, "case-insensitive keys should match");
    }
}
