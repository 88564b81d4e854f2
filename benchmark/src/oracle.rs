//! The result oracle: every answer the program gave during a run is compared,
//! after the timed window, with direct single-threaded evaluation of the same
//! query on the same database — no cache, no batch, no fusion, no cluster.

use std::collections::HashMap;
use std::sync::Arc;
use tabviz::prelude::*;

/// Relative tolerance for `Real` cells: parallel and serial plans may add
/// floating-point partial sums in a different order.
const REAL_TOLERANCE: f64 = 1e-9;

pub struct Oracle {
    tde: Tde,
    /// canonical spec text → reference rows (storms repeat a few hundred
    /// keys thousands of times; each is evaluated once).
    references: HashMap<String, Arc<Reference>>,
}

struct Reference {
    columns: Vec<String>,
    /// Rows of the query without its top-n cut, sorted.
    rows: Vec<Vec<Value>>,
}

impl Oracle {
    pub fn new(db: Arc<Database>) -> Self {
        Oracle {
            tde: Tde::new(db),
            references: HashMap::new(),
        }
    }

    /// `Ok` when `got` is a correct answer to `spec`, modulo row order.
    pub fn check(&mut self, spec: &QuerySpec, got: &Chunk) -> std::result::Result<(), String> {
        let reference = self.reference(spec)?;
        // Compare by column name: the program may order columns its own way.
        let mut index = Vec::with_capacity(got.num_columns());
        for name in got.schema().names() {
            match reference.columns.iter().position(|c| c == name) {
                Some(i) => index.push(i),
                None => return Err(format!("unexpected column '{name}'")),
            }
        }
        if index.len() != reference.columns.len() {
            return Err(format!(
                "{} columns, reference has {}",
                index.len(),
                reference.columns.len()
            ));
        }
        let project =
            |row: &Vec<Value>| -> Vec<Value> { index.iter().map(|&i| row[i].clone()).collect() };
        let mut expected: Vec<Vec<Value>> = reference.rows.iter().map(project).collect();
        expected.sort();
        let mut rows = got.to_rows();
        match spec.topn {
            None => {
                rows.sort();
                rows_equal(&rows, &expected)
            }
            // Ties at the cut make the top-n row set ambiguous, so check what
            // is not: the size, that every row is a row of the uncut answer,
            // and that the sort-key values are the n best, in order.
            Some(n) => {
                if rows.len() != n.min(expected.len()) {
                    return Err(format!("top-{n} returned {} rows", rows.len()));
                }
                for row in &rows {
                    if !expected.iter().any(|e| row_equal(row, e)) {
                        return Err(format!("row {row:?} is not in the uncut answer"));
                    }
                }
                let mut key_index = Vec::new();
                for k in &spec.order {
                    let i = got
                        .schema()
                        .index_of(&k.column)
                        .map_err(|e| format!("sort key: {e}"))?;
                    key_index.push((i, k.asc));
                }
                let keys = |row: &Vec<Value>| -> Vec<Value> {
                    key_index.iter().map(|&(i, _)| row[i].clone()).collect()
                };
                let by_keys = |a: &Vec<Value>, b: &Vec<Value>| {
                    for &(i, asc) in &key_index {
                        let ord = a[i].cmp(&b[i]);
                        if ord.is_ne() {
                            return if asc { ord } else { ord.reverse() };
                        }
                    }
                    std::cmp::Ordering::Equal
                };
                expected.sort_by(by_keys);
                let best: Vec<Vec<Value>> = expected.iter().take(n).map(keys).collect();
                let got_keys: Vec<Vec<Value>> = rows.iter().map(keys).collect();
                rows_equal(&got_keys, &best)
            }
        }
    }

    fn reference(&mut self, spec: &QuerySpec) -> std::result::Result<Arc<Reference>, String> {
        let key = spec.canonical_text();
        if let Some(r) = self.references.get(&key) {
            return Ok(Arc::clone(r));
        }
        let mut uncut = spec.clone();
        uncut.topn = None;
        uncut.order.clear();
        let plan = uncut
            .to_plan()
            .map_err(|e| format!("reference plan: {e}"))?;
        let chunk = self
            .tde
            .execute_plan(&plan, &ExecOptions::serial())
            .map_err(|e| format!("reference evaluation: {e}"))?;
        let reference = Arc::new(Reference {
            columns: chunk
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: chunk.to_rows(),
        });
        self.references.insert(key, Arc::clone(&reference));
        Ok(reference)
    }
}

fn rows_equal(got: &[Vec<Value>], expected: &[Vec<Value>]) -> std::result::Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{} rows, reference has {}",
            got.len(),
            expected.len()
        ));
    }
    for (g, e) in got.iter().zip(expected) {
        if !row_equal(g, e) {
            return Err(format!("row {g:?}, reference has {e:?}"));
        }
    }
    Ok(())
}

fn row_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Real(p), Value::Real(q)) => {
                p == q || (p - q).abs() <= REAL_TOLERANCE * p.abs().max(q.abs())
            }
            _ => x == y,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz::workloads::{generate_flights, FaaConfig};

    fn fixture() -> (Oracle, Tde) {
        let flights = generate_flights(&FaaConfig::with_rows(2_000)).unwrap();
        let db = Arc::new(Database::new("faa"));
        db.put(Table::from_chunk("flights", &flights, &["carrier"]).unwrap())
            .unwrap();
        (Oracle::new(Arc::clone(&db)), Tde::new(db))
    }

    fn by_carrier() -> QuerySpec {
        QuerySpec::new("faa", LogicalPlan::scan("flights"))
            .group("carrier")
            .agg(AggCall::new(AggFunc::Count, None, "n"))
    }

    #[test]
    fn accepts_the_engine_and_rejects_a_wrong_answer() {
        let (mut oracle, tde) = fixture();
        let spec = by_carrier();
        let plan = spec.to_plan().unwrap();
        let good = tde.execute_plan(&plan, &ExecOptions::default()).unwrap();
        oracle.check(&spec, &good).expect("engine answer");
        let short = good.slice(0, good.len() - 1);
        assert!(oracle.check(&spec, &short).is_err());
        let other = by_carrier().filter(bin(BinOp::Le, col("distance"), lit(500i64)));
        let wrong = tde
            .execute_plan(&other.to_plan().unwrap(), &ExecOptions::default())
            .unwrap();
        assert!(oracle.check(&spec, &wrong).is_err());
    }

    #[test]
    fn top_n_checks_keys_not_tied_rows() {
        let (mut oracle, tde) = fixture();
        let spec = by_carrier().order_by(vec![SortKey::desc("n")]).top(3);
        let got = tde
            .execute_plan(&spec.to_plan().unwrap(), &ExecOptions::default())
            .unwrap();
        oracle.check(&spec, &got).expect("top-3");
        let bottom = by_carrier().order_by(vec![SortKey::asc("n")]).top(3);
        let wrong = tde
            .execute_plan(&bottom.to_plan().unwrap(), &ExecOptions::default())
            .unwrap();
        assert!(oracle.check(&spec, &wrong).is_err());
    }
}
