//! `compare A.json B.json`: one verdict per (end-to-end metric, workload),
//! never a combined score.
//!
//! `A` and `B` are files written by `run`. A metric is `regressed` when B's
//! median is worse than A's by more than the bound `BENCHMARK.json` fixes,
//! `unresolved` when the noise is wider than that bound — A's own
//! run-to-run spread, or for the latency medians the spread between the
//! segments of a run (`bench.segment_iqr_fraction`) — and `ok` otherwise.

use crate::stats::{iqr_fraction, median};
use std::fmt::Write as _;
use tabviz::obs::json::{parse, JsonValue};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

pub struct Row {
    pub metric: String,
    pub workload: String,
    pub a: f64,
    pub b: f64,
    /// Share of A by which B is worse (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub noise: f64,
    pub verdict: Verdict,
}

/// Values of one metric of one workload, one per repetition.
fn values(results: &JsonValue, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get(metric))
        .and_then(JsonValue::as_arr)
        .map(|vs| vs.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

pub fn compare(benchmark: &str, a: &str, b: &str) -> Result<Vec<Row>, String> {
    let benchmark = parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let a = parse(a).map_err(|e| format!("A: {e}"))?;
    let b = parse(b).map_err(|e| format!("B: {e}"))?;
    let list = |key: &str| -> Result<Vec<JsonValue>, String> {
        benchmark
            .get(key)
            .and_then(JsonValue::as_arr)
            .map(<[JsonValue]>::to_vec)
            .ok_or_else(|| format!("BENCHMARK.json has no '{key}' list"))
    };
    let text = |v: &JsonValue, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry lacks '{key}'"))
    };
    let mut rows = Vec::new();
    for metric in list("end_to_end")? {
        let name = text(&metric, "name")?;
        let lower_is_better = text(&metric, "better")? == "lower";
        let bound = metric
            .get("bound")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric '{name}' has no bound"))?;
        for workload in list("workloads")? {
            let workload = text(&workload, "name")?;
            let (va, vb) = (
                values(&a, &workload, "end_to_end", &name),
                values(&b, &workload, "end_to_end", &name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "'{name}' on '{workload}' is missing from a results file"
                ));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma;
            let mut noise = iqr_fraction(&va);
            if name == "interaction_p50_ms" {
                for side in [&a, &b] {
                    let iqr = values(side, &workload, "per_layer", "bench.segment_iqr_fraction");
                    noise = noise.max(median(&iqr));
                }
            }
            let verdict = if noise > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                metric: name.clone(),
                workload,
                a: ma,
                b: mb,
                worse_by,
                bound,
                noise,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<16} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict\n",
        "metric", "workload", "A", "B", "worse by", "bound", "noise"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<20} {:<16} {:>12.4} {:>12.4} {:>+8.1}% {:>6.1}% {:>6.1}%  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.noise * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "interaction_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "interactions_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
        ]
    }"#;

    fn results(p50: &str, rate: &str, iqr: &str) -> String {
        format!(
            r#"{{"workloads": {{"w": {{
                "end_to_end": {{"interaction_p50_ms": {p50}, "interactions_per_s": {rate}}},
                "per_layer": {{"bench.segment_iqr_fraction": {iqr}}}}}}}}}"#
        )
    }

    #[test]
    fn verdicts_follow_bound_direction_and_noise() {
        let a = results("[10.0, 10.1, 9.9]", "[100.0]", "[0.01]");
        let same = compare(BENCHMARK, &a, &a).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));

        let slower = results("[11.5]", "[85.0]", "[0.01]");
        let rows = compare(BENCHMARK, &a, &slower).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Regressed));

        let faster = results("[8.0]", "[130.0]", "[0.01]");
        let rows = compare(BENCHMARK, &a, &faster).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by < 0.0));

        let noisy = results("[11.5]", "[100.0]", "[0.3]");
        let rows = compare(BENCHMARK, &a, &noisy).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Ok);
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let a = results("[10.0]", "[100.0]", "[0.01]");
        assert!(compare(BENCHMARK, &a, r#"{"workloads": {}}"#).is_err());
    }
}
