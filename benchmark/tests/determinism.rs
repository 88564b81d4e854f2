//! Same seed, same work: the generated operation lists and every count the
//! program reports repeat exactly; the metric vocabulary matches
//! `BENCHMARK.json`.

use tabviz::obs::json::{parse, JsonValue};
use tabviz_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use tabviz_benchmark::workloads::{run, Budget, RunConfig, RunOutput, Scale};

/// Every workload at about a twentieth of its size; the traced path, so the
/// probes run too.
fn check_run(workload: &str, seed: u64) -> RunOutput {
    let budget = if workload.ends_with("_storm") {
        Budget::Ops(400)
    } else {
        Budget::Ops(12)
    };
    let cfg = RunConfig {
        seed,
        budget,
        traced: true,
        scale: Scale::CHECK,
    };
    run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// Metrics that are counts of what the program did, not times.
const COUNTS: &[&str] = &[
    "backend.trips_per_op",
    "core.remote_per_op",
    "core.local_per_op",
    "core.fused_away_per_op",
    "cluster.path_l1_fraction",
    "cluster.path_peer_fraction",
    "cluster.path_l2_fraction",
    "cluster.path_backend_fraction",
];

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for workload in WORKLOADS {
        let (a, b) = (check_run(workload, 7), check_run(workload, 7));
        assert_eq!(a.failed, 0, "{workload}: {:?}", a.failures);
        assert!(a.attempted > 0);
        assert_eq!(a.attempted, b.attempted, "{workload}");
        assert_eq!(a.schedule_digest, b.schedule_digest, "{workload}");
        // One client: the counts repeat exactly. Eight concurrent clients on
        // a clock: whether an arrival during another's 17 ms backend trip, or
        // beside a refresh, also misses depends on the interleaving, so some
        // arrivals of a few hundred may differ (0.04 seen over thirty runs).
        let slack = if workload.ends_with("_storm") {
            0.05
        } else {
            0.0
        };
        for name in COUNTS {
            let (x, y) = (a.metrics.get(name), b.metrics.get(name));
            assert!((x - y).abs() <= slack, "{workload} {name}: {x} vs {y}");
        }
        assert!(
            !a.spans.is_empty(),
            "{workload}: the traced run recorded no spans"
        );
        let other = check_run(workload, 8);
        assert_ne!(a.schedule_digest, other.schedule_digest, "{workload}");
    }
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry lacks '{key}'"))
}

fn assert_same_metrics(listed: &[JsonValue], defs: &[MetricDef]) {
    let listed: Vec<(&str, &str, &str)> = listed
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect();
    let defined: Vec<(&str, &str, &str)> =
        defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
    assert_eq!(listed, defined);
    for (name, unit, better) in defined {
        let word = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(word(name, "_.-") && name.len() <= 64, "name '{name}'");
        assert!(word(unit, "_/%.-") && unit.len() <= 16, "unit '{unit}'");
        assert!(better == "lower" || better == "higher", "better '{better}'");
    }
}

#[test]
fn vocabulary_matches_benchmark_json() {
    let benchmark = benchmark_json();
    let list = |key: &str| benchmark.get(key).and_then(JsonValue::as_arr).expect(key);
    let workloads: Vec<&str> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_same_metrics(list("end_to_end"), END_TO_END);
    assert_same_metrics(list("per_layer"), PER_LAYER);
    for metric in list("end_to_end") {
        let bound = metric
            .get("bound")
            .and_then(JsonValue::as_f64)
            .expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", field(metric, "name"));
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
}
