//! The benchmark's vocabulary: workload and metric names, units, directions.
//! `BENCHMARK.json` at the repository root lists the same names; the tests
//! keep the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = [
    "extract_explore",
    "warehouse_load",
    "public_storm",
    "refresh_storm",
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("interaction_p50_ms", "ms", "lower"),
    def("interaction_p95_ms", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// One layer each (prefix = crate name; `bench.` = the harness itself);
/// measured in the traced run. A metric whose layer the workload never
/// calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("tde.execute_ms", "ms", "lower"),
    def("tde.execute_serial_ms", "ms", "lower"),
    def("tde.rows_per_s", "rows/s", "higher"),
    def("tde.plan_us", "us", "lower"),
    def("tql.parse_us", "us", "lower"),
    def("tql.write_us", "us", "lower"),
    def("storage.build_table_ms", "ms", "lower"),
    def("storage.encoded_bytes_per_row", "B/row", "lower"),
    def("storage.pack_mb_s", "MB/s", "higher"),
    def("storage.unpack_mb_s", "MB/s", "higher"),
    def("workloads.generate_ms", "ms", "lower"),
    def("core.compile_us", "us", "lower"),
    def("core.fuse_us", "us", "lower"),
    def("core.graph_us", "us", "lower"),
    def("core.remote_per_op", "count/op", "lower"),
    def("core.local_per_op", "count/op", "higher"),
    def("core.fused_away_per_op", "count/op", "higher"),
    def("core.overlap_ratio", "ratio", "higher"),
    def("core.execute_hit_us", "us", "lower"),
    def("cache.lookup_hit_us", "us", "lower"),
    def("cache.lookup_miss_us", "us", "lower"),
    def("cache.entries", "count", "lower"),
    def("cache.store_us", "us", "lower"),
    def("cache.implies_ns", "ns", "lower"),
    def("cache.exact_hit_fraction", "fraction", "higher"),
    def("cache.subsumption_hit_fraction", "fraction", "higher"),
    def("cache.l2_hit_fraction", "fraction", "higher"),
    def("cache.evictions", "count", "lower"),
    def("cache.encode_mb_s", "MB/s", "higher"),
    def("cache.decode_mb_s", "MB/s", "higher"),
    def("cache.purge_tag_us", "us", "lower"),
    def("sched.admit_release_ns", "ns", "lower"),
    def("sched.shed", "count", "lower"),
    def("sched.peak_queued", "count", "lower"),
    def("sched.peak_running", "count", "lower"),
    def("backend.pool_acquire_ns", "ns", "lower"),
    def("backend.pool_opened", "count", "lower"),
    def("backend.pool_reused", "count", "higher"),
    def("backend.pool_waited", "count", "lower"),
    def("backend.sim_query_ms", "ms", "lower"),
    def("backend.sim_busy_fraction", "fraction", "lower"),
    def("backend.trips_per_op", "count/op", "lower"),
    def("dataserver.connect_us", "us", "lower"),
    def("dataserver.hit_query_us", "us", "lower"),
    def("cluster.route_ns", "ns", "lower"),
    def("cluster.open_session_us", "us", "lower"),
    def("cluster.peer_get_us", "us", "lower"),
    def("cluster.peer_put_us", "us", "lower"),
    def("cluster.peer_hit_fraction", "fraction", "higher"),
    def("cluster.path_l1_fraction", "fraction", "higher"),
    def("cluster.path_peer_fraction", "fraction", "higher"),
    def("cluster.path_l2_fraction", "fraction", "higher"),
    def("cluster.path_backend_fraction", "fraction", "lower"),
    def("cluster.path_l1_p50_ms", "ms", "lower"),
    def("cluster.path_peer_p50_ms", "ms", "lower"),
    def("cluster.path_l2_p50_ms", "ms", "lower"),
    def("cluster.path_backend_p50_ms", "ms", "lower"),
    def("cluster.refresh_ms", "ms", "lower"),
    def("cluster.refresh_purged", "count", "lower"),
    def("obs.trace_ns", "ns", "lower"),
    def("obs.recorder_bytes", "B", "lower"),
    def("bench.interactions_per_s", "1/s", "higher"),
    def("bench.engine_share", "ratio", "lower"),
    def("bench.unattributed_fraction", "fraction", "lower"),
    def("bench.trace_overhead_fraction", "fraction", "lower"),
    def("bench.segment_iqr_fraction", "fraction", "lower"),
    def("bench.send_lag_p95_ms", "ms", "lower"),
    def("bench.slo_miss_fraction", "fraction", "lower"),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric '{name}'"
        );
        // A ratio over an empty set is "not measured", reported as 0.
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `"name": {"value": v, "unit": "u"}` for every metric of `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                self.get(d.name),
                d.unit
            );
        }
        out.push('}');
        out
    }
}
