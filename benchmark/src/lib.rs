//! The repository benchmark: four dashboard workloads driven from outside
//! the program, end-to-end response-time metrics, per-layer probes, a result
//! oracle and an A/B comparison. See `README.md`.

pub mod compare;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
