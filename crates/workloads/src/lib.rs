//! Workloads: synthetic FAA flights data, the paper's dashboards and
//! seeded request storms.
//!
//! The paper's running example is "the popular FAA Flights On-time dataset
//! ... all the flights in the US in the past decade" (Sect. 3, \[43\]). The
//! real extract is not redistributable, so [`faa`] generates a synthetic
//! equivalent with matching shape: a dozen carriers with zipf-like volume, a
//! few hundred airports with state rollups, seasonal/weekday delay effects,
//! heavy-tailed delays and ~2% cancellations — everything the Fig. 1 / Fig. 2
//! dashboards group and filter on.
//!
//! [`dashboards`] reconstructs those two dashboards; [`storm`] generates
//! seeded open-loop arrival schedules for the cluster.

pub mod dashboards;
pub mod faa;
pub mod storm;

pub use dashboards::{fig1_dashboard, fig2_dashboard};
pub use faa::{carriers_dim, generate_flights, FaaConfig};
pub use storm::{
    expected_top1pct_share, generate_storm, schedule_digest, storm_stats, Arrival, StormConfig,
    StormStats, StormStep,
};
