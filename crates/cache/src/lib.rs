//! # reuselens-cache — memory-hierarchy models
//!
//! Turns the reuse-distance profiles measured by `reuselens-core` into
//! cache- and TLB-miss predictions for concrete memory hierarchies, and
//! models run time with an additive cycle model:
//!
//! * [`MemoryHierarchy::itanium2`] is the paper's evaluation platform
//!   (256 KB 8-way L2, 1.5 MB 6-way L3, 128-entry fully associative TLB);
//! * [`predict_level`] applies the fully associative threshold rule or the
//!   probabilistic binomial model for set-associative caches, *per reuse
//!   pattern*;
//! * [`CacheSim`] / [`HierarchySim`] are true LRU simulators used as the
//!   reproduction's stand-in for hardware counters;
//! * [`predict_cycles`] converts miss counts into the paper's
//!   time/non-stall breakdown;
//! * [`try_report_from_analysis`] scores one measured analysis against one
//!   hierarchy, and [`evaluate_program`] runs a program and scores it in
//!   one call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod config;
mod error;
mod evaluate;
mod model;
mod simulator;
mod timing;

pub use config::{Assoc, CacheConfig, MemoryHierarchy};
pub use error::{ConfigError, ReuseLensError};
pub use evaluate::{
    evaluate_program, report_from_analysis, try_report_from_analysis, HierarchyReport,
};
pub use model::{miss_curve, miss_probability, predict_level, LevelPrediction};
pub use simulator::{CacheSim, HierarchySim};
pub use timing::{predict_cycles, TimingBreakdown};
