//! # reuselens-metrics — attribution and reporting
//!
//! Joins the reuse-distance measurements, the cache-model predictions, and
//! the static analysis into the metrics the paper's viewer presents:
//!
//! * exclusive / inclusive miss counts over the **program scope tree**;
//! * misses **carried** by each scope (the tuning signal: the loop to
//!   interchange, block, or fuse around);
//! * per-array totals, **fragmentation misses**, and **irregular misses**;
//! * the flat **reuse-pattern database** sorted by miss contribution;
//! * text tables mirroring the paper's Figures 5, 9, 10 and Table II, and
//!   an hpcviewer-style **XML export**.
//!
//! Entry point: [`run_locality_analysis`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod report;
mod text;
mod xml;

pub use attribution::{LevelMetrics, PatternRow};
pub use report::{
    attribute_analysis, run_locality_analysis, run_locality_analysis_opts, run_locality_estimate,
    EstimateRun, LocalityAnalysis,
};
pub use text::{
    format_array_breakdown, format_carried_misses, format_fragmentation, format_pattern_csv,
    format_pattern_db, format_spatial, format_summary,
};
pub use xml::to_xml;
