//! # reuselens-core — online reuse-distance analysis
//!
//! The primary contribution of the reproduced paper: measuring memory reuse
//! distance *per reuse pattern*. A reuse pattern is the triple
//! *(sink reference, source scope, carrying scope)*:
//!
//! * the **sink** is the reference at the destination end of a reuse arc;
//! * the **source scope** is where the block was last accessed before;
//! * the **carrying scope** is the innermost dynamic scope active across
//!   the whole reuse interval — the loop that *drives* the reuse, and the
//!   one a transformation must target to shorten the distance.
//!
//! The machinery follows the paper exactly:
//!
//! * a logical **access clock** incremented per memory operation;
//! * a [three-level hierarchical block table](BlockTable) mapping each
//!   block to its last access time and last accessor;
//! * an [order-statistic set](TimeBits) over last-access times that counts
//!   the distinct blocks accessed since any past time — a popcount bitmap
//!   over the logical clock, the one such structure both engines (exact
//!   and sampled) share;
//! * a [dynamic scope stack](ScopeStack) searched for the carrying scope;
//! * per-pattern [histograms](Histogram) with logarithmic bins.
//!
//! Four calls cover whole-program analysis. [`analyze_program`] measures
//! every grain online while the program runs. [`capture_program`]
//! interprets the program once into a compact trace buffer, and
//! [`analyze_buffer`] replays it on replay lanes — one per free core, each
//! decoding the trace once for the grains dealt to it — with
//! bit-identical profiles. [`analyze_buffer_with`] is the same replay
//! with every knob in one [`AnalyzeOptions`]: sampling, a budget, and
//! checkpointing; it replays a trace decoded once
//! ([`DecodedTrace`](reuselens_trace::DecodedTrace)) the same way.
//! Each grain replays through one lane loop that fills a stretch of
//! decoded lanes per step, plays it into the grain and, after each of
//! the grain's steps, checks its budget and writes its snapshots. Or drive a [`ReuseAnalyzer`] /
//! [`MultiGrainAnalyzer`] through [`reuselens_trace::Executor`] yourself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod analyze;
mod analyzer;
mod blocktable;
mod budget;
mod context;
mod histogram;
pub mod oracle;
mod patterns;
mod sampling;
mod scopestack;
mod serialize;
mod snapshot;
mod spatial;
mod timebits;

pub use analyze::{
    analyze_buffer, analyze_buffer_with, analyze_program, capture_program, AnalysisError,
    AnalysisResult, AnalyzeOptions, CheckpointOptions, FailureReport, GrainError, PartialAnalysis,
    ReplayTiming,
};
pub use analyzer::{MultiGrainAnalyzer, ReuseAnalyzer};
pub use blocktable::{BlockEntry, BlockTable, MAX_BLOCKS};
pub use budget::{AnalysisBudget, BudgetExceeded, BudgetProgress};
pub use context::{ContextId, ContextProfile, CtxPattern, CtxPatternKey};
pub use histogram::Histogram;
pub use patterns::{PatternKey, ReusePattern, ReuseProfile};
pub use sampling::{SampledAnalyzer, SamplingConfig, SamplingError, SamplingInfo};
pub use scopestack::ScopeStack;
pub use serialize::{read_profiles, write_profiles, ReadError, SavedProfiles};
pub use snapshot::{
    snapshot_file_name, snapshot_meta, SnapshotError, SnapshotMeta, SNAPSHOT_VERSION,
};
pub use spatial::{measure_spatial, ArraySpatial, SpatialProfile, SpatialSink};
pub use timebits::TimeBits;
