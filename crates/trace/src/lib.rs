//! # reuselens-trace — deterministic trace execution
//!
//! Interprets a [`reuselens_ir::Program`] and emits the instrumentation
//! event stream the paper's binary rewriter would produce: one event per
//! memory access (reference id, virtual address, width, load/store) and one
//! per routine/loop entry and exit.
//!
//! Analyzers implement [`TraceSink`] and observe events online, or capture
//! the stream once into a compact [`TraceBuffer`] and replay it many times
//! (per block granularity, per cache configuration) without re-interpreting
//! the program. A process that replays one trace over and over can decode
//! it once into a [`DecodedTrace`], which replays the same events without
//! decoding.
//!
//! Every replay runs one loop over a [`StepSource`], whatever the trace's
//! form: fill a [`Stretch`] of decoded lanes (up to [`STEP`] events of an
//! encoded buffer; a decoded trace is one stretch), then play it into each
//! sink. Both forms leave the same [`SegmentState`]s.
//!
//! # Examples
//!
//! ```
//! use reuselens_ir::ProgramBuilder;
//! use reuselens_trace::{Executor, VecSink};
//!
//! let mut p = ProgramBuilder::new("demo");
//! let a = p.array("a", 8, &[8, 8]);
//! p.routine("main", |r| {
//!     r.for_("j", 0, 7, |r, j| {
//!         r.for_("i", 0, 7, |r, i| {
//!             r.store(a, vec![i.into(), j.into()]);
//!         });
//!     });
//! });
//! let prog = p.finish();
//! let mut sink = VecSink::new();
//! let report = Executor::new(&prog).run(&mut sink)?;
//! assert_eq!(report.stores, 64);
//! # Ok::<(), reuselens_trace::ExecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod buffer;
mod decode;
mod decoded;
mod event;
mod exec;
pub mod fault;
pub mod frame;
mod lanes;

pub use buffer::{BufferStats, ExportedTrace, SegmentState, TraceBuffer};
pub use decode::{Column, DecodeError};
pub use decoded::DecodedTrace;
pub use event::{Event, NullSink, SoaBatch, TeeSink, TraceSink, VecSink};
pub use exec::{ExecError, ExecReport, Executor, LoopStats};
pub use lanes::{StepSource, Stretch, STEP};
