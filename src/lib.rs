//! # ReuseLens
//!
//! A reuse-distance-based data-locality analysis toolchain — a
//! production-quality Rust reproduction of *"Pinpointing and Exploiting
//! Opportunities for Enhancing Data Reuse"* (Marin & Mellor-Crummey,
//! ISPASS 2008).
//!
//! The toolchain answers the question traditional profilers cannot: not
//! just *where* a program misses in cache, but **why** — which loop drives
//! each reuse of data, how far apart the uses are, and which transformation
//! (interchange, blocking, fusion, strip-mine-and-promote, AoS→SoA
//! splitting, time skewing) would shorten the distance.
//!
//! ## Pipeline
//!
//! 1. Describe the program in the [`ir`] — arrays with real layouts,
//!    loads/stores with symbolic subscripts, loop/routine scopes (this
//!    substitutes for the paper's binary instrumentation).
//! 2. [`trace::Executor`] runs it, emitting one event per access and per
//!    scope entry/exit.
//! 3. [`core::ReuseAnalyzer`] measures reuse distance online, attributing
//!    every reuse arc to a *(sink, source scope, carrying scope)* pattern.
//! 4. [`cache`] predicts per-pattern misses for real hierarchies
//!    (Itanium2 preset) and models run time; a true LRU simulator
//!    cross-checks predictions.
//! 5. [`statics`] recovers stride formulas and cache-line fragmentation
//!    factors; [`metrics`] attributes everything over the scope tree;
//!    [`advisor`] turns patterns into the paper's Table I
//!    recommendations; [`model`] extrapolates to unmeasured input sizes.
//! 6. [`workloads`] model the paper's two case studies (Sweep3D, GTC)
//!    with every evaluated transformation variant.
//!
//! ## Quickstart
//!
//! ```
//! use reuselens::cache::MemoryHierarchy;
//! use reuselens::ir::ProgramBuilder;
//! use reuselens::metrics::run_locality_analysis;
//!
//! // A loop nest that re-sweeps a large array.
//! let mut p = ProgramBuilder::new("quickstart");
//! let a = p.array("a", 8, &[1 << 16]);
//! p.routine("main", |r| {
//!     r.for_("t", 0, 1, |r, _| {
//!         r.for_("i", 0, (1 << 16) - 1, |r, i| {
//!             r.load(a, vec![i.into()]);
//!         });
//!     });
//! });
//! let prog = p.finish();
//!
//! let la = run_locality_analysis(&prog, &MemoryHierarchy::itanium2(), vec![])?;
//! let l2 = la.level("L2").unwrap();
//! // The repeat loop `t` carries the capacity misses.
//! let (carrier, _, share) = l2.top_carriers()[0];
//! assert_eq!(carrier, prog.scope_by_name("t").unwrap());
//! assert!(share > 0.4);
//! # Ok::<(), reuselens::ReuseLensError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use reuselens_cache::ReuseLensError;

/// Compiles and runs the Rust examples in `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Loop-nest program IR (the analyzable stand-in for an optimized binary).
pub mod ir {
    pub use reuselens_ir::*;
}

/// Trace execution: interprets the IR, emits instrumentation events.
pub mod trace {
    pub use reuselens_trace::*;
}

/// Online reuse-distance analysis per reuse pattern (the paper's core).
pub mod core {
    pub use reuselens_core::*;
}

/// Cache/TLB miss models, LRU simulator, and the cycle model.
pub mod cache {
    pub use reuselens_cache::*;
}

/// Static analysis: stride formulas, reuse groups, fragmentation.
/// (Named `statics` because `static` is a keyword.)
pub mod statics {
    pub use reuselens_static::*;
}

/// Scope-tree attribution, pattern database, text/XML reports.
pub mod metrics {
    pub use reuselens_metrics::*;
}

/// Cross-input scaling models of reuse patterns.
pub mod model {
    pub use reuselens_model::*;
}

/// Table I transformation recommendations.
pub mod advisor {
    pub use reuselens_advisor::*;
}

/// Sweep3D and GTC workload models with the paper's variants.
pub mod workloads {
    pub use reuselens_workloads::*;
}

/// Pipeline observability: hierarchical stage spans, typed counters and
/// gauges, a span timeline, a JSONL event log, and Prometheus/human
/// exporters. Disabled by default; enter an [`obs::Obs`] handle with
/// [`obs::Obs::enter`] to record a run (the threads it spawns inherit the
/// scope), or fill the global slot with [`obs::install`].
pub mod obs {
    pub use reuselens_obs::*;
}

/// On-disk columnar trace store: CRC-framed segments plus an index file,
/// published atomically so readers never observe a half-written trace.
pub mod store {
    pub use reuselens_store::*;
}

pub mod serve;
