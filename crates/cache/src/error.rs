//! The workspace error taxonomy.
//!
//! Lower layers define their own precise errors — [`ExecError`] for
//! execution, [`BudgetExceeded`] for resource caps, [`AnalysisError`] for the replay engine — and this
//! module adds the cache layer's [`ConfigError`] plus the umbrella
//! [`ReuseLensError`] that every end-to-end pipeline (scoring through
//! [`try_report_from_analysis`](crate::try_report_from_analysis), the
//! metrics layer's analyses) returns.
//! `From` impls convert each lower error losslessly, so `?` composes the
//! whole stack.

use reuselens_core::{AnalysisError, BudgetExceeded, SnapshotError};
use reuselens_trace::ExecError;
use std::error::Error;
use std::fmt;

/// An invalid cache, TLB, or hierarchy description.
///
/// Returned by [`CacheConfig::try_new`](crate::CacheConfig::try_new),
/// [`CacheConfig::try_tlb`](crate::CacheConfig::try_tlb),
/// [`MemoryHierarchy::try_itanium2_scaled`](crate::MemoryHierarchy::try_itanium2_scaled),
/// and [`MemoryHierarchy::validate`](crate::MemoryHierarchy::validate). The
/// panicking constructors delegate to the fallible ones and panic with the
/// same message this error displays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The line (or page) size is not a power of two.
    LineSizeNotPowerOfTwo {
        /// The offending line size.
        line_size: u64,
    },
    /// The capacity is zero or not a multiple of the line size.
    CapacityNotMultiple {
        /// The offending capacity.
        capacity: u64,
        /// The line size it must be a positive multiple of.
        line_size: u64,
    },
    /// The way count is zero or does not divide the block count.
    WaysDontDivideBlocks {
        /// The offending way count.
        ways: u32,
        /// Total blocks (capacity / line size).
        blocks: u64,
    },
    /// A TLB description whose `entries * page_size` overflows `u64`.
    TlbOverflow {
        /// Requested entry count.
        entries: u64,
        /// Requested page size.
        page_size: u64,
    },
    /// A hierarchy with no cache levels.
    NoLevels {
        /// Name of the offending hierarchy.
        hierarchy: String,
    },
    /// Two levels (or a level and the TLB) share a name, which would make
    /// per-level reports ambiguous.
    DuplicateLevel {
        /// Name of the offending hierarchy.
        hierarchy: String,
        /// The repeated level name.
        name: String,
    },
    /// A scale factor leaves one level of a scaled preset invalid
    /// ([`MemoryHierarchy::try_itanium2_scaled`](crate::MemoryHierarchy::try_itanium2_scaled)).
    ScaledLevel {
        /// The capacity divisor.
        factor: u64,
        /// Name of the level it breaks.
        level: String,
        /// What is wrong with the scaled level.
        error: Box<ConfigError>,
    },
    /// The miss-penalty vector length does not match the level count.
    PenaltyMismatch {
        /// Name of the offending hierarchy.
        hierarchy: String,
        /// Number of cache levels.
        levels: usize,
        /// Number of per-level miss penalties supplied.
        penalties: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LineSizeNotPowerOfTwo { line_size } => {
                write!(f, "line size must be power of two (got {line_size})")
            }
            ConfigError::CapacityNotMultiple {
                capacity,
                line_size,
            } => write!(
                f,
                "capacity must be a positive multiple of the line size \
                 (capacity {capacity}, line size {line_size})"
            ),
            ConfigError::WaysDontDivideBlocks { ways, blocks } => {
                write!(f, "ways must divide blocks ({ways} ways, {blocks} blocks)")
            }
            ConfigError::TlbOverflow { entries, page_size } => write!(
                f,
                "TLB capacity overflows: {entries} entries of {page_size}-byte pages"
            ),
            ConfigError::NoLevels { hierarchy } => {
                write!(f, "hierarchy {hierarchy:?} has no cache levels")
            }
            ConfigError::DuplicateLevel { hierarchy, name } => {
                write!(f, "hierarchy {hierarchy:?} has two levels named {name:?}")
            }
            ConfigError::ScaledLevel {
                factor,
                level,
                error,
            } => write!(f, "cannot divide level {level:?} by {factor}: {error}"),
            ConfigError::PenaltyMismatch {
                hierarchy,
                levels,
                penalties,
            } => write!(
                f,
                "hierarchy {hierarchy:?} has {levels} levels but {penalties} miss penalties"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Any failure an end-to-end ReuseLens pipeline can report: execution,
/// configuration, resource budgets, or an isolated panic
/// in a worker thread. Re-exported at the workspace root as
/// `reuselens::ReuseLensError`.
#[derive(Debug, Clone, PartialEq)]
pub enum ReuseLensError {
    /// Program execution failed in the trace executor.
    Exec(ExecError),
    /// A cache, TLB, or hierarchy description is invalid.
    Config(ConfigError),
    /// An analysis crossed its resource budget.
    Budget(BudgetExceeded),
    /// A grain's replay thread panicked.
    GrainFailed {
        /// Block size of the failed grain.
        block_size: u64,
        /// Panic message, or `"unknown panic payload"`.
        message: String,
    },
    /// A hierarchy requires a granularity the analysis did not measure.
    MissingProfile {
        /// Name of the hierarchy that needs the profile.
        hierarchy: String,
        /// The block size (line or page size) that was not measured.
        granularity: u64,
    },
    /// The checkpoint/resume subsystem failed (unwritable checkpoint
    /// directory, failed snapshot write). Rejected snapshot *files* never
    /// surface here — resume falls back past them.
    Snapshot(SnapshotError),
}

impl fmt::Display for ReuseLensError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseLensError::Exec(e) => e.fmt(f),
            ReuseLensError::Config(e) => e.fmt(f),
            ReuseLensError::Budget(e) => e.fmt(f),
            ReuseLensError::GrainFailed {
                block_size,
                message,
            } => write!(
                f,
                "replay thread for grain {block_size} panicked: {message}"
            ),
            ReuseLensError::MissingProfile {
                hierarchy,
                granularity,
            } => write!(
                f,
                "no profile at granularity {granularity} (required by hierarchy {hierarchy:?})"
            ),
            ReuseLensError::Snapshot(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl Error for ReuseLensError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReuseLensError::Exec(e) => Some(e),
            ReuseLensError::Config(e) => Some(e),
            ReuseLensError::Budget(e) => Some(e),
            ReuseLensError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ReuseLensError {
    fn from(e: SnapshotError) -> ReuseLensError {
        ReuseLensError::Snapshot(e)
    }
}

impl From<ExecError> for ReuseLensError {
    fn from(e: ExecError) -> ReuseLensError {
        ReuseLensError::Exec(e)
    }
}

impl From<ConfigError> for ReuseLensError {
    fn from(e: ConfigError) -> ReuseLensError {
        ReuseLensError::Config(e)
    }
}

impl From<BudgetExceeded> for ReuseLensError {
    fn from(e: BudgetExceeded) -> ReuseLensError {
        ReuseLensError::Budget(e)
    }
}

impl From<AnalysisError> for ReuseLensError {
    fn from(e: AnalysisError) -> ReuseLensError {
        match e {
            AnalysisError::Exec(e) => ReuseLensError::Exec(e),
            AnalysisError::Budget(e) => ReuseLensError::Budget(e),
            AnalysisError::Checkpoint(e) => ReuseLensError::Snapshot(e),
            AnalysisError::GrainPanicked {
                block_size,
                message,
            } => ReuseLensError::GrainFailed {
                block_size,
                message,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_panic_phrases() {
        // The panicking constructors fail with these exact phrases; the
        // fallible paths must keep displaying them.
        let e = ConfigError::LineSizeNotPowerOfTwo { line_size: 48 };
        assert!(e.to_string().contains("line size must be power of two"));
        let e = ConfigError::CapacityNotMultiple {
            capacity: 100,
            line_size: 64,
        };
        assert!(e
            .to_string()
            .contains("capacity must be a positive multiple of the line size"));
        let e = ConfigError::WaysDontDivideBlocks { ways: 3, blocks: 8 };
        assert!(e.to_string().contains("ways must divide blocks"));
        let e = ReuseLensError::MissingProfile {
            hierarchy: "h".into(),
            granularity: 128,
        };
        assert!(e.to_string().contains("no profile at granularity"));
    }

    #[test]
    fn analysis_error_flattens_into_the_umbrella() {
        let e: ReuseLensError = AnalysisError::GrainPanicked {
            block_size: 64,
            message: "boom".into(),
        }
        .into();
        assert_eq!(
            e,
            ReuseLensError::GrainFailed {
                block_size: 64,
                message: "boom".into()
            }
        );
        let src = ReuseLensError::Config(ConfigError::NoLevels {
            hierarchy: "x".into(),
        });
        assert!(src.source().is_some());
    }
}
