//! Opt-in resource budgets for replay analysis.
//!
//! An unattended sweep over a fleet of captures must not let one
//! pathological trace consume the machine: an adversarial or buggy
//! workload can inflate the three resources replay analysis actually
//! grows — events decoded, distinct blocks in the block table, and nodes
//! in the order-statistic set. An [`AnalysisBudget`] caps any subset of
//! the three; when a cap is crossed the grain stops with a
//! [`BudgetExceeded`] carrying the progress counters at the moment of
//! abandonment, so the caller can report *how far* the analysis got and
//! re-run with a larger budget if the trace is worth it.
//!
//! Budgets are enforced by [`analyze_buffer_with`](crate::analyze_buffer_with):
//! the lane loop checks them once per replay step, so a trip lands
//! within 4096 events of the cap. Untrusted traces are checked before any grain sees
//! them, by [`TraceBuffer::import`](reuselens_trace::TraceBuffer::import).

use std::error::Error;
use std::fmt;

/// Which resource cap a [`BudgetExceeded`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetLimit {
    /// Total events replayed.
    Events,
    /// Distinct blocks entered into the block table.
    DistinctBlocks,
    /// Live entries in the order-statistic set.
    TreeNodes,
}

impl fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetLimit::Events => "events",
            BudgetLimit::DistinctBlocks => "distinct blocks",
            BudgetLimit::TreeNodes => "tree nodes",
        })
    }
}

/// Progress counters at a budget check, reported inside
/// [`BudgetExceeded`] so an abandoned grain still tells the operator how
/// far it got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetProgress {
    /// Events replayed so far (accesses + scope transitions).
    pub events: u64,
    /// Distinct blocks the analyzer has seen.
    pub distinct_blocks: u64,
    /// Current order-statistic set size.
    pub tree_nodes: u64,
}

/// A replay was abandoned because it crossed a resource cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The cap that tripped.
    pub limit: BudgetLimit,
    /// The configured maximum for that resource.
    pub allowed: u64,
    /// Where the analysis stood when it stopped.
    pub progress: BudgetProgress,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analysis budget exceeded: {} cap {} crossed after {} events \
             ({} distinct blocks, {} tree nodes)",
            self.limit,
            self.allowed,
            self.progress.events,
            self.progress.distinct_blocks,
            self.progress.tree_nodes
        )
    }
}

impl Error for BudgetExceeded {}

/// Opt-in caps on the resources one grain's replay may consume. The
/// default budget is unlimited; set any subset of the caps with the
/// builder methods.
///
/// # Examples
///
/// ```
/// use reuselens_core::AnalysisBudget;
///
/// let budget = AnalysisBudget::unlimited()
///     .with_max_events(1_000_000)
///     .with_max_distinct_blocks(1 << 20);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisBudget {
    /// Maximum events to replay (`None` = unlimited).
    pub max_events: Option<u64>,
    /// Maximum distinct blocks the analyzer may track.
    pub max_distinct_blocks: Option<u64>,
    /// Maximum order-statistic set entries.
    pub max_tree_nodes: Option<u64>,
}

impl AnalysisBudget {
    /// A budget with no caps (the default).
    pub fn unlimited() -> AnalysisBudget {
        AnalysisBudget::default()
    }

    /// Caps the number of events replayed.
    pub fn with_max_events(mut self, n: u64) -> AnalysisBudget {
        self.max_events = Some(n);
        self
    }

    /// Caps the number of distinct blocks tracked.
    pub fn with_max_distinct_blocks(mut self, n: u64) -> AnalysisBudget {
        self.max_distinct_blocks = Some(n);
        self
    }

    /// Caps the order-statistic set size.
    pub fn with_max_tree_nodes(mut self, n: u64) -> AnalysisBudget {
        self.max_tree_nodes = Some(n);
        self
    }

    /// True when no cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none()
            && self.max_distinct_blocks.is_none()
            && self.max_tree_nodes.is_none()
    }

    /// Checks current progress against the caps.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] naming the first cap crossed.
    pub fn check(&self, progress: BudgetProgress) -> Result<(), BudgetExceeded> {
        let caps = [
            (self.max_events, progress.events, BudgetLimit::Events),
            (
                self.max_distinct_blocks,
                progress.distinct_blocks,
                BudgetLimit::DistinctBlocks,
            ),
            (
                self.max_tree_nodes,
                progress.tree_nodes,
                BudgetLimit::TreeNodes,
            ),
        ];
        for (cap, used, limit) in caps {
            if let Some(allowed) = cap {
                if used > allowed {
                    return Err(BudgetExceeded {
                        limit,
                        allowed,
                        progress,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = AnalysisBudget::unlimited();
        assert!(b.is_unlimited());
        let huge = BudgetProgress {
            events: u64::MAX,
            distinct_blocks: u64::MAX,
            tree_nodes: u64::MAX,
        };
        assert!(b.check(huge).is_ok());
    }

    #[test]
    fn each_cap_trips_independently() {
        let p = BudgetProgress {
            events: 100,
            distinct_blocks: 50,
            tree_nodes: 25,
        };
        let e = AnalysisBudget::unlimited()
            .with_max_events(99)
            .check(p)
            .unwrap_err();
        assert_eq!(e.limit, BudgetLimit::Events);
        assert_eq!(e.allowed, 99);
        assert_eq!(e.progress, p);
        let e = AnalysisBudget::unlimited()
            .with_max_distinct_blocks(49)
            .check(p)
            .unwrap_err();
        assert_eq!(e.limit, BudgetLimit::DistinctBlocks);
        let e = AnalysisBudget::unlimited()
            .with_max_tree_nodes(24)
            .check(p)
            .unwrap_err();
        assert_eq!(e.limit, BudgetLimit::TreeNodes);
        // Exactly at the cap is still within budget.
        assert!(AnalysisBudget::unlimited()
            .with_max_events(100)
            .check(p)
            .is_ok());
    }

    #[test]
    fn display_reports_progress() {
        let e = AnalysisBudget::unlimited()
            .with_max_events(9)
            .check(BudgetProgress {
                events: 10,
                distinct_blocks: 3,
                tree_nodes: 2,
            })
            .unwrap_err();
        let s = e.to_string();
        assert!(s.contains("events"), "{s}");
        assert!(s.contains("10"), "{s}");
        assert!(s.contains("3 distinct blocks"), "{s}");
    }
}
