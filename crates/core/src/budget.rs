//! An opt-in event budget for replay analysis.
//!
//! An unattended sweep over a fleet of captures must not let one
//! pathological trace consume the machine. An [`AnalysisBudget`] caps the
//! events one grain replays; when the cap is crossed the grain stops with
//! a [`BudgetExceeded`] carrying the progress counters at the moment of
//! abandonment (events, distinct blocks, order-statistic set size), so the
//! caller can report *how far* the analysis got and re-run with a larger
//! budget if the trace is worth it.
//!
//! Budgets are enforced by [`analyze_buffer_with`](crate::analyze_buffer_with):
//! the lane loop checks them once per replay step, so a trip lands
//! within 4096 events of the cap. Untrusted traces are checked before any grain sees
//! them, by [`TraceBuffer::import`](reuselens_trace::TraceBuffer::import).

use std::error::Error;
use std::fmt;

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

/// A replay was abandoned because it crossed its events cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The configured events cap.
    pub allowed: u64,
    /// Where the analysis stood when it stopped.
    pub progress: BudgetProgress,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analysis budget exceeded: events cap {} crossed after {} events \
             ({} distinct blocks, {} tree nodes)",
            self.allowed,
            self.progress.events,
            self.progress.distinct_blocks,
            self.progress.tree_nodes
        )
    }
}

impl Error for BudgetExceeded {}

/// An opt-in cap on the events one grain's replay may consume. The
/// default budget is unlimited.
///
/// # Examples
///
/// ```
/// use reuselens_core::AnalysisBudget;
///
/// let budget = AnalysisBudget::unlimited().with_max_events(1_000_000);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisBudget {
    /// Maximum events to replay (`None` = unlimited).
    pub max_events: Option<u64>,
}

impl AnalysisBudget {
    /// A budget with no cap (the default).
    pub fn unlimited() -> AnalysisBudget {
        AnalysisBudget::default()
    }

    /// Caps the number of events replayed.
    pub fn with_max_events(mut self, n: u64) -> AnalysisBudget {
        self.max_events = Some(n);
        self
    }

    /// True when no cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none()
    }

    /// Checks current progress against the cap.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] once `progress.events` is past the cap.
    pub fn check(&self, progress: BudgetProgress) -> Result<(), BudgetExceeded> {
        match self.max_events {
            Some(allowed) if progress.events > allowed => Err(BudgetExceeded { allowed, progress }),
            _ => Ok(()),
        }
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
    fn the_events_cap_trips_past_the_cap() {
        let p = BudgetProgress {
            events: 100,
            distinct_blocks: 50,
            tree_nodes: 25,
        };
        let e = AnalysisBudget::unlimited()
            .with_max_events(99)
            .check(p)
            .unwrap_err();
        assert_eq!(e.allowed, 99);
        assert_eq!(e.progress, p);
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
        assert_eq!(
            e.to_string(),
            "analysis budget exceeded: events cap 9 crossed after 10 events \
             (3 distinct blocks, 2 tree nodes)"
        );
    }
}
