//! Time-partitioned parallel replay of a single grain.
//!
//! The multi-grain pipeline is embarrassingly parallel across grains, but
//! one grain's replay is a serial chain: every distance depends on the
//! block table and order-statistic state left by every earlier access.
//! This module breaks that chain with the classic PARDA decomposition (Niu et al.;
//! see also "Beyond Reuse Distance Analysis" in PAPERS.md), adapted to
//! this codebase's scope-attributed patterns:
//!
//! 1. **Partition.** [`TraceBuffer::segment_states`] splits the captured
//!    event stream into `p` contiguous time segments and yields the exact
//!    decoder state (byte offsets, delta bases, access clock, open-scope
//!    stack) at each boundary, fast-forwarded through capture-time
//!    checkpoints.
//! 2. **Replay.** Each segment replays on its own worker thread through a
//!    [`PartitionWorker`]: the same window + order-statistic-set engine
//!    as the serial analyzer, but starting from an empty block set. The
//!    first local access to each block cannot be resolved locally — it is
//!    appended to the worker's ordered **unknown list** (with its sink
//!    reference and the live prefix of boundary scopes at that moment)
//!    and then treated as a local cold miss. All later accesses to the
//!    block resolve exactly, because their whole reuse interval lies
//!    inside the segment and global/local distinct counts agree there.
//! 3. **Stitch.** Workers are folded left to right. A cumulative table
//!    `C` maps every block to its last access (global clock, reference)
//!    in any earlier segment, with a companion [`TimeBits`] set over
//!    `C`'s times (global clock values, so bounded by the trace length).
//!    The `i`-th unknown of a segment that hits `C` at time `t` has
//!    distance `i + |{times in C} > t|`: the `i` earlier local distinct
//!    blocks, plus the blocks last touched after `t` before the boundary
//!    *that the segment has not seen* — maintained lazily by removing
//!    each hit's old time from the companion set as it resolves, then
//!    counting the times above it. An unknown that misses `C` is the block's
//!    true global first touch: a cold miss. Per-worker histograms then
//!    merge bin-wise into one profile.
//!
//! The result is **bit-identical** to serial replay — same patterns, same
//! histograms, same cold counts — which the seeded property suite checks
//! shape × partition-count. Carrying scopes survive partitioning because
//! segment boundaries carry the open-scope stack with entry clocks: a
//! cross-partition reuse's carrier must have been entered strictly before
//! the previous access (which predates the boundary), so it is always one
//! of the boundary scopes still live at the unknown access — never a
//! locally entered scope.
//!
//! **Sampling** composes in fixed-rate mode: whether a block is sampled
//! is a pure function of its number, and both distances (key counts) and
//! carrier search depend only on the relative order of clocks, so workers
//! tick the *global access clock* where the serial sampled engine ticks
//! its sampled-access clock and produce the same scaled profile.
//! Adaptive mode's rate drops depend on the running tracked-set size and
//! are not partitionable; the caller falls back to serial replay.
//!
//! **Budgets** are enforced in two layers: each worker checks the event
//! cap against its global event offset and the block/tree caps against
//! its (necessarily smaller) local footprint per batch, so memory stays
//! bounded while replaying; the exact global footprint is re-checked
//! after the stitch. A budgeted partitioned run trips the same
//! [`BudgetLimit`](crate::BudgetLimit) kind as the serial replay loop.

use crate::analyze::GrainError;
use crate::analyzer::{collect_patterns, SinkPatterns, WinEntry, WINDOW};
use crate::blocktable::BlockTable;
use crate::budget::{AnalysisBudget, BudgetProgress};
use crate::patterns::ReuseProfile;
use crate::sampling::{spatial_hash, SamplingConfig, SamplingInfo};
use crate::scopestack::ScopeStack;
use crate::timebits::TimeBits;
use reuselens_ir::{AccessKind, Program, RefId, ScopeId};
use reuselens_obs as obs;
use reuselens_trace::{SoaBatch, TraceBuffer, TraceSink};
use std::collections::HashMap;
use std::panic;

/// How many worker threads a single grain's replay may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayThreads {
    /// One thread — the classic serial replay (the default).
    #[default]
    Serial,
    /// Exactly this many time partitions (values < 2 mean serial).
    Fixed(usize),
    /// One partition per available hardware thread.
    Auto,
}

impl ReplayThreads {
    /// The partition count this setting resolves to on this machine.
    pub fn resolve(self) -> usize {
        match self {
            ReplayThreads::Serial => 1,
            ReplayThreads::Fixed(n) => n.max(1),
            ReplayThreads::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// A block's first local access within one segment: unresolvable until
/// the stitch pass sees every earlier segment's last-access table.
#[derive(Debug, Clone, Copy)]
struct Unknown {
    block: u64,
    /// Sink reference of the access.
    r: u32,
    /// How many boundary-seeded scopes were still open at this access —
    /// the carrier of a cross-partition reuse is searched among exactly
    /// these (plus the root).
    live_seed: usize,
}

/// What one worker hands to the stitch pass.
struct WorkerResult {
    per_sink: Vec<SinkPatterns>,
    unknowns: Vec<Unknown>,
    /// Every locally seen (sampled) block with its final local access
    /// `(block, global clock, reference)`.
    finals: Vec<(u64, u64, u32)>,
    /// Accesses decoded in this segment (sampled or not).
    accesses: u64,
}

/// One time segment's replay engine: the serial window/set/table hot
/// path, restarted from an empty block set at the segment boundary, with
/// unknown-prefix bookkeeping for blocks first seen locally.
struct PartitionWorker<'p> {
    block_shift: u32,
    /// Global access clock (total accesses, sampled or not).
    clock: u64,
    inv: u64,
    threshold: u64,
    table: BlockTable,
    tree: TimeBits,
    window: Vec<WinEntry>,
    stack: ScopeStack,
    /// Boundary-seeded scopes still on the stack (never regrows).
    live_seed: usize,
    per_sink: Vec<SinkPatterns>,
    ref_scopes: &'p [ScopeId],
    unknowns: Vec<Unknown>,
    /// Distinct local (sampled) blocks seen so far.
    local_distinct: u64,
    budget: &'p AnalysisBudget,
    /// Events preceding this segment — the worker's global event offset.
    base_event: u64,
    events_seen: u64,
    error: Option<GrainError>,
}

impl<'p> PartitionWorker<'p> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        program: &Program,
        block_shift: u32,
        inv: u64,
        boundary_accesses: u64,
        boundary_scopes: &[(ScopeId, u64)],
        base_event: u64,
        budget: &'p AnalysisBudget,
        ref_scopes: &'p [ScopeId],
    ) -> PartitionWorker<'p> {
        let nrefs = program.references().len();
        PartitionWorker {
            block_shift,
            clock: boundary_accesses,
            inv,
            threshold: u64::MAX / inv,
            table: BlockTable::new(),
            tree: TimeBits::new(),
            window: Vec::with_capacity(WINDOW + 1),
            stack: ScopeStack::with_open_scopes(boundary_scopes),
            live_seed: boundary_scopes.len(),
            per_sink: (0..nrefs).map(|_| SinkPatterns::default()).collect(),
            ref_scopes,
            unknowns: Vec::new(),
            local_distinct: 0,
            budget,
            base_event,
            events_seen: 0,
            error: None,
        }
    }

    /// Per-batch budget check: the event count is exact (global offset +
    /// local), the footprint checks are conservative (local ≤ global), so
    /// a worker never trips a cap a serial run would not — the exact
    /// global footprint is re-checked after the stitch.
    fn check_budget(&mut self) {
        if self.error.is_some() || self.budget.is_unlimited() {
            return;
        }
        let progress = BudgetProgress {
            events: self.base_event + self.events_seen,
            distinct_blocks: self.local_distinct,
            tree_nodes: self.local_distinct,
        };
        if let Err(e) = self.budget.check(progress) {
            self.error = Some(GrainError::Budget(e));
        }
    }

    #[inline]
    fn access_block(&mut self, r: u32, block: u64) {
        self.clock += 1;
        // Exact replay (inv == 1) admits every block; only sampled runs
        // pay for the spatial hash.
        if self.inv != 1 && spatial_hash(block) > self.threshold {
            return;
        }
        let now = self.clock;
        let inv = self.inv;
        let len = self.window.len();
        // Distance-0 fast path, mirroring the serial analyzer: a repeat
        // of the most recent block updates the tail entry in place.
        if len > 0 && self.window[len - 1].block == block {
            let e = self.window[len - 1];
            self.window[len - 1] = WinEntry {
                block,
                time: now,
                ref_id: r,
            };
            let carrier = self.stack.carrier(e.time);
            let source = self.ref_scopes[e.ref_id as usize];
            self.per_sink[r as usize].record_n(source, carrier, 0, inv);
            return;
        }
        for i in (0..len.saturating_sub(1)).rev() {
            if self.window[i].block == block {
                let e = self.window.remove(i);
                let distance = (len - 1 - i) as u64;
                let carrier = self.stack.carrier(e.time);
                let source = self.ref_scopes[e.ref_id as usize];
                self.per_sink[r as usize].record_n(
                    source,
                    carrier,
                    distance.saturating_mul(inv),
                    inv,
                );
                self.window.push(WinEntry {
                    block,
                    time: now,
                    ref_id: r,
                });
                return;
            }
        }
        match self.table.get(block) {
            Some(prev) => {
                let e = self.window.remove(0);
                let (_, count) = self.tree.count_reinsert(prev.time, e.time);
                self.table.set(e.block, e.time, e.ref_id);
                let distance = len as u64 + count;
                let carrier = self.stack.carrier(prev.time);
                let source = self.ref_scopes[prev.ref_id as usize];
                self.per_sink[r as usize].record_n(
                    source,
                    carrier,
                    distance.saturating_mul(inv),
                    inv,
                );
            }
            None => {
                // First local touch: defer to the stitch pass, then track
                // the block exactly like a cold miss.
                self.unknowns.push(Unknown {
                    block,
                    r,
                    live_seed: self.live_seed,
                });
                self.local_distinct += 1;
            }
        }
        self.window.push(WinEntry {
            block,
            time: now,
            ref_id: r,
        });
        if self.window.len() > WINDOW {
            let e = self.window.remove(0);
            self.tree.insert(e.time);
            self.table.set(e.block, e.time, e.ref_id);
        }
    }

    fn into_result(self) -> Result<WorkerResult, GrainError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        // Final last-access per local block: table entries, overridden by
        // the window (whose entries are newer and may shadow a stale
        // table slot left behind when a block re-entered the window).
        let mut table = self.table;
        for e in &self.window {
            table.set(e.block, e.time, e.ref_id);
        }
        let mut finals = Vec::with_capacity(table.distinct_blocks() as usize);
        table.for_each(|b, ent| finals.push((b, ent.time, ent.ref_id)));
        // Ascending time, so the stitch's cumulative set only ever grows
        // at its top end.
        finals.sort_unstable_by_key(|&(_, time, _)| time);
        Ok(WorkerResult {
            per_sink: self.per_sink,
            unknowns: self.unknowns,
            finals,
            // `clock` started at the boundary access count and ticked
            // once per decoded access, so it ends at the global count.
            accesses: self.clock,
        })
    }
}

impl TraceSink for PartitionWorker<'_> {
    fn access(&mut self, r: RefId, addr: u64, _size: u32, _kind: AccessKind) {
        if self.error.is_some() {
            return;
        }
        self.events_seen += 1;
        self.access_block(r.0, addr >> self.block_shift);
        self.check_budget();
    }

    fn access_soa(&mut self, batch: &SoaBatch) {
        if self.error.is_some() {
            return;
        }
        self.events_seen += batch.len() as u64;
        for (&r, &addr) in batch.refs.iter().zip(&batch.addrs) {
            self.access_block(r, addr >> self.block_shift);
        }
        self.check_budget();
    }

    fn enter(&mut self, scope: ScopeId) {
        if self.error.is_some() {
            return;
        }
        self.events_seen += 1;
        self.stack.enter(scope, self.clock);
        self.check_budget();
    }

    fn exit(&mut self, scope: ScopeId) {
        if self.error.is_some() {
            return;
        }
        self.events_seen += 1;
        self.stack.exit(scope);
        // Exiting below the seeded depth permanently retires boundary
        // scopes as carrier candidates for later unknowns.
        self.live_seed = self.live_seed.min(self.stack.depth() - 1);
        self.check_budget();
    }
}

/// The carrier of a cross-partition reuse whose previous access happened
/// at global clock `t_prev`: the topmost scope among the root and the
/// boundary scopes still live at the unknown access that was entered
/// strictly before `t_prev`. (Locally entered scopes are never
/// candidates: their entry clocks are at or after the boundary, hence
/// never before `t_prev`.)
fn stitch_carrier(seed: &[(ScopeId, u64)], live_seed: usize, t_prev: u64) -> ScopeId {
    let live = &seed[..live_seed.min(seed.len())];
    let idx = live.partition_point(|&(_, clock)| clock < t_prev);
    if idx == 0 {
        ScopeId::ROOT
    } else {
        live[idx - 1].0
    }
}

/// Replays one grain across `parts` time partitions and stitches the
/// result, bit-identical to serial replay. `sampling` must be
/// [`SamplingConfig::Exact`] or fixed-rate (the caller routes adaptive
/// configurations to the serial engine). Returns the profile plus the
/// final tracked-block count (the quantity the serial path reports as
/// its order-statistic set size).
///
/// # Errors
///
/// Returns [`GrainError::Budget`] when a budget cap is crossed, either
/// inside a worker (conservative local check) or by the exact
/// post-stitch check. Worker panics (e.g. decoding a corrupted segment)
/// propagate and are caught by the caller's panic isolation.
pub(crate) fn replay_partitioned(
    program: &Program,
    buffer: &TraceBuffer,
    block_size: u64,
    parts: usize,
    sampling: SamplingConfig,
    budget: &AnalysisBudget,
) -> Result<(ReuseProfile, u64), GrainError> {
    assert!(
        block_size.is_power_of_two(),
        "block size must be a power of two"
    );
    let inv = match sampling {
        SamplingConfig::Exact => 1,
        SamplingConfig::Fixed { inv } => inv.max(1),
        SamplingConfig::Adaptive { .. } => {
            unreachable!("adaptive sampling is not partitionable; caller must route serially")
        }
    };
    let block_shift = block_size.trailing_zeros();
    let ref_scopes: Vec<ScopeId> = program.references().iter().map(|r| r.scope()).collect();
    let states = buffer.segment_states(parts);
    let total_events = buffer.events();
    obs::add(obs::Counter::PartitionsSpawned, states.len() as u64);

    let outcomes: Vec<Result<WorkerResult, GrainError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..states.len())
            .map(|k| {
                let from = &states[k];
                let to = states.get(k + 1).map_or(total_events, |next| next.event);
                let ref_scopes = &ref_scopes;
                s.spawn(obs::Obs::inherit(move || {
                    let mut span = obs::span_with(obs::Stage::Partition, || obs::TimelineArgs {
                        grain: Some(block_size),
                        events: Some(to - from.event),
                        ..obs::TimelineArgs::default()
                    });
                    let mut worker = PartitionWorker::new(
                        program,
                        block_shift,
                        inv,
                        from.accesses,
                        &from.scopes,
                        from.event,
                        budget,
                        ref_scopes,
                    );
                    buffer.replay_segment(from, to, &mut worker);
                    span.record(|args| {
                        args.distinct_blocks = Some(worker.local_distinct);
                    });
                    worker.into_result()
                }))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                // Re-raise into the caller's catch_unwind so a corrupted
                // segment degrades exactly like a serial decode panic.
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    });

    // ---- Stitch, left to right. ----
    let nrefs = program.references().len();
    let mut per_sink: Vec<SinkPatterns> = (0..nrefs).map(|_| SinkPatterns::default()).collect();
    let mut cold = vec![0u64; nrefs];
    let mut c_map: HashMap<u64, (u64, u32)> = HashMap::new();
    let mut c_times = TimeBits::new();
    let mut est_distinct = 0u64;
    let mut blocks_sampled = 0u64;
    let mut total_accesses = 0u64;
    let mut stitched = 0u64;
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let w = outcome?;
        total_accesses = total_accesses.max(w.accesses);
        let seed = &states[k].scopes;
        for (i, u) in w.unknowns.iter().enumerate() {
            match c_map.get(&u.block) {
                Some(&(prev_time, prev_ref)) => {
                    let removed = c_times.remove(prev_time);
                    debug_assert!(removed, "cumulative set must hold every last-access time");
                    let count = c_times.count_greater(prev_time);
                    let distance = i as u64 + count;
                    let carrier = stitch_carrier(seed, u.live_seed, prev_time);
                    let source = ref_scopes[prev_ref as usize];
                    per_sink[u.r as usize].record_n(
                        source,
                        carrier,
                        distance.saturating_mul(inv),
                        inv,
                    );
                    stitched += 1;
                }
                None => {
                    cold[u.r as usize] += inv;
                    est_distinct += inv;
                    blocks_sampled += 1;
                }
            }
        }
        for &(block, time, ref_id) in &w.finals {
            // A hit's old time was already removed lazily above; a cold
            // block had none. Either way the new time is a fresh key.
            c_times.insert(time);
            c_map.insert(block, (time, ref_id));
        }
        for (sink, patterns) in w.per_sink.into_iter().enumerate() {
            for (source, carrier, histogram) in patterns.entries {
                per_sink[sink].merge(source, carrier, &histogram);
            }
        }
    }
    obs::emit(obs::EventKind::PartitionStitched {
        grain: block_size,
        partitions: states.len() as u64,
        resolved: stitched,
    });

    let tracked = c_map.len() as u64;
    if !budget.is_unlimited() {
        budget
            .check(BudgetProgress {
                events: total_events,
                distinct_blocks: tracked,
                tree_nodes: tracked,
            })
            .map_err(GrainError::Budget)?;
    }

    let sampling_info = match sampling {
        SamplingConfig::Exact => None,
        _ => Some(SamplingInfo {
            inv,
            blocks_sampled,
            blocks_evicted: 0,
            rate_drops: 0,
        }),
    };
    Ok((
        ReuseProfile {
            block_size,
            patterns: collect_patterns(per_sink),
            cold,
            total_accesses,
            distinct_blocks: est_distinct,
            sampling: sampling_info,
        },
        tracked,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_threads_resolution() {
        assert_eq!(ReplayThreads::Serial.resolve(), 1);
        assert_eq!(ReplayThreads::Fixed(0).resolve(), 1);
        assert_eq!(ReplayThreads::Fixed(8).resolve(), 8);
        assert!(ReplayThreads::Auto.resolve() >= 1);
        assert_eq!(ReplayThreads::default(), ReplayThreads::Serial);
    }

    #[test]
    fn stitch_carrier_respects_live_prefix_and_clocks() {
        let seed = [(ScopeId(4), 0), (ScopeId(7), 3), (ScopeId(9), 8)];
        // Previous access at t=1: only scope 4 (entered at 0) predates it.
        assert_eq!(stitch_carrier(&seed, 3, 1), ScopeId(4));
        // t=5: scope 7 entered at 3 is the topmost predating scope.
        assert_eq!(stitch_carrier(&seed, 3, 5), ScopeId(7));
        assert_eq!(stitch_carrier(&seed, 3, 9), ScopeId(9));
        // Scope 9 no longer live at the unknown: falls back to scope 7.
        assert_eq!(stitch_carrier(&seed, 2, 9), ScopeId(7));
        // Nothing live predates t_prev=0 ... impossible for real clocks,
        // but the root backstop keeps the search total.
        assert_eq!(stitch_carrier(&seed, 0, 1), ScopeId::ROOT);
    }
}
