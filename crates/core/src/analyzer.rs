//! The online reuse-distance analyzer — the paper's event handler.
//!
//! For every memory access the analyzer advances a logical clock, finds the
//! block's previous access in the [block table](crate::BlockTable), counts
//! the distinct blocks touched in between with the
//! [order-statistic set](crate::TimeBits), locates the carrying scope
//! on the [dynamic scope stack](crate::ScopeStack), and records the distance
//! in the histogram of the *(sink reference, source scope, carrying scope)*
//! pattern.

use crate::blocktable::{BlockTable, MAX_BLOCKS};
use crate::histogram::Histogram;
use crate::patterns::{PatternKey, ReusePattern, ReuseProfile};
use crate::scopestack::ScopeStack;
use crate::snapshot::{Dec, Enc, SnapshotError};
use crate::timebits::TimeBits;
use reuselens_ir::{AccessKind, Program, RefId, ScopeId};
use reuselens_trace::{SoaBatch, TraceSink};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Pattern count above which a sink switches from linear scan to a hash map.
const SMALL_MAP_LIMIT: usize = 8;

/// Capacity of the recent-access window: the number of most-recently-used
/// distinct blocks kept out of the order-statistic set and the block table
/// entirely.
///
/// Real access streams are dominated by short reuses — the paper's sweeps
/// spend 7 of every 8 accesses on within-line spatial reuse at distance 0 —
/// so the hot path resolves any reuse with distance `< WINDOW` by scanning a
/// tiny array from its most-recent end and never touches the radix table or
/// the order-statistic set. Only evictions from the window (one per *cold*
/// miss once the window is full) pay for set and table maintenance, and the
/// reuse path that does reach the set folds lookup and reinsert into a
/// single fused operation ([`TimeBits::count_reinsert`]).
const WINDOW: usize = 32;

/// One entry of the recent-access window (see [`WINDOW`]): a distinct block
/// plus the clock and static reference of its last access. Entries are kept
/// in ascending time order, and every entry's time is greater than every time
/// in the set — that invariant is what makes window distances exact.
#[derive(Debug, Clone, Copy)]
struct WinEntry {
    block: u64,
    time: u64,
    ref_id: u32,
}

/// Per-sink pattern storage. The paper observes that each reference sees a
/// small, fixed set of (source, carrier) combinations, so a short linear
/// vector beats a hash map on the hot path. Pathological sinks (many
/// carriers, e.g. deep non-perfect nests or indirection) would degrade the
/// scan to O(patterns) per access, so past [`SMALL_MAP_LIMIT`] entries a
/// hash index over the same vector takes over.
#[derive(Debug, Default)]
pub(crate) struct SinkPatterns {
    entries: Vec<(ScopeId, ScopeId, Histogram)>,
    index: Option<HashMap<(ScopeId, ScopeId), usize>>,
    /// Last entry hit — a hint only (re-checked before use). Reuse streams
    /// record long runs of the same (source, carrier) pair, so this turns
    /// the common record into one comparison.
    hot: u32,
}

/// Flattens per-sink pattern tables (indexed by sink reference) into a
/// profile's pattern list, sorted by key.
pub(crate) fn collect_patterns(per_sink: Vec<SinkPatterns>) -> Vec<ReusePattern> {
    let mut patterns: Vec<ReusePattern> = per_sink
        .into_iter()
        .enumerate()
        .flat_map(|(sink, sp)| {
            sp.entries
                .into_iter()
                .map(move |(source_scope, carrier, histogram)| {
                    let sink = RefId(sink as u32);
                    ReusePattern {
                        key: PatternKey {
                            sink,
                            source_scope,
                            carrier,
                        },
                        histogram,
                    }
                })
        })
        .collect();
    patterns.sort_by_key(|p| p.key);
    patterns
}

impl SinkPatterns {
    #[inline]
    pub(crate) fn record(&mut self, source: ScopeId, carrier: ScopeId, distance: u64) {
        self.record_n(source, carrier, distance, 1);
    }

    /// Records `count` reuses at once — the sampled analyzer's scaled
    /// recording path (`count` = inverse sampling rate). `record` is the
    /// `count == 1` case and compiles to the same code it always did.
    #[inline]
    pub(crate) fn record_n(
        &mut self,
        source: ScopeId,
        carrier: ScopeId,
        distance: u64,
        count: u64,
    ) {
        if let Some((s, c, h)) = self.entries.get_mut(self.hot as usize) {
            if *s == source && *c == carrier {
                h.add_n(distance, count);
                return;
            }
        }
        if let Some(index) = &mut self.index {
            match index.entry((source, carrier)) {
                Entry::Occupied(e) => {
                    self.hot = *e.get() as u32;
                    self.entries[*e.get()].2.add_n(distance, count);
                }
                Entry::Vacant(e) => {
                    self.hot = self.entries.len() as u32;
                    e.insert(self.entries.len());
                    let mut h = Histogram::new();
                    h.add_n(distance, count);
                    self.entries.push((source, carrier, h));
                }
            }
            return;
        }
        for (i, (s, c, h)) in self.entries.iter_mut().enumerate() {
            if *s == source && *c == carrier {
                self.hot = i as u32;
                h.add_n(distance, count);
                return;
            }
        }
        self.hot = self.entries.len() as u32;
        let mut h = Histogram::new();
        h.add_n(distance, count);
        self.entries.push((source, carrier, h));
        self.maybe_index();
    }

    fn maybe_index(&mut self) {
        if self.entries.len() > SMALL_MAP_LIMIT {
            self.index = Some(
                self.entries
                    .iter()
                    .enumerate()
                    .map(|(i, (s, c, _))| ((*s, *c), i))
                    .collect(),
            );
        }
    }
}

/// Serializes a scope stack's open scopes (the root is implicit) for a
/// snapshot. Shared by the exact and sampled analyzers.
pub(crate) fn encode_scope_stack(e: &mut Enc, stack: &ScopeStack) {
    let open = stack.open_scopes();
    e.u64(open.len() as u64);
    for &(scope, clock) in open {
        e.u32(scope.0);
        e.u64(clock);
    }
}

/// Decodes a scope stack, validating that entry clocks are monotone and
/// no later than the analyzer clock `max_clock`.
pub(crate) fn decode_scope_stack(
    d: &mut Dec<'_>,
    max_clock: u64,
) -> Result<ScopeStack, SnapshotError> {
    let n = d.len(12)?;
    let mut open = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        let scope = d.u32()?;
        let at = d.offset();
        let clock = d.u64()?;
        if clock < prev || clock > max_clock {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!(
                    "scope entry clock {clock} breaks monotonicity \
                     (previous {prev}, analyzer clock {max_clock})"
                ),
            });
        }
        prev = clock;
        open.push((ScopeId(scope), clock));
    }
    Ok(ScopeStack::with_open_scopes(&open))
}

/// Serializes every sink's pattern set for a snapshot. Histograms are
/// written as `(low, count)` pairs in bin order — the same canonical form
/// the profile serializer proved round-trips through `iter`/`add_n` —
/// and the hash index and hot-entry hints, being derived state, are
/// skipped and rebuilt on decode.
pub(crate) fn encode_sink_patterns(e: &mut Enc, per_sink: &[SinkPatterns]) {
    e.u64(per_sink.len() as u64);
    for sp in per_sink {
        e.u64(sp.entries.len() as u64);
        for (source, carrier, h) in &sp.entries {
            e.u32(source.0);
            e.u32(carrier.0);
            e.u64(h.bin_count() as u64);
            for (lo, _, count) in h.iter() {
                e.u64(lo);
                e.u64(count);
            }
        }
    }
}

/// Decodes every sink's pattern set, validating the sink count against
/// the program and each histogram's canonical form (ascending bins,
/// nonzero counts).
pub(crate) fn decode_sink_patterns(
    d: &mut Dec<'_>,
    nrefs: usize,
) -> Result<Vec<SinkPatterns>, SnapshotError> {
    let n = d.len(8)?;
    if n != nrefs {
        return Err(SnapshotError::Mismatch {
            what: format!("snapshot has {n} sinks, the program has {nrefs} references"),
        });
    }
    let mut per_sink = Vec::with_capacity(n);
    for _ in 0..n {
        let nentries = d.len(24)?;
        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            let source = ScopeId(d.u32()?);
            let carrier = ScopeId(d.u32()?);
            let nbins = d.len(16)?;
            let mut h = Histogram::new();
            let mut prev_lo = None;
            for _ in 0..nbins {
                let at = d.offset();
                let lo = d.u64()?;
                let count = d.u64()?;
                if count == 0 || prev_lo.is_some_and(|p| lo <= p) {
                    return Err(SnapshotError::Corrupt {
                        offset: at,
                        what: format!("histogram bin ({lo}, {count}) is not in canonical form"),
                    });
                }
                prev_lo = Some(lo);
                h.add_n(lo, count);
            }
            entries.push((source, carrier, h));
        }
        let mut sp = SinkPatterns {
            entries,
            index: None,
            hot: 0,
        };
        sp.maybe_index();
        per_sink.push(sp);
    }
    Ok(per_sink)
}

/// Measures reuse distances at one block granularity while a program
/// executes.
///
/// Implements [`TraceSink`], so it can be plugged directly into
/// [`Executor::run`](reuselens_trace::Executor::run) — alone, teed with
/// other sinks, or grouped in a [`MultiGrainAnalyzer`].
///
/// # Examples
///
/// ```
/// use reuselens_core::ReuseAnalyzer;
/// use reuselens_ir::ProgramBuilder;
/// use reuselens_trace::Executor;
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[64]);
/// p.routine("main", |r| {
///     r.for_("t", 0, 1, |r, _| {
///         r.for_("i", 0, 63, |r, i| {
///             r.load(a, vec![i.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let mut analyzer = ReuseAnalyzer::new(&prog, 64);
/// Executor::new(&prog).run(&mut analyzer)?;
/// let profile = analyzer.finish();
/// // 64 elements * 8 B = 8 cache lines; the second sweep reuses each at
/// // distance 7 (the 7 other lines touched in between), carried by `t`.
/// assert!(profile.accesses_balance());
/// // Two patterns: short spatial reuse inside a line carried by `i`, and
/// // the cross-sweep temporal reuse carried by `t`.
/// let t = prog.scope_by_name("t").unwrap();
/// assert_eq!(profile.patterns.len(), 2);
/// assert_eq!(profile.patterns_carried_by(t).count(), 1);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
#[derive(Debug)]
pub struct ReuseAnalyzer {
    block_shift: u32,
    clock: u64,
    table: BlockTable,
    tree: TimeBits,
    window: Vec<WinEntry>,
    distinct: u64,
    stack: ScopeStack,
    per_sink: Vec<SinkPatterns>,
    cold: Vec<u64>,
    ref_scopes: Vec<ScopeId>,
    last_distance: Option<u64>,
}

impl ReuseAnalyzer {
    /// Creates an analyzer at the given block size (must be a power of
    /// two): cache-line size for cache studies, page size for TLB studies.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn new(program: &Program, block_size: u64) -> ReuseAnalyzer {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        let nrefs = program.references().len();
        ReuseAnalyzer {
            block_shift: block_size.trailing_zeros(),
            clock: 0,
            table: BlockTable::new(),
            tree: TimeBits::new(),
            window: Vec::with_capacity(WINDOW + 1),
            distinct: 0,
            stack: ScopeStack::new(),
            per_sink: (0..nrefs).map(|_| SinkPatterns::default()).collect(),
            cold: vec![0; nrefs],
            ref_scopes: program.references().iter().map(|r| r.scope()).collect(),
            last_distance: None,
        }
    }

    /// Block size this analyzer measures at.
    pub fn block_size(&self) -> u64 {
        1 << self.block_shift
    }

    /// Accesses observed so far.
    pub fn accesses(&self) -> u64 {
        self.clock
    }

    /// Distinct blocks observed so far (whether currently held in the
    /// recent-access window or already evicted into the block table).
    pub fn distinct_blocks(&self) -> u64 {
        self.distinct
    }

    /// Live blocks tracked for distance counting: order-statistic set
    /// entries plus recent-access window entries (one per distinct block).
    pub fn tree_nodes(&self) -> usize {
        self.tree.len() + self.window.len()
    }

    /// Distance the most recent access was measured at: `Some(d)` for a
    /// reuse, `None` for a cold first touch (or before any access). This
    /// per-access view is what the randomized property suite compares
    /// against the brute-force [`oracle`](crate::oracle), access by access.
    pub fn last_distance(&self) -> Option<u64> {
        self.last_distance
    }

    /// Consumes the analyzer and produces the measured profile.
    pub fn finish(self) -> ReuseProfile {
        ReuseProfile {
            block_size: 1 << self.block_shift,
            patterns: collect_patterns(self.per_sink),
            cold: self.cold,
            total_accesses: self.clock,
            distinct_blocks: self.distinct,
            sampling: None,
        }
    }

    /// Serializes the full mid-stream analyzer state into a snapshot
    /// frame. Everything live is written verbatim (window order, stale
    /// block-table entries included); everything derivable — the Fenwick
    /// tree, pattern hash indexes, hot hints, `ref_scopes` — is skipped
    /// and rebuilt on decode, so the encoding of a given state is unique.
    pub(crate) fn snapshot_encode(&self, e: &mut Enc) {
        e.u64(self.clock);
        e.u64(self.distinct);
        match self.last_distance {
            None => e.u8(0),
            Some(dist) => {
                e.u8(1);
                e.u64(dist);
            }
        }
        e.u64(self.window.len() as u64);
        for w in &self.window {
            e.u64(w.block);
            e.u64(w.time);
            e.u32(w.ref_id);
        }
        encode_scope_stack(e, &self.stack);
        encode_sink_patterns(e, &self.per_sink);
        e.u64(self.cold.len() as u64);
        for &c in &self.cold {
            e.u64(c);
        }
        let mut count = 0u64;
        self.table.for_each(|_, _| count += 1);
        e.u64(count);
        self.table.for_each(|block, entry| {
            e.u64(block);
            e.u64(entry.time);
            e.u32(entry.ref_id);
        });
        let (words, base, len) = self.tree.snapshot_parts();
        e.u64(words.len() as u64);
        for &w in words {
            e.u64(w);
        }
        e.u64(base);
        e.u64(len);
    }

    /// Rebuilds a mid-stream analyzer from [`snapshot_encode`] output,
    /// validating every structural invariant the bytes could violate:
    /// window and table times bounded by the clock, blocks inside the
    /// modeled address space, references inside the program, the time
    /// bitmap's population matching its length. Never panics on hostile
    /// input — a violated invariant is a typed [`SnapshotError`].
    pub(crate) fn snapshot_decode(
        program: &Program,
        block_size: u64,
        d: &mut Dec<'_>,
    ) -> Result<ReuseAnalyzer, SnapshotError> {
        debug_assert!(block_size.is_power_of_two());
        let nrefs = program.references().len();
        let clock = d.u64()?;
        let distinct = d.u64()?;
        let last_distance = match d.u8()? {
            0 => None,
            1 => Some(d.u64()?),
            other => {
                return Err(d
                    .corrupt(format!("unknown last-distance tag {other}"))
                    .into())
            }
        };
        let wlen = d.len(20)?;
        if wlen > WINDOW {
            return Err(d
                .corrupt(format!("window holds {wlen} entries, limit {WINDOW}"))
                .into());
        }
        let mut window = Vec::with_capacity(WINDOW + 1);
        let mut prev_time = 0u64;
        for _ in 0..wlen {
            let at = d.offset();
            let block = d.u64()?;
            let time = d.u64()?;
            let ref_id = d.u32()?;
            if block >= MAX_BLOCKS || time <= prev_time || time > clock || ref_id as usize >= nrefs
            {
                return Err(SnapshotError::Corrupt {
                    offset: at,
                    what: format!(
                        "window entry (block {block}, time {time}, ref {ref_id}) \
                         violates window invariants at clock {clock}"
                    ),
                });
            }
            prev_time = time;
            window.push(WinEntry {
                block,
                time,
                ref_id,
            });
        }
        let stack = decode_scope_stack(d, clock)?;
        let per_sink = decode_sink_patterns(d, nrefs)?;
        let clen = d.len(8)?;
        if clen != nrefs {
            return Err(SnapshotError::Mismatch {
                what: format!("snapshot has {clen} cold counters, the program has {nrefs}"),
            });
        }
        let mut cold = Vec::with_capacity(clen);
        for _ in 0..clen {
            cold.push(d.u64()?);
        }
        let tcount = d.len(20)?;
        let mut table = BlockTable::new();
        let mut prev_block = None;
        for _ in 0..tcount {
            let at = d.offset();
            let block = d.u64()?;
            let time = d.u64()?;
            let ref_id = d.u32()?;
            if block >= MAX_BLOCKS
                || prev_block.is_some_and(|p| block <= p)
                || time == 0
                || time > clock
                || ref_id as usize >= nrefs
            {
                return Err(SnapshotError::Corrupt {
                    offset: at,
                    what: format!(
                        "block-table entry (block {block}, time {time}, ref {ref_id}) \
                         violates table invariants at clock {clock}"
                    ),
                });
            }
            prev_block = Some(block);
            table.set(block, time, ref_id);
        }
        let nwords = d.len(8)?;
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(d.u64()?);
        }
        let base = d.u64()?;
        let at = d.offset();
        let len = d.u64()?;
        let tree = TimeBits::from_snapshot_parts(words, base, len).ok_or_else(|| {
            SnapshotError::Corrupt {
                offset: at,
                what: "time bitmap population does not match its stored length".to_string(),
            }
        })?;
        Ok(ReuseAnalyzer {
            block_shift: block_size.trailing_zeros(),
            clock,
            table,
            tree,
            window,
            distinct,
            stack,
            per_sink,
            cold,
            ref_scopes: program.references().iter().map(|r| r.scope()).collect(),
            last_distance,
        })
    }

    /// The per-access hot path, shared by every [`TraceSink`] entry point.
    ///
    /// The recent-access window holds the [`WINDOW`] most recently used
    /// distinct blocks in ascending time order; every window time is
    /// greater than every tree key, and the table/tree only ever learn
    /// about a block when it is evicted from the window. That invariant
    /// makes the three cases exact:
    ///
    /// * **window hit** at index `i`: the blocks touched since the
    ///   previous access are exactly the entries behind `i`, so
    ///   `distance = len - 1 - i` with no tree or table work at all;
    /// * **table hit**: all `len` window blocks are more recent than the
    ///   previous access, so `distance = len + |tree keys > prev.time|`,
    ///   where the count and the set update (drop `prev.time`, add the
    ///   newly evicted window head) fuse into one call
    ///   ([`TimeBits::count_reinsert`]);
    /// * **cold**: first touch; the block enters the window and the oldest
    ///   entry (if any) spills into the tree + table.
    ///
    /// A block sitting in the window may leave a stale table entry behind
    /// from an earlier eviction; that is harmless because the window is
    /// consulted first and the entry is overwritten on the next eviction.
    #[inline]
    fn access_block(&mut self, r: u32, block: u64) {
        self.clock += 1;
        let now = self.clock;
        let len = self.window.len();
        // Distance-0 fast path: a repeat of the most recent block (the
        // dominant case — within-line spatial reuse on a unit-stride
        // sweep) updates the tail entry in place, with no remove/push.
        if len > 0 && self.window[len - 1].block == block {
            let e = self.window[len - 1];
            self.window[len - 1] = WinEntry {
                block,
                time: now,
                ref_id: r,
            };
            let carrier = self.stack.carrier(e.time);
            let source = self.ref_scopes[e.ref_id as usize];
            self.per_sink[r as usize].record(source, carrier, 0);
            self.last_distance = Some(0);
            return;
        }
        for i in (0..len.saturating_sub(1)).rev() {
            if self.window[i].block == block {
                let e = self.window.remove(i);
                let distance = (len - 1 - i) as u64;
                let carrier = self.stack.carrier(e.time);
                let source = self.ref_scopes[e.ref_id as usize];
                self.per_sink[r as usize].record(source, carrier, distance);
                self.last_distance = Some(distance);
                self.window.push(WinEntry {
                    block,
                    time: now,
                    ref_id: r,
                });
                return;
            }
        }
        self.access_past_window(r, block, now, len);
    }

    /// The table/tree path for an access that missed the recent window —
    /// a long reuse or a cold first touch. Outlined and kept out of the
    /// inlined hot path: mixing the tree machinery into `access_block`
    /// costs the dominant short-reuse path real registers and icache.
    #[cold]
    #[inline(never)]
    fn access_past_window(&mut self, r: u32, block: u64, now: u64, len: usize) {
        match self.table.get(block) {
            Some(prev) => {
                let (prev_time, prev_ref) = (prev.time, prev.ref_id);
                // The table only holds evicted blocks, so the window is
                // necessarily full here; spill its oldest entry to make
                // room for this block at the recent end.
                let e = self.window.remove(0);
                let (_, count) = self.tree.count_reinsert(prev_time, e.time);
                self.table.set(e.block, e.time, e.ref_id);
                let distance = len as u64 + count;
                let carrier = self.stack.carrier(prev_time);
                let source = self.ref_scopes[prev_ref as usize];
                self.per_sink[r as usize].record(source, carrier, distance);
                self.last_distance = Some(distance);
            }
            None => {
                self.cold[r as usize] += 1;
                self.distinct += 1;
                self.last_distance = None;
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
}

impl TraceSink for ReuseAnalyzer {
    fn access(&mut self, r: RefId, addr: u64, _size: u32, _kind: AccessKind) {
        self.access_block(r.0, addr >> self.block_shift);
    }

    fn access_soa(&mut self, batch: &SoaBatch) {
        // Stream the two lanes the analyzer actually needs; the size and
        // kind lanes are never touched, and no per-event struct exists.
        for (&r, &addr) in batch.refs.iter().zip(&batch.addrs) {
            self.access_block(r, addr >> self.block_shift);
        }
    }

    fn enter(&mut self, scope: ScopeId) {
        self.stack.enter(scope, self.clock);
    }

    fn exit(&mut self, scope: ScopeId) {
        self.stack.exit(scope);
    }
}

/// Runs several [`ReuseAnalyzer`]s over one event stream — the paper
/// measures line-granularity (cache) and page-granularity (TLB) reuse in a
/// single execution.
#[derive(Debug)]
pub struct MultiGrainAnalyzer {
    analyzers: Vec<ReuseAnalyzer>,
}

impl MultiGrainAnalyzer {
    /// Creates one analyzer per requested block size.
    pub fn new(program: &Program, block_sizes: &[u64]) -> MultiGrainAnalyzer {
        MultiGrainAnalyzer {
            analyzers: block_sizes
                .iter()
                .map(|&b| ReuseAnalyzer::new(program, b))
                .collect(),
        }
    }

    /// Finishes all analyzers, returning one profile per block size in the
    /// order given at construction.
    pub fn finish(self) -> Vec<ReuseProfile> {
        self.analyzers
            .into_iter()
            .map(ReuseAnalyzer::finish)
            .collect()
    }
}

impl TraceSink for MultiGrainAnalyzer {
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        for a in &mut self.analyzers {
            a.access(r, addr, size, kind);
        }
    }
    fn enter(&mut self, scope: ScopeId) {
        for a in &mut self.analyzers {
            a.enter(scope);
        }
    }
    fn exit(&mut self, scope: ScopeId) {
        for a in &mut self.analyzers {
            a.exit(scope);
        }
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        // Grain-major: each analyzer consumes the whole batch while its
        // tables stay hot, instead of interleaving per event.
        for a in &mut self.analyzers {
            a.access_soa(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_ir::{Expr, ProgramBuilder};
    use reuselens_trace::Executor;

    /// Streaming over a large array twice: every line is cold once, then
    /// reused at distance = (lines - 1), carried by the repeat loop.
    #[test]
    fn two_sweeps_reuse_at_footprint_distance() {
        let n = 512u64; // elements; 8 B each => 64 lines of 64 B
        let mut p = ProgramBuilder::new("sweep2");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("i", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut an = ReuseAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut an).unwrap();
        let profile = an.finish();
        let lines = n * 8 / 64;
        assert_eq!(profile.total_accesses, 2 * n);
        assert_eq!(profile.distinct_blocks, lines);
        // Within-line spatial reuses (7 per line per sweep) + cross-sweep
        // temporal reuses.
        assert!(profile.accesses_balance());
        let t = prog.scope_by_name("t").unwrap();
        let i = prog.scope_by_name("i").unwrap();
        // The long reuses (distance = lines-1) are carried by t.
        let carried_by_t: u64 = profile.patterns_carried_by(t).map(|p| p.count()).sum();
        assert_eq!(carried_by_t, lines); // one reuse per line on sweep 2
        let long = profile
            .patterns_carried_by(t)
            .flat_map(|p| p.histogram.iter())
            .map(|(lo, _, c)| (lo, c))
            .next()
            .unwrap();
        assert_eq!(long.0, lines - 1);
        // Short spatial reuses (distance 0, same line) carried by i.
        let carried_by_i: u64 = profile.patterns_carried_by(i).map(|p| p.count()).sum();
        assert_eq!(carried_by_i, 2 * n - lines - lines);
    }

    /// The paper's carrying-scope example: data accessed in two sibling
    /// loops, reuse carried by their common parent.
    #[test]
    fn cross_loop_reuse_is_carried_by_parent() {
        let n = 64u64;
        let mut p = ProgramBuilder::new("fuse");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("outer", 0, 0, |r, _| {
                r.for_("first", 0, (n - 1) as i64, |r, i| {
                    r.store(a, vec![i.into()]);
                });
                r.for_("second", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut an = ReuseAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut an).unwrap();
        let profile = an.finish();
        let outer = prog.scope_by_name("outer").unwrap();
        let first = prog.scope_by_name("first").unwrap();
        let load_ref = prog.references()[1].id();
        // Reuses ending at the load whose source is the store loop must be
        // carried by `outer`, not by either inner loop.
        let cross: Vec<_> = profile
            .patterns_for_sink(load_ref)
            .filter(|p| p.key.source_scope == first)
            .collect();
        assert!(!cross.is_empty());
        for pat in cross {
            assert_eq!(pat.key.carrier, outer);
        }
    }

    /// Reuse between iterations of one loop is carried by that loop.
    #[test]
    fn loop_carried_reuse_attributes_to_the_loop() {
        let mut p = ProgramBuilder::new("stencil");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_("i", 0, 99, |r, _| {
                r.load(a, vec![Expr::c(0)]); // same element every iteration
            });
        });
        let prog = p.finish();
        let mut an = ReuseAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut an).unwrap();
        let profile = an.finish();
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(profile.patterns.len(), 1);
        assert_eq!(profile.patterns[0].key.carrier, i);
        assert_eq!(profile.patterns[0].count(), 99);
        // all at distance 0
        assert_eq!(profile.patterns[0].histogram.count_ge(1), 0.0);
    }

    /// Page-granularity analysis sees fewer distinct blocks than
    /// line-granularity.
    #[test]
    fn multi_grain_page_profile_is_coarser() {
        let n = 4096u64;
        let mut p = ProgramBuilder::new("grain");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let mut mg = MultiGrainAnalyzer::new(&prog, &[64, 4096]);
        Executor::new(&prog).run(&mut mg).unwrap();
        let profiles = mg.finish();
        assert_eq!(profiles[0].block_size, 64);
        assert_eq!(profiles[1].block_size, 4096);
        assert!(profiles[0].distinct_blocks > profiles[1].distinct_blocks);
        assert_eq!(profiles[0].total_accesses, profiles[1].total_accesses);
        assert!(profiles[0].accesses_balance());
        assert!(profiles[1].accesses_balance());
    }

    /// Pathological many-carrier nest: one constant-index load at the
    /// bottom of a 12-deep loop nest produces one reuse pattern per
    /// ancestor loop, pushing a single sink past the small-map limit and
    /// exercising the hash-index fallback in `SinkPatterns`.
    #[test]
    fn many_carrier_nest_overflows_small_map() {
        const DEPTH: usize = 12;
        fn nest(r: &mut reuselens_ir::BodyBuilder<'_>, depth: usize, a: reuselens_ir::ArrayId) {
            if depth == 0 {
                r.load(a, vec![Expr::c(0)]);
            } else {
                r.for_(&format!("L{depth}"), 0, 1, |r, _| nest(r, depth - 1, a));
            }
        }
        let mut p = ProgramBuilder::new("deep");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| nest(r, DEPTH, a));
        let prog = p.finish();
        let mut an = ReuseAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut an).unwrap();
        assert!(
            an.per_sink[0].index.is_some(),
            "a {DEPTH}-carrier sink must have switched to the hash index"
        );
        let profile = an.finish();
        assert_eq!(profile.total_accesses, 1 << DEPTH);
        assert!(profile.accesses_balance());
        // One pattern per carrying loop: every ancestor carries the reuse
        // that crosses its own iteration boundary.
        assert_eq!(profile.patterns.len(), DEPTH);
        assert_eq!(profile.cold.iter().sum::<u64>(), 1);
    }

    /// Records made before the overflow keep aggregating into the same
    /// histograms after the hash index takes over.
    #[test]
    fn small_map_fallback_matches_linear_scan() {
        let mut sp = SinkPatterns::default();
        sp.record(ScopeId(1), ScopeId(10), 7);
        assert!(sp.index.is_none());
        // Push past the limit with fresh carriers.
        for k in 0..SMALL_MAP_LIMIT as u32 {
            sp.record(ScopeId(1), ScopeId(k + 11), 5);
        }
        assert!(sp.index.is_some());
        // Hits on a pre-overflow pattern, a post-overflow pattern, and a
        // brand-new one all land in the right histograms.
        sp.record(ScopeId(1), ScopeId(10), 9);
        sp.record(ScopeId(1), ScopeId(11), 5);
        sp.record(ScopeId(2), ScopeId(10), 1);
        assert_eq!(sp.entries.len(), SMALL_MAP_LIMIT + 2);
        assert_eq!(sp.entries[0].2.total(), 2);
        assert_eq!(sp.entries[1].2.total(), 2);
        let total: u64 = sp.entries.iter().map(|(_, _, h)| h.total()).sum();
        assert_eq!(total, SMALL_MAP_LIMIT as u64 + 4);
    }

    /// `record_n(s, c, d, n)` must be bit-identical to `n` repeated
    /// `record(s, c, d)` calls under a randomized interleaving of pattern
    /// keys — across the linear-scan regime, the hash-index regime, and
    /// the transition between them.
    #[test]
    fn record_n_is_bit_identical_to_repeated_record() {
        let mut rng = reuselens_prng::SplitMix64::seed_from_u64(0x4156);
        for _case in 0..64 {
            let mut batched = SinkPatterns::default();
            let mut unit = SinkPatterns::default();
            // Enough distinct carriers to cross SMALL_MAP_LIMIT in some
            // cases and stay under it in others.
            let carriers = rng.gen_range(1..(2 * SMALL_MAP_LIMIT as u64 + 1)) as u32;
            let ops = rng.gen_range(1..60);
            for _ in 0..ops {
                let s = ScopeId(rng.gen_range(0..3) as u32);
                let c = ScopeId(rng.gen_range(0..carriers as u64) as u32);
                let d = rng.gen_range(0..1 << 20);
                let n = rng.gen_range(0..6);
                batched.record_n(s, c, d, n);
                for _ in 0..n {
                    unit.record(s, c, d);
                }
            }
            // record_n(_, _, _, 0) still creates the pattern entry the way
            // the first unit record would not — which also shifts later
            // insertion order — so compare the non-empty histograms (what
            // `finish()` exports) keyed by pattern.
            let live = |sp: &SinkPatterns| {
                let mut v: Vec<_> = sp
                    .entries
                    .iter()
                    .filter(|(_, _, h)| !h.is_empty())
                    .map(|(s, c, h)| (s.index(), c.index(), h.clone()))
                    .collect();
                v.sort_by_key(|&(s, c, _)| (s, c));
                v
            };
            assert_eq!(live(&batched), live(&unit));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_panics() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::c(0)]);
        });
        let prog = p.finish();
        let _ = ReuseAnalyzer::new(&prog, 48);
    }
}
