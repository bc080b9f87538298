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
use crate::window::{Window, WINDOW};
use reuselens_ir::{Program, RefId, ScopeId};
use reuselens_trace::{SoaBatch, TraceSink};
use std::collections::HashMap;

/// Pattern count above which a sink switches from linear scan to a hash map.
const SMALL_MAP_LIMIT: usize = 8;

/// Per-sink pattern storage. The paper observes that each reference sees a
/// small, fixed set of (source, carrier) combinations, so a short linear
/// vector beats a hash map on the hot path. Pathological sinks (many
/// carriers, e.g. deep non-perfect nests or indirection) would degrade the
/// scan to O(patterns) per access, so past [`SMALL_MAP_LIMIT`] entries a
/// hash index over the same vector takes over.
///
/// Each entry counts the distances below [`WINDOW`] — the window hits,
/// most reuses on real streams — in a dense array beside its
/// [`Histogram`], so recording one is an indexed add with no bin search.
/// Distances are in the engine's own clock: each recorded reuse at
/// distance `d` stands for `scale` reuses at `d * scale` (1 for the exact
/// engine, the inverse sampling rate for the sampled one). The dense
/// counts fold into the histogram at that scale when it is read
/// ([`collect_patterns`], snapshot encode) or the scale changes
/// ([`rescale`](Self::rescale)); since a histogram's bins are sums, the
/// folded histogram equals the one unit records would build.
#[derive(Debug)]
pub(crate) struct SinkPatterns {
    entries: Vec<PatternEntry>,
    index: Option<HashMap<(ScopeId, ScopeId), usize>>,
    /// Last entry hit — a hint only (re-checked before use). Reuse streams
    /// record long runs of the same (source, carrier) pair, so this turns
    /// the common record into one comparison.
    hot: u32,
    /// Reuses each record stands for.
    scale: u64,
}

impl Default for SinkPatterns {
    fn default() -> SinkPatterns {
        SinkPatterns::new(1)
    }
}

/// One (source scope, carrier) pattern of a sink: the histogram of its
/// distances from [`WINDOW`] up, already scaled, and `near[d]` records at
/// each distance `d` below it, not yet scaled.
#[derive(Debug, Clone)]
struct PatternEntry {
    source: ScopeId,
    carrier: ScopeId,
    near: [u64; WINDOW],
    far: Histogram,
}

impl PatternEntry {
    fn new(source: ScopeId, carrier: ScopeId) -> PatternEntry {
        PatternEntry {
            source,
            carrier,
            near: [0; WINDOW],
            far: Histogram::new(),
        }
    }

    #[inline]
    fn add_n(&mut self, distance: u64, count: u64, scale: u64) {
        if distance < WINDOW as u64 {
            self.near[distance as usize] += count;
        } else {
            self.far
                .add_n(distance.saturating_mul(scale), count * scale);
        }
    }

    /// Moves the dense counts into the far bins at `scale`.
    fn fold_near(&mut self, scale: u64) {
        for (d, n) in self.near.iter_mut().enumerate() {
            self.far.add_n((d as u64).saturating_mul(scale), *n * scale);
            *n = 0;
        }
    }

    /// The pattern's whole histogram: the dense counts folded into the
    /// far bins at `scale`.
    fn into_histogram(mut self, scale: u64) -> Histogram {
        self.fold_near(scale);
        self.far
    }
}

/// Flattens per-sink pattern tables (indexed by sink reference) into a
/// profile's pattern list, sorted by key.
pub(crate) fn collect_patterns(per_sink: Vec<SinkPatterns>) -> Vec<ReusePattern> {
    let mut patterns: Vec<ReusePattern> = per_sink
        .into_iter()
        .enumerate()
        .flat_map(|(sink, sp)| {
            let scale = sp.scale;
            sp.entries.into_iter().map(move |e| ReusePattern {
                key: PatternKey {
                    sink: RefId(sink as u32),
                    source_scope: e.source,
                    carrier: e.carrier,
                },
                histogram: e.into_histogram(scale),
            })
        })
        .collect();
    patterns.sort_by_key(|p| p.key);
    patterns
}

impl SinkPatterns {
    /// An empty pattern set whose records each stand for `scale` reuses.
    pub(crate) fn new(scale: u64) -> SinkPatterns {
        SinkPatterns {
            entries: Vec::new(),
            index: None,
            hot: 0,
            scale,
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, source: ScopeId, carrier: ScopeId, distance: u64) {
        self.record_n(source, carrier, distance, 1);
    }

    /// Records `count` reuses at once; `record` is the `count == 1` case.
    /// Only the hot-entry hit stays inline (a compare and an add): finding
    /// or creating another entry is [`record_n_cold`](Self::record_n_cold).
    #[inline]
    pub(crate) fn record_n(
        &mut self,
        source: ScopeId,
        carrier: ScopeId,
        distance: u64,
        count: u64,
    ) {
        let scale = self.scale;
        if let Some(e) = self.entries.get_mut(self.hot as usize) {
            if e.source == source && e.carrier == carrier {
                e.add_n(distance, count, scale);
                return;
            }
        }
        self.record_n_cold(source, carrier, distance, count);
    }

    /// `record_n` past a missed hot hint: the index lookup or the scan,
    /// and a new entry when the pattern is new. Out of line, so the
    /// inlined hit path does not reserve stack for a [`PatternEntry`].
    #[cold]
    #[inline(never)]
    fn record_n_cold(&mut self, source: ScopeId, carrier: ScopeId, distance: u64, count: u64) {
        let found = match &self.index {
            Some(index) => index.get(&(source, carrier)).copied(),
            None => self
                .entries
                .iter()
                .position(|e| e.source == source && e.carrier == carrier),
        };
        let i = found.unwrap_or_else(|| {
            self.entries.push(PatternEntry::new(source, carrier));
            let i = self.entries.len() - 1;
            match &mut self.index {
                Some(index) => {
                    index.insert((source, carrier), i);
                }
                None => self.maybe_index(),
            }
            i
        });
        self.hot = i as u32;
        self.entries[i].add_n(distance, count, self.scale);
    }

    /// Folds every entry's dense counts at the current scale, so records
    /// from now on stand for `scale` reuses each.
    pub(crate) fn rescale(&mut self, scale: u64) {
        for e in &mut self.entries {
            e.fold_near(self.scale);
        }
        self.scale = scale;
    }

    fn maybe_index(&mut self) {
        if self.entries.len() > SMALL_MAP_LIMIT {
            self.index = Some(
                self.entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| ((e.source, e.carrier), i))
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
/// written whole (dense near counts folded in) as `(low, count)` pairs in
/// bin order — the same canonical form the profile serializer proved
/// round-trips through `iter`/`add_n` — and the hash index and hot-entry
/// hints, being derived state, are skipped and rebuilt on decode.
pub(crate) fn encode_sink_patterns(e: &mut Enc, per_sink: &[SinkPatterns]) {
    e.u64(per_sink.len() as u64);
    for sp in per_sink {
        e.u64(sp.entries.len() as u64);
        for entry in &sp.entries {
            e.u32(entry.source.0);
            e.u32(entry.carrier.0);
            let h = entry.clone().into_histogram(sp.scale);
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
/// nonzero counts). The bins, already scaled, go straight into the far
/// histograms; later records are at `scale`.
pub(crate) fn decode_sink_patterns(
    d: &mut Dec<'_>,
    nrefs: usize,
    scale: u64,
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
            let mut entry = PatternEntry::new(ScopeId(d.u32()?), ScopeId(d.u32()?));
            let nbins = d.len(16)?;
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
                entry.far.add_n(lo, count);
            }
            entries.push(entry);
        }
        let mut sp = SinkPatterns {
            entries,
            ..SinkPatterns::new(scale)
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
    /// Boxed: the window's arrays take about 1 KiB, which would dwarf
    /// every other engine a replay holds by value.
    window: Box<Window>,
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
            window: Box::new(Window::new()),
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
        self.tree.len() + self.window.len
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
        e.u64(self.window.len as u64);
        for (block, time, ref_id) in self.window.rows().rev() {
            e.u64(block);
            e.u64(time);
            e.u32(ref_id);
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
    /// modeled address space, references inside the program, block-table
    /// entries only beside a full window, the time bitmap's population
    /// matching its length. Never panics on hostile
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
        let mut window = Box::new(Window::new());
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
            window.push(block, time, ref_id);
        }
        let stack = decode_scope_stack(d, clock)?;
        let per_sink = decode_sink_patterns(d, nrefs, 1)?;
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
        if tcount > 0 && wlen < WINDOW {
            return Err(d
                .corrupt(format!(
                    "{tcount} blocks left a window of {wlen} entries, which only \
                     a full window ({WINDOW}) evicts"
                ))
                .into());
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
    /// The recent-access [`Window`] holds the [`WINDOW`] most recently used
    /// distinct blocks, most recent first; every window time is greater
    /// than every tree key, and the table/tree only ever learn about a
    /// block when it is evicted from the window. That invariant makes the
    /// three cases exact:
    ///
    /// * **window hit** at slot `i`: the blocks touched since the previous
    ///   access are exactly the `i` slots before it, so `distance = i` with
    ///   no tree or table work at all ([`Window::touch`]);
    /// * **table hit**: all `WINDOW` window blocks are more recent than
    ///   the previous access, so `distance = WINDOW + |tree keys >
    ///   prev.time|`, where the count and the set update (drop
    ///   `prev.time`, add the newly evicted oldest slot) fuse into one call
    ///   ([`TimeBits::count_reinsert`]);
    /// * **cold**: first touch; the block enters the window and the oldest
    ///   entry (if the window is full) spills into the tree + table.
    ///
    /// A block sitting in the window may leave a stale table entry behind
    /// from an earlier eviction; that is harmless because the window is
    /// consulted first and the entry is overwritten on the next eviction.
    ///
    /// Always inlined: with a plain `#[inline]` the batch loop still paid
    /// a call per access.
    #[inline(always)]
    fn access_block(&mut self, r: u32, block: u64) {
        self.clock += 1;
        let now = self.clock;
        let Some((distance, time, ref_id)) = self.window.touch(block, now, r) else {
            return self.access_past_window(r, block, now);
        };
        let carrier = self.stack.carrier(time);
        let source = self.ref_scopes[ref_id as usize];
        self.per_sink[r as usize].record(source, carrier, distance);
        self.last_distance = Some(distance);
    }

    /// The table/tree path for an access that missed the recent window —
    /// a long reuse or a cold first touch. Outlined and kept out of the
    /// inlined hot path: mixing the tree machinery into `access_block`
    /// costs the dominant short-reuse path real registers and icache.
    #[cold]
    #[inline(never)]
    fn access_past_window(&mut self, r: u32, block: u64, now: u64) {
        let evicted = self.window.push(block, now, r);
        match self.table.get(block) {
            Some(prev) => {
                let (prev_time, prev_ref) = (prev.time, prev.ref_id);
                // The table only holds evicted blocks, so the window was
                // full and spilled its oldest entry to make room.
                let Some((old, old_time, old_ref)) = evicted else {
                    unreachable!("a block-table hit implies a full window")
                };
                let (_, count) = self.tree.count_reinsert(prev_time, old_time);
                self.table.set(old, old_time, old_ref);
                let distance = WINDOW as u64 + count;
                let carrier = self.stack.carrier(prev_time);
                let source = self.ref_scopes[prev_ref as usize];
                self.per_sink[r as usize].record(source, carrier, distance);
                self.last_distance = Some(distance);
            }
            None => {
                self.cold[r as usize] += 1;
                self.distinct += 1;
                self.last_distance = None;
                if let Some((old, old_time, old_ref)) = evicted {
                    self.tree.insert(old_time);
                    self.table.set(old, old_time, old_ref);
                }
            }
        }
    }
}

impl TraceSink for ReuseAnalyzer {
    fn access(&mut self, r: RefId, addr: u64) {
        self.access_block(r.0, addr >> self.block_shift);
    }

    fn access_soa(&mut self, batch: &SoaBatch) {
        // Stream both lanes in step; no per-event struct exists.
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
    fn access(&mut self, r: RefId, addr: u64) {
        for a in &mut self.analyzers {
            a.access(r, addr);
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
        let totals: Vec<u64> = sp
            .entries
            .iter()
            .map(|e| e.clone().into_histogram(sp.scale).total())
            .collect();
        assert_eq!(totals[0], 2);
        assert_eq!(totals[1], 2);
        let total: u64 = totals.iter().sum();
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
                    .map(|e| {
                        (
                            e.source.index(),
                            e.carrier.index(),
                            e.clone().into_histogram(sp.scale),
                        )
                    })
                    .filter(|(_, _, h)| !h.is_empty())
                    .collect();
                v.sort_by_key(|&(s, c, _)| (s, c));
                v
            };
            assert_eq!(live(&batched), live(&unit));
        }
    }

    /// A scaled pattern set, rescaled at random points as adaptive rate
    /// drops do, holds the histograms that unit-scale records of each
    /// reuse at `d * scale` with count `scale` build.
    #[test]
    fn scaled_records_fold_at_the_scale_they_were_made_at() {
        let mut rng = reuselens_prng::SplitMix64::seed_from_u64(0x4157);
        for _case in 0..64 {
            let mut scale = rng.gen_range(1..4);
            let mut scaled = SinkPatterns::new(scale);
            let mut unit = SinkPatterns::default();
            for _ in 0..rng.gen_range(1..80) {
                if rng.gen_range(0..8) == 0 {
                    scale *= 2;
                    scaled.rescale(scale);
                }
                let (s, c) = (ScopeId(rng.gen_range(0..2) as u32), ScopeId(0));
                let d = rng.gen_range(0..2 * WINDOW as u64);
                scaled.record(s, c, d);
                unit.record_n(s, c, d * scale, scale);
            }
            let histograms = |sp: SinkPatterns| {
                let scale = sp.scale;
                let mut v: Vec<_> = sp
                    .entries
                    .into_iter()
                    .map(|e| (e.source, e.into_histogram(scale)))
                    .collect();
                v.sort_by_key(|&(s, _)| s);
                v
            };
            assert_eq!(histograms(scaled), histograms(unit));
        }
    }

    /// Encode → decode → encode of `an` gives the same bytes, and the
    /// decoded analyzer holds the same window.
    fn assert_snapshot_fixpoint(an: &ReuseAnalyzer, prog: &Program) {
        let mut enc = Enc::new();
        an.snapshot_encode(&mut enc);
        let mut dec = Dec::new(&enc.buf, 0);
        let back = ReuseAnalyzer::snapshot_decode(prog, an.block_size(), &mut dec)
            .expect("decode a snapshot just encoded");
        dec.finish().expect("the snapshot is read whole");
        let mut again = Enc::new();
        back.snapshot_encode(&mut again);
        assert_eq!(again.buf, enc.buf, "encode/decode is not a fixpoint");
        assert_eq!(back.window.len, an.window.len);
        assert_eq!(back.window.filter, an.window.filter);
    }

    /// A loop cycling over `lines` distinct 64 B lines reuses each at
    /// distance `lines - 1`: below the window's last slot, at it, and
    /// one past it (the table path) for `WINDOW - 1`, `WINDOW` and
    /// `WINDOW + 1` lines. Every access's distance matches the LRU-stack
    /// oracle, and snapshots of the empty, partly filled and full window
    /// are byte fixpoints.
    #[test]
    fn cyclic_reuse_at_the_window_edge_matches_the_oracle() {
        for lines in [WINDOW - 1, WINDOW, WINDOW + 1] {
            let mut p = ProgramBuilder::new("cyclic");
            let a = p.array("a", 64, &[lines as u64]);
            p.routine("main", |r| {
                r.for_("t", 0, 3, |r, _| {
                    r.for_("i", 0, lines as i64 - 1, |r, i| {
                        r.load(a, vec![i.into()]);
                    });
                });
            });
            let prog = p.finish();
            let mut events = reuselens_trace::VecSink::new();
            Executor::new(&prog).run(&mut events).unwrap();
            let addrs: Vec<u64> = events
                .events
                .iter()
                .filter_map(|e| match *e {
                    reuselens_trace::Event::Access { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect();
            let want = crate::oracle::stack_distances(&addrs, 64);
            let mut an = ReuseAnalyzer::new(&prog, 64);
            assert_snapshot_fixpoint(&an, &prog);
            let mut k = 0;
            for event in events.events {
                match event {
                    reuselens_trace::Event::Access { r, addr } => {
                        an.access(r, addr);
                        assert_eq!(an.last_distance(), want[k], "{lines} lines, access {k}");
                        k += 1;
                        if k == WINDOW / 2 {
                            assert_snapshot_fixpoint(&an, &prog);
                        }
                    }
                    reuselens_trace::Event::Enter(s) => an.enter(s),
                    reuselens_trace::Event::Exit(s) => an.exit(s),
                }
            }
            assert_eq!(k, addrs.len());
            assert_eq!(an.window.len, lines.min(WINDOW));
            assert_snapshot_fixpoint(&an, &prog);
            if lines > WINDOW {
                // Evicted blocks beside a window short of full: no run
                // leaves that, so decode refuses it.
                let mut short = Enc::new();
                an.window.len -= 1;
                an.snapshot_encode(&mut short);
                an.window.len += 1;
                let err = ReuseAnalyzer::snapshot_decode(&prog, 64, &mut Dec::new(&short.buf, 0))
                    .expect_err("a short window with a block table");
                assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            }
            let profile = an.finish();
            assert_eq!(profile.distinct_blocks, lines as u64);
            assert!(profile.accesses_balance());
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
