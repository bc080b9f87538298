//! The online reuse-distance analyzer — the paper's event handler.
//!
//! For every memory access the analyzer advances a logical clock, finds the
//! block's previous access in the [block table](crate::BlockTable), counts
//! the distinct blocks touched in between with the
//! [order-statistic set](crate::TimeBits), locates the carrying scope
//! on the [dynamic scope stack](crate::ScopeStack), and records the distance
//! in the histogram of the *(sink reference, source scope, carrying scope)*
//! pattern.

use crate::blocktable::{BlockEntry, BlockTable, MAX_BLOCKS};
use crate::histogram::Histogram;
use crate::patterns::{PatternKey, ReusePattern, ReuseProfile};
use crate::sampling::{Sampler, SamplingConfig, SamplingInfo, SparseTable};
use crate::scopestack::ScopeStack;
use crate::snapshot::{Dec, Enc, SnapshotError, SnapshotHeader};
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
/// snapshot.
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
/// executes — the one reuse engine, exact or behind a sampling front.
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
    /// Logical clock over the accesses the engine tracks: every access
    /// when exact, the sampled ones when sampled.
    clock: u64,
    /// Every access observed, tracked or not.
    accesses: u64,
    /// Boxed: the window's arrays take about 1 KiB, which would dwarf
    /// every other engine a replay holds by value.
    window: Box<Window>,
    /// The blocks that left the window, and the sampler when there is one.
    past: Past,
    /// Last-access times of the blocks in the table.
    times: TimeBits,
    stack: ScopeStack,
    per_sink: Vec<SinkPatterns>,
    cold: Vec<u64>,
    ref_scopes: Vec<ScopeId>,
    /// Blocks first touched (sampled ones only, when sampled).
    first_touches: u64,
    /// Distinct-block footprint: the scale summed at each first touch
    /// (SHARDS-style when sampled).
    footprint: u64,
    last_distance: Option<u64>,
}

/// The blocks that have left the window: every block in the paper's dense
/// three-level [`BlockTable`] for the exact engine, or the sampled blocks
/// in a hashed [`SparseTable`] beside the [`Sampler`] that admits them
/// (the sampling module's Memory section says why). The engine picks the
/// kind, and a sampler beside a dense table cannot be built.
#[derive(Debug)]
enum Past {
    Exact(BlockTable),
    Sampled(SparseTable, Sampler),
}

impl Past {
    /// Removes and returns `block`'s entry.
    #[inline]
    fn take(&mut self, block: u64) -> Option<BlockEntry> {
        match self {
            Past::Exact(table) => table.take(block),
            Past::Sampled(table, _) => table.take(block),
        }
    }

    #[inline]
    fn set(&mut self, block: u64, time: u64, ref_id: u32) {
        match self {
            Past::Exact(table) => table.set(block, time, ref_id),
            Past::Sampled(table, _) => table.set(block, time, ref_id),
        }
    }

    fn len(&self) -> usize {
        match self {
            Past::Exact(table) => table.len(),
            Past::Sampled(table, _) => table.len(),
        }
    }

    /// Visits every entry in ascending block order.
    fn for_each(&self, f: impl FnMut(u64, BlockEntry)) {
        match self {
            Past::Exact(table) => table.for_each(f),
            Past::Sampled(table, _) => table.for_each(f),
        }
    }

    /// Reuses each record stands for: 1 exact, `inv` sampled.
    fn scale(&self) -> u64 {
        match self {
            Past::Exact(_) => 1,
            Past::Sampled(_, sampler) => sampler.inv,
        }
    }
}

/// Writes one tracked block's snapshot row.
fn put_row(e: &mut Enc, (block, time, ref_id): (u64, u64, u32)) {
    e.u64(block);
    e.u64(time);
    e.u32(ref_id);
}

impl ReuseAnalyzer {
    /// Creates an exact analyzer at the given block size (must be a power
    /// of two): cache-line size for cache studies, page size for TLB
    /// studies.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn new(program: &Program, block_size: u64) -> ReuseAnalyzer {
        ReuseAnalyzer::with_sampling(program, block_size, SamplingConfig::Exact)
    }

    /// Creates an analyzer behind the sampling front `config` asks for;
    /// [`SamplingConfig::Exact`] gives the engine [`new`](Self::new)
    /// gives. A sampled engine's [`finish`](Self::finish) produces a
    /// profile whose histograms, cold counts and footprint are scaled
    /// estimates and whose `sampling` field records the run's
    /// [`SamplingInfo`].
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    ///
    /// # Examples
    ///
    /// ```
    /// use reuselens_core::{ReuseAnalyzer, SamplingConfig};
    /// use reuselens_ir::ProgramBuilder;
    /// use reuselens_trace::Executor;
    ///
    /// let mut p = ProgramBuilder::new("demo");
    /// let a = p.array("a", 8, &[4096]);
    /// p.routine("main", |r| {
    ///     r.for_("t", 0, 1, |r, _| {
    ///         r.for_("i", 0, 4095, |r, i| {
    ///             r.load(a, vec![i.into()]);
    ///         });
    ///     });
    /// });
    /// let prog = p.finish();
    ///
    /// // Rate 1.0 tracks every block: same measurements as the exact engine.
    /// let mut full = ReuseAnalyzer::with_sampling(&prog, 64, SamplingConfig::fixed(1.0));
    /// Executor::new(&prog).run(&mut full)?;
    /// let mut exact = ReuseAnalyzer::new(&prog, 64);
    /// Executor::new(&prog).run(&mut exact)?;
    /// let (full, exact) = (full.finish(), exact.finish());
    /// assert_eq!(full.patterns, exact.patterns);
    /// assert_eq!(full.sampling.unwrap().inv, 1);
    ///
    /// // Rate 0.1 tracks ~10% of the blocks but estimates the same totals.
    /// let mut tenth = ReuseAnalyzer::with_sampling(&prog, 64, SamplingConfig::fixed(0.1));
    /// Executor::new(&prog).run(&mut tenth)?;
    /// let tenth = tenth.finish();
    /// assert!(tenth.sampling.unwrap().blocks_sampled < exact.distinct_blocks);
    /// # Ok::<(), reuselens_trace::ExecError>(())
    /// ```
    pub fn with_sampling(
        program: &Program,
        block_size: u64,
        config: SamplingConfig,
    ) -> ReuseAnalyzer {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        let nrefs = program.references().len();
        let past = match Sampler::new(config, nrefs) {
            None => Past::Exact(BlockTable::new()),
            Some(sampler) => Past::Sampled(SparseTable::default(), sampler),
        };
        let scale = past.scale();
        ReuseAnalyzer {
            block_shift: block_size.trailing_zeros(),
            clock: 0,
            accesses: 0,
            window: Box::new(Window::new()),
            past,
            times: TimeBits::new(),
            stack: ScopeStack::new(),
            per_sink: (0..nrefs).map(|_| SinkPatterns::new(scale)).collect(),
            cold: vec![0; nrefs],
            ref_scopes: program.references().iter().map(|r| r.scope()).collect(),
            first_touches: 0,
            footprint: 0,
            last_distance: None,
        }
    }

    /// Block size this analyzer measures at.
    pub fn block_size(&self) -> u64 {
        1 << self.block_shift
    }

    /// Accesses observed so far (sampled or not).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Distinct blocks observed so far: the exact count, or its scaled
    /// estimate when sampled.
    pub fn distinct_blocks(&self) -> u64 {
        self.footprint
    }

    /// Blocks tracked now, in the recent-access window or the table: the
    /// quantity a memory budget bounds. Every block ever touched when
    /// exact; held at the budget in adaptive mode.
    pub fn tracked_blocks(&self) -> u64 {
        (self.window.len + self.past.len()) as u64
    }

    /// Live blocks tracked for distance counting: order-statistic set
    /// entries plus recent-access window entries (one per tracked block).
    pub fn tree_nodes(&self) -> usize {
        self.times.len() + self.window.len
    }

    /// Distance the most recent tracked access was measured at, in the
    /// engine's clock: `Some(d)` for a reuse, `None` for a cold first
    /// touch (or before any access). This per-access view is what the
    /// randomized property suite compares against the brute-force
    /// [`oracle`](crate::oracle), access by access.
    pub fn last_distance(&self) -> Option<u64> {
        self.last_distance
    }

    /// Sampling statistics as they stand now (the run's final
    /// [`SamplingInfo`] once the stream ends). The exact engine reads as
    /// rate 1 with every block sampled and none evicted.
    pub fn sampling_info(&self) -> SamplingInfo {
        match &self.past {
            Past::Exact(_) => SamplingInfo {
                inv: 1,
                blocks_sampled: self.first_touches,
                blocks_evicted: 0,
                rate_drops: 0,
            },
            Past::Sampled(_, sampler) => sampler.info(self.first_touches),
        }
    }

    /// Consumes the analyzer and produces the measured profile.
    pub fn finish(self) -> ReuseProfile {
        let sampling = match &self.past {
            Past::Exact(_) => None,
            Past::Sampled(..) => Some(self.sampling_info()),
        };
        ReuseProfile {
            block_size: 1 << self.block_shift,
            patterns: collect_patterns(self.per_sink),
            cold: self.cold,
            total_accesses: self.accesses,
            distinct_blocks: self.footprint,
            sampling,
        }
    }

    /// Serializes the full mid-stream analyzer state into a snapshot
    /// frame: the counters, the sampler's books when sampled, every
    /// tracked block — window and table together, ascending by block, so
    /// where the window's edge falls does not show — then scopes,
    /// patterns and cold counts. Everything derivable (the time set, the
    /// window's order, pattern hash indexes, hot hints, `ref_scopes`, the
    /// unsampled memo) is skipped and rebuilt on decode, so the encoding
    /// of a given state is unique. The dense table is walked in block
    /// order already, so the few window rows merge into its walk.
    pub(crate) fn snapshot_encode(&self, e: &mut Enc) {
        e.u64(self.clock);
        e.u64(self.accesses);
        e.u64(self.first_touches);
        e.u64(self.footprint);
        match self.last_distance {
            None => e.u8(0),
            Some(dist) => {
                e.u8(1);
                e.u64(dist);
            }
        }
        if let Past::Sampled(_, sampler) = &self.past {
            sampler.encode(e);
        }
        e.u64(self.tracked_blocks());
        let mut window: Vec<(u64, u64, u32)> = self.window.rows().collect();
        window.sort_unstable_by_key(|row| row.0);
        let mut window = window.into_iter().peekable();
        self.past.for_each(|block, entry| {
            while let Some(row) = window.next_if(|row| row.0 < block) {
                put_row(e, row);
            }
            put_row(e, (block, entry.time, entry.ref_id));
        });
        window.for_each(|row| put_row(e, row));
        encode_scope_stack(e, &self.stack);
        encode_sink_patterns(e, &self.per_sink);
        e.u64(self.cold.len() as u64);
        for &c in &self.cold {
            e.u64(c);
        }
    }

    /// Rebuilds a mid-stream analyzer from [`snapshot_encode`] output,
    /// exact or sampled as the verified `header` says. Every tracked
    /// block goes into the table behind an empty window, which the next
    /// accesses fill, and the time set is rebuilt from the rows' times.
    ///
    /// The time bitmap spans the tracked times, so everything that
    /// bounds them is checked before it is built: the access count
    /// equals the header's `accesses_replayed` (which the caller has
    /// verified against the trace), the clock equals it (exact) or is at
    /// most it (sampled), rows ascend strictly by block with distinct
    /// times in `1..=clock` and references inside the program, exact
    /// blocks lie inside the modeled address space and sampled ones pass
    /// the hash at the recorded rate, and first touches equal the rows
    /// plus the evicted blocks. Never panics on hostile input — a
    /// violated invariant is a typed [`SnapshotError`].
    pub(crate) fn snapshot_decode(
        program: &Program,
        header: &SnapshotHeader,
        d: &mut Dec<'_>,
    ) -> Result<ReuseAnalyzer, SnapshotError> {
        debug_assert!(header.block_size.is_power_of_two());
        let nrefs = program.references().len();
        let clock = d.u64()?;
        let at = d.offset();
        let accesses = d.u64()?;
        let replayed = header.accesses_replayed;
        if accesses != replayed {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!("analyzer counts {accesses} accesses, the header records {replayed}"),
            });
        }
        if clock > accesses || (!header.sampled && clock != accesses) {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!("clock {clock} does not fit {accesses} accesses"),
            });
        }
        let first_touches = d.u64()?;
        let footprint = d.u64()?;
        let last_distance = match d.u8()? {
            0 => None,
            1 => Some(d.u64()?),
            other => {
                return Err(d
                    .corrupt(format!("unknown last-distance tag {other}"))
                    .into())
            }
        };
        let mut past = if header.sampled {
            Past::Sampled(SparseTable::default(), Sampler::decode(d, nrefs)?)
        } else {
            Past::Exact(BlockTable::new())
        };
        let at = d.offset();
        let n = d.len(20)?;
        let evicted = match &past {
            Past::Exact(_) => 0,
            Past::Sampled(_, sampler) => sampler.evicted,
        };
        if first_touches != n as u64 + evicted {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!(
                    "{first_touches} first touches != {n} tracked + {evicted} evicted blocks"
                ),
            });
        }
        let mut times = Vec::with_capacity(n);
        let mut prev_block = None;
        for _ in 0..n {
            let at = d.offset();
            let block = d.u64()?;
            let time = d.u64()?;
            let ref_id = d.u32()?;
            let admitted = match &past {
                Past::Exact(_) => block < MAX_BLOCKS,
                Past::Sampled(_, sampler) => sampler.admits(block),
            };
            if !admitted
                || prev_block.is_some_and(|p| block <= p)
                || time == 0
                || time > clock
                || ref_id as usize >= nrefs
            {
                return Err(SnapshotError::Corrupt {
                    offset: at,
                    what: format!(
                        "tracked block (block {block}, time {time}, ref {ref_id}) \
                         violates table invariants at clock {clock}"
                    ),
                });
            }
            prev_block = Some(block);
            times.push((time, at));
            past.set(block, time, ref_id);
        }
        // Ascending insertion grows the bitmap at its top end only.
        times.sort_unstable();
        let mut bits = TimeBits::new();
        for (time, at) in times {
            if !bits.insert(time) {
                return Err(SnapshotError::Corrupt {
                    offset: at,
                    what: format!("duplicate last-access time {time} among tracked blocks"),
                });
            }
        }
        let stack = decode_scope_stack(d, clock)?;
        let per_sink = decode_sink_patterns(d, nrefs, past.scale())?;
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
        Ok(ReuseAnalyzer {
            block_shift: header.block_size.trailing_zeros(),
            clock,
            accesses,
            window: Box::new(Window::new()),
            past,
            times: bits,
            stack,
            per_sink,
            cold,
            ref_scopes: program.references().iter().map(|r| r.scope()).collect(),
            first_touches,
            footprint,
            last_distance,
        })
    }

    /// Feeds one access to `block` to the engine, through the sampler's
    /// filter when there is one.
    #[inline(always)]
    fn sample(&mut self, r: u32, block: u64) {
        if let Past::Sampled(_, sampler) = &mut self.past {
            if !sampler.admit(r, block) {
                return;
            }
        }
        self.access_block(r, block);
    }

    /// The per-access hot path for every tracked access.
    ///
    /// The recent-access [`Window`] holds the [`WINDOW`] most recently used
    /// distinct tracked blocks, most recent first; every window time is
    /// greater than every time in the set, and the table holds exactly
    /// the tracked blocks that left the window. That invariant makes the
    /// three cases exact:
    ///
    /// * **window hit** at slot `i`: the blocks touched since the previous
    ///   access are exactly the `i` slots before it, so `distance = i` with
    ///   no set or table work at all ([`Window::touch`]);
    /// * **table hit**: every window block is more recent than the
    ///   previous access, so `distance = window.len + |set times >
    ///   prev.time|` ([`access_past_window`](Self::access_past_window));
    /// * **cold**: first touch; the block enters the window.
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

    /// The table path for an access that missed the recent window — a
    /// long reuse or a cold first touch. The block moves into the window
    /// and its table entry, if any, is taken out; the entry the window
    /// spilled, if it was full, takes its place in the table and the time
    /// set (fused with the count into one
    /// [`TimeBits::count_reinsert`]), and otherwise — a window short of
    /// full, at the start, after a rate drop or a snapshot decode — the
    /// block's old time just leaves the set. A cold touch counts at the
    /// engine's scale, and a sampled one may push the tracked set past
    /// its budget. Outlined and kept out of the inlined hot path: mixing
    /// the set machinery into `access_block` costs the dominant
    /// short-reuse path real registers and icache.
    #[cold]
    #[inline(never)]
    fn access_past_window(&mut self, r: u32, block: u64, now: u64) {
        let held = self.window.len as u64;
        let spilled = self.window.push(block, now, r);
        let prev = self.past.take(block);
        if let Some((old, time, ref_id)) = spilled {
            self.past.set(old, time, ref_id);
        }
        let spilled_time = spilled.map(|(_, time, _)| time);
        let Some(prev) = prev else {
            let scale = self.past.scale();
            self.cold[r as usize] += scale;
            self.first_touches += 1;
            self.footprint += scale;
            self.last_distance = None;
            if let Some(time) = spilled_time {
                self.times.insert(time);
            }
            if let Past::Sampled(table, sampler) = &mut self.past {
                sampler.fit(&mut self.window, table, &mut self.times, &mut self.per_sink);
            }
            return;
        };
        let count = match spilled_time {
            Some(time) => self.times.count_reinsert(prev.time, time).1,
            None => {
                let count = self.times.count_greater(prev.time);
                self.times.remove(prev.time);
                count
            }
        };
        let distance = held + count;
        let carrier = self.stack.carrier(prev.time);
        let source = self.ref_scopes[prev.ref_id as usize];
        self.per_sink[r as usize].record(source, carrier, distance);
        self.last_distance = Some(distance);
    }
}

impl TraceSink for ReuseAnalyzer {
    fn access(&mut self, r: RefId, addr: u64) {
        self.accesses += 1;
        self.sample(r.0, addr >> self.block_shift);
    }

    fn access_soa(&mut self, batch: &SoaBatch) {
        // Stream both lanes in step; no per-event struct exists. The
        // front is checked once per batch, so the exact loop never looks
        // at it.
        self.accesses += batch.len() as u64;
        let shift = self.block_shift;
        let lanes = batch.refs.iter().zip(&batch.addrs);
        if let Past::Exact(_) = self.past {
            for (&r, &addr) in lanes {
                self.access_block(r, addr >> shift);
            }
        } else {
            for (&r, &addr) in lanes {
                self.sample(r, addr >> shift);
            }
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
pub(crate) mod tests {
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

    impl ReuseAnalyzer {
        /// The sampling front, for the sampling module's tests.
        pub(crate) fn sampler(&mut self) -> &mut Sampler {
            match &mut self.past {
                Past::Sampled(_, sampler) => sampler,
                Past::Exact(_) => panic!("an exact engine has no sampler"),
            }
        }

        /// The recent-access window's length, for the sampling module's
        /// tests.
        pub(crate) fn window_len(&self) -> usize {
            self.window.len
        }
    }

    /// Decodes the snapshot `an` encodes, checks that encoding the result
    /// gives the same bytes, and returns it.
    pub(crate) fn round_trip(an: &ReuseAnalyzer, prog: &Program) -> ReuseAnalyzer {
        let mut enc = Enc::new();
        an.snapshot_encode(&mut enc);
        let header = SnapshotHeader {
            block_size: an.block_size(),
            sampled: matches!(an.past, Past::Sampled(..)),
            events_replayed: an.accesses(),
            accesses_replayed: an.accesses(),
            nrefs: prog.references().len() as u32,
        };
        let mut dec = Dec::new(&enc.buf, 0);
        let back = ReuseAnalyzer::snapshot_decode(prog, &header, &mut dec)
            .expect("decode a snapshot just encoded");
        dec.finish().expect("the snapshot is read whole");
        let mut again = Enc::new();
        back.snapshot_encode(&mut again);
        assert_eq!(again.buf, enc.buf, "encode/decode is not a fixpoint");
        assert_eq!(
            back.window.len, 0,
            "a decoded engine starts with an empty window"
        );
        back
    }

    /// A loop cycling over `lines` distinct 64 B lines reuses each at
    /// distance `lines - 1`: below the window's last slot, at it, and
    /// one past it (the table path) for `WINDOW - 1`, `WINDOW` and
    /// `WINDOW + 1` lines. The program runs twice over; every access's
    /// distance matches the LRU-stack oracle, and so does every later
    /// access of the engines decoded from the snapshots taken with the
    /// window half filled and at the end of the first run. A decoded
    /// engine starts with an empty window, so its first reuses take the
    /// table path; every snapshot is a byte fixpoint, and the resumed
    /// engines finish with the uninterrupted profile.
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
            let mut run = reuselens_trace::VecSink::new();
            Executor::new(&prog).run(&mut run).unwrap();
            let events = [run.events.clone(), run.events].concat();
            let addrs: Vec<u64> = events
                .iter()
                .filter_map(|e| match *e {
                    reuselens_trace::Event::Access { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect();
            let want = crate::oracle::stack_distances(&addrs, 64);
            let mut an = ReuseAnalyzer::new(&prog, 64);
            round_trip(&an, &prog);
            let mut resumed = Vec::new();
            let mut k = 0;
            for event in events {
                match event {
                    reuselens_trace::Event::Access { r, addr } => {
                        for engine in std::iter::once(&mut an).chain(&mut resumed) {
                            engine.access(r, addr);
                            let got = engine.last_distance();
                            assert_eq!(got, want[k], "{lines} lines, access {k}");
                        }
                        k += 1;
                        if k == WINDOW / 2 || k == addrs.len() / 2 {
                            resumed.push(round_trip(&an, &prog));
                        }
                    }
                    reuselens_trace::Event::Enter(s) => {
                        std::iter::once(&mut an)
                            .chain(&mut resumed)
                            .for_each(|e| e.enter(s));
                    }
                    reuselens_trace::Event::Exit(s) => {
                        std::iter::once(&mut an)
                            .chain(&mut resumed)
                            .for_each(|e| e.exit(s));
                    }
                }
            }
            assert_eq!(k, addrs.len());
            assert_eq!(resumed.len(), 2);
            assert_eq!(an.window.len, lines.min(WINDOW));
            round_trip(&an, &prog);
            let profile = an.finish();
            assert_eq!(profile.distinct_blocks, lines as u64);
            assert!(profile.accesses_balance());
            for engine in resumed {
                assert_eq!(engine.finish(), profile, "{lines} lines: resumed profile");
            }
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
