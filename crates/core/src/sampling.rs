//! Constant-space sampled reuse-distance analysis.
//!
//! The exact analyzer pays a table probe and an order-statistic update per
//! access over the full block set `M`. On large runs most of that work is
//! statistically redundant: a spatially hashed *sample* of the blocks
//! recovers the same reuse-distance histogram shape at a fraction of the cost (the SHARDS
//! construction — see also Razzak et al. and Fauzia et al. on how much
//! approximation locality profiles tolerate).
//!
//! ## Construction
//!
//! Every block number is hashed once with a fixed 64-bit mixer. A block is
//! **sampled** iff `hash(block) <= u64::MAX / inv`, where `inv` is the
//! integer inverse sampling rate (`inv = 100` samples ~1% of blocks).
//! Only sampled blocks reach the reuse machinery, so:
//!
//! * an unsampled access costs one compare when its reference found the
//!   same block unsampled last time (a per-reference memo: a reference
//!   sweeping a line repeats its block), and one hash + compare
//!   otherwise — no window, no set, no table;
//! * the logical clock ticks only on sampled accesses, so a measured
//!   distance `d` counts *sampled* distinct blocks in the reuse interval;
//!   the estimate of the true distance is `d * inv`, and each observed
//!   reuse stands for `inv` reuses, as if recorded as `add_n(d * inv,
//!   inv)`;
//! * cold (first-touch) counts and the distinct-block footprint are
//!   scaled the same way.
//!
//! A sampled access then runs the exact engine's per-access core on the
//! sampled clock: the same recent-access [`Window`] of the last
//! [`WINDOW`](crate::window::WINDOW) tracked blocks answers short reuses
//! by slot, and only blocks that left it live in a hash table and the
//! [`TimeBits`] set, so a reuse past the window is the window's length
//! plus the set's count. The pattern tables count window-hit distances
//! densely by the *sampled* distance and fold them in at `d * inv` when
//! read, so a sampled reuse inside the window never searches a histogram
//! bin.
//!
//! ## Adaptive mode
//!
//! [`SamplingConfig::adaptive`] holds the tracked-block set at a fixed
//! budget: when it would grow past the budget, `inv` doubles (the hash
//! threshold halves) and every tracked block whose hash exceeds the new
//! threshold is evicted, from the window (the survivors keep their order)
//! and from the table — the drop-highest-threshold policy. The dense
//! counts fold at the old `inv` before it doubles. Because the
//! hash is fixed per block, the surviving set is exactly the set that a
//! fixed run at the new rate would have tracked, so the stream remains a
//! consistent spatial sample. Reuses are scaled by the `inv` in force
//! when they are *recorded*; distances measured across a rate drop use
//! the set as it exists then (evicted blocks no longer count), which
//! biases those few distances low by at most the evicted fraction —
//! the error model the accuracy harness bounds.
//!
//! ## Memory
//!
//! The order-statistic set is the same [`TimeBits`] bitmap the exact
//! engine uses, over the sampled clock. That clock ticks once per sampled
//! access, so its times are as dense as the exact engine's: sampling thins
//! the clock exactly as it thins the block set. The analyzer therefore
//! holds `O(budget)` tracked blocks (or `O(M / inv)` in fixed mode) plus
//! one bit per sampled access — less than the in-memory trace buffer it
//! replays, which spends at least a byte per access.

use crate::analyzer::{
    collect_patterns, decode_scope_stack, decode_sink_patterns, encode_scope_stack,
    encode_sink_patterns, SinkPatterns,
};
use crate::patterns::ReuseProfile;
use crate::scopestack::ScopeStack;
use crate::snapshot::{Dec, Enc, SnapshotError};
use crate::timebits::TimeBits;
use crate::window::Window;
use reuselens_ir::{Program, RefId, ScopeId};
use reuselens_trace::TraceSink;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// How (and whether) to sample the block stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingConfig {
    /// Track every block — the bit-identical pre-sampling pipeline.
    #[default]
    Exact,
    /// Sample blocks at a fixed rate `1/inv`.
    Fixed {
        /// Integer inverse sampling rate (`1` = every block).
        inv: u64,
    },
    /// Start at rate 1 and halve the rate whenever the tracked-block set
    /// would exceed `budget`, keeping memory `O(budget)`.
    Adaptive {
        /// Maximum number of concurrently tracked blocks.
        budget: u64,
    },
}

impl SamplingConfig {
    /// Exact (unsampled) analysis — the default.
    pub fn exact() -> SamplingConfig {
        SamplingConfig::Exact
    }

    /// Fixed-rate sampling at the given rate in `(0, 1]`; the rate is
    /// rounded to the nearest integer inverse (`0.01` → `inv = 100`).
    /// Rates `>= 1.0` sample every block (but still run the sampled
    /// engine; use [`SamplingConfig::exact`] for the exact pipeline).
    pub fn fixed(rate: f64) -> SamplingConfig {
        let rate = if rate.is_finite() && rate > 0.0 {
            rate.min(1.0)
        } else {
            1.0
        };
        SamplingConfig::Fixed {
            inv: ((1.0 / rate).round() as u64).max(1),
        }
    }

    /// Adaptive sampling holding at most `budget` tracked blocks
    /// (minimum 1).
    pub fn adaptive(budget: u64) -> SamplingConfig {
        SamplingConfig::Adaptive {
            budget: budget.max(1),
        }
    }

    /// True for the exact (unsampled) configuration.
    pub fn is_exact(&self) -> bool {
        matches!(self, SamplingConfig::Exact)
    }

    /// The one check on a caller's sampling request, shared by the CLI
    /// and the daemon: a fixed `rate`, an adaptive `budget`, or neither
    /// (exact). The rate must be finite and in `(0, 1]`, the budget at
    /// least 1, and the two exclude each other.
    pub fn checked(
        rate: Option<f64>,
        budget: Option<u64>,
    ) -> Result<SamplingConfig, SamplingError> {
        match (rate, budget) {
            (None, None) => Ok(SamplingConfig::Exact),
            (Some(_), Some(_)) => Err(SamplingError::RateWithBudget),
            (Some(rate), None) if rate > 0.0 && rate <= 1.0 => Ok(SamplingConfig::fixed(rate)),
            (Some(_), None) => Err(SamplingError::RateOutOfRange),
            (None, Some(0)) => Err(SamplingError::ZeroBudget),
            (None, Some(budget)) => Ok(SamplingConfig::adaptive(budget)),
        }
    }
}

/// Why [`SamplingConfig::checked`] refused a sampling request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingError {
    /// The rate is not a finite number in `(0, 1]`.
    RateOutOfRange,
    /// The adaptive budget is 0.
    ZeroBudget,
    /// A rate and a budget were both given.
    RateWithBudget,
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SamplingError::RateOutOfRange => "the sampling rate must be a number in (0, 1]",
            SamplingError::ZeroBudget => "the sampling budget must be positive",
            SamplingError::RateWithBudget => "a sampling rate and a budget exclude each other",
        })
    }
}

impl Error for SamplingError {}

/// What the sampled analyzer actually did, attached to every sampled
/// [`ReuseProfile`] and reconciled against the observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingInfo {
    /// Inverse sampling rate in force at the end of the run.
    pub inv: u64,
    /// Distinct blocks that were ever sampled (including later-evicted
    /// ones) — the unscaled count of blocks the analyzer touched.
    pub blocks_sampled: u64,
    /// Tracked blocks evicted by adaptive rate drops (0 in fixed mode).
    pub blocks_evicted: u64,
    /// Number of times the adaptive policy halved the rate.
    pub rate_drops: u64,
}

impl SamplingInfo {
    /// The effective sampling rate `1/inv`.
    pub fn rate(&self) -> f64 {
        1.0 / self.inv as f64
    }
}

/// Fixed 64-bit block-number mixer (the SplitMix64 finalizer). A block's
/// sampling fate must be a pure function of its number so the sampled set
/// is consistent across the whole run and across rate drops.
#[inline]
pub(crate) fn spatial_hash(block: u64) -> u64 {
    let mut z = block.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes the tracked-block table's keys with [`spatial_hash`] in place
/// of SipHash: one mix per lookup, and the mixer is a bijection, so
/// distinct tracked blocks never share a hash. The keys come from traces
/// this program captured; a trace crafted so that many sampled blocks
/// collide in the table's bucket bits could slow a replay, which is no
/// more than such a trace's length already can.
#[derive(Debug, Default, Clone, Copy)]
struct SpatialHasher(u64);

impl Hasher for SpatialHasher {
    /// A tracked block's hash is at most `u64::MAX / inv`, so its top
    /// bits, where the table keeps its probe tags, are nearly all zero;
    /// the rotation puts uniform middle bits there instead.
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = spatial_hash(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, block: u64) {
        self.0 = spatial_hash(self.0 ^ block);
    }
}

type TrackedTable = HashMap<u64, Tracked, BuildHasherDefault<SpatialHasher>>;

/// A tracked (sampled) block's last access.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    time: u64,
    ref_id: u32,
}

/// Constant-space sampled counterpart of
/// [`ReuseAnalyzer`](crate::ReuseAnalyzer).
///
/// Implements [`TraceSink`], so it drops into the same capture/replay
/// pipeline; [`finish`](SampledAnalyzer::finish) produces a
/// [`ReuseProfile`] whose histogram and cold counts are scaled estimates
/// and whose `sampling` field records the run's [`SamplingInfo`].
///
/// # Examples
///
/// ```
/// use reuselens_core::{ReuseAnalyzer, SampledAnalyzer, SamplingConfig};
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
/// let mut full = SampledAnalyzer::new(&prog, 64, SamplingConfig::fixed(1.0));
/// Executor::new(&prog).run(&mut full)?;
/// let mut exact = ReuseAnalyzer::new(&prog, 64);
/// Executor::new(&prog).run(&mut exact)?;
/// let (full, exact) = (full.finish(), exact.finish());
/// assert_eq!(full.patterns, exact.patterns);
/// assert_eq!(full.sampling.unwrap().inv, 1);
///
/// // Rate 0.1 tracks ~10% of the blocks but estimates the same totals.
/// let mut tenth = SampledAnalyzer::new(&prog, 64, SamplingConfig::fixed(0.1));
/// Executor::new(&prog).run(&mut tenth)?;
/// let tenth = tenth.finish();
/// assert!(tenth.sampling.unwrap().blocks_sampled < exact.distinct_blocks);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
#[derive(Debug)]
pub struct SampledAnalyzer {
    block_shift: u32,
    /// Logical clock over *sampled* accesses only.
    clock: u64,
    /// True total of all accesses observed, sampled or not.
    total_accesses: u64,
    /// Current integer inverse sampling rate.
    inv: u64,
    /// Blocks with `hash <= threshold` are sampled; always
    /// `u64::MAX / inv`.
    threshold: u64,
    /// Adaptive tracked-block budget (`u64::MAX` in fixed mode).
    budget: u64,
    /// Per reference, the last block it found unsampled, so a repeat
    /// costs one compare. The threshold only ever falls, so the block
    /// stays unsampled across rate drops. Derived state: snapshots do not
    /// carry it.
    unsampled: Vec<Option<u64>>,
    /// The most recently used tracked blocks, as in the exact engine;
    /// boxed, since its arrays take about 1 KiB.
    window: Box<Window>,
    /// The tracked blocks that left the window.
    table: TrackedTable,
    /// Last-access times of the tracked blocks in `table`.
    times: TimeBits,
    stack: ScopeStack,
    per_sink: Vec<SinkPatterns>,
    cold: Vec<u64>,
    ref_scopes: Vec<ScopeId>,
    /// Scaled estimate of the distinct-block footprint (Σ inv at first
    /// touch, SHARDS-style).
    est_distinct: u64,
    blocks_sampled: u64,
    blocks_evicted: u64,
    rate_drops: u64,
}

impl SampledAnalyzer {
    /// Creates a sampled analyzer at the given block size (must be a power
    /// of two). [`SamplingConfig::Exact`] is accepted and behaves like
    /// `fixed(1.0)`; callers wanting the exact engine should construct a
    /// [`ReuseAnalyzer`](crate::ReuseAnalyzer) instead.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn new(program: &Program, block_size: u64, config: SamplingConfig) -> SampledAnalyzer {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two"
        );
        let (inv, budget) = match config {
            SamplingConfig::Exact => (1, u64::MAX),
            SamplingConfig::Fixed { inv } => (inv.max(1), u64::MAX),
            SamplingConfig::Adaptive { budget } => (1, budget.max(1)),
        };
        let nrefs = program.references().len();
        SampledAnalyzer {
            block_shift: block_size.trailing_zeros(),
            clock: 0,
            total_accesses: 0,
            inv,
            threshold: u64::MAX / inv,
            budget,
            unsampled: vec![None; nrefs],
            window: Box::new(Window::new()),
            table: TrackedTable::default(),
            times: TimeBits::new(),
            stack: ScopeStack::new(),
            per_sink: (0..nrefs).map(|_| SinkPatterns::new(inv)).collect(),
            cold: vec![0; nrefs],
            ref_scopes: program.references().iter().map(|r| r.scope()).collect(),
            est_distinct: 0,
            blocks_sampled: 0,
            blocks_evicted: 0,
            rate_drops: 0,
        }
    }

    /// Block size this analyzer measures at.
    pub fn block_size(&self) -> u64 {
        1 << self.block_shift
    }

    /// Accesses observed so far (sampled or not).
    pub fn accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Blocks currently tracked (bounded by the budget in adaptive mode),
    /// in the window or the table.
    pub fn tracked_blocks(&self) -> u64 {
        (self.window.len + self.table.len()) as u64
    }

    /// Live blocks tracked for distance counting: order-statistic set
    /// entries plus window entries (one per tracked block).
    pub fn tree_nodes(&self) -> usize {
        self.times.len() + self.window.len
    }

    /// Sampling statistics as they stand now (the run's final
    /// [`SamplingInfo`] once the stream ends).
    pub fn sampling_info(&self) -> SamplingInfo {
        SamplingInfo {
            inv: self.inv,
            blocks_sampled: self.blocks_sampled,
            blocks_evicted: self.blocks_evicted,
            rate_drops: self.rate_drops,
        }
    }

    /// Halves the sampling rate until the tracked set fits the budget,
    /// evicting every tracked block whose hash falls above the new
    /// threshold (drop-highest-threshold), from the window (the survivors
    /// keep their order) and from the table. The dense pattern counts fold
    /// at the old rate first.
    fn drop_rate(&mut self) {
        while self.tracked_blocks() > self.budget {
            // `inv` doubling cannot overflow in practice: the budget is at
            // least 1, so inv doubles at most 64 times before the
            // threshold reaches 0 and no new block can enter.
            self.inv = self.inv.saturating_mul(2);
            self.threshold = u64::MAX / self.inv;
            self.rate_drops += 1;
            for sp in &mut self.per_sink {
                sp.rescale(self.inv);
            }
            let threshold = self.threshold;
            let sampled = |block: u64| spatial_hash(block) <= threshold;
            let mut evicted = self.window.retain(sampled);
            let times = &mut self.times;
            self.table.retain(|&block, t| {
                let keep = sampled(block);
                if !keep {
                    let removed = times.remove(t.time);
                    debug_assert!(removed, "every tracked block has a last-access time");
                    evicted += 1;
                }
                keep
            });
            self.blocks_evicted += evicted as u64;
        }
    }

    /// Serializes the full mid-stream sampling state — clock, rate, the
    /// books, every tracked block, scopes, patterns, cold counts. The
    /// tracked set, window and table alike, is written sorted by block
    /// number, so the encoding is independent of `HashMap` iteration order
    /// and of where the window's edge falls; the hash threshold and the
    /// order-statistic set are derived state and rebuilt on decode.
    pub(crate) fn snapshot_encode(&self, e: &mut Enc) {
        e.u64(self.clock);
        e.u64(self.total_accesses);
        e.u64(self.inv);
        e.u64(self.budget);
        e.u64(self.est_distinct);
        e.u64(self.blocks_sampled);
        e.u64(self.blocks_evicted);
        e.u64(self.rate_drops);
        let mut rows: Vec<(u64, u64, u32)> = self
            .table
            .iter()
            .map(|(&block, t)| (block, t.time, t.ref_id))
            .chain(self.window.rows())
            .collect();
        rows.sort_unstable_by_key(|r| r.0);
        e.u64(rows.len() as u64);
        for (block, time, ref_id) in rows {
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
    }

    /// Rebuilds a mid-stream sampled analyzer from
    /// [`snapshot_encode`](Self::snapshot_encode) output. Validates the
    /// access count against the snapshot header's `accesses_replayed`,
    /// the rate, the books balance (`sampled == tracked + evicted`), and —
    /// via the recomputed spatial hash — that every tracked block really
    /// belongs to the sample at the recorded rate; a typed
    /// [`SnapshotError`] on any violation, never a panic. Every tracked
    /// block goes into the table, behind an empty window, which the next
    /// accesses fill.
    ///
    /// The order-statistic bitmap spans the tracked times, so the clock
    /// that bounds them is checked against `accesses_replayed` (which the
    /// caller has verified against the trace) before anything is built.
    pub(crate) fn snapshot_decode(
        program: &Program,
        block_size: u64,
        accesses_replayed: u64,
        d: &mut Dec<'_>,
    ) -> Result<SampledAnalyzer, SnapshotError> {
        debug_assert!(block_size.is_power_of_two());
        let nrefs = program.references().len();
        let clock = d.u64()?;
        let at = d.offset();
        let total_accesses = d.u64()?;
        if total_accesses != accesses_replayed {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!(
                    "sampled analyzer counts {total_accesses} accesses, \
                     the header records {accesses_replayed}"
                ),
            });
        }
        if clock > total_accesses {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!("sampled clock {clock} exceeds {total_accesses} total accesses"),
            });
        }
        let at = d.offset();
        let inv = d.u64()?;
        if inv == 0 {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "inverse sampling rate is zero".to_string(),
            });
        }
        let threshold = u64::MAX / inv;
        let budget = d.u64()?;
        let est_distinct = d.u64()?;
        let blocks_sampled = d.u64()?;
        let blocks_evicted = d.u64()?;
        let rate_drops = d.u64()?;
        let at = d.offset();
        let n = d.len(20)?;
        if blocks_sampled != n as u64 + blocks_evicted {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!(
                    "sampling books do not balance: {blocks_sampled} sampled != \
                     {n} tracked + {blocks_evicted} evicted"
                ),
            });
        }
        let mut table = TrackedTable::with_capacity_and_hasher(n, Default::default());
        let mut tracked_times = Vec::with_capacity(n);
        let mut prev_block = None;
        for _ in 0..n {
            let at = d.offset();
            let block = d.u64()?;
            let time = d.u64()?;
            let ref_id = d.u32()?;
            if prev_block.is_some_and(|p| block <= p)
                || time == 0
                || time > clock
                || ref_id as usize >= nrefs
                || spatial_hash(block) > threshold
            {
                return Err(SnapshotError::Corrupt {
                    offset: at,
                    what: format!(
                        "tracked block (block {block}, time {time}, ref {ref_id}) \
                         violates sampling invariants at clock {clock}, inv {inv}"
                    ),
                });
            }
            prev_block = Some(block);
            tracked_times.push((time, at));
            table.insert(block, Tracked { time, ref_id });
        }
        // Ascending insertion grows the bitmap at its top end only.
        tracked_times.sort_unstable();
        let mut times = TimeBits::new();
        for &(time, at) in &tracked_times {
            if !times.insert(time) {
                return Err(SnapshotError::Corrupt {
                    offset: at,
                    what: format!("duplicate last-access time {time} in the tracked set"),
                });
            }
        }
        let stack = decode_scope_stack(d, clock)?;
        let per_sink = decode_sink_patterns(d, nrefs, inv)?;
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
        Ok(SampledAnalyzer {
            block_shift: block_size.trailing_zeros(),
            clock,
            total_accesses,
            inv,
            threshold,
            budget,
            unsampled: vec![None; nrefs],
            window: Box::new(Window::new()),
            table,
            times,
            stack,
            per_sink,
            cold,
            ref_scopes: program.references().iter().map(|r| r.scope()).collect(),
            est_distinct,
            blocks_sampled,
            blocks_evicted,
            rate_drops,
        })
    }

    /// Consumes the analyzer and produces the scaled profile.
    pub fn finish(self) -> ReuseProfile {
        let info = self.sampling_info();
        ReuseProfile {
            block_size: 1 << self.block_shift,
            patterns: collect_patterns(self.per_sink),
            cold: self.cold,
            total_accesses: self.total_accesses,
            distinct_blocks: self.est_distinct,
            sampling: Some(info),
        }
    }
}

impl SampledAnalyzer {
    /// Samples one access (the total is counted by the caller). An
    /// unsampled block costs one compare when it repeats its reference's
    /// last one, and one hash and compare otherwise; only sampled blocks
    /// touch the analyzer's state. Always inlined, like `track`: with a
    /// plain `#[inline]` the batch loop paid a call per access.
    #[inline(always)]
    fn sample(&mut self, r: u32, addr: u64) {
        let block = addr >> self.block_shift;
        let memo = &mut self.unsampled[r as usize];
        if *memo == Some(block) {
            return;
        }
        if spatial_hash(block) > self.threshold {
            *memo = Some(block);
            return;
        }
        self.track(r, block);
    }

    /// Records one sampled access to `block`: the exact engine's window
    /// hit path on the sampled clock, whose distances count *sampled*
    /// distinct blocks; the patterns scale each record by `inv`.
    #[inline(always)]
    fn track(&mut self, r: u32, block: u64) {
        self.clock += 1;
        let now = self.clock;
        let Some((distance, time, ref_id)) = self.window.touch(block, now, r) else {
            return self.track_past_window(r, block, now);
        };
        let carrier = self.stack.carrier(time);
        let source = self.ref_scopes[ref_id as usize];
        self.per_sink[r as usize].record(source, carrier, distance);
    }

    /// The table path for a sampled access that missed the window. Every
    /// window time is greater than every table time, so a table hit's
    /// distance is the window's length plus the table times above the
    /// previous access. The block moves into the window; when that
    /// spills the window's oldest entry, the entry takes the block's place
    /// in the table and in the time set, and otherwise (a window short of
    /// full, after a rate drop or a snapshot decode) the block's old time
    /// just leaves the set.
    #[cold]
    #[inline(never)]
    fn track_past_window(&mut self, r: u32, block: u64, now: u64) {
        let inv = self.inv;
        let sink = r as usize;
        let prev = self.table.remove(&block);
        let held = self.window.len as u64;
        let spilled_time = self.window.push(block, now, r).map(|(old, time, ref_id)| {
            self.table.insert(old, Tracked { time, ref_id });
            time
        });
        let Some(prev) = prev else {
            self.cold[sink] += inv;
            self.est_distinct += inv;
            self.blocks_sampled += 1;
            if let Some(time) = spilled_time {
                self.times.insert(time);
            }
            if self.tracked_blocks() > self.budget {
                self.drop_rate();
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
        let carrier = self.stack.carrier(prev.time);
        let source = self.ref_scopes[prev.ref_id as usize];
        self.per_sink[sink].record(source, carrier, held + count);
    }
}

impl TraceSink for SampledAnalyzer {
    fn access(&mut self, r: RefId, addr: u64) {
        self.total_accesses += 1;
        self.sample(r.0, addr);
    }

    fn access_soa(&mut self, batch: &reuselens_trace::SoaBatch) {
        // Sampling keys on the ref and address lanes: walk them in step.
        self.total_accesses += batch.len() as u64;
        for (&r, &addr) in batch.refs.iter().zip(&batch.addrs) {
            self.sample(r, addr);
        }
    }

    fn enter(&mut self, scope: ScopeId) {
        self.stack.enter(scope, self.clock);
    }

    fn exit(&mut self, scope: ScopeId) {
        self.stack.exit(scope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::ReuseAnalyzer;
    use crate::histogram::Histogram;
    use crate::patterns::ReusePattern;
    use crate::window::WINDOW;
    use reuselens_ir::ProgramBuilder;
    use reuselens_trace::{Event, Executor};
    use std::collections::BTreeMap;

    #[test]
    fn checked_enforces_each_rule() {
        let cases = [
            (None, None, Ok(SamplingConfig::Exact)),
            (Some(f64::NAN), None, Err(SamplingError::RateOutOfRange)),
            (
                Some(f64::INFINITY),
                None,
                Err(SamplingError::RateOutOfRange),
            ),
            (Some(0.0), None, Err(SamplingError::RateOutOfRange)),
            (Some(1.0), None, Ok(SamplingConfig::Fixed { inv: 1 })),
            (Some(0.01), None, Ok(SamplingConfig::Fixed { inv: 100 })),
            (Some(1.5), None, Err(SamplingError::RateOutOfRange)),
            (None, Some(0), Err(SamplingError::ZeroBudget)),
            (
                None,
                Some(4096),
                Ok(SamplingConfig::Adaptive { budget: 4096 }),
            ),
            (Some(0.5), Some(4096), Err(SamplingError::RateWithBudget)),
            (Some(f64::NAN), Some(0), Err(SamplingError::RateWithBudget)),
        ];
        for (rate, budget, want) in cases {
            assert_eq!(
                SamplingConfig::checked(rate, budget),
                want,
                "{rate:?}/{budget:?}"
            );
        }
    }

    fn sweep_program(elems: u64, sweeps: i64) -> reuselens_ir::Program {
        let mut p = ProgramBuilder::new("sweep");
        let a = p.array("a", 8, &[elems]);
        p.routine("main", |r| {
            r.for_("t", 0, sweeps - 1, |r, _| {
                r.for_("i", 0, (elems - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        p.finish()
    }

    fn run_sampled(prog: &reuselens_ir::Program, config: SamplingConfig) -> ReuseProfile {
        let mut an = SampledAnalyzer::new(prog, 64, config);
        Executor::new(prog).run(&mut an).unwrap();
        an.finish()
    }

    fn run_exact(prog: &reuselens_ir::Program) -> ReuseProfile {
        let mut an = ReuseAnalyzer::new(prog, 64);
        Executor::new(prog).run(&mut an).unwrap();
        an.finish()
    }

    /// At rate 1.0 every block is sampled, so every field the exact
    /// analyzer measures must come back identical.
    #[test]
    fn rate_one_matches_exact_bit_for_bit() {
        let prog = sweep_program(2048, 3);
        let exact = run_exact(&prog);
        let sampled = run_sampled(&prog, SamplingConfig::fixed(1.0));
        assert_eq!(sampled.patterns, exact.patterns);
        assert_eq!(sampled.cold, exact.cold);
        assert_eq!(sampled.total_accesses, exact.total_accesses);
        assert_eq!(sampled.distinct_blocks, exact.distinct_blocks);
        let info = sampled.sampling.unwrap();
        assert_eq!(info.inv, 1);
        assert_eq!(info.blocks_sampled, exact.distinct_blocks);
        assert_eq!(info.blocks_evicted, 0);
        assert_eq!(info.rate_drops, 0);
        assert!(exact.sampling.is_none());
    }

    /// Fixed 10% sampling: scaled totals land near the exact totals while
    /// the analyzer tracks only ~10% of the blocks.
    #[test]
    fn fixed_rate_estimates_totals() {
        let prog = sweep_program(8192, 3);
        let exact = run_exact(&prog);
        let sampled = run_sampled(&prog, SamplingConfig::fixed(0.1));
        let info = sampled.sampling.unwrap();
        assert_eq!(info.inv, 10);
        // ~10% of 1024 lines tracked; generous 3x band on the binomial.
        assert!(info.blocks_sampled < exact.distinct_blocks / 3);
        // Scaled estimates within 30% of truth on this footprint.
        let est = sampled.distinct_blocks as f64;
        let truth = exact.distinct_blocks as f64;
        assert!((est - truth).abs() / truth < 0.3, "est {est} truth {truth}");
        let est = sampled.total_reuses() as f64;
        let truth = exact.total_reuses() as f64;
        assert!((est - truth).abs() / truth < 0.3, "est {est} truth {truth}");
        // Every access was still counted, even unsampled ones.
        assert_eq!(sampled.total_accesses, exact.total_accesses);
    }

    /// The spatial hash makes sampling consistent: the same rate always
    /// picks the same blocks, so two runs agree exactly.
    #[test]
    fn sampling_is_deterministic() {
        let prog = sweep_program(4096, 2);
        let a = run_sampled(&prog, SamplingConfig::fixed(0.1));
        let b = run_sampled(&prog, SamplingConfig::fixed(0.1));
        assert_eq!(a, b);
    }

    /// Adaptive mode keeps the tracked set at the budget by halving the
    /// rate, and the evictions reconcile: sampled = tracked + evicted.
    #[test]
    fn adaptive_mode_holds_budget() {
        let prog = sweep_program(16384, 2); // 2048 lines
        let budget = 64u64;
        let mut an = SampledAnalyzer::new(&prog, 64, SamplingConfig::adaptive(budget));
        Executor::new(&prog).run(&mut an).unwrap();
        assert!(an.tracked_blocks() <= budget);
        assert_eq!(an.tree_nodes() as u64, an.tracked_blocks());
        let info = an.sampling_info();
        assert!(info.rate_drops > 0);
        assert!(info.inv > 1);
        assert_eq!(
            info.blocks_sampled,
            an.tracked_blocks() + info.blocks_evicted
        );
        let profile = an.finish();
        // The footprint estimate stays in the right ballpark even across
        // rate drops (each first touch is scaled by the inv of its time).
        let truth = 2048.0;
        let est = profile.distinct_blocks as f64;
        assert!((est - truth).abs() / truth < 0.5, "est {est} truth {truth}");
    }

    /// A fixed-rate run never drops rate or evicts.
    #[test]
    fn fixed_mode_never_evicts() {
        let prog = sweep_program(16384, 2);
        let sampled = run_sampled(&prog, SamplingConfig::fixed(0.01));
        let info = sampled.sampling.unwrap();
        assert_eq!(info.inv, 100);
        assert_eq!(info.blocks_evicted, 0);
        assert_eq!(info.rate_drops, 0);
    }

    /// The unsampled-block memo never changes a measurement, even when
    /// it outlives an adaptive rate drop: a run that keeps it matches one
    /// that clears it before every access, and the run does reuse a
    /// memoized block after a drop.
    #[test]
    fn unsampled_memo_survives_adaptive_rate_drops() {
        let mut p = ProgramBuilder::new("pair");
        let a = p.array("a", 8, &[8192]);
        let b = p.array("b", 8, &[8192]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("i", 0, 8191, |r, i| {
                    r.load(a, vec![i.into()]);
                    r.load(b, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut events = reuselens_trace::VecSink::new();
        Executor::new(&prog).run(&mut events).unwrap();
        let config = SamplingConfig::adaptive(32);
        let mut kept = SampledAnalyzer::new(&prog, 64, config);
        let mut cleared = SampledAnalyzer::new(&prog, 64, config);
        let (mut drops_at_memo, mut crossed) = (vec![0; prog.references().len()], false);
        for event in events.events {
            match event {
                reuselens_trace::Event::Access { r, addr } => {
                    let memo = kept.unsampled[r.index()];
                    crossed |=
                        memo == Some(addr >> 6) && kept.rate_drops > drops_at_memo[r.index()];
                    kept.access(r, addr);
                    if kept.unsampled[r.index()] != memo {
                        drops_at_memo[r.index()] = kept.rate_drops;
                    }
                    cleared.unsampled.fill(None);
                    cleared.access(r, addr);
                }
                reuselens_trace::Event::Enter(s) => {
                    kept.enter(s);
                    cleared.enter(s);
                }
                reuselens_trace::Event::Exit(s) => {
                    kept.exit(s);
                    cleared.exit(s);
                }
            }
        }
        assert!(crossed, "no memoized block was reused after a rate drop");
        assert!(kept.sampling_info().rate_drops > 1);
        assert_eq!(kept.finish(), cleared.finish());
    }

    /// A random event stream over `prog`'s references and scopes: accesses
    /// in strided, uniform and clustered bursts over `blocks` 64 B blocks,
    /// with scopes entered and exited (well nested) between them.
    fn random_events(prog: &Program, seed: u64, blocks: u64) -> Vec<Event> {
        let mut rng = reuselens_prng::SplitMix64::seed_from_u64(seed);
        let (nrefs, nscopes) = (prog.references().len() as u64, prog.scopes().len() as u64);
        let span = blocks * 64;
        let (mut events, mut open) = (Vec::new(), Vec::new());
        let mut addr = 0;
        for _ in 0..rng.gen_range(500..3000) {
            match rng.gen_range(0..40) {
                0 if open.len() < 4 => {
                    let scope = ScopeId(rng.gen_range(0..nscopes) as u32);
                    open.push(scope);
                    events.push(Event::Enter(scope));
                }
                1 if !open.is_empty() => events.push(Event::Exit(open.pop().unwrap())),
                k => {
                    addr = match k % 3 {
                        0 => (addr + 8) % span,
                        1 => rng.gen_range(0..span),
                        _ => (addr + rng.gen_range(0..256)) % span,
                    };
                    let r = RefId(rng.gen_range(0..nrefs) as u32);
                    events.push(Event::Access { r, addr });
                }
            }
        }
        events.extend(open.into_iter().rev().map(Event::Exit));
        events
    }

    /// A seeded scope-rich program: a time loop around two loop nests
    /// (up to three deep) of affine accesses over two to four arrays, and
    /// a helper routine the nests may call.
    fn scope_rich_program(seed: u64) -> Program {
        use reuselens_ir::{ArrayId, BodyBuilder, Expr, RoutineId, VarId};
        fn nest(
            r: &mut BodyBuilder<'_>,
            rng: &mut reuselens_prng::SplitMix64,
            vars: &mut Vec<VarId>,
            arrays: &[(ArrayId, i64)],
            helper: RoutineId,
        ) {
            for _ in 0..rng.gen_range(1..4) {
                match rng.gen_range(0..8) {
                    0..=2 if vars.len() < 4 => {
                        let trips = rng.gen_range_i64(2..7);
                        r.for_(&format!("l{}", vars.len()), 0, trips - 1, |r, v| {
                            vars.push(v);
                            nest(r, rng, vars, arrays, helper);
                            vars.pop();
                        });
                    }
                    3 => r.call(helper),
                    _ => {
                        let (array, len) = arrays[rng.gen_range(0..arrays.len() as u64) as usize];
                        let mut index = Expr::c(rng.gen_range_i64(0..64));
                        for &v in vars.iter() {
                            index = index + Expr::var(v) * rng.gen_range_i64(0..9);
                        }
                        let index = vec![index.rem(len)];
                        if rng.gen_f64() < 0.3 {
                            r.store(array, index);
                        } else {
                            r.load(array, index);
                        }
                    }
                }
            }
        }
        let mut rng = reuselens_prng::SplitMix64::seed_from_u64(seed);
        let mut p = ProgramBuilder::new("scope_rich");
        let arrays: Vec<(ArrayId, i64)> = (0..rng.gen_range(2..5))
            .map(|k| {
                let len = rng.gen_range(8..400);
                (p.array(format!("a{k}"), 8, &[len]), len as i64)
            })
            .collect();
        let helper = p.declare_routine("helper");
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, t| {
                for _ in 0..2 {
                    nest(r, &mut rng, &mut vec![t], &arrays, helper);
                }
            });
        });
        let (first, len) = arrays[0];
        p.define_routine(helper, |r| {
            r.for_("h", 0, 3, |r, h| {
                r.load(first, vec![(Expr::var(h) * 3).rem(len)]);
            });
        });
        p.finish()
    }

    /// Runs `events` through a sampled analyzer at `1/inv` and an exact
    /// one fed only the accesses whose block passes the sampling hash,
    /// then checks that the sampled profile is the exact one scaled by
    /// `inv`: each distance and count, the cold counts and the distinct
    /// blocks. Returns whether some reuse reached past the window.
    fn assert_scaled_sub_stream(prog: &Program, events: &[Event], grain: u64, inv: u64) -> bool {
        let threshold = u64::MAX / inv;
        let mut sampled = SampledAnalyzer::new(prog, grain, SamplingConfig::Fixed { inv });
        let mut sub = ReuseAnalyzer::new(prog, grain);
        for &event in events {
            match event {
                Event::Access { r, addr } => {
                    sampled.access(r, addr);
                    if spatial_hash(addr / grain) <= threshold {
                        sub.access(r, addr);
                    }
                }
                Event::Enter(s) => {
                    sampled.enter(s);
                    sub.enter(s);
                }
                Event::Exit(s) => {
                    sampled.exit(s);
                    sub.exit(s);
                }
            }
        }
        let (got, sub) = (sampled.finish(), sub.finish());
        let scaled: Vec<ReusePattern> = sub
            .patterns
            .iter()
            .map(|p| {
                let mut histogram = Histogram::new();
                for (lo, hi, count) in p.histogram.iter() {
                    assert_eq!(hi, lo + 1, "distance {lo} shares a bin: shrink the case");
                    histogram.add_n(lo * inv, count * inv);
                }
                ReusePattern {
                    key: p.key,
                    histogram,
                }
            })
            .collect();
        assert_eq!(got.patterns, scaled, "inv {inv}: patterns");
        let cold: Vec<u64> = sub.cold.iter().map(|c| c * inv).collect();
        assert_eq!(got.cold, cold, "inv {inv}: cold counts");
        assert_eq!(got.distinct_blocks, sub.distinct_blocks * inv);
        assert_eq!(got.sampling.unwrap().blocks_sampled, sub.distinct_blocks);
        let past_window = Some(WINDOW as u64 * inv);
        got.patterns
            .iter()
            .any(|p| p.histogram.max_distance() >= past_window)
    }

    /// The sampled engine is the exact engine on the sampled sub-stream,
    /// scaled: at fixed rates 1/2 and 1/10, on random event streams and
    /// on scope-rich programs, whose distances stay in unit bins.
    #[test]
    fn sampled_profile_is_the_scaled_exact_profile_of_the_sub_stream() {
        let prog = sweep_program(64, 2);
        let mut rich_past_window = 0;
        for inv in [2, 10] {
            let mut past_window = 0;
            for seed in 0..12 {
                let events = random_events(&prog, 0x5a3d_0000 + seed, 100 * inv);
                past_window += usize::from(assert_scaled_sub_stream(&prog, &events, 64, inv));
            }
            assert!(
                past_window >= 6,
                "inv {inv}: {past_window} random cases spill"
            );
            // Element-sized blocks, so that some programs spill the window.
            for seed in 0..12 {
                let prog = scope_rich_program(0x5c09_0000 + seed);
                let mut events = reuselens_trace::VecSink::new();
                Executor::new(&prog).run(&mut events).unwrap();
                rich_past_window +=
                    usize::from(assert_scaled_sub_stream(&prog, &events.events, 8, inv));
            }
        }
        assert!(
            rich_past_window >= 3,
            "{rich_past_window} scope-rich cases spill"
        );
    }

    /// An adaptive run whose rate drops evict window entries while the
    /// table holds blocks: after every access the tracked count equals
    /// the order-statistic count and a model of the tracked set, and a
    /// snapshot taken with the window short of full is a byte fixpoint
    /// whose resumed run ends with the uninterrupted profile.
    #[test]
    fn rate_drops_leave_a_short_window_that_snapshots_and_resumes() {
        let prog = sweep_program(64, 2);
        // Every lap sweeps 200 hot lines, each followed by a line never
        // seen before: the tracked set keeps growing, so the rate keeps
        // dropping while hot lines are reused from the table.
        let (hot, laps) = (200, 16);
        let mut events = Vec::new();
        for lap in 0..laps {
            for line in 0..hot {
                for block in [line, hot * (lap + 1) + line] {
                    events.push(Event::Access {
                        r: RefId(0),
                        addr: block * 64,
                    });
                }
            }
        }
        let budget = 96;
        let mut an = SampledAnalyzer::new(&prog, 64, SamplingConfig::adaptive(budget));
        let (mut model, mut inv) = (BTreeMap::new(), 1u64);
        let mut snapshot = None;
        for (k, &event) in events.iter().enumerate() {
            let Event::Access { r, addr } = event else {
                unreachable!()
            };
            let drops = an.rate_drops;
            an.access(r, addr);
            let block = addr >> 6;
            if spatial_hash(block) <= u64::MAX / inv {
                model.insert(block, ());
                while model.len() as u64 > budget {
                    inv *= 2;
                    model.retain(|&b, _| spatial_hash(b) <= u64::MAX / inv);
                }
            }
            assert_eq!(an.inv, inv, "access {k}");
            assert_eq!(an.tracked_blocks(), model.len() as u64, "access {k}");
            assert_eq!(an.tree_nodes() as u64, an.tracked_blocks(), "access {k}");
            // After the first lap, so that hot lines are being reused.
            let short = an.window.len < WINDOW && !an.table.is_empty();
            if snapshot.is_none() && k >= 2 * hot as usize && an.rate_drops > drops && short {
                let mut enc = Enc::new();
                an.snapshot_encode(&mut enc);
                snapshot = Some((k + 1, enc.buf));
            }
        }
        let (at, bytes) = snapshot.expect("no rate drop left a short window beside the table");
        let decode = |bytes: &[u8]| {
            let mut d = Dec::new(bytes, 0);
            let back = SampledAnalyzer::snapshot_decode(&prog, 64, at as u64, &mut d)
                .expect("decode a snapshot just encoded");
            d.finish().expect("the snapshot is read whole");
            back
        };
        let mut resumed = decode(&bytes);
        let mut again = Enc::new();
        resumed.snapshot_encode(&mut again);
        assert_eq!(again.buf, bytes, "encode/decode is not a fixpoint");
        for &event in &events[at..] {
            let Event::Access { r, addr } = event else {
                unreachable!()
            };
            resumed.access(r, addr);
            assert_eq!(resumed.tree_nodes() as u64, resumed.tracked_blocks());
        }
        assert_eq!(resumed.finish(), an.finish());
    }

    #[test]
    fn config_constructors_clamp() {
        assert_eq!(
            SamplingConfig::fixed(0.01),
            SamplingConfig::Fixed { inv: 100 }
        );
        assert_eq!(SamplingConfig::fixed(1.0), SamplingConfig::Fixed { inv: 1 });
        assert_eq!(SamplingConfig::fixed(7.0), SamplingConfig::Fixed { inv: 1 });
        assert_eq!(
            SamplingConfig::fixed(f64::NAN),
            SamplingConfig::Fixed { inv: 1 }
        );
        assert_eq!(
            SamplingConfig::fixed(-3.0),
            SamplingConfig::Fixed { inv: 1 }
        );
        assert_eq!(
            SamplingConfig::adaptive(0),
            SamplingConfig::Adaptive { budget: 1 }
        );
        assert!(SamplingConfig::exact().is_exact());
        assert_eq!(SamplingConfig::default(), SamplingConfig::Exact);
        let info = SamplingInfo {
            inv: 100,
            blocks_sampled: 5,
            blocks_evicted: 0,
            rate_drops: 0,
        };
        assert!((info.rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_panics() {
        let prog = sweep_program(16, 1);
        let _ = SampledAnalyzer::new(&prog, 48, SamplingConfig::exact());
    }
}
