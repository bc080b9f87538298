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
//! A sampler is a front on the one [`ReuseAnalyzer`](crate::ReuseAnalyzer)
//! ([`ReuseAnalyzer::with_sampling`](crate::ReuseAnalyzer::with_sampling)):
//! an admitted access runs the engine's per-access core on the sampled
//! clock. The recent-access [`Window`] of the last
//! [`WINDOW`](crate::window::WINDOW) tracked blocks answers short reuses
//! by slot, and only blocks that left it live in the table and the
//! [`TimeBits`] set, so a reuse past the window is the window's length
//! plus the set's count. The pattern tables count window-hit distances
//! densely by the *sampled* distance and fold them in at `d * inv` when
//! read, so a sampled reuse inside the window never searches a histogram
//! bin. The sampled profile is thus the exact profile of the
//! hash-selected sub-stream, scaled by `inv`.
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
//! the clock exactly as it thins the block set. The blocks that left the
//! window sit in a hashed [`SparseTable`], not the exact engine's dense
//! [`BlockTable`](crate::BlockTable): that table allocates a 16 KiB leaf
//! for every 1,024 consecutive block numbers any tracked block falls in,
//! and a sample at 1/100 still lands in almost every leaf a run touches.
//! The hashed table costs memory per tracked block only, so the engine
//! holds `O(budget)` tracked blocks (or `O(M / inv)` in fixed mode) plus
//! one bit per sampled access — less than the in-memory trace buffer it
//! replays, which spends at least a byte per access.

use crate::analyzer::SinkPatterns;
use crate::blocktable::BlockEntry;
use crate::snapshot::{Dec, Enc, SnapshotError};
use crate::timebits::TimeBits;
use crate::window::Window;
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

/// What the sampling front actually did, attached to every sampled
/// [`ReuseProfile`](crate::ReuseProfile) and reconciled against the
/// observability counters.
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

/// The sampled engine's table of tracked blocks that left the window,
/// hashed so that its memory follows the tracked set (see the module's
/// Memory section).
#[derive(Debug, Default)]
pub(crate) struct SparseTable(HashMap<u64, BlockEntry, BuildHasherDefault<SpatialHasher>>);

impl SparseTable {
    pub(crate) fn take(&mut self, block: u64) -> Option<BlockEntry> {
        self.0.remove(&block)
    }

    pub(crate) fn set(&mut self, block: u64, time: u64, ref_id: u32) {
        self.0.insert(block, BlockEntry { time, ref_id });
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Visits every entry in ascending block order, as a snapshot writes
    /// them; the map's own order depends on its history.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u64, BlockEntry)) {
        let mut rows: Vec<(u64, BlockEntry)> = self.0.iter().map(|(&b, &e)| (b, e)).collect();
        rows.sort_unstable_by_key(|row| row.0);
        for (block, entry) in rows {
            f(block, entry);
        }
    }
}

/// The sampling front of a sampled [`ReuseAnalyzer`](crate::ReuseAnalyzer):
/// the hash filter, the adaptive eviction and the books they keep.
#[derive(Debug)]
pub(crate) struct Sampler {
    /// Current integer inverse sampling rate.
    pub(crate) inv: u64,
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
    /// Tracked blocks evicted by rate drops.
    pub(crate) evicted: u64,
    rate_drops: u64,
}

impl Sampler {
    /// The front `config` asks for over `nrefs` references, or `None`
    /// for [`SamplingConfig::Exact`].
    pub(crate) fn new(config: SamplingConfig, nrefs: usize) -> Option<Sampler> {
        let (inv, budget) = match config {
            SamplingConfig::Exact => return None,
            SamplingConfig::Fixed { inv } => (inv.max(1), u64::MAX),
            SamplingConfig::Adaptive { budget } => (1, budget.max(1)),
        };
        Some(Sampler {
            inv,
            threshold: u64::MAX / inv,
            budget,
            unsampled: vec![None; nrefs],
            evicted: 0,
            rate_drops: 0,
        })
    }

    /// True when `block` is in the sample at the current rate.
    pub(crate) fn admits(&self, block: u64) -> bool {
        spatial_hash(block) <= self.threshold
    }

    /// The per-access filter: true when reference `r`'s access to
    /// `block` is sampled. An unsampled block costs one compare when it
    /// repeats the reference's last one, and one hash and compare
    /// otherwise. Always inlined: with a plain `#[inline]` the batch loop
    /// paid a call per access.
    #[inline(always)]
    pub(crate) fn admit(&mut self, r: u32, block: u64) -> bool {
        let memo = &mut self.unsampled[r as usize];
        if *memo == Some(block) {
            return false;
        }
        if spatial_hash(block) > self.threshold {
            *memo = Some(block);
            return false;
        }
        true
    }

    /// Halves the sampling rate until the tracked set — the window plus
    /// the table — fits the budget, evicting every tracked block whose
    /// hash falls above the new threshold (drop-highest-threshold), from
    /// the window (the survivors keep their order) and from the table and
    /// its times. The dense pattern counts fold at the old rate first.
    pub(crate) fn fit(
        &mut self,
        window: &mut Window,
        table: &mut SparseTable,
        times: &mut TimeBits,
        per_sink: &mut [SinkPatterns],
    ) {
        while (window.len + table.len()) as u64 > self.budget {
            // `inv` doubling cannot overflow in practice: the budget is at
            // least 1, so inv doubles at most 64 times before the
            // threshold reaches 0 and no new block can enter.
            self.inv = self.inv.saturating_mul(2);
            self.threshold = u64::MAX / self.inv;
            self.rate_drops += 1;
            for sp in per_sink.iter_mut() {
                sp.rescale(self.inv);
            }
            let mut evicted = window.retain(|block| self.admits(block));
            table.0.retain(|&block, entry| {
                let keep = self.admits(block);
                if !keep {
                    let removed = times.remove(entry.time);
                    debug_assert!(removed, "every tracked block has a last-access time");
                    evicted += 1;
                }
                keep
            });
            self.evicted += evicted as u64;
        }
    }

    /// What the sampler did, with the count of blocks ever sampled.
    pub(crate) fn info(&self, blocks_sampled: u64) -> SamplingInfo {
        SamplingInfo {
            inv: self.inv,
            blocks_sampled,
            blocks_evicted: self.evicted,
            rate_drops: self.rate_drops,
        }
    }

    /// Writes the sampler's books: rate, budget, evictions, rate drops.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.u64(self.inv);
        e.u64(self.budget);
        e.u64(self.evicted);
        e.u64(self.rate_drops);
    }

    /// Reads [`encode`](Self::encode)'s books back for `nrefs`
    /// references; a zero rate is corrupt.
    pub(crate) fn decode(d: &mut Dec<'_>, nrefs: usize) -> Result<Sampler, SnapshotError> {
        let at = d.offset();
        let inv = d.u64()?;
        if inv == 0 {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: "inverse sampling rate is zero".to_string(),
            });
        }
        Ok(Sampler {
            inv,
            threshold: u64::MAX / inv,
            budget: d.u64()?,
            unsampled: vec![None; nrefs],
            evicted: d.u64()?,
            rate_drops: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::tests::round_trip;
    use crate::analyzer::ReuseAnalyzer;
    use crate::histogram::Histogram;
    use crate::patterns::{ReusePattern, ReuseProfile};
    use crate::window::WINDOW;
    use reuselens_ir::{Program, ProgramBuilder, RefId, ScopeId};
    use reuselens_trace::{Event, Executor, TraceSink};
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
        let mut an = ReuseAnalyzer::with_sampling(prog, 64, config);
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
        let mut an = ReuseAnalyzer::with_sampling(&prog, 64, SamplingConfig::adaptive(budget));
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
        let mut kept = ReuseAnalyzer::with_sampling(&prog, 64, config);
        let mut cleared = ReuseAnalyzer::with_sampling(&prog, 64, config);
        let (mut drops_at_memo, mut crossed) = (vec![0; prog.references().len()], false);
        for event in events.events {
            match event {
                reuselens_trace::Event::Access { r, addr } => {
                    let memo = kept.sampler().unsampled[r.index()];
                    let drops = kept.sampler().rate_drops;
                    crossed |= memo == Some(addr >> 6) && drops > drops_at_memo[r.index()];
                    kept.access(r, addr);
                    if kept.sampler().unsampled[r.index()] != memo {
                        drops_at_memo[r.index()] = kept.sampler().rate_drops;
                    }
                    cleared.sampler().unsampled.fill(None);
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
        let mut sampled = ReuseAnalyzer::with_sampling(prog, grain, SamplingConfig::Fixed { inv });
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
        let mut an = ReuseAnalyzer::with_sampling(&prog, 64, SamplingConfig::adaptive(budget));
        let (mut model, mut inv) = (BTreeMap::new(), 1u64);
        let mut snapshot = None;
        for (k, &event) in events.iter().enumerate() {
            let Event::Access { r, addr } = event else {
                unreachable!()
            };
            let drops = an.sampling_info().rate_drops;
            an.access(r, addr);
            let block = addr >> 6;
            if spatial_hash(block) <= u64::MAX / inv {
                model.insert(block, ());
                while model.len() as u64 > budget {
                    inv *= 2;
                    model.retain(|&b, _| spatial_hash(b) <= u64::MAX / inv);
                }
            }
            assert_eq!(an.sampling_info().inv, inv, "access {k}");
            assert_eq!(an.tracked_blocks(), model.len() as u64, "access {k}");
            assert_eq!(an.tree_nodes() as u64, an.tracked_blocks(), "access {k}");
            // After the first lap, so that hot lines are being reused.
            let short = an.window_len() < WINDOW && an.tracked_blocks() > an.window_len() as u64;
            let dropped = an.sampling_info().rate_drops > drops;
            if snapshot.is_none() && k >= 2 * hot as usize && dropped && short {
                snapshot = Some((k + 1, round_trip(&an, &prog)));
            }
        }
        let (at, mut resumed) =
            snapshot.expect("no rate drop left a short window beside the table");
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
        let _ = ReuseAnalyzer::with_sampling(&prog, 48, SamplingConfig::fixed(0.5));
    }
}
