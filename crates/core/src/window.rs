//! The recent-access window both reuse engines put in front of their
//! block tables and order-statistic sets.

/// Capacity of the recent-access window: the number of most-recently-used
/// distinct blocks kept out of the order-statistic set and the block table
/// entirely.
///
/// Real access streams are dominated by short reuses — the paper's sweeps
/// spend 7 of every 8 accesses on within-line spatial reuse at distance 0 —
/// so the hot path resolves any reuse with distance `< WINDOW` from a
/// fixed array kept most recent first, where a block's slot is its
/// distance, and never touches the block table or the order-statistic set.
/// Only evictions from the window (one per miss once the window is full)
/// pay for set and table maintenance, and the reuse path that does reach
/// the set folds lookup and reinsert into a single fused operation
/// ([`TimeBits::count_reinsert`](crate::TimeBits::count_reinsert)).
/// Pattern histograms count distances below `WINDOW` densely beside their
/// bins (see [`SinkPatterns`](crate::analyzer::SinkPatterns)).
pub(crate) const WINDOW: usize = 32;

/// Buckets of the window's miss filter, keyed on a block number's low
/// byte.
const FILTER: usize = 256;

/// The recent-access window (see [`WINDOW`]): the distinct blocks most
/// recently touched, with the clock and static reference of each one's
/// last access, most recent first. Slot `i` holds the block touched `i`
/// distinct blocks ago, every slot's time is greater than every time in
/// the engine's order-statistic set, and `filter` counts the held blocks
/// per low byte of the block number, so a miss whose bucket is empty skips
/// the scan.
#[derive(Debug)]
pub(crate) struct Window {
    blocks: [u64; WINDOW],
    times: [u64; WINDOW],
    refs: [u32; WINDOW],
    pub(crate) len: usize,
    pub(crate) filter: [u8; FILTER],
}

impl Window {
    pub(crate) fn new() -> Window {
        Window {
            blocks: [0; WINDOW],
            times: [0; WINDOW],
            refs: [0; WINDOW],
            len: 0,
            filter: [0; FILTER],
        }
    }

    /// The per-access hit test: when the window holds `block`, moves it to
    /// slot 0 with `(now, ref_id)` and returns `(slot, time, ref)` of its
    /// previous access — the slot is the reuse distance. Slot 0 (distance
    /// 0, within-line spatial reuse on a unit-stride sweep, the dominant
    /// case) is checked first and updated in place; a miss whose filter
    /// bucket is empty skips the scan.
    #[inline]
    pub(crate) fn touch(&mut self, block: u64, now: u64, ref_id: u32) -> Option<(u64, u64, u32)> {
        if self.len > 0 && self.blocks[0] == block {
            let hit = (0, self.times[0], self.refs[0]);
            self.times[0] = now;
            self.refs[0] = ref_id;
            return Some(hit);
        }
        if self.filter[block as u8 as usize] == 0 {
            return None;
        }
        let i = self.blocks[..self.len].iter().position(|&b| b == block)?;
        let hit = (i as u64, self.times[i], self.refs[i]);
        self.shift_in(i, block, now, ref_id);
        Some(hit)
    }

    /// Moves slots `0..i` back by one and puts `(block, time, ref_id)` in
    /// slot 0; slot `i` is overwritten.
    #[inline]
    fn shift_in(&mut self, i: usize, block: u64, time: u64, ref_id: u32) {
        // A plain loop: three `copy_within` memmove calls per hit cost
        // more than the shift. `i < WINDOW` already; the `min` lets the
        // compiler drop the bounds checks.
        for j in (0..i.min(WINDOW - 1)).rev() {
            self.blocks[j + 1] = self.blocks[j];
            self.times[j + 1] = self.times[j];
            self.refs[j + 1] = self.refs[j];
        }
        self.blocks[0] = block;
        self.times[0] = time;
        self.refs[0] = ref_id;
    }

    /// Adds a block the window does not hold at slot 0. When the window
    /// is full its oldest entry drops out and is returned as
    /// `(block, time, ref_id)`. Inlined into the engine's past-window
    /// path, where a call per miss showed in the disassembly.
    #[inline]
    pub(crate) fn push(&mut self, block: u64, time: u64, ref_id: u32) -> Option<(u64, u64, u32)> {
        self.filter[block as u8 as usize] += 1;
        if self.len < WINDOW {
            self.shift_in(self.len, block, time, ref_id);
            self.len += 1;
            return None;
        }
        let last = WINDOW - 1;
        let evicted = (self.blocks[last], self.times[last], self.refs[last]);
        self.filter[evicted.0 as u8 as usize] -= 1;
        // A shift of constant length compiles to a few vector moves.
        self.blocks.copy_within(0..last, 1);
        self.times.copy_within(0..last, 1);
        self.refs.copy_within(0..last, 1);
        self.shift_in(0, block, time, ref_id);
        Some(evicted)
    }

    /// Drops every entry whose block fails `keep`, keeping the others in
    /// order, and returns how many it dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) -> usize {
        let mut kept = 0;
        for i in 0..self.len {
            let block = self.blocks[i];
            if keep(block) {
                self.blocks[kept] = block;
                self.times[kept] = self.times[i];
                self.refs[kept] = self.refs[i];
                kept += 1;
            } else {
                self.filter[block as u8 as usize] -= 1;
            }
        }
        let dropped = self.len - kept;
        self.len = kept;
        dropped
    }

    /// The held entries as `(block, time, ref_id)`, most recent first.
    pub(crate) fn rows(&self) -> impl DoubleEndedIterator<Item = (u64, u64, u32)> + '_ {
        (0..self.len).map(|i| (self.blocks[i], self.times[i], self.refs[i]))
    }
}
