//! A hierarchical popcount bitmap over the logical access clock — the
//! crate's one order-statistic structure.
//!
//! The analyzer's per-access question is *how many tracked blocks were
//! last accessed after time `t`*. The paper answers it with a balanced
//! tree over last-access times. Every clock this crate counts with is
//! dense and bounded by the trace length: the engine's clock ticks once
//! per access it tracks (every access when exact, every sampled one when
//! sampled). Exploiting that, a flat bitmap (bit `t` set ⇔
//! some tracked block was last accessed at time `t`) plus a Fenwick tree
//! over per-word popcounts answers the same query in a handful of
//! cache-resident array reads, where a balanced tree chases `O(log M)`
//! pointer-dependent nodes and rebalances on the way back up.
//!
//! Memory is one bit per logical clock tick plus a `u32` per 64 ticks —
//! ~12.5 bytes per 100 accesses — offset by `base`, so a set whose
//! first time is late pays only for its own span.

/// A set of `u64` logical times supporting insert, remove, and
/// count-greater in a few cache-resident array operations each.
///
/// An ordered set of `u64` restricted to the analyzer's usage: times
/// arrive (mostly) in increasing order, so storage grows at the top end.
/// The differential test below pins it against a `BTreeSet` model on
/// random workloads.
///
/// # Examples
///
/// ```
/// use reuselens_core::TimeBits;
///
/// let mut t = TimeBits::new();
/// for k in [5u64, 1, 9, 3] {
///     t.insert(k);
/// }
/// assert_eq!(t.count_greater(3), 2); // 5 and 9
/// assert!(t.remove(5));
/// assert_eq!(t.count_greater(3), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeBits {
    /// Bit `t - base*64` of `words[(t - base*64)/64]` ⇔ `t` present.
    words: Vec<u64>,
    /// 1-based Fenwick tree over `words` popcounts; `fenwick.len() - 1`
    /// is a power of two ≥ `words.len()`.
    fenwick: Vec<u32>,
    /// First represented word: `words[0]` covers times
    /// `[base*64, base*64 + 64)`. Fixed by the first insertion.
    base: u64,
    len: u64,
}

impl TimeBits {
    /// Creates an empty set.
    pub fn new() -> TimeBits {
        TimeBits::default()
    }

    /// Number of times currently stored.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no time is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a time. Returns `false` (and changes nothing) if it was
    /// already present.
    pub fn insert(&mut self, t: u64) -> bool {
        let w = match self.word_index_grow(t) {
            Some(w) => w,
            None => return self.insert_below_base(t),
        };
        let bit = 1u64 << (t & 63);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.fenwick_add(w, 1);
        self.len += 1;
        true
    }

    /// Removes a time. Returns `false` if it was absent.
    pub fn remove(&mut self, t: u64) -> bool {
        let Some(w) = self.word_index(t) else {
            return false;
        };
        let bit = 1u64 << (t & 63);
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        self.fenwick_add(w, -1);
        self.len -= 1;
        true
    }

    /// Counts stored times strictly greater than `t` (which need not be
    /// present).
    pub fn count_greater(&self, t: u64) -> u64 {
        let first = self.base * 64;
        if t < first {
            return self.len;
        }
        let w = ((t - first) >> 6) as usize;
        if w >= self.words.len() {
            return 0;
        }
        // Times ≤ t: full words below w, plus the low bits of word w.
        let mask = u64::MAX >> (63 - (t & 63));
        let le = self.fenwick_prefix(w) + u64::from((self.words[w] & mask).count_ones());
        self.len - le
    }

    /// Fused `count_greater(old)` + `remove(old)` + `insert(new)` — the
    /// analyzer's per-access triple. Returns `(old_was_present, count)`
    /// where `count` is the number of stored times strictly greater than
    /// `old` before the operation.
    ///
    /// When `old` is present, `new` is absent, and both lie in the last
    /// bitmap word — a short reuse, since the analyzers' clocks put `new`
    /// at or near the top — the word's popcount and the set's length do
    /// not change, so the call flips the two bits and counts the times
    /// above `old` within that word, with no Fenwick walk.
    pub fn count_reinsert(&mut self, old: u64, new: u64) -> (bool, u64) {
        if let Some(w) = self.word_index(old) {
            let word = self.words[w];
            let (old_bit, new_bit) = (1u64 << (old & 63), 1u64 << (new & 63));
            if w + 1 == self.words.len()
                && self.word_index(new) == Some(w)
                && word & old_bit != 0
                && word & new_bit == 0
            {
                // Bits strictly above `old`'s; no word lies past `w`.
                let above = word & !(u64::MAX >> (63 - (old & 63)));
                self.words[w] = (word & !old_bit) | new_bit;
                return (true, u64::from(above.count_ones()));
            }
        }
        let removed = self.remove(old);
        let count = self.count_greater(old);
        self.insert(new);
        (removed, count)
    }

    /// Word index for time `t`, or `None` when `t` lies below the base.
    /// Does not grow storage.
    fn word_index(&self, t: u64) -> Option<usize> {
        let first = self.base * 64;
        if t < first {
            return None;
        }
        let w = ((t - first) >> 6) as usize;
        if w >= self.words.len() {
            return None;
        }
        Some(w)
    }

    /// Word index for time `t`, growing `words` (and rebuilding the
    /// Fenwick tree on capacity doubling) as needed. `None` when `t` lies
    /// below the established base.
    fn word_index_grow(&mut self, t: u64) -> Option<usize> {
        if self.words.is_empty() {
            // First insertion fixes the base: a set whose first time is
            // late starts its bitmap at its own span.
            self.base = t >> 6;
        }
        let first = self.base * 64;
        if t < first {
            return None;
        }
        let w = ((t - first) >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            if self.words.len() > self.fenwick.len().saturating_sub(1) {
                self.rebuild_fenwick();
            }
        }
        Some(w)
    }

    /// Out-of-line slow path: a time below the fixed base (possible only
    /// through direct API use, never from the analyzer's monotone clock)
    /// rebuilds the bitmap at a lower base.
    #[cold]
    fn insert_below_base(&mut self, t: u64) -> bool {
        let new_base = t >> 6;
        let shift = (self.base - new_base) as usize;
        let mut words = vec![0u64; self.words.len() + shift];
        words[shift..].copy_from_slice(&self.words);
        self.words = words;
        self.base = new_base;
        self.rebuild_fenwick();
        let bit = 1u64 << (t & 63);
        if self.words[0] & bit != 0 {
            return false;
        }
        self.words[0] |= bit;
        self.fenwick_add(0, 1);
        self.len += 1;
        true
    }

    /// Rebuilds the Fenwick tree for the current `words`, with capacity
    /// the next power of two (doubling amortizes growth to O(1) per
    /// word).
    fn rebuild_fenwick(&mut self) {
        let cap = self.words.len().next_power_of_two().max(64);
        self.fenwick.clear();
        self.fenwick.resize(cap + 1, 0);
        for i in 0..self.words.len() {
            let w = self.words[i];
            if w != 0 {
                self.fenwick_add_cap(i, i64::from(w.count_ones()), cap);
            }
        }
    }

    /// Adds `delta` to word `w`'s popcount in the Fenwick tree.
    fn fenwick_add(&mut self, w: usize, delta: i64) {
        let cap = self.fenwick.len() - 1;
        self.fenwick_add_cap(w, delta, cap);
    }

    fn fenwick_add_cap(&mut self, w: usize, delta: i64, cap: usize) {
        let mut i = w + 1;
        while i <= cap {
            self.fenwick[i] = (i64::from(self.fenwick[i]) + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Total popcount of `words[..w]` (exclusive).
    fn fenwick_prefix(&self, w: usize) -> u64 {
        let mut i = w; // prefix over the first `w` words = 1-based index w
        let mut sum = 0u64;
        while i > 0 {
            sum += u64::from(self.fenwick[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_prng::SplitMix64;
    use std::collections::BTreeSet;

    #[test]
    fn empty_set_counts_zero() {
        let t = TimeBits::new();
        assert_eq!(t.count_greater(0), 0);
        assert_eq!(t.count_greater(u64::MAX), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut t = TimeBits::new();
        assert!(t.insert(100));
        assert!(!t.insert(100));
        assert_eq!(t.len(), 1);
        assert_eq!(t.count_greater(99), 1);
        assert_eq!(t.count_greater(100), 0);
        assert!(t.remove(100));
        assert!(!t.remove(100));
        assert!(t.is_empty());
    }

    #[test]
    fn below_base_insert_and_queries() {
        let mut t = TimeBits::new();
        t.insert(1000); // base fixed well above zero
        assert_eq!(t.count_greater(5), 1);
        assert!(!t.remove(5));
        assert!(t.insert(5)); // forces a base rebuild
        assert_eq!(t.count_greater(4), 2);
        assert_eq!(t.count_greater(5), 1);
        assert!(t.remove(5));
        assert!(t.remove(1000));
        assert!(t.is_empty());
    }

    #[test]
    fn count_reinsert_matches_unfused_sequence() {
        let mut fused = TimeBits::new();
        let mut plain = TimeBits::new();
        for k in [10u64, 20, 30, 40] {
            fused.insert(k);
            plain.insert(k);
        }
        let (removed, count) = fused.count_reinsert(20, 50);
        let expect = plain.count_greater(20);
        let expect_removed = plain.remove(20);
        plain.insert(50);
        assert_eq!((removed, count), (expect_removed, expect));
        assert_eq!(fused.count_greater(0), plain.count_greater(0));
    }

    /// `count_reinsert` against the `BTreeSet` model where its in-word
    /// fast path and the general path meet: `old` and `new` in the last
    /// word, `new` one word past it, `old` absent, and `new` already
    /// present. Every probe afterwards reads the Fenwick tree, so a fast
    /// path that left it stale would diverge.
    #[test]
    fn count_reinsert_matches_btreeset_model_at_the_last_word() {
        let mut rng = SplitMix64::seed_from_u64(0x71b1_7500_f00d);
        for case in 0..64 {
            let mut bits = TimeBits::new();
            let mut model: BTreeSet<u64> = BTreeSet::new();
            let mut top = rng.gen_range(1..1_000);
            for _ in 0..rng.gen_range(1..200) {
                top += rng.gen_range(1..4);
                bits.insert(top);
                model.insert(top);
            }
            for step in 0..200 {
                let top = *model.iter().next_back().unwrap();
                let last_word = top & !63;
                let (old, new) = match rng.gen_range(0..5) {
                    // Both in the last word, `old` present.
                    0 | 1 => {
                        let old = *model.range(last_word..).next().unwrap();
                        (old, (top + 1).min(last_word + 63))
                    }
                    // `new` opens the next word.
                    2 => (*model.iter().next_back().unwrap(), last_word + 64),
                    // `old` absent: a time below the set or a gap in it.
                    3 => (rng.gen_range(0..top + 1), top + rng.gen_range(1..80)),
                    // `new` already present.
                    _ => (*model.iter().next().unwrap(), top),
                };
                let want = (model.remove(&old), model.range(old + 1..).count() as u64);
                model.insert(new);
                assert_eq!(
                    bits.count_reinsert(old, new),
                    want,
                    "count_reinsert({old}, {new}) diverged (case {case}, step {step})"
                );
                assert_eq!(bits.len(), model.len());
                for probe in [0, old.saturating_sub(1), old, new, top / 2, top + 64] {
                    assert_eq!(
                        bits.count_greater(probe),
                        model.range(probe + 1..).count() as u64,
                        "count_greater({probe}) diverged (case {case}, step {step})"
                    );
                }
            }
        }
    }

    /// Randomized differential test against a `BTreeSet` model: the two
    /// must agree operation by operation on the analyzer's monotone-clock
    /// pattern and on arbitrary sparse patterns.
    #[test]
    fn matches_btreeset_model() {
        let mut rng = SplitMix64::seed_from_u64(0x71b1_7500_bead);
        for case in 0..24 {
            let mut bits = TimeBits::new();
            let mut model: BTreeSet<u64> = BTreeSet::new();
            let sparse = case % 3 == 2;
            let mut live: Vec<u64> = Vec::new();
            let mut next = rng.gen_range(1..10_000);
            for _ in 0..400 {
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        // Monotone insert (the eviction pattern).
                        next += rng.gen_range(1..if sparse { 5_000 } else { 40 });
                        assert_eq!(bits.insert(next), model.insert(next));
                        live.push(next);
                    }
                    2 if !live.is_empty() => {
                        let i = rng.gen_range(0..live.len() as u64) as usize;
                        let old = live.swap_remove(i);
                        next += rng.gen_range(1..40);
                        let a = bits.count_reinsert(old, next);
                        let b = (model.remove(&old), model.range(old + 1..).count() as u64);
                        model.insert(next);
                        assert_eq!(a, b);
                        live.push(next);
                    }
                    _ if !live.is_empty() => {
                        let i = rng.gen_range(0..live.len() as u64) as usize;
                        let old = live.swap_remove(i);
                        assert_eq!(bits.remove(old), model.remove(&old));
                    }
                    _ => {}
                }
                assert_eq!(bits.len(), model.len());
                let probe = rng.gen_range(0..next + 10);
                assert_eq!(
                    bits.count_greater(probe),
                    model.range(probe + 1..).count() as u64,
                    "count_greater({probe}) diverged (case {case})"
                );
            }
        }
    }
}
