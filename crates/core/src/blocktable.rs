//! Three-level hierarchical block table.
//!
//! The paper associates "the logical time of last access with every memory
//! block referenced by the program" using a three-level hierarchical table;
//! we extend each entry with the identity of the most recent accessing
//! reference, which is what lets reuse arcs be attributed to a
//! *(source scope, destination)* pair.
//!
//! The table is a radix trie over the block number: 12 + 10 + 10 bits,
//! covering 2³² blocks. Leaf pages are allocated lazily, so sparse address
//! spaces (a few arrays at distinct bases) cost memory proportional to the
//! touched footprint only.

const L1_BITS: u32 = 12;
const L2_BITS: u32 = 10;
const L3_BITS: u32 = 10;
const L1_SIZE: usize = 1 << L1_BITS;
const L2_SIZE: usize = 1 << L2_BITS;
const L3_SIZE: usize = 1 << L3_BITS;
/// Largest representable block number (exclusive).
pub const MAX_BLOCKS: u64 = 1 << (L1_BITS + L2_BITS + L3_BITS);

/// Last-access record for one memory block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Logical access-clock value of the most recent access.
    pub time: u64,
    /// The static reference that performed it.
    pub ref_id: u32,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    time: u64, // 0 = never accessed
    ref_id: u32,
}

const EMPTY: Slot = Slot { time: 0, ref_id: 0 };

type Leaf = Vec<Slot>;
type Mid = Vec<Option<Box<Leaf>>>;

/// Maps block numbers to their [`BlockEntry`] with lazy, paged storage.
///
/// Times stored must be nonzero (the analyzer's clock starts at 1); zero is
/// reserved for "never accessed".
///
/// # Examples
///
/// ```
/// use reuselens_core::BlockTable;
///
/// let mut t = BlockTable::new();
/// assert!(t.get(42).is_none());
/// t.set(42, 7, 3);
/// let e = t.get(42).unwrap();
/// assert_eq!((e.time, e.ref_id), (7, 3));
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.take(42), Some(e));
/// assert!(t.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct BlockTable {
    l1: Vec<Option<Box<Mid>>>,
    live: usize,
}

impl BlockTable {
    /// Creates an empty table.
    pub fn new() -> BlockTable {
        let mut l1 = Vec::with_capacity(L1_SIZE);
        l1.resize_with(L1_SIZE, || None);
        BlockTable { l1, live: 0 }
    }

    /// Number of blocks the table holds a record for.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table holds no record.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Looks up the last-access record for a block.
    ///
    /// # Panics
    ///
    /// Panics if `block >= MAX_BLOCKS` (an address far outside the modeled
    /// address space).
    pub fn get(&self, block: u64) -> Option<BlockEntry> {
        let (i1, i2, i3) = split(block);
        let slot = self.l1[i1].as_ref()?.get(i2)?.as_ref()?[i3];
        if slot.time == 0 {
            None
        } else {
            Some(BlockEntry {
                time: slot.time,
                ref_id: slot.ref_id,
            })
        }
    }

    /// Records an access to `block` at logical time `time` by `ref_id`,
    /// replacing any previous record.
    ///
    /// # Panics
    ///
    /// Panics if `time` is zero or `block >= MAX_BLOCKS`.
    pub fn set(&mut self, block: u64, time: u64, ref_id: u32) {
        assert!(time != 0, "logical times start at 1");
        let (i1, i2, i3) = split(block);
        let mid = self.l1[i1].get_or_insert_with(|| {
            let mut v: Mid = Vec::with_capacity(L2_SIZE);
            v.resize_with(L2_SIZE, || None);
            Box::new(v)
        });
        let leaf = mid[i2].get_or_insert_with(|| Box::new(vec![EMPTY; L3_SIZE]));
        if leaf[i3].time == 0 {
            self.live += 1;
        }
        leaf[i3] = Slot { time, ref_id };
    }

    /// Removes and returns the record for `block`, in one walk.
    ///
    /// # Panics
    ///
    /// Panics if `block >= MAX_BLOCKS`.
    pub fn take(&mut self, block: u64) -> Option<BlockEntry> {
        let (i1, i2, i3) = split(block);
        let slot = &mut self.l1[i1].as_mut()?[i2].as_mut()?[i3];
        if slot.time == 0 {
            return None;
        }
        let entry = BlockEntry {
            time: slot.time,
            ref_id: slot.ref_id,
        };
        *slot = EMPTY;
        self.live -= 1;
        Some(entry)
    }

    /// Visits every recorded block in ascending block-number order —
    /// how a snapshot serializes the table.
    pub fn for_each(&self, mut f: impl FnMut(u64, BlockEntry)) {
        for (i1, mid) in self.l1.iter().enumerate() {
            let Some(mid) = mid else { continue };
            for (i2, leaf) in mid.iter().enumerate() {
                let Some(leaf) = leaf else { continue };
                for (i3, slot) in leaf.iter().enumerate() {
                    if slot.time != 0 {
                        let block = ((i1 as u64) << (L2_BITS + L3_BITS))
                            | ((i2 as u64) << L3_BITS)
                            | i3 as u64;
                        f(
                            block,
                            BlockEntry {
                                time: slot.time,
                                ref_id: slot.ref_id,
                            },
                        );
                    }
                }
            }
        }
    }
}

#[inline]
fn split(block: u64) -> (usize, usize, usize) {
    assert!(
        block < MAX_BLOCKS,
        "block number {block} outside the modeled address space"
    );
    let i3 = (block & ((1 << L3_BITS) - 1)) as usize;
    let i2 = ((block >> L3_BITS) & ((1 << L2_BITS) - 1)) as usize;
    let i1 = (block >> (L3_BITS + L2_BITS)) as usize;
    (i1, i2, i3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_prng::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn get_on_empty_table_is_none() {
        let t = BlockTable::new();
        assert!(t.get(0).is_none());
        assert!(t.get(MAX_BLOCKS - 1).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn set_then_get_round_trips() {
        let mut t = BlockTable::new();
        t.set(0, 1, 9);
        t.set(MAX_BLOCKS - 1, 2, 8);
        t.set(12345678, 3, 7);
        assert_eq!(t.get(0).unwrap().ref_id, 9);
        assert_eq!(t.get(MAX_BLOCKS - 1).unwrap().time, 2);
        assert_eq!(t.get(12345678).unwrap().ref_id, 7);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn overwrite_does_not_double_count() {
        let mut t = BlockTable::new();
        t.set(5, 1, 0);
        t.set(5, 2, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(5).unwrap().time, 2);
    }

    #[test]
    #[should_panic(expected = "outside the modeled address space")]
    fn oversized_block_panics() {
        BlockTable::new().set(MAX_BLOCKS, 1, 0);
    }

    #[test]
    #[should_panic(expected = "logical times start at 1")]
    fn zero_time_panics() {
        BlockTable::new().set(0, 0, 0);
    }

    /// Randomized differential test against `HashMap` (seeded, offline):
    /// sets, and takes of blocks set earlier, absent or already taken.
    #[test]
    fn matches_hashmap_reference() {
        let mut rng = SplitMix64::seed_from_u64(0xb10c_7ab1e);
        for _case in 0..64 {
            let mut t = BlockTable::new();
            let mut map: HashMap<u64, (u64, u32)> = HashMap::new();
            let mut seen = Vec::new();
            for _ in 0..rng.gen_range(1..300) {
                let block = rng.gen_range(0..1 << 20);
                let time = rng.gen_range(1..1000);
                let rid = rng.gen_range(0..16) as u32;
                t.set(block, time, rid);
                map.insert(block, (time, rid));
                seen.push(block);
                let got = t.get(block).unwrap();
                assert_eq!((got.time, got.ref_id), map[&block]);
                if rng.gen_range(0..3) == 0 {
                    let victim = seen[rng.gen_range(0..seen.len() as u64) as usize];
                    let got = t.take(victim).map(|e| (e.time, e.ref_id));
                    assert_eq!(got, map.remove(&victim));
                    assert!(t.get(victim).is_none());
                }
                assert_eq!(t.len(), map.len());
            }
        }
    }
}
