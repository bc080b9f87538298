//! Brute-force reference implementations used to validate the analyzer.
//!
//! These are `O(N·M)` and exist so that property tests can compare every
//! engine against an obviously correct implementation of LRU stack
//! distance and of the paper's pattern attribution.

use crate::histogram::Histogram;
use crate::patterns::{PatternKey, ReusePattern, ReuseProfile};
use reuselens_ir::{Program, ScopeId};
use reuselens_trace::Event;
use std::collections::{BTreeMap, HashMap};

/// Computes the reuse distance of every access in an address trace at the
/// given block size: `None` for first touches (cold), otherwise the number
/// of distinct blocks accessed since the previous access to the same block.
///
/// # Examples
///
/// ```
/// use reuselens_core::oracle::stack_distances;
///
/// // blocks: A B A  (block size 64)
/// let d = stack_distances(&[0, 64, 0], 64);
/// assert_eq!(d, vec![None, None, Some(1)]);
/// ```
pub fn stack_distances(addresses: &[u64], block_size: u64) -> Vec<Option<u64>> {
    assert!(block_size.is_power_of_two());
    let shift = block_size.trailing_zeros();
    // LRU stack of blocks, most recent first.
    let mut stack: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(addresses.len());
    for &addr in addresses {
        let block = addr >> shift;
        match stack.iter().position(|&b| b == block) {
            Some(pos) => {
                out.push(Some(pos as u64));
                stack.remove(pos);
                stack.insert(0, block);
            }
            None => {
                out.push(None);
                stack.insert(0, block);
            }
        }
    }
    out
}

/// Simulates a fully associative LRU cache of `capacity_blocks` blocks over
/// an address trace, returning the number of misses (cold included).
pub fn fully_associative_misses(addresses: &[u64], block_size: u64, capacity_blocks: usize) -> u64 {
    stack_distances(addresses, block_size)
        .into_iter()
        .filter(|d| match d {
            None => true,
            Some(d) => *d as usize >= capacity_blocks,
        })
        .count() as u64
}

/// Computes the full reuse profile of an event stream at the given block
/// size by brute force: every field the exact analyzer reports — one
/// histogram per *(sink, source scope, carrying scope)* pattern, per-reference
/// cold counts, the access total and the distinct-block footprint.
///
/// Distances come from an LRU stack, as in [`stack_distances`]. The
/// source scope is the static scope of the previous access's reference.
/// The carrier comes from scope *instances*: every `Enter` opens a fresh
/// instance, each access remembers the whole stack of instances open at
/// it, and a reuse is carried by the deepest instance open at both the
/// previous access and this one — the program root when there is none.
///
/// # Panics
///
/// Panics if `block_size` is not a power of two or an access names a
/// reference the program does not have.
pub fn reuse_profile(program: &Program, events: &[Event], block_size: u64) -> ReuseProfile {
    assert!(block_size.is_power_of_two());
    let shift = block_size.trailing_zeros();
    let refs = program.references();
    // LRU stack of blocks, most recent first.
    let mut stack: Vec<u64> = Vec::new();
    // Per block: the reference and the open scope instances at its last
    // access.
    let mut last: HashMap<u64, (usize, Vec<(u64, ScopeId)>)> = HashMap::new();
    let mut open: Vec<(u64, ScopeId)> = Vec::new();
    let mut instances = 0u64;
    let mut histograms: BTreeMap<PatternKey, Histogram> = BTreeMap::new();
    let mut cold = vec![0u64; refs.len()];
    let mut total_accesses = 0u64;
    for event in events {
        match *event {
            Event::Enter(scope) => {
                open.push((instances, scope));
                instances += 1;
            }
            Event::Exit(_) => {
                open.pop();
            }
            Event::Access { r, addr } => {
                total_accesses += 1;
                let block = addr >> shift;
                match stack.iter().position(|&b| b == block) {
                    Some(distance) => {
                        stack.remove(distance);
                        let (prev_ref, prev_open) = &last[&block];
                        let shared = prev_open
                            .iter()
                            .zip(&open)
                            .take_while(|(a, b)| a == b)
                            .count();
                        let carrier = match shared {
                            0 => ScopeId::ROOT,
                            n => open[n - 1].1,
                        };
                        let key = PatternKey {
                            sink: r,
                            source_scope: refs[*prev_ref].scope(),
                            carrier,
                        };
                        histograms.entry(key).or_default().add(distance as u64);
                    }
                    None => cold[r.index()] += 1,
                }
                stack.insert(0, block);
                last.insert(block, (r.index(), open.clone()));
            }
        }
    }
    ReuseProfile {
        block_size,
        patterns: histograms
            .into_iter()
            .map(|(key, histogram)| ReusePattern { key, histogram })
            .collect(),
        cold,
        total_accesses,
        distinct_blocks: stack.len() as u64,
        sampling: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_ir::{Expr, ProgramBuilder, RefId};
    use reuselens_trace::{Executor, VecSink};

    #[test]
    fn distances_count_distinct_intervening_blocks() {
        // blocks: A B C B A
        let addrs = [0u64, 64, 128, 64, 0];
        let d = stack_distances(&addrs, 64);
        assert_eq!(d, vec![None, None, None, Some(1), Some(2)]);
    }

    #[test]
    fn repeated_block_is_distance_zero() {
        let d = stack_distances(&[8, 16, 24], 64);
        assert_eq!(d, vec![None, Some(0), Some(0)]);
    }

    /// Hand-checked attribution: a reuse inside one loop execution is
    /// carried by the loop; a reuse reaching back into a loop that has
    /// since exited is carried by the routine around it.
    #[test]
    fn reuse_profile_attributes_source_and_carrier() {
        let mut p = ProgramBuilder::new("attribution");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_("i", 0, 1, |r, i| {
                r.load(a, vec![i.into()]);
            });
            r.load(a, vec![Expr::c(0)]);
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        Executor::new(&prog).run(&mut sink).unwrap();
        let main = prog.scope_by_name("main").unwrap();
        let i = prog.scope_by_name("i").unwrap();
        let (in_loop, after) = (RefId(0), RefId(1));
        let key = |sink, carrier| PatternKey {
            sink,
            source_scope: i,
            carrier,
        };

        // Grain 64: one block. a(1) reuses a(0) inside the loop at
        // distance 0; the trailing a(0) reuses a(1) across the loop exit.
        let coarse = reuse_profile(&prog, &sink.events, 64);
        let keys: Vec<PatternKey> = coarse.patterns.iter().map(|p| p.key).collect();
        assert_eq!(keys, vec![key(in_loop, i), key(after, main)]);
        assert_eq!(coarse.cold, vec![1, 0]);
        assert_eq!((coarse.total_accesses, coarse.distinct_blocks), (3, 1));

        // Grain 8: a(0) and a(1) are distinct blocks, so the trailing a(0)
        // is the only reuse, at distance 1.
        let fine = reuse_profile(&prog, &sink.events, 8);
        assert_eq!(fine.patterns.len(), 1);
        assert_eq!(fine.patterns[0].key, key(after, main));
        let mut want = Histogram::new();
        want.add(1);
        assert_eq!(fine.patterns[0].histogram, want);
        assert_eq!(fine.cold, vec![2, 0]);
    }

    #[test]
    fn fa_misses_equal_distance_threshold() {
        // A B A with capacity 1: second A misses (distance 1 >= 1).
        assert_eq!(fully_associative_misses(&[0, 64, 0], 64, 1), 3);
        // capacity 2: second A hits.
        assert_eq!(fully_associative_misses(&[0, 64, 0], 64, 2), 2);
    }
}
