//! Dynamic spatial-utilization measurement.
//!
//! The paper's *static* fragmentation analysis (§III) reasons about
//! strides; it explicitly cannot detect cases like GTC's `ring`/`indexp`
//! arrays, where unit-stride loops simply stop short of each column's end
//! ("our static analysis for cache fragmentation cannot detect such cases
//! at this time"). This sink measures utilization *dynamically*: for every
//! cache line it records exactly which bytes were ever touched, then
//! reports per-array the fraction of fetched bytes that were used. Static
//! says *why* lines are wasted; this says *that* they are — together they
//! cover both of the paper's fragmentation scenarios.

use reuselens_ir::{AccessKind, ArrayId, Program, RefId, ScopeId};
use reuselens_trace::TraceSink;
use std::collections::HashMap;

/// Measures which bytes of each cache line are ever touched.
///
/// # Examples
///
/// ```
/// use reuselens_core::SpatialSink;
/// use reuselens_ir::{Expr, ProgramBuilder};
/// use reuselens_trace::Executor;
///
/// // Read one 8-byte field out of every 56-byte record.
/// let mut p = ProgramBuilder::new("aos");
/// let zion = p.array("zion", 8, &[7, 512]);
/// p.routine("main", |r| {
///     r.for_("i", 0, 511, |r, i| {
///         r.load(zion, vec![Expr::c(2), i.into()]);
///     });
/// });
/// let prog = p.finish();
/// let mut sink = SpatialSink::new(&prog, 128);
/// Executor::new(&prog).run(&mut sink)?;
/// let profile = sink.finish();
/// let u = profile.utilization_of(prog.array_by_name("zion").unwrap()).unwrap();
/// // Only ~1/7 of each fetched line is ever used.
/// assert!(u > 0.10 && u < 0.20, "utilization {u}");
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
#[derive(Debug)]
pub struct SpatialSink {
    line_shift: u32,
    line_size: u64,
    /// line number -> touched-byte bitmap (one u64 word per 64 bytes).
    lines: HashMap<u64, Vec<u64>>,
    /// Sorted (base, end, array) ranges for address→array attribution.
    ranges: Vec<(u64, u64, ArrayId)>,
}

impl SpatialSink {
    /// Creates a sink for the given line size (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn new(program: &Program, line_size: u64) -> SpatialSink {
        assert!(
            line_size.is_power_of_two(),
            "line size must be power of two"
        );
        let mut ranges: Vec<(u64, u64, ArrayId)> = program
            .arrays()
            .iter()
            .enumerate()
            .map(|(i, a)| (a.base(), a.base() + a.size_bytes(), ArrayId(i as u32)))
            .collect();
        ranges.sort_unstable();
        SpatialSink {
            line_shift: line_size.trailing_zeros(),
            line_size,
            lines: HashMap::new(),
            ranges,
        }
    }

    /// Consumes the sink, producing per-array utilization numbers.
    pub fn finish(self) -> SpatialProfile {
        let narrays = self.ranges.len();
        let mut per_array = vec![
            ArraySpatial {
                lines: 0,
                bytes_touched: 0,
                bytes_fetched: 0,
            };
            narrays
        ];
        let mut orphan_lines = 0u64;
        for (&line, bitmap) in &self.lines {
            let addr = line << self.line_shift;
            let touched: u64 = bitmap.iter().map(|w| w.count_ones() as u64).sum();
            match self.array_of(addr) {
                Some(arr) => {
                    let s = &mut per_array[arr.index()];
                    s.lines += 1;
                    s.bytes_touched += touched;
                    s.bytes_fetched += self.line_size;
                }
                None => orphan_lines += 1,
            }
        }
        SpatialProfile {
            line_size: self.line_size,
            per_array,
            orphan_lines,
        }
    }

    fn array_of(&self, addr: u64) -> Option<ArrayId> {
        // Last range with base <= addr.
        let idx = self.ranges.partition_point(|&(base, _, _)| base <= addr);
        if idx == 0 {
            return None;
        }
        let (base, end, arr) = self.ranges[idx - 1];
        (addr >= base && addr < end).then_some(arr)
    }
}

impl TraceSink for SpatialSink {
    fn access(&mut self, _r: RefId, addr: u64, size: u32, _kind: AccessKind) {
        let mask = self.line_size - 1;
        let mut pos = addr;
        let mut remaining = size as u64;
        while remaining > 0 {
            let line = pos >> self.line_shift;
            let offset = pos & mask;
            let in_line = remaining.min(self.line_size - offset);
            let words = (self.line_size / 64).max(1) as usize;
            let bitmap = self.lines.entry(line).or_insert_with(|| vec![0u64; words]);
            for b in offset..offset + in_line {
                bitmap[(b / 64) as usize] |= 1 << (b % 64);
            }
            pos += in_line;
            remaining -= in_line;
        }
    }
    fn enter(&mut self, _scope: ScopeId) {}
    fn exit(&mut self, _scope: ScopeId) {}
}

/// Executes `program` once and measures per-array spatial utilization at
/// the given line size.
///
/// # Errors
///
/// Propagates executor errors.
///
/// # Examples
///
/// ```
/// use reuselens_core::measure_spatial;
/// use reuselens_ir::{Expr, ProgramBuilder};
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[7, 256]);
/// p.routine("main", |r| {
///     r.for_("i", 0, 255, |r, i| {
///         r.load(a, vec![Expr::c(0), i.into()]);
///     });
/// });
/// let prog = p.finish();
/// let profile = measure_spatial(&prog, 128, vec![])?;
/// assert!(profile.utilization_of(a).unwrap() < 0.2);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
pub fn measure_spatial(
    program: &Program,
    line_size: u64,
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
) -> Result<SpatialProfile, reuselens_trace::ExecError> {
    let mut sink = SpatialSink::new(program, line_size);
    let mut exec = reuselens_trace::Executor::new(program);
    for (a, d) in index_arrays {
        exec.set_index_array(a, d);
    }
    exec.run(&mut sink)?;
    Ok(sink.finish())
}

/// Per-array spatial statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySpatial {
    /// Distinct lines of this array ever fetched.
    pub lines: u64,
    /// Distinct bytes ever touched.
    pub bytes_touched: u64,
    /// Bytes fetched (`lines × line size`).
    pub bytes_fetched: u64,
}

impl ArraySpatial {
    /// Fraction of fetched bytes that were used (1.0 = perfect).
    pub fn utilization(&self) -> f64 {
        if self.bytes_fetched == 0 {
            1.0
        } else {
            self.bytes_touched as f64 / self.bytes_fetched as f64
        }
    }

    /// The dynamic counterpart of the paper's fragmentation factor:
    /// the wasted fraction of fetched bytes.
    pub fn fragmentation(&self) -> f64 {
        1.0 - self.utilization()
    }
}

/// Result of a [`SpatialSink`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialProfile {
    /// Line size the measurement used.
    pub line_size: u64,
    /// Per-array statistics, indexed by [`ArrayId`].
    pub per_array: Vec<ArraySpatial>,
    /// Lines that fell outside every declared array (should be zero).
    pub orphan_lines: u64,
}

impl SpatialProfile {
    /// Utilization of one array, `None` if it was never touched.
    pub fn utilization_of(&self, array: ArrayId) -> Option<f64> {
        let s = self.per_array.get(array.index())?;
        (s.lines > 0).then(|| s.utilization())
    }

    /// Arrays sorted by wasted bytes (fetched − touched), descending.
    pub fn most_wasteful(&self) -> Vec<(ArrayId, u64, f64)> {
        let mut rows: Vec<(ArrayId, u64, f64)> = self
            .per_array
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lines > 0)
            .map(|(i, s)| {
                (
                    ArrayId(i as u32),
                    s.bytes_fetched - s.bytes_touched,
                    s.utilization(),
                )
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_ir::{Expr, ProgramBuilder};
    use reuselens_trace::Executor;

    fn run(prog: &Program, index: Vec<(ArrayId, Vec<i64>)>) -> SpatialProfile {
        let mut sink = SpatialSink::new(prog, 128);
        let mut exec = Executor::new(prog);
        for (a, d) in index {
            exec.set_index_array(a, d);
        }
        exec.run(&mut sink).unwrap();
        sink.finish()
    }

    #[test]
    fn dense_sweep_has_full_utilization() {
        let mut p = ProgramBuilder::new("dense");
        let a = p.array("a", 8, &[1024]);
        p.routine("main", |r| {
            r.for_("i", 0, 1023, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let profile = run(&prog, vec![]);
        assert_eq!(profile.utilization_of(a), Some(1.0));
        assert_eq!(profile.orphan_lines, 0);
        assert_eq!(profile.per_array[a.index()].lines, 64);
    }

    #[test]
    fn aos_field_access_shows_low_utilization() {
        let n = 512u64;
        let mut p = ProgramBuilder::new("aos");
        let zion = p.array("zion", 8, &[7, n]);
        p.routine("main", |r| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.load(zion, vec![Expr::c(0), i.into()]);
                r.load(zion, vec![Expr::c(1), i.into()]);
            });
        });
        let prog = p.finish();
        let profile = run(&prog, vec![]);
        let u = profile.utilization_of(zion).unwrap();
        // 2 of 7 fields used.
        assert!((u - 2.0 / 7.0).abs() < 0.02, "utilization {u}");
        let s = profile.per_array[zion.index()];
        assert!((s.fragmentation() - 5.0 / 7.0).abs() < 0.02);
    }

    /// The paper's poisson case: unit-stride columns that stop short of
    /// their allocated length. The *static* analysis reports no
    /// fragmentation (stride 1); the *dynamic* measurement sees the unused
    /// tails.
    #[test]
    fn short_columns_are_invisible_to_static_but_visible_here() {
        let (mmax, mgrid) = (16u64, 64u64);
        let mut p = ProgramBuilder::new("poisson-like");
        let nring = p.index_array("nring", &[mgrid]);
        let ring = p.array("ring", 8, &[mmax, mgrid]);
        p.routine("main", |r| {
            r.for_("ig", 0, (mgrid - 1) as i64, |r, ig| {
                let count = Expr::load(nring, vec![ig.into()]) - 1;
                r.for_("m", 0, count, |r, m| {
                    r.load(ring, vec![m.into(), ig.into()]);
                });
            });
        });
        let prog = p.finish();
        // Every column uses only half its entries.
        let profile = run(&prog, vec![(nring, vec![mmax as i64 / 2; mgrid as usize])]);
        let u = profile.utilization_of(ring).unwrap();
        // Static analysis cannot attribute a fragmentation factor here:
        // the inner loop's trip count is data-dependent and the stride is
        // a clean 8 bytes — but the dynamic measurement sees the waste.
        assert!((u - 0.5).abs() < 0.05, "utilization {u}");
    }

    #[test]
    fn multi_line_spanning_access_touches_both_lines() {
        let mut p = ProgramBuilder::new("wide");
        let a = p.array_with(
            "a",
            256, // 256-byte elements span two 128 B lines
            &[4],
            reuselens_ir::Layout::ColumnMajor,
            reuselens_ir::ArrayKind::Data,
        );
        p.routine("main", |r| {
            r.load(a, vec![Expr::c(0)]);
        });
        let prog = p.finish();
        let profile = run(&prog, vec![]);
        let s = profile.per_array[a.index()];
        assert_eq!(s.lines, 2);
        assert_eq!(s.bytes_touched, 256);
        assert_eq!(s.utilization(), 1.0);
    }

    #[test]
    fn most_wasteful_ranks_by_wasted_bytes() {
        let mut p = ProgramBuilder::new("two");
        let sparse = p.array("sparse", 8, &[7, 512]);
        let dense = p.array("dense", 8, &[512]);
        p.routine("main", |r| {
            r.for_("i", 0, 511, |r, i| {
                r.load(sparse, vec![Expr::c(0), i.into()]);
                r.load(dense, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let profile = run(&prog, vec![]);
        let rows = profile.most_wasteful();
        assert_eq!(rows[0].0, sparse);
        assert!(rows[0].2 < 0.2); // sparse utilization
                                  // dense wastes nothing; it may not even appear after sparse.
        if let Some(dense_row) = rows.iter().find(|r| r.0 == dense) {
            assert_eq!(dense_row.1, 0);
        }
    }
}
