//! Scaling models of reuse-distance histograms and whole profiles.
//!
//! Following the paper's modeling approach, each pattern's histogram is
//! partitioned into equal-count quantile slices; the total count and each
//! slice's representative distance are fit as functions of problem size.
//! A fitted [`ProfileModel`] predicts the full [`ReuseProfile`] of an
//! unmeasured input, which feeds the usual cache-miss prediction.

use crate::fit::{fit_scaling, Fit};
use reuselens_core::{Histogram, PatternKey, ReusePattern, ReuseProfile};
use std::collections::BTreeMap;

/// Scaling model of one histogram family (one reuse pattern across
/// problem sizes).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramModel {
    /// Fit of the total reuse count.
    pub count: Fit,
    /// Fit of each quantile slice's representative distance.
    pub slices: Vec<Fit>,
}

impl HistogramModel {
    /// Fits a family of histograms measured at the given problem sizes.
    /// Returns `None` when fewer than two sizes are given, when any size
    /// is non-finite, or when the sizes are not strictly increasing — a
    /// duplicated or out-of-order size makes the scaling solve degenerate
    /// and used to yield a silently garbage fit.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` and `hists` differ in length or `nslices` is zero.
    pub fn fit(sizes: &[f64], hists: &[&Histogram], nslices: usize) -> Option<HistogramModel> {
        assert_eq!(sizes.len(), hists.len(), "one histogram per size");
        assert!(nslices > 0, "need at least one slice");
        if sizes.len() < 2 || !sizes_are_valid(sizes) {
            return None;
        }
        let counts: Vec<f64> = hists.iter().map(|h| h.total() as f64).collect();
        let count = fit_scaling(sizes, &counts, 2);
        let per_size_slices: Vec<Vec<f64>> = hists
            .iter()
            .map(|h| {
                let mut s = h.quantile_slices(nslices);
                s.resize(nslices, 0.0);
                s
            })
            .collect();
        let slices = (0..nslices)
            .map(|q| {
                let ys: Vec<f64> = per_size_slices.iter().map(|s| s[q]).collect();
                fit_scaling(sizes, &ys, 2)
            })
            .collect();
        Some(HistogramModel { count, slices })
    }

    /// Predicts the histogram at problem size `n`.
    pub fn predict(&self, n: f64) -> Histogram {
        let total = self.count.eval(n).round().max(0.0) as u64;
        let nslices = self.slices.len() as u64;
        let mut h = Histogram::new();
        if total == 0 {
            return h;
        }
        let per_slice = total / nslices;
        let remainder = total % nslices;
        for (q, fit) in self.slices.iter().enumerate() {
            let d = fit.eval(n).round().max(0.0) as u64;
            let c = per_slice + if (q as u64) < remainder { 1 } else { 0 };
            h.add_n(d, c);
        }
        h
    }
}

/// True when every size is finite and the sequence strictly increases —
/// the precondition for a meaningful scaling fit.
fn sizes_are_valid(sizes: &[f64]) -> bool {
    sizes.iter().all(|s| s.is_finite()) && sizes.windows(2).all(|w| w[0] < w[1])
}

/// Scaling model of a whole reuse profile: one [`HistogramModel`] per
/// pattern plus fits of per-reference cold counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileModel {
    /// Block size the training profiles were measured at.
    pub block_size: u64,
    /// Per-pattern models. Patterns seen at fewer than two sizes are kept
    /// with a constant extrapolation of their last measurement.
    pub patterns: Vec<(PatternKey, HistogramModel)>,
    /// Cold-count fits, indexed like [`ReuseProfile::cold`].
    pub cold: Vec<Fit>,
    /// Fit of total accesses.
    pub accesses: Fit,
}

impl ProfileModel {
    /// Fits profiles measured at several problem sizes (same program, same
    /// block size). `nslices` controls histogram resolution.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two profiles are given, sizes and profiles
    /// differ in length, block sizes differ, or `sizes` is not a finite
    /// strictly-increasing sequence (callers sort and deduplicate their
    /// measurements; fitting a degenerate sequence would produce garbage).
    pub fn fit(sizes: &[f64], profiles: &[&ReuseProfile], nslices: usize) -> ProfileModel {
        assert_eq!(sizes.len(), profiles.len(), "one profile per size");
        assert!(sizes.len() >= 2, "need at least two training sizes");
        assert!(
            sizes_are_valid(sizes),
            "training sizes must be finite and strictly increasing, got {sizes:?}"
        );
        let block_size = profiles[0].block_size;
        assert!(
            profiles.iter().all(|p| p.block_size == block_size),
            "profiles must share a block size"
        );

        // Collect each pattern's histogram per size (empty when absent).
        let mut keys: BTreeMap<PatternKey, Vec<Histogram>> = BTreeMap::new();
        for (i, profile) in profiles.iter().enumerate() {
            for pat in &profile.patterns {
                let entry = keys
                    .entry(pat.key)
                    .or_insert_with(|| vec![Histogram::new(); profiles.len()]);
                entry[i] = pat.histogram.clone();
            }
        }
        let patterns = keys
            .into_iter()
            .filter_map(|(key, hists)| {
                let refs: Vec<&Histogram> = hists.iter().collect();
                HistogramModel::fit(sizes, &refs, nslices).map(|m| (key, m))
            })
            .collect();

        let nrefs = profiles.iter().map(|p| p.cold.len()).max().unwrap_or(0);
        let cold = (0..nrefs)
            .map(|r| {
                let ys: Vec<f64> = profiles
                    .iter()
                    .map(|p| p.cold.get(r).copied().unwrap_or(0) as f64)
                    .collect();
                fit_scaling(sizes, &ys, 2)
            })
            .collect();
        let accesses = fit_scaling(
            sizes,
            &profiles
                .iter()
                .map(|p| p.total_accesses as f64)
                .collect::<Vec<_>>(),
            2,
        );
        ProfileModel {
            block_size,
            patterns,
            cold,
            accesses,
        }
    }

    /// Predicts the full profile at problem size `n`.
    pub fn predict(&self, n: f64) -> ReuseProfile {
        let patterns: Vec<ReusePattern> = self
            .patterns
            .iter()
            .map(|(key, m)| ReusePattern {
                key: *key,
                histogram: m.predict(n),
            })
            .filter(|p| !p.histogram.is_empty())
            .collect();
        let cold: Vec<u64> = self
            .cold
            .iter()
            .map(|f| f.eval(n).round().max(0.0) as u64)
            .collect();
        let total_cold: u64 = cold.iter().sum();
        let total_reuses: u64 = patterns.iter().map(|p| p.histogram.total()).sum();
        ReuseProfile {
            block_size: self.block_size,
            patterns,
            cold,
            total_accesses: total_cold + total_reuses,
            distinct_blocks: total_cold,
            sampling: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_core::analyze_program;
    use reuselens_ir::ProgramBuilder;

    /// Streaming kernel re-swept T times at size n: reuses scale ~n,
    /// distances scale ~n.
    fn stream(n: u64) -> ReuseProfile {
        let mut p = ProgramBuilder::new("stream");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("t", 0, 3, |r, _| {
                r.for_("i", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        analyze_program(&prog, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0)
    }

    #[test]
    fn model_predicts_unmeasured_size_of_streaming_kernel() {
        let sizes = [1024.0, 2048.0, 4096.0];
        let profiles: Vec<ReuseProfile> = sizes.iter().map(|&n| stream(n as u64)).collect();
        let refs: Vec<&ReuseProfile> = profiles.iter().collect();
        let model = ProfileModel::fit(&sizes, &refs, 8);

        let predicted = model.predict(8192.0);
        let actual = stream(8192);
        // Totals scale linearly and must match within a few percent.
        let pt = predicted.total_accesses as f64;
        let at = actual.total_accesses as f64;
        assert!((pt - at).abs() / at < 0.05, "accesses {pt} vs {at}");
        let cold_err = (predicted.total_cold() as f64 - actual.total_cold() as f64).abs()
            / actual.total_cold() as f64;
        assert!(cold_err < 0.05, "cold error {cold_err}");

        // The long (cross-sweep) reuse distance scales with the footprint:
        // a 512-line cache hits at n=1024..4096 (128..512 lines) but must
        // MISS at the predicted n=8192 (1024 lines). The model catches the
        // crossover the paper's tool is built to extrapolate.
        let miss_pred: f64 = predicted
            .patterns
            .iter()
            .map(|p| p.histogram.count_ge(640))
            .sum::<f64>()
            + predicted.total_cold() as f64;
        let miss_actual: f64 = actual
            .patterns
            .iter()
            .map(|p| p.histogram.count_ge(640))
            .sum::<f64>()
            + actual.total_cold() as f64;
        assert!(
            (miss_pred - miss_actual).abs() / miss_actual < 0.1,
            "predicted misses {miss_pred} vs actual {miss_actual}"
        );
        assert!(miss_actual > actual.total_cold() as f64 * 2.0);
    }

    #[test]
    fn histogram_model_predicts_counts_and_distances() {
        let mk = |n: u64| -> Histogram {
            let mut h = Histogram::new();
            h.add_n(n, 2 * n); // distance = n, count = 2n
            h
        };
        let h1 = mk(100);
        let h2 = mk(200);
        let h3 = mk(400);
        let model = HistogramModel::fit(&[100.0, 200.0, 400.0], &[&h1, &h2, &h3], 4).unwrap();
        let p = model.predict(800.0);
        assert!((p.total() as f64 - 1600.0).abs() < 20.0);
        let mean = p.mean().unwrap();
        assert!((mean - 800.0).abs() / 800.0 < 0.1, "mean {mean}");
    }

    #[test]
    fn fit_requires_two_sizes() {
        let h = Histogram::new();
        assert!(HistogramModel::fit(&[8.0], &[&h], 4).is_none());
    }

    /// Regression: non-finite or non-increasing size sequences used to
    /// feed straight into the least-squares solve and come back as a
    /// garbage (often NaN-coefficient) fit; now they are rejected.
    #[test]
    fn fit_rejects_degenerate_size_sequences() {
        let mk = |n: u64| {
            let mut h = Histogram::new();
            h.add_n(n, n);
            h
        };
        let (h1, h2, h3) = (mk(100), mk(200), mk(400));
        let hists = [&h1, &h2, &h3];
        assert!(HistogramModel::fit(&[100.0, f64::NAN, 400.0], &hists, 4).is_none());
        assert!(HistogramModel::fit(&[100.0, f64::INFINITY, 400.0], &hists, 4).is_none());
        assert!(HistogramModel::fit(&[400.0, 200.0, 100.0], &hists, 4).is_none());
        assert!(HistogramModel::fit(&[100.0, 100.0, 400.0], &hists, 4).is_none());
        // The well-formed sequence still fits.
        assert!(HistogramModel::fit(&[100.0, 200.0, 400.0], &hists, 4).is_some());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn profile_fit_panics_on_unordered_sizes() {
        let p1 = stream(1024);
        let p2 = stream(2048);
        let _ = ProfileModel::fit(&[2048.0, 1024.0], &[&p1, &p2], 8);
    }

    #[test]
    fn predict_empty_model_is_empty() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        let m = HistogramModel::fit(&[8.0, 16.0], &[&h1, &h2], 4).unwrap();
        assert!(m.predict(32.0).is_empty());
    }
}
