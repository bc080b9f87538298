//! Statistical accuracy harness for the constant-space sampled analyzer.
//!
//! Every case generates a long address trace from a seeded [`SplitMix64`]
//! stream (the same three access shapes as `property_oracle`: strided,
//! pointer-chasing, clustered — but 20k–60k accesses so a 1% sample still
//! holds enough blocks to estimate from), replays it through both the
//! exact [`ReuseAnalyzer`] and the [`SampledAnalyzer`], and compares the
//! finished profiles:
//!
//! * **rate 1.0** — the sampled profile must equal the exact profile
//!   field for field (only the `sampling` annotation may differ), at
//!   grains 1, 64, and 4096;
//! * **rate 0.1 / 0.01** — at grain 64, the scaled aggregates (total
//!   reuse mass, cold count, distinct-block footprint) and the per-octave
//!   histogram mass must land within the stated relative-error bands
//!   ([`BANDS`]). Octaves holding less than [`MIN_OCTAVE_SHARE`] of the
//!   exact mass are skipped — tiny bins are sampling noise by
//!   construction, and the bands bound where the mass actually is.
//!
//! The bands are deliberately part of the contract: README's
//! "Approximate analysis" section quotes them, so loosening one here
//! must be a visible documentation change too.
//!
//! Failures are deterministic: the panic message carries the case index,
//! seed, rate, and the smallest failing prefix length (found by a
//! fixed-seed coarse shrink loop), so any failure reproduces exactly.

use reuselens_core::{Histogram, ReuseAnalyzer, ReuseProfile, SampledAnalyzer, SamplingConfig};
use reuselens_ir::{Program, ProgramBuilder, RefId};
use reuselens_prng::SplitMix64;
use reuselens_trace::TraceSink;

const BASE_SEED: u64 = 0x0b5e_7e57_0001;
const CASES_PER_SHAPE: usize = 4;
/// Grain the banded statistical checks run at.
const STAT_GRAIN: u64 = 64;
/// Grains the rate-1.0 bit-identity check runs at.
const IDENTITY_GRAINS: [u64; 3] = [1, 64, 4096];
/// Octaves below this share of the exact mass are too small to band.
const MIN_OCTAVE_SHARE: f64 = 0.05;
/// An octave is resolvable only when its distances span at least this
/// many sampling intervals (`1/rate`); below that the scaled estimate is
/// quantization, not measurement.
const RESOLVABLE_INVS: u64 = 4;

/// Relative-error bands per sampling rate: `(rate, aggregate, per_octave)`.
/// `aggregate` bounds total reuse mass, cold count, and the footprint
/// estimate; `per_octave` bounds the mass of each significant resolvable
/// octave. Calibrated against `calibrate_bands_print_errors` (worst
/// observed: 0.067/0.17 at rate 0.1, 0.31/0.28 at rate 0.01) with margin
/// for future hash or shape changes.
const BANDS: [(f64, f64, f64); 2] = [(0.1, 0.15, 0.30), (0.01, 0.45, 0.50)];

/// A one-reference program so the analyzers have a sink to attribute to;
/// the harness drives the [`TraceSink`] interface directly.
fn one_ref_program() -> Program {
    let mut p = ProgramBuilder::new("sampling_accuracy");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.for_("i", 0, 0, |r, i| {
            r.load(a, vec![i.into()]);
        });
    });
    p.finish()
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Strided,
    PointerChasing,
    Clustered,
}

const SHAPES: [Shape; 3] = [Shape::Strided, Shape::PointerChasing, Shape::Clustered];

/// One deterministic long trace for (shape, seed). Footprints span
/// thousands of 64-byte blocks so a 1% spatial sample still tracks tens
/// of blocks.
fn gen_trace(shape: Shape, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let len = rng.gen_range(20_000..60_000) as usize;
    match shape {
        Shape::Strided => {
            let strides = [64u64, 136, 4096];
            let stride = strides[rng.gen_range(0..strides.len() as u64) as usize];
            let footprint = stride * rng.gen_range(2_048..8_192);
            let base = rng.gen_range(0..1 << 24);
            (0..len as u64)
                .map(|i| base + (i * stride) % footprint)
                .collect()
        }
        Shape::PointerChasing => {
            let span = rng.gen_range(1 << 18..1 << 22);
            (0..len).map(|_| rng.gen_range(0..span)).collect()
        }
        Shape::Clustered => {
            let mut addrs = Vec::with_capacity(len);
            let mut cluster = rng.gen_range(0..1 << 26);
            for _ in 0..len {
                if rng.gen_f64() < 0.02 {
                    cluster = rng.gen_range(0..1 << 26);
                }
                addrs.push(cluster + rng.gen_range(0..1 << 14));
            }
            addrs
        }
    }
}

fn run_exact(program: &Program, addrs: &[u64], grain: u64) -> ReuseProfile {
    let mut a = ReuseAnalyzer::new(program, grain);
    for &addr in addrs {
        a.access(RefId(0), addr);
    }
    a.finish()
}

fn run_sampled(
    program: &Program,
    addrs: &[u64],
    grain: u64,
    config: SamplingConfig,
) -> ReuseProfile {
    let mut a = SampledAnalyzer::new(program, grain, config);
    for &addr in addrs {
        a.access(RefId(0), addr);
    }
    a.finish()
}

fn merged(profile: &ReuseProfile) -> Histogram {
    let mut h = Histogram::new();
    for p in &profile.patterns {
        h.merge(&p.histogram);
    }
    h
}

/// Histogram mass per distance octave, keyed by the bit length of the
/// bin's lower edge (octave 0 holds distance 0).
fn octave_mass(h: &Histogram) -> std::collections::BTreeMap<u32, u64> {
    let mut out = std::collections::BTreeMap::new();
    for (lo, _hi, count) in h.iter() {
        *out.entry(64 - lo.leading_zeros()).or_insert(0) += count;
    }
    out
}

fn rel_err(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        if got == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (got - want).abs() / want
    }
}

/// Runs both analyzers over `addrs` and checks the banded comparison.
/// Returns a mismatch description, or `None` when everything is within
/// band.
fn check(
    program: &Program,
    addrs: &[u64],
    rate: f64,
    aggregate_band: f64,
    octave_band: f64,
) -> Option<String> {
    let exact = run_exact(program, addrs, STAT_GRAIN);
    let sampled = run_sampled(program, addrs, STAT_GRAIN, SamplingConfig::fixed(rate));
    if sampled.total_accesses != exact.total_accesses {
        return Some(format!(
            "true access count must not be scaled: sampled {} vs exact {}",
            sampled.total_accesses, exact.total_accesses
        ));
    }
    let he = merged(&exact);
    let hs = merged(&sampled);
    let checks = [
        ("total reuse mass", hs.total() as f64, he.total() as f64),
        (
            "cold count",
            sampled.total_cold() as f64,
            exact.total_cold() as f64,
        ),
        (
            "distinct blocks",
            sampled.distinct_blocks as f64,
            exact.distinct_blocks as f64,
        ),
    ];
    for (what, got, want) in checks {
        let err = rel_err(got, want);
        if err > aggregate_band {
            return Some(format!(
                "{what}: sampled {got:.0} vs exact {want:.0} \
                 (rel err {err:.3} > band {aggregate_band})"
            ));
        }
    }
    // Sampled distances are recorded pre-scaled by `inv`, so both
    // histograms are in true-distance units and octaves compare
    // directly. A measured distance is a noisy estimate of the true one,
    // so mass near an octave edge can spill into a neighbor: each
    // significant exact octave is compared against the sampled mass in
    // the same octave and its immediate neighbors, banded against the
    // exact mass over the same window.
    let exact_mass = octave_mass(&he);
    let sampled_mass = octave_mass(&hs);
    let window = |mass: &std::collections::BTreeMap<u32, u64>, octave: u32| -> f64 {
        (octave.saturating_sub(1)..=octave + 1)
            .filter_map(|o| mass.get(&o))
            .sum::<u64>() as f64
    };
    let total = he.total() as f64;
    let inv = sampled.sampling.expect("sampled profile carries info").inv;
    for (&octave, &mass) in &exact_mass {
        let share = mass as f64 / total.max(1.0);
        if share < MIN_OCTAVE_SHARE {
            continue;
        }
        // Distances below ~RESOLVABLE_INVS/rate are unresolvable: the
        // sampled tree sees fewer than RESOLVABLE_INVS blocks in the
        // reuse interval, so the scaled estimate quantizes to a handful
        // of values. Only octaves above that floor carry a band.
        if (1u64 << octave.saturating_sub(1)) < RESOLVABLE_INVS * inv {
            continue;
        }
        let want = window(&exact_mass, octave);
        let got = window(&sampled_mass, octave);
        let err = rel_err(got, want);
        if err > octave_band {
            return Some(format!(
                "octave {octave} ({}% of mass): sampled window {got:.0} vs exact \
                 window {want:.0} (rel err {err:.3} > band {octave_band})",
                (share * 100.0) as u64
            ));
        }
    }
    None
}

/// Finds a small failing prefix by coarse geometric steps (a full linear
/// shrink over a 60k trace would square the cost). Deterministic: same
/// seed, same prefix.
fn shrink(
    program: &Program,
    addrs: &[u64],
    rate: f64,
    aggregate_band: f64,
    octave_band: f64,
) -> (usize, String) {
    let step = (addrs.len() / 64).max(1);
    let mut plen = step;
    while plen < addrs.len() {
        if let Some(msg) = check(program, &addrs[..plen], rate, aggregate_band, octave_band) {
            return (plen, msg);
        }
        plen += step;
    }
    let msg = check(program, addrs, rate, aggregate_band, octave_band)
        .expect("shrink called on a passing trace");
    (addrs.len(), msg)
}

#[test]
fn rate_one_is_bit_identical_to_exact() {
    let program = one_ref_program();
    let mut case = 0usize;
    for shape in SHAPES {
        for _ in 0..2 {
            let seed = BASE_SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let addrs = gen_trace(shape, seed);
            for grain in IDENTITY_GRAINS {
                let exact = run_exact(&program, &addrs, grain);
                let sampled = run_sampled(&program, &addrs, grain, SamplingConfig::fixed(1.0));
                let info = sampled.sampling.expect("rate 1.0 still marks the profile");
                assert_eq!(
                    info.inv, 1,
                    "case {case} ({shape:?}, seed {seed:#x}): rate 1.0 must mean inv 1"
                );
                let mut stripped = sampled.clone();
                stripped.sampling = None;
                assert_eq!(
                    stripped, exact,
                    "case {case} ({shape:?}, seed {seed:#x}, grain {grain}): \
                     rate-1.0 sampled profile diverges from the exact analyzer"
                );
            }
            case += 1;
        }
    }
}

#[test]
fn sampled_histograms_stay_within_stated_bands() {
    let program = one_ref_program();
    let mut case = 0usize;
    for shape in SHAPES {
        for _ in 0..CASES_PER_SHAPE {
            let seed = BASE_SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let addrs = gen_trace(shape, seed);
            for (rate, aggregate_band, octave_band) in BANDS {
                if check(&program, &addrs, rate, aggregate_band, octave_band).is_some() {
                    let (plen, msg) = shrink(&program, &addrs, rate, aggregate_band, octave_band);
                    panic!(
                        "case {case} ({shape:?}, seed {seed:#x}, rate {rate}): \
                         smallest failing prefix {plen}/{}: {msg}\n\
                         repro: gen_trace({shape:?}, {seed:#x}) truncated to {plen}",
                        addrs.len(),
                    );
                }
            }
            case += 1;
        }
    }
    assert_eq!(case, SHAPES.len() * CASES_PER_SHAPE);
}

/// Adaptive mode must hold its tracked-block budget on every shape while
/// still landing footprint estimates in the fixed-rate band.
#[test]
fn adaptive_mode_holds_budget_on_every_shape() {
    let program = one_ref_program();
    for (case, shape) in SHAPES.into_iter().enumerate() {
        let seed = BASE_SEED ^ 0xada9 ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let addrs = gen_trace(shape, seed);
        let budget = 128u64;
        let mut a = SampledAnalyzer::new(&program, STAT_GRAIN, SamplingConfig::adaptive(budget));
        for &addr in &addrs {
            a.access(RefId(0), addr);
            assert!(
                a.tracked_blocks() <= budget,
                "case {case} ({shape:?}, seed {seed:#x}): \
                 tracked {} blocks, budget {budget}",
                a.tracked_blocks()
            );
        }
        let info = a.sampling_info();
        assert_eq!(
            info.blocks_sampled,
            a.tracked_blocks() + info.blocks_evicted,
            "case {case} ({shape:?}, seed {seed:#x}): sampled/evicted books do not balance"
        );
        let profile = a.finish();
        let exact = run_exact(&program, &addrs, STAT_GRAIN);
        let err = rel_err(profile.distinct_blocks as f64, exact.distinct_blocks as f64);
        assert!(
            err < 0.45,
            "case {case} ({shape:?}, seed {seed:#x}): adaptive footprint estimate \
             {} vs exact {} (rel err {err:.3})",
            profile.distinct_blocks,
            exact.distinct_blocks
        );
    }
}

#[test]
#[ignore]
fn calibrate_bands_print_errors() {
    let program = one_ref_program();
    let mut case = 0usize;
    for shape in SHAPES {
        for _ in 0..CASES_PER_SHAPE {
            let seed = BASE_SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let addrs = gen_trace(shape, seed);
            for (rate, _, _) in BANDS {
                let exact = run_exact(&program, &addrs, STAT_GRAIN);
                let sampled =
                    run_sampled(&program, &addrs, STAT_GRAIN, SamplingConfig::fixed(rate));
                let he = merged(&exact);
                let hs = merged(&sampled);
                let em = octave_mass(&he);
                let sm = octave_mass(&hs);
                let window = |mass: &std::collections::BTreeMap<u32, u64>, octave: u32| -> f64 {
                    (octave.saturating_sub(1)..=octave + 1)
                        .filter_map(|o| mass.get(&o))
                        .sum::<u64>() as f64
                };
                let total = he.total() as f64;
                let inv = sampled.sampling.unwrap().inv;
                let mut worst_oct = 0.0f64;
                for (&o, &m) in &em {
                    if (m as f64 / total.max(1.0)) < MIN_OCTAVE_SHARE {
                        continue;
                    }
                    if (1u64 << o.saturating_sub(1)) < RESOLVABLE_INVS * inv {
                        continue;
                    }
                    worst_oct = worst_oct.max(rel_err(window(&sm, o), window(&em, o)));
                }
                println!(
                    "case {case} {shape:?} rate {rate}: mass {:.3} cold {:.3} distinct {:.3} oct {:.3}",
                    rel_err(hs.total() as f64, he.total() as f64),
                    rel_err(sampled.total_cold() as f64, exact.total_cold() as f64),
                    rel_err(sampled.distinct_blocks as f64, exact.distinct_blocks as f64),
                    worst_oct,
                );
            }
            case += 1;
        }
    }
}
