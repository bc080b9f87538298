//! Randomized differential suite for time-partitioned single-grain
//! replay: partitioned must equal serial **bit for bit**.
//!
//! Every case builds a seeded [`SplitMix64`] trace buffer directly —
//! strided, pointer-chasing, or clustered addresses, five sink
//! references, and a randomly nested scope structure so carrier
//! attribution is exercised across partition boundaries — then replays
//! it serially and partitioned at 1/2/3/8 partitions and diffs the full
//! `ReuseProfile` vectors. The identity must also hold under
//! `SamplingConfig::fixed` and under non-tripping `AnalysisBudget` caps;
//! tripping caps must surface the *same* `BudgetLimit` kind both ways,
//! and injected faults (corrupted buffer, panicking grain) must degrade
//! through `PartialAnalysis` without hanging or harming sibling grains.
//!
//! Failures are deterministic: the panic message carries the case index,
//! shape, seed, grain, and partition count.

use reuselens_core::{
    analyze_buffer_with, AnalysisBudget, AnalyzeOptions, BudgetLimit, GrainError, ReplayThreads,
    ReuseProfile, SamplingConfig,
};
use reuselens_ir::{AccessKind, Program, ProgramBuilder, RefId, ScopeId};
use reuselens_prng::SplitMix64;
use reuselens_trace::{TraceBuffer, TraceSink};

const GRAINS: [u64; 3] = [1, 64, 4096];
const PARTS: [usize; 4] = [1, 2, 3, 8];
const CASES_PER_SHAPE: usize = 12;
const NREFS: u32 = 5;
const BASE_SEED: u64 = 0x9a27_11ce_0000;

/// A program with [`NREFS`] references so the buffer's `RefId`s resolve
/// to real sinks; the suite drives the buffer's [`TraceSink`] interface
/// directly, so the program body itself is never executed.
fn program() -> Program {
    let mut p = ProgramBuilder::new("partition_identity");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.for_("i", 0, 0, |r, i| {
            for _ in 0..NREFS {
                r.load(a, vec![i.into()]);
            }
        });
    });
    p.finish()
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Constant stride over a wrapped footprint (unit and non-unit).
    Strided,
    /// Uniform random addresses — maximal cross-partition unknowns.
    PointerChasing,
    /// Bursts of nearby addresses with occasional far jumps.
    Clustered,
}

const SHAPES: [Shape; 3] = [Shape::Strided, Shape::PointerChasing, Shape::Clustered];

/// Next address for one step of `shape`, mutating the walker state.
fn next_addr(shape: Shape, rng: &mut SplitMix64, i: u64, walker: &mut u64) -> u64 {
    match shape {
        Shape::Strided => {
            // walker holds (base, stride, footprint) packed at gen time.
            let stride = (*walker >> 40) & 0xffff;
            let footprint = (*walker >> 20) & 0xf_ffff;
            let base = *walker & 0xf_ffff;
            base + (i * stride) % footprint.max(1)
        }
        Shape::PointerChasing => rng.gen_range(0..1 << 16),
        Shape::Clustered => {
            if rng.gen_f64() < 0.1 {
                *walker = rng.gen_range(0..1 << 20);
            }
            *walker + rng.gen_range(0..256)
        }
    }
}

/// Builds one deterministic trace buffer for (shape, seed): 400–2000
/// accesses over five references, with scopes entered and exited at
/// random so reuse arcs cross scope *and* partition boundaries.
fn gen_buffer(shape: Shape, seed: u64) -> TraceBuffer {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let len = rng.gen_range(400..2000);
    let mut walker = match shape {
        Shape::Strided => {
            let strides = [1u64, 8, 64, 136, 4096];
            let stride = strides[rng.gen_range(0..strides.len() as u64) as usize];
            let footprint = (stride * rng.gen_range(8..64)).min(0xf_ffff);
            let base = rng.gen_range(0..1 << 16);
            (stride << 40) | (footprint << 20) | base
        }
        _ => rng.gen_range(0..1 << 20),
    };
    let mut buf = TraceBuffer::new();
    let mut open: Vec<u32> = Vec::new();
    buf.enter(ScopeId(1));
    open.push(1);
    for i in 0..len {
        if rng.gen_f64() < 0.05 && open.len() < 6 {
            let id = 2 + open.len() as u32;
            buf.enter(ScopeId(id));
            open.push(id);
        } else if rng.gen_f64() < 0.05 && open.len() > 1 {
            let id = open.pop().unwrap();
            buf.exit(ScopeId(id));
        }
        let kind = if i % 3 == 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let addr = next_addr(shape, &mut rng, i, &mut walker);
        buf.access(
            RefId((rng.gen_range(0..NREFS as u64)) as u32),
            addr,
            8,
            kind,
        );
    }
    while let Some(id) = open.pop() {
        buf.exit(ScopeId(id));
    }
    buf
}

/// Runs the full grain set through `analyze_buffer_with`, strict.
fn profiles(program: &Program, buf: &TraceBuffer, opts: &AnalyzeOptions) -> Vec<ReuseProfile> {
    let (profiles, _timings) = analyze_buffer_with(program, buf, &GRAINS, opts)
        .into_strict()
        .expect("healthy replay must complete");
    profiles
}

fn case_seed(case: usize) -> u64 {
    BASE_SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The tentpole identity: partitioned replay at every partition count is
/// bit-identical to serial replay on every shape, seed, and grain.
#[test]
fn partitioned_replay_matches_serial_bit_for_bit() {
    let program = program();
    let mut case = 0usize;
    for shape in SHAPES {
        for _ in 0..CASES_PER_SHAPE {
            let seed = case_seed(case);
            let buf = gen_buffer(shape, seed);
            let serial = profiles(&program, &buf, &AnalyzeOptions::default());
            for parts in PARTS {
                let opts = AnalyzeOptions {
                    replay_threads: ReplayThreads::Fixed(parts),
                    ..AnalyzeOptions::default()
                };
                let part = profiles(&program, &buf, &opts);
                assert_eq!(
                    serial, part,
                    "case {case} ({shape:?}, seed {seed:#x}, parts {parts}): \
                     partitioned profiles diverge from serial"
                );
            }
            case += 1;
        }
    }
    assert_eq!(case, SHAPES.len() * CASES_PER_SHAPE);
}

/// The identity survives fixed-rate sampling: the spatial-hash gate is
/// clock-independent, so every partition admits exactly the blocks the
/// serial sampled replay admits, and the stitched scaled histograms must
/// match bit for bit — `SamplingInfo` annotations included.
#[test]
fn partitioned_sampled_replay_matches_serial_sampled() {
    let program = program();
    let mut case = 0usize;
    for shape in SHAPES {
        for _ in 0..CASES_PER_SHAPE / 2 {
            let seed = case_seed(case) ^ 0x5a11;
            let buf = gen_buffer(shape, seed);
            for rate in [0.5, 0.1] {
                let serial = profiles(
                    &program,
                    &buf,
                    &AnalyzeOptions {
                        sampling: SamplingConfig::fixed(rate),
                        ..AnalyzeOptions::default()
                    },
                );
                for parts in PARTS {
                    let opts = AnalyzeOptions {
                        sampling: SamplingConfig::fixed(rate),
                        replay_threads: ReplayThreads::Fixed(parts),
                        ..AnalyzeOptions::default()
                    };
                    let part = profiles(&program, &buf, &opts);
                    assert_eq!(
                        serial, part,
                        "case {case} ({shape:?}, seed {seed:#x}, rate {rate}, \
                         parts {parts}): sampled partitioned profiles diverge"
                    );
                }
            }
            case += 1;
        }
    }
}

/// Budgets that the workload fits inside change nothing; budgets it
/// exceeds trip the *same* limit kind partitioned as serial (single-cap
/// configs, so the kind is unambiguous).
#[test]
fn partitioned_replay_respects_budgets_like_serial() {
    let program = program();
    let buf = gen_buffer(Shape::PointerChasing, case_seed(99));
    let grains = [64u64];

    // Generous caps: identical profiles, no failures.
    let roomy = AnalysisBudget::unlimited().with_max_events(1 << 30);
    let serial_ok = analyze_buffer_with(
        &program,
        &buf,
        &grains,
        &AnalyzeOptions {
            budget: roomy,
            ..AnalyzeOptions::default()
        },
    )
    .into_strict()
    .expect("roomy budget must not trip");
    for parts in PARTS {
        let part_ok = analyze_buffer_with(
            &program,
            &buf,
            &grains,
            &AnalyzeOptions {
                budget: roomy,
                replay_threads: ReplayThreads::Fixed(parts),
                ..AnalyzeOptions::default()
            },
        )
        .into_strict()
        .expect("roomy budget must not trip partitioned");
        assert_eq!(serial_ok.0, part_ok.0, "parts {parts}: budgeted identity");
    }

    // Tripping caps, one axis each: same kind both ways, and the
    // partitioned run must terminate (drain, not hang) on every axis.
    let cases = [
        (
            AnalysisBudget::unlimited().with_max_events(100),
            BudgetLimit::Events,
        ),
        (
            AnalysisBudget::unlimited().with_max_distinct_blocks(8),
            BudgetLimit::DistinctBlocks,
        ),
        (
            AnalysisBudget::unlimited().with_max_tree_nodes(8),
            BudgetLimit::TreeNodes,
        ),
    ];
    for (budget, want) in cases {
        let serial = analyze_buffer_with(
            &program,
            &buf,
            &grains,
            &AnalyzeOptions {
                budget,
                ..AnalyzeOptions::default()
            },
        );
        let serial_fail = serial.failure_at(64).expect("serial budget must trip");
        match &serial_fail.error {
            GrainError::Budget(b) => assert_eq!(b.limit, want),
            other => panic!("expected serial budget trip, got {other}"),
        }
        for parts in PARTS {
            let part = analyze_buffer_with(
                &program,
                &buf,
                &grains,
                &AnalyzeOptions {
                    budget,
                    replay_threads: ReplayThreads::Fixed(parts),
                    ..AnalyzeOptions::default()
                },
            );
            let failure = part
                .failure_at(64)
                .unwrap_or_else(|| panic!("parts {parts}: partitioned budget must trip {want:?}"));
            match &failure.error {
                GrainError::Budget(b) => assert_eq!(
                    b.limit, want,
                    "parts {parts}: partitioned trip kind diverges from serial"
                ),
                other => panic!("parts {parts}: expected {want:?} trip, got {other}"),
            }
        }
    }
}

/// Fault injection: a grain that panics (block size 0) partitioned is
/// isolated from healthy siblings whose profiles stay bit-identical to a
/// serial run.
#[test]
fn partitioned_replay_degrades_cleanly_under_faults() {
    let program = program();
    let buf = gen_buffer(Shape::Clustered, case_seed(7));
    let opts = AnalyzeOptions {
        replay_threads: ReplayThreads::Fixed(3),
        ..AnalyzeOptions::default()
    };
    let partial = analyze_buffer_with(&program, &buf, &[64, 0, 4096], &opts);
    assert_eq!(partial.failures.len(), 1);
    let failure = partial.failure_at(0).expect("grain 0 must fail");
    match &failure.error {
        GrainError::Panicked(msg) => {
            assert!(msg.contains("power of two"), "unexpected message: {msg}")
        }
        other => panic!("expected a panic report, got {other}"),
    }
    let healthy = profiles(&program, &buf, &AnalyzeOptions::default());
    assert_eq!(
        partial.profile_at(64),
        healthy.iter().find(|p| p.block_size == 64)
    );
    assert_eq!(
        partial.profile_at(4096),
        healthy.iter().find(|p| p.block_size == 4096)
    );
}
