//! Randomized differential suite: the tree-based analyzer versus the
//! brute-force LRU-stack oracle.
//!
//! Every case generates an address trace from a seeded [`SplitMix64`]
//! stream (strided, pointer-chasing, or clustered — the three access
//! shapes the paper's workloads exhibit), replays it through
//! [`ReuseAnalyzer`] at grains 1/64/4096, and checks, access by access,
//! that the analyzer's measured distance equals
//! [`oracle::stack_distances`]. The finished profile's merged histogram
//! and cold count must match the oracle's aggregates too, and a
//! [`MultiGrainAnalyzer`] over the same stream must produce profiles
//! bit-identical to the per-grain analyzers.
//!
//! Failures are deterministic: the panic message carries the case index,
//! seed, grain, and the smallest failing prefix length (found by a
//! fixed-seed shrink loop), so any failure reproduces exactly.
//!
//! A fourth, scope-rich shape checks attribution as well as distance:
//! seeded programs of nested loops, several references and a helper
//! routine called from two places run through every replay engine, and
//! each profile's full pattern keys and histograms must equal
//! [`oracle::reuse_profile`].
//!
//! Context rows check calling context the same way: programs whose phases
//! are routines that share the helper are split per call path
//! ([`Program::split_contexts`]); the split trace must be the original
//! renamed, every engine's [`ContextProfile::from_split`] fold must equal
//! the oracle's, and the fold summed over contexts must equal the
//! original program's oracle profile.

use reuselens_core::oracle;
use reuselens_core::{
    analyze_buffer_with, analyze_decoded_with, capture_program, AnalysisBudget, AnalyzeOptions,
    CheckpointOptions, ContextProfile, Histogram, MultiGrainAnalyzer, PatternKey, ReuseAnalyzer,
    ReusePattern, ReuseProfile, SamplingConfig,
};
use reuselens_ir::{
    AccessKind, ArrayId, ContextSplit, Expr, Program, ProgramBuilder, RefId, RoutineId, ScopeId,
    ScopeKind, VarId,
};
use reuselens_prng::SplitMix64;
use reuselens_trace::{DecodedTrace, Event, Executor, TraceBuffer, TraceSink, VecSink};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const GRAINS: [u64; 3] = [1, 64, 4096];
const CASES_PER_SHAPE: usize = 72;
const BASE_SEED: u64 = 0x0b5e_7e57_0000;

/// A one-reference program so the analyzer has a sink to attribute to;
/// the property suite drives the [`TraceSink`] interface directly.
fn one_ref_program() -> Program {
    let mut p = ProgramBuilder::new("property_oracle");
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
    /// Constant stride over a wrapped footprint (unit and non-unit).
    Strided,
    /// Uniform random addresses — worst case for any locality shortcut.
    PointerChasing,
    /// Bursts of nearby addresses with occasional far jumps.
    Clustered,
}

const SHAPES: [Shape; 3] = [Shape::Strided, Shape::PointerChasing, Shape::Clustered];

/// Generates one deterministic address trace for (shape, seed).
fn gen_trace(shape: Shape, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let len = rng.gen_range(50..400) as usize;
    match shape {
        Shape::Strided => {
            // Strides straddle the test grains: sub-block, exactly one
            // block, and block-misaligned.
            let strides = [1u64, 8, 64, 136, 4096, 4104];
            let stride = strides[rng.gen_range(0..strides.len() as u64) as usize];
            let footprint = stride * rng.gen_range(8..64);
            let base = rng.gen_range(0..1 << 20);
            (0..len as u64)
                .map(|i| base + (i * stride) % footprint)
                .collect()
        }
        Shape::PointerChasing => {
            let span = rng.gen_range(1 << 8..1 << 16);
            (0..len).map(|_| rng.gen_range(0..span)).collect()
        }
        Shape::Clustered => {
            let mut addrs = Vec::with_capacity(len);
            let mut cluster = rng.gen_range(0..1 << 20);
            for _ in 0..len {
                if rng.gen_f64() < 0.1 {
                    cluster = rng.gen_range(0..1 << 20);
                }
                addrs.push(cluster + rng.gen_range(0..256));
            }
            addrs
        }
    }
}

/// Replays `addrs` through a fresh analyzer at `grain` and diffs it
/// against the oracle, per access and in aggregate. Returns a mismatch
/// description, or `None` when everything agrees.
fn check(program: &Program, addrs: &[u64], grain: u64) -> Option<String> {
    let expected = oracle::stack_distances(addrs, grain);
    let mut analyzer = ReuseAnalyzer::new(program, grain);
    let mut want_hist = Histogram::new();
    let mut want_cold = 0u64;
    for (i, (&addr, want)) in addrs.iter().zip(&expected).enumerate() {
        analyzer.access(RefId(0), addr, 8, AccessKind::Load);
        let got = analyzer.last_distance();
        if got != *want {
            return Some(format!(
                "access {i} (addr {addr:#x}): analyzer says {got:?}, oracle says {want:?}"
            ));
        }
        match want {
            Some(d) => want_hist.add(*d),
            None => want_cold += 1,
        }
    }
    let profile = analyzer.finish();
    let mut got_hist = Histogram::new();
    for p in &profile.patterns {
        got_hist.merge(&p.histogram);
    }
    if got_hist != want_hist {
        return Some(format!(
            "merged histogram mismatch: {} reuses measured, {} expected",
            got_hist.total(),
            want_hist.total()
        ));
    }
    if profile.total_cold() != want_cold {
        return Some(format!(
            "cold mismatch: {} measured, {want_cold} expected",
            profile.total_cold()
        ));
    }
    if profile.total_accesses != addrs.len() as u64 {
        return Some(format!(
            "access count mismatch: {} measured, {} expected",
            profile.total_accesses,
            addrs.len()
        ));
    }
    None
}

/// Finds the smallest failing prefix of `addrs` — the shrunk repro. The
/// trace is fixed (same seed), so the search is deterministic.
fn shrink(program: &Program, addrs: &[u64], grain: u64) -> (usize, String) {
    for plen in 1..=addrs.len() {
        if let Some(msg) = check(program, &addrs[..plen], grain) {
            return (plen, msg);
        }
    }
    unreachable!("shrink called on a passing trace");
}

#[test]
fn analyzer_matches_oracle_on_random_traces() {
    let program = one_ref_program();
    let mut case = 0usize;
    for shape in SHAPES {
        for _ in 0..CASES_PER_SHAPE {
            let seed = BASE_SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let addrs = gen_trace(shape, seed);
            for grain in GRAINS {
                if check(&program, &addrs, grain).is_some() {
                    let (plen, msg) = shrink(&program, &addrs, grain);
                    panic!(
                        "case {case} ({shape:?}, seed {seed:#x}, grain {grain}): \
                         smallest failing prefix {plen}/{}: {msg}\n\
                         prefix: {:?}",
                        addrs.len(),
                        &addrs[..plen],
                    );
                }
            }
            case += 1;
        }
    }
    assert_eq!(case, SHAPES.len() * CASES_PER_SHAPE);
}

/// A [`MultiGrainAnalyzer`] over one stream must equal independent
/// per-grain analyzers — same fan-out the replay pipeline relies on.
#[test]
fn multi_grain_matches_independent_analyzers() {
    let program = one_ref_program();
    for case in 0..8usize {
        let seed = BASE_SEED ^ 0xfeed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let shape = SHAPES[case % SHAPES.len()];
        let addrs = gen_trace(shape, seed);
        let mut multi = MultiGrainAnalyzer::new(&program, &GRAINS);
        let mut singles: Vec<ReuseAnalyzer> = GRAINS
            .iter()
            .map(|&g| ReuseAnalyzer::new(&program, g))
            .collect();
        for &addr in &addrs {
            multi.access(RefId(0), addr, 8, AccessKind::Load);
            for s in &mut singles {
                s.access(RefId(0), addr, 8, AccessKind::Load);
            }
        }
        let multi_profiles = multi.finish();
        for (mp, s) in multi_profiles.iter().zip(singles) {
            let sp = s.finish();
            assert_eq!(
                mp, &sp,
                "case {case} (seed {seed:#x}): multi-grain profile at grain {} \
                 diverges from the standalone analyzer",
                sp.block_size
            );
        }
    }
}

const SCOPE_RICH_CASES: u64 = 48;

/// One statement of a generated program.
enum Node {
    /// A loop of `trips` iterations.
    Loop { trips: i64, body: Vec<Node> },
    /// `array[(offset + sum(stride_k * var_k)) mod len]` over the
    /// enclosing loop variables, innermost last.
    Access {
        array: usize,
        offset: i64,
        strides: Vec<i64>,
        store: bool,
    },
    /// A call to the shared helper routine.
    Call,
}

/// A loop body at nesting `depth` (with `depth + 1` loop variables in
/// scope): one to three statements, loops nesting at most three deep.
fn gen_body(rng: &mut SplitMix64, depth: usize, arrays: usize) -> Vec<Node> {
    (0..rng.gen_range(1..4))
        .map(|_| match rng.gen_range(0..8) {
            0..=2 if depth < 3 => Node::Loop {
                trips: rng.gen_range_i64(2..7),
                body: gen_body(rng, depth + 1, arrays),
            },
            3 if depth > 0 => Node::Call,
            _ => Node::Access {
                array: rng.gen_range(0..arrays as u64) as usize,
                offset: rng.gen_range_i64(0..64),
                strides: (0..=depth).map(|_| rng.gen_range_i64(-3..9)).collect(),
                store: rng.gen_f64() < 0.3,
            },
        })
        .collect()
}

fn emit(
    r: &mut reuselens_ir::BodyBuilder<'_>,
    nodes: &[Node],
    vars: &mut Vec<VarId>,
    arrays: &[(ArrayId, i64)],
    helper: RoutineId,
) {
    for node in nodes {
        match node {
            Node::Loop { trips, body } => {
                r.for_(&format!("l{}", vars.len()), 0, trips - 1, |r, v| {
                    vars.push(v);
                    emit(r, body, vars, arrays, helper);
                    vars.pop();
                });
            }
            Node::Access {
                array,
                offset,
                strides,
                store,
            } => {
                let (id, len) = arrays[*array];
                let mut index = Expr::c(*offset);
                for (&v, &stride) in vars.iter().zip(strides) {
                    index = index + Expr::var(v) * stride;
                }
                let index = vec![index.rem(len)];
                if *store {
                    r.store(id, index);
                } else {
                    r.load(id, index);
                }
            }
            Node::Call => r.call(helper),
        }
    }
}

/// A seeded scope-rich program: a time loop around two generated loop
/// nests over two to four arrays, and a helper routine (its own loop over
/// the first array) that the nests may call.
fn scope_rich_program(seed: u64) -> Program {
    build_scope_rich(seed, false)
}

/// [`scope_rich_program`] with each phase's loop nest in its own routine
/// that ends by calling the helper, so the helper always runs under two
/// calling contexts (and under more wherever the nests call it too).
fn phase_routine_program(seed: u64) -> Program {
    build_scope_rich(seed, true)
}

fn build_scope_rich(seed: u64, phase_routines: bool) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut p = ProgramBuilder::new("scope_rich");
    let arrays: Vec<(ArrayId, i64)> = (0..rng.gen_range(2..5))
        .map(|k| {
            let len = rng.gen_range(8..400);
            (p.array(format!("a{k}"), 8, &[len]), len as i64)
        })
        .collect();
    let phases = [
        gen_body(&mut rng, 1, arrays.len()),
        gen_body(&mut rng, 1, arrays.len()),
    ];
    let helper_trips = rng.gen_range_i64(2..8);
    let helper = p.declare_routine("helper");
    let emit_phase = |r: &mut reuselens_ir::BodyBuilder<'_>, phase: &[Node], t: VarId| {
        r.for_("phase", 0, 2, |r, v| {
            let mut vars = vec![t, v];
            emit(r, phase, &mut vars, &arrays, helper);
        });
    };
    if phase_routines {
        let routines: Vec<RoutineId> = (0..phases.len())
            .map(|k| p.declare_routine(format!("phase{k}")))
            .collect();
        let mut time = None;
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, t| {
                time = Some(t);
                for &routine in &routines {
                    r.call(routine);
                }
            });
        });
        let t = time.unwrap();
        for (&routine, phase) in routines.iter().zip(&phases) {
            p.define_routine(routine, |r| {
                emit_phase(r, phase, t);
                r.call(helper);
            });
        }
    } else {
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, t| {
                for phase in &phases {
                    emit_phase(r, phase, t);
                }
            });
        });
    }
    let (first, len) = arrays[0];
    p.define_routine(helper, |r| {
        r.for_("h", 0, helper_trips - 1, |r, h| {
            r.load(first, vec![(Expr::var(h) * 3).rem(len)]);
        });
    });
    p.finish()
}

/// Every field the oracle computes, compared one by one so a mismatch
/// names the field (`sampling` is the engine's own bookkeeping).
fn same_measurements(got: &ReuseProfile, want: &ReuseProfile) -> Result<(), String> {
    if got.patterns != want.patterns {
        let got_keys: Vec<_> = got.patterns.iter().map(|p| p.key).collect();
        let want_keys: Vec<_> = want.patterns.iter().map(|p| p.key).collect();
        return Err(if got_keys == want_keys {
            "pattern histograms differ".to_string()
        } else {
            format!("pattern keys differ: got {got_keys:?}, want {want_keys:?}")
        });
    }
    if got.cold != want.cold {
        let (got, want) = (&got.cold, &want.cold);
        return Err(format!("cold counts differ: got {got:?}, want {want:?}"));
    }
    if (got.total_accesses, got.distinct_blocks) != (want.total_accesses, want.distinct_blocks) {
        return Err(format!(
            "totals differ: got {} accesses / {} blocks, want {} / {}",
            got.total_accesses, got.distinct_blocks, want.total_accesses, want.distinct_blocks
        ));
    }
    Ok(())
}

/// How a row of the engine matrix configures replay beyond its sampling
/// and thread count.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Default options.
    Plain,
    /// A budget too roomy to trip on any axis.
    RoomyBudget,
    /// Snapshot every sixth of the trace.
    Checkpointed,
    /// Resume from a snapshot directory whose newer half was deleted and
    /// whose newest survivor was truncated mid-file.
    Resumed,
}

/// Options for one matrix row; for [`Mode::Resumed`] this first leaves a
/// truncated snapshot directory behind in `dir` to resume from.
fn row_options(
    program: &Program,
    buffer: &TraceBuffer,
    grain: u64,
    base: AnalyzeOptions,
    mode: Mode,
    dir: &Path,
) -> AnalyzeOptions {
    let checkpoint = |resume| CheckpointOptions {
        dir: dir.to_path_buf(),
        every: (buffer.events() / 6).max(1),
        resume,
    };
    match mode {
        Mode::Plain => base,
        Mode::RoomyBudget => AnalyzeOptions {
            budget: AnalysisBudget::unlimited().with_max_events(1 << 40),
            ..base
        },
        Mode::Checkpointed => AnalyzeOptions {
            checkpoint: Some(checkpoint(false)),
            ..base
        },
        Mode::Resumed => {
            let populate = AnalyzeOptions {
                checkpoint: Some(checkpoint(false)),
                ..base.clone()
            };
            assert!(analyze_buffer_with(program, buffer, &[grain], &populate).is_complete());
            let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            files.sort();
            assert!(files.len() >= 4, "only {} snapshots written", files.len());
            let keep = files.len().div_ceil(2);
            for stale in &files[keep..] {
                std::fs::remove_file(stale).unwrap();
            }
            if let Some(newest) = files[..keep].last() {
                let bytes = std::fs::read(newest).unwrap();
                std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();
            }
            AnalyzeOptions {
                checkpoint: Some(checkpoint(true)),
                ..base
            }
        }
    }
}

/// Which form of the captured trace a row replays.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// The encoded buffer, through [`analyze_buffer_with`].
    Buffer,
    /// Its [`DecodedTrace`], through [`analyze_decoded_with`].
    Decoded,
}

/// Replays `grain` of `buffer` (or of `decoded`) as the row says.
fn replay(
    program: &Program,
    buffer: &TraceBuffer,
    decoded: &DecodedTrace,
    source: Source,
    grain: u64,
    opts: &AnalyzeOptions,
) -> reuselens_core::PartialAnalysis {
    match source {
        Source::Buffer => analyze_buffer_with(program, buffer, &[grain], opts),
        Source::Decoded => analyze_decoded_with(program, decoded, &[grain], opts),
    }
}

/// The engine matrix: every replay configuration that must reproduce the
/// oracle exactly.
fn engines() -> [(&'static str, SamplingConfig, Mode, Source); 12] {
    let (exact, rate_one) = (SamplingConfig::Exact, SamplingConfig::fixed(1.0));
    let buffer = Source::Buffer;
    [
        ("serial exact", exact, Mode::Plain, buffer),
        ("serial sampled 1/1", rate_one, Mode::Plain, buffer),
        ("roomy budget exact", exact, Mode::RoomyBudget, buffer),
        (
            "roomy budget sampled 1/1",
            rate_one,
            Mode::RoomyBudget,
            buffer,
        ),
        ("checkpointed exact", exact, Mode::Checkpointed, buffer),
        (
            "checkpointed sampled 1/1",
            rate_one,
            Mode::Checkpointed,
            buffer,
        ),
        ("resumed exact", exact, Mode::Resumed, buffer),
        ("resumed sampled 1/1", rate_one, Mode::Resumed, buffer),
        ("decoded exact", exact, Mode::Plain, Source::Decoded),
        (
            "decoded sampled 1/1",
            rate_one,
            Mode::Plain,
            Source::Decoded,
        ),
        (
            "decoded resumed exact",
            exact,
            Mode::Resumed,
            Source::Decoded,
        ),
        (
            "decoded resumed sampled 1/1",
            rate_one,
            Mode::Resumed,
            Source::Decoded,
        ),
    ]
}

/// Scope-rich programs through the online exact analyzer and through
/// buffer replay — exact and rate-1 sampled, plain, with a roomy budget,
/// with checkpoints, and with a resume
/// from a truncated snapshot directory, plain and resumed also from the
/// buffer's decoded form — must all reproduce the
/// brute-force attribution exactly: same (sink, source scope, carrier)
/// keys, same histograms, same cold counts.
#[test]
fn every_engine_matches_oracle_attribution_on_scope_rich_programs() {
    let engines = engines();
    let dir = std::env::temp_dir().join(format!(
        "reuselens-property-oracle-ckpt-{}",
        std::process::id()
    ));
    let mut scoped_patterns = 0usize;
    for case in 0..SCOPE_RICH_CASES {
        let seed = BASE_SEED ^ 0x5c0e ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let program = scope_rich_program(seed);
        let mut events = VecSink::new();
        Executor::new(&program).run(&mut events).unwrap();
        let (buffer, _) = capture_program(&program, vec![]).unwrap();
        let decoded = DecodedTrace::new(&buffer);
        for grain in GRAINS {
            let want = oracle::reuse_profile(&program, &events.events, grain);
            scoped_patterns += want.patterns.len();
            let mut online = ReuseAnalyzer::new(&program, grain);
            Executor::new(&program).run(&mut online).unwrap();
            if let Err(msg) = same_measurements(&online.finish(), &want) {
                panic!("case {case} (seed {seed:#x}, grain {grain}), online exact: {msg}");
            }
            for (name, sampling, mode, source) in engines {
                std::fs::remove_dir_all(&dir).ok();
                let base = AnalyzeOptions {
                    sampling,
                    ..AnalyzeOptions::default()
                };
                let opts = row_options(&program, &buffer, grain, base, mode, &dir);
                let partial = replay(&program, &buffer, &decoded, source, grain, &opts);
                assert!(partial.is_complete(), "case {case}: {name} replay failed");
                if let Err(msg) = same_measurements(&partial.profiles[0], &want) {
                    panic!("case {case} (seed {seed:#x}, grain {grain}), {name}: {msg}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // The shape must actually be scope-rich: many distinct patterns per
    // profile, not one loop's worth.
    assert!(
        scoped_patterns > SCOPE_RICH_CASES as usize * GRAINS.len() * 4,
        "only {scoped_patterns} patterns across all cases"
    );
}

/// A context-split run renamed back to the original program's ids.
fn original_events(split: &ContextSplit, events: &[Event]) -> Vec<Event> {
    let scope = |s: ScopeId| split.scope_origin[s.index()];
    events
        .iter()
        .map(|&e| match e {
            Event::Access {
                r,
                addr,
                size,
                kind,
            } => Event::Access {
                r: split.ref_origin[r.index()].0,
                addr,
                size,
                kind,
            },
            Event::Enter(s) => Event::Enter(scope(s)),
            Event::Exit(s) => Event::Exit(scope(s)),
        })
        .collect()
}

/// The routine scopes active at each access of an original run,
/// outermost first: the calling context an access runs under.
fn call_paths(program: &Program, events: &[Event]) -> Vec<Vec<ScopeId>> {
    let is_routine = |s: ScopeId| matches!(program.scope(s).kind(), ScopeKind::Routine(_));
    let mut path = Vec::new();
    let mut out = Vec::new();
    for e in events {
        match *e {
            Event::Enter(s) if is_routine(s) => path.push(s),
            Event::Exit(s) if is_routine(s) => assert_eq!(path.pop(), Some(s)),
            Event::Access { .. } => out.push(path.clone()),
            _ => {}
        }
    }
    out
}

/// A context-keyed profile with the context key dropped: histograms merge
/// per *(sink, source scope, carrier)*.
fn sum_over_contexts(cp: &ContextProfile, distinct_blocks: u64) -> ReuseProfile {
    let mut merged: BTreeMap<PatternKey, Histogram> = BTreeMap::new();
    for p in &cp.patterns {
        let key = PatternKey {
            sink: p.key.sink,
            source_scope: p.key.source_scope,
            carrier: p.key.carrier,
        };
        merged.entry(key).or_default().merge(&p.histogram);
    }
    ReuseProfile {
        block_size: cp.block_size,
        patterns: merged
            .into_iter()
            .map(|(key, histogram)| ReusePattern { key, histogram })
            .collect(),
        cold: cp.cold.clone(),
        total_accesses: cp.total_accesses,
        distinct_blocks,
        sampling: None,
    }
}

/// Context sensitivity is a program transformation: the context-split
/// program's trace is the original's with ids renamed, every engine row
/// measures it exactly as the oracle does, and dropping the context key
/// from the fold recovers the original program's oracle profile.
#[test]
fn context_split_matches_oracle_in_every_engine() {
    let dir = std::env::temp_dir().join(format!(
        "reuselens-property-oracle-ctx-ckpt-{}",
        std::process::id()
    ));
    let mut split_sinks = 0usize;
    for case in 0..SCOPE_RICH_CASES {
        let seed = BASE_SEED ^ 0xc0de ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let program = phase_routine_program(seed);
        let split = program.split_contexts().unwrap();
        let mut events = VecSink::new();
        Executor::new(&program).run(&mut events).unwrap();
        let mut split_events = VecSink::new();
        Executor::new(&split.program)
            .run(&mut split_events)
            .unwrap();
        assert!(
            original_events(&split, &split_events.events) == events.events,
            "case {case} (seed {seed:#x}): split trace is not the original renamed"
        );
        assert_eq!(
            call_paths(&program, &events.events),
            split_events
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Access { r, .. } => {
                        Some(split.contexts[split.ref_origin[r.index()].1 as usize].clone())
                    }
                    _ => None,
                })
                .collect::<Vec<_>>(),
            "case {case} (seed {seed:#x}): a split reference names the wrong context"
        );
        let distinct: BTreeSet<&Vec<ScopeId>> = split.contexts.iter().collect();
        assert_eq!(
            distinct.len(),
            split.contexts.len(),
            "case {case}: repeated context"
        );
        let (buffer, _) = capture_program(&split.program, vec![]).unwrap();
        let decoded = DecodedTrace::new(&buffer);
        for grain in GRAINS {
            let split_want = oracle::reuse_profile(&split.program, &split_events.events, grain);
            let want = ContextProfile::from_split(&split, &split_want);
            let flat = oracle::reuse_profile(&program, &events.events, grain);
            let summed = sum_over_contexts(&want, split_want.distinct_blocks);
            if let Err(msg) = same_measurements(&summed, &flat) {
                panic!("case {case} (seed {seed:#x}, grain {grain}), summed contexts: {msg}");
            }
            split_sinks += program
                .references()
                .iter()
                .filter(|r| want.contexts_of_sink(r.id()).len() > 1)
                .count();
            for (name, sampling, mode, source) in engines() {
                std::fs::remove_dir_all(&dir).ok();
                let base = AnalyzeOptions {
                    sampling,
                    ..AnalyzeOptions::default()
                };
                let opts = row_options(&split.program, &buffer, grain, base, mode, &dir);
                let partial = replay(&split.program, &buffer, &decoded, source, grain, &opts);
                assert!(partial.is_complete(), "case {case}: {name} replay failed");
                let got = ContextProfile::from_split(&split, &partial.profiles[0]);
                assert!(
                    got == want,
                    "case {case} (seed {seed:#x}, grain {grain}), {name}: \
                     context-keyed profile differs from the oracle's fold"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // The helper runs under both phase routines in every case.
    assert!(
        split_sinks >= SCOPE_RICH_CASES as usize * GRAINS.len(),
        "only {split_sinks} sinks observed under several contexts"
    );
}
