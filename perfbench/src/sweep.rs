//! The variant-sweep workload: the paper's tuning loop run over every
//! transformation variant of Sweep3D.
//!
//! One job is one sweep: every variant, in an order shuffled by the seed,
//! analyzed end to end — the zero-trace estimate, then capture, a round
//! trip through the on-disk trace store, replay at line and page grain,
//! scoring and attribution against each hierarchy, and the text summary.
//! Jobs run back to back on one thread. A whole sweep is the unit because
//! single-variant times on a shared host swing between a fast and a slow
//! mode for runs of a few jobs, which moves their median by a third from
//! run to run; a sweep spans several such runs and its time does not.

use std::path::Path;
use std::time::{Duration, Instant};

use reuselens::cache::{HierarchyReport, LevelPrediction, MemoryHierarchy};
use reuselens::core::{analyze_buffer, capture_program, AnalysisResult, ReuseProfile};
use reuselens::metrics::{attribute_analysis, format_summary, run_locality_estimate};
use reuselens::store::{TraceMeta, TraceStore};
use reuselens::workloads::{sweep3d, BuiltWorkload};
use reuselens_prng::SplitMix64;

use crate::{layers, shuffle, Args, Measured};

/// Cubic mesh extent of every Sweep3D variant.
const SWEEP3D_MESH: u64 = 8;
/// Capacity divisors of the scored Itanium2 hierarchies: working sets
/// that fit the largest miss the smallest, so the sweep crosses capacity
/// boundaries.
const SCALES: [u64; 3] = [16, 32, 64];
/// Set-ups per run; `setup_s` is their median. The host's speed shifts
/// for seconds at a time, so all but the first are spread evenly between
/// the measured jobs: set-ups bunched before the jobs sample a different
/// host than the jobs do.
const SETUPS: u32 = 25;
/// Largest static-vs-dynamic miss-rate gap per cache level, the band
/// `tests/static_vs_dynamic.rs` enforces.
const STATIC_BAND: f64 = 0.08;
/// Slack for comparing predicted miss counts, which are sums of floats.
const EPS: f64 = 1e-6;

struct Variant {
    label: String,
    workload: BuiltWorkload,
}

/// What a set-up leaves for the jobs that follow it.
struct Prepared {
    variants: Vec<Variant>,
    store: TraceStore,
    results: Vec<Results>,
}

/// Everything one job produces; a measured job must reproduce the
/// set-up's run of the same variant exactly.
#[derive(PartialEq)]
struct Results {
    estimate: HierarchyReport,
    profiles: Vec<ReuseProfile>,
    reports: Vec<HierarchyReport>,
    summaries: Vec<String>,
}

fn variants() -> Vec<Variant> {
    let base = || sweep3d::SweepConfig::new(SWEEP3D_MESH);
    [
        ("original", base()),
        ("mi-block-2", base().with_mi_block(2)),
        ("mi-block-3", base().with_mi_block(3)),
        ("mi-block-6", base().with_mi_block(6)),
        ("dim-interchange", base().with_dim_interchange()),
        (
            "mi-block-6+dim-interchange",
            base().with_mi_block(6).with_dim_interchange(),
        ),
        ("octant-inner", base().with_octant_inner()),
    ]
    .into_iter()
    .map(|(label, cfg)| Variant {
        label: label.to_string(),
        workload: sweep3d::build(&cfg),
    })
    .collect()
}

/// One job. Returns the results and the number of trace events loaded
/// back from the store.
fn analyze(
    v: &Variant,
    store: &mut TraceStore,
    hierarchies: &[MemoryHierarchy],
) -> Result<(Results, u64), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", v.label);
    let (program, index_arrays) = (&v.workload.program, &v.workload.index_arrays);
    let grains = hierarchies[0].required_granularities();
    let estimate = run_locality_estimate(program, &hierarchies[0], index_arrays)
        .analysis
        .report;
    let (buffer, exec) =
        capture_program(program, index_arrays.clone()).map_err(|e| fail("capture", &e))?;
    let meta = TraceMeta {
        workload: v.label.clone(),
        grains: grains.clone(),
    };
    store
        .put("trace", &buffer, meta)
        .map_err(|e| fail("store put", &e))?;
    let loaded = store.get("trace").map_err(|e| fail("store get", &e))?;
    store.evict("trace").map_err(|e| fail("store evict", &e))?;
    if (loaded.events(), loaded.accesses()) != (buffer.events(), buffer.accesses()) {
        return Err(format!("{}: the store returned a different trace", v.label));
    }
    let (profiles, _) =
        analyze_buffer(program, &loaded, &grains).map_err(|e| fail("replay", &e))?;
    let mut analysis = AnalysisResult { profiles, exec };
    let mut reports = Vec::with_capacity(hierarchies.len());
    let mut summaries = Vec::with_capacity(hierarchies.len());
    for hierarchy in hierarchies {
        let la = attribute_analysis(program, hierarchy, analysis);
        summaries.push(format_summary(&la));
        reports.push(la.report);
        analysis = la.analysis;
    }
    let results = Results {
        estimate,
        profiles: analysis.profiles,
        reports,
        summaries,
    };
    Ok((results, loaded.events()))
}

/// Checks a set-up job's results against an in-memory replay of a fresh
/// capture, the invariants every miss prediction obeys, and the
/// static estimator's accuracy band.
fn check_reference(
    v: &Variant,
    r: &Results,
    hierarchies: &[MemoryHierarchy],
) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what}", v.label));
    let w = &v.workload;
    let grains = hierarchies[0].required_granularities();
    let direct = capture_program(&w.program, w.index_arrays.clone())
        .map_err(|e| e.to_string())
        .and_then(|(buffer, _)| {
            analyze_buffer(&w.program, &buffer, &grains).map_err(|e| e.to_string())
        })
        .map(|(profiles, _)| profiles);
    if direct.as_ref() != Ok(&r.profiles) {
        return fail("replay of the stored trace differs from in-memory replay".into());
    }
    let accesses = r.reports[0].accesses;
    if r.profiles.iter().any(|p| p.total_accesses != accesses) {
        return fail("a profile lost accesses".into());
    }
    let levels = |report: &HierarchyReport| -> Vec<LevelPrediction> {
        let mut all = report.levels.clone();
        all.push(report.tlb.clone());
        all
    };
    for report in &r.reports {
        for l in levels(report) {
            let bounded = l.cold as f64 <= l.total + EPS && l.total <= l.accesses as f64 + EPS;
            if !bounded || !l.total.is_finite() {
                return fail(format!(
                    "{} {}: misses {} out of bounds",
                    report.hierarchy, l.level, l.total
                ));
            }
        }
        if report.levels[1].total > report.levels[0].total + EPS {
            return fail(format!("{}: L3 misses exceed L2 misses", report.hierarchy));
        }
    }
    for pair in r.reports.windows(2) {
        for (big, small) in levels(&pair[0]).iter().zip(levels(&pair[1]).iter()) {
            if big.total > small.total + EPS {
                return fail(format!(
                    "{}: a larger {} missed more",
                    pair[0].hierarchy, big.level
                ));
            }
        }
    }
    for (predicted, measured) in r.estimate.levels.iter().zip(&r.reports[0].levels) {
        let gap = (predicted.miss_rate() - measured.miss_rate()).abs();
        if gap > STATIC_BAND {
            return fail(format!(
                "{}: static estimate off by {gap:.3}",
                measured.level
            ));
        }
    }
    Ok(())
}

/// One set-up: builds every variant's program and input data, opens a
/// fresh store in `dir`, and runs every variant once so lazy
/// initialisation and caches are done before the jobs that follow.
fn set_up(dir: &Path, hierarchies: &[MemoryHierarchy]) -> Result<Prepared, String> {
    let variants = variants();
    let mut store = TraceStore::open(dir).map_err(|e| e.to_string())?;
    let results = variants
        .iter()
        .map(|v| analyze(v, &mut store, hierarchies).map(|(results, _)| results))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        variants,
        store,
        results,
    })
}

pub fn run(args: &Args, work: &Path) -> Result<Measured, String> {
    let hierarchies: Vec<MemoryHierarchy> = SCALES
        .iter()
        .map(|&s| MemoryHierarchy::itanium2_scaled(s))
        .collect();
    let store_dir = |k: usize| work.join(format!("store-{k}"));

    // The first set-up's results are checked against the references;
    // every later set-up and every measured job must reproduce them.
    let t = Instant::now();
    let Prepared {
        mut variants,
        mut store,
        results: references,
    } = set_up(&store_dir(0), &hierarchies)?;
    let mut setups = vec![t.elapsed()];
    for (v, r) in variants.iter().zip(&references) {
        check_reference(v, r, &hierarchies)?;
    }

    let recorder = args.trace.then(layers::recorder);
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..variants.len()).collect();
    let (mut latencies, mut attempted, mut failed, mut events_loaded) = (Vec::new(), 0, 0, 0);
    let mut window = Duration::ZERO;
    let budget = Duration::from_secs(args.seconds);
    // Time spent on jobs; the set-ups between them do not count.
    let mut measured = Duration::ZERO;
    while measured < budget {
        let done = setups.len() as u32;
        if done < SETUPS && measured >= budget * done / SETUPS {
            let t = Instant::now();
            let prepared = set_up(&store_dir(setups.len()), &hierarchies)?;
            setups.push(t.elapsed());
            if prepared.results != references {
                return Err(format!("set-up {done} differs from the first set-up"));
            }
            (variants, store) = (prepared.variants, prepared.store);
            continue;
        }
        shuffle(&mut order, &mut rng);
        let t = Instant::now();
        let outcomes: Vec<_> = layers::recording(recorder.as_ref(), || {
            order
                .iter()
                .map(|&i| analyze(&variants[i], &mut store, &hierarchies))
                .collect()
        });
        let took = t.elapsed();
        attempted += 1;
        let mut ok = true;
        for (&i, outcome) in order.iter().zip(outcomes) {
            match outcome {
                Ok((results, events)) if results == references[i] => events_loaded += events,
                Ok(_) => {
                    eprintln!("{}: results differ from the set-up's", variants[i].label);
                    ok = false;
                }
                Err(message) => {
                    eprintln!("{message}");
                    ok = false;
                }
            }
        }
        failed += u64::from(!ok);
        measured += t.elapsed();
        if measured <= budget {
            latencies.push(took);
            window = measured;
        }
    }
    let layers = recorder
        .map(|r| layers::per_layer(&r, events_loaded, &latencies))
        .unwrap_or_default();
    Ok(Measured {
        latencies,
        attempted,
        window,
        setups,
        failed,
        layers,
    })
}
