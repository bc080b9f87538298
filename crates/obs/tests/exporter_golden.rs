//! Golden snapshots of both exporters.
//!
//! A fixed, fully populated recorder (every counter, every gauge, a
//! nested span pattern) is snapshotted with wall-clock durations zeroed
//! ([`MetricsSnapshot::zero_timings`]) so both rendered strings are
//! byte-exact and machine-independent. Any formatting drift — renamed
//! series, changed help text, shifted columns — fails here first, before
//! it breaks a downstream scrape config.

use reuselens_obs::{Counter, Gauge, GrainProfile, GrainStatus, MetricsRecorder, Stage};
use std::time::Duration;

/// The value each counter is set to. Keyed by counter, not by position
/// in [`Counter::ALL`], so adding or removing a counter changes only its
/// own golden lines.
fn counter_value(c: Counter) -> u64 {
    match c {
        Counter::EventsCaptured => 10,
        Counter::AccessesCaptured => 20,
        Counter::BytesEncoded => 30,
        Counter::EventsDecoded => 40,
        Counter::AccessesDecoded => 50,
        Counter::BlocksTracked => 60,
        Counter::TreeReinserts => 70,
        Counter::GrainsRequested => 80,
        Counter::GrainsCompleted => 90,
        Counter::GrainsFailed => 100,
        Counter::SweepConfigsScored => 120,
        Counter::SweepConfigsFailed => 130,
        Counter::ReportsGenerated => 140,
        Counter::TimelineDropped => 150,
        Counter::BlocksSampled => 160,
        Counter::BlocksEvicted => 170,
        Counter::SampleRateDrops => 180,
        Counter::CheckpointsWritten => 190,
        Counter::CheckpointsResumed => 200,
        Counter::CheckpointsRejected => 210,
        Counter::StaticRefsCovered => 220,
        Counter::StaticRefsFallback => 230,
        Counter::JobsAccepted => 240,
        Counter::JobsCompleted => 250,
        Counter::JobsFailed => 260,
        Counter::JobsRejected => 270,
        Counter::TracesResidentHit => 280,
        Counter::TracesResidentMiss => 290,
        Counter::ReplayLanes => 300,
    }
}

/// The value each gauge is set to, keyed like [`counter_value`].
fn gauge_value(g: Gauge) -> u64 {
    match g {
        Gauge::BudgetEvents => 7,
        Gauge::BudgetDistinctBlocks => 14,
        Gauge::BudgetTreeNodes => 21,
        Gauge::SamplingInvRate => 28,
        Gauge::SnapshotBytes => 35,
        Gauge::JobQueueDepth => 42,
        Gauge::ResidentBytes => 49,
    }
}

/// Every counter and gauge at its distinct table value, a span pattern
/// covering nesting (decode under capture), repetition (two replays), and
/// absence (no report span), and a grain-profile set covering every
/// status plus same-grain aggregation (grain 64 twice).
fn populated() -> MetricsRecorder {
    let r = MetricsRecorder::new();
    for c in Counter::ALL {
        r.add(c, counter_value(c));
    }
    for g in Gauge::ALL {
        r.set_gauge(g, gauge_value(g));
    }
    r.record_span(Stage::Capture, Duration::from_millis(12), 1);
    r.record_span(Stage::Decode, Duration::from_millis(3), 2);
    r.record_span(Stage::Replay, Duration::from_millis(40), 1);
    r.record_span(Stage::Replay, Duration::from_millis(44), 1);
    r.record_span(Stage::Sweep, Duration::from_micros(80), 1);
    r.record_grain(&GrainProfile {
        block_size: 64,
        wall: Duration::from_millis(40),
        events: 500_000,
        distinct_blocks: 4096,
        tree_nodes: 4096,
        status: GrainStatus::Completed,
        blocks_sampled: 0,
        blocks_evicted: 0,
        sample_inv: 0,
    });
    // A sampled grain: scaled footprint, tracked-set tree size, and a
    // nonzero inverse rate that must render as `1/10` in the summary.
    r.record_grain(&GrainProfile {
        block_size: 64,
        wall: Duration::from_millis(44),
        events: 500_000,
        distinct_blocks: 4096,
        tree_nodes: 4100,
        status: GrainStatus::Completed,
        blocks_sampled: 410,
        blocks_evicted: 22,
        sample_inv: 10,
    });
    r.record_grain(&GrainProfile {
        block_size: 4096,
        wall: Duration::ZERO,
        events: 0,
        distinct_blocks: 0,
        tree_nodes: 0,
        status: GrainStatus::Failed,
        blocks_sampled: 0,
        blocks_evicted: 0,
        sample_inv: 0,
    });
    r
}

const GOLDEN_PROMETHEUS: &str = r#"# HELP reuselens_events_captured_total Events captured into trace buffers (accesses + scope transitions).
# TYPE reuselens_events_captured_total counter
reuselens_events_captured_total 10
# HELP reuselens_accesses_captured_total Memory-access events captured into trace buffers.
# TYPE reuselens_accesses_captured_total counter
reuselens_accesses_captured_total 20
# HELP reuselens_bytes_encoded_total Bytes occupied by captured columnar encodings.
# TYPE reuselens_bytes_encoded_total counter
reuselens_bytes_encoded_total 30
# HELP reuselens_events_decoded_total Events decoded out of trace buffers across all replays.
# TYPE reuselens_events_decoded_total counter
reuselens_events_decoded_total 40
# HELP reuselens_accesses_decoded_total Memory-access events decoded out of trace buffers.
# TYPE reuselens_accesses_decoded_total counter
reuselens_accesses_decoded_total 50
# HELP reuselens_blocks_tracked_total Distinct blocks entered into analyzer block tables.
# TYPE reuselens_blocks_tracked_total counter
reuselens_blocks_tracked_total 60
# HELP reuselens_tree_reinserts_total Order-statistic-tree reinserts (one per measured non-cold reuse).
# TYPE reuselens_tree_reinserts_total counter
reuselens_tree_reinserts_total 70
# HELP reuselens_grains_requested_total Grains submitted to the replay engine.
# TYPE reuselens_grains_requested_total counter
reuselens_grains_requested_total 80
# HELP reuselens_grains_completed_total Grains whose replay produced a profile.
# TYPE reuselens_grains_completed_total counter
reuselens_grains_completed_total 90
# HELP reuselens_grains_failed_total Grains whose replay failed.
# TYPE reuselens_grains_failed_total counter
reuselens_grains_failed_total 100
# HELP reuselens_sweep_configs_scored_total Candidate hierarchies scored successfully.
# TYPE reuselens_sweep_configs_scored_total counter
reuselens_sweep_configs_scored_total 120
# HELP reuselens_sweep_configs_failed_total Candidate hierarchies that failed scoring.
# TYPE reuselens_sweep_configs_failed_total counter
reuselens_sweep_configs_failed_total 130
# HELP reuselens_reports_generated_total Attribution reports generated.
# TYPE reuselens_reports_generated_total counter
reuselens_reports_generated_total 140
# HELP reuselens_timeline_dropped_total Timeline events dropped by the full ring.
# TYPE reuselens_timeline_dropped_total counter
reuselens_timeline_dropped_total 150
# HELP reuselens_blocks_sampled_total Distinct blocks admitted by the spatial-hash sampler (unscaled).
# TYPE reuselens_blocks_sampled_total counter
reuselens_blocks_sampled_total 160
# HELP reuselens_blocks_evicted_total Tracked blocks evicted by adaptive sampling rate drops.
# TYPE reuselens_blocks_evicted_total counter
reuselens_blocks_evicted_total 170
# HELP reuselens_sample_rate_drops_total Adaptive sampling rate halvings.
# TYPE reuselens_sample_rate_drops_total counter
reuselens_sample_rate_drops_total 180
# HELP reuselens_checkpoints_written_total Crash-safety snapshots written by checkpointed replay.
# TYPE reuselens_checkpoints_written_total counter
reuselens_checkpoints_written_total 190
# HELP reuselens_checkpoints_resumed_total Grains resumed from a validated snapshot.
# TYPE reuselens_checkpoints_resumed_total counter
reuselens_checkpoints_resumed_total 200
# HELP reuselens_checkpoints_rejected_total Snapshot files rejected during resume (torn, corrupted, or mismatched).
# TYPE reuselens_checkpoints_rejected_total counter
reuselens_checkpoints_rejected_total 210
# HELP reuselens_static_refs_covered_total References covered symbolically by the static estimator.
# TYPE reuselens_static_refs_covered_total counter
reuselens_static_refs_covered_total 220
# HELP reuselens_static_refs_fallback_total References the static estimator modeled with the irregular fallback.
# TYPE reuselens_static_refs_fallback_total counter
reuselens_static_refs_fallback_total 230
# HELP reuselens_jobs_accepted_total Analysis jobs accepted onto the daemon queue.
# TYPE reuselens_jobs_accepted_total counter
reuselens_jobs_accepted_total 240
# HELP reuselens_jobs_completed_total Analysis jobs that produced a success response.
# TYPE reuselens_jobs_completed_total counter
reuselens_jobs_completed_total 250
# HELP reuselens_jobs_failed_total Analysis jobs that ended in a typed error response.
# TYPE reuselens_jobs_failed_total counter
reuselens_jobs_failed_total 260
# HELP reuselens_jobs_rejected_total Analysis jobs rejected before queueing (full queue or shutdown).
# TYPE reuselens_jobs_rejected_total counter
reuselens_jobs_rejected_total 270
# HELP reuselens_traces_resident_hit_total Replay jobs served a resident, verified trace.
# TYPE reuselens_traces_resident_hit_total counter
reuselens_traces_resident_hit_total 280
# HELP reuselens_traces_resident_miss_total Replay jobs that loaded their trace from the store.
# TYPE reuselens_traces_resident_miss_total counter
reuselens_traces_resident_miss_total 290
# HELP reuselens_replay_lanes_total Replay lanes started; each decodes its trace once.
# TYPE reuselens_replay_lanes_total counter
reuselens_replay_lanes_total 300
# HELP reuselens_budget_events Events replayed at the latest budget checkpoint.
# TYPE reuselens_budget_events gauge
reuselens_budget_events 7
# HELP reuselens_budget_distinct_blocks Distinct blocks tracked at the latest budget checkpoint.
# TYPE reuselens_budget_distinct_blocks gauge
reuselens_budget_distinct_blocks 14
# HELP reuselens_budget_tree_nodes Live tree nodes at the latest budget checkpoint.
# TYPE reuselens_budget_tree_nodes gauge
reuselens_budget_tree_nodes 21
# HELP reuselens_sampling_inv_rate Inverse sampling rate of the most recently finished sampled grain.
# TYPE reuselens_sampling_inv_rate gauge
reuselens_sampling_inv_rate 28
# HELP reuselens_snapshot_bytes Bytes of the most recently written crash-safety snapshot.
# TYPE reuselens_snapshot_bytes gauge
reuselens_snapshot_bytes 35
# HELP reuselens_job_queue_depth Jobs sitting on the daemon queue (accepted, not yet running).
# TYPE reuselens_job_queue_depth gauge
reuselens_job_queue_depth 42
# HELP reuselens_resident_bytes Bytes of the traces the daemon keeps resident, encoded plus decoded.
# TYPE reuselens_resident_bytes gauge
reuselens_resident_bytes 49
# HELP reuselens_stage_spans_total Completed spans per pipeline stage.
# TYPE reuselens_stage_spans_total counter
reuselens_stage_spans_total{stage="capture"} 1
reuselens_stage_spans_total{stage="decode"} 1
reuselens_stage_spans_total{stage="replay"} 2
reuselens_stage_spans_total{stage="sweep"} 1
reuselens_stage_spans_total{stage="report"} 0
reuselens_stage_spans_total{stage="checkpoint"} 0
reuselens_stage_spans_total{stage="estimate"} 0
# HELP reuselens_stage_seconds_total Wall-clock seconds spent per pipeline stage.
# TYPE reuselens_stage_seconds_total counter
reuselens_stage_seconds_total{stage="capture"} 0.000000000
reuselens_stage_seconds_total{stage="decode"} 0.000000000
reuselens_stage_seconds_total{stage="replay"} 0.000000000
reuselens_stage_seconds_total{stage="sweep"} 0.000000000
reuselens_stage_seconds_total{stage="report"} 0.000000000
reuselens_stage_seconds_total{stage="checkpoint"} 0.000000000
reuselens_stage_seconds_total{stage="estimate"} 0.000000000
# HELP reuselens_grain_replays_total Replays recorded per grain and status.
# TYPE reuselens_grain_replays_total counter
reuselens_grain_replays_total{grain="64",status="completed"} 2
reuselens_grain_replays_total{grain="4096",status="failed"} 1
# HELP reuselens_grain_seconds_total Wall-clock seconds spent replaying per grain.
# TYPE reuselens_grain_seconds_total counter
reuselens_grain_seconds_total{grain="64"} 0.000000000
reuselens_grain_seconds_total{grain="4096"} 0.000000000
# HELP reuselens_grain_events_total Events replayed per grain.
# TYPE reuselens_grain_events_total counter
reuselens_grain_events_total{grain="64"} 1000000
reuselens_grain_events_total{grain="4096"} 0
# HELP reuselens_grain_tree_nodes_peak Peak order-statistic-tree nodes per grain.
# TYPE reuselens_grain_tree_nodes_peak gauge
reuselens_grain_tree_nodes_peak{grain="64"} 4100
reuselens_grain_tree_nodes_peak{grain="4096"} 0
"#;

const GOLDEN_SUMMARY: &str = "\
== reuselens pipeline metrics ==
stage                     spans        total         mean
  capture                     1         0 ns         0 ns
    decode                    1         0 ns         0 ns
  replay                      2         0 ns         0 ns
  sweep                       1         0 ns         0 ns
grain profiles
     grain     status         wall       events     events/s     blocks       tree   sample
        64  completed         0 ns       500000            -       4096       4096        -
        64  completed         0 ns       500000            -       4096       4100     1/10
      4096     failed         0 ns            0            -          0          0        -
counters
  events_captured                          10
  accesses_captured                        20
  bytes_encoded                            30
  events_decoded                           40
  accesses_decoded                         50
  blocks_tracked                           60
  tree_reinserts                           70
  grains_requested                         80
  grains_completed                         90
  grains_failed                           100
  sweep_configs_scored                    120
  sweep_configs_failed                    130
  reports_generated                       140
  timeline_dropped                        150
  blocks_sampled                          160
  blocks_evicted                          170
  sample_rate_drops                       180
  checkpoints_written                     190
  checkpoints_resumed                     200
  checkpoints_rejected                    210
  static_refs_covered                     220
  static_refs_fallback                    230
  jobs_accepted                           240
  jobs_completed                          250
  jobs_failed                             260
  jobs_rejected                           270
  traces_resident_hit                     280
  traces_resident_miss                    290
  replay_lanes                            300
gauges
  budget_events                             7
  budget_distinct_blocks                   14
  budget_tree_nodes                        21
  sampling_inv_rate                        28
  snapshot_bytes                           35
  job_queue_depth                          42
  resident_bytes                           49
";

#[test]
fn prometheus_export_matches_golden() {
    let mut snap = populated().snapshot();
    snap.zero_timings();
    assert_eq!(snap.to_prometheus(), GOLDEN_PROMETHEUS);
}

#[test]
fn summary_export_matches_golden() {
    let mut snap = populated().snapshot();
    snap.zero_timings();
    assert_eq!(snap.to_summary(), GOLDEN_SUMMARY);
}
