//! Snapshot exporters: Prometheus text exposition and a human summary.
//!
//! Both render a [`MetricsSnapshot`] — plain data — so their output is a
//! pure function of the snapshot. The golden tests zero the snapshot's
//! timings and compare entire rendered strings, which keeps the formats
//! stable without depending on the machine's clock.

use crate::{Counter, Gauge, MetricsSnapshot, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Renders a snapshot in the Prometheus text exposition format: every
/// counter as `reuselens_<name>_total`, every gauge as
/// `reuselens_<name>`, and spans as the `stage`-labeled pair
/// `reuselens_stage_spans_total` / `reuselens_stage_seconds_total`.
/// Metrics appear even when zero, so scrapers see a stable series set.
pub fn format_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for counter in Counter::ALL {
        let name = counter.name();
        let _ = writeln!(out, "# HELP reuselens_{name}_total {}", counter.help());
        let _ = writeln!(out, "# TYPE reuselens_{name}_total counter");
        let _ = writeln!(out, "reuselens_{name}_total {}", snapshot.counter(counter));
    }
    for gauge in Gauge::ALL {
        let name = gauge.name();
        let _ = writeln!(out, "# HELP reuselens_{name} {}", gauge.help());
        let _ = writeln!(out, "# TYPE reuselens_{name} gauge");
        let _ = writeln!(out, "reuselens_{name} {}", snapshot.gauge(gauge));
    }
    let _ = writeln!(
        out,
        "# HELP reuselens_stage_spans_total Completed spans per pipeline stage."
    );
    let _ = writeln!(out, "# TYPE reuselens_stage_spans_total counter");
    for span in &snapshot.spans {
        let _ = writeln!(
            out,
            "reuselens_stage_spans_total{{stage=\"{}\"}} {}",
            span.stage.name(),
            span.count
        );
    }
    let _ = writeln!(
        out,
        "# HELP reuselens_stage_seconds_total Wall-clock seconds spent per pipeline stage."
    );
    let _ = writeln!(out, "# TYPE reuselens_stage_seconds_total counter");
    for span in &snapshot.spans {
        let _ = writeln!(
            out,
            "reuselens_stage_seconds_total{{stage=\"{}\"}} {:.9}",
            span.stage.name(),
            span.total.as_secs_f64()
        );
    }
    format_prometheus_grains(snapshot, &mut out);
    out
}

/// Appends the per-grain attribution families, aggregated across the
/// snapshot's [`GrainProfile`](crate::GrainProfile) rows: replay counts by
/// `(grain, status)`, and wall seconds / events / peak tree nodes by
/// grain. HELP/TYPE headers are emitted even with no rows so the family
/// set stays stable; the labeled series themselves are data-driven.
fn format_prometheus_grains(snapshot: &MetricsSnapshot, out: &mut String) {
    let mut replays: BTreeMap<(u64, &str), u64> = BTreeMap::new();
    let mut seconds: BTreeMap<u64, f64> = BTreeMap::new();
    let mut events: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tree_nodes: BTreeMap<u64, u64> = BTreeMap::new();
    for grain in &snapshot.grains {
        *replays
            .entry((grain.block_size, grain.status.name()))
            .or_default() += 1;
        *seconds.entry(grain.block_size).or_default() += grain.wall.as_secs_f64();
        *events.entry(grain.block_size).or_default() += grain.events;
        let peak = tree_nodes.entry(grain.block_size).or_default();
        *peak = (*peak).max(grain.tree_nodes);
    }
    let _ = writeln!(
        out,
        "# HELP reuselens_grain_replays_total Replays recorded per grain and status."
    );
    let _ = writeln!(out, "# TYPE reuselens_grain_replays_total counter");
    for ((grain, status), count) in &replays {
        let _ = writeln!(
            out,
            "reuselens_grain_replays_total{{grain=\"{grain}\",status=\"{status}\"}} {count}"
        );
    }
    let _ = writeln!(
        out,
        "# HELP reuselens_grain_seconds_total Wall-clock seconds spent replaying per grain."
    );
    let _ = writeln!(out, "# TYPE reuselens_grain_seconds_total counter");
    for (grain, secs) in &seconds {
        let _ = writeln!(
            out,
            "reuselens_grain_seconds_total{{grain=\"{grain}\"}} {secs:.9}"
        );
    }
    let _ = writeln!(
        out,
        "# HELP reuselens_grain_events_total Events replayed per grain."
    );
    let _ = writeln!(out, "# TYPE reuselens_grain_events_total counter");
    for (grain, n) in &events {
        let _ = writeln!(out, "reuselens_grain_events_total{{grain=\"{grain}\"}} {n}");
    }
    let _ = writeln!(
        out,
        "# HELP reuselens_grain_tree_nodes_peak Peak order-statistic-tree nodes per grain."
    );
    let _ = writeln!(out, "# TYPE reuselens_grain_tree_nodes_peak gauge");
    for (grain, n) in &tree_nodes {
        let _ = writeln!(
            out,
            "reuselens_grain_tree_nodes_peak{{grain=\"{grain}\"}} {n}"
        );
    }
}

/// Formats an events-per-second rate with a deterministic unit ladder.
pub(crate) fn fmt_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2} G/s", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2} M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2} K/s", rate / 1e3)
    } else {
        format!("{rate:.0} /s")
    }
}

/// Formats a duration with a deterministic unit ladder (`0 ns` exactly
/// when zero, so zeroed golden snapshots render stably).
fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos == 0 {
        "0 ns".to_string()
    } else if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Renders a snapshot as a human-readable summary: per-stage span table
/// first (stages in pipeline order — capture → decode → replay → sweep →
/// report — indented by their deepest observed nesting, zero-invocation
/// stages skipped), then the per-grain cost table when grains were
/// profiled, then every counter, then the budget gauges when any is set.
/// This is what the CLI prints to stderr as its timing footer.
pub fn format_summary(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== reuselens pipeline metrics ==");
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>12} {:>12}",
        "stage", "spans", "total", "mean"
    );
    for stage in Stage::PIPELINE_ORDER {
        let span = snapshot.stage(stage);
        if span.count == 0 {
            continue;
        }
        let indent = "  ".repeat(span.max_depth.max(1) as usize);
        let name = format!("{indent}{}", span.stage.name());
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>12} {:>12}",
            name,
            span.count,
            fmt_duration(span.total),
            fmt_duration(span.mean()),
        );
    }
    if !snapshot.grains.is_empty() {
        let _ = writeln!(out, "grain profiles");
        let _ = writeln!(
            out,
            "  {:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
            "grain", "status", "wall", "events", "events/s", "blocks", "tree", "sample"
        );
        for grain in &snapshot.grains {
            let rate = if grain.wall.is_zero() {
                "-".to_string()
            } else {
                fmt_rate(grain.events_per_second())
            };
            let sample = if grain.sample_inv == 0 {
                "-".to_string()
            } else {
                format!("1/{}", grain.sample_inv)
            };
            let _ = writeln!(
                out,
                "  {:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
                grain.block_size,
                grain.status.name(),
                fmt_duration(grain.wall),
                grain.events,
                rate,
                grain.distinct_blocks,
                grain.tree_nodes,
                sample,
            );
        }
    }
    let _ = writeln!(out, "counters");
    for counter in Counter::ALL {
        let _ = writeln!(
            out,
            "  {:<22} {:>20}",
            counter.name(),
            snapshot.counter(counter)
        );
    }
    if Gauge::ALL.iter().any(|&g| snapshot.gauge(g) != 0) {
        let _ = writeln!(out, "gauges");
        for gauge in Gauge::ALL {
            let _ = writeln!(out, "  {:<22} {:>20}", gauge.name(), snapshot.gauge(gauge));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRecorder, Stage};

    #[test]
    fn prometheus_exports_every_metric_even_at_zero() {
        let snap = MetricsRecorder::new().snapshot();
        let text = format_prometheus(&snap);
        for counter in Counter::ALL {
            assert!(text.contains(&format!("reuselens_{}_total 0", counter.name())));
        }
        for gauge in Gauge::ALL {
            assert!(text.contains(&format!("reuselens_{} 0", gauge.name())));
        }
        for stage in Stage::ALL {
            assert!(text.contains(&format!(
                "reuselens_stage_spans_total{{stage=\"{}\"}} 0",
                stage.name()
            )));
            assert!(text.contains(&format!(
                "reuselens_stage_seconds_total{{stage=\"{}\"}} 0.000000000",
                stage.name()
            )));
        }
        // Exposition-format hygiene: HELP/TYPE pairs for every family
        // (two stage families plus four per-grain families).
        assert_eq!(
            text.matches("# TYPE").count(),
            Counter::ALL.len() + Gauge::ALL.len() + 6
        );
    }

    #[test]
    fn rate_ladder_is_deterministic() {
        assert_eq!(fmt_rate(0.0), "0 /s");
        assert_eq!(fmt_rate(999.0), "999 /s");
        assert_eq!(fmt_rate(1_500.0), "1.50 K/s");
        assert_eq!(fmt_rate(2_500_000.0), "2.50 M/s");
        assert_eq!(fmt_rate(3_000_000_000.0), "3.00 G/s");
    }

    #[test]
    fn summary_skips_zero_invocation_stages() {
        let rec = MetricsRecorder::new();
        rec.record_span(Stage::Replay, Duration::from_millis(1), 1);
        let text = format_summary(&rec.snapshot());
        // Stage rows are left-padded names followed by column padding;
        // counter names like `events_captured` never match `capture `.
        assert!(text.contains("replay "));
        assert!(
            !text.contains("capture "),
            "zero-invocation stages are skipped"
        );
        assert!(!text.contains("sweep "));
    }

    #[test]
    fn summary_and_prometheus_render_grain_profiles() {
        use crate::{GrainProfile, GrainStatus};
        let rec = MetricsRecorder::new();
        rec.record_grain(&GrainProfile {
            block_size: 64,
            wall: Duration::from_secs(2),
            events: 4_000_000,
            distinct_blocks: 1000,
            tree_nodes: 1000,
            status: GrainStatus::Completed,
            blocks_sampled: 0,
            blocks_evicted: 0,
            sample_inv: 0,
        });
        rec.record_grain(&GrainProfile {
            block_size: 128,
            wall: Duration::ZERO,
            events: 0,
            distinct_blocks: 0,
            tree_nodes: 0,
            status: GrainStatus::Failed,
            blocks_sampled: 0,
            blocks_evicted: 0,
            sample_inv: 0,
        });
        rec.record_grain(&GrainProfile {
            block_size: 4096,
            wall: Duration::from_secs(1),
            events: 1_000_000,
            distinct_blocks: 50_000,
            tree_nodes: 512,
            status: GrainStatus::Completed,
            blocks_sampled: 500,
            blocks_evicted: 12,
            sample_inv: 100,
        });
        let snap = rec.snapshot();
        let summary = format_summary(&snap);
        assert!(summary.contains("grain profiles"));
        assert!(summary.contains("completed"));
        assert!(summary.contains("2.00 M/s"));
        assert!(summary.contains("failed"));
        assert!(summary.contains("1/100"), "sampled grains show their rate");
        let prom = format_prometheus(&snap);
        assert!(prom.contains("reuselens_grain_replays_total{grain=\"64\",status=\"completed\"} 1"));
        assert!(prom.contains("reuselens_grain_replays_total{grain=\"128\",status=\"failed\"} 1"));
        assert!(prom.contains("reuselens_grain_seconds_total{grain=\"64\"} 2.000000000"));
        assert!(prom.contains("reuselens_grain_events_total{grain=\"64\"} 4000000"));
        assert!(prom.contains("reuselens_grain_tree_nodes_peak{grain=\"64\"} 1000"));
    }

    #[test]
    fn duration_ladder_is_deterministic() {
        assert_eq!(fmt_duration(Duration::ZERO), "0 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(999)), "999 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1500)), "1.5 us");
        assert_eq!(fmt_duration(Duration::from_micros(2500)), "2.500 ms");
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.500 s");
    }

    #[test]
    fn summary_shows_counts_and_hides_unset_gauges() {
        let rec = MetricsRecorder::new();
        rec.add(Counter::EventsCaptured, 42);
        rec.record_span(Stage::Capture, Duration::from_millis(2), 1);
        let text = format_summary(&rec.snapshot());
        assert!(text.contains("capture"));
        assert!(text.contains("events_captured"));
        assert!(text.contains("42"));
        assert!(!text.contains("gauges"), "unset gauges are omitted");
        rec.set_gauge(Gauge::BudgetEvents, 10);
        assert!(format_summary(&rec.snapshot()).contains("gauges"));
    }
}
