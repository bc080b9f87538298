//! The machine-readable bench report (`BENCH_reuselens.json`) and its
//! baseline diff.
//!
//! ## Schema (`reuselens-bench/v2`)
//!
//! ```json
//! {
//!   "schema": "reuselens-bench/v2",
//!   "host": { "available_parallelism": 2 },
//!   "rows": [
//!     { "name": "replay_ns_per_event", "unit": "ns", "better": "lower",
//!       "median": 31.3, "mad": 0.4, "samples": 7 }
//!   ],
//!   "ratios": [
//!     { "name": "checkpoint_overhead_ratio",
//!       "numerator": "checkpoint_replay_ns_per_event",
//!       "denominator": "replay_ns_per_event",
//!       "value": 1.04, "better": "lower", "bar": 1.1, "gated": true,
//!       "pass": true }
//!   ],
//!   "counters": { "events_captured": 1048576 }
//! }
//! ```
//!
//! * `host.available_parallelism` is what
//!   `std::thread::available_parallelism()` returned; the thread ladder
//!   climbs in powers of two up to it.
//! * `rows[]` each hold one measured point: the `median` and the median
//!   absolute deviation (`mad`) of its `samples`, in `unit`, and whether
//!   a `lower` or `higher` value is `better`. Per-layer rows divide a
//!   stage's span time by the work that stage did, with the same formula
//!   and name as perfbench's per-layer metrics; the ladder rows are wall
//!   time per replay.
//! * `ratios[]` are derived: each is the quotient of two row medians,
//!   listed in [`RATIOS`] with its fixed `bar`. A `lower`-is-better ratio
//!   passes at or below its bar, a `higher` one at or above. Full
//!   bench-runner runs fail when a `gated` ratio misses its bar; an
//!   ungated ratio is a target the report tracks. [`BenchReport::from_json`]
//!   recomputes ratios from the rows rather than reading them back.
//! * `counters` totals every counter the samples recorded.
//!
//! [`diff`] compares two reports row by row (see [`REGRESSION_THRESHOLD`]);
//! the bench-runner binary exits nonzero when the diff regresses.

use reuselens::obs::json::{self, Json};

/// Identifies the report layout; bump when the schema changes shape.
pub const SCHEMA: &str = "reuselens-bench/v2";

/// Fractional worsening of a row's median that always counts as a
/// regression (>15%); a row with a wider spread must also move by more
/// than [`MAD_MULTIPLIER`] of its baseline MADs.
pub const REGRESSION_THRESHOLD: f64 = 0.15;

/// How many baseline MADs a row's median must worsen by to regress.
pub const MAD_MULTIPLIER: f64 = 3.0;

/// Which direction of a figure is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, overheads).
    Lower,
    /// Larger is better (speedups).
    Higher,
}

impl Better {
    /// The schema's spelling: `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `current` is than `reference` (negative when it is
    /// better).
    fn worsening(self, reference: f64, current: f64) -> f64 {
        match self {
            Better::Lower => current - reference,
            Better::Higher => reference - current,
        }
    }
}

/// One measured point: the median and MAD of its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable row name, the key [`diff`] matches on.
    pub name: String,
    /// Unit of `median` and `mad` (`"ns"`, `"us"`, `"ms"`).
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Median over the samples.
    pub median: f64,
    /// Median absolute deviation from `median`.
    pub mad: f64,
    /// How many samples the row summarizes.
    pub samples: u64,
}

impl Row {
    /// Summarizes `values` (one per sample) as median and MAD.
    pub fn from_samples(name: &str, unit: &str, better: Better, values: &[f64]) -> Row {
        let mid = median(values.to_vec());
        let deviations = values.iter().map(|v| (v - mid).abs()).collect();
        Row {
            name: name.to_string(),
            unit: unit.to_string(),
            better,
            median: mid,
            mad: median(deviations),
            samples: values.len() as u64,
        }
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// One acceptance bar: the quotient of two rows' medians against a fixed
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSpec {
    /// Ratio name in the report.
    pub name: &'static str,
    /// Row whose median is divided.
    pub numerator: &'static str,
    /// Row whose median divides.
    pub denominator: &'static str,
    /// `Lower`: passes at or below `bar`; `Higher`: at or above.
    pub better: Better,
    /// The fixed bar.
    pub bar: f64,
    /// Whether a miss fails a full bench-runner run (else a target).
    pub gated: bool,
}

/// Every ratio the report carries, with its bar.
pub const RATIOS: [RatioSpec; 5] = [
    // Replay with the recorder in scope, the telemetry aggregator ticking
    // and `/metrics` scraped once per second, over the same replay dark.
    RatioSpec {
        name: "obs_overhead_ratio",
        numerator: "obs_lit_replay_ms",
        denominator: "obs_dark_replay_ms",
        better: Better::Lower,
        bar: 1.10,
        gated: true,
    },
    // Serial replay snapshotting four times over the stream, over plain.
    RatioSpec {
        name: "checkpoint_overhead_ratio",
        numerator: "checkpoint_replay_ns_per_event",
        denominator: "replay_ns_per_event",
        better: Better::Lower,
        bar: 1.10,
        gated: true,
    },
    // One grain's full-trace replay over the zero-trace estimate of it.
    RatioSpec {
        name: "estimator_speedup_ratio",
        numerator: "replay_us_per_grain",
        denominator: "estimate_us_per_call",
        better: Better::Higher,
        bar: 100.0,
        gated: true,
    },
    // Capturing a trace over loading the stored one back.
    RatioSpec {
        name: "store_replay_speedup_ratio",
        numerator: "capture_ns_per_event",
        denominator: "store_decode_ns_per_event",
        better: Better::Higher,
        bar: 2.0,
        gated: true,
    },
    // Exact replay over 1/100-sampled replay of the same grain.
    RatioSpec {
        name: "sampled_speedup_ratio",
        numerator: "replay_ns_per_event",
        denominator: "sampled_replay_ns_per_event",
        better: Better::Higher,
        bar: 3.0,
        gated: false,
    },
];

/// A ratio evaluated on one report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Its definition and bar.
    pub spec: &'static RatioSpec,
    /// Numerator median over denominator median.
    pub value: f64,
}

impl Ratio {
    /// Whether the value meets the bar.
    pub fn passes(&self) -> bool {
        self.spec.better.worsening(self.spec.bar, self.value) <= 0.0
    }
}

/// The full report: host, rows and counter totals.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub available_parallelism: u64,
    /// Every measured point.
    pub rows: Vec<Row>,
    /// Counter totals, `(counter name, value)`.
    pub counters: Vec<(String, u64)>,
}

impl BenchReport {
    /// The row named `name`, if measured.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|row| row.name == name)
    }

    /// Every ratio of [`RATIOS`] whose two rows this report measured.
    pub fn ratios(&self) -> Vec<Ratio> {
        RATIOS
            .iter()
            .filter_map(|spec| {
                let numerator = self.row(spec.numerator)?.median;
                let denominator = self.row(spec.denominator)?.median;
                Some(Ratio {
                    spec,
                    value: numerator / denominator.max(f64::MIN_POSITIVE),
                })
            })
            .collect()
    }

    /// Renders the report as schema-`v2` pretty JSON.
    pub fn to_json(&self) -> String {
        let text = |s: &str| Json::Str(s.to_string());
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(vec![
                    ("name".into(), text(&row.name)),
                    ("unit".into(), text(&row.unit)),
                    ("better".into(), text(row.better.name())),
                    ("median".into(), Json::Num(row.median)),
                    ("mad".into(), Json::Num(row.mad)),
                    ("samples".into(), Json::Num(row.samples as f64)),
                ])
            })
            .collect();
        let ratios = self
            .ratios()
            .iter()
            .map(|ratio| {
                Json::Obj(vec![
                    ("name".into(), text(ratio.spec.name)),
                    ("numerator".into(), text(ratio.spec.numerator)),
                    ("denominator".into(), text(ratio.spec.denominator)),
                    ("value".into(), Json::Num(ratio.value)),
                    ("better".into(), text(ratio.spec.better.name())),
                    ("bar".into(), Json::Num(ratio.spec.bar)),
                    ("gated".into(), Json::Bool(ratio.spec.gated)),
                    ("pass".into(), Json::Bool(ratio.passes())),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(*value as f64)))
            .collect();
        Json::Obj(vec![
            ("schema".into(), text(SCHEMA)),
            (
                "host".into(),
                Json::Obj(vec![(
                    "available_parallelism".into(),
                    Json::Num(self.available_parallelism as f64),
                )]),
            ),
            ("rows".into(), Json::Arr(rows)),
            ("ratios".into(), Json::Arr(ratios)),
            ("counters".into(), Json::Obj(counters)),
        ])
        .render_pretty()
    }

    /// Parses a schema-`v2` report.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a wrong or missing `schema`
    /// tag (a v1 report included), or a missing required field.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        let available_parallelism =
            doc.get("host")
                .and_then(|host| host.get("available_parallelism"))
                .and_then(Json::as_f64)
                .ok_or("missing host.available_parallelism")? as u64;
        let mut rows = Vec::new();
        for row in doc.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
            let text = |key: &str| -> Result<&str, String> {
                row.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("row missing string {key:?}"))
            };
            let number = |key: &str| -> Result<f64, String> {
                row.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("row missing numeric {key:?}"))
            };
            let better = text("better")?;
            rows.push(Row {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better: Better::parse(better)
                    .ok_or_else(|| format!("row has unknown better {better:?}"))?,
                median: number("median")?,
                mad: number("mad")?,
                samples: number("samples")? as u64,
            });
        }
        let counters = match doc.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(BenchReport {
            available_parallelism,
            rows,
            counters,
        })
    }
}

/// One row compared between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// The row name.
    pub name: String,
    /// The row's unit.
    pub unit: String,
    /// Baseline median.
    pub baseline: f64,
    /// Current median.
    pub current: f64,
    /// `current/baseline - 1`.
    pub delta: f64,
    /// How far the median may worsen before it regresses:
    /// max([`REGRESSION_THRESHOLD`] × baseline median,
    /// [`MAD_MULTIPLIER`] × baseline MAD).
    pub allowed: f64,
    /// True when the median worsened by more than `allowed`.
    pub regressed: bool,
}

/// The result of diffing a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOutcome {
    /// One line per row both reports measured, in baseline order.
    pub lines: Vec<DiffLine>,
    /// True when any row regressed.
    pub regressed: bool,
}

impl DiffOutcome {
    /// Renders the diff as an aligned human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<32} {:>12} {:>12} {:>9} {:>10}  verdict\n",
            "row", "baseline", "current", "delta", "allowed"
        );
        for line in &self.lines {
            out.push_str(&format!(
                "{:<32} {:>12.3} {:>12.3} {:>+8.1}% {:>10.3}  {} {}\n",
                line.name,
                line.baseline,
                line.current,
                line.delta * 100.0,
                line.allowed,
                line.unit,
                if line.regressed { "REGRESSED" } else { "ok" },
            ));
        }
        out
    }
}

/// Compares `current` against `baseline` row by row. A row regresses
/// when its median is worse, in the direction its `better` names, by
/// more than max(15% of the baseline median, 3 × the baseline MAD).
/// Rows only one side measured are skipped (row sets change between
/// versions), and ratios are not diffed: their bars are absolute.
pub fn diff(baseline: &BenchReport, current: &BenchReport) -> DiffOutcome {
    let lines: Vec<DiffLine> = baseline
        .rows
        .iter()
        .filter_map(|base| {
            let cur = current.row(&base.name)?;
            let allowed = (REGRESSION_THRESHOLD * base.median.abs()).max(MAD_MULTIPLIER * base.mad);
            Some(DiffLine {
                name: base.name.clone(),
                unit: cur.unit.clone(),
                baseline: base.median,
                current: cur.median,
                delta: if base.median != 0.0 {
                    cur.median / base.median - 1.0
                } else {
                    0.0
                },
                allowed,
                regressed: cur.better.worsening(base.median, cur.median) > allowed,
            })
        })
        .collect();
    let regressed = lines.iter().any(|l| l.regressed);
    DiffOutcome { lines, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, better: Better, median: f64, mad: f64) -> Row {
        Row {
            name: name.to_string(),
            unit: "ns".to_string(),
            better,
            median,
            mad,
            samples: 7,
        }
    }

    fn report(rows: Vec<Row>) -> BenchReport {
        BenchReport {
            available_parallelism: 2,
            rows,
            counters: vec![("events_decoded".to_string(), 12345)],
        }
    }

    /// Every row [`RATIOS`] names, so each ratio is present.
    fn ratio_rows() -> Vec<Row> {
        vec![
            row("obs_dark_replay_ms", Better::Lower, 20.0, 0.2),
            row("obs_lit_replay_ms", Better::Lower, 21.0, 0.2),
            row("replay_ns_per_event", Better::Lower, 30.0, 0.3),
            row("checkpoint_replay_ns_per_event", Better::Lower, 31.0, 0.3),
            row("sampled_replay_ns_per_event", Better::Lower, 15.0, 0.2),
            row("replay_us_per_grain", Better::Lower, 17_000.0, 100.0),
            row("estimate_us_per_call", Better::Lower, 100.0, 1.0),
            row("capture_ns_per_event", Better::Lower, 42.0, 0.5),
            row("store_decode_ns_per_event", Better::Lower, 10.0, 0.1),
        ]
    }

    fn ratio(report: &BenchReport, name: &str) -> Ratio {
        report
            .ratios()
            .into_iter()
            .find(|r| r.spec.name == name)
            .unwrap()
    }

    /// Diffs one row moved from `base` to `current`, baseline MAD `mad`.
    fn diff_one(better: Better, base: f64, mad: f64, current: f64) -> DiffOutcome {
        diff(
            &report(vec![row("r", better, base, mad)]),
            &report(vec![row("r", better, current, 0.0)]),
        )
    }

    #[test]
    fn row_summarizes_samples_as_median_and_mad() {
        let row = Row::from_samples("r", "ns", Better::Lower, &[5.0, 1.0, 3.0, 100.0, 4.0]);
        assert_eq!(row.median, 4.0);
        // Deviations 1, 3, 1, 96, 0: their median is 1.
        assert_eq!(row.mad, 1.0);
        assert_eq!(row.samples, 5);
        let even = Row::from_samples("r", "ns", Better::Lower, &[2.0, 4.0]);
        assert_eq!((even.median, even.mad), (3.0, 1.0));
        let one = Row::from_samples("r", "ns", Better::Lower, &[7.0]);
        assert_eq!((one.median, one.mad, one.samples), (7.0, 0.0, 1));
    }

    #[test]
    fn report_round_trips_through_json() {
        let original = report(ratio_rows());
        let text = original.to_json();
        assert!(text.contains("\"schema\": \"reuselens-bench/v2\""));
        assert!(text.contains("\"available_parallelism\": 2"));
        assert!(text.contains("\"checkpoint_overhead_ratio\""));
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, original);
    }

    /// The committed report loads under the strict shared parser and
    /// survives a write/read cycle unchanged.
    #[test]
    fn committed_report_loads_and_round_trips() {
        let committed = include_str!("../../../BENCH_reuselens.json");
        let parsed = BenchReport::from_json(committed).unwrap();
        assert!(!parsed.rows.is_empty());
        assert!(parsed.available_parallelism >= 1);
        assert_eq!(parsed.ratios().len(), RATIOS.len());
        assert_eq!(BenchReport::from_json(&parsed.to_json()).unwrap(), parsed);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(BenchReport::from_json("{\"schema\":\"other/v9\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{}").is_err());
        let v1 = r#"{"schema": "reuselens-bench/v1", "runs": []}"#;
        let err = BenchReport::from_json(v1).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let no_host = r#"{"schema": "reuselens-bench/v2", "rows": []}"#;
        assert!(BenchReport::from_json(no_host).is_err());
    }

    #[test]
    fn ratios_divide_row_medians_and_check_their_bars() {
        let mut current = report(ratio_rows());
        let checkpoint = ratio(&current, "checkpoint_overhead_ratio");
        assert!((checkpoint.value - 31.0 / 30.0).abs() < 1e-12);
        assert!(checkpoint.passes());
        // 2x on a >= 3x target misses; 170x clears the 100x floor.
        assert!(!ratio(&current, "sampled_speedup_ratio").passes());
        assert!(ratio(&current, "estimator_speedup_ratio").passes());
        // A lower-is-better ratio fails above its bar, passes on it.
        current.rows[1].median = 22.2;
        assert!(!ratio(&current, "obs_overhead_ratio").passes());
        current.rows[1].median = 22.0;
        assert!(ratio(&current, "obs_overhead_ratio").passes());
        // A ratio whose row is missing is absent.
        current.rows.retain(|r| r.name != "estimate_us_per_call");
        assert_eq!(current.ratios().len(), RATIOS.len() - 1);
    }

    #[test]
    fn diff_accepts_small_wobble() {
        // 10% worse with a narrow MAD: inside the 15% floor.
        assert!(!diff_one(Better::Lower, 100.0, 1.0, 110.0).regressed);
        assert!(!diff_one(Better::Higher, 100.0, 1.0, 90.0).regressed);
    }

    #[test]
    fn diff_flags_a_synthetic_20_percent_slowdown() {
        for (better, current) in [(Better::Lower, 120.0), (Better::Higher, 80.0)] {
            let outcome = diff_one(better, 100.0, 1.0, current);
            assert!(outcome.regressed, "{better:?}");
            let line = &outcome.lines[0];
            assert!(line.regressed);
            assert!((line.allowed - 15.0).abs() < 1e-9);
            assert!(outcome.render().contains("REGRESSED"));
        }
        // Only the moved row regresses.
        let base = report(vec![
            row("a", Better::Lower, 100.0, 1.0),
            row("b", Better::Lower, 100.0, 1.0),
        ]);
        let mut cur = base.clone();
        cur.rows[0].median = 120.0;
        let outcome = diff(&base, &cur);
        assert!(outcome.lines[0].regressed);
        assert!(!outcome.lines[1].regressed);
    }

    #[test]
    fn diff_forgives_a_20_percent_slowdown_within_three_mads() {
        // 3 × MAD = 24 > 20: the same 20% worsening is noise here.
        for (better, current) in [(Better::Lower, 120.0), (Better::Higher, 80.0)] {
            let outcome = diff_one(better, 100.0, 8.0, current);
            assert!(!outcome.regressed, "{better:?}");
            assert_eq!(outcome.lines[0].allowed, 24.0);
        }
    }

    #[test]
    fn diff_never_flags_an_improvement() {
        for mad in [0.0, 1.0, 50.0] {
            assert!(!diff_one(Better::Lower, 100.0, mad, 40.0).regressed);
            assert!(!diff_one(Better::Higher, 100.0, mad, 250.0).regressed);
        }
    }

    #[test]
    fn diff_ignores_runs_missing_from_either_side() {
        for better in [Better::Lower, Better::Higher] {
            let base = report(vec![
                row("only-base", better, 1.0, 0.0),
                row("both", better, 1.0, 0.0),
            ]);
            let cur = report(vec![
                row("only-cur", better, 9.0, 0.0),
                row("both", better, 1.0, 0.0),
            ]);
            let outcome = diff(&base, &cur);
            assert_eq!(outcome.lines.len(), 1);
            assert_eq!(outcome.lines[0].name, "both");
            assert!(!outcome.regressed);
        }
    }

    #[test]
    fn diff_gates_obs_overhead_ratio_lower_is_better() {
        // The overhead is gated through its two rows, lower is better: the
        // lit replay slowing 20% regresses, and the ratio itself gets no
        // diff line (its 1.10 bar is absolute).
        let base = report(ratio_rows());
        let mut cur = base.clone();
        cur.rows[1].median = 21.0 * 1.2;
        let outcome = diff(&base, &cur);
        assert!(outcome.regressed);
        assert!(outcome.lines.iter().all(|l| !l.name.ends_with("_ratio")));
        let lit = outcome
            .lines
            .iter()
            .find(|l| l.name == "obs_lit_replay_ms")
            .unwrap();
        assert!(lit.regressed);
        assert!((lit.delta - 0.2).abs() < 1e-9, "delta: {}", lit.delta);
        // The lit replay getting faster never regresses.
        cur.rows[1].median = 15.0;
        assert!(!diff(&base, &cur).regressed);
    }

    #[test]
    fn estimator_speedup_ratio_round_trips_and_is_not_diffed() {
        let base = report(ratio_rows());
        let parsed = BenchReport::from_json(&base.to_json()).unwrap();
        assert!((ratio(&parsed, "estimator_speedup_ratio").value - 170.0).abs() < 1e-9);
        // The ratio halving through a replay that got faster is an
        // improvement of the row, not a diff regression; the runner's
        // absolute floor owns the failure.
        let mut cur = base.clone();
        cur.rows[5].median = 8_500.0;
        assert!(!ratio(&cur, "estimator_speedup_ratio").passes());
        assert!(!diff(&base, &cur).regressed);
    }

    #[test]
    fn store_replay_speedup_ratio_round_trips_and_is_not_diffed() {
        let base = report(ratio_rows());
        let parsed = BenchReport::from_json(&base.to_json()).unwrap();
        assert!((ratio(&parsed, "store_replay_speedup_ratio").value - 4.2).abs() < 1e-9);
        let mut cur = base.clone();
        cur.rows[7].median = 15.0;
        assert!(!ratio(&cur, "store_replay_speedup_ratio").passes());
        assert!(!diff(&base, &cur).regressed);
    }

    #[test]
    fn checkpoint_overhead_ratio_round_trips_and_is_not_diffed() {
        let base = report(ratio_rows());
        let parsed = BenchReport::from_json(&base.to_json()).unwrap();
        let value = ratio(&parsed, "checkpoint_overhead_ratio").value;
        assert!((value - 31.0 / 30.0).abs() < 1e-9);
        // The plain replay getting 20% faster pushes the ratio past its
        // ceiling, but no row worsened, so the diff stays green.
        let mut cur = base.clone();
        cur.rows[2].median = 24.0;
        assert!(!ratio(&cur, "checkpoint_overhead_ratio").passes());
        assert!(!diff(&base, &cur).regressed);
    }
}
