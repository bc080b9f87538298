//! Shared support for the paper-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper. The memory hierarchy is the Itanium2 preset scaled down by
//! `REPRO_SCALE` (default 16), matching the CI-sized meshes the harnesses
//! run: shrinking caches and working sets by the same factor preserves
//! every crossover the figures show. Set `REPRO_SCALE=1` and grow the
//! sizes for a full-scale run.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod report;

use reuselens::cache::MemoryHierarchy;

/// The hierarchy every repro binary predicts for: Itanium2 divided by
/// `REPRO_SCALE` (default 16).
pub fn hierarchy() -> MemoryHierarchy {
    let scale = std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(16);
    if scale <= 1 {
        MemoryHierarchy::itanium2()
    } else {
        MemoryHierarchy::itanium2_scaled(scale)
    }
}

/// Renders one aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{c:>w$}  ", w = w));
    }
    out.trim_end().to_string()
}

/// Renders a CSV line.
pub fn csv(cells: &[String]) -> String {
    cells.join(",")
}

/// Formats a float compactly for tables.
pub fn num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Renders multiple labeled series as a compact ASCII chart: one row per
/// series, one glyph per x-position, heights normalized to the global
/// maximum. Good enough to *see* the crossovers the paper's figures show
/// without leaving the terminal.
pub fn ascii_chart(title: &str, xs: &[String], series: &[(String, Vec<f64>)]) -> String {
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .fold(0.0f64, f64::max);
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(0).max(8);
    let mut out = format!("{title} (bar height ∝ value, max {max:.3})\n");
    for (label, ys) in series {
        out.push_str(&format!("{label:<label_w$} "));
        for &y in ys {
            let idx = if max <= 0.0 {
                0
            } else {
                ((y / max) * (GLYPHS.len() - 1) as f64).round() as usize
            };
            out.push(GLYPHS[idx.min(GLYPHS.len() - 1)]);
        }
        if let Some(last) = ys.last() {
            out.push_str(&format!("  ({last:.3})"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<label_w$} ", "x:"));
    out.push_str(&xs.join(","));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_defaults_to_scaled_itanium2() {
        let h = hierarchy();
        assert!(h.name.starts_with("Itanium2"));
        assert_eq!(h.levels.len(), 2);
    }

    #[test]
    fn ascii_chart_scales_to_max() {
        let xs: Vec<String> = ["8", "16"].iter().map(|s| s.to_string()).collect();
        let chart = ascii_chart(
            "demo",
            &xs,
            &[
                ("hi".to_string(), vec![1.0, 2.0]),
                ("lo".to_string(), vec![0.0, 1.0]),
            ],
        );
        assert!(chart.contains('█')); // the global max renders full height
        assert!(chart.contains("demo"));
        assert!(chart.contains("8,16"));
        // Empty series / all-zero data must not divide by zero.
        let flat = ascii_chart("z", &xs, &[("z".to_string(), vec![0.0, 0.0])]);
        assert!(flat.contains("(0.000)"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(12345.6), "12346");
        assert_eq!(num(42.25), "42.2");
        assert_eq!(num(1.5), "1.500");
        assert_eq!(csv(&["a".into(), "b".into()]), "a,b");
        assert_eq!(row(&["x".into()], &[3]), "  x");
    }
}
