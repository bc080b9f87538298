//! Human-readable report tables (the viewer views the paper screenshots
//! show, rendered as text).

use crate::attribution::LevelMetrics;
use crate::report::LocalityAnalysis;
use reuselens_ir::{ArrayId, Program};

/// Renders the carried-misses view (paper Fig. 5 / Fig. 10): scopes
/// carrying at least `threshold` (fraction) of any level's misses, with
/// their share per level.
pub fn format_carried_misses(
    program: &Program,
    levels: &[&LevelMetrics],
    threshold: f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<40}", "carried misses by scope"));
    for l in levels {
        out.push_str(&format!("{:>12}", l.level));
    }
    out.push('\n');
    // Union of scopes above threshold in any level.
    let nscopes = program.scopes().len();
    let mut rows: Vec<(usize, f64)> = (0..nscopes)
        .filter_map(|s| {
            let max_share = levels
                .iter()
                .map(|l| {
                    if l.total_misses > 0.0 {
                        l.carried[s] / l.total_misses
                    } else {
                        0.0
                    }
                })
                .fold(0.0f64, f64::max);
            (max_share >= threshold).then_some((s, max_share))
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (s, _) in rows {
        let path = program.scope_path(reuselens_ir::ScopeId(s as u32));
        out.push_str(&format!("{:<40}", truncate(&path, 39)));
        for l in levels {
            let share = if l.total_misses > 0.0 {
                100.0 * l.carried[s] / l.total_misses
            } else {
                0.0
            };
            out.push_str(&format!("{share:>11.1}%"));
        }
        out.push('\n');
    }
    out
}

/// Renders a Table II-style breakdown for one array: misses split by
/// (reuse source scope, carrying scope), as percentages of all misses at
/// the level.
pub fn format_array_breakdown(program: &Program, metrics: &LevelMetrics, array: ArrayId) -> String {
    let mut out = format!(
        "array {:<12} {:<24} {:<24} {:>10}\n",
        program.array(array).name(),
        "reuse source scope",
        "carrying scope",
        "% misses"
    );
    for (source, carrier, misses) in metrics.array_breakdown(array) {
        let pct = if metrics.total_misses > 0.0 {
            100.0 * misses / metrics.total_misses
        } else {
            0.0
        };
        if pct < 0.05 {
            continue;
        }
        out.push_str(&format!(
            "{:<18} {:<24} {:<24} {:>9.1}%\n",
            "",
            truncate(&program.scope_path(source), 23),
            truncate(&program.scope_path(carrier), 23),
            pct
        ));
    }
    out
}

/// Renders the fragmentation ranking (paper Fig. 9): arrays by
/// fragmentation misses with their total misses.
pub fn format_fragmentation(program: &Program, metrics: &LevelMetrics, top: usize) -> String {
    let mut out = format!(
        "{:<20} {:>16} {:>16} {:>8}\n",
        "array", "frag misses", "total misses", "frag%"
    );
    for (array, frag, total) in metrics.top_fragmented_arrays().into_iter().take(top) {
        out.push_str(&format!(
            "{:<20} {:>16.0} {:>16.0} {:>7.1}%\n",
            program.array(array).name(),
            frag,
            total,
            if total > 0.0 {
                100.0 * frag / total
            } else {
                0.0
            }
        ));
    }
    out
}

/// Renders the flat pattern database: the `top` patterns by misses, each
/// led by its sink's reference id.
pub fn format_pattern_db(program: &Program, metrics: &LevelMetrics, top: usize) -> String {
    // Distinct load sites can share a label, so the reference id leads.
    let mut out = format!(
        "{:<6} {:<26} {:<18} {:<18} {:>12} {:>9} {:>5}\n",
        "ref", "sink", "source scope", "carrier", "misses", "count", "irr"
    );
    for row in metrics.patterns.iter().take(top) {
        let sink = program.reference(row.key.sink);
        out.push_str(&format!(
            "{:<6} {:<26} {:<18} {:<18} {:>12.0} {:>9} {:>5}\n",
            row.key.sink.to_string(),
            truncate(sink.label(), 25),
            truncate(&program.scope_path(row.key.source_scope), 17),
            truncate(&program.scope_path(row.key.carrier), 17),
            row.misses,
            row.count,
            if row.irregular { "yes" } else { "" }
        ));
    }
    out
}

/// Exports the flat pattern database as CSV (machine-readable viewer
/// interchange): one row per reuse pattern with its attribution and
/// classification.
pub fn format_pattern_csv(program: &Program, metrics: &LevelMetrics) -> String {
    let mut out = String::from(
        "sink,array,sink_scope,source_scope,carrier,count,misses,frag_misses,irregular
",
    );
    for row in &metrics.patterns {
        let sink = program.reference(row.key.sink);
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.1},{:.1},{}
",
            csv_quote(sink.label()),
            csv_quote(program.array(row.array).name()),
            csv_quote(&program.scope_path(sink.scope())),
            csv_quote(&program.scope_path(row.key.source_scope)),
            csv_quote(&program.scope_path(row.key.carrier)),
            row.count,
            row.misses,
            row.frag_misses,
            row.irregular,
        ));
    }
    out
}

/// Quotes a CSV field when it contains separators or quotes.
fn csv_quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders the dynamic spatial-utilization view: arrays ranked by wasted
/// bytes, with the fraction of fetched bytes actually used.
pub fn format_spatial(program: &Program, profile: &reuselens_core::SpatialProfile) -> String {
    let mut out = format!(
        "{:<20} {:>12} {:>14} {:>14} {:>12}\n",
        "array", "lines", "bytes fetched", "bytes used", "utilization"
    );
    for (array, _wasted, util) in profile.most_wasteful() {
        let s = profile.per_array[array.index()];
        out.push_str(&format!(
            "{:<20} {:>12} {:>14} {:>14} {:>11.1}%\n",
            program.array(array).name(),
            s.lines,
            s.bytes_fetched,
            s.bytes_touched,
            100.0 * util
        ));
    }
    out
}

/// Renders the per-level totals summary for a whole analysis.
///
/// Profiles measured by the sampled analyzer are flagged up front — every
/// downstream count is then a scaled estimate, not an exact total. Exact
/// runs render byte-identically to before the annotation existed.
pub fn format_summary(la: &LocalityAnalysis) -> String {
    let mut out = String::new();
    for p in &la.analysis.profiles {
        if let Some(info) = p.sampling {
            out.push_str(&format!(
                "sampled: grain {} at rate 1/{} (counts are scaled estimates)\n",
                p.block_size, info.inv
            ));
        }
    }
    out.push_str(&format!(
        "{:<8} {:>14} {:>12} {:>10}\n",
        "level", "misses", "cold", "miss rate"
    ));
    for m in la.all_levels() {
        let rate = if la.report.accesses > 0 {
            m.total_misses / la.report.accesses as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<8} {:>14.0} {:>12} {:>9.2}%\n",
            m.level,
            m.total_misses,
            m.cold_misses,
            100.0 * rate
        ));
    }
    out.push_str(&format!(
        "cycles: {:.0} (non-stall {:.0}, stall fraction {:.1}%)\n",
        la.report.timing.total(),
        la.report.timing.non_stall,
        100.0 * la.report.timing.stall_fraction()
    ));
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("…{}", &s[s.len() - (n - 1)..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::run_locality_analysis;
    use reuselens_cache::MemoryHierarchy;
    use reuselens_ir::ProgramBuilder;

    fn analysis() -> (reuselens_ir::Program, LocalityAnalysis) {
        let mut p = ProgramBuilder::new("t");
        let zion = p.array("zion", 8, &[7, 4096]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("i", 0, 4095, |r, i| {
                    r.load(zion, vec![reuselens_ir::Expr::c(2), i.into()]);
                });
            });
        });
        let prog = p.finish();
        let la =
            run_locality_analysis(&prog, &MemoryHierarchy::itanium2_scaled(16), vec![]).unwrap();
        (prog, la)
    }

    #[test]
    fn carried_misses_table_names_the_loop() {
        let (prog, la) = analysis();
        let text = format_carried_misses(&prog, &la.all_levels(), 0.01);
        assert!(text.contains("main/t"));
        assert!(text.contains("L2"));
        assert!(text.contains('%'));
    }

    #[test]
    fn fragmentation_table_ranks_zion() {
        let (prog, la) = analysis();
        let l3 = la.level("L3").unwrap();
        let text = format_fragmentation(&prog, l3, 5);
        assert!(text.contains("zion"));
        // Reuse misses on zion carry the 6/7 fragmentation factor.
        assert!(l3.total_fragmentation() > 0.0);
        let (_, frag, total) = l3.top_fragmented_arrays()[0];
        assert!(frag > 0.0 && frag < total);
    }

    #[test]
    fn pattern_db_and_breakdown_render() {
        let (prog, la) = analysis();
        let l2 = la.level("L2").unwrap();
        let db = format_pattern_db(&prog, l2, 10);
        assert!(db.contains("zion"));
        let bd = format_array_breakdown(&prog, l2, prog.array_by_name("zion").unwrap());
        assert!(bd.contains("zion"));
        let summary = format_summary(&la);
        assert!(summary.contains("TLB"));
        assert!(summary.contains("cycles"));
    }

    #[test]
    fn pattern_csv_has_one_row_per_pattern() {
        let (prog, la) = analysis();
        let l2 = la.level("L2").unwrap();
        let csv = format_pattern_csv(&prog, l2);
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), l2.patterns.len() + 1);
        assert!(rows[0].starts_with("sink,array,"));
        // The sink label contains commas: it must be quoted.
        assert!(rows[1].starts_with('"'));
    }

    #[test]
    fn csv_quote_escapes() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn truncate_keeps_tail() {
        assert_eq!(truncate("abc", 5), "abc");
        assert_eq!(truncate("abcdefgh", 5), "…efgh");
    }
}
