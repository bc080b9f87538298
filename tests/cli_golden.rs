//! Golden stdout of every `reuselens --report` view.
//!
//! Each case runs the CLI on a small Sweep3D or GTC instance and pins the
//! CRC-32 and length of what it prints. Every view is run exact, and
//! every view that goes through an analysis is run sampled at 0.1 too
//! (`spatial` and `program` measure nothing a sampled replay changes).
//! A change to what a report prints, or to any number behind it, fails
//! here; a mismatch lists every case's new row, so a deliberate change
//! is re-pinned from the message.

use reuselens::store::crc32;
use std::process::Command;

const SWEEP3D: &[&str] = &["sweep3d", "--mesh", "6"];
const GTC: &[&str] = &["gtc", "--mgrid", "64", "--micell", "4"];

/// `(workload, report, sampled, stdout CRC-32, stdout length)`.
const CASES: &[(&str, &str, bool, u32, usize)] = &[
    ("sweep3d", "summary", false, 4234740090, 555),
    ("sweep3d", "summary", true, 976234681, 681),
    ("sweep3d", "carried", false, 4282405126, 308),
    ("sweep3d", "carried", true, 632652733, 308),
    ("sweep3d", "breakdown=flux", false, 756429776, 654),
    ("sweep3d", "breakdown=flux", true, 1611144309, 572),
    ("sweep3d", "frag", false, 3904697987, 128),
    ("sweep3d", "frag", true, 699005955, 128),
    ("sweep3d", "patterns", false, 2608883339, 2692),
    ("sweep3d", "patterns", true, 33666812, 2704),
    ("sweep3d", "patterns-csv", false, 3569558094, 8902),
    ("sweep3d", "patterns-csv", true, 175707890, 3464),
    ("sweep3d", "advice", false, 3416777739, 1275),
    ("sweep3d", "advice", true, 94188610, 2066),
    ("sweep3d", "spatial", false, 1228405447, 770),
    ("sweep3d", "curve", false, 387404355, 347),
    ("sweep3d", "curve", true, 556337111, 364),
    ("sweep3d", "contexts", false, 3207585694, 2604),
    ("sweep3d", "contexts", true, 4067805748, 2604),
    ("sweep3d", "program", false, 662916922, 2265),
    ("sweep3d", "xml", false, 2684746317, 3807),
    ("sweep3d", "xml", true, 2704852626, 3819),
    ("gtc", "summary", false, 1940264560, 633),
    ("gtc", "summary", true, 1430158585, 682),
    ("gtc", "carried", false, 1091239726, 385),
    ("gtc", "carried", true, 2692081234, 385),
    ("gtc", "breakdown=zion", false, 1967078717, 960),
    ("gtc", "breakdown=zion", true, 3387200191, 960),
    ("gtc", "frag", false, 3103847171, 192),
    ("gtc", "frag", true, 2535828038, 192),
    ("gtc", "patterns", false, 2372673515, 2676),
    ("gtc", "patterns", true, 2259471079, 2676),
    ("gtc", "patterns-csv", false, 890563374, 9427),
    ("gtc", "patterns-csv", true, 2665109842, 6939),
    ("gtc", "advice", false, 2827329680, 2466),
    ("gtc", "advice", true, 2029612635, 2466),
    ("gtc", "spatial", false, 793105535, 1078),
    ("gtc", "curve", false, 3960737366, 369),
    ("gtc", "curve", true, 3314813194, 369),
    ("gtc", "contexts", false, 2460062072, 2604),
    ("gtc", "contexts", true, 2593753153, 2604),
    ("gtc", "program", false, 3885112608, 2438),
    ("gtc", "xml", false, 3356322, 5161),
    ("gtc", "xml", true, 3235629754, 5169),
];

fn workload(name: &str) -> &'static [&'static str] {
    match name {
        "sweep3d" => SWEEP3D,
        "gtc" => GTC,
        other => panic!("no workload {other}"),
    }
}

fn stdout_of(name: &str, report: &str, sampled: bool) -> Vec<u8> {
    let mut args: Vec<&str> = workload(name).to_vec();
    args.extend(["--report", report]);
    if sampled {
        args.extend(["--sample-rate", "0.1"]);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_reuselens"))
        .args(&args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn every_report_view_prints_its_pinned_bytes() {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for name in ["sweep3d", "gtc"] {
        let breakdown = if name == "gtc" {
            "breakdown=zion"
        } else {
            "breakdown=flux"
        };
        let views = [
            "summary",
            "carried",
            breakdown,
            "frag",
            "patterns",
            "patterns-csv",
            "advice",
            "spatial",
            "curve",
            "contexts",
            "program",
            "xml",
        ];
        for report in views {
            for sampled in [false, true] {
                if sampled && matches!(report, "spatial" | "program") {
                    continue;
                }
                let stdout = stdout_of(name, report, sampled);
                assert!(!stdout.is_empty(), "{name} {report} printed nothing");
                let got = (crc32(&stdout), stdout.len());
                rows.push(format!(
                    "    ({name:?}, {report:?}, {sampled}, {}, {}),",
                    got.0, got.1
                ));
                let pinned = CASES
                    .iter()
                    .find(|c| (c.0, c.1, c.2) == (name, report, sampled))
                    .map(|c| (c.3, c.4));
                if pinned != Some(got) {
                    mismatches.push(format!("{name} {report} sampled={sampled}"));
                }
            }
        }
    }
    assert_eq!(rows.len(), CASES.len(), "cases:\n{}", rows.join("\n"));
    assert!(
        mismatches.is_empty(),
        "stdout changed for {mismatches:?}; every case now reads:\n{}",
        rows.join("\n")
    );
}
