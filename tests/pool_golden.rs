//! Golden profile CRCs of the daemon benchmark's workload pool.
//!
//! The daemon answers every replay with `profiles_crc`, the CRC-32 of the
//! canonical serialized profiles (`write_profiles`). This suite pins that
//! value for the four pool workloads (Sweep3D and GTC, each as written
//! and with its best transformation), replayed exact and sampled at 0.1
//! over the Itanium2 line and page grains, from the encoded buffer and
//! from its decoded form. Any change to what the analyzers measure on
//! these traces fails here, before a benchmark run checks the daemon's
//! answers against an in-process replay.

use reuselens::core::{
    analyze_buffer_with, analyze_decoded_with, capture_program, write_profiles, AnalyzeOptions,
    PartialAnalysis, SamplingConfig, SavedProfiles,
};
use reuselens::serve::WorkloadSpec;
use reuselens::store::crc32;
use reuselens::trace::DecodedTrace;

/// Line and page grain of the Itanium2 hierarchy.
const GRAINS: [u64; 2] = [128, 16384];

/// `(spec, exact profiles_crc, sampled-0.1 profiles_crc)`.
const POOL: [(&str, u32, u32); 4] = [
    ("sweep3d mesh=8", 1728186999, 3923646676),
    ("sweep3d mesh=8 block=6 dim-ic", 1214728473, 1322482677),
    ("gtc mgrid=256 micell=8", 1988834302, 3353064319),
    ("gtc mgrid=256 micell=8 variant=6", 3113912881, 1076208881),
];

fn profiles_crc(name: &str, partial: PartialAnalysis) -> u32 {
    assert!(partial.failures.is_empty(), "{:?}", partial.failures);
    let saved = SavedProfiles {
        name: name.to_string(),
        size: 0.0,
        profiles: partial.profiles,
    };
    let mut bytes = Vec::new();
    write_profiles(&saved, &mut bytes).expect("serialize profiles");
    crc32(&bytes)
}

#[test]
fn pool_profiles_crc_is_pinned() {
    for (spec, exact_crc, sampled_crc) in POOL {
        let w = WorkloadSpec::from_spec_string(spec)
            .and_then(|s| s.build())
            .expect("pool spec");
        let (buffer, _) = capture_program(&w.program, w.index_arrays.clone()).expect("capture");
        let decoded = DecodedTrace::new(&buffer);
        let name = w.program.name();
        for (sampling, want) in [
            (SamplingConfig::Exact, exact_crc),
            (SamplingConfig::fixed(0.1), sampled_crc),
        ] {
            let opts = AnalyzeOptions {
                sampling,
                ..AnalyzeOptions::default()
            };
            let encoded = analyze_buffer_with(&w.program, &buffer, &GRAINS, &opts);
            let from_decoded = analyze_decoded_with(&w.program, &decoded, &GRAINS, &opts);
            let got = profiles_crc(name, encoded);
            assert_eq!(got, want, "{spec} {sampling:?}: encoded replay");
            assert_eq!(
                profiles_crc(name, from_decoded),
                want,
                "{spec} {sampling:?}: decoded replay"
            );
        }
    }
}
