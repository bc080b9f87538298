//! Plain-text persistence for reuse profiles.
//!
//! The paper's modeling workflow is *train then predict*: collect reuse
//! distance on a few small inputs, fit the scaling model, predict larger
//! ones. That requires profiles to outlive a process. The format here is a
//! line-oriented text file (no external serialization dependency), lossless
//! at histogram-bin granularity, and versioned.
//!
//! ```text
//! reuselens-profiles v1
//! name <program name>
//! size <problem size the run used>
//! profile <block_size> <total_accesses> <distinct_blocks>
//! sampling <inv> <blocks_sampled> <blocks_evicted> <rate_drops>
//! cold <c0> <c1> ...
//! pattern <sink> <source_scope> <carrier> <lo:count> <lo:count> ...
//! ...
//! end
//! ```
//!
//! The `sampling` line appears only for profiles measured by the sampled
//! analyzer; exact profiles serialize exactly as they did before sampling
//! existed, so old files still read back bit-identically.

use crate::histogram::Histogram;
use crate::patterns::{PatternKey, ReusePattern, ReuseProfile};
use crate::sampling::SamplingInfo;
use reuselens_ir::{RefId, ScopeId};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// A saved set of profiles: one program run measured at several
/// granularities, tagged with the problem size for scaling models.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedProfiles {
    /// The program name the run came from.
    pub name: String,
    /// The problem size (mesh extent, particles per cell, ...) — the
    /// x-coordinate for [`ProfileModel::fit`](../reuselens_model/struct.ProfileModel.html).
    pub size: f64,
    /// One profile per measured block size.
    pub profiles: Vec<ReuseProfile>,
}

impl SavedProfiles {
    /// The profile measured at a given block size.
    pub fn profile_at(&self, block_size: u64) -> Option<&ReuseProfile> {
        self.profiles.iter().find(|p| p.block_size == block_size)
    }
}

/// Error from [`read_profiles`].
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The text did not parse; the message names the offending line.
    Parse(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error reading profile: {e}"),
            ReadError::Parse(msg) => write!(f, "malformed profile: {msg}"),
        }
    }
}

impl Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// Writes saved profiles in the versioned text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_profiles<W: Write>(saved: &SavedProfiles, mut w: W) -> io::Result<()> {
    writeln!(w, "reuselens-profiles v1")?;
    writeln!(w, "name {}", saved.name)?;
    writeln!(w, "size {}", saved.size)?;
    for p in &saved.profiles {
        writeln!(
            w,
            "profile {} {} {}",
            p.block_size, p.total_accesses, p.distinct_blocks
        )?;
        if let Some(s) = &p.sampling {
            writeln!(
                w,
                "sampling {} {} {} {}",
                s.inv, s.blocks_sampled, s.blocks_evicted, s.rate_drops
            )?;
        }
        write!(w, "cold")?;
        for c in &p.cold {
            write!(w, " {c}")?;
        }
        writeln!(w)?;
        for pat in &p.patterns {
            write!(
                w,
                "pattern {} {} {}",
                pat.key.sink.0, pat.key.source_scope.0, pat.key.carrier.0
            )?;
            for (lo, _hi, count) in pat.histogram.iter() {
                write!(w, " {lo}:{count}")?;
            }
            writeln!(w)?;
        }
    }
    writeln!(w, "end")
}

/// Reads saved profiles written by [`write_profiles`].
///
/// # Errors
///
/// Returns [`ReadError::Parse`] on malformed input, [`ReadError::Io`] on
/// reader failure.
pub fn read_profiles<R: BufRead>(r: R) -> Result<SavedProfiles, ReadError> {
    let mut lines = r.lines();
    let mut next = || -> Result<Option<String>, ReadError> {
        match lines.next() {
            None => Ok(None),
            Some(l) => Ok(Some(l?)),
        }
    };
    let header = next()?.ok_or_else(|| ReadError::Parse("empty file".into()))?;
    if header.trim() != "reuselens-profiles v1" {
        return Err(ReadError::Parse(format!("bad header '{header}'")));
    }
    let name_line = next()?.ok_or_else(|| ReadError::Parse("missing name".into()))?;
    let name = name_line
        .strip_prefix("name ")
        .ok_or_else(|| ReadError::Parse(format!("expected 'name', got '{name_line}'")))?
        .to_string();
    let size_line = next()?.ok_or_else(|| ReadError::Parse("missing size".into()))?;
    let size: f64 = size_line
        .strip_prefix("size ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ReadError::Parse(format!("bad size line '{size_line}'")))?;

    let mut profiles = Vec::new();
    let mut current: Option<ReuseProfile> = None;
    loop {
        let Some(line) = next()? else {
            return Err(ReadError::Parse("missing 'end'".into()));
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "end" {
            if let Some(p) = current.take() {
                profiles.push(p);
            }
            break;
        }
        if let Some(rest) = line.strip_prefix("profile ") {
            if let Some(p) = current.take() {
                profiles.push(p);
            }
            let mut it = rest.split_ascii_whitespace();
            let block_size = parse_field(&mut it, "block_size")?;
            let total_accesses = parse_field(&mut it, "total_accesses")?;
            let distinct_blocks = parse_field(&mut it, "distinct_blocks")?;
            current = Some(ReuseProfile {
                block_size,
                patterns: Vec::new(),
                cold: Vec::new(),
                total_accesses,
                distinct_blocks,
                sampling: None,
            });
        } else if let Some(rest) = line.strip_prefix("sampling ") {
            let p = current
                .as_mut()
                .ok_or_else(|| ReadError::Parse("'sampling' before 'profile'".into()))?;
            let mut it = rest.split_ascii_whitespace();
            p.sampling = Some(SamplingInfo {
                inv: parse_field(&mut it, "inv")?,
                blocks_sampled: parse_field(&mut it, "blocks_sampled")?,
                blocks_evicted: parse_field(&mut it, "blocks_evicted")?,
                rate_drops: parse_field(&mut it, "rate_drops")?,
            });
        } else if let Some(rest) = line.strip_prefix("cold") {
            let p = current
                .as_mut()
                .ok_or_else(|| ReadError::Parse("'cold' before 'profile'".into()))?;
            p.cold = rest
                .split_ascii_whitespace()
                .map(|t| {
                    t.parse::<u64>()
                        .map_err(|_| ReadError::Parse(format!("bad cold count '{t}'")))
                })
                .collect::<Result<_, _>>()?;
        } else if let Some(rest) = line.strip_prefix("pattern ") {
            let p = current
                .as_mut()
                .ok_or_else(|| ReadError::Parse("'pattern' before 'profile'".into()))?;
            let mut it = rest.split_ascii_whitespace();
            let sink: u32 = parse_field(&mut it, "sink")?;
            let source: u32 = parse_field(&mut it, "source")?;
            let carrier: u32 = parse_field(&mut it, "carrier")?;
            let mut histogram = Histogram::new();
            for tok in it {
                let (lo, count) = tok
                    .split_once(':')
                    .ok_or_else(|| ReadError::Parse(format!("bad bin '{tok}'")))?;
                let lo: u64 = lo
                    .parse()
                    .map_err(|_| ReadError::Parse(format!("bad bin distance '{tok}'")))?;
                let count: u64 = count
                    .parse()
                    .map_err(|_| ReadError::Parse(format!("bad bin count '{tok}'")))?;
                histogram.add_n(lo, count);
            }
            p.patterns.push(ReusePattern {
                key: PatternKey {
                    sink: RefId(sink),
                    source_scope: ScopeId(source),
                    carrier: ScopeId(carrier),
                },
                histogram,
            });
        } else {
            return Err(ReadError::Parse(format!("unrecognized line '{line}'")));
        }
    }
    Ok(SavedProfiles {
        name,
        size,
        profiles,
    })
}

fn parse_field<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, ReadError> {
    it.next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ReadError::Parse(format!("missing or bad {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_program;
    use reuselens_ir::{Expr, ProgramBuilder};
    use reuselens_prng::SplitMix64;

    fn sample() -> SavedProfiles {
        let mut p = ProgramBuilder::new("roundtrip");
        let ix = p.index_array("ix", &[64]);
        let a = p.array("a", 8, &[4096]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("i", 0, 63, |r, i| {
                    r.load(a, vec![Expr::load(ix, vec![i.into()])]);
                });
            });
        });
        let prog = p.finish();
        let idx: Vec<i64> = (0..64).map(|k| (k * 61) % 4096).collect();
        let analysis = analyze_program(&prog, &[64, 4096], vec![(ix, idx)]).unwrap();
        SavedProfiles {
            name: prog.name().to_string(),
            size: 64.0,
            profiles: analysis.profiles,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let saved = sample();
        let mut buf = Vec::new();
        write_profiles(&saved, &mut buf).unwrap();
        let loaded = read_profiles(buf.as_slice()).unwrap();
        assert_eq!(saved, loaded);
        assert!(loaded.profile_at(64).is_some());
        assert!(loaded.profile_at(4096).is_some());
        assert!(loaded.profile_at(128).is_none());
    }

    /// A sampled profile round-trips with its `sampling` line, and the
    /// line never appears for exact profiles (old readers stay happy).
    #[test]
    fn sampled_profiles_round_trip() {
        let mut saved = sample();
        saved.profiles[0].sampling = Some(SamplingInfo {
            inv: 128,
            blocks_sampled: 7,
            blocks_evicted: 3,
            rate_drops: 2,
        });
        let mut buf = Vec::new();
        write_profiles(&saved, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.matches("sampling ").count(), 1);
        let loaded = read_profiles(buf.as_slice()).unwrap();
        assert_eq!(saved, loaded);
        assert!(loaded.profiles[1].sampling.is_none());
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(matches!(
            read_profiles("".as_bytes()),
            Err(ReadError::Parse(_))
        ));
        assert!(matches!(
            read_profiles("not a profile\n".as_bytes()),
            Err(ReadError::Parse(_))
        ));
        let missing_end = "reuselens-profiles v1\nname x\nsize 1\nprofile 64 0 0\ncold\n";
        assert!(matches!(
            read_profiles(missing_end.as_bytes()),
            Err(ReadError::Parse(_))
        ));
        let bad_bin =
            "reuselens-profiles v1\nname x\nsize 1\nprofile 64 0 0\ncold\npattern 0 0 0 zz\nend\n";
        assert!(matches!(
            read_profiles(bad_bin.as_bytes()),
            Err(ReadError::Parse(_))
        ));
    }

    /// Histograms round-trip exactly because serialized bin lows fall
    /// back into the same bins (seeded randomized check).
    #[test]
    fn histogram_bins_round_trip() {
        let mut rng = SplitMix64::seed_from_u64(0x5e71_a112e);
        for _case in 0..128 {
            let ds = rng.vec_u64(0..100, 0..1 << 30);
            let h: Histogram = ds.iter().copied().collect();
            let mut rebuilt = Histogram::new();
            for (lo, _hi, c) in h.iter() {
                rebuilt.add_n(lo, c);
            }
            assert_eq!(h, rebuilt);
        }
    }
}
