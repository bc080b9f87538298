//! Crash-safe analyzer snapshots: the checkpoint format behind
//! [`AnalyzeOptions::checkpoint`](crate::AnalyzeOptions::checkpoint).
//!
//! A snapshot freezes one grain's full mid-stream analyzer state — clock,
//! block table, order-statistic structure, recent-access window, scope
//! stack, per-pattern histograms, cold counts, and (in sampled mode) the
//! sampling books — so an analysis killed at any point can resume from the
//! newest valid checkpoint and finish with a profile **bit-identical** to
//! an uninterrupted run.
//!
//! ## Frame layout
//!
//! ```text
//! +--------+---------+----------------------+----------------------+
//! | magic  | version | header frame         | state frame          |
//! | RLSNAP | u16 LE  | u32 len, u32 crc, .. | u32 len, u32 crc, .. |
//! +--------+---------+----------------------+----------------------+
//! ```
//!
//! This is the shared frame shape of [`reuselens_trace::frame`]: both
//! frames are length-prefixed and guarded by a CRC-32 (IEEE) over their
//! payload, so torn writes, truncation, bit rot and trailing garbage are
//! all detected before any state byte is interpreted. The header frame
//! carries the resume metadata (grain, mode, events and accesses already
//! consumed, reference count); the state frame carries the analyzer
//! payload. All integers are little-endian and fixed-width:
//! the encoding of a given state is deterministic byte for byte.
//!
//! Derivable state is never serialized — Fenwick trees, hash indexes,
//! hot-entry hints, spatial hashes and the sampled order-statistic set
//! are all rebuilt on decode — which keeps snapshots small and removes a
//! whole class of internally-inconsistent-snapshot corruption.
//!
//! ## Version policy
//!
//! [`SNAPSHOT_VERSION`] is bumped on any layout change; a reader rejects
//! other versions with [`SnapshotError::UnsupportedVersion`] rather than
//! guessing. There is no in-place migration: a checkpoint is a cache of
//! resumable progress, and the fallback for a version-skewed file is the
//! same as for a corrupt one — try the next-newest checkpoint, or start
//! the analysis over.
//!
//! ## Atomic-rename protocol
//!
//! Writers never expose a torn file under a valid name: the analyzer
//! state is encoded in memory, then its header and state frames are
//! streamed by [`frame::publish`](reuselens_trace::frame::publish) into a
//! dot-prefixed temporary in the same directory, which is renamed into
//! place (atomic on POSIX).
//! A crash mid-write leaves only a `.tmp` file the resume scan
//! ignores; a crash between write and rename leaves the previous
//! checkpoint as the newest valid one. The threat model is a dying
//! *process* (the rename is not fsync-durable against power loss).

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use reuselens_trace::frame::{self, Frame, FrameError, PublishError};
pub(crate) use reuselens_trace::frame::{Dec, Enc};

/// Current snapshot format version; see the module docs for the policy.
pub const SNAPSHOT_VERSION: u16 = 1;

/// File magic, the first six bytes of every snapshot.
const MAGIC: [u8; 6] = *b"RLSNAP";

/// File-name extension of published snapshots.
const EXT: &str = ".rlsnap";

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Why a snapshot could not be written, read, or decoded. Every variant
/// that concerns the bytes of a file carries the byte offset at which the
/// problem was found, mirroring the trace decoder's diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A filesystem operation failed while writing or reading a snapshot.
    Io {
        /// What was being attempted ("create", "write", "rename", ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// The file ends before the bytes the format requires — a torn or
    /// truncated write.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: u64,
        /// Bytes the decoder needed at that offset.
        needed: u64,
        /// Bytes actually available there.
        have: u64,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is not one this reader understands.
    UnsupportedVersion {
        /// Version found in the file.
        found: u16,
        /// Version this build reads.
        supported: u16,
    },
    /// A frame's checksum does not match its payload.
    CrcMismatch {
        /// Which frame ("header" or "state").
        frame: &'static str,
        /// Byte offset of the frame's payload.
        offset: u64,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The bytes decode but violate a structural invariant of the state
    /// they claim to encode.
    Corrupt {
        /// Byte offset at which the invariant was found violated.
        offset: u64,
        /// What was wrong.
        what: String,
    },
    /// The snapshot is internally valid but does not belong to this run —
    /// wrong grain, wrong program shape, or more progress than the trace
    /// being resumed actually contains.
    Mismatch {
        /// What disagreed.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { op, path, message } => {
                write!(f, "snapshot {op} failed for {}: {message}", path.display())
            }
            SnapshotError::Truncated {
                offset,
                needed,
                have,
            } => write!(
                f,
                "snapshot truncated at byte {offset}: needed {needed} more bytes, found {have}"
            ),
            SnapshotError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapshotError::CrcMismatch {
                frame,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "snapshot {frame} frame checksum mismatch at byte {offset}: \
                 stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::Corrupt { offset, what } => {
                write!(f, "corrupt snapshot at byte {offset}: {what}")
            }
            SnapshotError::Mismatch { what } => {
                write!(f, "snapshot does not match this analysis: {what}")
            }
        }
    }
}

impl Error for SnapshotError {}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> SnapshotError {
        match e {
            FrameError::Truncated {
                offset,
                needed,
                have,
            } => SnapshotError::Truncated {
                offset,
                needed,
                have,
            },
            FrameError::BadMagic => SnapshotError::BadMagic,
            FrameError::UnsupportedVersion { found, supported } => {
                SnapshotError::UnsupportedVersion { found, supported }
            }
            FrameError::CrcMismatch {
                frame,
                offset,
                stored,
                computed,
            } => SnapshotError::CrcMismatch {
                frame,
                offset,
                stored,
                computed,
            },
            FrameError::Corrupt { offset, what } => SnapshotError::Corrupt { offset, what },
        }
    }
}

impl From<PublishError> for SnapshotError {
    fn from(e: PublishError) -> SnapshotError {
        SnapshotError::Io {
            op: e.op,
            path: e.path,
            message: e.error.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Header + frame assembly
// ---------------------------------------------------------------------------

/// Resume metadata carried by a snapshot's header frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapshotHeader {
    /// Grain (block size) the snapshotted analyzer measures at.
    pub(crate) block_size: u64,
    /// True when the state frame holds a sampled analyzer.
    pub(crate) sampled: bool,
    /// Trace events already consumed when the snapshot was taken.
    pub(crate) events_replayed: u64,
    /// Memory accesses among those events (the global access clock).
    pub(crate) accesses_replayed: u64,
    /// Number of static references the analyzer was sized for.
    pub(crate) nrefs: u32,
}

impl SnapshotHeader {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.block_size);
        e.u8(u8::from(self.sampled));
        e.u64(self.events_replayed);
        e.u64(self.accesses_replayed);
        e.u32(self.nrefs);
    }

    fn decode(d: &mut Dec<'_>) -> Result<SnapshotHeader, SnapshotError> {
        let at = d.offset();
        let block_size = d.u64()?;
        if !block_size.is_power_of_two() {
            return Err(SnapshotError::Corrupt {
                offset: at,
                what: format!("block size {block_size} is not a power of two"),
            });
        }
        let sampled = match d.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(d
                    .corrupt(format!("unknown analyzer mode byte {other}"))
                    .into());
            }
        };
        let events_replayed = d.u64()?;
        let accesses_replayed = d.u64()?;
        if accesses_replayed > events_replayed {
            return Err(d
                .corrupt(format!(
                    "{accesses_replayed} accesses exceed {events_replayed} events"
                ))
                .into());
        }
        let nrefs = d.u32()?;
        Ok(SnapshotHeader {
            block_size,
            sampled,
            events_replayed,
            accesses_replayed,
            nrefs,
        })
    }
}

/// What a snapshot file claims to contain, decoded (and fully
/// CRC-verified) without reconstructing the analyzer. This is the
/// cheapest full-integrity check for a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Format version of the file.
    pub version: u16,
    /// Grain the snapshot belongs to.
    pub block_size: u64,
    /// True when the snapshot holds a sampled analyzer.
    pub sampled: bool,
    /// Trace events already consumed at the checkpoint.
    pub events_replayed: u64,
    /// Memory accesses among those events.
    pub accesses_replayed: u64,
}

/// Hands `write` the two frames of a snapshot image, `header` and
/// `state`, borrowed and checksummed.
fn with_snapshot_frames<R>(
    header: &SnapshotHeader,
    state: &[u8],
    write: impl FnOnce(&[Frame<'_>]) -> R,
) -> R {
    let mut henc = Enc::new();
    header.encode(&mut henc);
    let (h, s) = ([&henc.buf[..]], [state]);
    write(&[Frame::new(&h), Frame::new(&s)])
}

/// A complete snapshot file image, in memory.
#[cfg(test)]
pub(crate) fn encode_snapshot(header: &SnapshotHeader, state: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    with_snapshot_frames(header, state, |frames| {
        frame::write_image(&mut out, &MAGIC, SNAPSHOT_VERSION, frames)
    })
    .unwrap_or_else(|e| unreachable!("a Vec takes every write: {e}"));
    out
}

/// Splits a snapshot file image into its verified header and state
/// decoders. Checks magic, version, both lengths, both CRCs, and that no
/// garbage trails the last frame.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<(SnapshotHeader, Dec<'_>), SnapshotError> {
    let [mut hdec, sdec] = frame::decode(bytes, &MAGIC, SNAPSHOT_VERSION, ["header", "state"])?;
    let header = SnapshotHeader::decode(&mut hdec)?;
    hdec.finish()?;
    Ok((header, sdec))
}

/// Decodes and fully verifies a snapshot image's framing and header
/// without reconstructing the analyzer state.
///
/// # Errors
///
/// Any framing, checksum, version, or header-structure problem, with
/// byte-offset diagnostics.
pub fn snapshot_meta(bytes: &[u8]) -> Result<SnapshotMeta, SnapshotError> {
    let (h, _) = decode_snapshot(bytes)?;
    Ok(SnapshotMeta {
        version: SNAPSHOT_VERSION,
        block_size: h.block_size,
        sampled: h.sampled,
        events_replayed: h.events_replayed,
        accesses_replayed: h.accesses_replayed,
    })
}

// ---------------------------------------------------------------------------
// File protocol
// ---------------------------------------------------------------------------

/// The published file name of a grain's checkpoint at `events` consumed
/// events. Events are zero-padded so lexicographic order is progress
/// order.
pub fn snapshot_file_name(block_size: u64, events: u64) -> String {
    format!("ckpt-g{block_size}-{events:020}{EXT}")
}

/// Parses a published snapshot file name for the given grain back into
/// its event count. Temporary (dot-prefixed) files, other grains' files,
/// and unrelated names all return `None`.
pub(crate) fn parse_snapshot_file_name(name: &str, block_size: u64) -> Option<u64> {
    let rest = name.strip_prefix(&format!("ckpt-g{block_size}-"))?;
    let digits = rest.strip_suffix(EXT)?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        op,
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Publishes the snapshot of `header` and `state` under the grain's
/// checkpoint name via the temp-file + atomic-rename protocol (see the
/// module docs), streaming both frames straight to the file. Returns the
/// file's length in bytes.
pub(crate) fn write_snapshot_file(
    dir: &Path,
    header: &SnapshotHeader,
    state: &[u8],
) -> Result<u64, SnapshotError> {
    fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
    let name = snapshot_file_name(header.block_size, header.events_replayed);
    Ok(with_snapshot_frames(header, state, |frames| {
        frame::publish(dir, &name, &MAGIC, SNAPSHOT_VERSION, frames)
    })?)
}

/// Every published checkpoint of the given grain in `dir`, newest (most
/// events) first. A missing directory is an empty list, not an error.
pub(crate) fn list_snapshots(
    dir: &Path,
    block_size: u64,
) -> Result<Vec<(u64, PathBuf)>, SnapshotError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("read dir", dir, &e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(events) = parse_snapshot_file_name(name, block_size) {
            out.push((events, entry.path()));
        }
    }
    out.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    Ok(out)
}

/// Reads a snapshot file's bytes, mapping I/O failures into the taxonomy.
pub(crate) fn read_snapshot_bytes(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    fs::read(path).map_err(|e| io_err("read", path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::ReuseAnalyzer;
    use crate::histogram::Histogram;
    use crate::sampling::{SampledAnalyzer, SamplingConfig};
    use crate::timebits::TimeBits;
    use reuselens_ir::{ProgramBuilder, RefId};
    use reuselens_prng::SplitMix64;
    use reuselens_trace::TraceSink;

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            block_size: 64,
            sampled: false,
            events_replayed: 1234,
            accesses_replayed: 1000,
            nrefs: 3,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Snapshots are checksummed with the shared frame CRC; pin it to
        // the classic IEEE test vector.
        assert_eq!(frame::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(frame::crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        let bytes = encode_snapshot(&header(), &[1, 2, 3, 4, 5]);
        let (h, mut sdec) = decode_snapshot(&bytes).unwrap();
        assert_eq!(h, header());
        for want in 1u8..=5 {
            assert_eq!(sdec.u8().unwrap(), want);
        }
        sdec.finish().unwrap();
        let meta = snapshot_meta(&bytes).unwrap();
        assert_eq!(meta.version, SNAPSHOT_VERSION);
        assert_eq!(meta.block_size, 64);
        assert_eq!(meta.events_replayed, 1234);
        assert_eq!(meta.accesses_replayed, 1000);
        assert!(!meta.sampled);
    }

    /// Every strict prefix of a valid snapshot is rejected with a typed
    /// error — truncation at *any* byte boundary is caught.
    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_snapshot(&header(), &[9; 40]);
        for keep in 0..bytes.len() {
            let err = snapshot_meta(&bytes[..keep]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::CrcMismatch { .. }
                ),
                "prefix {keep}: unexpected {err}"
            );
        }
    }

    /// Every single-bit flip anywhere in a snapshot is rejected — the
    /// magic, version, lengths, CRCs and payloads are all covered.
    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = encode_snapshot(&header(), &[7; 24]);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    snapshot_meta(&bad).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_and_version_skew_are_typed() {
        let mut bytes = encode_snapshot(&header(), &[7; 8]);
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            snapshot_meta(&bytes).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));

        let mut skewed = encode_snapshot(&header(), &[7; 8]);
        skewed[6] = 0xFF;
        assert!(matches!(
            snapshot_meta(&skewed).unwrap_err(),
            SnapshotError::UnsupportedVersion { found, supported: SNAPSHOT_VERSION }
                if found == u16::from_le_bytes([0xFF, 0x00])
        ));

        assert!(matches!(
            snapshot_meta(b"NOTSNAPxxxxxxxxxxxxx").unwrap_err(),
            SnapshotError::BadMagic
        ));
    }

    #[test]
    fn file_names_round_trip_and_sort_by_progress() {
        let name = snapshot_file_name(4096, 1_000_000);
        assert_eq!(parse_snapshot_file_name(&name, 4096), Some(1_000_000));
        assert_eq!(parse_snapshot_file_name(&name, 64), None);
        assert_eq!(parse_snapshot_file_name(".ckpt-g64-00.tmp", 64), None);
        assert_eq!(parse_snapshot_file_name("ckpt-g64-12.rlsnap", 64), None);
        let early = snapshot_file_name(64, 999);
        let late = snapshot_file_name(64, 1_000_000_000_000);
        assert!(early < late, "zero padding must make names sort by events");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // a length that cannot possibly fit
        let mut d = Dec::new(&e.buf, 0);
        assert!(matches!(
            d.len(8).map_err(SnapshotError::from),
            Err(SnapshotError::Corrupt { offset: 0, .. })
        ));
    }

    // -- Satellite: per-component round-trip property suites (256 seeds) --

    const COMPONENT_SEEDS: u64 = 256;

    /// `TimeBits` snapshot parts rebuild an equivalent structure: same
    /// length and identical `count_greater` at every probe, across random
    /// monotone + sparse workloads.
    #[test]
    fn timebits_round_trips_across_seeds() {
        for seed in 0..COMPONENT_SEEDS {
            let mut rng = SplitMix64::seed_from_u64(0x7b17_5000 + seed);
            let mut bits = TimeBits::new();
            let mut live = Vec::new();
            let mut next = rng.gen_range(1..50_000);
            for _ in 0..rng.gen_range(1..300) {
                next += rng.gen_range(1..200);
                bits.insert(next);
                live.push(next);
                if !live.is_empty() && rng.gen_f64() < 0.3 {
                    let i = rng.gen_range(0..live.len() as u64) as usize;
                    bits.remove(live.swap_remove(i));
                }
            }
            let (words, base, len) = bits.snapshot_parts();
            let words = words.to_vec();
            let again = TimeBits::from_snapshot_parts(words.clone(), base, len)
                .unwrap_or_else(|| panic!("seed {seed}: valid parts rejected"));
            assert_eq!(again.len(), bits.len(), "seed {seed}");
            for _ in 0..64 {
                let probe = rng.gen_range(0..next + 100);
                assert_eq!(
                    again.count_greater(probe),
                    bits.count_greater(probe),
                    "seed {seed} probe {probe}"
                );
            }
            // A popcount/len mismatch must be rejected, not repaired.
            if len > 0 {
                assert!(TimeBits::from_snapshot_parts(words, base, len - 1).is_none());
            }
        }
    }

    /// `Histogram` round-trips through its public `iter`/`add_n` surface —
    /// the exact encoding the snapshot uses for every pattern histogram.
    #[test]
    fn histogram_round_trips_across_seeds() {
        for seed in 0..COMPONENT_SEEDS {
            let mut rng = SplitMix64::seed_from_u64(0x0004_1570 + seed);
            let mut h = Histogram::new();
            for _ in 0..rng.gen_range(0..400) {
                h.add_n(rng.gen_range(0..1 << 30), rng.gen_range(1..1000));
            }
            let mut again = Histogram::new();
            for (lo, _, count) in h.iter() {
                again.add_n(lo, count);
            }
            assert_eq!(again, h, "seed {seed}");
            assert_eq!(again.total(), h.total(), "seed {seed}");
        }
    }

    fn tiny_program(nrefs: usize) -> reuselens_ir::Program {
        let mut p = ProgramBuilder::new("snapshot_prop");
        let a = p.array("a", 8, &[1]);
        p.routine("main", |r| {
            r.for_("i", 0, 0, |r, i| {
                for _ in 0..nrefs {
                    r.load(a, vec![i.into()]);
                }
            });
        });
        p.finish()
    }

    /// Sampled analyzer (the "sampling books") encode→decode→encode is a
    /// byte fixpoint, and the decoded analyzer finishes into the same
    /// profile — in both fixed and adaptive mode, mid-stream, across
    /// 256 seeds.
    #[test]
    fn sampling_books_round_trip_across_seeds() {
        let program = tiny_program(2);
        for seed in 0..COMPONENT_SEEDS {
            let mut rng = SplitMix64::seed_from_u64(0x5a3_1ed0 + seed);
            let config = if seed % 2 == 0 {
                SamplingConfig::Fixed {
                    inv: rng.gen_range(1..8),
                }
            } else {
                SamplingConfig::Adaptive {
                    budget: rng.gen_range(4..32),
                }
            };
            let mut a = SampledAnalyzer::new(&program, 64, config);
            for _ in 0..rng.gen_range(1..2000) {
                a.access(
                    RefId((rng.gen_range(0..2)) as u32),
                    rng.gen_range(0..1 << 18),
                );
            }
            let mut enc = Enc::new();
            a.snapshot_encode(&mut enc);
            let first = enc.buf.clone();
            let mut dec = Dec::new(&first, 0);
            let b = SampledAnalyzer::snapshot_decode(&program, 64, a.accesses(), &mut dec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            dec.finish().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut enc2 = Enc::new();
            b.snapshot_encode(&mut enc2);
            assert_eq!(enc2.buf, first, "seed {seed}: encode/decode not a fixpoint");
            assert_eq!(b.finish(), a.finish(), "seed {seed}");
        }
    }

    /// Exact analyzer encode→decode→encode is a byte fixpoint mid-stream,
    /// and the decoded analyzer finishes into the same profile.
    #[test]
    fn exact_analyzer_round_trips_across_seeds() {
        let program = tiny_program(2);
        for seed in 0..COMPONENT_SEEDS {
            let mut rng = SplitMix64::seed_from_u64(0xe8ac_7000 + seed);
            let mut a = ReuseAnalyzer::new(&program, 64);
            for _ in 0..rng.gen_range(1..2000) {
                a.access(
                    RefId((rng.gen_range(0..2)) as u32),
                    rng.gen_range(0..1 << 16),
                );
            }
            let mut enc = Enc::new();
            a.snapshot_encode(&mut enc);
            let first = enc.buf.clone();
            let mut dec = Dec::new(&first, 0);
            let b = ReuseAnalyzer::snapshot_decode(&program, 64, &mut dec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            dec.finish().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut enc2 = Enc::new();
            b.snapshot_encode(&mut enc2);
            assert_eq!(enc2.buf, first, "seed {seed}: encode/decode not a fixpoint");
            assert_eq!(b.finish(), a.finish(), "seed {seed}");
        }
    }
}
