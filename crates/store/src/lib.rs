//! # reuselens-store — the on-disk columnar trace store
//!
//! The capture engine pays the expensive part of the paper's toolchain
//! once: interpreting a program into a [`TraceBuffer`]. Per-grain replay
//! and sampled reruns only *read* that buffer, and hierarchy scoring
//! reads the profiles they produce. This crate makes the capture outlive the
//! process: a [`TraceStore`] persists each buffer's encoded columns in
//! CRC-framed segment files plus one index file, so one capture serves
//! unlimited later analysis sessions (the `reuselens serve` daemon's
//! whole reason to exist).
//!
//! ## File layout
//!
//! A stored trace `T` with image bytes `I` (the canonical little-endian
//! encoding of its [`ExportedTrace`]) becomes `ceil(len(I) / segment_bytes)`
//! segment files plus one entry in the store-wide index:
//!
//! ```text
//! <dir>/<id>.seg0000.rlseg      +--------+---------+--------------+-------------+
//! <dir>/<id>.seg0001.rlseg  ... | magic  | version | header frame | chunk frame |
//! <dir>/index.rlidx             | RLSEGM | u16 LE  | len,crc,...  | len,crc,... |
//!                               +--------+---------+--------------+-------------+
//! ```
//!
//! Both file kinds use the shared frame codec ([`reuselens_trace::frame`],
//! the same one analyzer snapshots use): every frame is length-prefixed
//! and guarded by a CRC-32 (IEEE) over its payload, so torn writes,
//! truncation, bit rot and trailing garbage are all detected, with
//! byte-offset diagnostics, before any trace byte is interpreted. The
//! segment header carries {trace id, segment index and count, the chunk's
//! byte range within the image, and the whole image's length and
//! checksum}; the chunk frame carries the raw image bytes. The index file
//! is one frame listing every entry: id, workload spec, event counts,
//! suggested grains, image checksum, and each segment's range and
//! checksum.
//!
//! The image is never assembled in one buffer. `put` borrows the buffer's
//! columns ([`TraceBuffer::columns`]), cuts counts, length prefixes and
//! columns into chunks at `segment_bytes` (a cut may fall anywhere, even
//! inside a length prefix), checksums each chunk over its pieces in one
//! pass, folds the chunk checksums into the image checksum, and then
//! streams each chunk's pieces into its segment file. `get` reads and
//! verifies every segment file whole, then parses the image fields
//! straight out of the verified chunks, copying each column once into a
//! `Vec` of exactly its length; nothing is sized from a declared length
//! before the bytes behind it have been verified.
//!
//! Beyond the framing, a loaded image is decoded through the *validating*
//! trace decoder ([`TraceBuffer::import`]) and cross-checked against the
//! index entry's counts — a store never surfaces a buffer that could
//! replay into a silently wrong profile.
//!
//! ## Atomicity
//!
//! Writers publish with [`frame::publish`], which streams a file's frames
//! into a dot-prefixed temporary and renames it into place (atomic on
//! POSIX), segments first, index last: a crash mid-`put` leaves orphan
//! segment files no index entry points at — never a torn trace under a
//! valid name. Eviction inverts the order (index first, then segment
//! deletion), so a crash mid-`evict` also degrades to orphans. The threat
//! model is a dying process, as for snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::error::Error;
use std::fmt;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

use reuselens_trace::frame::{self, Enc, Frame, FrameError, PublishError};
pub use reuselens_trace::frame::{crc32, crc32_combine};
use reuselens_trace::{DecodeError, ExportedTrace, TraceBuffer};

/// Current segment file format version. Any change to the segment layout
/// or to the trace image it carries bumps it, and readers reject other
/// versions rather than guessing (the fallback for version skew is a
/// re-capture, exactly as for corruption). Version 2 dropped the image's
/// access-size column.
pub const SEGMENT_VERSION: u16 = 2;

/// Current index file format version, bumped independently of
/// [`SEGMENT_VERSION`]: a store whose segments are of an older version
/// still opens and lists, and only `get` of such a trace fails.
pub const INDEX_VERSION: u16 = 1;

/// File magic of segment files.
const MAGIC_SEGMENT: [u8; 6] = *b"RLSEGM";

/// File magic of the index file.
const MAGIC_INDEX: [u8; 6] = *b"RLINDX";

/// File name of the store's index within its directory.
pub const INDEX_FILE: &str = "index.rlidx";

/// Extension of published segment files.
const SEGMENT_EXT: &str = ".rlseg";

/// Default segment size in bytes (of canonical image payload per file).
const DEFAULT_SEGMENT_BYTES: usize = 4 << 20;

/// Longest accepted trace id.
pub const MAX_ID_LEN: usize = 64;

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Why a store operation failed. Every variant that concerns the bytes of
/// a file names the file and the byte offset at which the problem was
/// found, mirroring the snapshot and trace-decoder diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted ("create", "write", "rename", ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// A file ends before the bytes the format requires — a torn or
    /// truncated write.
    Truncated {
        /// The file concerned.
        path: PathBuf,
        /// Byte offset at which more data was needed.
        offset: u64,
        /// Bytes the decoder needed at that offset.
        needed: u64,
        /// Bytes actually available there.
        have: u64,
    },
    /// A file does not start with the expected magic.
    BadMagic {
        /// The file concerned.
        path: PathBuf,
    },
    /// A file's format version is not one this reader understands.
    UnsupportedVersion {
        /// The file concerned.
        path: PathBuf,
        /// Version found in the file.
        found: u16,
        /// Version this build reads.
        supported: u16,
    },
    /// A frame's checksum does not match its payload.
    CrcMismatch {
        /// The file concerned.
        path: PathBuf,
        /// Which frame ("header", "chunk", "index") — or "image" for the
        /// whole-trace checksum over the segments' chunks.
        frame: &'static str,
        /// Byte offset of the frame's payload (0 for the whole image).
        offset: u64,
        /// Checksum stored in the file (or index).
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The bytes decode but violate a structural invariant.
    Corrupt {
        /// The file concerned.
        path: PathBuf,
        /// Byte offset at which the invariant was found violated.
        offset: u64,
        /// What was wrong.
        what: String,
    },
    /// A file is internally valid but disagrees with the index entry that
    /// points at it — wrong trace, wrong segment, stale generation.
    Mismatch {
        /// The file concerned.
        path: PathBuf,
        /// What disagreed.
        what: String,
    },
    /// The loaded image failed the validating trace decoder.
    Decode {
        /// The trace concerned.
        id: String,
        /// The decoder's diagnosis.
        error: DecodeError,
    },
    /// No stored trace has this id.
    UnknownTrace {
        /// The id requested.
        id: String,
    },
    /// A trace with this id is already stored (evict it first).
    DuplicateTrace {
        /// The id requested.
        id: String,
    },
    /// The id is not a legal trace id.
    InvalidId {
        /// The id requested.
        id: String,
        /// What rule it broke.
        why: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "store {op} failed for {}: {message}", path.display())
            }
            StoreError::Truncated {
                path,
                offset,
                needed,
                have,
            } => write!(
                f,
                "{} truncated at byte {offset}: needed {needed} more bytes, found {have}",
                path.display()
            ),
            StoreError::BadMagic { path } => {
                write!(f, "{} is not a store file (bad magic)", path.display())
            }
            StoreError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{} has unsupported store version {found} (this build reads version {supported})",
                path.display()
            ),
            StoreError::CrcMismatch {
                path,
                frame,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "{} {frame} checksum mismatch at byte {offset}: \
                 stored {stored:#010x}, computed {computed:#010x}",
                path.display()
            ),
            StoreError::Corrupt { path, offset, what } => {
                write!(
                    f,
                    "corrupt store file {} at byte {offset}: {what}",
                    path.display()
                )
            }
            StoreError::Mismatch { path, what } => {
                write!(
                    f,
                    "{} does not match its index entry: {what}",
                    path.display()
                )
            }
            StoreError::Decode { id, error } => {
                write!(f, "stored trace '{id}' failed validation: {error}")
            }
            StoreError::UnknownTrace { id } => write!(f, "no stored trace '{id}'"),
            StoreError::DuplicateTrace { id } => {
                write!(f, "trace '{id}' is already stored (evict it first)")
            }
            StoreError::InvalidId { id, why } => {
                write!(f, "invalid trace id '{id}': {why}")
            }
        }
    }
}

impl Error for StoreError {}

impl StoreError {
    /// A frame-level decode failure, blamed on the file at `path`.
    fn framed(path: &Path, e: FrameError) -> StoreError {
        let path = path.to_path_buf();
        match e {
            FrameError::Truncated {
                offset,
                needed,
                have,
            } => StoreError::Truncated {
                path,
                offset,
                needed,
                have,
            },
            FrameError::BadMagic => StoreError::BadMagic { path },
            FrameError::UnsupportedVersion { found, supported } => StoreError::UnsupportedVersion {
                path,
                found,
                supported,
            },
            FrameError::CrcMismatch {
                frame,
                offset,
                stored,
                computed,
            } => StoreError::CrcMismatch {
                path,
                frame,
                offset,
                stored,
                computed,
            },
            FrameError::Corrupt { offset, what } => StoreError::Corrupt { path, offset, what },
        }
    }
}

impl From<PublishError> for StoreError {
    fn from(e: PublishError) -> StoreError {
        StoreError::Io {
            op: e.op,
            path: e.path,
            message: e.error.to_string(),
        }
    }
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Checks that `id` is a legal trace id: 1..=[`MAX_ID_LEN`] characters
/// from `[A-Za-z0-9_-]`. The alphabet keeps ids safe to embed in file
/// names on every platform and in the line protocol unquoted.
pub fn validate_trace_id(id: &str) -> Result<(), StoreError> {
    let invalid = |why| StoreError::InvalidId {
        id: id.to_string(),
        why,
    };
    if id.is_empty() {
        return Err(invalid("empty"));
    }
    if id.len() > MAX_ID_LEN {
        return Err(invalid("longer than 64 characters"));
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return Err(invalid("characters outside [A-Za-z0-9_-]"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Canonical trace image
// ---------------------------------------------------------------------------
//
// The image of a trace is its three counts, then its four columns, each
// behind a `u64` length prefix, all little-endian and fixed-width: the
// same bytes for the same trace, so the image checksum is reproducible.
// Neither side ever holds it in one buffer. `put` streams the pieces
// borrowed from the buffer's columns, cut into segment chunks; `get`
// parses the fields straight out of the verified chunks.

/// The image of `buf` as consecutive pieces: the three counts, then each
/// column behind its length prefix. `fields` holds the encoded counts
/// and prefixes the pieces borrow.
fn image_pieces<'a>(buf: &'a TraceBuffer, fields: &'a mut [[u8; 8]; 7]) -> Vec<&'a [u8]> {
    let columns = buf.columns();
    let counts = [buf.events(), buf.accesses(), buf.scope_events()];
    let lens = columns.map(|c| c.len() as u64);
    for (field, n) in fields.iter_mut().zip(counts.into_iter().chain(lens)) {
        *field = n.to_le_bytes();
    }
    let (counts, lens) = fields.split_at(3);
    let mut pieces: Vec<&[u8]> = counts.iter().map(|c| &c[..]).collect();
    for (len, column) in lens.iter().zip(columns) {
        pieces.extend([&len[..], column]);
    }
    pieces
}

/// The sub-slices of `pieces` that make up bytes `lo..hi` of their
/// concatenation. The cut may fall anywhere, inside a column or a
/// length prefix.
fn cut<'a>(pieces: &[&'a [u8]], lo: usize, hi: usize) -> Vec<&'a [u8]> {
    let mut at = 0;
    let mut out = Vec::new();
    for &piece in pieces {
        let (start, end) = (at, at + piece.len());
        at = end;
        if start < hi && end > lo {
            out.push(&piece[lo.max(start) - start..hi.min(end) - start]);
        }
    }
    out
}

/// Reads image fields across the verified chunks of a stored trace,
/// with the diagnostics one contiguous image would give: offsets are
/// image offsets.
struct ImageReader<'a> {
    /// The unread rest of the current chunk.
    cur: &'a [u8],
    /// The chunks after it.
    rest: std::slice::Iter<'a, &'a [u8]>,
    offset: u64,
    remaining: u64,
}

impl<'a> ImageReader<'a> {
    fn new(chunks: &'a [&'a [u8]]) -> ImageReader<'a> {
        ImageReader {
            cur: &[],
            rest: chunks.iter(),
            offset: 0,
            remaining: chunks.iter().map(|c| c.len() as u64).sum(),
        }
    }

    /// The next `n` bytes, copied once into a `Vec` of exactly that
    /// length; nothing is allocated unless the bytes are there.
    fn bytes(&mut self, n: u64) -> Result<Vec<u8>, FrameError> {
        if n > self.remaining {
            return Err(FrameError::Truncated {
                offset: self.offset,
                needed: n,
                have: self.remaining,
            });
        }
        (self.offset, self.remaining) = (self.offset + n, self.remaining - n);
        let mut out = Vec::with_capacity(n as usize);
        let mut need = n as usize;
        while need > 0 {
            if self.cur.is_empty() {
                let next = self.rest.next().copied();
                self.cur = next.unwrap_or_else(|| unreachable!("n <= remaining"));
            }
            let (part, rest) = self.cur.split_at(need.min(self.cur.len()));
            out.extend_from_slice(part);
            need -= part.len();
            self.cur = rest;
        }
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(std::array::from_fn(|i| b[i])))
    }

    /// A length-prefixed column; its length is checked against the
    /// bytes left before anything is allocated.
    fn column(&mut self) -> Result<Vec<u8>, FrameError> {
        let at = self.offset;
        let n = self.u64()?;
        if n > self.remaining {
            return Err(FrameError::Corrupt {
                offset: at,
                what: format!(
                    "length {n} cannot fit in the {} bytes remaining",
                    self.remaining
                ),
            });
        }
        self.bytes(n)
    }

    /// Parses the whole image; fails unless it is consumed exactly.
    fn image(mut self) -> Result<ExportedTrace, FrameError> {
        let mut t = ExportedTrace {
            events: self.u64()?,
            accesses: self.u64()?,
            scope_events: self.u64()?,
            ..ExportedTrace::default()
        };
        if t.accesses.saturating_add(t.scope_events) != t.events {
            return Err(FrameError::Corrupt {
                offset: self.offset,
                what: format!(
                    "{} accesses + {} scope events != {} events",
                    t.accesses, t.scope_events, t.events
                ),
            });
        }
        for column in [
            &mut t.ops,
            &mut t.addr_bytes,
            &mut t.ref_bytes,
            &mut t.scope_bytes,
        ] {
            *column = self.column()?;
        }
        if self.remaining != 0 {
            return Err(FrameError::Corrupt {
                offset: self.offset,
                what: format!("{} unconsumed bytes at end of frame", self.remaining),
            });
        }
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// Index model
// ---------------------------------------------------------------------------

/// One segment's slot in an index entry: which byte range of the trace
/// image the file carries and the checksum of that chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Byte offset of the chunk within the canonical image.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
    /// CRC-32 of the chunk bytes.
    pub crc: u32,
}

/// Caller-supplied metadata stored alongside a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// The workload specification that produced the trace (the daemon
    /// stores the capture request here so replays can rebuild the
    /// program's reference/scope tables).
    pub workload: String,
    /// Grains (block sizes) the capture was intended for — advisory,
    /// recorded so `list` can answer "what is this trace good for".
    pub grains: Vec<u64>,
}

/// One stored trace as the index describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The trace id.
    pub id: String,
    /// Caller metadata recorded at `put` time.
    pub meta: TraceMeta,
    /// Total events the stored columns encode.
    pub events: u64,
    /// Memory-access events.
    pub accesses: u64,
    /// Scope enter/exit events.
    pub scope_events: u64,
    /// Length of the canonical image in bytes.
    pub image_len: u64,
    /// CRC-32 of the whole canonical image.
    pub image_crc: u32,
    /// The segments carrying the image, in image order.
    pub segments: Vec<SegmentInfo>,
}

impl TraceEntry {
    /// Published file name of this trace's `k`-th segment.
    pub fn segment_file(&self, k: usize) -> String {
        segment_file_name(&self.id, k)
    }
}

/// Published file name of trace `id`'s `k`-th segment. Zero-padded so
/// lexicographic order is image order.
pub fn segment_file_name(id: &str, k: usize) -> String {
    format!("{id}.seg{k:04}{SEGMENT_EXT}")
}

/// The index frame's payload.
fn encode_index(entries: &[TraceEntry]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(entries.len() as u64);
    for t in entries {
        e.str(&t.id);
        e.str(&t.meta.workload);
        e.u64(t.meta.grains.len() as u64);
        for &g in &t.meta.grains {
            e.u64(g);
        }
        e.u64(t.events);
        e.u64(t.accesses);
        e.u64(t.scope_events);
        e.u64(t.image_len);
        e.u32(t.image_crc);
        e.u64(t.segments.len() as u64);
        for s in &t.segments {
            e.u64(s.offset);
            e.u64(s.len);
            e.u32(s.crc);
        }
    }
    e.buf
}

fn decode_index(bytes: &[u8]) -> Result<Vec<TraceEntry>, FrameError> {
    let [mut d] = frame::decode(bytes, &MAGIC_INDEX, INDEX_VERSION, ["index"])?;
    let count = d.len(8)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let at = d.offset();
        let id = d.str()?;
        validate_trace_id(&id).map_err(|e| FrameError::Corrupt {
            offset: at,
            what: e.to_string(),
        })?;
        let workload = d.str()?;
        let ngrains = d.len(8)?;
        let mut grains = Vec::with_capacity(ngrains);
        for _ in 0..ngrains {
            grains.push(d.u64()?);
        }
        let events = d.u64()?;
        let accesses = d.u64()?;
        let scope_events = d.u64()?;
        if accesses.saturating_add(scope_events) != events {
            return Err(d.corrupt(format!(
                "entry '{id}': {accesses} accesses + {scope_events} scope events \
                 != {events} events"
            )));
        }
        let image_len = d.u64()?;
        let image_crc = d.u32()?;
        let nsegs = d.len(20)?;
        if nsegs == 0 {
            return Err(d.corrupt(format!("entry '{id}' has no segments")));
        }
        let mut segments = Vec::with_capacity(nsegs);
        let mut expect_offset = 0u64;
        for k in 0..nsegs {
            let offset = d.u64()?;
            let len = d.u64()?;
            let crc = d.u32()?;
            if offset != expect_offset {
                return Err(d.corrupt(format!(
                    "entry '{id}' segment {k} starts at image byte {offset}, \
                     expected {expect_offset}"
                )));
            }
            expect_offset = expect_offset.saturating_add(len);
            segments.push(SegmentInfo { offset, len, crc });
        }
        if expect_offset != image_len {
            return Err(d.corrupt(format!(
                "entry '{id}' segments cover {expect_offset} bytes of a \
                 {image_len}-byte image"
            )));
        }
        if entries.iter().any(|t: &TraceEntry| t.id == id) {
            return Err(d.corrupt(format!("duplicate entry '{id}'")));
        }
        entries.push(TraceEntry {
            id,
            meta: TraceMeta { workload, grains },
            events,
            accesses,
            scope_events,
            image_len,
            image_crc,
            segments,
        });
    }
    d.finish()?;
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

struct SegmentHeader {
    id: String,
    seg_index: u32,
    seg_count: u32,
    chunk_offset: u64,
    chunk_len: u64,
    image_len: u64,
    image_crc: u32,
}

impl SegmentHeader {
    /// The header frame's payload.
    fn encode(&self) -> Vec<u8> {
        let mut h = Enc::new();
        h.str(&self.id);
        h.u32(self.seg_index);
        h.u32(self.seg_count);
        h.u64(self.chunk_offset);
        h.u64(self.chunk_len);
        h.u64(self.image_len);
        h.u32(self.image_crc);
        h.buf
    }
}

/// Decodes one segment file into its header, the chunk payload's byte
/// range within the file, and the chunk's CRC-32 (already verified
/// against the chunk frame's stored checksum — callers cross-check it
/// against the index copy without re-hashing the payload).
fn decode_segment(bytes: &[u8]) -> Result<(SegmentHeader, Range<usize>, u32), FrameError> {
    let [mut h, c] = frame::decode(bytes, &MAGIC_SEGMENT, SEGMENT_VERSION, ["header", "chunk"])?;
    let id = h.str()?;
    let seg_index = h.u32()?;
    let seg_count = h.u32()?;
    let chunk_offset = h.u64()?;
    let chunk_len = h.u64()?;
    let image_len = h.u64()?;
    let image_crc = h.u32()?;
    h.finish()?;
    let chunk = c.payload();
    if chunk.len() as u64 != chunk_len {
        return Err(c.corrupt(format!(
            "chunk frame holds {} bytes but the header declares {chunk_len}",
            chunk.len()
        )));
    }
    Ok((
        SegmentHeader {
            id,
            seg_index,
            seg_count,
            chunk_offset,
            chunk_len,
            image_len,
            image_crc,
        },
        c.offset() as usize..c.offset() as usize + chunk.len(),
        c.crc(),
    ))
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`TraceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Largest image chunk per segment file, in bytes. Smaller values
    /// mean more files per trace; the default is 4 MiB.
    pub segment_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// An on-disk store of captured [`TraceBuffer`]s: CRC-framed segment
/// files plus one index file in a single directory. See the module docs
/// for the format and atomicity protocol.
///
/// The store is single-writer: `&mut self` methods mutate the directory,
/// `&self` methods only read it. The daemon serializes writers and shares
/// readers, which the borrow rules here mirror exactly.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    config: StoreConfig,
    entries: Vec<TraceEntry>,
}

impl TraceStore {
    /// Opens (creating if needed) the store in `dir` with default tuning.
    ///
    /// # Errors
    ///
    /// Directory creation failures, or any malformation of an existing
    /// index file (a corrupt index is never silently discarded).
    pub fn open(dir: impl Into<PathBuf>) -> Result<TraceStore, StoreError> {
        TraceStore::open_with(dir, StoreConfig::default())
    }

    /// Opens (creating if needed) the store in `dir` with explicit tuning.
    ///
    /// # Errors
    ///
    /// As for [`open`](Self::open).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
    ) -> Result<TraceStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, &e))?;
        let index_path = dir.join(INDEX_FILE);
        let entries = match fs::read(&index_path) {
            Ok(bytes) => decode_index(&bytes).map_err(|e| StoreError::framed(&index_path, e))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read", &index_path, &e)),
        };
        Ok(TraceStore {
            dir,
            config,
            entries,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every stored trace, in insertion order.
    pub fn list(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The index entry for `id`, if stored.
    pub fn entry(&self, id: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|t| t.id == id)
    }

    fn publish_index(&self) -> Result<(), StoreError> {
        let index = encode_index(&self.entries);
        let payload = [&index[..]];
        frame::publish(
            &self.dir,
            INDEX_FILE,
            &MAGIC_INDEX,
            INDEX_VERSION,
            &[Frame::new(&payload)],
        )?;
        Ok(())
    }

    /// Stores a captured buffer under `id`: streams the canonical image
    /// from the buffer's columns into CRC-framed segment files (temp +
    /// rename each; no image-sized buffer in between), then
    /// publishes the updated index (temp + rename last, so a crash at any
    /// point leaves at worst orphan segments, never a torn visible
    /// trace). Returns the new index entry.
    ///
    /// # Errors
    ///
    /// Invalid or duplicate ids, and I/O failures. On error the index is
    /// unchanged (orphan segment files may remain).
    pub fn put(
        &mut self,
        id: &str,
        buf: &TraceBuffer,
        meta: TraceMeta,
    ) -> Result<&TraceEntry, StoreError> {
        validate_trace_id(id)?;
        if self.entry(id).is_some() {
            return Err(StoreError::DuplicateTrace { id: id.to_string() });
        }
        let mut fields = [[0; 8]; 7];
        let pieces = image_pieces(buf, &mut fields);
        let image_len: usize = pieces.iter().map(|p| p.len()).sum();
        let seg_bytes = self.config.segment_bytes.max(1);
        let seg_count = image_len.div_ceil(seg_bytes);
        let chunk_at = |k: usize| cut(&pieces, k * seg_bytes, ((k + 1) * seg_bytes).min(image_len));
        // Pass one checksums each chunk over its pieces and folds the
        // chunk CRCs into the whole-image CRC, the way `get` verifies it:
        // every segment header carries that CRC, so it comes first.
        let mut segments = Vec::with_capacity(seg_count);
        let mut image_crc = 0u32; // CRC-32 of the empty prefix
        for k in 0..seg_count {
            let chunk = chunk_at(k);
            let frame = Frame::new(&chunk);
            let len = frame.len() as u64;
            segments.push(SegmentInfo {
                offset: (k * seg_bytes) as u64,
                len,
                crc: frame.crc,
            });
            image_crc = crc32_combine(image_crc, frame.crc, len);
        }
        let image_len = image_len as u64;
        // Pass two streams each chunk's pieces into its segment file.
        for (k, info) in segments.iter().enumerate() {
            let header = SegmentHeader {
                id: id.to_string(),
                seg_index: k as u32,
                seg_count: seg_count as u32,
                chunk_offset: info.offset,
                chunk_len: info.len,
                image_len,
                image_crc,
            }
            .encode();
            let (header, chunk) = ([&header[..]], chunk_at(k));
            let frames = [
                Frame::new(&header),
                Frame {
                    pieces: &chunk,
                    crc: info.crc,
                },
            ];
            frame::publish(
                &self.dir,
                &segment_file_name(id, k),
                &MAGIC_SEGMENT,
                SEGMENT_VERSION,
                &frames,
            )?;
        }
        self.entries.push(TraceEntry {
            id: id.to_string(),
            meta,
            events: buf.events(),
            accesses: buf.accesses(),
            scope_events: buf.scope_events(),
            image_len,
            image_crc,
            segments,
        });
        if let Err(e) = self.publish_index() {
            self.entries.pop();
            return Err(e);
        }
        Ok(self.entries.last().unwrap_or_else(|| unreachable!()))
    }

    /// Loads the stored trace `id` back into a fully validated
    /// [`TraceBuffer`]: every segment's framing and checksums are
    /// verified, the segment headers are cross-checked against the index
    /// entry, the whole-trace checksum is folded from the chunk checksums,
    /// each column is copied once out of the verified chunks, and the
    /// columns go through the validating trace decoder
    /// ([`TraceBuffer::import`]). `Ok` guarantees the result replays
    /// bit-identically to the buffer that was stored.
    ///
    /// # Errors
    ///
    /// Unknown ids; any framing, checksum, cross-check, or decode
    /// malformation, with file + byte-offset diagnostics.
    pub fn get(&self, id: &str) -> Result<TraceBuffer, StoreError> {
        let entry = self
            .entry(id)
            .ok_or_else(|| StoreError::UnknownTrace { id: id.to_string() })?;
        // Each segment file is read whole and verified before the next;
        // the image is then parsed straight out of the verified chunks.
        let mut files = Vec::with_capacity(entry.segments.len());
        let mut image_len = 0u64;
        let mut image_crc = 0u32; // CRC-32 of the empty prefix
        for (k, info) in entry.segments.iter().enumerate() {
            let path = self.dir.join(entry.segment_file(k));
            let bytes = fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
            let (header, chunk, chunk_crc) =
                decode_segment(&bytes).map_err(|e| StoreError::framed(&path, e))?;
            let mismatch = |what: String| StoreError::Mismatch {
                path: path.clone(),
                what,
            };
            if header.id != entry.id {
                return Err(mismatch(format!(
                    "segment belongs to trace '{}', index expects '{}'",
                    header.id, entry.id
                )));
            }
            if header.seg_index as usize != k || header.seg_count as usize != entry.segments.len() {
                return Err(mismatch(format!(
                    "segment claims position {}/{}, index expects {}/{}",
                    header.seg_index,
                    header.seg_count,
                    k,
                    entry.segments.len()
                )));
            }
            if header.chunk_offset != info.offset || header.chunk_len != info.len {
                return Err(mismatch(format!(
                    "segment covers image bytes {}..{}, index expects {}..{}",
                    header.chunk_offset,
                    header.chunk_offset + header.chunk_len,
                    info.offset,
                    info.offset + info.len
                )));
            }
            if header.image_len != entry.image_len || header.image_crc != entry.image_crc {
                return Err(mismatch(
                    "segment was written for a different image generation".to_string(),
                ));
            }
            // `chunk_crc` was verified against the frame's own stored
            // checksum while decoding; comparing it to the index's
            // independent copy costs no second pass over the payload.
            if chunk_crc != info.crc {
                return Err(StoreError::CrcMismatch {
                    path,
                    frame: "chunk",
                    offset: 0,
                    stored: info.crc,
                    computed: chunk_crc,
                });
            }
            image_crc = crc32_combine(image_crc, chunk_crc, chunk.len() as u64);
            image_len += chunk.len() as u64;
            files.push((bytes, chunk));
        }
        let first_seg = self.dir.join(entry.segment_file(0));
        if image_len != entry.image_len {
            return Err(StoreError::Mismatch {
                path: first_seg,
                what: format!(
                    "assembled image is {image_len} bytes, index expects {}",
                    entry.image_len
                ),
            });
        }
        // The image's checksum folds out of the per-chunk checksums (each
        // already verified over its bytes) — exact CRC algebra, not
        // trust, and no second pass over the image.
        if image_crc != entry.image_crc {
            return Err(StoreError::CrcMismatch {
                path: first_seg,
                frame: "image",
                offset: 0,
                stored: entry.image_crc,
                computed: image_crc,
            });
        }
        let chunks: Vec<&[u8]> = files
            .iter()
            .map(|(bytes, chunk)| &bytes[chunk.clone()])
            .collect();
        let exported = ImageReader::new(&chunks)
            .image()
            .map_err(|e| StoreError::framed(&first_seg, e))?;
        // Import runs on the columns alone; the file bytes can go.
        drop(files);
        if exported.events != entry.events || exported.accesses != entry.accesses {
            return Err(StoreError::Mismatch {
                path: first_seg,
                what: format!(
                    "image declares {} events / {} accesses, index expects {} / {}",
                    exported.events, exported.accesses, entry.events, entry.accesses
                ),
            });
        }
        TraceBuffer::import(exported).map_err(|error| StoreError::Decode {
            id: id.to_string(),
            error,
        })
    }

    /// Removes the stored trace `id`: publishes an index without it
    /// first, then deletes its segment files (so a crash mid-evict
    /// leaves orphan segments, never a dangling index entry).
    ///
    /// # Errors
    ///
    /// Unknown ids and I/O failures. If the index cannot be published the
    /// entry is retained and nothing is deleted.
    pub fn evict(&mut self, id: &str) -> Result<(), StoreError> {
        let at = self
            .entries
            .iter()
            .position(|t| t.id == id)
            .ok_or_else(|| StoreError::UnknownTrace { id: id.to_string() })?;
        let entry = self.entries.remove(at);
        if let Err(e) = self.publish_index() {
            self.entries.insert(at, entry);
            return Err(e);
        }
        for k in 0..entry.segments.len() {
            let path = self.dir.join(entry.segment_file(k));
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("remove", &path, &e)),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_ir::{ProgramBuilder, RefId, ScopeId};
    use reuselens_prng::SplitMix64;
    use reuselens_trace::{Executor, TraceSink, VecSink};

    #[test]
    fn crc32_matches_known_vectors() {
        // The re-exported CRC checksums segment chunks and whole images.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn captured(n: i64) -> TraceBuffer {
        let mut p = ProgramBuilder::new("store_test");
        let a = p.array("a", 8, &[(n + 1) as u64]);
        let b = p.array("b", 8, &[(n + 1) as u64]);
        p.routine("main", |r| {
            r.for_("i", 0, n, |r, i| {
                r.load(a, vec![i.into()]);
                r.store(b, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let mut buf = TraceBuffer::new();
        Executor::new(&prog).run(&mut buf).expect("capture");
        buf
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "kernel stream --n 500".to_string(),
            grains: vec![1, 64, 4096],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_is_bit_identical() {
        let dir = tmpdir("roundtrip");
        let buf = captured(500);
        let mut store = TraceStore::open(&dir).unwrap();
        let entry = store.put("t1", &buf, meta()).unwrap().clone();
        assert_eq!(entry.events, buf.events());
        assert_eq!(entry.accesses, buf.accesses());
        assert_eq!(entry.meta, meta());
        let loaded = store.get("t1").unwrap();
        let mut a = VecSink::new();
        buf.replay(&mut a);
        let mut b = VecSink::new();
        loaded.replay(&mut b);
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_segment_traces_reassemble() {
        let dir = tmpdir("multiseg");
        let buf = captured(2_000);
        let mut store = TraceStore::open_with(&dir, StoreConfig { segment_bytes: 512 }).unwrap();
        let nsegs = store.put("big", &buf, meta()).unwrap().segments.len();
        assert!(nsegs > 3, "expected several segments, got {nsegs}");
        let loaded = store.get("big").unwrap();
        let mut a = VecSink::new();
        buf.replay(&mut a);
        let mut b = VecSink::new();
        loaded.replay(&mut b);
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_sees_published_traces() {
        let dir = tmpdir("reopen");
        let buf = captured(200);
        {
            let mut store = TraceStore::open(&dir).unwrap();
            store.put("persisted", &buf, meta()).unwrap();
        }
        let store = TraceStore::open(&dir).unwrap();
        assert_eq!(store.list().len(), 1);
        assert_eq!(store.list()[0].id, "persisted");
        assert_eq!(store.list()[0].meta, meta());
        let loaded = store.get("persisted").unwrap();
        assert_eq!(loaded.events(), buf.events());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evict_removes_entry_and_files() {
        let dir = tmpdir("evict");
        let buf = captured(100);
        let mut store = TraceStore::open(&dir).unwrap();
        store.put("gone", &buf, meta()).unwrap();
        store.put("kept", &buf, meta()).unwrap();
        let seg0 = dir.join(segment_file_name("gone", 0));
        assert!(seg0.exists());
        store.evict("gone").unwrap();
        assert!(!seg0.exists());
        assert!(store.entry("gone").is_none());
        assert!(store.get("kept").is_ok());
        assert!(matches!(
            store.evict("gone").unwrap_err(),
            StoreError::UnknownTrace { .. }
        ));
        // The published index agrees after reopen.
        let again = TraceStore::open(&dir).unwrap();
        assert_eq!(again.list().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn id_rules_and_duplicates_are_typed() {
        let dir = tmpdir("ids");
        let buf = captured(10);
        let mut store = TraceStore::open(&dir).unwrap();
        for bad in ["", "has space", "dot.dot", "../escape", &"x".repeat(65)] {
            assert!(
                matches!(
                    store.put(bad, &buf, meta()).unwrap_err(),
                    StoreError::InvalidId { .. }
                ),
                "id {bad:?} was accepted"
            );
        }
        store.put("ok-id_0", &buf, meta()).unwrap();
        assert!(matches!(
            store.put("ok-id_0", &buf, meta()).unwrap_err(),
            StoreError::DuplicateTrace { .. }
        ));
        assert!(matches!(
            store.get("missing").unwrap_err(),
            StoreError::UnknownTrace { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_trace_round_trips() {
        let dir = tmpdir("empty");
        let mut store = TraceStore::open(&dir).unwrap();
        store
            .put("empty", &TraceBuffer::new(), TraceMeta::default())
            .unwrap();
        let loaded = store.get("empty").unwrap();
        assert!(loaded.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scope_streams_survive_storage() {
        let dir = tmpdir("scopes");
        let mut buf = TraceBuffer::new();
        buf.enter(ScopeId(1));
        buf.access(reuselens_ir::RefId(0), 0x1000);
        buf.enter(ScopeId(2));
        buf.access(reuselens_ir::RefId(1), 0x2000);
        buf.exit(ScopeId(2));
        buf.exit(ScopeId(1));
        let mut store = TraceStore::open(&dir).unwrap();
        store.put("scoped", &buf, TraceMeta::default()).unwrap();
        let loaded = store.get("scoped").unwrap();
        let mut a = VecSink::new();
        buf.replay(&mut a);
        let mut b = VecSink::new();
        loaded.replay(&mut b);
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_files_are_invisible() {
        let dir = tmpdir("tmpfiles");
        let buf = captured(50);
        let mut store = TraceStore::open(&dir).unwrap();
        store.put("real", &buf, meta()).unwrap();
        // Simulated crash debris: a torn temp segment and temp index.
        fs::write(dir.join(".junk.seg0000.rlseg.tmp"), b"torn").unwrap();
        fs::write(dir.join(".index.rlidx.tmp"), b"torn").unwrap();
        let again = TraceStore::open(&dir).unwrap();
        assert_eq!(again.list().len(), 1);
        assert!(again.get("real").is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A random well-formed buffer: accesses with random deltas and
    /// references inside randomly nested scopes, all closed at the
    /// end. Up to `max_events` events; possibly none.
    fn random_buffer(rng: &mut SplitMix64, max_events: u64) -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        let mut open = Vec::new();
        for _ in 0..rng.gen_range(0..max_events + 1) {
            match rng.gen_range(0..8) {
                0 => {
                    let scope = ScopeId(rng.gen_range(1..40) as u32);
                    buf.enter(scope);
                    open.push(scope);
                }
                1 if !open.is_empty() => buf.exit(open.pop().unwrap()),
                k => buf.access(
                    RefId(rng.gen_range(0..300) as u32),
                    rng.gen_range(0..1 << (8 * k)),
                ),
            }
        }
        while let Some(scope) = open.pop() {
            buf.exit(scope);
        }
        buf
    }

    /// The canonical image assembled in one buffer from `export()`: the
    /// layout the streamed writer must reproduce byte for byte.
    fn reference_image(t: &ExportedTrace) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(t.events);
        e.u64(t.accesses);
        e.u64(t.scope_events);
        e.bytes(&t.ops);
        e.bytes(&t.addr_bytes);
        e.bytes(&t.ref_bytes);
        e.bytes(&t.scope_bytes);
        e.buf
    }

    /// Streamed segment files carry exactly the reference image, cut at
    /// `segment_bytes` wherever that falls (inside the counts, a length
    /// prefix or a column), with matching chunk and image CRCs, and
    /// `get` hands back exactly what `export()` gives.
    #[test]
    fn streamed_segments_equal_the_reference_image() {
        let dir = tmpdir("streamed");
        let mut rng = SplitMix64::seed_from_u64(0x5EED_0024);
        for round in 0..8 {
            let buf = random_buffer(&mut rng, 60);
            let exported = buf.export();
            let image = reference_image(&exported);
            let n = image.len();
            let sizes = [1, 7, 8, 23, 24, 96, n - 1, n, DEFAULT_SEGMENT_BYTES];
            for segment_bytes in sizes {
                let case = format!("round {round}, {n}-byte image, segment_bytes {segment_bytes}");
                let _ = fs::remove_dir_all(&dir);
                let mut store = TraceStore::open_with(&dir, StoreConfig { segment_bytes }).unwrap();
                let entry = store.put("t", &buf, meta()).unwrap().clone();
                assert_eq!(entry.image_len, n as u64, "{case}");
                assert_eq!(entry.image_crc, crc32(&image), "{case}");
                let cuts: Vec<&[u8]> = image.chunks(segment_bytes).collect();
                assert_eq!(entry.segments.len(), cuts.len(), "{case}");
                for (k, (info, want)) in entry.segments.iter().zip(&cuts).enumerate() {
                    let bytes = fs::read(dir.join(entry.segment_file(k))).unwrap();
                    let (header, chunk, crc) = decode_segment(&bytes).unwrap();
                    assert_eq!(&bytes[chunk], *want, "{case}: segment {k} bytes");
                    assert_eq!((crc, info.crc), (crc32(want), crc32(want)), "{case}: {k}");
                    assert_eq!(info.offset, (k * segment_bytes) as u64, "{case}: {k}");
                    assert_eq!(header.image_crc, crc32(&image), "{case}: {k}");
                }
                assert_eq!(store.get("t").unwrap().export(), exported, "{case}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An index that passes every structural check but declares a
    /// segment of 2^50 bytes must fail `get` with a typed error, before
    /// anything is sized from the declared length.
    #[test]
    fn a_huge_declared_segment_is_a_typed_error() {
        let dir = tmpdir("huge");
        let mut store = TraceStore::open(&dir).unwrap();
        store.put("t", &captured(50), meta()).unwrap();
        let huge = 1u64 << 50;
        store.entries[0].image_len = huge;
        store.entries[0].segments[0].len = huge;
        store.publish_index().unwrap();
        let reopened = TraceStore::open(&dir).unwrap();
        assert_eq!(reopened.list()[0].image_len, huge);
        let err = reopened.get("t").unwrap_err();
        assert!(
            matches!(&err, StoreError::Mismatch { path, .. }
                if *path == dir.join(segment_file_name("t", 0))),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Replaces the image of the store's one trace with `image`, of the
    /// same length, re-framing every segment and the index with valid
    /// checksums: only the image's content is wrong.
    fn forge_image(store: &mut TraceStore, image: &[u8]) {
        let entry = &mut store.entries[0];
        assert_eq!(entry.image_len, image.len() as u64);
        entry.image_crc = crc32(image);
        let seg_count = entry.segments.len() as u32;
        for (k, info) in entry.segments.iter_mut().enumerate() {
            let chunk = &image[info.offset as usize..(info.offset + info.len) as usize];
            info.crc = crc32(chunk);
            let header = SegmentHeader {
                id: entry.id.clone(),
                seg_index: k as u32,
                seg_count,
                chunk_offset: info.offset,
                chunk_len: info.len,
                image_len: entry.image_len,
                image_crc: entry.image_crc,
            }
            .encode();
            let (header, chunk) = ([&header[..]], [chunk]);
            let frames = [Frame::new(&header), Frame::new(&chunk)];
            let name = segment_file_name(&entry.id, k);
            frame::publish(&store.dir, &name, &MAGIC_SEGMENT, SEGMENT_VERSION, &frames).unwrap();
        }
        store.publish_index().unwrap();
    }

    /// The image decoder as it was when `get` assembled the image in one
    /// buffer: the reference for image-level diagnostics.
    fn reference_decode(image: &[u8]) -> Result<(), FrameError> {
        let mut d = frame::Dec::new(image, 0);
        let (events, accesses, scope_events) = (d.u64()?, d.u64()?, d.u64()?);
        if accesses.saturating_add(scope_events) != events {
            return Err(d.corrupt(format!(
                "{accesses} accesses + {scope_events} scope events != {events} events"
            )));
        }
        for _ in 0..4 {
            d.bytes()?;
        }
        d.finish()
    }

    /// A CRC-valid image whose counts or length prefixes are wrong fails
    /// `get` with the variant, offset, message and path (the first
    /// segment) that decoding the whole image in one buffer gives, for
    /// every way the segments can cut it.
    #[test]
    fn image_level_corruption_keeps_its_diagnostics() {
        let dir = tmpdir("imagediag");
        let buf = captured(30);
        let exported = buf.export();
        let pristine = reference_image(&exported);
        // Byte offsets of the three counts and the four length prefixes.
        let mut fields = vec![0, 8, 16];
        let mut at = 24;
        for column in [
            &exported.ops,
            &exported.addr_bytes,
            &exported.ref_bytes,
            &exported.scope_bytes,
        ] {
            fields.push(at);
            at += 8 + column.len();
        }
        assert_eq!(at, pristine.len());
        for segment_bytes in [13, DEFAULT_SEGMENT_BYTES] {
            let _ = fs::remove_dir_all(&dir);
            let mut store = TraceStore::open_with(&dir, StoreConfig { segment_bytes }).unwrap();
            store.put("t", &buf, meta()).unwrap();
            let first_seg = dir.join(segment_file_name("t", 0));
            let mut checked = 0;
            for &field in &fields {
                let was = u64::from_le_bytes(pristine[field..field + 8].try_into().unwrap());
                for value in [0, was + 1, was.wrapping_sub(1), u64::MAX] {
                    let mut image = pristine.clone();
                    image[field..field + 8].copy_from_slice(&value.to_le_bytes());
                    let Err(want) = reference_decode(&image) else {
                        continue;
                    };
                    forge_image(&mut store, &image);
                    assert_eq!(
                        store.get("t").unwrap_err(),
                        StoreError::framed(&first_seg, want),
                        "segment_bytes {segment_bytes}, field at {field} = {value}"
                    );
                    checked += 1;
                }
            }
            assert!(checked > 15, "only {checked} forgeries failed to decode");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The version-1 image of `buf`, as a store from before the image
    /// lost its size column wrote it: opcodes load / store / enter /
    /// exit (every access a load here), and an 8-byte size per access
    /// between the reference and scope columns.
    fn version_1_image(buf: &TraceBuffer) -> Vec<u8> {
        let t = buf.export();
        // Today's access / enter / exit codes 0 / 1 / 2 were load / enter
        // / exit 0 / 2 / 3; padding lanes stay 0.
        let ops: Vec<u8> = t
            .ops
            .iter()
            .map(|&b| {
                (0..4).fold(0, |acc, lane| {
                    let op = (b >> (lane * 2)) & 0b11;
                    acc | ([0, 2, 3, 3][op as usize] << (lane * 2))
                })
            })
            .collect();
        let mut e = Enc::new();
        e.u64(t.events);
        e.u64(t.accesses);
        e.u64(t.scope_events);
        e.bytes(&ops);
        e.bytes(&t.addr_bytes);
        e.bytes(&t.ref_bytes);
        e.bytes(&vec![8; t.accesses as usize]);
        e.bytes(&t.scope_bytes);
        e.buf
    }

    /// A store whose trace was written at segment version 1 still opens
    /// and lists, refuses `get` of that trace with a typed
    /// `UnsupportedVersion`, and serves it again after an evict and a
    /// fresh `put` under the same id.
    #[test]
    fn a_version_1_segment_opens_lists_and_refuses_get() {
        let dir = tmpdir("version1");
        let buf = captured(40);
        let mut store = TraceStore::open(&dir).unwrap();
        store.put("old", &buf, meta()).unwrap();
        let image = version_1_image(&buf);
        let entry = &mut store.entries[0];
        entry.image_len = image.len() as u64;
        entry.image_crc = crc32(&image);
        entry.segments = vec![SegmentInfo {
            offset: 0,
            len: image.len() as u64,
            crc: crc32(&image),
        }];
        let header = SegmentHeader {
            id: "old".to_string(),
            seg_index: 0,
            seg_count: 1,
            chunk_offset: 0,
            chunk_len: image.len() as u64,
            image_len: image.len() as u64,
            image_crc: crc32(&image),
        }
        .encode();
        let (header, chunk) = ([&header[..]], [&image[..]]);
        let frames = [Frame::new(&header), Frame::new(&chunk)];
        let name = segment_file_name("old", 0);
        frame::publish(&dir, &name, &MAGIC_SEGMENT, 1, &frames).unwrap();
        store.publish_index().unwrap();

        let mut reopened = TraceStore::open(&dir).expect("an old store opens");
        assert_eq!(reopened.list().len(), 1);
        assert_eq!(reopened.list()[0].id, "old");
        assert_eq!(reopened.list()[0].events, buf.events());
        assert_eq!(
            reopened.get("old").unwrap_err(),
            StoreError::UnsupportedVersion {
                path: dir.join(&name),
                found: 1,
                supported: SEGMENT_VERSION,
            }
        );
        reopened.evict("old").unwrap();
        reopened.put("old", &buf, meta()).unwrap();
        let mut want = VecSink::new();
        buf.replay(&mut want);
        let mut got = VecSink::new();
        reopened.get("old").unwrap().replay(&mut got);
        assert_eq!(got, want);
        fs::remove_dir_all(&dir).unwrap();
    }
}
