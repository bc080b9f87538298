//! The one frame codec behind every on-disk format: RLSNAP analyzer
//! checkpoints (`reuselens-core`) and the RLSEGM/RLINDX trace store
//! (`reuselens-store`).
//!
//! ## File shape
//!
//! ```text
//! +--------+---------+----------------------+-----+----------------------+
//! | magic  | version | frame 0              | ... | frame n-1            |
//! | 6 B    | u16 LE  | u32 len, u32 crc, .. |     | u32 len, u32 crc, .. |
//! +--------+---------+----------------------+-----+----------------------+
//! ```
//!
//! Each format fixes its magic, version and frame count. Every frame is
//! length-prefixed and guarded by a CRC-32 (IEEE) over its payload, so
//! [`decode`] detects torn writes, truncation, bit rot and trailing
//! garbage, with byte-offset diagnostics, before any payload byte is
//! interpreted. Payloads are built with [`Enc`] and read back with [`Dec`]:
//! little-endian, fixed-width, so a given value encodes to the same bytes
//! every time.
//!
//! There is one writer. A frame is handed over as a list of borrowed
//! pieces with the CRC of their concatenation ([`Frame`]; [`Crc32`]
//! checksums pieces in one pass), and [`write_image`] streams magic,
//! version, frame heads and pieces to any [`Write`], in order. Files are
//! written with [`publish`]: the image streams into a dot-prefixed
//! temporary in the target directory through a fixed-size buffer, and the
//! temporary is then renamed into place (atomic on POSIX). No image-sized
//! buffer is ever assembled. A process killed mid-write leaves only the
//! temporary, never a torn file under a valid name. The rename is not
//! fsync-durable against power loss.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Bytes before the first frame: six of magic, two of version.
const PREAMBLE_LEN: usize = 8;

/// Capacity of [`publish`]'s write buffer.
const WRITE_BUFFER: usize = 16 << 10;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slice-by-8, tables built at compile time.
//
// The byte-at-a-time loop tops out around 350 MB/s, which made checksum
// passes the dominant cost of loading multi-megabyte trace images.
// Slice-by-8 folds eight input bytes per iteration through eight derived
// tables; same polynomial, same values, ~4-6x the throughput.
// ---------------------------------------------------------------------------

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = CRC of byte b followed by k zero bytes, so the eight
    // lanes of a u64 can be folded independently and XOR-combined.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE) of `data`: the checksum guarding every frame.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// CRC-32 (IEEE) computed incrementally: [`update`](Self::update) with
/// consecutive pieces, then [`finish`](Self::finish), equals [`crc32`] of
/// their concatenation. One pass over the bytes, whatever the cut.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// The CRC of no bytes yet.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The CRC-32 of every byte folded in.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 of the concatenation `A || B` given `crc32(A)`, `crc32(B)`,
/// and `B`'s length — zlib's `crc32_combine`, built from the linearity
/// of CRC over GF(2). Appending `len_b` zero bytes to `A` multiplies its
/// CRC register by `x^(8*len_b)` mod the polynomial; that operator is a
/// 32x32 bit matrix applied by square-and-multiply, so combining costs
/// `O(log len_b)` matrix products instead of a pass over the bytes.
///
/// Lets a reader derive a multi-frame image's checksum from the per-frame
/// checksums it has already verified, without re-hashing the image.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // mat[i] is the image of bit i under the operator; applying is a
    // masked XOR fold.
    fn apply(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut out = 0u32;
        let mut i = 0;
        while vec != 0 {
            if vec & 1 != 0 {
                out ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        out
    }
    fn square(mat: &[u32; 32]) -> [u32; 32] {
        let mut out = [0u32; 32];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = apply(mat, mat[i]);
        }
        out
    }
    if len_b == 0 {
        return crc_a;
    }
    // The operator for one zero bit: shift down, feeding bit 0 into the
    // polynomial taps.
    let mut odd = [0u32; 32];
    odd[0] = 0xEDB8_8320;
    for (i, slot) in odd.iter_mut().enumerate().skip(1) {
        *slot = 1 << (i - 1);
    }
    let mut even = square(&odd); // two zero bits
    odd = square(&even); // four zero bits
    let mut crc = crc_a;
    let mut n = len_b;
    // Walk the bits of the byte count; each squaring doubles the
    // zero-run the operator appends (8 bits, 16, 32, ...).
    loop {
        even = square(&odd);
        if n & 1 != 0 {
            crc = apply(&even, crc);
        }
        n >>= 1;
        if n == 0 {
            break;
        }
        odd = square(&even);
        if n & 1 != 0 {
            crc = apply(&odd, crc);
        }
        n >>= 1;
        if n == 0 {
            break;
        }
    }
    crc ^ crc_b
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Why a framed image could not be decoded. Every variant about the bytes
/// carries the byte offset at which the problem was found. Formats wrap
/// this in their own error type (adding, for example, the file path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The image ends before the bytes the format requires — a torn or
    /// truncated write.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: u64,
        /// Bytes the decoder needed at that offset.
        needed: u64,
        /// Bytes actually available there.
        have: u64,
    },
    /// The image does not start with the expected magic.
    BadMagic,
    /// The image's format version is not one this reader understands.
    UnsupportedVersion {
        /// Version found in the image.
        found: u16,
        /// Version this build reads.
        supported: u16,
    },
    /// A frame's checksum does not match its payload.
    CrcMismatch {
        /// Which frame, by the name the format gave it.
        frame: &'static str,
        /// Byte offset of the frame's payload.
        offset: u64,
        /// Checksum stored in the image.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The bytes decode but violate a structural invariant.
    Corrupt {
        /// Byte offset at which the invariant was found violated.
        offset: u64,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated {
                offset,
                needed,
                have,
            } => write!(
                f,
                "truncated at byte {offset}: needed {needed} more bytes, found {have}"
            ),
            FrameError::BadMagic => f.write_str("bad magic"),
            FrameError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported version {found} (this build reads version {supported})"
            ),
            FrameError::CrcMismatch {
                frame,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "{frame} frame checksum mismatch at byte {offset}: \
                 stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::Corrupt { offset, what } => write!(f, "corrupt at byte {offset}: {what}"),
        }
    }
}

impl Error for FrameError {}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Little-endian, fixed-width encoder for frame payloads.
#[derive(Debug, Default)]
pub struct Enc {
    /// The bytes encoded so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` length prefix, then the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a string as length-prefixed UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Validating little-endian decoder over one frame's payload. `base` is
/// the payload's byte offset within the file, so every diagnostic carries
/// an absolute file offset.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    base: u64,
    /// CRC-32 of `data` as verified by [`decode`] (0 for decoders built
    /// with [`Dec::new`]).
    crc: u32,
}

impl<'a> Dec<'a> {
    /// A decoder over `data`, which starts at file offset `base`.
    pub fn new(data: &'a [u8], base: u64) -> Dec<'a> {
        Dec {
            data,
            pos: 0,
            base,
            crc: 0,
        }
    }

    /// Absolute file offset of the next byte to decode.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// The whole payload, however much has been decoded.
    pub fn payload(&self) -> &'a [u8] {
        self.data
    }

    /// The payload's CRC-32 as [`decode`] verified it against the frame's
    /// stored checksum. Callers cross-check it against an independently
    /// stored copy without a second pass over the bytes.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let have = self.data.len() - self.pos;
        if have < n {
            return Err(FrameError::Truncated {
                offset: self.offset(),
                needed: n as u64,
                have: have as u64,
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length prefix about to drive a `Vec` allocation. Rejects any
    /// count that could not possibly fit in the bytes remaining (each
    /// element needs at least `min_elem_bytes`), so a corrupted length
    /// cannot cause an absurd allocation before the data runs out.
    pub fn len(&mut self, min_elem_bytes: u64) -> Result<usize, FrameError> {
        let at = self.offset();
        let n = self.u64()?;
        let remaining = (self.data.len() - self.pos) as u64;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(FrameError::Corrupt {
                offset: at,
                what: format!("length {n} cannot fit in the {remaining} bytes remaining"),
            });
        }
        Ok(n as usize)
    }

    /// Reads length-prefixed bytes (the inverse of [`Enc::bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string (the inverse of [`Enc::str`]).
    pub fn str(&mut self) -> Result<String, FrameError> {
        let at = self.offset();
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| FrameError::Corrupt {
            offset: at,
            what: "string is not valid UTF-8".to_string(),
        })
    }

    /// Fails unless every payload byte has been consumed — a decoded
    /// frame with leftover bytes is corruption, not padding.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.data.len() {
            return Err(self.corrupt(format!(
                "{} unconsumed bytes at end of frame",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }

    /// A [`FrameError::Corrupt`] at the current offset.
    pub fn corrupt(&self, what: impl Into<String>) -> FrameError {
        FrameError::Corrupt {
            offset: self.offset(),
            what: what.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// Images
// ---------------------------------------------------------------------------

/// One frame of a file image: its payload as consecutive borrowed
/// pieces, and the CRC-32 of their concatenation. Writers hand the bytes
/// they already hold (a trace's columns, an encoded header) as pieces, so
/// no payload is copied into an image buffer before it reaches the file.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The payload, in order.
    pub pieces: &'a [&'a [u8]],
    /// [`crc32`] of the concatenated pieces.
    pub crc: u32,
}

impl<'a> Frame<'a> {
    /// A frame over `pieces`, checksummed in one pass. Callers that
    /// already hold the checksum build the struct directly instead.
    pub fn new(pieces: &'a [&'a [u8]]) -> Frame<'a> {
        let mut crc = Crc32::new();
        for piece in pieces {
            crc.update(piece);
        }
        Frame {
            pieces,
            crc: crc.finish(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.pieces.iter().map(|p| p.len()).sum()
    }

    /// True when the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writes a file image to `out`: `magic`, `version`, then each frame's
/// length, CRC and pieces, in order. Returns the image's length in bytes.
/// [`publish`] writes files through it; tests build in-memory images with
/// it (a `Vec<u8>` is a writer).
///
/// # Errors
///
/// `InvalidInput`, before anything is written, when a frame is longer
/// than its `u32` length field can say; otherwise the first error `out`
/// reports.
pub fn write_image(
    out: &mut impl Write,
    magic: &[u8; 6],
    version: u16,
    frames: &[Frame<'_>],
) -> io::Result<u64> {
    let lens = frames
        .iter()
        .map(|f| u32::try_from(f.len()))
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame longer than 4 GiB"))?;
    out.write_all(magic)?;
    out.write_all(&version.to_le_bytes())?;
    let mut written = PREAMBLE_LEN as u64;
    for (frame, len) in frames.iter().zip(lens) {
        debug_assert_eq!(
            frame.crc,
            Frame::new(frame.pieces).crc,
            "frame CRC does not match its payload"
        );
        out.write_all(&len.to_le_bytes())?;
        out.write_all(&frame.crc.to_le_bytes())?;
        for piece in frame.pieces {
            out.write_all(piece)?;
        }
        written += 8 + u64::from(len);
    }
    Ok(written)
}

/// Splits a file image into one verified decoder per frame. Checks the
/// magic, the version, every length and CRC, and that nothing trails the
/// last frame; `frames` names the frames, in order, for diagnostics.
///
/// # Errors
///
/// The first problem found, with its byte offset.
pub fn decode<'a, const N: usize>(
    bytes: &'a [u8],
    magic: &[u8; 6],
    version: u16,
    frames: [&'static str; N],
) -> Result<[Dec<'a>; N], FrameError> {
    if bytes.len() < PREAMBLE_LEN {
        return Err(FrameError::Truncated {
            offset: 0,
            needed: PREAMBLE_LEN as u64,
            have: bytes.len() as u64,
        });
    }
    if bytes[..6] != magic[..] {
        return Err(FrameError::BadMagic);
    }
    let found = u16::from_le_bytes([bytes[6], bytes[7]]);
    if found != version {
        return Err(FrameError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    let mut pos = PREAMBLE_LEN;
    let mut decs = Vec::with_capacity(N);
    for frame in frames {
        decs.push(read_frame(bytes, &mut pos, frame)?);
    }
    if pos != bytes.len() {
        return Err(FrameError::Corrupt {
            offset: pos as u64,
            what: format!(
                "{} bytes of trailing garbage after the last frame",
                bytes.len() - pos
            ),
        });
    }
    Ok(decs
        .try_into()
        .unwrap_or_else(|_| unreachable!("one decoder per frame name")))
}

/// Reads one length-prefixed, CRC-guarded frame starting at `pos`.
fn read_frame<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    frame: &'static str,
) -> Result<Dec<'a>, FrameError> {
    let need = |offset: usize, n: usize| -> Result<(), FrameError> {
        if bytes.len() < offset + n {
            return Err(FrameError::Truncated {
                offset: offset as u64,
                needed: n as u64,
                have: (bytes.len() - offset.min(bytes.len())) as u64,
            });
        }
        Ok(())
    };
    need(*pos, 8)?;
    let mut head = Dec::new(&bytes[*pos..*pos + 8], *pos as u64);
    let len = head.u32()? as usize;
    let stored = head.u32()?;
    let payload_at = *pos + 8;
    need(payload_at, len)?;
    let payload = &bytes[payload_at..payload_at + len];
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::CrcMismatch {
            frame,
            offset: payload_at as u64,
            stored,
            computed,
        });
    }
    *pos = payload_at + len;
    let mut d = Dec::new(payload, payload_at as u64);
    d.crc = computed;
    Ok(d)
}

// ---------------------------------------------------------------------------
// Publishing
// ---------------------------------------------------------------------------

/// A filesystem step of [`publish`] that failed.
#[derive(Debug)]
pub struct PublishError {
    /// What was being attempted: "create", "write" or "rename".
    pub op: &'static str,
    /// The path involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub error: io::Error,
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed for {}: {}",
            self.op,
            self.path.display(),
            self.error
        )
    }
}

impl Error for PublishError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Publishes the image of `frames` (see [`write_image`]) as `dir/name`:
/// streams it into the dot-prefixed temporary `dir/.name.tmp` through a
/// fixed-size write buffer, then renames that into place. Returns the
/// image's length in bytes.
///
/// # Errors
///
/// The first failing step, with the path it failed on.
pub fn publish(
    dir: &Path,
    name: &str,
    magic: &[u8; 6],
    version: u16,
    frames: &[Frame<'_>],
) -> Result<u64, PublishError> {
    let tmp = dir.join(format!(".{name}.tmp"));
    let path = dir.join(name);
    let fail = |op, path: &Path| {
        let path = path.to_path_buf();
        move |error| PublishError { op, path, error }
    };
    let f = fs::File::create(&tmp).map_err(fail("create", &tmp))?;
    // Pieces at least as long as the buffer bypass it; the small ones
    // (frame heads, length prefixes) are batched into few writes.
    let mut out = BufWriter::with_capacity(WRITE_BUFFER, f);
    let written = write_image(&mut out, magic, version, frames).map_err(fail("write", &tmp))?;
    out.flush().map_err(fail("write", &tmp))?;
    drop(out);
    fs::rename(&tmp, &path).map_err(fail("rename", &path))?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One framed layout: its magic, frame names and sample payloads.
    struct Layout {
        magic: &'static [u8; 6],
        names: Vec<&'static str>,
        payloads: Vec<Vec<u8>>,
    }

    /// The three framed layouts on disk, with payloads sized like small
    /// real files: RLSNAP (checkpoints), RLSEGM (store segments) and
    /// RLINDX (the store index).
    fn layouts() -> [Layout; 3] {
        let bytes = |n: usize, seed: u8| -> Vec<u8> {
            (0..n)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect()
        };
        let layout = |magic, names, payloads| Layout {
            magic,
            names,
            payloads,
        };
        [
            layout(
                b"RLSNAP",
                vec!["header", "state"],
                vec![bytes(29, 1), bytes(40, 2)],
            ),
            layout(
                b"RLSEGM",
                vec!["header", "chunk"],
                vec![bytes(50, 3), bytes(33, 4)],
            ),
            layout(b"RLINDX", vec!["index"], vec![bytes(61, 5)]),
        ]
    }

    /// Decodes `image` as the layout with these frame names, returning the
    /// payloads (the frame count is fixed per layout, as in the formats).
    fn decode_as(
        image: &[u8],
        magic: &[u8; 6],
        names: &[&'static str],
    ) -> Result<Vec<Vec<u8>>, FrameError> {
        let owned = |decs: &[Dec<'_>]| decs.iter().map(|d| d.payload().to_vec()).collect();
        match *names {
            [a] => decode(image, magic, 1, [a]).map(|d| owned(&d)),
            [a, b] => decode(image, magic, 1, [a, b]).map(|d| owned(&d)),
            _ => unreachable!("every layout has one or two frames"),
        }
    }

    /// The image of one frame per payload, each cut into two pieces at
    /// its middle: the writer must not care where pieces end.
    fn image_of(magic: &[u8; 6], payloads: &[Vec<u8>]) -> Vec<u8> {
        let pieces: Vec<[&[u8]; 2]> = payloads
            .iter()
            .map(|p| {
                let (a, b) = p.split_at(p.len() / 2);
                [a, b]
            })
            .collect();
        let frames: Vec<Frame<'_>> = pieces.iter().map(|p| Frame::new(p)).collect();
        let mut image = Vec::new();
        let written = write_image(&mut image, magic, 1, &frames).unwrap();
        assert_eq!(written, image.len() as u64);
        image
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_crc_over_any_cut_matches_whole_buffer_crc() {
        let data: Vec<u8> = (0..1_000u32).map(|i| (i * 13 + i / 7) as u8).collect();
        let whole = crc32(&data);
        for step in [1, 3, 7, 8, 9, 64, 999, 1_000] {
            let mut crc = Crc32::new();
            for piece in data.chunks(step) {
                crc.update(piece);
            }
            crc.update(&[]);
            assert_eq!(crc.finish(), whole, "pieces of {step} bytes");
        }
        assert_eq!(Crc32::default().finish(), crc32(&[]));
    }

    #[test]
    fn crc32_combine_matches_whole_buffer_crc() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        let whole = crc32(&data);
        for split in [0, 1, 9, 4096, 9_999, 10_000] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split at {split}"
            );
        }
        // Folding a many-chunk sequence, the way the store reassembles an
        // image from segment chunks.
        let mut crc = 0u32; // crc32 of the empty prefix
        for part in data.chunks(777) {
            crc = crc32_combine(crc, crc32(part), part.len() as u64);
        }
        assert_eq!(crc, whole);
    }

    #[test]
    fn every_layout_round_trips_with_verified_crcs() {
        for Layout {
            magic,
            names,
            payloads,
        } in layouts()
        {
            let image = image_of(magic, &payloads);
            assert_eq!(decode_as(&image, magic, &names).unwrap(), payloads);
        }
        let image = image_of(b"RLSEGM", &[b"ab".to_vec(), b"cdef".to_vec()]);
        let [h, c] = decode(&image, b"RLSEGM", 1, ["header", "chunk"]).unwrap();
        assert_eq!((h.offset(), h.crc()), (16, crc32(b"ab")));
        assert_eq!((c.offset(), c.crc()), (26, crc32(b"cdef")));
    }

    /// Every strict prefix of every layout is rejected as truncation (or,
    /// when the cut lands inside a payload whose length still reads, as a
    /// checksum mismatch) — never accepted, never a panic.
    #[test]
    fn every_truncation_of_every_layout_is_rejected() {
        for Layout {
            magic,
            names,
            payloads,
        } in layouts()
        {
            let image = image_of(magic, &payloads);
            for keep in 0..image.len() {
                let err = decode_as(&image[..keep], magic, &names).unwrap_err();
                assert!(
                    matches!(
                        err,
                        FrameError::Truncated { .. } | FrameError::CrcMismatch { .. }
                    ),
                    "{magic:?} prefix {keep}: unexpected {err}"
                );
            }
        }
    }

    /// Every single-bit flip anywhere in every layout — magic, version,
    /// lengths, CRCs and payloads — is rejected.
    #[test]
    fn every_bit_flip_of_every_layout_is_rejected() {
        for Layout {
            magic,
            names,
            payloads,
        } in layouts()
        {
            let image = image_of(magic, &payloads);
            for byte in 0..image.len() {
                for bit in 0..8 {
                    let mut bad = image.clone();
                    bad[byte] ^= 1 << bit;
                    let err = decode_as(&bad, magic, &names).unwrap_err();
                    let want_magic = byte < 6;
                    let want_version = (6..8).contains(&byte);
                    assert_eq!(
                        (
                            matches!(err, FrameError::BadMagic),
                            matches!(err, FrameError::UnsupportedVersion { .. })
                        ),
                        (want_magic, want_version),
                        "{magic:?} flip at byte {byte} bit {bit}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_and_preamble_errors_are_typed() {
        for Layout {
            magic,
            names,
            payloads,
        } in layouts()
        {
            let image = image_of(magic, &payloads);
            let mut long = image.clone();
            long.extend_from_slice(b"junk");
            assert!(matches!(
                decode_as(&long, magic, &names).unwrap_err(),
                FrameError::Corrupt { offset, .. } if offset == image.len() as u64
            ));
            let mut skewed = image.clone();
            skewed[6] = 0xFF;
            assert_eq!(
                decode_as(&skewed, magic, &names).unwrap_err(),
                FrameError::UnsupportedVersion {
                    found: 0xFF,
                    supported: 1
                }
            );
            assert_eq!(
                decode_as(b"NOTMAGxxxxxx", magic, &names),
                Err(FrameError::BadMagic)
            );
            // A payload flip names the frame it landed in.
            let mut flipped = image.clone();
            *flipped.last_mut().unwrap() ^= 1;
            assert!(matches!(
                decode_as(&flipped, magic, &names).unwrap_err(),
                FrameError::CrcMismatch { frame, .. } if frame == *names.last().unwrap()
            ));
        }
    }

    #[test]
    fn payload_decoder_bounds_lengths_and_checks_utf8() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // a length that cannot possibly fit
        assert!(matches!(
            Dec::new(&e.buf, 100).len(8),
            Err(FrameError::Corrupt { offset: 100, .. })
        ));

        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.str("grain");
        e.bytes(&[0xFF, 0xFE]);
        let mut d = Dec::new(&e.buf, 0);
        assert_eq!(d.u8(), Ok(7));
        assert_eq!(d.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(d.str().as_deref(), Ok("grain"));
        let at = d.offset();
        assert_eq!(
            d.str(),
            Err(FrameError::Corrupt {
                offset: at,
                what: "string is not valid UTF-8".to_string()
            })
        );
        d.finish().unwrap();

        let d = Dec::new(&[1, 2, 3], 40);
        assert!(matches!(
            d.finish(),
            Err(FrameError::Corrupt { offset: 40, .. })
        ));
        assert!(matches!(
            Dec::new(&[1, 2, 3], 40).u32(),
            Err(FrameError::Truncated {
                offset: 40,
                needed: 4,
                have: 3
            })
        ));
    }

    #[test]
    fn an_oversized_frame_is_refused_before_any_byte() {
        // 4097 borrowed MiB: one past what a u32 length field can say.
        let mib = vec![0u8; 1 << 20];
        let pieces = vec![&mib[..]; 4097];
        let mut out = Vec::new();
        let frames = [Frame {
            pieces: &pieces,
            crc: 0,
        }];
        let err = write_image(&mut out, b"RLINDX", 1, &frames).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }

    #[test]
    fn publish_renames_into_place_and_leaves_no_temporary() {
        let dir = std::env::temp_dir().join(format!("rlframe-publish-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let publish_one = |dir: &Path, name, payload: &[u8]| {
            publish(dir, name, b"RLINDX", 1, &[Frame::new(&[payload])])
        };
        assert_eq!(publish_one(&dir, "a.rlidx", b"first").unwrap(), 8 + 8 + 5);
        publish_one(&dir, "a.rlidx", b"second").unwrap();
        let path = dir.join("a.rlidx");
        assert_eq!(
            fs::read(&path).unwrap(),
            image_of(b"RLINDX", &[b"second".to_vec()])
        );
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["a.rlidx"]);
        let err = publish_one(&dir.join("missing"), "b", b"x").unwrap_err();
        assert_eq!(err.op, "create");
        fs::remove_dir_all(&dir).unwrap();
    }
}
