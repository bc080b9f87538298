//! Deterministic fault injection for the capture/replay pipeline.
//!
//! The failure-path test suites need two ingredients this module provides:
//!
//! * **corrupted trace images** — a seeded [`Corruptor`] that bit-flips
//!   or truncates the encoded columns of an [`ExportedTrace`], plus
//!   [`truncations`] for exhaustively cutting a small golden image at
//!   every byte boundary. Specific malformed encodings are forged by
//!   editing the image's public fields. Every corrupted image goes
//!   through [`TraceBuffer::import`](crate::TraceBuffer::import), the one
//!   place an encoding is checked;
//! * **hostile sinks** — [`PanickingSink`] (panics with a string message
//!   after a configurable number of accesses) and [`FailingSink`] (panics
//!   with a non-string payload), used to prove that a consumer blowing up
//!   mid-replay neither poisons the shared buffer nor takes down sibling
//!   analysis threads;
//! * **torn writes** — [`CrashPoint`], an [`io::Write`] adapter that
//!   forwards a fixed byte budget and then fails, simulating a process
//!   killed at an arbitrary point while serializing a checkpoint; plus
//!   [`Corruptor`] methods over raw byte vectors
//!   ([`flip_bytes`](Corruptor::flip_bytes),
//!   [`flip_header`](Corruptor::flip_header),
//!   [`truncate_bytes`](Corruptor::truncate_bytes),
//!   [`trailing_garbage`](Corruptor::trailing_garbage)) for mutating
//!   on-disk snapshot images the same seeded way trace images are mutated;
//! * **hostile requests** — [`splice_bytes`](Corruptor::splice_bytes) and
//!   [`garbage_line`](Corruptor::garbage_line) mutate daemon request
//!   bytes (overwriting rather than xoring, so non-UTF-8 garbage lands
//!   inside otherwise well-formed JSON lines) for the protocol fuzz
//!   suite.
//!
//! Everything is seeded through [`SplitMix64`], so a failing case is
//! reproducible from its seed alone. The module ships in the library (not
//! behind `cfg(test)`) so downstream crates' failure suites —
//! `reuselens-core`'s degradation tests, the workspace fault-tolerance
//! suite — can drive the same injections.

use crate::buffer::ExportedTrace;
use crate::decode::Column;
use crate::event::TraceSink;
use reuselens_ir::{RefId, ScopeId};
use reuselens_prng::SplitMix64;
use std::io;

fn column(image: &ExportedTrace, c: Column) -> &[u8] {
    match c {
        Column::Ops => &image.ops,
        Column::Addr => &image.addr_bytes,
        Column::Ref => &image.ref_bytes,
        Column::Scope => &image.scope_bytes,
    }
}

fn column_mut(image: &mut ExportedTrace, c: Column) -> &mut Vec<u8> {
    match c {
        Column::Ops => &mut image.ops,
        Column::Addr => &mut image.addr_bytes,
        Column::Ref => &mut image.ref_bytes,
        Column::Scope => &mut image.scope_bytes,
    }
}

const COLUMNS: [Column; 4] = [Column::Ops, Column::Addr, Column::Ref, Column::Scope];

/// A seeded trace-image corruptor. Every method is deterministic in the seed
/// and the call sequence, so any failure it provokes can be replayed.
#[derive(Debug, Clone)]
pub struct Corruptor {
    rng: SplitMix64,
}

impl Corruptor {
    /// Creates a corruptor from a seed.
    pub fn new(seed: u64) -> Corruptor {
        Corruptor {
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Picks a non-empty column, or `None` when every column is empty.
    fn pick_column(&mut self, image: &ExportedTrace) -> Option<Column> {
        let nonempty: Vec<Column> = COLUMNS
            .into_iter()
            .filter(|&c| !column(image, c).is_empty())
            .collect();
        if nonempty.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..nonempty.len() as u64) as usize;
        Some(nonempty[i])
    }

    /// Returns a copy of `image` with one random bit flipped in one random
    /// non-empty encoded column. An empty image is returned unchanged.
    ///
    /// Note that a single bit flip does not always make the encoding
    /// invalid — flipping an address bit, say, yields a *different* valid
    /// stream. The guarantee under test is "never panics", not
    /// "always errors".
    pub fn bit_flip(&mut self, image: &ExportedTrace) -> ExportedTrace {
        let mut out = image.clone();
        if let Some(c) = self.pick_column(image) {
            let col = column_mut(&mut out, c);
            let byte = self.rng.gen_range(0..col.len() as u64) as usize;
            let bit = self.rng.gen_range(0..8) as u8;
            col[byte] ^= 1 << bit;
        }
        out
    }

    /// Returns a copy of `image` with `n` random bit flips (possibly
    /// landing on the same bit, which un-flips it).
    pub fn bit_flips(&mut self, image: &ExportedTrace, n: usize) -> ExportedTrace {
        let mut out = image.clone();
        for _ in 0..n {
            out = self.bit_flip(&out);
        }
        out
    }

    /// Returns a copy of `image` with one random non-empty column
    /// truncated to a strictly shorter random length. An empty image is
    /// returned unchanged. The result never imports (some event's bytes
    /// are gone).
    pub fn truncate(&mut self, image: &ExportedTrace) -> ExportedTrace {
        let mut out = image.clone();
        if let Some(c) = self.pick_column(image) {
            let col = column_mut(&mut out, c);
            let keep = self.rng.gen_range(0..col.len() as u64) as usize;
            col.truncate(keep);
        }
        out
    }

    /// Returns a copy of `image` claiming `extra` more events than are
    /// encoded — a count/payload mismatch import must catch.
    pub fn inflate_events(&mut self, image: &ExportedTrace, extra: u64) -> ExportedTrace {
        let mut out = image.clone();
        out.events += extra;
        out
    }

    /// Returns a copy of `bytes` with `n` random bit flips (possibly
    /// landing on the same bit, which un-flips it). Empty input is
    /// returned unchanged. The snapshot-file analogue of
    /// [`bit_flips`](Self::bit_flips).
    pub fn flip_bytes(&mut self, bytes: &[u8], n: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if out.is_empty() {
            return out;
        }
        for _ in 0..n {
            let byte = self.rng.gen_range(0..out.len() as u64) as usize;
            let bit = self.rng.gen_range(0..8) as u8;
            out[byte] ^= 1 << bit;
        }
        out
    }

    /// Returns a copy of `bytes` with one random bit flipped inside the
    /// first `prefix` bytes — aimed at a file's magic/version header,
    /// where any flip must be rejected outright rather than decoded.
    /// Input shorter than one byte is returned unchanged.
    pub fn flip_header(&mut self, bytes: &[u8], prefix: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let span = prefix.min(out.len());
        if span == 0 {
            return out;
        }
        let byte = self.rng.gen_range(0..span as u64) as usize;
        let bit = self.rng.gen_range(0..8) as u8;
        out[byte] ^= 1 << bit;
        out
    }

    /// Returns a strictly shorter random prefix of `bytes` — a torn or
    /// mid-frame-truncated file. Empty input is returned unchanged.
    pub fn truncate_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        if bytes.is_empty() {
            return Vec::new();
        }
        let keep = self.rng.gen_range(0..bytes.len() as u64) as usize;
        bytes[..keep].to_vec()
    }

    /// Returns `bytes` with `n` random garbage bytes appended — a file a
    /// crashed writer (or a concatenating restore) left with trailing
    /// junk after an otherwise valid image.
    pub fn trailing_garbage(&mut self, bytes: &[u8], n: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..n {
            out.push(self.rng.gen_range(0..256) as u8);
        }
        out
    }

    /// Returns a copy of `bytes` with `n` random bytes *overwritten* by
    /// random values (not xored) — unlike [`flip_bytes`](Self::flip_bytes)
    /// this can land arbitrary bytes, including ones that break UTF-8,
    /// inside an otherwise well-formed request line. Empty input is
    /// returned unchanged. The protocol-fuzz analogue of `bit_flips`.
    pub fn splice_bytes(&mut self, bytes: &[u8], n: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if out.is_empty() {
            return out;
        }
        for _ in 0..n {
            let byte = self.rng.gen_range(0..out.len() as u64) as usize;
            out[byte] = self.rng.gen_range(0..256) as u8;
        }
        out
    }

    /// Returns `len` uniformly random bytes — a request line that never
    /// was JSON. Useful as the zero-structure end of a protocol fuzz
    /// spectrum (valid request → spliced request → pure noise).
    pub fn garbage_line(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.rng.gen_range(0..256) as u8).collect()
    }
}

/// An [`io::Write`] adapter that forwards exactly `fail_after` bytes to
/// the wrapped writer and then fails every further write — the
/// deterministic stand-in for a process killed mid-serialization. Driving
/// `fail_after` across `0..=len` of a serialized image exercises a crash
/// at **every byte boundary** of the write.
///
/// The partial prefix *is* written (like a real torn write), so pointing
/// this at a file produces exactly the truncated artifacts a recovery
/// path must reject.
#[derive(Debug)]
pub struct CrashPoint<W: io::Write> {
    inner: W,
    remaining: u64,
    crashed: bool,
}

impl<W: io::Write> CrashPoint<W> {
    /// Wraps `inner`, allowing `fail_after` bytes through before failing.
    pub fn new(inner: W, fail_after: u64) -> CrashPoint<W> {
        CrashPoint {
            inner,
            remaining: fail_after,
            crashed: false,
        }
    }

    /// Picks the crash point uniformly in `0..len` from a seed — a
    /// reproducible random torn write over an image of `len` bytes.
    pub fn seeded(inner: W, seed: u64, len: u64) -> CrashPoint<W> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let fail_after = if len == 0 { 0 } else { rng.gen_range(0..len) };
        CrashPoint::new(inner, fail_after)
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Unwraps the inner writer (holding whatever prefix got through).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> io::Write for CrashPoint<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let allowed = (self.remaining).min(buf.len() as u64) as usize;
        if allowed > 0 {
            let written = self.inner.write(&buf[..allowed])?;
            self.remaining -= written as u64;
            return Ok(written);
        }
        if buf.is_empty() {
            return Ok(0);
        }
        self.crashed = true;
        Err(io::Error::other("injected crash point"))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Every proper truncation of every non-empty column of `image`: for a
/// column of `n` bytes, the copies keeping `0..n` bytes. Exhaustive over a
/// small golden image, this covers truncation at every byte boundary.
/// Each returned copy fails import by construction.
pub fn truncations(image: &ExportedTrace) -> Vec<ExportedTrace> {
    let mut out = Vec::new();
    for c in COLUMNS {
        for keep in 0..column(image, c).len() {
            let mut cut = image.clone();
            column_mut(&mut cut, c).truncate(keep);
            out.push(cut);
        }
    }
    out
}

/// A sink that panics (with a string message) once it has seen more than
/// `fail_after` accesses. `fail_after == 0` panics on the first access.
#[derive(Debug, Clone, Default)]
pub struct PanickingSink {
    /// Accesses to accept before panicking.
    pub fail_after: u64,
    seen: u64,
}

impl PanickingSink {
    /// Creates a sink that accepts `fail_after` accesses, then panics.
    pub fn new(fail_after: u64) -> PanickingSink {
        PanickingSink {
            fail_after,
            seen: 0,
        }
    }

    /// Accesses observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for PanickingSink {
    fn access(&mut self, _r: RefId, _addr: u64) {
        if self.seen >= self.fail_after {
            panic!("injected sink panic after {} accesses", self.seen);
        }
        self.seen += 1;
    }
    fn enter(&mut self, _scope: ScopeId) {}
    fn exit(&mut self, _scope: ScopeId) {}
}

/// A sink whose first access panics with a **non-string payload**,
/// exercising the "opaque panic payload" branch of failure reporting
/// (`catch_unwind` callers cannot downcast it to a message).
#[derive(Debug, Clone, Copy, Default)]
pub struct FailingSink;

impl TraceSink for FailingSink {
    fn access(&mut self, _r: RefId, _addr: u64) {
        std::panic::panic_any(0xdead_beef_u64);
    }
    fn enter(&mut self, _scope: ScopeId) {}
    fn exit(&mut self, _scope: ScopeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::TraceBuffer;

    fn golden() -> ExportedTrace {
        let mut buf = TraceBuffer::new();
        buf.enter(ScopeId(1));
        for i in 0..40u64 {
            buf.access(RefId((i % 3) as u32), 0x1000 + i * 16);
        }
        buf.exit(ScopeId(1));
        buf.export()
    }

    #[test]
    fn raw_columns_round_trip() {
        let image = golden();
        let buf = TraceBuffer::import(image.clone()).expect("golden image imports");
        assert_eq!(buf.export(), image);
    }

    #[test]
    fn corruptor_is_deterministic_in_the_seed() {
        let image = golden();
        let a = Corruptor::new(7).bit_flips(&image, 4);
        let b = Corruptor::new(7).bit_flips(&image, 4);
        assert_eq!(a, b);
        let c = Corruptor::new(8).bit_flips(&image, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn truncate_and_inflate_fail_validation() {
        let image = golden();
        let mut c = Corruptor::new(1);
        for _ in 0..20 {
            assert!(TraceBuffer::import(c.truncate(&image)).is_err());
        }
        assert!(TraceBuffer::import(c.inflate_events(&image, 3)).is_err());
    }

    #[test]
    fn empty_buffer_survives_corruption_attempts() {
        let empty = TraceBuffer::new().export();
        let mut c = Corruptor::new(5);
        assert!(TraceBuffer::import(c.bit_flip(&empty)).is_ok());
        assert!(TraceBuffer::import(c.truncate(&empty)).is_ok());
    }

    #[test]
    fn byte_vector_mutations_are_deterministic_and_shaped() {
        let image: Vec<u8> = (0..64u8).collect();
        let a = Corruptor::new(3).flip_bytes(&image, 4);
        let b = Corruptor::new(3).flip_bytes(&image, 4);
        assert_eq!(a, b);
        assert_ne!(a, image);
        assert_eq!(a.len(), image.len());

        let h = Corruptor::new(3).flip_header(&image, 8);
        assert_eq!(h.len(), image.len());
        assert_ne!(h[..8], image[..8], "flip must land in the header");
        assert_eq!(h[8..], image[8..]);

        let t = Corruptor::new(3).truncate_bytes(&image);
        assert!(t.len() < image.len());
        assert_eq!(t[..], image[..t.len()]);

        let g = Corruptor::new(3).trailing_garbage(&image, 5);
        assert_eq!(g.len(), image.len() + 5);
        assert_eq!(g[..image.len()], image[..]);

        // Degenerate inputs survive.
        assert!(Corruptor::new(1).flip_bytes(&[], 3).is_empty());
        assert!(Corruptor::new(1).flip_header(&[], 8).is_empty());
        assert!(Corruptor::new(1).truncate_bytes(&[]).is_empty());
    }

    #[test]
    fn request_mutators_are_deterministic_and_shaped() {
        let line = br#"{"kind":"capture","id":"t1","workload":"sweep3d"}"#;
        let a = Corruptor::new(11).splice_bytes(line, 6);
        let b = Corruptor::new(11).splice_bytes(line, 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), line.len());
        assert_ne!(a, line.to_vec());
        assert!(Corruptor::new(11).splice_bytes(&[], 6).is_empty());

        let g = Corruptor::new(11).garbage_line(32);
        assert_eq!(g, Corruptor::new(11).garbage_line(32));
        assert_eq!(g.len(), 32);
        assert!(Corruptor::new(11).garbage_line(0).is_empty());
    }

    #[test]
    fn crash_point_writes_exact_prefix_then_fails() {
        use std::io::Write;
        let image: Vec<u8> = (0..32u8).collect();
        for fail_after in 0..=image.len() as u64 {
            let mut w = CrashPoint::new(Vec::new(), fail_after);
            let result = w.write_all(&image);
            if fail_after >= image.len() as u64 {
                result.expect("budget covers the image");
                assert!(!w.crashed());
            } else {
                assert!(result.is_err());
                assert!(w.crashed());
            }
            let written = w.into_inner();
            let kept = fail_after.min(image.len() as u64) as usize;
            assert_eq!(written[..], image[..kept]);
        }
        // Once crashed, later writes keep failing.
        let mut w = CrashPoint::new(Vec::new(), 1);
        assert!(w.write_all(&[1, 2]).is_err());
        assert!(w.write_all(&[3]).is_err());
        assert_eq!(w.into_inner(), vec![1]);
    }

    #[test]
    fn seeded_crash_point_is_reproducible() {
        use std::io::Write;
        let image: Vec<u8> = (0..50u8).collect();
        let run = |seed: u64| {
            let mut w = CrashPoint::seeded(Vec::new(), seed, image.len() as u64);
            let _ = w.write_all(&image);
            w.into_inner().len()
        };
        assert_eq!(run(9), run(9));
        let distinct: std::collections::HashSet<usize> = (0..32).map(run).collect();
        assert!(distinct.len() > 4, "seeds must spread the crash point");
    }

    #[test]
    fn panicking_sink_counts_then_panics() {
        let buf = TraceBuffer::import(golden()).expect("golden image imports");
        let mut ok = PanickingSink::new(1000);
        buf.replay(&mut ok);
        assert_eq!(ok.seen(), 40);
        let hit = std::panic::catch_unwind(|| {
            let mut s = PanickingSink::new(5);
            buf.replay(&mut s);
        });
        assert!(hit.is_err());
    }
}
