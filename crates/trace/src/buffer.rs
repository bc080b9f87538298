//! Compact in-memory trace capture for capture-once / replay-many analysis.
//!
//! The paper's toolchain pays its cost in the online loop: every memory
//! access walks the analyzer's data structures, and doing so per block
//! granularity (and again per cache configuration) repeats the expensive
//! part. A [`TraceBuffer`] decouples the two halves: the program is
//! interpreted **once** (capture), producing a compact columnar encoding of
//! the event stream, which any number of consumers then
//! [`replay`](TraceBuffer::replay) at memory-bandwidth speed — sequentially
//! or from several threads sharing one immutable buffer.
//!
//! ## Encoding
//!
//! Columnar, with one stream per field so each column compresses on its
//! own regularity:
//!
//! * **opcodes** — 2 bits per event (load / store / enter / exit), packed
//!   four to a byte;
//! * **addresses** — zigzag varint of the delta from the previous access
//!   (strided sweeps become 1-byte deltas);
//! * **references** — zigzag varint of the [`RefId`] delta (loop bodies
//!   cycle through a few ids, so deltas are tiny);
//! * **sizes** — varint (element sizes are small constants);
//! * **scopes** — varint [`ScopeId`] per enter/exit.
//!
//! Typical traces encode at 2–3 bytes per event versus 24 bytes for a
//! `Vec<Event>`; [`BufferStats::compression_ratio`] reports the measured
//! figure.

use crate::decode::{try_varint, Column, DecodeError};
use crate::event::{Event, SoaBatch, TraceSink};
use crate::lanes::{Lanes, ScopeMark, StepSource};
use reuselens_ir::{AccessKind, RefId, ScopeId};
use reuselens_obs as obs;
use std::ops::Range;

/// Events handed to [`TraceSink::access_soa`] per virtual call during
/// replay. Large enough to amortize dispatch, small enough to stay in L1.
pub(crate) const BATCH: usize = 256;

const OP_LOAD: u8 = 0;
const OP_STORE: u8 = 1;
const OP_ENTER: u8 = 2;
const OP_EXIT: u8 = 3;

#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    // One-byte fast path: almost every delta on a real trace (unit-stride
    // addresses, adjacent reference ids, small sizes) fits in 7 bits.
    let b = bytes[*pos];
    *pos += 1;
    if b < 0x80 {
        return u64::from(b);
    }
    let mut v = u64::from(b & 0x7f);
    let mut shift = 7;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Capture-side observability: what the buffer holds and what the columnar
/// encoding saved relative to materializing `Vec<Event>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Total events captured (accesses + scope transitions).
    pub events: u64,
    /// Memory-access events.
    pub accesses: u64,
    /// Scope enter/exit events.
    pub scope_events: u64,
    /// Bytes the encoded columns occupy.
    pub encoded_bytes: u64,
    /// Bytes an uncompressed `Vec<Event>` of the same stream would occupy.
    pub raw_bytes: u64,
}

impl BufferStats {
    /// Raw-to-encoded size ratio (higher is better; 1.0 when empty).
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

impl std::fmt::Display for BufferStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events ({} accesses) in {} B ({:.1}x vs {} B raw)",
            self.events,
            self.accesses,
            self.encoded_bytes,
            self.compression_ratio(),
            self.raw_bytes,
        )
    }
}

/// A compact, immutable-after-capture recording of one execution's event
/// stream.
///
/// Implements [`TraceSink`], so it plugs straight into
/// [`Executor::run`](crate::Executor::run); afterwards,
/// [`replay`](Self::replay) feeds any other sink the identical stream, as
/// many times as needed, without re-interpreting the program.
///
/// A buffer comes from one of two places: capture through its
/// [`TraceSink`] impl, or [`import`](Self::import), which checks every
/// byte of an untrusted [`ExportedTrace`] image. Either way it is
/// well-formed by construction, so replay decodes it without checks. The
/// one exception is a stream hand-fed to the sink with unbalanced scopes:
/// it replays as fed, and an analyzer's scope stack panics on the
/// unmatched exit.
///
/// # Examples
///
/// ```
/// use reuselens_ir::ProgramBuilder;
/// use reuselens_trace::{Executor, TraceBuffer, VecSink};
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[64]);
/// p.routine("main", |r| {
///     r.for_("i", 0, 63, |r, i| {
///         r.load(a, vec![i.into()]);
///     });
/// });
/// let prog = p.finish();
///
/// // Capture once...
/// let mut buf = TraceBuffer::new();
/// Executor::new(&prog).run(&mut buf)?;
///
/// // ...replay many times; the stream is identical to a live execution.
/// let mut direct = VecSink::new();
/// Executor::new(&prog).run(&mut direct)?;
/// let mut replayed = VecSink::new();
/// buf.replay(&mut replayed);
/// assert_eq!(direct, replayed);
/// assert!(buf.stats().compression_ratio() > 4.0);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    ops: Vec<u8>,
    events: u64,
    accesses: u64,
    scope_events: u64,
    addr_bytes: Vec<u8>,
    ref_bytes: Vec<u8>,
    size_bytes: Vec<u8>,
    scope_bytes: Vec<u8>,
    // Encoder state (deltas are relative to the previous access).
    last_addr: u64,
    last_ref: u32,
}

/// The replay state at one event boundary of a trace: the dynamic
/// context (access clock and open scopes) a consumer that starts
/// mid-stream needs to interpret what it sees. Produced by
/// [`TraceBuffer::state_at`] and advanced by
/// [`TraceBuffer::replay_advance`] and [`StepSource::step`] — the seek API
/// behind replay lanes and checkpoint resume. It says nothing about the
/// trace's form: a state one form produced resumes a replay of the other.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentState {
    /// Index of the first event of the segment.
    pub event: u64,
    /// Memory accesses executed before the segment — the global access
    /// clock at the segment's start.
    pub accesses: u64,
    /// Scopes open at the segment's start, outermost first (the program
    /// root is implied, not listed), each with the global access clock at
    /// its entry.
    pub scopes: Vec<(ScopeId, u64)>,
}

/// Where the varint decoder stands in the encoded columns between two
/// stretches: its byte position in each column and the last access's
/// address and reference, which the next deltas apply to. Private to the
/// encoded [`StepSource`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    addr_pos: usize,
    ref_pos: usize,
    size_pos: usize,
    scope_pos: usize,
    last_addr: u64,
    last_ref: u32,
}

/// The portable on-disk / wire image of a [`TraceBuffer`]: the raw encoded
/// columns plus the declared counts, nothing else. Produced by
/// [`TraceBuffer::export`], consumed by [`TraceBuffer::import`] (which
/// validates every byte). The
/// trace store frames and checksums these columns; this type is the
/// boundary between the capture engine and any persistence layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExportedTrace {
    /// Total events (accesses + scope transitions) the columns encode.
    pub events: u64,
    /// Memory-access events.
    pub accesses: u64,
    /// Scope enter/exit events.
    pub scope_events: u64,
    /// Packed 2-bit opcode column, four events per byte.
    pub ops: Vec<u8>,
    /// Zigzag-varint address-delta column.
    pub addr_bytes: Vec<u8>,
    /// Zigzag-varint reference-id-delta column.
    pub ref_bytes: Vec<u8>,
    /// Varint access-size column.
    pub size_bytes: Vec<u8>,
    /// Varint scope-id column.
    pub scope_bytes: Vec<u8>,
}

impl ExportedTrace {
    /// Bytes the five encoded columns occupy.
    pub fn encoded_bytes(&self) -> u64 {
        (self.ops.len()
            + self.addr_bytes.len()
            + self.ref_bytes.len()
            + self.size_bytes.len()
            + self.scope_bytes.len()) as u64
    }
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// Total events captured.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Memory-access events captured.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Scope enter/exit events captured.
    pub fn scope_events(&self) -> u64 {
        self.scope_events
    }

    /// The five encoded columns by reference, in image order: opcodes,
    /// address deltas, reference-id deltas, sizes, scope ids (the fields
    /// of [`ExportedTrace`], which [`export`](Self::export) clones). With
    /// the three counts this is the whole portable image, so a writer can
    /// stream it without copying.
    pub fn columns(&self) -> [&[u8]; 5] {
        [
            &self.ops,
            &self.addr_bytes,
            &self.ref_bytes,
            &self.size_bytes,
            &self.scope_bytes,
        ]
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Bytes occupied by the encoded columns.
    pub fn encoded_bytes(&self) -> u64 {
        (self.ops.len()
            + self.addr_bytes.len()
            + self.ref_bytes.len()
            + self.size_bytes.len()
            + self.scope_bytes.len()) as u64
    }

    /// Capture statistics: event counts, encoded size, compression ratio.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            events: self.events,
            accesses: self.accesses,
            scope_events: self.scope_events,
            encoded_bytes: self.encoded_bytes(),
            raw_bytes: self.events * std::mem::size_of::<Event>() as u64,
        }
    }

    #[inline]
    fn push_op(&mut self, op: u8) {
        let slot = (self.events % 4) as u32 * 2;
        match self.ops.last_mut() {
            Some(last) if slot != 0 => *last |= op << slot,
            _ => self.ops.push(op),
        }
        self.events += 1;
    }

    /// Replays the captured stream into `sink`: each [`STEP`](crate::STEP)
    /// of events decoded into lanes, then played, each run of consecutive
    /// accesses handed to [`TraceSink::access_soa`] in batches. The buffer
    /// is unchanged and can be replayed concurrently from many threads.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        self.replay_advance(&mut SegmentState::default(), self.events, sink);
        obs::add(obs::Counter::EventsDecoded, self.events);
        obs::add(obs::Counter::AccessesDecoded, self.accesses);
    }

    /// The replay state at one event boundary (clamped to the captured
    /// event count), decoded from event 0 and delivered nowhere. It
    /// counts nothing on the decode counters: a seek delivers no events.
    pub fn state_at(&self, event: u64) -> SegmentState {
        StepSource::from(self).state_at(event)
    }

    /// Replays the half-open event range `[state.event, to_event)` into
    /// `sink` while advancing `state` in place to `to_event` (clamped to
    /// the captured event count): the stretches of a [`StepSource`]
    /// played one after the other, so a run of accesses is batched as in
    /// one pass. A `state` past event 0 is first reached by decoding from
    /// the start; a replay that goes step by step holds a [`StepSource`],
    /// which keeps its place.
    ///
    /// It counts nothing on the decode counters: [`replay`](Self::replay)
    /// counts a whole replay, and the lane loop counts each grain's
    /// finished steps. It does no checks: every buffer is well-formed by
    /// construction (see [`TraceBuffer`]).
    pub fn replay_advance<S: TraceSink + ?Sized>(
        &self,
        state: &mut SegmentState,
        to_event: u64,
        sink: &mut S,
    ) {
        let to_event = to_event.min(self.events);
        let mut source = StepSource::from(self);
        let mut batch = SoaBatch::with_capacity(BATCH);
        while state.event < to_event {
            source.step(state, to_event).play_into(&mut batch, sink);
        }
        if !batch.is_empty() {
            sink.access_soa(&batch);
        }
    }

    /// Decodes `events` into `lanes`, appending, from `cursor`, which
    /// stands at `events.start`, and moves `cursor` to `events.end`. The
    /// one varint loop: every replay, seek and decoded form runs through
    /// it.
    pub(crate) fn fill(&self, cursor: &mut Cursor, events: Range<u64>, lanes: &mut Lanes) {
        let mut c = *cursor;
        for i in events {
            let op = (self.ops[(i / 4) as usize] >> ((i % 4) * 2)) & 0b11;
            match op {
                OP_LOAD | OP_STORE => {
                    let delta = unzigzag(get_varint(&self.addr_bytes, &mut c.addr_pos));
                    c.last_addr = c.last_addr.wrapping_add(delta as u64);
                    let delta = unzigzag(get_varint(&self.ref_bytes, &mut c.ref_pos));
                    c.last_ref = (i64::from(c.last_ref) + delta) as u32;
                    lanes.refs.push(c.last_ref);
                    lanes.addrs.push(c.last_addr);
                    let size = get_varint(&self.size_bytes, &mut c.size_pos);
                    lanes.sizes.push(size as u32);
                    lanes.kinds.push(if op == OP_LOAD {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    });
                }
                _ => lanes.scopes.push(ScopeMark {
                    event: i,
                    scope: ScopeId(get_varint(&self.scope_bytes, &mut c.scope_pos) as u32),
                    enter: op == OP_ENTER,
                }),
            }
        }
        *cursor = c;
    }

    /// Exports the encoded columns as a self-contained [`ExportedTrace`] —
    /// the portable image a trace store persists and ships across process
    /// boundaries. The image carries the raw columns and declared counts;
    /// [`import`](Self::import) checks them in one forward scan and yields
    /// a buffer whose replay — full or from any [`state_at`](Self::state_at)
    /// boundary — is bit-identical to this one's.
    pub fn export(&self) -> ExportedTrace {
        ExportedTrace {
            events: self.events,
            accesses: self.accesses,
            scope_events: self.scope_events,
            ops: self.ops.clone(),
            addr_bytes: self.addr_bytes.clone(),
            ref_bytes: self.ref_bytes.clone(),
            size_bytes: self.size_bytes.clone(),
            scope_bytes: self.scope_bytes.clone(),
        }
    }

    /// Rebuilds a buffer from an [`ExportedTrace`] image of untrusted
    /// provenance. The whole stream is decoded through the checked
    /// decoder first (truncation, malformed varints, field ranges, scope
    /// balance, trailing bytes), the declared counts are cross-checked
    /// against what decoding observed. `Ok` guarantees the result replays
    /// bit-identically to the buffer that produced the image.
    ///
    /// # Errors
    ///
    /// Returns the first malformation found; the image is rejected whole
    /// (no partially-imported buffer escapes).
    pub fn import(image: ExportedTrace) -> Result<TraceBuffer, DecodeError> {
        let declared = image.accesses.saturating_add(image.scope_events);
        if declared != image.events {
            return Err(DecodeError::CountMismatch {
                what: "event",
                declared: image.events,
                actual: declared,
            });
        }
        // One checked scan: every event goes through the decoder.
        let mut span = obs::span(obs::Stage::Decode);
        let mut dec = Decoder::new(&image)?;
        while dec.next_event()? {}
        dec.finish()?;
        span.record(|args| args.events = Some(image.events));
        if dec.accesses != image.accesses {
            return Err(DecodeError::CountMismatch {
                what: "access",
                declared: image.accesses,
                actual: dec.accesses,
            });
        }
        // Restore the encoder state a live capture of this stream would
        // have left, so further appends stay consistent.
        let (last_addr, last_ref) = (dec.addr, dec.r);
        Ok(TraceBuffer {
            ops: image.ops,
            events: image.events,
            accesses: image.accesses,
            scope_events: image.scope_events,
            addr_bytes: image.addr_bytes,
            ref_bytes: image.ref_bytes,
            size_bytes: image.size_bytes,
            scope_bytes: image.scope_bytes,
            last_addr,
            last_ref,
        })
    }
}

impl TraceSink for TraceBuffer {
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        self.push_op(match kind {
            AccessKind::Load => OP_LOAD,
            AccessKind::Store => OP_STORE,
        });
        self.accesses += 1;
        let delta = addr.wrapping_sub(self.last_addr) as i64;
        put_varint(&mut self.addr_bytes, zigzag(delta));
        self.last_addr = addr;
        let rdelta = i64::from(r.0) - i64::from(self.last_ref);
        put_varint(&mut self.ref_bytes, zigzag(rdelta));
        self.last_ref = r.0;
        put_varint(&mut self.size_bytes, u64::from(size));
    }

    fn enter(&mut self, scope: ScopeId) {
        self.push_op(OP_ENTER);
        self.scope_events += 1;
        put_varint(&mut self.scope_bytes, u64::from(scope.0));
    }

    fn exit(&mut self, scope: ScopeId) {
        self.push_op(OP_EXIT);
        self.scope_events += 1;
        put_varint(&mut self.scope_bytes, u64::from(scope.0));
    }
}

/// The checked decoder behind [`TraceBuffer::import`]: the one place an
/// encoding is validated.
#[derive(Debug, Clone)]
struct Decoder<'b> {
    buf: &'b ExportedTrace,
    next: u64,
    addr: u64,
    r: u32,
    accesses: u64,
    addr_pos: usize,
    ref_pos: usize,
    size_pos: usize,
    scope_pos: usize,
    /// Open scopes, outermost first: every exit must close the top one.
    open_scopes: Vec<u32>,
}

impl<'b> Decoder<'b> {
    fn new(buf: &'b ExportedTrace) -> Result<Decoder<'b>, DecodeError> {
        // The opcode column must hold exactly the declared number of 2-bit
        // lanes: ceil(events / 4) bytes.
        let needed = (buf.events as usize).div_ceil(4);
        if buf.ops.len() < needed {
            return Err(DecodeError::Truncated {
                column: Column::Ops,
                offset: buf.ops.len(),
                event: (buf.ops.len() as u64) * 4,
            });
        }
        if buf.ops.len() > needed {
            return Err(DecodeError::TrailingBytes {
                column: Column::Ops,
                consumed: needed,
                len: buf.ops.len(),
            });
        }
        Ok(Decoder {
            buf,
            next: 0,
            addr: 0,
            r: 0,
            accesses: 0,
            addr_pos: 0,
            ref_pos: 0,
            size_pos: 0,
            scope_pos: 0,
            open_scopes: Vec::new(),
        })
    }

    /// Decodes and checks the next event; `false` at the end of the
    /// declared stream. End-of-stream invariants (scope balance, exact
    /// column consumption) are checked by [`finish`](Self::finish).
    fn next_event(&mut self) -> Result<bool, DecodeError> {
        if self.next >= self.buf.events {
            return Ok(false);
        }
        let i = self.next;
        self.next += 1;
        let op = (self.buf.ops[(i / 4) as usize] >> ((i % 4) * 2)) & 0b11;
        match op {
            OP_LOAD | OP_STORE => {
                let delta = try_varint(&self.buf.addr_bytes, &mut self.addr_pos, Column::Addr, i)?;
                self.addr = self.addr.wrapping_add(unzigzag(delta) as u64);
                let rdelta = try_varint(&self.buf.ref_bytes, &mut self.ref_pos, Column::Ref, i)?;
                let r = i64::from(self.r) + unzigzag(rdelta);
                if r < 0 || r > i64::from(u32::MAX) {
                    return Err(DecodeError::RefOutOfRange { event: i, value: r });
                }
                self.r = r as u32;
                let size = try_varint(&self.buf.size_bytes, &mut self.size_pos, Column::Size, i)?;
                if size > u64::from(u32::MAX) {
                    return Err(DecodeError::SizeOutOfRange {
                        event: i,
                        value: size,
                    });
                }
                self.accesses += 1;
                Ok(true)
            }
            _ => {
                let scope =
                    try_varint(&self.buf.scope_bytes, &mut self.scope_pos, Column::Scope, i)?;
                if scope > u64::from(u32::MAX) {
                    return Err(DecodeError::ScopeOutOfRange {
                        event: i,
                        value: scope,
                    });
                }
                let scope = scope as u32;
                if op == OP_ENTER {
                    self.open_scopes.push(scope);
                    return Ok(true);
                }
                match self.open_scopes.pop() {
                    Some(top) if top == scope => Ok(true),
                    expected => Err(DecodeError::UnbalancedExit {
                        event: i,
                        scope,
                        expected,
                    }),
                }
            }
        }
    }

    /// End-of-stream checks: all scopes closed, every column consumed to
    /// its last byte.
    fn finish(&self) -> Result<(), DecodeError> {
        if !self.open_scopes.is_empty() {
            return Err(DecodeError::UnclosedScopes {
                depth: self.open_scopes.len(),
            });
        }
        for (column, consumed, len) in [
            (Column::Addr, self.addr_pos, self.buf.addr_bytes.len()),
            (Column::Ref, self.ref_pos, self.buf.ref_bytes.len()),
            (Column::Size, self.size_pos, self.buf.size_bytes.len()),
            (Column::Scope, self.scope_pos, self.buf.scope_bytes.len()),
        ] {
            if consumed != len {
                return Err(DecodeError::TrailingBytes {
                    column,
                    consumed,
                    len,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullSink, VecSink};

    fn feed(sink: &mut impl TraceSink) {
        sink.enter(ScopeId(1));
        sink.access(RefId(0), 0x1000, 8, AccessKind::Load);
        sink.access(RefId(1), 0x1008, 8, AccessKind::Store);
        sink.enter(ScopeId(2));
        sink.access(RefId(0), 0x40_0000, 4, AccessKind::Load);
        sink.access(RefId(0), 0x08, 4, AccessKind::Load); // backwards delta
        sink.exit(ScopeId(2));
        sink.exit(ScopeId(1));
    }

    #[test]
    fn replay_reproduces_the_stream_exactly() {
        let mut buf = TraceBuffer::new();
        feed(&mut buf);
        let mut direct = VecSink::new();
        feed(&mut direct);
        let mut replayed = VecSink::new();
        buf.replay(&mut replayed);
        assert_eq!(direct, replayed);
        // And again: replay is repeatable.
        let mut again = VecSink::new();
        buf.replay(&mut again);
        assert_eq!(direct, again);
    }

    #[test]
    fn replay_delivers_every_event_in_order() {
        let mut buf = TraceBuffer::new();
        feed(&mut buf);
        let mut replayed = VecSink::new();
        buf.replay(&mut replayed);
        assert_eq!(replayed.events.len() as u64, buf.events());
        assert_eq!(replayed.events[0], Event::Enter(ScopeId(1)));
        assert_eq!(replayed.addresses(), vec![0x1000, 0x1008, 0x40_0000, 0x08]);
        assert_eq!(replayed.events[7], Event::Exit(ScopeId(1)));
    }

    #[test]
    fn stats_report_counts_and_compression() {
        let mut buf = TraceBuffer::new();
        // A strided sweep: the representative best case for delta coding.
        buf.enter(ScopeId(1));
        for i in 0..10_000u64 {
            buf.access(RefId(0), 0x10_0000 + i * 8, 8, AccessKind::Load);
        }
        buf.exit(ScopeId(1));
        let s = buf.stats();
        assert_eq!(s.events, 10_002);
        assert_eq!(s.accesses, 10_000);
        assert_eq!(s.scope_events, 2);
        assert_eq!(s.raw_bytes, 10_002 * std::mem::size_of::<Event>() as u64);
        // 2-bit opcode + 1-byte addr delta + 1-byte ref delta + 1-byte size
        // ≈ 3.25 B/event versus 24 B raw.
        assert!(
            s.compression_ratio() > 6.0,
            "ratio {:.2} ({} B encoded)",
            s.compression_ratio(),
            s.encoded_bytes
        );
        assert!(!buf.is_empty());
        assert!(buf.stats().to_string().contains("accesses"));
    }

    #[test]
    fn empty_buffer_replays_nothing() {
        let buf = TraceBuffer::new();
        let mut sink = VecSink::new();
        buf.replay(&mut sink);
        assert!(sink.events.is_empty());
        assert!(buf.is_empty());
        assert_eq!(buf.stats().compression_ratio(), 1.0);
    }

    #[test]
    fn batches_split_on_scope_boundaries_and_batch_size() {
        /// Counts batch calls to verify batching behaviour.
        #[derive(Default)]
        struct Counting {
            batches: Vec<usize>,
            scopes: usize,
        }
        impl TraceSink for Counting {
            fn access(&mut self, _: RefId, _: u64, _: u32, _: AccessKind) {
                unreachable!("replay must go through access_soa");
            }
            fn access_soa(&mut self, batch: &SoaBatch) {
                self.batches.push(batch.len());
            }
            fn enter(&mut self, _: ScopeId) {
                self.scopes += 1;
            }
            fn exit(&mut self, _: ScopeId) {
                self.scopes += 1;
            }
        }

        let mut buf = TraceBuffer::new();
        buf.enter(ScopeId(1));
        for i in 0..300u64 {
            buf.access(RefId(0), i * 8, 8, AccessKind::Load);
        }
        buf.enter(ScopeId(2));
        for i in 0..10u64 {
            buf.access(RefId(0), i * 8, 8, AccessKind::Store);
        }
        buf.exit(ScopeId(2));
        buf.exit(ScopeId(1));

        let mut c = Counting::default();
        buf.replay(&mut c);
        assert_eq!(c.batches, vec![BATCH, 300 - BATCH, 10]);
        assert_eq!(c.scopes, 4);
    }

    /// A deterministic workload with nested scopes and varied strides,
    /// long enough for several replay batches.
    fn scoped_workload(n: u64) -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        buf.enter(ScopeId(1));
        for i in 0..n {
            if i % 97 == 0 {
                buf.enter(ScopeId(2 + (i % 3) as u32));
            }
            let kind = if i % 3 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            buf.access(
                RefId((i % 5) as u32),
                0x1_0000 + (i * 24) % 4096 + (i / 11) * 64,
                8,
                kind,
            );
            if i % 97 == 96 {
                buf.exit(ScopeId(2 + ((i - 96) % 3) as u32));
            }
        }
        buf.exit(ScopeId(1));
        buf
    }

    /// The `parts` segment starts `events·k/parts` of `buf`, for `k` in
    /// `0..parts`: the boundaries the seek tests probe.
    fn boundaries(buf: &TraceBuffer, parts: u64) -> Vec<u64> {
        (0..parts).map(|k| buf.events() * k / parts).collect()
    }

    /// Replays `buf` segment by segment: each segment starts from a fresh
    /// [`TraceBuffer::state_at`] seek to its boundary and advances to the
    /// next one.
    fn replay_from_seeks(buf: &TraceBuffer, parts: u64) -> VecSink {
        let starts = boundaries(buf, parts);
        let mut stitched = VecSink::new();
        for (k, &from) in starts.iter().enumerate() {
            let to = starts.get(k + 1).copied().unwrap_or(buf.events());
            let mut state = buf.state_at(from);
            buf.replay_advance(&mut state, to, &mut stitched);
            assert_eq!(state.event, to);
        }
        stitched
    }

    #[test]
    fn segment_replay_concatenation_equals_full_replay() {
        let buf = scoped_workload(5_000);
        let mut full = VecSink::new();
        buf.replay(&mut full);
        for parts in [1u64, 2, 3, 8] {
            assert_eq!(buf.state_at(0), SegmentState::default());
            let stitched = replay_from_seeks(&buf, parts);
            assert_eq!(stitched.events, full.events, "parts = {parts}");
        }
    }

    #[test]
    fn state_at_reports_scope_context_and_clocks() {
        let buf = scoped_workload(1_000);
        let states: Vec<_> = boundaries(&buf, 4)
            .into_iter()
            .map(|b| buf.state_at(b))
            .collect();
        // Every boundary sits inside ScopeId(1), entered at access clock 0.
        for s in &states[1..] {
            assert!(!s.scopes.is_empty());
            assert_eq!(s.scopes[0], (ScopeId(1), 0));
            assert!(s.accesses <= s.event);
            assert!(s.event <= buf.events());
        }
        // Boundaries are (nearly) evenly spaced and monotone.
        for w in states.windows(2) {
            assert!(w[0].event < w[1].event);
        }
    }

    #[test]
    fn state_at_matches_replay_advance_boundaries() {
        let buf = scoped_workload(130_000);
        for parts in [1u64, 2, 3, 8] {
            let mut scanned = SegmentState::default();
            for b in boundaries(&buf, parts) {
                buf.replay_advance(&mut scanned, b, &mut NullSink);
                assert_eq!(buf.state_at(b), scanned, "boundary at event {b}");
            }
        }
        // The access clock and open scopes match a count off the event
        // stream itself.
        let mut stream = VecSink::new();
        buf.replay(&mut stream);
        let marks = boundaries(&buf, 8);
        let (mut accesses, mut scopes) = (0, Vec::new());
        for (i, event) in stream.events.into_iter().enumerate() {
            if marks.contains(&(i as u64)) {
                let s = buf.state_at(i as u64);
                assert_eq!((s.accesses, &s.scopes), (accesses, &scopes), "event {i}");
            }
            match event {
                Event::Access { .. } => accesses += 1,
                Event::Enter(scope) => scopes.push((scope, accesses)),
                Event::Exit(_) => {
                    scopes.pop();
                }
            }
        }
        // The final state covers the whole stream, and targets past the
        // end clamp to it.
        let end = buf.state_at(buf.events());
        assert_eq!(end.event, buf.events());
        assert_eq!(end.accesses, buf.accesses());
        assert_eq!(buf.state_at(u64::MAX), end);
    }

    #[test]
    fn replay_advance_equals_full_replay_and_tracks_state() {
        let buf = scoped_workload(14_321);
        let mut full = VecSink::new();
        buf.replay(&mut full);
        for chunk in [1u64, 97, 777, 10_000, u64::MAX] {
            let mut stitched = VecSink::new();
            let mut state = SegmentState::default();
            while state.event < buf.events() {
                let to = state.event.saturating_add(chunk);
                buf.replay_advance(&mut state, to, &mut stitched);
                assert_eq!(
                    state,
                    buf.state_at(to.min(buf.events())),
                    "state after advancing to {to} by chunks of {chunk}"
                );
            }
            assert_eq!(stitched.events, full.events, "chunk = {chunk}");
            // Advancing past the end is a no-op.
            let before = state.clone();
            buf.replay_advance(&mut state, u64::MAX, &mut stitched);
            assert_eq!(state, before);
            assert_eq!(stitched.events, full.events);
        }
    }

    /// Like [`scoped_workload`] but scope-balanced, so the stream survives
    /// the checked decoder (`scoped_workload` can leave an inner scope
    /// open when `n` lands mid-group — harmless for replay, rightly
    /// rejected by [`TraceBuffer::import`]).
    fn balanced_workload(n: u64) -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        buf.enter(ScopeId(1));
        let mut open = None;
        for i in 0..n {
            if i % 97 == 0 {
                let s = ScopeId(2 + (i % 3) as u32);
                buf.enter(s);
                open = Some(s);
            }
            let kind = if i % 3 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            buf.access(
                RefId((i % 5) as u32),
                0x1_0000 + (i * 24) % 4096 + (i / 11) * 64,
                8,
                kind,
            );
            if i % 97 == 96 {
                buf.exit(open.take().expect("group opened at i % 97 == 0"));
            }
        }
        if let Some(s) = open {
            buf.exit(s);
        }
        buf.exit(ScopeId(1));
        buf
    }

    #[test]
    fn export_import_round_trip_is_bit_identical() {
        let buf = balanced_workload(130_000);
        let imported = TraceBuffer::import(buf.export()).expect("clean image imports");
        assert_eq!(imported.last_addr, buf.last_addr);
        assert_eq!(imported.last_ref, buf.last_ref);
        let mut original = VecSink::new();
        buf.replay(&mut original);
        let mut replayed = VecSink::new();
        imported.replay(&mut replayed);
        assert_eq!(original, replayed);
        for parts in [2u64, 3, 8] {
            for b in boundaries(&buf, parts) {
                assert_eq!(imported.state_at(b), buf.state_at(b), "event {b}");
            }
        }
        // The borrowed view is what export clones, in image order.
        let e = buf.export();
        let cloned: [&[u8]; 5] = [
            &e.ops,
            &e.addr_bytes,
            &e.ref_bytes,
            &e.size_bytes,
            &e.scope_bytes,
        ];
        assert_eq!(buf.columns(), cloned);
        assert_eq!(buf.scope_events(), e.scope_events);
        // Empty buffers round-trip too.
        let empty = TraceBuffer::import(TraceBuffer::new().export()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn import_rejects_corrupt_and_inconsistent_images() {
        let buf = balanced_workload(3_000);
        // Declared access count disagreeing with the columns.
        let mut lying = buf.export();
        lying.accesses += 1;
        match TraceBuffer::import(lying).unwrap_err() {
            DecodeError::CountMismatch {
                what,
                declared,
                actual,
            } => {
                assert_eq!(what, "event");
                assert_eq!(declared, buf.events());
                assert_eq!(actual, buf.events() + 1);
            }
            other => panic!("unexpected error: {other}"),
        }
        // Counts that sum correctly but still disagree with the stream.
        let mut swapped = buf.export();
        swapped.accesses -= 1;
        swapped.scope_events += 1;
        match TraceBuffer::import(swapped).unwrap_err() {
            DecodeError::CountMismatch { what, .. } => assert_eq!(what, "access"),
            other => panic!("unexpected error: {other}"),
        }
        // A truncated column is caught by the checked decoder.
        let mut torn = buf.export();
        torn.addr_bytes.truncate(torn.addr_bytes.len() / 2);
        assert!(matches!(
            TraceBuffer::import(torn).unwrap_err(),
            DecodeError::Truncated { .. } | DecodeError::VarintOverflow { .. }
        ));
    }

    /// Bytes [`put_varint`] writes for `v`.
    fn varint_len(v: u64) -> usize {
        (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
    }

    #[test]
    fn varint_round_trips_across_magnitudes() {
        let mut bytes = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let before = bytes.len();
            put_varint(&mut bytes, v);
            assert_eq!(bytes.len() - before, varint_len(v), "{v}");
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&bytes, &mut pos), v);
        }
        assert_eq!(pos, bytes.len());
        for v in [-1i64, 0, 1, i64::MIN, i64::MAX, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
