//! A trace decoded once, for replaying many times: [`DecodedTrace`].

use crate::buffer::{varint_len, zigzag, SegmentState, TraceBuffer, BATCH};
use crate::event::{NullSink, SoaBatch, TraceSink};
use reuselens_ir::{AccessKind, RefId, ScopeId};
use std::ops::Range;

/// Accesses between two saved column positions: the state after an
/// advance recomputes at most this many varint lengths.
const MARK: usize = 256;

/// One scope event of a [`DecodedTrace`].
#[derive(Debug, Clone, Copy)]
struct ScopeMark {
    /// Its index in the event stream.
    event: u64,
    scope: ScopeId,
    enter: bool,
}

/// The decoded form of a [`TraceBuffer`]: immutable, built by one replay
/// of the buffer ([`DecodedTrace::new`]), and replayed without decoding.
///
/// Replaying a [`TraceBuffer`] varint-decodes every event again, on every
/// lane of every replay. A process that replays the same trace over and
/// over (the analysis daemon) can instead decode it once into this form:
/// the reference, address, size and kind lanes of every access, plus each
/// scope event with its event index. Its replay copies the accesses
/// between two scope events into [`SoaBatch`] lanes, so it does no varint
/// work, and it delivers the very same events in the very same batches as
/// the buffer's. It has the buffer's step API
/// ([`replay_advance`](Self::replay_advance),
/// [`state_at`](Self::state_at)), and the [`SegmentState`]s it produces
/// equal the buffer's field for field, byte positions included.
///
/// The price is memory: 17 bytes per access and 16 per scope event,
/// roughly four times the encoded columns ([`bytes`](Self::bytes)).
#[derive(Debug)]
pub struct DecodedTrace {
    events: u64,
    refs: Vec<u32>,
    addrs: Vec<u64>,
    sizes: Vec<u32>,
    kinds: Vec<AccessKind>,
    scopes: Vec<ScopeMark>,
    /// Address, reference and size column positions of the encoded
    /// buffer before access `k * MARK`, for every `k` up to
    /// `accesses / MARK`.
    marks: Vec<[usize; 3]>,
}

impl DecodedTrace {
    /// Decodes `buffer` once, through its own replay. Counts nothing on
    /// the decode counters.
    pub fn new(buffer: &TraceBuffer) -> DecodedTrace {
        let accesses = buffer.accesses() as usize;
        let mut builder = Builder {
            trace: DecodedTrace {
                events: buffer.events(),
                refs: Vec::with_capacity(accesses),
                addrs: Vec::with_capacity(accesses),
                sizes: Vec::with_capacity(accesses),
                kinds: Vec::with_capacity(accesses),
                scopes: Vec::with_capacity(buffer.scope_events() as usize),
                marks: Vec::with_capacity(accesses / MARK + 1),
            },
            event: 0,
        };
        buffer.replay_advance(&mut SegmentState::default(), buffer.events(), &mut builder);
        let mut trace = builder.trace;
        let mut pos = [0; 3];
        trace.marks.push(pos);
        for k in (MARK..=trace.refs.len()).step_by(MARK) {
            pos = trace.column_bytes(pos, k - MARK..k);
            trace.marks.push(pos);
        }
        trace
    }

    /// Bytes the decoded form of `buffer` occupies, known before it is
    /// built: what [`bytes`](Self::bytes) of `DecodedTrace::new(buffer)`
    /// returns.
    pub fn size_for(buffer: &TraceBuffer) -> u64 {
        Self::size(buffer.accesses(), buffer.scope_events())
    }

    fn size(accesses: u64, scope_events: u64) -> u64 {
        let per_access = std::mem::size_of::<u32>() * 2
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<AccessKind>();
        accesses * per_access as u64
            + scope_events * std::mem::size_of::<ScopeMark>() as u64
            + (accesses / MARK as u64 + 1) * std::mem::size_of::<[usize; 3]>() as u64
    }

    /// Bytes the decoded lanes, scope events and column positions occupy.
    pub fn bytes(&self) -> u64 {
        Self::size(self.accesses(), self.scopes.len() as u64)
    }

    /// Total events (accesses and scope transitions).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Memory-access events.
    pub fn accesses(&self) -> u64 {
        self.refs.len() as u64
    }

    /// The replay state at one event boundary (clamped to the event
    /// count), equal to [`TraceBuffer::state_at`] on the buffer this was
    /// decoded from. It walks the scope events before the boundary and
    /// delivers nothing.
    pub fn state_at(&self, event: u64) -> SegmentState {
        let mut state = SegmentState::default();
        self.seek(&mut state, event);
        state
    }

    /// Advances `state` to `to_event` (clamped to the event count) like
    /// [`replay_advance`](Self::replay_advance), but delivers nothing: it
    /// walks only the scope events in between.
    pub fn seek(&self, state: &mut SegmentState, to_event: u64) {
        self.advance(state, to_event, None::<&mut NullSink>);
    }

    /// Replays the half-open event range `[state.event, to_event)` into
    /// `sink` and advances `state` to `to_event` (clamped to the event
    /// count), exactly as [`TraceBuffer::replay_advance`] does on the
    /// buffer this was decoded from: the same events, in the same
    /// [`SoaBatch`]es, leaving the same state. Counts nothing on the
    /// decode counters.
    pub fn replay_advance<S: TraceSink + ?Sized>(
        &self,
        state: &mut SegmentState,
        to_event: u64,
        sink: &mut S,
    ) {
        self.advance(state, to_event, Some(sink));
    }

    fn advance<S: TraceSink + ?Sized>(
        &self,
        state: &mut SegmentState,
        to_event: u64,
        mut sink: Option<&mut S>,
    ) {
        let to_event = to_event.min(self.events);
        if to_event <= state.event {
            return;
        }
        let mut batch = SoaBatch::with_capacity(if sink.is_some() { BATCH } else { 0 });
        let mut event = state.event;
        let mut access = state.accesses as usize;
        let mut next_scope = (state.event - state.accesses) as usize;
        loop {
            // The accesses up to the next scope event or `to_event`, in
            // the decoder's batches: `BATCH` at a time from the run's
            // start.
            let run_end = self
                .scopes
                .get(next_scope)
                .map_or(to_event, |m| m.event.min(to_event));
            let last = access + (run_end - event) as usize;
            if let Some(sink) = sink.as_deref_mut() {
                for start in (access..last).step_by(BATCH) {
                    let end = (start + BATCH).min(last);
                    batch.clear();
                    batch.refs.extend_from_slice(&self.refs[start..end]);
                    batch.addrs.extend_from_slice(&self.addrs[start..end]);
                    batch.sizes.extend_from_slice(&self.sizes[start..end]);
                    batch.kinds.extend_from_slice(&self.kinds[start..end]);
                    sink.access_soa(&batch);
                }
            }
            (event, access) = (run_end, last);
            if event == to_event {
                break;
            }
            let mark = self.scopes[next_scope];
            if mark.enter {
                if let Some(sink) = sink.as_deref_mut() {
                    sink.enter(mark.scope);
                }
                state.scopes.push((mark.scope, access as u64));
            } else {
                if let Some(sink) = sink.as_deref_mut() {
                    sink.exit(mark.scope);
                }
                state.scopes.pop();
            }
            state.scope_pos += varint_len(u64::from(mark.scope.0));
            next_scope += 1;
            event += 1;
        }
        state.event = to_event;
        state.accesses = access as u64;
        [state.addr_pos, state.ref_pos, state.size_pos] = self.positions(access);
        if access > 0 {
            (state.last_addr, state.last_ref) = (self.addrs[access - 1], self.refs[access - 1]);
        } else {
            (state.last_addr, state.last_ref) = (0, 0);
        }
    }

    /// The encoded buffer's address, reference and size column positions
    /// before access `k`: the nearest saved mark, plus the varint lengths
    /// of the accesses after it.
    fn positions(&self, k: usize) -> [usize; 3] {
        self.column_bytes(self.marks[k / MARK], k / MARK * MARK..k)
    }

    /// Column positions `pos` moved past the encoded address, reference
    /// and size varints of the accesses in `range`.
    fn column_bytes(&self, mut pos: [usize; 3], range: Range<usize>) -> [usize; 3] {
        for i in range {
            let (addr, r) = match i.checked_sub(1) {
                Some(prev) => (self.addrs[prev], self.refs[prev]),
                None => (0, 0),
            };
            pos[0] += varint_len(zigzag(self.addrs[i].wrapping_sub(addr) as i64));
            pos[1] += varint_len(zigzag(i64::from(self.refs[i]) - i64::from(r)));
            pos[2] += varint_len(u64::from(self.sizes[i]));
        }
        pos
    }
}

/// The sink [`DecodedTrace::new`] replays the buffer into.
struct Builder {
    trace: DecodedTrace,
    /// Index of the next event.
    event: u64,
}

impl Builder {
    fn scope(&mut self, scope: ScopeId, enter: bool) {
        self.trace.scopes.push(ScopeMark {
            event: self.event,
            scope,
            enter,
        });
        self.event += 1;
    }
}

impl TraceSink for Builder {
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        let t = &mut self.trace;
        t.refs.push(r.0);
        t.addrs.push(addr);
        t.sizes.push(size);
        t.kinds.push(kind);
        self.event += 1;
    }

    fn access_soa(&mut self, batch: &SoaBatch) {
        let t = &mut self.trace;
        t.refs.extend_from_slice(&batch.refs);
        t.addrs.extend_from_slice(&batch.addrs);
        t.sizes.extend_from_slice(&batch.sizes);
        t.kinds.extend_from_slice(&batch.kinds);
        self.event += batch.len() as u64;
    }

    fn enter(&mut self, scope: ScopeId) {
        self.scope(scope, true);
    }

    fn exit(&mut self, scope: ScopeId) {
        self.scope(scope, false);
    }
}
