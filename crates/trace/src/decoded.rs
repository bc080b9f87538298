//! A trace decoded once, for replaying many times: [`DecodedTrace`].

use crate::buffer::{Cursor, SegmentState, TraceBuffer};
use crate::event::TraceSink;
use crate::lanes::{Lanes, ScopeMark, StepSource, Stretch};
use reuselens_ir::AccessKind;

/// The decoded form of a [`TraceBuffer`]: immutable, built by one decode
/// of the whole buffer ([`DecodedTrace::new`]), and replayed without
/// decoding.
///
/// Replaying a [`TraceBuffer`] varint-decodes every event again, on every
/// lane of every replay. A process that replays the same trace over and
/// over (the analysis daemon) can instead decode it once into this form:
/// the reference, address, size and kind lanes of every access, plus each
/// scope event with its event index, the very lanes an encoded replay
/// decodes one step at a time. A [`StepSource`] built from it hands out
/// stretches of these lanes, so its replay does no varint work and
/// delivers the very same events in the very same batches as the
/// buffer's. It has the buffer's step API
/// ([`replay_advance`](Self::replay_advance),
/// [`state_at`](Self::state_at)), and the [`SegmentState`]s it produces
/// equal the buffer's.
///
/// The price is memory: 17 bytes per access and 16 per scope event,
/// roughly four times the encoded columns ([`bytes`](Self::bytes)).
#[derive(Debug)]
pub struct DecodedTrace {
    events: u64,
    lanes: Lanes,
}

impl DecodedTrace {
    /// Decodes `buffer` once, in one pass of the replay's decode loop.
    /// Counts nothing on the decode counters.
    pub fn new(buffer: &TraceBuffer) -> DecodedTrace {
        let mut lanes =
            Lanes::with_capacity(buffer.accesses() as usize, buffer.scope_events() as usize);
        buffer.fill(&mut Cursor::default(), 0..buffer.events(), &mut lanes);
        DecodedTrace {
            events: buffer.events(),
            lanes,
        }
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
        accesses * per_access as u64 + scope_events * std::mem::size_of::<ScopeMark>() as u64
    }

    /// Bytes the decoded lanes and scope events occupy.
    pub fn bytes(&self) -> u64 {
        Self::size(self.accesses(), self.lanes.scopes.len() as u64)
    }

    /// Total events (accesses and scope transitions).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Memory-access events.
    pub fn accesses(&self) -> u64 {
        self.lanes.refs.len() as u64
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
        StepSource::from(self).step(state, to_event);
    }

    /// Replays the half-open event range `[state.event, to_event)` into
    /// `sink` and advances `state` to `to_event` (clamped to the event
    /// count), exactly as [`TraceBuffer::replay_advance`] does on the
    /// buffer this was decoded from: the same events, in the same
    /// [`SoaBatch`](crate::SoaBatch)es, leaving the same state. Counts
    /// nothing on the decode counters.
    pub fn replay_advance<S: TraceSink + ?Sized>(
        &self,
        state: &mut SegmentState,
        to_event: u64,
        sink: &mut S,
    ) {
        StepSource::from(self).step(state, to_event).play(sink);
    }

    /// The stretch from `state` to `to_event` (clamped to the event
    /// count): a view of the lanes, decoding nothing.
    pub(crate) fn stretch(&self, state: &SegmentState, to_event: u64) -> Stretch<'_> {
        Stretch::new(
            &self.lanes,
            state.event,
            state.accesses as usize,
            (state.event - state.accesses) as usize,
            to_event.min(self.events),
        )
    }
}
