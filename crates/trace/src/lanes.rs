//! Decoded lanes, and the one fill-then-play loop every replay runs over
//! them ([`StepSource`]).

use crate::buffer::{Cursor, SegmentState, TraceBuffer, BATCH};
use crate::decoded::DecodedTrace;
use crate::event::{SoaBatch, TraceSink};
use reuselens_ir::{AccessKind, ScopeId};

/// Events an encoded [`StepSource`] decodes into its lanes per stretch:
/// one replay step, after which a replay lane publishes progress and
/// checks budgets (a checkpoint boundary ends a step sooner).
pub const STEP: u64 = 4096;

/// One scope event in decoded lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScopeMark {
    /// Its index in the event stream.
    pub(crate) event: u64,
    pub(crate) scope: ScopeId,
    pub(crate) enter: bool,
}

/// A stretch of the event stream in decoded form: the reference, address,
/// size and kind lanes of its accesses, plus each scope event with its
/// event index.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lanes {
    pub(crate) refs: Vec<u32>,
    pub(crate) addrs: Vec<u64>,
    pub(crate) sizes: Vec<u32>,
    pub(crate) kinds: Vec<AccessKind>,
    pub(crate) scopes: Vec<ScopeMark>,
}

impl Lanes {
    pub(crate) fn with_capacity(accesses: usize, scope_events: usize) -> Lanes {
        Lanes {
            refs: Vec::with_capacity(accesses),
            addrs: Vec::with_capacity(accesses),
            sizes: Vec::with_capacity(accesses),
            kinds: Vec::with_capacity(accesses),
            scopes: Vec::with_capacity(scope_events),
        }
    }

    fn clear(&mut self) {
        self.refs.clear();
        self.addrs.clear();
        self.sizes.clear();
        self.kinds.clear();
        self.scopes.clear();
    }
}

/// The events `[start, end)` of a trace in decoded lanes, ready to be
/// played into any number of sinks. Handed out by [`StepSource::step`].
#[derive(Debug, Clone, Copy)]
pub struct Stretch<'a> {
    lanes: &'a Lanes,
    /// The first event, the index of its first access in the lanes, and
    /// the index of the first scope event at or after it.
    event: u64,
    access: usize,
    scope: usize,
    end: u64,
}

impl<'a> Stretch<'a> {
    /// The stretch of `lanes` from `event` to `end`; `access` and `scope`
    /// index the first access and scope event at or after `event`.
    pub(crate) fn new(lanes: &'a Lanes, event: u64, access: usize, scope: usize, end: u64) -> Self {
        Stretch {
            lanes,
            event,
            access,
            scope,
            end: end.max(event),
        }
    }

    /// Plays the stretch into `sink`: its accesses in [`SoaBatch`]es,
    /// 256 at a time from the start of each run between scope
    /// events (or from the stretch's start), and an `enter` or `exit`
    /// call for each scope event.
    pub fn play<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let mut batch = SoaBatch::with_capacity(BATCH);
        self.play_into(&mut batch, sink);
        if !batch.is_empty() {
            sink.access_soa(&batch);
        }
    }

    /// [`play`](Self::play), continuing the run `batch` holds and leaving
    /// the last run's unfilled batch in it, so stretches played one after
    /// the other batch as one.
    pub(crate) fn play_into<S: TraceSink + ?Sized>(&self, batch: &mut SoaBatch, sink: &mut S) {
        let lanes = self.lanes;
        let (mut event, mut access, mut next_scope) = (self.event, self.access, self.scope);
        loop {
            let run_end = lanes
                .scopes
                .get(next_scope)
                .map_or(self.end, |m| m.event.min(self.end));
            let last = access + (run_end - event) as usize;
            while access < last {
                let take = (BATCH - batch.len()).min(last - access);
                let (a, b) = (access, access + take);
                batch.refs.extend_from_slice(&lanes.refs[a..b]);
                batch.addrs.extend_from_slice(&lanes.addrs[a..b]);
                batch.sizes.extend_from_slice(&lanes.sizes[a..b]);
                batch.kinds.extend_from_slice(&lanes.kinds[a..b]);
                access += take;
                if batch.len() == BATCH {
                    sink.access_soa(batch);
                    batch.clear();
                }
            }
            event = run_end;
            if event == self.end {
                return;
            }
            if !batch.is_empty() {
                sink.access_soa(batch);
                batch.clear();
            }
            let mark = lanes.scopes[next_scope];
            if mark.enter {
                sink.enter(mark.scope);
            } else {
                sink.exit(mark.scope);
            }
            next_scope += 1;
            event += 1;
        }
    }

    /// Moves `state`, which stands at the stretch's first event, to its
    /// end. It walks the scope events only.
    pub(crate) fn advance(&self, state: &mut SegmentState) {
        let mut scope_events = state.event - state.accesses;
        let marks = self.lanes.scopes[self.scope..]
            .iter()
            .take_while(|m| m.event < self.end);
        for mark in marks {
            if mark.enter {
                state.scopes.push((mark.scope, mark.event - scope_events));
            } else {
                state.scopes.pop();
            }
            scope_events += 1;
        }
        state.event = self.end;
        state.accesses = self.end - scope_events;
    }
}

/// A trace replayed stretch by stretch, whatever its form: the one feed
/// of every replay.
///
/// Each [`step`](Self::step) yields the next stretch of the replay,
/// decoded, and moves the replay's [`SegmentState`] past it; the caller
/// plays the stretch into each of its sinks. Built from a [`TraceBuffer`]
/// (`StepSource::from(&buffer)`), the source decodes each stretch, at
/// most [`STEP`] events, into lanes it reuses, and keeps its own byte
/// cursor into the encoded columns: a step or [`state_at`](Self::state_at)
/// at or after the cursor decodes forward from it, and one behind it
/// decodes from the trace's start. Built from a [`DecodedTrace`], it
/// decodes nothing: a stretch points into the decoded lanes and may be
/// as long as the trace. Both forms deliver the same calls and leave the
/// same states.
///
/// Cloning a fresh source is cheap; a replay that runs on several threads
/// gives each one a clone.
#[derive(Debug, Clone)]
pub struct StepSource<'t>(Form<'t>);

#[derive(Debug, Clone)]
enum Form<'t> {
    Encoded(Box<Encoded<'t>>),
    Decoded(&'t DecodedTrace),
}

/// An encoded source: the buffer, where its decoder stands and the replay
/// state there, and the lanes of the last stretch it decoded.
#[derive(Debug, Clone)]
struct Encoded<'t> {
    buffer: &'t TraceBuffer,
    cursor: Cursor,
    at: SegmentState,
    lanes: Lanes,
}

impl Encoded<'_> {
    /// Moves the decoder to `event` (clamped to the event count): forward
    /// from where it stands, or from the trace's start if `event` lies
    /// behind it.
    fn seek(&mut self, event: u64) {
        let event = event.min(self.buffer.events());
        if event < self.at.event {
            self.cursor = Cursor::default();
            self.at = SegmentState::default();
        }
        while self.at.event < event {
            self.fill(event);
        }
    }

    /// Decodes the events from where the decoder stands to `to`, or to
    /// [`STEP`] events on if that comes first, into the lanes.
    fn fill(&mut self, to: u64) -> Stretch<'_> {
        let from = self.at.event;
        let to = to.min(self.buffer.events()).min(from + STEP);
        self.lanes.clear();
        self.buffer
            .fill(&mut self.cursor, from..to, &mut self.lanes);
        let stretch = Stretch::new(&self.lanes, from, 0, 0, to);
        stretch.advance(&mut self.at);
        stretch
    }
}

impl<'t> From<&'t TraceBuffer> for StepSource<'t> {
    fn from(buffer: &'t TraceBuffer) -> Self {
        StepSource(Form::Encoded(Box::new(Encoded {
            buffer,
            cursor: Cursor::default(),
            at: SegmentState::default(),
            lanes: Lanes::default(),
        })))
    }
}

impl<'t> From<&'t DecodedTrace> for StepSource<'t> {
    fn from(decoded: &'t DecodedTrace) -> Self {
        StepSource(Form::Decoded(decoded))
    }
}

impl StepSource<'_> {
    /// Total events in the trace.
    pub fn events(&self) -> u64 {
        match &self.0 {
            Form::Encoded(e) => e.buffer.events(),
            Form::Decoded(d) => d.events(),
        }
    }

    /// The replay state at one event boundary (clamped to the event
    /// count). It delivers nothing and counts nothing on the decode
    /// counters.
    pub fn state_at(&mut self, event: u64) -> SegmentState {
        match &mut self.0 {
            Form::Encoded(e) => {
                e.seek(event);
                e.at.clone()
            }
            Form::Decoded(d) => d.state_at(event),
        }
    }

    /// The next stretch of a replay that stands at `state`: the events
    /// from `state.event` to `to` (clamped to the event count), or to
    /// [`STEP`] events on if an encoded source reaches that first.
    /// `state` is moved to the stretch's end, so a caller that needs
    /// every event up to `to` steps until `state.event` reaches it.
    /// Counts nothing on the decode counters.
    pub fn step(&mut self, state: &mut SegmentState, to: u64) -> Stretch<'_> {
        let stretch = match &mut self.0 {
            Form::Encoded(e) => {
                e.seek(state.event);
                e.fill(to)
            }
            Form::Decoded(d) => d.stretch(state, to),
        };
        stretch.advance(state);
        stretch
    }
}
