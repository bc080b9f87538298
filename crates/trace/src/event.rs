//! The instrumentation event stream and sinks that consume it.
//!
//! The paper's tool rewrites a binary so that every memory operation and
//! every routine/loop entry and exit invokes an event handler. Here the
//! executor produces the identical stream; analyzers implement
//! [`TraceSink`] to play the role of the event handlers.

use reuselens_ir::{RefId, ScopeId};

/// One instrumentation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A memory access by static reference `r` at virtual address
    /// `addr`. The program says the rest: the reference's array (and so
    /// its element size) and whether it loads or stores.
    Access {
        /// The static reference performing the access.
        r: RefId,
        /// Virtual byte address accessed.
        addr: u64,
    },
    /// A routine or loop scope was entered.
    Enter(ScopeId),
    /// The matching scope was exited.
    Exit(ScopeId),
}

/// A run of consecutive decoded accesses in struct-of-arrays layout: one
/// contiguous lane per field instead of an array of per-event structs.
///
/// The [`TraceBuffer`](crate::TraceBuffer) encoder is columnar, so batch
/// decoding fills these lanes directly — no per-event struct is ever
/// materialized — and analyzers that override
/// [`TraceSink::access_soa`] can stream each lane independently (e.g.
/// shifting the whole address lane down to block numbers in one
/// vectorizable loop). Both lanes always have equal length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoaBatch {
    /// Static reference ids, one per access.
    pub refs: Vec<u32>,
    /// Virtual byte addresses, one per access.
    pub addrs: Vec<u64>,
}

impl SoaBatch {
    /// Creates an empty batch with capacity for `n` accesses per lane.
    pub fn with_capacity(n: usize) -> SoaBatch {
        SoaBatch {
            refs: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        }
    }

    /// Number of accesses in the batch.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when the batch holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Empties every lane, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.refs.clear();
        self.addrs.clear();
    }

    /// Appends one access to both lanes.
    #[inline]
    pub fn push(&mut self, r: u32, addr: u64) {
        self.refs.push(r);
        self.addrs.push(addr);
    }
}

/// Receives instrumentation events during execution.
///
/// Implementations are the moral equivalent of the paper's event-handler
/// routines: the reuse-distance analyzer, the cache simulator, or simple
/// collectors. Methods are infallible — analysis state is internal and
/// execution cannot fail on the consumer side.
pub trait TraceSink {
    /// Called for every memory access, in program order.
    fn access(&mut self, r: RefId, addr: u64);
    /// Called when a routine or loop scope is entered.
    fn enter(&mut self, scope: ScopeId);
    /// Called when a routine or loop scope is exited.
    fn exit(&mut self, scope: ScopeId);
    /// Called with a run of consecutive accesses (no scope transitions in
    /// between) in struct-of-arrays layout. Replay from a
    /// [`crate::TraceBuffer`] decodes straight into [`SoaBatch`] lanes and
    /// makes one virtual call per batch instead of per event; analyzers
    /// that can consume lanes override this. The default walks the lanes
    /// and forwards each access to [`access`](Self::access), in order.
    fn access_soa(&mut self, batch: &SoaBatch) {
        for (&r, &addr) in batch.refs.iter().zip(&batch.addrs) {
            self.access(RefId(r), addr);
        }
    }
}

/// A sink that discards all events (useful for measuring executor overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn access(&mut self, _r: RefId, _addr: u64) {}
    fn enter(&mut self, _scope: ScopeId) {}
    fn exit(&mut self, _scope: ScopeId) {}
    fn access_soa(&mut self, _batch: &SoaBatch) {}
}

/// A sink that records the full event stream in memory. Intended for tests
/// and small kernels; real analyses consume events online.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VecSink {
    /// The recorded events, in program order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Just the access events, in order.
    pub fn accesses(&self) -> impl Iterator<Item = (RefId, u64)> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Access { r, addr } => Some((*r, *addr)),
            _ => None,
        })
    }

    /// Just the accessed addresses, in order.
    pub fn addresses(&self) -> Vec<u64> {
        self.accesses().map(|(_, a)| a).collect()
    }
}

impl TraceSink for VecSink {
    fn access(&mut self, r: RefId, addr: u64) {
        self.events.push(Event::Access { r, addr });
    }
    fn enter(&mut self, scope: ScopeId) {
        self.events.push(Event::Enter(scope));
    }
    fn exit(&mut self, scope: ScopeId) {
        self.events.push(Event::Exit(scope));
    }
}

/// Fans one event stream out to two sinks (e.g. an analyzer and a cache
/// simulator sharing a single execution).
#[derive(Debug, Default)]
pub struct TeeSink<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A, B> TeeSink<A, B> {
    /// Creates a tee over two sinks.
    pub fn new(a: A, b: B) -> TeeSink<A, B> {
        TeeSink { a, b }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn access(&mut self, r: RefId, addr: u64) {
        self.a.access(r, addr);
        self.b.access(r, addr);
    }
    fn enter(&mut self, scope: ScopeId) {
        self.a.enter(scope);
        self.b.enter(scope);
    }
    fn exit(&mut self, scope: ScopeId) {
        self.a.exit(scope);
        self.b.exit(scope);
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        self.a.access_soa(batch);
        self.b.access_soa(batch);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn access(&mut self, r: RefId, addr: u64) {
        (**self).access(r, addr);
    }
    fn enter(&mut self, scope: ScopeId) {
        (**self).enter(scope);
    }
    fn exit(&mut self, scope: ScopeId) {
        (**self).exit(scope);
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        (**self).access_soa(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.enter(ScopeId(1));
        s.access(RefId(0), 0x100);
        s.exit(ScopeId(1));
        assert_eq!(
            s.events,
            vec![
                Event::Enter(ScopeId(1)),
                Event::Access {
                    r: RefId(0),
                    addr: 0x100
                },
                Event::Exit(ScopeId(1)),
            ]
        );
        assert_eq!(s.addresses(), vec![0x100]);
    }

    #[test]
    fn tee_duplicates_events() {
        let mut tee = TeeSink::new(VecSink::new(), VecSink::new());
        tee.access(RefId(1), 0x40);
        assert_eq!(tee.a.events, tee.b.events);
        assert_eq!(tee.a.events.len(), 1);
    }

    #[test]
    fn soa_default_forwards_every_lane_in_order() {
        let mut soa = SoaBatch::with_capacity(600);
        let mut want = VecSink::new();
        for i in 0..600u64 {
            soa.push((i % 7) as u32, 0x1000 + i * 16);
            want.access(RefId((i % 7) as u32), 0x1000 + i * 16);
        }
        // `VecSink` overrides only `access`, so it sees the default.
        let mut sink = VecSink::new();
        sink.access_soa(&soa);
        assert_eq!(sink, want);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed(sink: &mut impl TraceSink) {
            sink.enter(ScopeId(2));
        }
        let mut s = VecSink::new();
        feed(&mut &mut s);
        assert_eq!(s.events, vec![Event::Enter(ScopeId(2))]);
    }
}
