//! Property suite: a [`DecodedTrace`] replays exactly as the
//! [`TraceBuffer`] it was decoded from.
//!
//! Seeded random streams (unbalanced ones included, as a hand-fed sink
//! may produce) and scope-rich balanced streams, each also round-tripped
//! through `export`/`import`, are cut at random step boundaries. Both
//! replays must deliver the same events in the same [`SoaBatch`]es and
//! leave the same [`SegmentState`] after every step, and `state_at` and
//! `seek` must agree with them at every cut. A third leg steps an encoded
//! [`StepSource`] over the same cuts: each stretch it fills must play as
//! both forms replay its events. A state made by either form must resume
//! a replay of the other.

use reuselens_ir::{AccessKind, RefId, ScopeId};
use reuselens_prng::SplitMix64;
use reuselens_trace::{
    DecodedTrace, SegmentState, SoaBatch, StepSource, TraceBuffer, TraceSink, STEP,
};

const CASES: u64 = 40;
const SEED: u64 = 0xdec0_ded0_0000;

/// One sink call, batches kept whole so their boundaries compare too.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Batch(SoaBatch),
    Enter(ScopeId),
    Exit(ScopeId),
}

#[derive(Default)]
struct Calls(Vec<Call>);

impl TraceSink for Calls {
    fn access(&mut self, _: RefId, _: u64, _: u32, _: AccessKind) {
        unreachable!("replay delivers accesses in batches");
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        self.0.push(Call::Batch(batch.clone()));
    }
    fn enter(&mut self, scope: ScopeId) {
        self.0.push(Call::Enter(scope));
    }
    fn exit(&mut self, scope: ScopeId) {
        self.0.push(Call::Exit(scope));
    }
}

fn access(buf: &mut TraceBuffer, rng: &mut SplitMix64, addr: &mut u64) {
    // Mostly unit strides, with jumps either way, huge deltas, far
    // reference ids and odd sizes so every varint length shows up.
    *addr = match rng.gen_range(0..10) {
        0 => rng.next_u64(),
        1 => addr.wrapping_sub(rng.gen_range(1..1 << 20)),
        2 => addr.wrapping_add(rng.gen_range(1..1 << 40)),
        _ => addr.wrapping_add(8),
    };
    let r = match rng.gen_range(0..8) {
        0 => rng.gen_range(0..u64::from(u32::MAX) + 1) as u32,
        _ => rng.gen_range(0..6) as u32,
    };
    let size = match rng.gen_range(0..8) {
        0 => rng.gen_range(0..u64::from(u32::MAX) + 1) as u32,
        _ => 8,
    };
    let kind = if rng.gen_range(0..3) == 0 {
        AccessKind::Store
    } else {
        AccessKind::Load
    };
    buf.access(RefId(r), *addr, size, kind);
}

/// A random stream whose scope events need not balance.
fn random_buffer(rng: &mut SplitMix64) -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    let mut addr = 0;
    for _ in 0..rng.gen_range(0..3000) {
        match rng.gen_range(0..40) {
            0 => buf.enter(ScopeId(rng.gen_range(0..1 << 32) as u32)),
            1 => buf.exit(ScopeId(rng.gen_range(0..300) as u32)),
            _ => access(&mut buf, rng, &mut addr),
        }
    }
    buf
}

/// A balanced stream of nested scopes: runs of accesses shorter and
/// longer than a batch, and stretches of scope events with no access
/// between them.
fn scope_rich_buffer(rng: &mut SplitMix64) -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    let mut open = Vec::new();
    let mut addr = 0x1000;
    for _ in 0..rng.gen_range(1..400) {
        match rng.gen_range(0..5) {
            0 | 1 if open.len() < 12 => {
                let scope = ScopeId(rng.gen_range(0..200) as u32);
                buf.enter(scope);
                open.push(scope);
            }
            2 => {
                if let Some(scope) = open.pop() {
                    buf.exit(scope);
                }
            }
            _ => {
                let run = match rng.gen_range(0..4) {
                    0 => rng.gen_range(256..700),
                    _ => rng.gen_range(0..40),
                };
                for _ in 0..run {
                    access(&mut buf, rng, &mut addr);
                }
            }
        }
    }
    while let Some(scope) = open.pop() {
        buf.exit(scope);
    }
    buf
}

/// Random step ends: empty steps, single events, about a batch, long
/// strides, every scope event, and one past the end.
fn cuts(rng: &mut SplitMix64, events: u64) -> Vec<u64> {
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < events {
        at += match rng.gen_range(0..6) {
            0 => 0,
            1 => 1,
            2 => rng.gen_range(200..300),
            3 => rng.gen_range(1..events + 1),
            _ => rng.gen_range(1..60),
        };
        cuts.push(at.min(events));
    }
    cuts.push(events + 1 + rng.gen_range(0..10));
    cuts
}

/// Replays `buffer` and its decoded form step by step over `cuts` and
/// checks every step, seek and state at each cut.
fn same_replay(buffer: &TraceBuffer, cuts: &[u64], what: &str) {
    let decoded = DecodedTrace::new(buffer);
    assert_eq!(decoded.events(), buffer.events(), "{what}");
    assert_eq!(decoded.accesses(), buffer.accesses(), "{what}");
    assert_eq!(decoded.bytes(), DecodedTrace::size_for(buffer), "{what}");
    let (mut from_buffer, mut from_decoded) = (SegmentState::default(), SegmentState::default());
    let mut seeked = SegmentState::default();
    for &cut in cuts {
        let (mut want, mut got) = (Calls::default(), Calls::default());
        buffer.replay_advance(&mut from_buffer, cut, &mut want);
        decoded.replay_advance(&mut from_decoded, cut, &mut got);
        assert_eq!(got.0, want.0, "{what}: calls up to event {cut}");
        assert_eq!(from_decoded, from_buffer, "{what}: state at event {cut}");
        decoded.seek(&mut seeked, cut);
        assert_eq!(seeked, from_buffer, "{what}: seek to event {cut}");
        assert_eq!(decoded.state_at(cut), buffer.state_at(cut), "{what}: {cut}");
        assert_eq!(decoded.state_at(cut), from_buffer, "{what}: {cut}");
    }
    // The encoded source's per-step fill over the same cuts: a cut more
    // than a step away takes several stretches, and each one plays as
    // both forms replay its events and leaves their state.
    let mut source = StepSource::from(buffer);
    let mut stepped = SegmentState::default();
    for &cut in cuts {
        loop {
            let (mut a, mut b) = (stepped.clone(), stepped.clone());
            let start = stepped.event;
            let mut got = Calls::default();
            source.step(&mut stepped, cut).play(&mut got);
            let (mut want, mut also) = (Calls::default(), Calls::default());
            buffer.replay_advance(&mut a, stepped.event, &mut want);
            decoded.replay_advance(&mut b, stepped.event, &mut also);
            let stretch = format!("{what}: stretch to event {}", stepped.event);
            assert!(stepped.event - start <= STEP, "{stretch}");
            assert_eq!(got.0, want.0, "{stretch}");
            assert_eq!(got.0, also.0, "{stretch}");
            assert_eq!(stepped, a, "{stretch}");
            assert_eq!(stepped, b, "{stretch}");
            if stepped.event >= cut.min(buffer.events()) {
                break;
            }
        }
    }
    // A whole replay in one step, from a state the other form produced.
    let mid = buffer.state_at(buffer.events() / 2);
    let (mut want, mut got) = (Calls::default(), Calls::default());
    let (mut a, mut b) = (mid.clone(), mid);
    buffer.replay_advance(&mut a, u64::MAX, &mut want);
    decoded.replay_advance(&mut b, u64::MAX, &mut got);
    assert_eq!(got.0, want.0, "{what}: second half");
    assert_eq!(a, b, "{what}: end state");
    // And the other way round: the decoded form's state resumes the
    // buffer's replay and an encoded source whose cursor stands elsewhere.
    let mid = decoded.state_at(buffer.events() / 3);
    let (mut want, mut got) = (Calls::default(), Calls::default());
    let (mut a, mut b) = (mid.clone(), mid.clone());
    decoded.replay_advance(&mut a, u64::MAX, &mut want);
    buffer.replay_advance(&mut b, u64::MAX, &mut got);
    assert_eq!(got.0, want.0, "{what}: last two thirds");
    assert_eq!(a, b, "{what}: end state from a decoded state");
    let (mut want, mut got) = (Calls::default(), Calls::default());
    let (mut a, mut b) = (mid.clone(), mid);
    decoded.replay_advance(&mut a, b.event + STEP, &mut want);
    source.step(&mut b, u64::MAX).play(&mut got);
    assert_eq!(got.0, want.0, "{what}: a step from a decoded state");
    assert_eq!(a, b, "{what}: state after a step from a decoded state");
}

#[test]
fn decoded_replay_matches_the_decoder_on_random_buffers() {
    let mut rng = SplitMix64::seed_from_u64(SEED);
    for case in 0..CASES {
        let buffer = random_buffer(&mut rng);
        let cuts = cuts(&mut rng, buffer.events());
        same_replay(&buffer, &cuts, &format!("random case {case}"));
    }
}

#[test]
fn decoded_replay_matches_the_decoder_on_scope_rich_and_imported_buffers() {
    let mut rng = SplitMix64::seed_from_u64(SEED ^ 0x5c0e);
    let mut scope_events = 0;
    for case in 0..CASES {
        let buffer = scope_rich_buffer(&mut rng);
        scope_events += buffer.scope_events();
        let cuts = cuts(&mut rng, buffer.events());
        same_replay(&buffer, &cuts, &format!("scope-rich case {case}"));
        let imported = TraceBuffer::import(buffer.export()).expect("a balanced stream imports");
        same_replay(&imported, &cuts, &format!("imported case {case}"));
    }
    assert!(
        scope_events > CASES * 50,
        "only {scope_events} scope events"
    );
}

#[test]
fn an_empty_buffer_decodes_to_an_empty_replay() {
    let buffer = TraceBuffer::new();
    same_replay(&buffer, &[0, 1], "empty");
    assert_eq!(DecodedTrace::new(&buffer).events(), 0);
}
