//! Decoder-hardening suite: `TraceBuffer::import` is the one place a
//! trace encoding is checked, so no corrupted, truncated or forged
//! [`ExportedTrace`] image may panic it — every malformed image must
//! surface as a structured [`DecodeError`], and every image it accepts
//! must replay without panicking. A clean image of a captured buffer
//! imports to a buffer that replays bit-identically to the original.
//!
//! All corruption is seeded through the deterministic fault-injection
//! harness (`reuselens_trace::fault`), so any failure here reproduces
//! from the constants in this file.

use reuselens_ir::{RefId, ScopeId};
use reuselens_prng::SplitMix64;
use reuselens_trace::fault::{truncations, Corruptor, PanickingSink};
use reuselens_trace::{Column, DecodeError, ExportedTrace, TraceBuffer, TraceSink, VecSink};

/// A small golden buffer with every event kind: nested scopes, accesses
/// from several references, forward and backward address deltas.
fn golden() -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    buf.enter(ScopeId(1));
    buf.enter(ScopeId(2));
    for i in 0..24u64 {
        // Alternate between two regions so address deltas change sign.
        let addr = if i % 2 == 0 {
            0x1_0000 + i * 8
        } else {
            0x9_0000 - i * 128
        };
        buf.access(RefId((i % 4) as u32), addr);
    }
    buf.exit(ScopeId(2));
    buf.enter(ScopeId(3));
    buf.access(RefId(0), 0x42);
    buf.exit(ScopeId(3));
    buf.exit(ScopeId(1));
    buf
}

/// A random balanced event stream, deterministic in the seed.
fn random_buffer(seed: u64, events: usize) -> TraceBuffer {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut buf = TraceBuffer::new();
    let mut open: Vec<u32> = Vec::new();
    for _ in 0..events {
        match rng.gen_range(0..10) {
            0 if open.len() < 8 => {
                let s = rng.gen_range(1..100) as u32;
                open.push(s);
                buf.enter(ScopeId(s));
            }
            1 if !open.is_empty() => {
                let s = open.pop().unwrap();
                buf.exit(ScopeId(s));
            }
            _ => {
                let r = RefId(rng.gen_range(0..16) as u32);
                let addr = rng.gen_range(0..1 << 40);
                buf.access(r, addr);
            }
        }
    }
    while let Some(s) = open.pop() {
        buf.exit(ScopeId(s));
    }
    buf
}

/// Asserts `import(export(buf))` succeeds and replays equal to `buf`.
fn assert_round_trip_replays_equal(buf: &TraceBuffer) {
    let mut original = VecSink::new();
    buf.replay(&mut original);
    let imported = TraceBuffer::import(buf.export()).expect("a captured buffer's image imports");
    let mut replayed = VecSink::new();
    imported.replay(&mut replayed);
    assert_eq!(original, replayed);
}

/// Imports `image`; when it is accepted, replays it to prove an accepted
/// image is safe for the unchecked replay loop.
fn import_and_replay(image: ExportedTrace) -> Result<(), DecodeError> {
    let buf = TraceBuffer::import(image)?;
    let mut sink = VecSink::new();
    buf.replay(&mut sink);
    assert_eq!(sink.events.len() as u64, buf.events());
    Ok(())
}

#[test]
fn round_trip_property_over_random_streams() {
    for seed in 0..32u64 {
        let buf = random_buffer(0xfau64 << 32 | seed, 400);
        assert_round_trip_replays_equal(&buf);
    }
}

#[test]
fn golden_buffer_round_trips() {
    assert_round_trip_replays_equal(&golden());
}

/// Truncation at *every* byte boundary of *every* column: always a
/// structured error, never a panic.
#[test]
fn every_truncation_errors_and_never_panics() {
    let cases = truncations(&golden().export());
    assert!(!cases.is_empty());
    for (i, cut) in cases.into_iter().enumerate() {
        assert!(
            TraceBuffer::import(cut).is_err(),
            "truncation case {i} imported"
        );
    }
}

/// Every single-bit flip of every byte of the four columns: import
/// errors or accepts, never panics, and an accepted image replays. A
/// flip that turns an enter's code into the unused fourth one is the
/// typed opcode error.
#[test]
fn every_bit_flip_imports_or_errors_cleanly() {
    let image = golden().export();
    let (mut flips, mut rejected, mut opcodes) = (0, 0, 0);
    for column in 0..4 {
        for byte in 0..columns_mut(&mut image.clone())[column].len() {
            for bit in 0..8 {
                let mut flipped = image.clone();
                columns_mut(&mut flipped)[column][byte] ^= 1 << bit;
                flips += 1;
                match import_and_replay(flipped) {
                    Ok(()) => {}
                    Err(DecodeError::UnknownOpcode { .. }) => {
                        rejected += 1;
                        opcodes += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    assert_eq!(flips, image.encoded_bytes() * 8);
    assert!(
        rejected > 0 && opcodes > 0,
        "{rejected} rejected, {opcodes} opcodes"
    );
}

/// The fourth 2-bit code, forged at each event of the golden image in
/// turn, is the typed opcode error naming that event.
#[test]
fn forged_fourth_opcode_names_its_event() {
    let image = golden().export();
    for event in 0..image.events {
        let mut forged = image.clone();
        forged.ops[(event / 4) as usize] |= 0b11 << ((event % 4) * 2);
        let err = TraceBuffer::import(forged).unwrap_err();
        assert_eq!(err, DecodeError::UnknownOpcode { event, op: 3 });
        assert!(err.to_string().contains(&format!("event {event}")), "{err}");
    }
}

/// The image's four columns, mutably, in image order.
fn columns_mut(image: &mut ExportedTrace) -> [&mut Vec<u8>; 4] {
    [
        &mut image.ops,
        &mut image.addr_bytes,
        &mut image.ref_bytes,
        &mut image.scope_bytes,
    ]
}

/// Seeded single-bit flips: import must never panic. A flip may still
/// yield a *different valid* stream (e.g. in an address byte), so the
/// assertion is "imports cleanly or errors cleanly", and an accepted
/// image must replay cleanly.
#[test]
fn seeded_bit_flips_never_panic() {
    let image = golden().export();
    let mut corr = Corruptor::new(0x0b17_f11b);
    let mut rejected = 0;
    for _ in 0..500 {
        if import_and_replay(corr.bit_flip(&image)).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "no single-bit flip was rejected");
}

/// Multi-bit flips over random buffers — denser corruption, same
/// guarantee.
#[test]
fn multi_bit_flips_on_random_buffers_never_panic() {
    for seed in 0..8u64 {
        let image = random_buffer(seed, 300).export();
        let mut corr = Corruptor::new(seed ^ 0xdead);
        for n in 1..6 {
            let _ = import_and_replay(corr.bit_flips(&image, n * 3));
        }
    }
}

#[test]
fn random_truncations_always_error() {
    let image = random_buffer(99, 500).export();
    let mut corr = Corruptor::new(7);
    for _ in 0..50 {
        assert!(TraceBuffer::import(corr.truncate(&image)).is_err());
    }
}

/// Claiming more events than are encoded is a count/payload mismatch:
/// the declared total no longer equals accesses plus scope events.
#[test]
fn inflated_event_count_is_rejected() {
    let image = golden().export();
    let mut corr = Corruptor::new(3);
    for extra in [1u64, 4, 1000] {
        let err = TraceBuffer::import(corr.inflate_events(&image, extra)).unwrap_err();
        assert_eq!(
            err,
            DecodeError::CountMismatch {
                what: "event",
                declared: image.events + extra,
                actual: image.events,
            },
            "{extra} phantom events"
        );
    }
}

/// A forged overlong varint (11 continuation bytes) in the address column.
#[test]
fn malformed_varint_is_rejected_with_column_and_offset() {
    let mut image = golden().export();
    image.addr_bytes = vec![0xff; 11];
    let err = TraceBuffer::import(image).unwrap_err();
    match err {
        DecodeError::VarintOverflow { column, offset, .. }
        | DecodeError::Truncated { column, offset, .. } => {
            assert_eq!(column, Column::Addr);
            assert!(offset <= 11);
        }
        other => panic!("unexpected error: {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("address"), "diagnostic lacks column: {msg}");
}

/// A varint that would overflow u64 (10th byte with high payload bits).
#[test]
fn varint_overflowing_u64_is_rejected() {
    let mut image = golden().export();
    // 9 continuation bytes then a final byte with payload > 1: decodes to
    // more than 64 bits.
    let mut bytes = vec![0x80u8; 9];
    bytes.push(0x7f);
    image.ref_bytes = bytes;
    let err = TraceBuffer::import(image).unwrap_err();
    assert!(
        matches!(
            err,
            DecodeError::VarintOverflow {
                column: Column::Ref,
                ..
            }
        ),
        "unexpected: {err}"
    );
}

/// Unbalanced scope events fed by hand: an exit for a scope that was
/// never entered, and an enter that is never closed.
#[test]
fn unbalanced_scopes_are_rejected() {
    let mut buf = TraceBuffer::new();
    buf.enter(ScopeId(1));
    buf.access(RefId(0), 0x100);
    buf.exit(ScopeId(2)); // mismatched
    buf.exit(ScopeId(1));
    let err = TraceBuffer::import(buf.export()).unwrap_err();
    assert!(
        matches!(err, DecodeError::UnbalancedExit { scope: 2, .. }),
        "unexpected: {err}"
    );

    let mut buf = TraceBuffer::new();
    buf.enter(ScopeId(1));
    buf.enter(ScopeId(2));
    buf.exit(ScopeId(2));
    let err = TraceBuffer::import(buf.export()).unwrap_err();
    assert!(
        matches!(err, DecodeError::UnclosedScopes { depth: 1 }),
        "unexpected: {err}"
    );
}

/// Bytes left over in a payload column after all declared events decoded.
#[test]
fn trailing_bytes_are_rejected() {
    for column in [Column::Addr, Column::Ref, Column::Scope] {
        let mut image = golden().export();
        match column {
            Column::Addr => image.addr_bytes.push(0x01),
            Column::Ref => image.ref_bytes.push(0x01),
            Column::Scope => image.scope_bytes.push(0x01),
            Column::Ops => unreachable!(),
        }
        let err = TraceBuffer::import(image).unwrap_err();
        assert!(
            matches!(err, DecodeError::TrailingBytes { column: c, .. } if c == column),
            "column {column:?}: unexpected error {err}"
        );
    }
}

/// An empty image is trivially valid.
#[test]
fn empty_buffer_validates() {
    let buf = TraceBuffer::import(ExportedTrace::default()).unwrap();
    assert!(buf.is_empty());
    let mut sink = VecSink::new();
    buf.replay(&mut sink);
    assert!(sink.events.is_empty());
}

/// A sink that panics mid-replay does not poison the shared buffer: the
/// buffer replays cleanly afterwards (it is never mutated by replay).
#[test]
fn sink_panic_does_not_poison_the_buffer() {
    let buf = golden();
    let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut hostile = PanickingSink::new(5);
        buf.replay(&mut hostile);
    }));
    assert!(hit.is_err(), "hostile sink must have panicked");
    assert_round_trip_replays_equal(&buf);
}

/// Truncating the address column mid-stream is reported against the
/// address column, at an event inside the declared stream.
#[test]
fn mid_stream_truncation_reports_column_and_position() {
    let mut image = golden().export();
    let keep = image.addr_bytes.len() / 2;
    image.addr_bytes.truncate(keep);
    let err = TraceBuffer::import(image.clone()).unwrap_err();
    match err {
        DecodeError::Truncated {
            column: Column::Addr,
            offset,
            event,
        }
        | DecodeError::VarintOverflow {
            column: Column::Addr,
            offset,
            event,
        } => {
            assert!(offset <= keep, "offset {offset} past the kept {keep} bytes");
            assert!(event < image.events, "event {event} outside the stream");
        }
        other => panic!("unexpected: {other}"),
    }
}

/// Error displays carry byte offsets and event indices for triage.
#[test]
fn error_display_carries_diagnostics() {
    let mut image = golden().export();
    image.addr_bytes.truncate(1);
    let err = TraceBuffer::import(image).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("address"), "{msg}");
    assert!(msg.contains("byte") || msg.contains("offset"), "{msg}");
}
