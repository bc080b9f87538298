//! Checked decoding of [`ExportedTrace`](crate::ExportedTrace) images.
//!
//! A [`TraceBuffer`](crate::TraceBuffer) is well-formed by construction,
//! so [`replay`](crate::TraceBuffer::replay) indexes and shifts without
//! checks. The columns of an image that crossed a process or file boundary
//! are checked exactly once, by [`import`](crate::TraceBuffer::import),
//! through the reader defined here: every malformation becomes a
//! [`DecodeError`] with byte-offset diagnostics instead of a panic or a
//! silently wrong event stream.
//!
//! The checks cover, per event:
//!
//! * **truncation** — a column runs out of bytes mid-stream;
//! * **malformed varints** — a continuation chain longer than ten bytes or
//!   carrying payload bits past bit 63 (this is also how a corrupted
//!   address delta that cannot fit the 64-bit delta encoding surfaces);
//! * **field ranges** — reference ids and scope ids must fit `u32`, access
//!   sizes must fit `u32`;
//! * **scope balance** — every exit must match the innermost open enter,
//!   and every enter must be closed by end of stream;
//! * **count mismatches** — after the declared number of events, every
//!   column must be fully consumed (no trailing bytes) and the opcode
//!   column must hold exactly the declared number of 2-bit lanes.

use std::error::Error;
use std::fmt;

/// Which encoded column a [`DecodeError`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Column {
    /// The packed 2-bit opcode column.
    Ops,
    /// Zigzag-varint address deltas.
    Addr,
    /// Zigzag-varint reference-id deltas.
    Ref,
    /// Varint access sizes.
    Size,
    /// Varint scope ids.
    Scope,
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Column::Ops => "opcode",
            Column::Addr => "address",
            Column::Ref => "reference",
            Column::Size => "size",
            Column::Scope => "scope",
        })
    }
}

/// A malformation found while importing an [`ExportedTrace`](crate::ExportedTrace).
///
/// Every variant names the column and the byte offset (or event index)
/// where decoding stopped, so a corrupted capture can be located in the
/// encoded stream, not just rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A column ended before the declared event count was decoded.
    Truncated {
        /// Column that ran dry.
        column: Column,
        /// Byte offset (into that column) where the unfinished value began.
        offset: usize,
        /// Index of the event being decoded when the bytes ran out.
        event: u64,
    },
    /// A varint had more than ten continuation bytes or carried payload
    /// bits past bit 63 — including overflowed address deltas.
    VarintOverflow {
        /// Column containing the malformed varint.
        column: Column,
        /// Byte offset of the varint's first byte.
        offset: usize,
        /// Index of the event being decoded.
        event: u64,
    },
    /// Accumulated reference-id deltas left the `u32` range.
    RefOutOfRange {
        /// Index of the offending access event.
        event: u64,
        /// The out-of-range accumulated reference id.
        value: i64,
    },
    /// An access size did not fit `u32`.
    SizeOutOfRange {
        /// Index of the offending access event.
        event: u64,
        /// The decoded size.
        value: u64,
    },
    /// A scope id did not fit `u32`.
    ScopeOutOfRange {
        /// Index of the offending scope event.
        event: u64,
        /// The decoded scope id.
        value: u64,
    },
    /// A scope exit did not match the innermost open scope.
    UnbalancedExit {
        /// Index of the offending exit event.
        event: u64,
        /// Scope id the exit named.
        scope: u32,
        /// Innermost open scope, or `None` if no scope was open.
        expected: Option<u32>,
    },
    /// The stream ended with scopes still open.
    UnclosedScopes {
        /// How many enters were never exited.
        depth: usize,
    },
    /// A column held more bytes than the declared events consume.
    TrailingBytes {
        /// Column with leftover bytes.
        column: Column,
        /// Bytes actually consumed by decoding.
        consumed: usize,
        /// Total bytes the column holds.
        len: usize,
    },
    /// A declared count field did not match what decoding observed —
    /// an imported image whose header disagrees with its own columns.
    CountMismatch {
        /// Which count disagreed (`"access"` or `"event"`).
        what: &'static str,
        /// The count the image declared.
        declared: u64,
        /// The count decoding actually observed.
        actual: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                column,
                offset,
                event,
            } => write!(
                f,
                "{column} column truncated at byte {offset} (event {event})"
            ),
            DecodeError::VarintOverflow {
                column,
                offset,
                event,
            } => write!(
                f,
                "malformed varint in {column} column at byte {offset} (event {event})"
            ),
            DecodeError::RefOutOfRange { event, value } => {
                write!(f, "reference id {value} out of u32 range at event {event}")
            }
            DecodeError::SizeOutOfRange { event, value } => {
                write!(f, "access size {value} out of u32 range at event {event}")
            }
            DecodeError::ScopeOutOfRange { event, value } => {
                write!(f, "scope id {value} out of u32 range at event {event}")
            }
            DecodeError::UnbalancedExit {
                event,
                scope,
                expected,
            } => match expected {
                Some(top) => write!(
                    f,
                    "scope exit {scope} at event {event} does not match open scope {top}"
                ),
                None => write!(f, "scope exit {scope} at event {event} with no scope open"),
            },
            DecodeError::UnclosedScopes { depth } => {
                write!(f, "stream ended with {depth} scope(s) still open")
            }
            DecodeError::TrailingBytes {
                column,
                consumed,
                len,
            } => write!(
                f,
                "{column} column has {} trailing byte(s) ({consumed} consumed of {len})",
                len - consumed
            ),
            DecodeError::CountMismatch {
                what,
                declared,
                actual,
            } => write!(
                f,
                "declared {what} count {declared} does not match decoded {actual}"
            ),
        }
    }
}

impl Error for DecodeError {}

/// Reads one varint from `bytes` at `*pos`, rejecting truncated and
/// overlong encodings.
pub(crate) fn try_varint(
    bytes: &[u8],
    pos: &mut usize,
    column: Column,
    event: u64,
) -> Result<u64, DecodeError> {
    let start = *pos;
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(DecodeError::Truncated {
                column,
                offset: start,
                event,
            });
        };
        *pos += 1;
        if shift > 63 || (shift == 63 && (b & 0x7f) > 1) {
            return Err(DecodeError::VarintOverflow {
                column,
                offset: start,
                event,
            });
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_varint_accepts_valid_encodings() {
        let bytes = [0x00, 0x7f, 0x80, 0x01, 0xff, 0xff, 0x01];
        let mut pos = 0;
        assert_eq!(try_varint(&bytes, &mut pos, Column::Addr, 0), Ok(0));
        assert_eq!(try_varint(&bytes, &mut pos, Column::Addr, 1), Ok(127));
        assert_eq!(try_varint(&bytes, &mut pos, Column::Addr, 2), Ok(128));
        assert_eq!(try_varint(&bytes, &mut pos, Column::Addr, 3), Ok(0x7fff));
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn try_varint_accepts_u64_max() {
        // 9 continuation bytes + final byte 0x01: the canonical u64::MAX.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut pos = 0;
        assert_eq!(try_varint(&bytes, &mut pos, Column::Size, 0), Ok(u64::MAX));
    }

    #[test]
    fn try_varint_rejects_truncation() {
        let bytes = [0x80, 0x80];
        let mut pos = 0;
        assert_eq!(
            try_varint(&bytes, &mut pos, Column::Ref, 7),
            Err(DecodeError::Truncated {
                column: Column::Ref,
                offset: 0,
                event: 7
            })
        );
    }

    #[test]
    fn try_varint_rejects_overflow() {
        // Eleven continuation bytes.
        let bytes = [0x80; 11];
        let mut pos = 0;
        assert!(matches!(
            try_varint(&bytes, &mut pos, Column::Addr, 3),
            Err(DecodeError::VarintOverflow {
                column: Column::Addr,
                offset: 0,
                event: 3
            })
        ));
        // Tenth byte carrying bits past bit 63.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut pos = 0;
        assert!(matches!(
            try_varint(&bytes, &mut pos, Column::Addr, 0),
            Err(DecodeError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn errors_display_offsets_and_columns() {
        let e = DecodeError::Truncated {
            column: Column::Scope,
            offset: 12,
            event: 9,
        };
        let s = e.to_string();
        assert!(s.contains("scope"), "{s}");
        assert!(s.contains("12"), "{s}");
        assert!(s.contains("9"), "{s}");
        let t = DecodeError::TrailingBytes {
            column: Column::Size,
            consumed: 3,
            len: 5,
        }
        .to_string();
        assert!(t.contains("2 trailing"), "{t}");
    }
}
