//! The length-prefixed frame codec: the lowest layer of the shard wire protocol.
//!
//! A frame is `[len: u32 LE][payload: len bytes]` — nothing else. Message semantics (type
//! bytes, field layouts, the handshake) live one layer up in [`crate::proto`]; this module
//! only moves opaque byte payloads across a pipe, with the two properties the coordinator
//! relies on:
//!
//! * **Structured failure.** A short read is [`FrameError::TruncatedHeader`] /
//!   [`FrameError::TruncatedPayload`], a declared length beyond [`MAX_FRAME_LEN`] is
//!   [`FrameError::Oversize`] (a corrupt or hostile length field must not trigger a
//!   multi-gigabyte allocation), and a clean end-of-stream *between* frames is the
//!   distinct [`FrameError::CleanEof`] — how shard death is told apart from a torn frame.
//! * **Atomic writes.** [`write_frame`] issues one buffered write plus flush, so
//!   concurrent writers serialized by a mutex (the worker's result/heartbeat threads)
//!   never interleave partial frames.
//!
//! The exact byte layout is documented in `docs/PROTOCOL.md` and pinned by the
//! doc-vs-constants test in `tests/protocol_doc.rs`.

use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a frame's declared payload length (64 MiB). Larger declarations are
/// rejected before any allocation: a corrupt length field fails fast instead of OOMing
/// the coordinator.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (0 header bytes read). For a worker
    /// pipe this means the process exited — the coordinator's death signal.
    CleanEof,
    /// The stream ended inside the 4-byte length header.
    TruncatedHeader {
        /// Header bytes that were read before the stream ended.
        got: usize,
    },
    /// The stream ended inside the payload.
    TruncatedPayload {
        /// Payload length the header declared.
        expected: u32,
        /// Payload bytes that were read before the stream ended.
        got: usize,
    },
    /// The header declared a payload larger than [`MAX_FRAME_LEN`].
    Oversize {
        /// The declared payload length.
        len: u32,
    },
    /// An underlying I/O error other than end-of-stream.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::CleanEof => write!(f, "stream closed on a frame boundary"),
            FrameError::TruncatedHeader { got } => {
                write!(f, "stream ended inside a frame header ({got}/4 bytes)")
            }
            FrameError::TruncatedPayload { expected, got } => {
                write!(f, "stream ended inside a frame payload ({got}/{expected} bytes)")
            }
            FrameError::Oversize { len } => {
                write!(f, "frame declares {len} payload bytes, over the {MAX_FRAME_LEN} cap")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write `payload` as one frame and flush. The frame is assembled into a single buffer
/// first so the underlying writer sees exactly one write call per frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64, "frame payload exceeds MAX_FRAME_LEN");
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame's payload, blocking until it is complete or the stream ends.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::CleanEof),
            Ok(0) => return Err(FrameError::TruncatedHeader { got }),
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::TruncatedPayload { expected: len, got }),
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xFF; 300]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xFF; 300]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::CleanEof)));
    }

    #[test]
    fn truncation_is_reported_where_it_happened() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        // Inside the header.
        let mut r = Cursor::new(&buf[..2]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::TruncatedHeader { got: 2 })));
        // Inside the payload.
        let mut r = Cursor::new(&buf[..7]);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedPayload { expected: 6, got: 3 })
        ));
    }

    #[test]
    fn oversize_declarations_are_rejected_without_allocating() {
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, FrameError::Oversize { .. }));
    }
}
