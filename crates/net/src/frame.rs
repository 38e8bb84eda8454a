//! Byte-level wire framing: WAL-record framing around canonical-codec
//! frame bodies.
//!
//! The outer layout is exactly `drams_store::segment::frame_record` —
//!
//! ```text
//! len u32 BE | crc32(body) u32 BE | body
//! ```
//!
//! with the IEEE CRC-32 shared with the WAL, and the body is the
//! canonical encoding of [`WireFrame`] (magic, version, role, kind,
//! seq, delay, payload — see `drams_faas::transport`). The reader is an
//! incremental push-parser: bytes arrive in arbitrary splits (partial
//! socket reads), a frame is surfaced only once complete, and every
//! rejection is a typed [`TransportError`] — oversized length prefixes
//! are refused before any allocation, CRC mismatches before any decode.

use std::io::{self, Read};

use drams_crypto::codec::Decode;
use drams_faas::transport::{TransportError, WireFrame, MAX_FRAME_BODY};
use drams_store::segment::{crc32, frame_record};

/// Bytes of outer framing in front of every body (`len` + `crc`).
pub const FRAME_PREFIX: usize = 8;

/// The most bytes one end of a connection moves per read or write: a
/// transfer is bounded slices between two non-blocking ends, never a
/// bet on how much the kernel's socket buffers hold.
pub const SLICE: usize = 4 * 1024;

/// Encodes a frame into its full wire representation
/// (`len | crc | body`). Fails if the body would exceed
/// [`MAX_FRAME_BODY`].
pub fn frame_bytes(frame: &WireFrame) -> Result<Vec<u8>, TransportError> {
    use drams_crypto::codec::Encode;
    let body = frame.to_canonical_bytes();
    if body.len() > MAX_FRAME_BODY {
        return Err(TransportError::Oversized {
            len: body.len() as u64,
            max: MAX_FRAME_BODY as u64,
        });
    }
    let mut out = Vec::with_capacity(FRAME_PREFIX + body.len());
    frame_record(&body, &mut out);
    Ok(out)
}

/// An incremental frame parser over an arbitrarily-chunked byte stream.
///
/// Feed it whatever the socket produced — single bytes, torn frames,
/// several frames at once — and pull complete frames out. State between
/// calls is just the unconsumed buffer, so a frame torn across any
/// number of reads resumes exactly where it stopped.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// A reader with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly-received bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: drop consumed bytes before growing the tail.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Reads at most one [`SLICE`] from `r` into the parse buffer and
    /// returns how many bytes came (0 at EOF).
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let mut chunk = [0u8; SLICE];
        let n = r.read(&mut chunk)?;
        self.feed(&chunk[..n]);
        Ok(n)
    }

    /// Unconsumed bytes currently buffered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Tries to parse the next complete frame.
    ///
    /// `Ok(None)` means the buffer holds only a prefix of a frame (torn
    /// read) — feed more bytes and retry. Errors are permanent for the
    /// stream: an oversized length prefix or a CRC mismatch means the
    /// byte stream is corrupt and resynchronisation is impossible.
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, TransportError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_PREFIX {
            return Ok(None);
        }
        let len = u32::from_be_bytes(avail[0..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BODY {
            return Err(TransportError::Oversized {
                len: len as u64,
                max: MAX_FRAME_BODY as u64,
            });
        }
        if avail.len() < FRAME_PREFIX + len {
            return Ok(None);
        }
        let want_crc = u32::from_be_bytes(avail[4..8].try_into().expect("4 bytes"));
        let body = &avail[FRAME_PREFIX..FRAME_PREFIX + len];
        if crc32(body) != want_crc {
            return Err(TransportError::Corrupt(format!(
                "crc mismatch on {len}-byte body"
            )));
        }
        let frame = WireFrame::from_canonical_bytes(body)
            .map_err(|e| TransportError::Malformed(e.to_string()))?;
        self.pos += FRAME_PREFIX + len;
        Ok(Some(frame))
    }
}

/// Maps an `std::io::Error` into the transport's I/O-free error type.
/// Deadline expiries (`TimedOut`/`WouldBlock`) become the retryable
/// [`TransportError::TimedOut`].
#[must_use]
pub fn io_error(e: std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => TransportError::TimedOut,
        _ => TransportError::Io(e.to_string()),
    }
}

/// A non-blocking socket call's result, with "nothing yet"
/// (`WouldBlock`) as `Ok(None)`.
pub(crate) fn would_block<T>(result: io::Result<T>) -> io::Result<Option<T>> {
    match result {
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        other => other.map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_faas::transport::WireRole;

    fn sample(seq: u64) -> WireFrame {
        WireFrame {
            role: WireRole::Li { index: 2 },
            kind: 3,
            seq,
            delay: 750,
            payload: vec![0xab; 64],
        }
    }

    #[test]
    fn frame_survives_byte_at_a_time_feeding() {
        let bytes = frame_bytes(&sample(1)).expect("encode");
        let mut parser = FrameReader::new();
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(parser.next_frame().expect("no error"), None, "byte {i}");
            parser.feed(std::slice::from_ref(b));
        }
        assert_eq!(parser.next_frame().expect("complete"), Some(sample(1)));
        assert_eq!(parser.pending(), 0);
    }

    #[test]
    fn two_frames_in_one_feed_come_out_in_order() {
        let mut bytes = frame_bytes(&sample(1)).expect("encode");
        bytes.extend(frame_bytes(&sample(2)).expect("encode"));
        let mut parser = FrameReader::new();
        parser.feed(&bytes);
        assert_eq!(parser.next_frame().expect("first"), Some(sample(1)));
        assert_eq!(parser.next_frame().expect("second"), Some(sample(2)));
        assert_eq!(parser.next_frame().expect("drained"), None);
    }

    #[test]
    fn corrupt_crc_is_a_typed_error() {
        let mut bytes = frame_bytes(&sample(1)).expect("encode");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut parser = FrameReader::new();
        parser.feed(&bytes);
        assert!(matches!(
            parser.next_frame(),
            Err(TransportError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut parser = FrameReader::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0; 4]);
        parser.feed(&bytes);
        assert!(matches!(
            parser.next_frame(),
            Err(TransportError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_body_is_refused_at_encode_time() {
        let mut frame = sample(1);
        frame.payload = vec![0; MAX_FRAME_BODY + 1];
        assert!(matches!(
            frame_bytes(&frame),
            Err(TransportError::Oversized { .. })
        ));
    }
}
