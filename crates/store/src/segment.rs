//! On-disk segment format: header, record framing, and the recovery scan.
//!
//! A segment file is a fixed header followed by a run of length-prefixed,
//! checksummed records:
//!
//! ```text
//! ┌──────────── segment header (24 bytes) ────────────┐
//! │ magic "DRSG" │ version u32 │ index u64 │ first_seq u64 │
//! ├──────────────────── record 0 ─────────────────────┤
//! │ len u32 │ crc32(payload) u32 │ payload (len bytes) │
//! ├──────────────────── record 1 ─────────────────────┤
//! │ …                                                  │
//! ```
//!
//! All integers are big-endian. The CRC is IEEE CRC-32 over the payload
//! bytes only (the length is implicitly covered: a corrupted length either
//! lands mid-payload, failing the CRC, or runs past EOF, failing framing).
//! [`crc32`] — a re-export of [`drams_crypto::crc32::crc32`], which
//! dispatches to a carry-less-multiplication kernel where the CPU has one
//! and to slice-by-8 where it does not — is the one checksum routine
//! under every WAL record, Analyser snapshot and `drams-net` frame.
//!
//! Recovery semantics ([`scan`]) distinguish two kinds of damage:
//!
//! * **Torn tail** — the damage is at the physical end of the file (an
//!   incomplete header, an incomplete record frame, or a checksum failure
//!   on the *final* record). This is what a crash mid-write produces; the
//!   scan reports the longest valid prefix and the caller truncates to it.
//! * **Mid-segment corruption** — a record fails its checksum but more
//!   bytes follow it. A crash cannot produce that shape, so it surfaces
//!   as [`StoreError::Corrupt`], never as a silent skip.

use crate::error::StoreError;
pub use drams_crypto::crc32::crc32;

/// Magic bytes opening every segment file.
const SEGMENT_MAGIC: [u8; 4] = *b"DRSG";
/// Current segment format version.
const SEGMENT_VERSION: u32 = 1;
/// Size of the fixed segment header in bytes.
pub const HEADER_LEN: usize = 24;
/// Size of a record frame (length + checksum) in bytes.
pub const FRAME_LEN: usize = 8;

/// The decoded fixed header of a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Monotone segment index within the log.
    pub index: u64,
    /// Global sequence number of the segment's first record.
    pub first_seq: u64,
}

impl SegmentHeader {
    /// Encodes the header.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..4].copy_from_slice(&SEGMENT_MAGIC);
        out[4..8].copy_from_slice(&SEGMENT_VERSION.to_be_bytes());
        out[8..16].copy_from_slice(&self.index.to_be_bytes());
        out[16..24].copy_from_slice(&self.first_seq.to_be_bytes());
        out
    }
}

/// Frames one record (length + checksum + payload) into `out`.
pub fn frame_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

/// How a [`scan`] ended short of the end of the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDamage {
    /// The bytes end inside a frame or inside its payload.
    Truncated,
    /// The record at the scan's `valid_len` fails its checksum; its
    /// payload ends at byte `end`.
    Checksum {
        /// Offset one past the failing record's payload.
        end: usize,
    },
}

/// Where a [`scan`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameWalk {
    /// Offset one past the last intact record (the end of the header
    /// when there is none).
    pub valid_len: usize,
    /// Intact records visited.
    pub records: u64,
    /// Why the scan stopped before the end of the bytes, if it did.
    pub damage: Option<FrameDamage>,
}

/// Scans a segment file's bytes: checks the header, then verifies each
/// record's checksum and lends every intact payload — a slice of
/// `bytes`, not a copy — to `visit`, separating torn tails (recoverable)
/// from mid-segment corruption (a typed error).
/// Damage at the physical end of the file — the torn-tail shapes — is
/// reported in the returned walk, whose `valid_len` is what the caller
/// truncates to. A file shorter than a header yields placeholder header
/// fields and a walk with `valid_len` 0.
///
/// `file` is used only for error reporting.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when the header is malformed on a non-empty,
/// non-torn file, or when a record fails its checksum with more bytes
/// following it; otherwise only what `visit` returns.
pub fn scan<'a>(
    file: &str,
    bytes: &'a [u8],
    mut visit: impl FnMut(&'a [u8]) -> Result<(), StoreError>,
) -> Result<(SegmentHeader, FrameWalk), StoreError> {
    let corrupt = |offset: usize, reason: String| StoreError::Corrupt {
        file: file.to_string(),
        offset: offset as u64,
        reason,
    };
    let Some((head, _)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        // An incomplete header can only be a torn creation; the caller
        // discards the file.
        let header = SegmentHeader {
            index: 0,
            first_seq: 0,
        };
        let walk = FrameWalk {
            valid_len: 0,
            records: 0,
            damage: (!bytes.is_empty()).then_some(FrameDamage::Truncated),
        };
        return Ok((header, walk));
    };
    if head[..4] != SEGMENT_MAGIC {
        return Err(corrupt(0, "bad segment magic".into()));
    }
    let version = u32::from_be_bytes(head[4..8].try_into().expect("4 bytes"));
    if version != SEGMENT_VERSION {
        return Err(corrupt(4, format!("unsupported segment version {version}")));
    }
    let header = SegmentHeader {
        index: u64::from_be_bytes(head[8..16].try_into().expect("8 bytes")),
        first_seq: u64::from_be_bytes(head[16..24].try_into().expect("8 bytes")),
    };
    let mut walk = FrameWalk {
        valid_len: HEADER_LEN,
        records: 0,
        damage: None,
    };
    let mut rest = &bytes[HEADER_LEN..];
    while !rest.is_empty() {
        let framed = rest.split_first_chunk::<4>().and_then(|(len, rest)| {
            let (crc, rest) = rest.split_first_chunk::<4>()?;
            let len = u32::from_be_bytes(*len) as usize;
            let (payload, rest) = rest.split_at_checked(len)?;
            Some((u32::from_be_bytes(*crc), payload, rest))
        });
        let Some((crc, payload, after)) = framed else {
            walk.damage = Some(FrameDamage::Truncated);
            break;
        };
        let end = walk.valid_len + FRAME_LEN + payload.len();
        if crc32(payload) != crc {
            walk.damage = Some(FrameDamage::Checksum { end });
            break;
        }
        visit(payload)?;
        walk.valid_len = end;
        walk.records += 1;
        rest = after;
    }
    if let Some(FrameDamage::Checksum { end }) = walk.damage {
        // A checksum failure on the final record is a torn write of the
        // payload after the frame reached the medium; with bytes after
        // it, it is not something a crash can produce.
        if end != bytes.len() {
            return Err(corrupt(
                walk.valid_len,
                format!(
                    "record {} fails its checksum with {} bytes following it",
                    walk.records,
                    bytes.len() - end
                ),
            ));
        }
    }
    Ok((header, walk))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a scan found, with the records copied out.
    #[derive(Debug)]
    struct ScanOutcome {
        header: SegmentHeader,
        records: Vec<Vec<u8>>,
        valid_len: u64,
        torn_tail: bool,
    }

    fn scan(file: &str, bytes: &[u8]) -> Result<ScanOutcome, StoreError> {
        let mut records = Vec::new();
        let (header, walk) = super::scan(file, bytes, |payload| {
            records.push(payload.to_vec());
            Ok(())
        })?;
        Ok(ScanOutcome {
            header,
            records,
            valid_len: walk.valid_len as u64,
            torn_tail: walk.damage.is_some(),
        })
    }

    fn segment_with(records: &[&[u8]]) -> Vec<u8> {
        let mut bytes = SegmentHeader {
            index: 3,
            first_seq: 12,
        }
        .to_bytes()
        .to_vec();
        for r in records {
            frame_record(r, &mut bytes);
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn clean_segment_scans_fully() {
        let bytes = segment_with(&[b"alpha", b"", b"gamma"]);
        let out = scan("seg", &bytes).unwrap();
        assert_eq!(out.header.index, 3);
        assert_eq!(out.header.first_seq, 12);
        assert_eq!(
            out.records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]
        );
        assert_eq!(out.valid_len, bytes.len() as u64);
        assert!(!out.torn_tail);
    }

    #[test]
    fn empty_file_is_a_torn_creation() {
        let out = scan("seg", &[]).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.valid_len, 0);
        assert!(!out.torn_tail, "nothing to truncate in an empty file");
        // A partial header is torn.
        let out = scan("seg", &SEGMENT_MAGIC).unwrap();
        assert_eq!(out.valid_len, 0);
        assert!(out.torn_tail);
    }

    #[test]
    fn truncated_mid_record_tail_recovers_by_truncation() {
        let full = segment_with(&[b"alpha", b"beta"]);
        let intact = segment_with(&[b"alpha"]);
        // Cut anywhere inside the second record: frame, or payload.
        for cut in intact.len() + 1..full.len() {
            let out = scan("seg", &full[..cut]).unwrap();
            assert!(out.torn_tail, "cut at {cut}");
            assert_eq!(out.records, vec![b"alpha".to_vec()], "cut at {cut}");
            assert_eq!(out.valid_len, intact.len() as u64, "cut at {cut}");
        }
    }

    #[test]
    fn checksum_corruption_in_the_middle_is_a_typed_error() {
        let mut bytes = segment_with(&[b"alpha", b"beta"]);
        // Flip one payload byte of the *first* record.
        bytes[HEADER_LEN + FRAME_LEN] ^= 0x01;
        let err = scan("seg-x", &bytes).unwrap_err();
        match err {
            StoreError::Corrupt { file, offset, .. } => {
                assert_eq!(file, "seg-x");
                assert_eq!(offset, HEADER_LEN as u64);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn checksum_corruption_on_final_record_is_a_torn_tail() {
        let mut bytes = segment_with(&[b"alpha", b"beta"]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let out = scan("seg", &bytes).unwrap();
        assert!(out.torn_tail);
        assert_eq!(out.records, vec![b"alpha".to_vec()]);
    }

    #[test]
    fn bad_magic_and_version_are_corrupt() {
        let mut bytes = segment_with(&[b"alpha"]);
        bytes[0] = b'X';
        assert!(matches!(
            scan("seg", &bytes),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
        let mut bytes = segment_with(&[b"alpha"]);
        bytes[7] = 9; // version 9
        assert!(matches!(
            scan("seg", &bytes),
            Err(StoreError::Corrupt { offset: 4, .. })
        ));
    }
}
