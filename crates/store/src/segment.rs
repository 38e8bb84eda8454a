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
//! [`crc32`] is the one checksum routine under every WAL record, journal
//! compaction, Analyser snapshot and `drams-net` frame; it computes the
//! IEEE value eight bytes per step (slice-by-8).
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

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"DRSG";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Size of the fixed segment header in bytes.
pub const HEADER_LEN: usize = 24;
/// Size of a record frame (length + checksum) in bytes.
pub const FRAME_LEN: usize = 8;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which is
/// what lets [`crc32`] fold eight input bytes per step (slice-by-8).
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// IEEE CRC-32 of `bytes`.
///
/// Slice-by-8: each step XORs the running CRC into the first four of
/// eight input bytes and looks every byte up in the table for its
/// distance from the end of the group (8 KiB of tables, no `unsafe`);
/// the < 8-byte tail goes a byte at a time. Polynomial, initial value
/// and final XOR are the IEEE ones, so the result is bit-for-bit that of
/// the byte-at-a-time loop.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut groups = bytes.chunks_exact(8);
    for g in &mut groups {
        let [a, b, c, d] = (crc ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]])).to_le_bytes();
        crc = CRC_TABLES[7][a as usize]
            ^ CRC_TABLES[6][b as usize]
            ^ CRC_TABLES[5][c as usize]
            ^ CRC_TABLES[4][d as usize]
            ^ CRC_TABLES[3][g[4] as usize]
            ^ CRC_TABLES[2][g[5] as usize]
            ^ CRC_TABLES[1][g[6] as usize]
            ^ CRC_TABLES[0][g[7] as usize];
    }
    for &b in groups.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

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

/// How a [`walk_frames`] pass ended short of the end of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDamage {
    /// The bytes end inside a frame or inside its payload.
    Truncated,
    /// The record at the walk's `valid_len` fails its checksum; its
    /// payload ends at byte `end`.
    Checksum {
        /// Offset one past the failing record's payload.
        end: usize,
    },
}

/// Where a [`walk_frames`] pass stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameWalk {
    /// Offset one past the last intact record (the walk's start when
    /// there is none).
    pub valid_len: usize,
    /// Intact records visited.
    pub records: u64,
    /// Why the walk stopped before the end of the bytes, if it did.
    pub damage: Option<FrameDamage>,
}

/// Walks the framed records of `bytes` from byte `start`, verifying each
/// checksum and lending each payload — a slice of `bytes`, not a copy —
/// to `visit` together with the offset of its frame. The walk stops at
/// the first damaged frame and reports it; what the damage means (a torn
/// tail to truncate, or corruption to refuse) is the caller's call.
///
/// # Errors
///
/// Only what `visit` returns.
pub fn walk_frames<'a>(
    bytes: &'a [u8],
    start: usize,
    mut visit: impl FnMut(usize, &'a [u8]) -> Result<(), StoreError>,
) -> Result<FrameWalk, StoreError> {
    let mut walk = FrameWalk {
        valid_len: start,
        records: 0,
        damage: None,
    };
    let mut rest = bytes.get(start..).unwrap_or_default();
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
        visit(walk.valid_len, payload)?;
        walk.valid_len = end;
        walk.records += 1;
        rest = after;
    }
    Ok(walk)
}

/// Scans a segment file's bytes: checks the header, then lends every
/// intact record to `visit` with the offset of its frame, separating
/// torn tails (recoverable) from mid-segment corruption (a typed error).
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
    visit: impl FnMut(usize, &'a [u8]) -> Result<(), StoreError>,
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
    let walk = walk_frames(bytes, HEADER_LEN, visit)?;
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
    use proptest::prelude::*;

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
        let (header, walk) = super::scan(file, bytes, |_, payload| {
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

    /// The CRC-32 definition itself, a bit at a time: reflected IEEE
    /// polynomial, all-ones initial value, inverted result. No table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_alignment() {
        let buffer: Vec<u8> = (0..72 + 8u32).map(|i| (i * 197 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=72 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "len {len} at offset {start}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_bitwise_reference_on_random_buffers(
            bytes in prop::collection::vec(any::<u8>(), 0..4097),
            start in 0usize..8,
        ) {
            let bytes = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
        }
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
