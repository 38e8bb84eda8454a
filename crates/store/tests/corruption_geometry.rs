//! Corruption-geometry tests: every record boundary of a multi-segment
//! WAL is damaged in turn, and recovery must land on exactly one of two
//! outcomes — torn-tail truncation to the last intact record (damage at
//! the very end of the log) or a refusal to open with
//! [`StoreError::Corrupt`] pinpointing the failing frame (damage
//! anywhere else).
//!
//! The geometry is computed independently of the engine from the
//! documented on-disk format (24-byte segment header, 8-byte
//! length+CRC frame per record) and cross-checked against the real
//! files, so a drift in either the layout or the recovery state machine
//! shows up as an exact-offset mismatch rather than a vague failure.

use drams_store::backend::{Durability, FsBackend};
use drams_store::segment::{FRAME_LEN, HEADER_LEN};
use drams_store::wal::{segment_file_name, Wal, WalConfig};
use drams_store::StoreError;
use std::fs;
use std::path::{Path, PathBuf};

/// Records per segment in every test below.
const SEGMENT_RECORDS: usize = 4;
/// Total appended records: 4 + 4 + 2 → three segment files, the last
/// one partially filled.
const TOTAL_RECORDS: u64 = 10;

const CONFIG: WalConfig = WalConfig {
    segment_records: SEGMENT_RECORDS,
    durability: Durability::Flushed,
};

/// Deterministic per-record payload with varying lengths (3..=7 bytes)
/// so frame offsets are not multiples of a single record size.
fn payload(seq: u64) -> Vec<u8> {
    vec![0xA0 ^ seq as u8; (seq as usize % 5) + 3]
}

/// Where one record lives on disk.
struct RecordSite {
    seq: u64,
    file: String,
    /// Byte offset of the record's frame (length word) within its file.
    frame_offset: u64,
    payload_len: u64,
    /// Last record of its segment file.
    final_in_segment: bool,
    /// Lives in the last segment file of the log.
    final_segment: bool,
}

/// Computes the frame offset of every record purely from the documented
/// format constants — no engine involvement.
fn geometry() -> Vec<RecordSite> {
    let segment_count = (TOTAL_RECORDS as usize).div_ceil(SEGMENT_RECORDS);
    let mut sites = Vec::new();
    for seq in 0..TOTAL_RECORDS {
        let segment = seq as usize / SEGMENT_RECORDS;
        let first_seq = (segment * SEGMENT_RECORDS) as u64;
        let mut offset = HEADER_LEN as u64;
        for prior in first_seq..seq {
            offset += FRAME_LEN as u64 + payload(prior).len() as u64;
        }
        sites.push(RecordSite {
            seq,
            file: segment_file_name(segment as u64),
            frame_offset: offset,
            payload_len: payload(seq).len() as u64,
            final_in_segment: seq + 1 == TOTAL_RECORDS
                || ((seq + 1) as usize).is_multiple_of(SEGMENT_RECORDS),
            final_segment: segment + 1 == segment_count,
        });
    }
    sites
}

/// Builds the pristine three-segment log once and returns every segment
/// file's bytes, cross-checking the computed geometry against the real
/// file lengths.
fn pristine_files(scratch: &Path) -> Vec<(String, Vec<u8>)> {
    fs::remove_dir_all(scratch).ok();
    let backend = FsBackend::open(scratch).expect("scratch dir");
    let mut wal = Wal::open(Box::new(backend), CONFIG).expect("fresh log opens");
    for seq in 0..TOTAL_RECORDS {
        assert_eq!(wal.append(&payload(seq)).expect("append"), seq);
    }
    assert_eq!(wal.segment_count(), 3);
    drop(wal);

    let mut files = Vec::new();
    for segment in 0..3u64 {
        let name = segment_file_name(segment);
        let bytes = fs::read(scratch.join(&name)).expect("segment file exists");
        // The last record site of this file predicts the file length.
        let last = geometry()
            .into_iter()
            .rfind(|s| s.file == name)
            .expect("segment has records");
        assert_eq!(
            bytes.len() as u64,
            last.frame_offset + FRAME_LEN as u64 + last.payload_len,
            "computed geometry disagrees with {name}"
        );
        files.push((name, bytes));
    }
    files
}

/// A per-test scratch directory under the system temp dir.
fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "drams-corruption-geometry-{tag}-{}",
        std::process::id()
    ))
}

/// Restores the pristine file set into `dir`, wiping anything a prior
/// case wrote (including recovery-time truncations).
fn restore(dir: &Path, files: &[(String, Vec<u8>)]) {
    fs::remove_dir_all(dir).ok();
    fs::create_dir_all(dir).expect("create case dir");
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).expect("restore segment");
    }
}

fn flip_byte(dir: &Path, file: &str, offset: u64) {
    let path = dir.join(file);
    let mut bytes = fs::read(&path).expect("read for flip");
    bytes[offset as usize] ^= 0xFF;
    fs::write(&path, bytes).expect("write flipped");
}

fn open_wal(dir: &Path) -> Result<Wal, StoreError> {
    Wal::open(Box::new(FsBackend::open(dir)?), CONFIG)
}

fn expect_corrupt(result: Result<Wal, StoreError>, file: &str, offset: u64, context: &str) {
    match result {
        Err(StoreError::Corrupt {
            file: got_file,
            offset: got_offset,
            ..
        }) => {
            assert_eq!(got_file, file, "{context}: wrong file blamed");
            assert_eq!(got_offset, offset, "{context}: wrong offset blamed");
        }
        Err(other) => panic!("{context}: expected Corrupt, got {other:?}"),
        Ok(_) => panic!("{context}: expected Corrupt, log opened"),
    }
}

/// A CRC-breaking flip (checksum word or payload byte) at every record
/// of every segment: only the final record of the final segment may be
/// repaired by truncation; everywhere else the damage has intact data
/// after it, so recovery must refuse with the exact frame offset.
#[test]
fn crc_flip_at_every_record_boundary() {
    let scratch = test_dir("crc-master");
    let files = pristine_files(&scratch);
    let dir = test_dir("crc-case");
    for site in geometry() {
        let flips = [
            ("crc word", site.frame_offset + 4),
            ("first payload byte", site.frame_offset + FRAME_LEN as u64),
            (
                "last payload byte",
                site.frame_offset + FRAME_LEN as u64 + site.payload_len - 1,
            ),
        ];
        for (what, position) in flips {
            let context = format!("seq {} ({what} @ {position})", site.seq);
            restore(&dir, &files);
            flip_byte(&dir, &site.file, position);
            let result = open_wal(&dir);
            if site.final_in_segment && site.final_segment {
                let wal = result.unwrap_or_else(|e| panic!("{context}: open failed: {e:?}"));
                let replayed = wal.replay().expect("replay after truncation");
                assert_eq!(replayed.len() as u64, site.seq, "{context}: replay length");
                assert_eq!(wal.next_seq(), site.seq, "{context}: next_seq");
                // Truncated to exactly the damaged record's boundary.
                let len = fs::metadata(dir.join(&site.file)).expect("tail file").len();
                assert_eq!(len, site.frame_offset, "{context}: truncation point");
            } else {
                expect_corrupt(result, &site.file, site.frame_offset, &context);
            }
        }
    }
}

/// Flipping the high byte of a record's length word makes the frame
/// claim an absurd payload, so the scan sees an incomplete record: a
/// torn tail. In the final segment that truncates the damaged record
/// *and everything after it in that file*; in a sealed segment it is
/// mid-log damage and must refuse to open.
#[test]
fn length_field_flip_tears_the_tail_exactly() {
    let scratch = test_dir("len-master");
    let files = pristine_files(&scratch);
    let dir = test_dir("len-case");
    for site in geometry() {
        let context = format!("seq {} (length word)", site.seq);
        restore(&dir, &files);
        flip_byte(&dir, &site.file, site.frame_offset);
        let result = open_wal(&dir);
        if site.final_segment {
            let wal = result.unwrap_or_else(|e| panic!("{context}: open failed: {e:?}"));
            let replayed = wal.replay().expect("replay after truncation");
            assert_eq!(replayed.len() as u64, site.seq, "{context}: replay length");
            for (seq, bytes) in &replayed {
                assert_eq!(bytes, &payload(*seq), "{context}: surviving record {seq}");
            }
            let len = fs::metadata(dir.join(&site.file)).expect("tail file").len();
            assert_eq!(len, site.frame_offset, "{context}: truncation point");
            // The log keeps accepting appends from the truncated seq.
            let mut wal = wal;
            assert_eq!(wal.append(b"after-repair").expect("append"), site.seq);
        } else {
            expect_corrupt(result, &site.file, site.frame_offset, &context);
        }
    }
}

/// Header damage is never repairable, even on the tail segment: a bad
/// magic is blamed at offset 0 and a bad version at offset 4, exactly
/// as the format documents.
#[test]
fn header_flips_are_rejected_with_exact_offsets() {
    let scratch = test_dir("header-master");
    let files = pristine_files(&scratch);
    let dir = test_dir("header-case");
    for segment in 0..3u64 {
        let name = segment_file_name(segment);
        for (what, position, blamed) in [
            ("magic first byte", 0u64, 0u64),
            ("magic last byte", 3, 0),
            ("version high byte", 4, 4),
            ("version low byte", 7, 4),
        ] {
            let context = format!("{name} ({what})");
            restore(&dir, &files);
            flip_byte(&dir, &name, position);
            expect_corrupt(open_wal(&dir), &name, blamed, &context);
        }
    }
}

/// Cutting the tail segment anywhere — exactly on a record boundary or
/// mid-frame/mid-payload — recovers cleanly to the last intact record,
/// and the next append reuses the first lost sequence number.
#[test]
fn truncation_of_the_tail_segment_recovers_to_record_boundaries() {
    let scratch = test_dir("trunc-master");
    let files = pristine_files(&scratch);
    let dir = test_dir("trunc-case");
    for site in geometry().into_iter().filter(|s| s.final_segment) {
        let cuts = [
            ("exact boundary", site.frame_offset),
            ("inside frame", site.frame_offset + 1),
            ("after frame", site.frame_offset + FRAME_LEN as u64),
            (
                "one byte short",
                site.frame_offset + FRAME_LEN as u64 + site.payload_len - 1,
            ),
        ];
        for (what, cut) in cuts {
            let context = format!("seq {} ({what} @ {cut})", site.seq);
            restore(&dir, &files);
            let path = dir.join(&site.file);
            let mut bytes = fs::read(&path).expect("read tail");
            bytes.truncate(cut as usize);
            fs::write(&path, bytes).expect("write cut tail");
            let mut wal = open_wal(&dir).unwrap_or_else(|e| panic!("{context}: {e:?}"));
            let replayed = wal.replay().expect("replay");
            assert_eq!(replayed.len() as u64, site.seq, "{context}: replay length");
            assert_eq!(
                wal.append(b"resumed").expect("append"),
                site.seq,
                "{context}"
            );
        }
    }
}

/// A tail segment cut below the 24-byte header is a torn rotation: the
/// file is dropped entirely and the log resumes where the previous
/// segment ended. The same cut on a sealed segment is mid-log damage.
#[test]
fn headerless_segment_dropped_at_tail_rejected_mid_log() {
    let scratch = test_dir("headerless-master");
    let files = pristine_files(&scratch);
    let dir = test_dir("headerless-case");

    // Tail: seg-00000002.wal shrinks below its header → dropped.
    restore(&dir, &files);
    let tail = segment_file_name(2);
    let bytes = fs::read(dir.join(&tail)).expect("tail");
    fs::write(dir.join(&tail), &bytes[..HEADER_LEN - 14]).expect("cut header");
    let mut wal = open_wal(&dir).expect("headerless tail is repairable");
    assert_eq!(wal.segment_count(), 2);
    assert_eq!(wal.replay().expect("replay").len(), 2 * SEGMENT_RECORDS);
    // The next append recreates a tail segment and reuses seq 8.
    assert_eq!(wal.append(b"fresh tail").expect("append"), 8);
    assert_eq!(wal.segment_count(), 3);

    // Mid-log: the same cut on sealed seg-00000001.wal refuses to open,
    // blamed at the start of its valid prefix (nothing scanned).
    restore(&dir, &files);
    let sealed = segment_file_name(1);
    let bytes = fs::read(dir.join(&sealed)).expect("sealed");
    fs::write(dir.join(&sealed), &bytes[..HEADER_LEN - 14]).expect("cut header");
    expect_corrupt(open_wal(&dir), &sealed, 0, "headerless sealed segment");
}

/// Removing a whole interior segment breaks first_seq continuity; the
/// follower segment is blamed and the log refuses to open rather than
/// silently replaying with a hole.
#[test]
fn missing_interior_segment_breaks_continuity() {
    let scratch = test_dir("continuity-master");
    let files = pristine_files(&scratch);
    let dir = test_dir("continuity-case");
    restore(&dir, &files);
    fs::remove_file(dir.join(segment_file_name(1))).expect("drop interior segment");
    match open_wal(&dir) {
        Err(StoreError::Corrupt { file, reason, .. }) => {
            assert_eq!(file, segment_file_name(2));
            assert!(reason.contains("continuity"), "reason: {reason}");
        }
        other => panic!("expected continuity error, got {other:?}"),
    }
}
