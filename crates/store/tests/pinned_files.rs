//! Files written before `crc32` went slice-by-8 must still open and
//! verify, and the same records must still produce the same bytes.
//!
//! `fixtures/parent-seg-00000000.wal` and `fixtures/parent-snapshot.snap`
//! were written by commit 481739f (byte-at-a-time CRC) through
//! `Wal::append` and `SnapshotStore::save` on an `FsBackend`, with the
//! payloads [`payload`] below. They are data, not expectations to
//! re-pin: if one stops verifying, the checksum changed.

use drams_store::backend::{Backend, Durability, FsBackend, MemBackend};
use drams_store::wal::{segment_file_name, SnapshotStore, Wal, WalConfig, SNAPSHOT_FILE};

const PARENT_SEGMENT: &[u8] = include_bytes!("fixtures/parent-seg-00000000.wal");
const PARENT_SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-snapshot.snap");

/// Record lengths on both sides of the eight-byte CRC step.
const RECORD_LENS: [usize; 9] = [0, 1, 7, 8, 9, 23, 64, 100, 257];
const SNAPSHOT_SEQ: u64 = 41;

const CONFIG: WalConfig = WalConfig {
    segment_records: 64,
    durability: Durability::Flushed,
};

fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (j * 31 + i * 17 + 5) as u8).collect()
}

fn snapshot_payload() -> Vec<u8> {
    payload(99, 300)
}

fn records() -> Vec<(u64, Vec<u8>)> {
    RECORD_LENS
        .iter()
        .enumerate()
        .map(|(i, &len)| (i as u64, payload(i, len)))
        .collect()
}

#[test]
fn wal_segment_written_by_the_parent_opens_and_verifies() {
    let mut backend = MemBackend::new();
    backend
        .write_atomic(&segment_file_name(0), PARENT_SEGMENT)
        .unwrap();
    let wal = Wal::open(Box::new(backend), CONFIG).unwrap();
    assert_eq!(wal.replay().unwrap(), records());
    assert_eq!(wal.next_seq(), RECORD_LENS.len() as u64);
}

#[test]
fn snapshot_written_by_the_parent_loads_and_verifies() {
    let mut backend = MemBackend::new();
    backend
        .write_atomic(SNAPSHOT_FILE, PARENT_SNAPSHOT)
        .unwrap();
    let loaded = SnapshotStore::new(Box::new(backend)).load().unwrap();
    assert_eq!(loaded, Some((SNAPSHOT_SEQ, snapshot_payload())));
}

#[test]
fn the_same_records_still_produce_the_parents_bytes() {
    let dir = std::env::temp_dir().join(format!("drams-pinned-files-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs_backend = |sub: &str| Box::new(FsBackend::open(dir.join(sub)).unwrap());
    let mut wal = Wal::open(fs_backend("wal"), CONFIG).unwrap();
    for (_, record) in records() {
        wal.append(&record).unwrap();
    }
    wal.sync().unwrap();
    SnapshotStore::new(fs_backend("snap"))
        .save(SNAPSHOT_SEQ, &snapshot_payload())
        .unwrap();
    let segment = std::fs::read(dir.join("wal").join(segment_file_name(0))).unwrap();
    let snapshot = std::fs::read(dir.join("snap").join(SNAPSHOT_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(segment, PARENT_SEGMENT);
    assert_eq!(snapshot, PARENT_SNAPSHOT);
}
