//! The write-ahead log and snapshot store.
//!
//! [`Wal`] manages a directory of segment files (format in
//! [`crate::segment`]): appends go to the tail segment, which rotates
//! every [`WalConfig::segment_records`] records; recovery on open repairs
//! torn tails by truncation and rejects mid-log corruption with a typed
//! error; [`Wal::prune_through`] deletes sealed segments made redundant
//! by a snapshot. A consumer whose compacted state only ever grows (the
//! chain node's journal, [`crate::persist`]) keeps it out of the
//! snapshot: [`Wal::append_fold`] extends an append-only **fold file** of
//! the same checksummed frames, and the snapshot shrinks to a manifest
//! naming how much of that file is committed.
//!
//! [`SnapshotStore`] holds one atomically-replaced,
//! checksummed snapshot — a consumer's compacted state plus the log
//! sequence number it covers — and, beside it, side records named by
//! generation for the slow-changing bulk a consumer does not want to
//! rewrite with every snapshot.
//!
//! # Recovery state machine (on [`Wal::open`])
//!
//! ```text
//!          ┌────────────┐ per segment file, in index order
//!          │ scan bytes │
//!          └─────┬──────┘
//!    ┌───────────┼──────────────────────┐
//!    ▼           ▼                      ▼
//!  clean    torn damage            mid-segment damage
//!    │           │                      │
//!    │     last file? ──no──────────────┤
//!    │           │ yes                  ▼
//!    │           ▼                Err(Corrupt)   (refuse to open)
//!    │     truncate to the
//!    │     valid prefix
//!    ▼           ▼
//!   accept records; check index/sequence continuity; tail reopens
//! ```
//!
//! # Example
//!
//! ```
//! use drams_store::backend::{Durability, MemBackend};
//! use drams_store::wal::{Wal, WalConfig};
//!
//! # fn main() -> Result<(), drams_store::StoreError> {
//! let config = WalConfig { segment_records: 2, durability: Durability::Flushed };
//! let mut wal = Wal::open(Box::new(MemBackend::new()), config)?;
//! for payload in [b"a".as_slice(), b"b", b"c"] {
//!     wal.append(payload)?;
//! }
//! let replayed = wal.replay()?;
//! assert_eq!(replayed.len(), 3);
//! assert_eq!(replayed[2], (2, b"c".to_vec()));
//! assert_eq!(wal.segment_count(), 2); // rotated after two records
//! # Ok(())
//! # }
//! ```

use crate::backend::{Backend, Durability};
use crate::error::StoreError;
use crate::segment::{frame_record, scan, walk_frames, SegmentHeader, HEADER_LEN};

/// Prefix of segment file names (`seg-00000000.wal`, …).
pub const SEGMENT_PREFIX: &str = "seg-";
/// Suffix of segment file names.
pub const SEGMENT_SUFFIX: &str = ".wal";
/// Name of the snapshot file a [`Wal`] (or [`SnapshotStore`]) manages.
pub const SNAPSHOT_FILE: &str = "snapshot.snap";
/// Name of the fold file a [`Wal`] manages (see [`Wal::append_fold`]).
pub const FOLD_FILE: &str = "journal.fold";
/// Prefix of the file names of a [`SnapshotStore`]'s generation records
/// (`snapshot-gen-00000001.snap`, …).
pub const GENERATION_PREFIX: &str = "snapshot-gen-";
/// Suffix of generation record file names.
pub const GENERATION_SUFFIX: &str = ".snap";

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DRSN";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Tuning knobs of a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Records per segment before the tail rotates.
    pub segment_records: usize,
    /// Whether appends are synced record-by-record
    /// ([`Durability::Flushed`]) or only on explicit [`Wal::sync`] and
    /// when a full segment rotates out of the tail
    /// ([`Durability::Buffered`]).
    pub durability: Durability,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_records: 1024,
            durability: Durability::Flushed,
        }
    }
}

/// In-memory index entry for one live segment file.
#[derive(Debug)]
struct SegInfo {
    index: u64,
    first_seq: u64,
    records: u64,
    /// `segment_file_name(index)`, formatted once when the segment is
    /// opened rather than on every append.
    name: String,
}

impl SegInfo {
    fn new(index: u64, first_seq: u64, records: u64) -> Self {
        SegInfo {
            index,
            first_seq,
            records,
            name: segment_file_name(index),
        }
    }
    fn end_seq(&self) -> u64 {
        self.first_seq + self.records
    }
}

/// The file name of segment `index`.
#[must_use]
pub fn segment_file_name(index: u64) -> String {
    format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}")
}

/// The file name of a [`SnapshotStore`]'s generation record.
#[must_use]
pub fn generation_file_name(generation: u64) -> String {
    format!("{GENERATION_PREFIX}{generation:08}{GENERATION_SUFFIX}")
}

/// A segmented, checksummed write-ahead log over a [`Backend`].
#[derive(Debug)]
pub struct Wal {
    backend: Box<dyn Backend>,
    config: WalConfig,
    segments: Vec<SegInfo>,
    next_seq: u64,
}

impl Wal {
    /// Opens (and recovers) a log from `backend`.
    ///
    /// Torn tails — an incomplete record, an incomplete header, or a
    /// checksum failure on the final record of the final segment — are
    /// repaired by truncating to the last intact record. Damage anywhere
    /// else refuses to open.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on mid-log corruption or broken segment
    /// continuity; [`StoreError::Io`] on backend failure.
    pub fn open(backend: Box<dyn Backend>, config: WalConfig) -> Result<Self, StoreError> {
        assert!(config.segment_records > 0, "segment capacity must be >= 1");
        let mut wal = Wal {
            backend,
            config,
            segments: Vec::new(),
            next_seq: 0,
        };
        wal.recover()?;
        Ok(wal)
    }

    fn recover(&mut self) -> Result<(), StoreError> {
        let names: Vec<String> = self
            .backend
            .list()
            .into_iter()
            .filter(|n| n.starts_with(SEGMENT_PREFIX) && n.ends_with(SEGMENT_SUFFIX))
            .collect();
        let mut segments: Vec<SegInfo> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let bytes = self.backend.read(name)?;
            let last = i + 1 == names.len();
            let (header, walk) = scan(name, &bytes, |_, _| Ok(()))?;
            if walk.damage.is_some() {
                if !last {
                    return Err(StoreError::Corrupt {
                        file: name.clone(),
                        offset: walk.valid_len as u64,
                        reason: "torn tail in a non-final segment".into(),
                    });
                }
                self.backend.truncate(name, walk.valid_len as u64)?;
            }
            if walk.valid_len < HEADER_LEN {
                // Header never made it to the medium: the segment was
                // created by a torn rotation. Only acceptable at the
                // very end of the log; drop the file entirely.
                if !last {
                    return Err(StoreError::Corrupt {
                        file: name.clone(),
                        offset: 0,
                        reason: "headerless segment before the end of the log".into(),
                    });
                }
                self.backend.remove(name)?;
                continue;
            }
            let info = SegInfo::new(header.index, header.first_seq, walk.records);
            if let Some(prev) = segments.last() {
                if info.index <= prev.index || info.first_seq != prev.end_seq() {
                    return Err(StoreError::Corrupt {
                        file: name.clone(),
                        offset: 0,
                        reason: format!(
                            "segment continuity broken: index {} first_seq {} after \
                             index {} ending at seq {}",
                            info.index,
                            info.first_seq,
                            prev.index,
                            prev.end_seq()
                        ),
                    });
                }
            }
            segments.push(info);
        }
        self.next_seq = segments.last().map_or(0, SegInfo::end_seq);
        self.segments = segments;
        Ok(())
    }

    /// The sequence number the next append will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The first sequence number still retained (later when pruned).
    #[must_use]
    pub fn first_retained_seq(&self) -> u64 {
        self.segments.first().map_or(self.next_seq, |s| s.first_seq)
    }

    /// Number of live segment files.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// True when no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first_retained_seq() == self.next_seq
    }

    /// Appends one record, rotating the tail segment when full. Returns
    /// the record's sequence number. Under [`Durability::Flushed`] the
    /// record is durable when this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let rotate = match self.segments.last() {
            None => true,
            Some(tail) => tail.records >= self.config.segment_records as u64,
        };
        if rotate {
            // `sync` reaches the tail only, so a segment leaves the tail
            // durable: under `Flushed` its last append synced it, under
            // `Buffered` nothing has — and a later `sync` would then
            // acknowledge records that a crash still loses, along with
            // the continuity the next open checks.
            if self.config.durability == Durability::Buffered {
                self.sync()?;
            }
            self.open_segment()?;
        }
        let tail = self.segments.last_mut().expect("tail ensured above");
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame_record(payload, &mut frame);
        self.backend.append(&tail.name, &frame)?;
        tail.records += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.config.durability == Durability::Flushed {
            self.backend.sync(&tail.name)?;
        }
        Ok(seq)
    }

    /// Starts a new, empty tail segment after the current one.
    fn open_segment(&mut self) -> Result<(), StoreError> {
        let index = self.segments.last().map_or(0, |s| s.index + 1);
        let info = SegInfo::new(index, self.next_seq, 0);
        let header = SegmentHeader {
            index,
            first_seq: self.next_seq,
        };
        self.backend.append(&info.name, &header.to_bytes())?;
        self.segments.push(info);
        Ok(())
    }

    /// Seals the tail segment: the records appended so far stay in sealed
    /// segments, which [`Wal::prune_through`] may delete, and later
    /// appends go to a fresh tail. Without this a snapshot covering the
    /// whole log still leaves the tail's bytes in place, to be read and
    /// checksummed again by every later replay. A tail with no records is
    /// left as it is.
    ///
    /// Both the old tail and the new header are synced whatever the
    /// [`Durability`]: once the sealed segments are pruned, the header of
    /// the new tail is the only durable trace of [`Wal::next_seq`], and a
    /// new tail that survived a crash its predecessor's last records did
    /// not would break the sequence continuity checked on open.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn seal_tail(&mut self) -> Result<(), StoreError> {
        if self.segments.last().is_some_and(|tail| tail.records > 0) {
            self.sync()?;
            self.open_segment()?;
            self.sync()?;
        }
        Ok(())
    }

    /// Forces buffered appends to durable storage (a no-op under
    /// [`Durability::Flushed`], where every append already synced).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(tail) = self.segments.last() {
            self.backend.sync(&tail.name)?;
        }
        Ok(())
    }

    /// Replays every retained record as `(seq, payload)` in order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if a segment was damaged since open.
    pub fn replay(&self) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.replay_from(0)
    }

    /// Replays retained records with `seq >= from_seq`.
    ///
    /// # Errors
    ///
    /// As [`Wal::replay`].
    pub fn replay_from(&self, from_seq: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        let mut out = Vec::new();
        self.visit_from(from_seq, |seq, payload| {
            out.push((seq, payload.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }

    /// [`Wal::replay_from`] without the copies: lends each retained
    /// record with `seq >= from_seq` to `visit`, in order, as a slice of
    /// the segment it was read from. An error from `visit` ends the walk
    /// and is returned.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if a segment was damaged since open — a
    /// record fails its checksum, or a segment no longer holds the
    /// records it held when it was indexed.
    pub fn visit_from(
        &self,
        from_seq: u64,
        mut visit: impl FnMut(u64, &[u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        for info in &self.segments {
            if info.end_seq() <= from_seq {
                continue;
            }
            let bytes = self.backend.read(&info.name)?;
            let mut seq = info.first_seq;
            let (_, walk) = scan(&info.name, &bytes, |_, payload| {
                let this = seq;
                seq += 1;
                if this >= from_seq {
                    visit(this, payload)?;
                }
                Ok(())
            })?;
            if walk.damage.is_some() || walk.records != info.records {
                return Err(StoreError::Corrupt {
                    file: info.name.clone(),
                    offset: walk.valid_len as u64,
                    reason: format!(
                        "segment holds {} intact records, {} were indexed",
                        walk.records, info.records
                    ),
                });
            }
        }
        Ok(())
    }

    /// Deletes sealed (non-tail) segments whose every record has
    /// `seq < upto_seq` — compaction after a snapshot covering those
    /// records. Returns how many segment files were removed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn prune_through(&mut self, upto_seq: u64) -> Result<usize, StoreError> {
        let sealed = self.segments.len().saturating_sub(1);
        let mut removed = 0;
        let mut outcome = Ok(());
        for info in &self.segments[..sealed] {
            if info.end_seq() > upto_seq {
                break;
            }
            // A failed removal leaves the index naming exactly the files
            // that remain.
            if let Err(e) = self.backend.remove(&info.name) {
                outcome = Err(e);
                break;
            }
            removed += 1;
        }
        self.segments.drain(..removed);
        outcome.map(|()| removed)
    }

    /// Writes this log's snapshot file atomically: `payload` plus the
    /// sequence number it covers (records with `seq < upto_seq` are
    /// folded into the snapshot). Typically followed by
    /// [`Wal::prune_through`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn write_snapshot(&mut self, upto_seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        write_snapshot_file(self.backend.as_mut(), SNAPSHOT_FILE, upto_seq, payload)
    }

    /// Reads this log's snapshot, if one was written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the snapshot fails its checksum.
    pub fn read_snapshot(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        read_snapshot_file(self.backend.as_ref(), SNAPSHOT_FILE)
    }

    /// Extends this log's fold file — the append-only home of compacted
    /// state that only ever grows — with `frames`, a run of records
    /// already framed by [`frame_record`], and syncs it. Returns the
    /// file's new length, which the caller commits by naming it in its
    /// next [`Wal::write_snapshot`].
    ///
    /// `committed_len` is the length the current snapshot names (0 when
    /// there is none). Bytes past it were appended by a compaction whose
    /// snapshot write never happened; they are cut off first.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the fold file is shorter than
    /// `committed_len`; [`StoreError::Io`] on backend failure.
    pub fn append_fold(&mut self, committed_len: u64, frames: &[u8]) -> Result<u64, StoreError> {
        let len = self.backend.len(FOLD_FILE)?.unwrap_or(0);
        if len < committed_len {
            return Err(short_fold(len, committed_len));
        }
        if len > committed_len {
            self.backend.truncate(FOLD_FILE, committed_len)?;
        }
        if !frames.is_empty() {
            self.backend.append(FOLD_FILE, frames)?;
            self.backend.sync(FOLD_FILE)?;
        }
        Ok(committed_len + frames.len() as u64)
    }

    /// Lends each record in the first `committed_len` bytes of the fold
    /// file to `visit`, in order, with the offset of its frame; bytes past
    /// `committed_len` are ignored (see [`Wal::append_fold`]). Returns the
    /// number of records visited. An error from `visit` ends the walk and
    /// is returned.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the file is shorter than
    /// `committed_len`, a record fails its checksum, or `committed_len`
    /// falls inside a record.
    pub fn visit_fold(
        &self,
        committed_len: u64,
        visit: impl FnMut(usize, &[u8]) -> Result<(), StoreError>,
    ) -> Result<u64, StoreError> {
        if committed_len == 0 {
            return Ok(0);
        }
        let bytes = match self.backend.read(FOLD_FILE) {
            Ok(bytes) => bytes,
            Err(StoreError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let committed = usize::try_from(committed_len)
            .ok()
            .and_then(|len| bytes.get(..len))
            .ok_or_else(|| short_fold(bytes.len() as u64, committed_len))?;
        let walk = walk_frames(committed, 0, visit)?;
        match walk.damage {
            None => Ok(walk.records),
            Some(damage) => Err(StoreError::Corrupt {
                file: FOLD_FILE.to_string(),
                offset: walk.valid_len as u64,
                reason: format!("fold record {} is damaged: {damage:?}", walk.records),
            }),
        }
    }

    /// Models a crash of the owning process: the backend drops whatever
    /// a power cut would lose, then the log re-runs open-time recovery
    /// (truncating any torn tail this produced).
    ///
    /// # Errors
    ///
    /// As [`Wal::open`].
    pub fn simulate_crash(&mut self) -> Result<(), StoreError> {
        self.backend.simulate_crash();
        self.recover()
    }
}

fn short_fold(len: u64, committed_len: u64) -> StoreError {
    StoreError::Corrupt {
        file: FOLD_FILE.to_string(),
        offset: len,
        reason: format!("fold file ends before its committed length {committed_len}"),
    }
}

/// Writes `name` atomically in the snapshot format: magic, version, the
/// caller's sequence number, payload length, payload CRC, payload.
fn write_snapshot_file(
    backend: &mut dyn Backend,
    name: &str,
    upto_seq: u64,
    payload: &[u8],
) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(24 + payload.len());
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_be_bytes());
    bytes.extend_from_slice(&upto_seq.to_be_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&crate::segment::crc32(payload).to_be_bytes());
    bytes.extend_from_slice(payload);
    backend.write_atomic(name, &bytes)
}

/// Reads and verifies a file written by [`write_snapshot_file`]; `None`
/// when it does not exist.
fn read_snapshot_file(
    backend: &dyn Backend,
    name: &str,
) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
    let bytes = match backend.read(name) {
        Ok(b) => b,
        Err(StoreError::NotFound(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    let corrupt = |offset: u64, reason: &str| StoreError::Corrupt {
        file: name.to_string(),
        offset,
        reason: reason.to_string(),
    };
    if bytes.len() < 24 {
        return Err(corrupt(0, "snapshot shorter than its header"));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(corrupt(0, "bad snapshot magic"));
    }
    let version = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(4, "unsupported snapshot version"));
    }
    let seq = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u32::from_be_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_be_bytes(bytes[20..24].try_into().expect("4 bytes"));
    if bytes.len() != 24 + len {
        return Err(corrupt(16, "snapshot length mismatch"));
    }
    let payload = &bytes[24..];
    if crate::segment::crc32(payload) != crc {
        return Err(corrupt(20, "snapshot checksum mismatch"));
    }
    Ok(Some((seq, payload.to_vec())))
}

/// A standalone checkpoint store on its own [`Backend`] — for consumers
/// (like the Analyser) whose durable state is a compact checkpoint rather
/// than a log.
///
/// It holds **one snapshot** ([`SnapshotStore::save`] /
/// [`SnapshotStore::load`], the file [`SNAPSHOT_FILE`]), atomically
/// replaced and checksummed, and beside it any number of **generation
/// records** ([`SnapshotStore::save_generation`] /
/// [`SnapshotStore::load_generation`], the files
/// [`generation_file_name`]) in the same checksummed format. The split is
/// for state with a small part that changes all the time and a large
/// part that rarely does: the large part goes into a generation record,
/// written only when it changed under the next unused generation number,
/// and the snapshot — written every time — names the generation it
/// belongs with. The snapshot write is then the commit point of the
/// pair: a crash before it leaves the old snapshot naming the old, still
/// present record; a crash after it leaves the new pair complete; and
/// [`SnapshotStore::prune_generations`], run after the commit and again
/// on recovery, removes whichever record the crash orphaned. Every write
/// replaces a whole file atomically, so no reader ever sees half a
/// record.
#[derive(Debug)]
pub struct SnapshotStore {
    backend: Box<dyn Backend>,
}

impl SnapshotStore {
    /// Creates a snapshot store over `backend`.
    #[must_use]
    pub fn new(backend: Box<dyn Backend>) -> Self {
        SnapshotStore { backend }
    }

    /// Atomically replaces the snapshot with `payload`, tagged with the
    /// consumer-defined sequence number `seq`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn save(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        write_snapshot_file(self.backend.as_mut(), SNAPSHOT_FILE, seq, payload)
    }

    /// Loads the snapshot, if any.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the snapshot fails its checksum.
    pub fn load(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        read_snapshot_file(self.backend.as_ref(), SNAPSHOT_FILE)
    }

    /// Atomically writes the generation record `generation` (replacing
    /// one of the same number, e.g. left by a write whose commit never
    /// happened).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn save_generation(&mut self, generation: u64, payload: &[u8]) -> Result<(), StoreError> {
        let name = generation_file_name(generation);
        write_snapshot_file(self.backend.as_mut(), &name, generation, payload)
    }

    /// Loads the generation record `generation`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when there is no such record;
    /// [`StoreError::Corrupt`] when it fails its length or checksum
    /// check, or was written as a different generation than its name
    /// says.
    pub fn load_generation(&self, generation: u64) -> Result<Vec<u8>, StoreError> {
        let name = generation_file_name(generation);
        match read_snapshot_file(self.backend.as_ref(), &name)? {
            None => Err(StoreError::NotFound(name)),
            Some((written_as, payload)) if written_as == generation => Ok(payload),
            Some((written_as, _)) => Err(StoreError::Corrupt {
                file: name,
                offset: 8,
                reason: format!("record was written as generation {written_as}"),
            }),
        }
    }

    /// Removes every generation record except `keep`; returns how many
    /// went. Called once the snapshot naming `keep` has landed, and on
    /// recovery, where it sweeps what a crash around that point orphaned.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn prune_generations(&mut self, keep: u64) -> Result<usize, StoreError> {
        let keep = generation_file_name(keep);
        let mut removed = 0;
        for name in self.backend.list() {
            let is_generation =
                name.starts_with(GENERATION_PREFIX) && name.ends_with(GENERATION_SUFFIX);
            if is_generation && name != keep {
                self.backend.remove(&name)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::segment::FRAME_LEN;

    fn mem_wal(segment_records: usize, durability: Durability) -> Wal {
        Wal::open(
            Box::new(MemBackend::new()),
            WalConfig {
                segment_records,
                durability,
            },
        )
        .unwrap()
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i}").into_bytes()
    }

    #[test]
    fn appends_assign_sequential_seqs_and_rotate() {
        let mut wal = mem_wal(3, Durability::Flushed);
        for i in 0..7 {
            assert_eq!(wal.append(&payload(i)).unwrap(), i);
        }
        assert_eq!(wal.segment_count(), 3);
        assert_eq!(wal.next_seq(), 7);
        let replayed = wal.replay().unwrap();
        assert_eq!(replayed.len(), 7);
        for (i, (seq, bytes)) in replayed.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*bytes, payload(i as u64));
        }
        assert_eq!(wal.replay_from(5).unwrap().len(), 2);
    }

    #[test]
    fn open_on_empty_backend_is_a_fresh_log() {
        let wal = mem_wal(4, Durability::Flushed);
        assert!(wal.is_empty());
        assert_eq!(wal.next_seq(), 0);
        assert_eq!(wal.segment_count(), 0);
        assert!(wal.replay().unwrap().is_empty());
        assert!(wal.read_snapshot().unwrap().is_none());
    }

    #[test]
    fn flushed_wal_survives_a_crash_intact() {
        let mut wal = mem_wal(4, Durability::Flushed);
        for i in 0..6 {
            wal.append(&payload(i)).unwrap();
        }
        wal.simulate_crash().unwrap();
        assert_eq!(wal.next_seq(), 6);
        assert_eq!(wal.replay().unwrap().len(), 6);
    }

    #[test]
    fn buffered_wal_loses_the_unsynced_tail_on_crash() {
        let mut wal = mem_wal(100, Durability::Buffered);
        for i in 0..4 {
            wal.append(&payload(i)).unwrap();
        }
        wal.sync().unwrap();
        for i in 4..9 {
            wal.append(&payload(i)).unwrap();
        }
        wal.simulate_crash().unwrap();
        assert_eq!(wal.next_seq(), 4, "unsynced records are gone");
        assert_eq!(wal.replay().unwrap().len(), 4);
        // The log keeps working after the truncation.
        assert_eq!(wal.append(&payload(100)).unwrap(), 4);
    }

    #[test]
    fn buffered_sync_covers_the_segments_rotated_out_since_the_last_one() {
        use crate::backend::FsBackend;
        let dir = std::env::temp_dir().join(format!("drams-wal-buffered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // One rotation, two rotations, and one rotation over real files
        // (whose crash loses nothing: that case shows the rotation sync
        // and the reopen working on a directory).
        let cases: [(Box<dyn Backend>, u64); 3] = [
            (Box::new(MemBackend::new()), 6),
            (Box::new(MemBackend::new()), 10),
            (Box::new(FsBackend::open(&dir).unwrap()), 6),
        ];
        for (backend, appended) in cases {
            let config = WalConfig {
                segment_records: 4,
                durability: Durability::Buffered,
            };
            let mut wal = Wal::open(backend, config).unwrap();
            for i in 0..appended {
                wal.append(&payload(i)).unwrap();
            }
            wal.sync().unwrap();
            wal.simulate_crash().unwrap();
            assert_eq!(wal.next_seq(), appended);
            assert_eq!(wal.replay().unwrap().len() as u64, appended);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_on_reopen_truncates_and_resumes() {
        // Write a segment's bytes directly, tearing the last 3 bytes off
        // the third record, as a crash mid-append would.
        let mut raw = MemBackend::new();
        let name = segment_file_name(0);
        let mut bytes = SegmentHeader {
            index: 0,
            first_seq: 0,
        }
        .to_bytes()
        .to_vec();
        for i in 0..3 {
            frame_record(&payload(i), &mut bytes);
        }
        raw.append(&name, &bytes[..bytes.len() - 3]).unwrap();
        raw.sync(&name).unwrap();
        let mut wal = Wal::open(Box::new(raw), WalConfig::default()).unwrap();
        assert_eq!(wal.next_seq(), 2, "torn third record truncated away");
        assert_eq!(wal.replay().unwrap().len(), 2);
        // The log resumes appending where the intact prefix ended.
        assert_eq!(wal.append(&payload(2)).unwrap(), 2);
        assert_eq!(wal.replay().unwrap().len(), 3);
    }

    #[test]
    fn mid_log_corruption_refuses_to_open() {
        let mut raw = MemBackend::new();
        let name = segment_file_name(0);
        let mut bytes = SegmentHeader {
            index: 0,
            first_seq: 0,
        }
        .to_bytes()
        .to_vec();
        for i in 0..3 {
            frame_record(&payload(i), &mut bytes);
        }
        bytes[HEADER_LEN + 9] ^= 0x40; // corrupt record 0's payload
        raw.append(&name, &bytes).unwrap();
        raw.sync(&name).unwrap();
        let err = Wal::open(Box::new(raw), WalConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn snapshot_at_segment_boundary_prunes_and_survives_crash_reopen() {
        let mut wal = mem_wal(4, Durability::Flushed);
        for i in 0..8 {
            wal.append(&payload(i)).unwrap();
        }
        assert_eq!(wal.segment_count(), 2);
        // Snapshot exactly at the segment boundary (seq 4 starts seg 1).
        wal.write_snapshot(4, b"state@4").unwrap();
        assert_eq!(wal.prune_through(4).unwrap(), 1);
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(wal.first_retained_seq(), 4);
        // Crash + recover: the reopened log starts mid-sequence.
        wal.simulate_crash().unwrap();
        let (snap_seq, snap) = wal.read_snapshot().unwrap().unwrap();
        assert_eq!(snap_seq, 4);
        assert_eq!(snap, b"state@4");
        let replayed = wal.replay_from(snap_seq).unwrap();
        assert_eq!(replayed.first().unwrap().0, 4);
        assert_eq!(replayed.len(), 4);
        // Appends continue with globally consistent sequence numbers.
        assert_eq!(wal.append(&payload(8)).unwrap(), 8);
    }

    #[test]
    fn prune_never_removes_the_tail_segment() {
        let mut wal = mem_wal(2, Durability::Flushed);
        for i in 0..6 {
            wal.append(&payload(i)).unwrap();
        }
        assert_eq!(wal.segment_count(), 3);
        // Everything is consumed, but the tail must survive to preserve
        // sequence continuity.
        assert_eq!(wal.prune_through(6).unwrap(), 2);
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(wal.next_seq(), 6);
        assert_eq!(wal.append(&payload(6)).unwrap(), 6);
    }

    #[test]
    fn sealed_tail_can_be_pruned_and_next_seq_survives_a_crash() {
        // Buffered: nothing is synced unless sealing does it.
        let mut wal = mem_wal(4, Durability::Buffered);
        wal.seal_tail().unwrap();
        assert_eq!(wal.segment_count(), 0, "nothing to seal in an empty log");
        for i in 0..6 {
            wal.append(&payload(i)).unwrap();
        }
        wal.seal_tail().unwrap();
        assert_eq!(wal.segment_count(), 3);
        wal.seal_tail().unwrap();
        assert_eq!(wal.segment_count(), 3, "an empty tail is left as it is");
        // Every record is now in a sealed segment and can go; the empty
        // tail carries the sequence across the crash.
        assert_eq!(wal.prune_through(6).unwrap(), 2);
        assert_eq!(wal.segment_count(), 1);
        assert!(wal.is_empty());
        wal.simulate_crash().unwrap();
        assert_eq!(wal.next_seq(), 6);
        assert_eq!(wal.append(&payload(6)).unwrap(), 6);
        assert_eq!(wal.segment_count(), 1, "appends reuse the fresh tail");
        // Sealed but not pruned: the sealed records were synced with it.
        wal.seal_tail().unwrap();
        wal.simulate_crash().unwrap();
        assert_eq!(wal.replay().unwrap(), vec![(6, payload(6))]);
    }

    #[test]
    fn visit_from_lends_what_replay_from_copies() {
        let mut wal = mem_wal(3, Durability::Flushed);
        for i in 0..8 {
            wal.append(&payload(i)).unwrap();
        }
        for from in [0, 2, 3, 7, 8, 9] {
            let mut visited = Vec::new();
            wal.visit_from(from, |seq, bytes| {
                visited.push((seq, bytes.to_vec()));
                Ok(())
            })
            .unwrap();
            assert_eq!(visited, wal.replay_from(from).unwrap(), "from {from}");
            assert_eq!(visited.len() as u64, 8u64.saturating_sub(from));
        }
        // The visitor's error ends the walk and comes back unchanged.
        let mut seen = 0;
        let stop = wal.visit_from(0, |seq, _| {
            seen += 1;
            if seq == 4 {
                return Err(StoreError::Codec("stop".into()));
            }
            Ok(())
        });
        assert_eq!(stop, Err(StoreError::Codec("stop".into())));
        assert_eq!(seen, 5);
    }

    #[test]
    fn a_segment_that_lost_records_since_open_is_corrupt_not_shorter() {
        use crate::backend::FsBackend;
        let dir = std::env::temp_dir().join(format!("drams-wal-visit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(
            Box::new(FsBackend::open(&dir).unwrap()),
            WalConfig::default(),
        )
        .unwrap();
        for i in 0..3 {
            wal.append(&payload(i)).unwrap();
        }
        // Behind the open log's back, the last record goes: the shape a
        // torn tail has at open, where it is truncated away — but this log
        // indexed three records and must not now replay two.
        let path = dir.join(segment_file_name(0));
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 2).unwrap();
        match wal.replay() {
            Err(StoreError::Corrupt { file, offset, .. }) => {
                assert_eq!(file, segment_file_name(0));
                assert_eq!(offset, len - (FRAME_LEN + payload(2).len()) as u64);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_prune_leaves_the_index_naming_the_files_that_remain() {
        use crate::backend::testing::FaultyBackend;
        let medium = FaultyBackend::default();
        let config = WalConfig {
            segment_records: 2,
            durability: Durability::Flushed,
        };
        let mut wal = Wal::open(Box::new(medium.clone()), config).unwrap();
        for i in 0..7 {
            wal.append(&payload(i)).unwrap();
        }
        medium.fail_after(1);
        assert!(matches!(wal.prune_through(7), Err(StoreError::Io(_))));
        // Segment 0 went, segment 1 did not: the log still replays from 2.
        assert_eq!(wal.segment_count(), 3);
        assert_eq!(wal.first_retained_seq(), 2);
        assert_eq!(wal.replay().unwrap().len(), 5);
    }

    #[test]
    fn fold_file_counts_as_far_as_the_committed_length() {
        let frames = |range: std::ops::Range<u64>| {
            let mut out = Vec::new();
            for i in range {
                frame_record(&payload(i), &mut out);
            }
            out
        };
        let visit = |wal: &Wal, committed: u64| {
            let mut seen = Vec::new();
            let count = wal.visit_fold(committed, |offset, bytes| {
                seen.push((offset, bytes.to_vec()));
                Ok(())
            })?;
            assert_eq!(count, seen.len() as u64);
            Ok::<_, StoreError>(seen)
        };
        let mut wal = mem_wal(4, Durability::Flushed);
        assert_eq!(
            visit(&wal, 0).unwrap(),
            vec![],
            "no file, nothing committed"
        );
        let first = wal.append_fold(0, &frames(0..2)).unwrap();
        assert_eq!(first, frames(0..2).len() as u64);
        // An append whose length was never committed...
        let abandoned = wal.append_fold(first, &frames(2..5)).unwrap();
        assert!(abandoned > first);
        assert_eq!(visit(&wal, first).unwrap().len(), 2, "...is not read...");
        // ...and is cut off by the next one.
        let second = wal.append_fold(first, &frames(7..8)).unwrap();
        let seen = visit(&wal, second).unwrap();
        let offsets: Vec<usize> = seen.iter().map(|(offset, _)| *offset).collect();
        assert_eq!(offsets, [0, frames(0..1).len(), first as usize]);
        assert_eq!(seen[2].1, payload(7));
        // It survives a crash (it was synced) and an empty append.
        wal.simulate_crash().unwrap();
        assert_eq!(wal.append_fold(second, &[]).unwrap(), second);
        assert_eq!(visit(&wal, second).unwrap(), seen);

        // A committed length the file does not reach, or that ends inside
        // a record, is corruption at the byte where the file gives out.
        for (committed, blamed) in [(second + 1, second), (second - 1, first)] {
            match visit(&wal, committed) {
                Err(StoreError::Corrupt { file, offset, .. }) => {
                    assert_eq!((file.as_str(), offset), (FOLD_FILE, blamed));
                }
                other => panic!("committed {committed}: {other:?}"),
            }
        }
        assert!(matches!(
            wal.append_fold(second + 1, &[]),
            Err(StoreError::Corrupt { offset, .. }) if offset == second
        ));
    }

    #[test]
    fn snapshot_store_round_trips_and_detects_corruption() {
        let mut store = SnapshotStore::new(Box::new(MemBackend::new()));
        assert!(store.load().unwrap().is_none());
        store.save(17, b"checkpoint").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), (17, b"checkpoint".to_vec()));
        store.save(18, b"newer").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), (18, b"newer".to_vec()));

        // Corrupting the payload surfaces as a typed error.
        let mut raw = MemBackend::new();
        write_snapshot_file(&mut raw, SNAPSHOT_FILE, 3, b"payload").unwrap();
        let mut bytes = raw.read(SNAPSHOT_FILE).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        raw.write_atomic(SNAPSHOT_FILE, &bytes).unwrap();
        let store = SnapshotStore::new(Box::new(raw));
        assert!(matches!(store.load(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn generation_records_round_trip_and_prune_beside_the_snapshot() {
        let mut raw = MemBackend::new();
        // A record copied under another generation's name is not that
        // generation.
        write_snapshot_file(&mut raw, &generation_file_name(9), 8, b"misfiled").unwrap();
        let mut store = SnapshotStore::new(Box::new(raw));
        assert!(matches!(
            store.load_generation(1),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            store.load_generation(9),
            Err(StoreError::Corrupt { .. })
        ));
        store.save_generation(1, b"history@1").unwrap();
        store.save_generation(2, b"history@2").unwrap();
        store.save(40, b"cursor naming 2").unwrap();
        assert_eq!(store.load_generation(1).unwrap(), b"history@1");
        assert_eq!(store.load_generation(2).unwrap(), b"history@2");
        // Pruning keeps the named generation and the snapshot itself.
        assert_eq!(store.prune_generations(2).unwrap(), 2);
        assert!(matches!(
            store.load_generation(1),
            Err(StoreError::NotFound(_))
        ));
        assert_eq!(store.load_generation(2).unwrap(), b"history@2");
        assert_eq!(store.load().unwrap().unwrap().0, 40);
        assert_eq!(store.prune_generations(2).unwrap(), 0);
    }

    #[test]
    fn fs_backend_wal_round_trips_with_torn_tail() {
        use crate::backend::FsBackend;
        let dir = std::env::temp_dir().join(format!("drams-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let backend = FsBackend::open(&dir).unwrap();
            let mut wal = Wal::open(
                Box::new(backend),
                WalConfig {
                    segment_records: 3,
                    durability: Durability::Flushed,
                },
            )
            .unwrap();
            for i in 0..5 {
                wal.append(&payload(i)).unwrap();
            }
            wal.write_snapshot(3, b"fs-state").unwrap();
            wal.prune_through(3).unwrap();
        }
        // Tear the tail file on disk: drop the final 2 bytes.
        {
            let name = segment_file_name(1);
            let path = dir.join(&name);
            let len = std::fs::metadata(&path).unwrap().len();
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(len - 2).unwrap();
        }
        {
            let backend = FsBackend::open(&dir).unwrap();
            let wal = Wal::open(
                Box::new(backend),
                WalConfig {
                    segment_records: 3,
                    durability: Durability::Flushed,
                },
            )
            .unwrap();
            assert_eq!(wal.next_seq(), 4, "torn record 4 truncated");
            assert_eq!(wal.first_retained_seq(), 3, "pruned prefix stays gone");
            assert_eq!(wal.read_snapshot().unwrap().unwrap().0, 3);
            let replayed = wal.replay_from(3).unwrap();
            assert_eq!(replayed, vec![(3, payload(3))]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "segment capacity must be >= 1")]
    fn zero_segment_capacity_panics() {
        let _ = Wal::open(
            Box::new(MemBackend::new()),
            WalConfig {
                segment_records: 0,
                durability: Durability::Flushed,
            },
        );
    }
}
